"""Command-line behavior: exit codes, file round trips, provenance."""

import json

import numpy as np
import pytest

import framelab.cli as cli
from framelab.cli import dispatch
from framelab.frames import frame_from_json
from framelab.numeric import matrix_from_json
from framelab.theorems import VerificationReport


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture
def onb4(tmp_path):
    path = tmp_path / "f.json"
    assert dispatch(["gen", "onb", "--dim", "4", "-o", str(path)]) == 0
    return path


@pytest.fixture
def op44(tmp_path):
    path = tmp_path / "O.json"
    assert (
        dispatch(
            ["gen", "operator", "--rows", "4", "--cols", "4", "--seed", "3", "-o", str(path)]
        )
        == 0
    )
    return path


class TestGen:
    def test_onb_file(self, onb4):
        frame = frame_from_json(read_json(onb4))
        assert frame.cardinality == 4
        np.testing.assert_array_equal(frame.vectors, np.eye(4))

    def test_spec_file_input(self, tmp_path):
        spec = tmp_path / "spec.json"
        out = tmp_path / "g.json"
        write_json(
            spec,
            {
                "kind": "gabor",
                "parameters": {"length": 8, "time_step": 2, "freq_step": 2},
                "seed": 0,
            },
        )
        assert dispatch(["gen", str(spec), "-o", str(out)]) == 0
        assert frame_from_json(read_json(out)).cardinality == 16

    def test_missing_parameters(self, tmp_path):
        assert dispatch(["gen", "onb", "-o", str(tmp_path / "x.json")]) == 3

    def test_unknown_kind(self, tmp_path):
        assert dispatch(["gen", "wavelet", "-o", str(tmp_path / "x.json")]) == 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gabor", "--length", "0"], "length must be >= 1"),
            (
                ["decaying", "--dim", "4", "--decay", "nan", "--eps", "0.1"],
                "decay must be a nonnegative number",
            ),
            (
                ["decaying", "--dim", "4", "--decay", "2", "--eps", "nan"],
                "amplitude must be a nonnegative finite number",
            ),
            (
                ["decaying", "--dim", "4", "--decay", "2", "--eps", "inf"],
                "amplitude must be a nonnegative finite number",
            ),
        ],
    )
    def test_invalid_generator_parameters(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert dispatch(["gen", *argv, "-o", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# (gen flags, the same generator as a spec file)
FLAGS_AND_SPECS = [
    (["onb", "--dim", "4"], {"kind": "onb", "parameters": {"dim": 4}}),
    (["mercedes"], {"kind": "mercedes"}),
    *[
        (
            ["gabor", "--length", "8", f"--{step.replace('_', '-')}", "2", "--window", window],
            {"kind": "gabor", "parameters": {"length": 8, step: 2, "window": window}},
        )
        # a delta window spans only with every time shift, a flat one only
        # with every frequency
        for window, step in (
            ("gaussian", "time_step"), ("delta", "freq_step"), ("ones", "time_step")
        )
    ],
    (
        ["decaying", "--dim", "6", "--decay", "2", "--eps", "0.1", "--seed", "3"],
        {
            "kind": "decaying_perturbation",
            "parameters": {"dim": 6, "decay": 2, "eps": 0.1},
            "seed": 3,
        },
    ),
    (
        ["operator", "--rows", "4", "--cols", "5", "--seed", "3"],
        {"kind": "random_operator", "parameters": {"rows": 4, "cols": 5}, "seed": 3},
    ),
    (
        ["operator", "--rows", "5", "--cols", "5", "--kind", "banded", "--width", "1"],
        {
            "kind": "random_operator",
            "parameters": {"rows": 5, "cols": 5, "structure": "banded", "width": 1},
        },
    ),
    (
        ["operator", "--rows", "4", "--cols", "6", "--kind", "lowrank", "--rank", "2"],
        {
            "kind": "random_operator",
            "parameters": {"rows": 4, "cols": 6, "structure": "lowrank", "rank": 2},
        },
    ),
]


class TestGenSpecFiles:
    """``gen`` builds flags and spec files through the same
    ``GeneratorSpec``, so both give the same bytes, and a spec file is
    checked as outside input: a bad one exits 3 with one error line."""

    @pytest.mark.parametrize(
        "flags, spec",
        FLAGS_AND_SPECS,
        ids=[
            "onb", "mercedes", "gabor-gaussian", "gabor-delta", "gabor-ones",
            "decaying", "operator-dense", "operator-banded", "operator-lowrank",
        ],
    )
    def test_flags_and_spec_file_agree(self, flags, spec, tmp_path, capsys):
        assert dispatch(["gen", *flags]) == 0
        from_flags = capsys.readouterr()
        path = tmp_path / "spec.json"
        write_json(path, spec)
        assert dispatch(["gen", str(path)]) == 0
        assert capsys.readouterr() == from_flags

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "onb", "parameters": {"dim": 4.9}}, "dim must be an integer, got 4.9"),
            ({"kind": "onb", "parameters": {"dim": True}}, "dim must be an integer, got True"),
            (
                {"kind": "gabor", "parameters": {"length": "8"}},
                "length must be an integer, got '8'",
            ),
            (
                {"kind": "onb", "parameters": {"dim": 4}, "seed": "7"},
                "seed must be an integer, got '7'",
            ),
            (
                {"kind": "onb", "parameters": {"dim": 4}, "seed": 1.9},
                "seed must be an integer, got 1.9",
            ),
            (
                {
                    "kind": "random_operator",
                    "parameters": {"rows": 4, "cols": 6, "structure": "lowrank", "rank": 2.5},
                },
                "rank must be an integer, got 2.5",
            ),
            (
                [1, 2],
                'a generator spec must be a JSON object {"kind": string, '
                '"parameters": object, "seed": integer}, the last two optional',
            ),
            ({"kind": "onb", "parameters": {}}, "generator onb needs ['dim']"),
            (
                {"kind": "gabor", "parameters": {"length": 8, "timestep": 2}},
                "generator gabor takes ['length', 'time_step', 'freq_step', "
                "'window'], not ['timestep']",
            ),
        ],
        ids=[
            "float-dim", "bool-dim", "string-length", "string-seed", "float-seed",
            "float-rank", "list", "missing", "misspelled",
        ],
    )
    def test_bad_spec_file(self, spec, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        write_json(path, spec)
        assert dispatch(["gen", str(path)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSimpleVerbs:
    def test_bounds(self, onb4, capsys):
        assert dispatch(["bounds", str(onb4)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["A"] == data["B"] == 1.0
        assert data["cardinality"] == 4

    def test_loading_logs_bounds_without_refactorizing(self, onb4, monkeypatch, capsys):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cli._load_frame(str(onb4))
        assert len(calls) == 1  # the frame's own construction
        assert "bounds (1, 1)" in capsys.readouterr().err

    def test_dual(self, onb4, tmp_path):
        out = tmp_path / "dual.json"
        assert dispatch(["dual", str(onb4), "-o", str(out)]) == 0
        np.testing.assert_array_equal(
            frame_from_json(read_json(out)).vectors, np.eye(4)
        )

    def test_localize(self, onb4, capsys):
        assert dispatch(["localize", str(onb4), "--s", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] is True
        assert data["jaffard_gram"] == 1.0
        assert data["version"]

    def test_localize_nan_threshold(self, onb4, capsys):
        argv = ["localize", str(onb4), "--s", "2", "--threshold", "nan"]
        assert dispatch(argv) == 3
        assert "threshold must not be NaN" in capsys.readouterr().err

    def test_coorbit_norm(self, onb4, tmp_path, capsys):
        vec = tmp_path / "v.json"
        write_json(vec, [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        weight = tmp_path / "w.json"
        write_json(weight, [1.0, 2.0, 1.0, 1.0])
        assert (
            dispatch(
                ["coorbit-norm", str(onb4), str(vec), "--p", "1", "--weight", str(weight)]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(3.0)

    def test_coorbit_norm_extreme_exponent(self, onb4, tmp_path, capsys):
        vec = tmp_path / "v.json"
        write_json(vec, [[10.0, 0.0]] * 4)
        assert dispatch(["coorbit-norm", str(onb4), str(vec), "--p", "400"]) == 0
        norm = json.loads(capsys.readouterr().out)["norm"]
        assert norm == pytest.approx(10.0 * 4 ** (1 / 400))

    def test_missing_file(self, tmp_path):
        assert dispatch(["bounds", str(tmp_path / "nope.json")]) == 3

    def test_invalid_frame(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_json(
            bad,
            {
                "space_dim": 2,
                "index_set": {"kind": "linear", "size": 2},
                "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            },
        )
        assert dispatch(["bounds", str(bad)]) == 3

    def test_overflowing_frame(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        write_json(
            bad,
            {
                "space_dim": 2,
                "index_set": {"kind": "linear", "size": 2},
                "vectors": [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            },
        )
        assert dispatch(["bounds", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frame operator overflows" in captured.err

    def test_ragged_frame(self, tmp_path, capsys):
        bad = tmp_path / "ragged.json"
        write_json(
            bad,
            {
                "space_dim": 2,
                "index_set": {"kind": "linear", "size": 2},
                "vectors": [[[1, 0], [0, 0]], [[0, 0]]],
            },
        )
        assert dispatch(["bounds", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: frame vectors must form a rectangular table\n"

    @pytest.mark.parametrize(
        "space_dim, size", [(2.9, 2), ("2", 2), (True, 2), (2, 2.5)]
    )
    def test_non_integer_dimension(self, tmp_path, capsys, space_dim, size):
        bad = tmp_path / "dims.json"
        write_json(
            bad,
            {
                "space_dim": space_dim,
                "index_set": {"kind": "linear", "size": size},
                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        )
        assert dispatch(["bounds", str(bad)]) == 3
        assert "must be an integer" in capsys.readouterr().err

    def test_non_integer_operator_rows(self, onb4, tmp_path, capsys):
        op = tmp_path / "O.json"
        write_json(op, {"rows": 2.9, "cols": 1, "entries": [[1, 0], [0, 0]]})
        argv = ["verify", "outer", "--frame1", str(onb4), "--frame2", str(onb4)]
        assert dispatch(argv + ["--op", str(op)]) == 3
        assert capsys.readouterr().err.endswith("error: rows must be an integer, got 2.9\n")


class TestKernelVerbs:
    def test_galerkin_synth_round_trip(self, onb4, op44, tmp_path):
        k = tmp_path / "k.json"
        back = tmp_path / "back.json"
        assert dispatch(["galerkin", str(op44), str(onb4), str(onb4), "-o", str(k)]) == 0
        assert (
            dispatch(["kernel-synth", str(k), str(onb4), str(onb4), "-o", str(back)])
            == 0
        )
        O = matrix_from_json(read_json(op44))
        O2 = matrix_from_json(read_json(back))
        assert np.linalg.norm(O - O2) <= 1e-9 * np.linalg.norm(O)

    def test_kernel_synth_validates_shape(self, onb4, tmp_path):
        k = tmp_path / "k.json"
        write_json(
            k,
            {
                "I": {"kind": "linear", "size": 2},
                "J": {"kind": "linear", "size": 2},
                "entries": [[1.0, 0.0]] * 4,
            },
        )
        assert dispatch(["kernel-synth", str(k), str(onb4), str(onb4)]) == 3


class TestVerify:
    @pytest.mark.parametrize(
        "verb, names",
        [
            (["verify", "outer"], ["--frame1", "--frame2"]),
            (
                ["verify", "independence", "--p", "inf", "--q", "inf"],
                ["--frame1", "--frame2", "--frame1b", "--frame2b"],
            ),
            (["compress", "--tau", "0.5"], ["--frame1", "--frame2"]),
        ],
        ids=["outer", "independence", "compress"],
    )
    def test_each_frame_file_is_parsed_once(
        self, verb, names, onb4, op44, monkeypatch, capsys
    ):
        """A file named by several arguments is parsed and factored once,
        and each argument still gets its own ``loaded`` line."""
        calls = {"frame_from_json": 0, "canonical_dual": 0}
        for name in calls:
            real = getattr(cli, name)

            def counting(obj, name=name, real=real):
                calls[name] += 1
                return real(obj)

            monkeypatch.setattr(cli, name, counting)
        if verb[0] == "compress":
            argv = ["compress", str(op44), str(onb4), str(onb4), *verb[1:]]
        else:
            argv = [*verb, "--op", str(op44)]
            for name in names:
                argv += [name, str(onb4)]
        assert dispatch(argv) == 0
        assert calls == {"frame_from_json": 1, "canonical_dual": 1}
        loaded = f"loaded {onb4}: 4 vectors in C^4, bounds (1, 1)\n"
        assert capsys.readouterr().err == len(names) * loaded

    def test_outer_report(self, onb4, op44, capsys):
        code = dispatch(
            [
                "verify", "outer",
                "--frame1", str(onb4),
                "--frame2", str(onb4),
                "--op", str(op44),
                "--seed", "1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "ratio" in report and report["pass"] is True
        assert report["config"]["seed"] == 1
        assert report["version"]

    def test_all_verbs_run(self, onb4, op44, tmp_path, capsys):
        base = [
            "--frame1", str(onb4),
            "--frame2", str(onb4),
            "--op", str(op44),
        ]
        assert dispatch(["verify", "inner"] + base) == 0
        assert dispatch(["verify", "projective"] + base) == 0
        assert dispatch(["verify", "schur", "--p", "2", "--variant", "ii"] + base) == 0
        assert dispatch(["verify", "schatten", "--p", "1.5"] + base) == 0
        assert (
            dispatch(
                ["verify", "independence", "--frame1b", str(onb4), "--frame2b", str(onb4)]
                + base
            )
            == 0
        )
        capsys.readouterr()

    def test_tolerance_is_not_an_option(self, onb4, op44, capsys):
        argv = [
            "verify", "outer",
            "--frame1", str(onb4),
            "--frame2", str(onb4),
            "--op", str(op44),
        ]
        assert dispatch(argv + ["--tol", "1"]) == 2
        assert "unrecognized arguments: --tol 1" in capsys.readouterr().err

    def test_csv_format(self, onb4, op44, capsys):
        code = dispatch(
            [
                "verify", "outer",
                "--frame1", str(onb4),
                "--frame2", str(onb4),
                "--op", str(op44),
                "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("name,lhs,rhs,ratio,budget,pass,seed")

    def test_failed_verification_exits_one(self, onb4, op44, monkeypatch):
        failing = VerificationReport(
            name="outer", lhs=1.0, rhs=2.0, ratio=0.5,
            constant_budget=1.0, passed=False,
        )
        monkeypatch.setattr(cli, "verify_outer", lambda *a, **kw: failing)
        code = dispatch(
            [
                "verify", "outer",
                "--frame1", str(onb4),
                "--frame2", str(onb4),
                "--op", str(op44),
                "-o", "/dev/null",
            ]
        )
        assert code == 1

    def test_independence_checks_exponents_before_operator(
        self, onb4, tmp_path, capsys
    ):
        argv = ["verify", "independence", "--frame1", str(onb4), "--frame2", str(onb4)]
        argv += ["--frame1b", str(onb4), "--frame2b", str(onb4), "--p", "0.5"]
        assert dispatch(argv + ["--op", str(tmp_path / "missing.json")]) == 3
        assert "exponent 0.5 outside [1, inf]" in capsys.readouterr().err

    def test_independence_needs_second_family(self, onb4, op44):
        assert (
            dispatch(
                [
                    "verify", "independence",
                    "--frame1", str(onb4),
                    "--frame2", str(onb4),
                    "--op", str(op44),
                ]
            )
            == 3
        )


class TestMalformedComplexEntries:
    """An entry that is not a ``[re, im]`` pair of numbers is a validation
    error (exit 3), never a traceback."""

    def test_operator_entries(self, onb4, tmp_path, capsys):
        op = tmp_path / "O.json"
        write_json(op, {"rows": 1, "cols": 2, "entries": [1, 2]})
        argv = ["verify", "outer", "--frame1", str(onb4), "--frame2", str(onb4)]
        assert dispatch(argv + ["--op", str(op)]) == 3
        assert "not a [re, im] pair" in capsys.readouterr().err

    def test_frame_vectors(self, tmp_path, capsys):
        frame = tmp_path / "f.json"
        write_json(
            frame,
            {
                "space_dim": 2,
                "index_set": {"kind": "linear", "size": 2},
                "vectors": [[1, 0], [0, 1]],
            },
        )
        assert dispatch(["bounds", str(frame)]) == 3
        assert "not a [re, im] pair" in capsys.readouterr().err

    def test_vector_object_without_entries(self, onb4, tmp_path, capsys):
        vec = tmp_path / "v.json"
        write_json(vec, {"values": [1, 2]})
        assert dispatch(["coorbit-norm", str(onb4), str(vec), "--p", "2"]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {vec} must hold a matrix object, a list of [re, im] pairs "
            'or {"entries": [[re, im], ...]}'
        )

    @pytest.mark.parametrize("entries", [[1, 2], [[1.0, 0.0], [1.0, "0"]], 7])
    def test_coorbit_norm_vector(self, onb4, tmp_path, capsys, entries):
        vec = tmp_path / "v.json"
        write_json(vec, entries)
        assert dispatch(["coorbit-norm", str(onb4), str(vec), "--p", "2"]) == 3
        assert "not a [re, im] pair" in capsys.readouterr().err


class TestWeightFiles:
    """A weight file holds a list of JSON numbers, bare or under
    ``"values"``; anything else is a validation error (exit 3), never
    coerced into a weight and never a traceback."""

    @staticmethod
    def argv(flag, onb4, op44, weight):
        if flag == "--weight":
            vec = weight.with_name("v.json")
            write_json(vec, [[1.0, 0.0]] * 4)
            return ["coorbit-norm", str(onb4), str(vec), "--p", "1", flag, str(weight)]
        argv = ["verify", "outer", "--frame1", str(onb4), "--frame2", str(onb4)]
        return argv + ["--op", str(op44), flag, str(weight)]

    @pytest.mark.parametrize("flag", ["--weight1", "--weight2", "--weight"])
    @pytest.mark.parametrize(
        "values",
        [
            ["1", 1.0, 1.0, 1.0],
            [True, 1.0, 1.0, 1.0],
            {"values": [1.0, 1.0, "2", 1.0]},
            [1.0, 1.0, 1.0, None],
            [1, 1, 1, 10**400],
            {"values": {"a": 1}},
            {"a": 1},
            7,
        ],
        ids=[
            "string", "boolean", "string-in-values", "null", "huge-int", "object",
            "no-values", "scalar",
        ],
    )
    def test_non_numbers_are_rejected(self, onb4, op44, tmp_path, capsys, flag, values):
        weight = tmp_path / "w.json"
        write_json(weight, values)
        assert dispatch(self.argv(flag, onb4, op44, weight)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: weight")

    def test_integers_are_numbers(self, onb4, op44, tmp_path, capsys):
        weight = tmp_path / "w.json"
        write_json(weight, {"values": [1, 2, 1, 1]})
        assert dispatch(self.argv("--weight1", onb4, op44, weight)) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


class TestCompress:
    def test_single_tau(self, onb4, op44, capsys):
        assert (
            dispatch(
                ["compress", str(op44), str(onb4), str(onb4), "--tau", "0.5"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 16
        assert "coefficients" in data

    def test_sweep_csv(self, onb4, op44, capsys):
        assert (
            dispatch(
                [
                    "compress", str(op44), str(onb4), str(onb4),
                    "--tau", "0.0,0.5,1.0", "--format", "csv",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "threshold,kept,total,sparsity,error_surrogate"
        assert len(lines) == 4
        kept = [int(line.split(",")[1]) for line in lines[1:]]
        assert kept[0] >= kept[1] >= kept[2]

    def test_nan_tau_is_a_validation_error(self, onb4, op44, capsys):
        argv = ["compress", str(op44), str(onb4), str(onb4), "--tau", "nan"]
        assert dispatch(argv) == 3
        assert "threshold must be nonnegative, got nan" in capsys.readouterr().err


class TestCsv:
    """The one CSV writer: a header and, per report, the named fields of
    its ``to_json()``, each as ``str`` of the value."""

    @staticmethod
    def rows(argv, capsys):
        dispatch([*argv, "--format", "csv"])
        header, *rows = capsys.readouterr().out.splitlines()
        dispatch(argv)
        report = json.loads(capsys.readouterr().out)
        return header.split(","), [row.split(",") for row in rows], report

    @pytest.mark.parametrize(
        "which", ["outer", "inner", "projective", "schur", "independence", "schatten"]
    )
    def test_verify_row_is_the_report(self, which, onb4, op44, capsys):
        argv = ["verify", which, "--frame1", str(onb4), "--frame2", str(onb4)]
        argv += ["--op", str(op44), "--frame1b", str(onb4), "--frame2b", str(onb4)]
        fields, rows, report = self.rows(argv, capsys)
        assert fields == ["name", "lhs", "rhs", "ratio", "budget", "pass", "seed"]
        assert rows == [[str(report[f]) for f in fields]]

    def test_compress_rows_are_the_sweep(self, onb4, op44, capsys):
        argv = ["compress", str(op44), str(onb4), str(onb4), "--tau", "0.0,0.5,1.0"]
        fields, rows, report = self.rows(argv, capsys)
        assert fields == ["threshold", "kept", "total", "sparsity", "error_surrogate"]
        assert rows == [[str(r[f]) for f in fields] for r in report["sweep"]]


class TestExtremeWeights:
    """A weight grid beyond the float range is rejected with one error
    line: no NumPy warning before it, and no compression of a grid that
    overflowed."""

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize(
        "verb", [["verify", "outer"], ["verify", "inner"], ["verify", "projective"],
                 ["verify", "schur", "--variant", "ii"], ["compress"]],
        ids=["outer", "inner", "projective", "schur", "compress"],
    )
    def test_rejected_without_warning(self, verb, scale, onb4, op44, tmp_path, capsys):
        weight = tmp_path / "w.json"
        write_json(weight, [scale] * 4)
        if verb == ["compress"]:
            argv = ["compress", str(op44), str(onb4), str(onb4), "--tau", "0.5"]
        else:
            argv = [*verb, "--frame1", str(onb4), "--frame2", str(onb4), "--op", str(op44)]
        argv += ["--weight1", str(weight), "--weight2", str(weight)]
        assert dispatch(argv) == 3
        loaded = f"loaded {onb4}: 4 vectors in C^4, bounds (1, 1)\n"
        error = "error: weight grid must be 2-D, positive, finite\n"
        assert capsys.readouterr() == ("", 2 * loaded + error)


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_no_args(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_suite_name(self, capsys):
        assert dispatch(["suite", "medium"]) == 2
        capsys.readouterr()


class TestSuiteVerb:
    def test_fast_suite(self, tmp_path):
        out = tmp_path / "suite.json"
        assert dispatch(["suite", "fast", "--seed", "0", "-o", str(out)]) == 0
        data = read_json(out)
        assert data["pass"] is True
        assert len(data["checks"]) >= 12

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FRAMELAB_SEED", "7")
        assert dispatch(["suite", "fast"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 7

    def test_malformed_seed_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("FRAMELAB_SEED", "abc")
        assert dispatch(["suite", "fast"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FRAMELAB_SEED")
        assert captured.err.count("\n") == 1
