"""The package's public names, pinned: adding or removing one changes this
list, so any growth of the API shows up as a reviewed diff.

Not public, because no suite check, verifier or CLI verb needs them:
``is_orthonormal_basis`` (the Schatten budget is ``sqrt(B)``, which is
exactly one on ``onb(d)``, so no verifier tests for an orthonormal basis;
``tests/test_coorbit.py`` keeps a local copy for its reference oracle)
and ``RankOneDecomposition`` (``verify_inner`` returns its report alone;
the nuclear sum is the report's ``lhs`` and ``details["terms"]`` counts
the rank-one terms) and ``cyclic_index_set`` (``IndexSet("cyclic", n)``
builds the same set).
"""

import types

import framelab

PUBLIC_API = {
    # frames
    "Frame",
    "FramePair",
    "IndexSet",
    "NotAFrameError",
    "analysis",
    "canonical_dual",
    "cross_gram",
    "frame_bounds",
    "frame_from_json",
    "frame_operator",
    "frame_to_json",
    "gram",
    "linear_index_set",
    "product_cyclic_index_set",
    "synthesis",
    # numeric
    "ConditioningError",
    "PreconditionError",
    "matrix_from_json",
    "matrix_to_json",
    "solve_posdef",
    "svd_values",
    # localisation
    "JaffardParams",
    "LocalisationReport",
    "jaffard_norm",
    "localisation_report",
    "poly_weight",
    "schur_weighted_bound",
    # coorbit
    "CoorbitSpec",
    "MixedSpaceSpec",
    "OpNormInterval",
    "SeqSpaceSpec",
    "coorbit_norm",
    "coorbit_opnorm",
    "mixed_norm",
    "tensor_weights",
    "weighted_seq_norm",
    # tensor_kernels
    "correspondence_residual",
    "galerkin",
    "galerkin_from_json",
    "galerkin_to_json",
    "synthesize_kernel",
    # theorems
    "CompressionReport",
    "VerificationReport",
    "compress_operator",
    "schatten_check",
    "schur_characterization",
    "verify_frame_independence",
    "verify_inner",
    "verify_outer",
    "verify_projective",
    # generators
    "GeneratorSpec",
    "RNG_SCHEME",
    "decaying_perturbation",
    "finite_gabor",
    "gaussian_window",
    "mercedes",
    "onb",
    "random_operator",
    "substream",
    # suite
    "run_suite",
    "strip_timings",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(framelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_API
