"""The benchmark's tracer wraps framelab functions by name; every name it
lists must still exist, or traced benchmark runs break."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, name", _targets())
def test_target_resolves(module_name, name):
    module = importlib.import_module(f"framelab.{module_name}")
    assert callable(getattr(module, name, None)), f"framelab.{module_name}.{name}"
