"""The traced benchmark (``bench/run.py --trace``) wraps pgmkit functions
by module and attribute name; each one it names must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TARGETS]


@pytest.mark.parametrize("module_name, attr", _targets())
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:  # a method, wrapped on its class as the tracer does
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))
