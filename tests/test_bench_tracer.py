"""The benchmark's layer tracer wraps functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("short, name", [
    (short, name) for short, names in _load_layertrace().TRACED.items()
    for name in names])
def test_traced_name_exists(short, name):
    module = importlib.import_module(f"fibdirichlet.{short}")
    assert callable(getattr(module, name, None))
