"""The benchmark's layer tracer wraps functions by name; each must exist,
and the wrappers it swaps into ``ArithFn.fn`` must be the ones called."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "bench" / "layertrace.py"


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


def _traced_calls(tmp_path, *argv):
    """(function, caller) -> calls of one traced CLI run, and its stdout."""
    stats, stdout = tmp_path / "stats.json", tmp_path / "stdout.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(LAYERTRACE), str(stats), str(stdout),
                    *argv], env=env, check=True, timeout=120)
    pairs = json.loads(stats.read_text())["pairs"]
    return ({(p["function"], p["caller"]): p["calls"] for p in pairs},
            stdout.read_text())


def test_tracer_counts_calls_through_a_swapped_arith_fn(tmp_path):
    # contract reads CLOSED_FORMS[("mu", 1)], whose fn the tracer replaces
    # with object.__setattr__ on the frozen ArithFn
    calls, _ = _traced_calls(tmp_path, "contract", "mu", "1", "40")
    assert calls[("contraction.closed_mu_alpha", "cli.main")] == 40
    calls, stdout = _traced_calls(tmp_path, "series", "--s", "3", "--n", "2000")
    assert calls[("verify.euler_product_check", "cli.main")] == 4
    assert stdout.count("\n") == 5   # header and four rows


def test_tracer_counts_the_contract_paths_memo_reads(tmp_path):
    # _rank_halves and fib_factorization read fib_factorization from their
    # module at call time, so the tracer's swap sees every memo read; a
    # default argument bound at import would hide them from it
    calls, _ = _traced_calls(tmp_path, "contract", "mu", "3", "40")
    assert calls[("fib.fib_factorization", "cli.main")] > 0
    assert calls[("fib.fib_factorization", "fib.fib_factorization")] > 0
