"""What a CLI process imports before it does any work.

Without a warm bytecode cache every module imported after ``site`` is
compiled from source on each run, so the CLI loads only what it needs at
start; the heavy standard modules load inside the functions that use them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses brings inspect, ast, dis, tokenize, linecache and copy;
# fractions brings decimal and numbers
NOT_AT_START = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                "linecache", "copy", "fractions", "decimal", "numbers",
                "json", "csv")

# imports nothing of its own, so that every module it reports was loaded by
# the import of the CLI
PROBE = """
import sys
before = set(sys.modules)
import fibdirichlet.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _loaded_by_cli_import(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", PROBE],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=60).stdout
    loaded = set(out.split())
    assert "fibdirichlet.cli" in loaded
    return loaded


def test_cli_import_loads_no_heavy_module():
    loaded = _loaded_by_cli_import()
    assert not loaded & set(NOT_AT_START), sorted(loaded & set(NOT_AT_START))


def test_cli_import_without_site_loads_no_pathlib():
    # without site nothing is loaded ahead of the CLI, so every module its
    # import needs shows; the cache file is read and written with open()
    assert "pathlib" not in _loaded_by_cli_import("-S")
