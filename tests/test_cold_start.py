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
# fractions brings decimal and numbers; argparse brings gettext, and
# gettext brings locale where a help string is translated
NOT_AT_START = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                "linecache", "copy", "fractions", "decimal", "numbers",
                "json", "csv", "argparse", "gettext", "locale")

# imports nothing of its own, so that every module it reports was loaded by
# the import of the CLI
PROBE = """
import sys
before = set(sys.modules)
import fibdirichlet.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


# runs a corollary check to its end, then lists every module loaded so far
COROLLARY_PROBE = """
import sys
from fibdirichlet import cli
assert cli.main(["verify", "corollary-mult", "--n", "12"]) == 0
print("\\n".join(sorted(sys.modules)), file=sys.stderr)
"""


# runs the command that its arguments spell, then lists every module loaded
# so far
COMMAND_PROBE = """
import sys
from fibdirichlet import cli
assert cli.main(sys.argv[1:]) == 0
print("\\n".join(sorted(sys.modules)), file=sys.stderr)
"""


def _run(probe, *flags, args=()):
    """probe run in a fresh interpreter, with no cache file, its output held."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FIBDIRICHLET_CACHE", None)
    return subprocess.run([sys.executable, *flags, "-c", probe, *args],
                          capture_output=True, text=True, env=env, check=True,
                          timeout=60)


def _loaded_by_cli_import(*flags):
    loaded = set(_run(PROBE, *flags).stdout.split())
    assert "fibdirichlet.cli" in loaded
    return loaded


def test_cli_import_loads_no_heavy_module():
    loaded = _loaded_by_cli_import()
    assert not loaded & set(NOT_AT_START), sorted(loaded & set(NOT_AT_START))


def test_cli_import_without_site_loads_no_pathlib():
    # without site nothing is loaded ahead of the CLI, so every module its
    # import needs shows; the cache file is read and written with open(),
    # and the annotations name collections.abc, not typing
    loaded = _loaded_by_cli_import("-S")
    assert "pathlib" not in loaded
    assert "typing" not in loaded


def test_corollary_mult_loads_no_fractions():
    # the corollary is summed in exact ints, so no Fraction is made
    loaded = set(_run(COROLLARY_PROBE).stderr.split())
    assert "fibdirichlet.verify" in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_a_command_loads_no_argument_parser():
    # argv is read off cli.COMMANDS, so neither argparse nor the gettext and
    # locale it loads are compiled at the start of a process
    loaded = set(_run(COMMAND_PROBE, "-S", args=["alpha", "7"]).stderr.split())
    assert "fibdirichlet.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}
