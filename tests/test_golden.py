"""Byte-identical CLI output for a fixed golden set of commands.

The first five digests were taken from the command-line program before the
von Mangoldt function became an ordinary ArithFn, the other four before
divisors carried their prime factors, and the cache-file digest before rank
and entry exponent stopped being memoized; refactors must keep every one of
them.  Each command runs in-process through ``cli.main``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fibdirichlet import cli
from fibdirichlet import fib as fib_module
from fibdirichlet.cache import load_cache_file

STDOUT_DIGESTS = {
    ("verify", "all"):
        "145bc48730b4f17a10302f45d6d88d01966d0d02bf3cbf7b489e27e274af5aba",
    ("report-asymptotics", "--x", "5,12,30", "--format", "json"):
        "6ed0df7997ea2278cb3630c020a9a1490e50ca5ec0ec36a324b5d585d74f307e",
    ("contract", "mu", "3", "40"):
        "2cafe63fc056008c98c739af0c8b205de10447f05ba0ddd4ba151f3688c632f8",
    ("series", "--n", "2000"):
        "8c3438973e5230e8e0fbcee963bf2c584912d4275039caa6aa9fadc587c69e1d",
    # taken before divisors carried their factors; they guard λ, φ, d and
    # the sieve-backed μ of the closed forms
    ("contract", "lambda", "1", "80"):
        "0e3754d22d8d0acff5f10d4b8b60673ff99fd9286dae0053eee33f76da052fda",
    ("contract", "phi", "1", "60"):
        "b1295ccad77d3adb1d92422ec1d9fd92279bbff6fb0834ac41736f4bee83bd72",
    ("contract", "divisor_count", "1", "60"):
        "1009cebfd284a1eef47ab411733a81821f1938abc7698a78c1d351ebb11866f7",
    ("series", "--s", "3", "--n", "50000"):
        "cd7165e55e003d92b3ca85b596799983d2ba14cd45d4b61323baab2ceb7cac42",
    # taken while the budget was still passed as a parameter; they guard
    # what a small --budget reaches: 44, 43 and 2 budget-exceeded rows in
    # the first three, and the rank and entry-exponent scans in the others
    ("contract", "mu", "3", "120", "--budget", "10000"):
        "9cfa10c1f1c8bf968304f01bf4ca061988e24a36ccaa18a7241d3611da103996",
    ("contract", "lambda", "1", "100", "--budget", "1000"):
        "e833647ccb6d60fd97ccde6d2dd0ecc6333962e135591b3615a317b0f1d5441d",
    ("report-asymptotics", "--x", "5,12,30,60", "--budget", "1000"):
        "a33ad4d1d05c0e67ebf3e4b4295be34873a2606157aa3e3e3e52ef03919afc8c",
    ("entry-exponent", "10214411", "--budget", "1000"):
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("alpha", "1000000007", "--budget", "100000"):
        "495a9edb94e6c81fb2d6748203cc06228ef9791d89b9f8549a61d91573ea1cf2",
    # taken before the series read n**s from one shared table: a non-integer
    # s, and an s at which 16**s overflows but f(16) = 0 in every form
    ("series", "--s", "2.5", "--n", "20000"):
        "64b24b1ee5653ff7fc4648366c0347ed64507c53cca45f4378abbf53db510a5c",
    ("series", "--s", "258.9", "--n", "16"):
        "fb781202d3af14c41c491a7c4952bab612f48640eb7cfa592c78852b56538b83",
    # taken before the rank-n divisors were tagged on F(n)'s two divisor
    # halves: the λ tower to the index cap, and the generic stream there
    ("contract", "lambda", "2", "120"):
        "dd54831bec0f68ec832aa905c8dc065f7fe41f163c662ec6c0296cf0a45853a2",
    ("contract", "phi", "1", "120"):
        "9a284ab1afb293dc5c7c4c663d200e33056e5c18b95b97192fe07a293ae57ac1",
    # taken while μ's depth-1 contraction still summed μ over every rank-n
    # divisor, before it was read off μ's own form on the halves
    ("contract", "mu", "1", "120"):
        "b947a97204530d448aba4a6c1d45a2534de2687d09f23ecfdd4a7a88162d0d96",
    # taken while the divisor tables of theorem 1 still held Factorizations,
    # before μ, φ, λ and Λ's base were read off a plain-int listing
    ("verify", "theorem1", "--x", "120"):
        "e7834422fb5211bda8503783eca510799c4e949d36060a3841afe306969c55fd",
    # taken while λ, one and d still summed f over every rank-n divisor,
    # before each multiplicative f was summed per tag on F(n)'s halves; the
    # last expands the contributors level by level and sums `one` on the
    # halves of each m
    ("contract", "lambda", "1", "120"):
        "eb05e8363ad6e7caa85c2ad03b3eb601f039c3330e37464b16891cd67293c4a7",
    ("contract", "one", "1", "120"):
        "af87b079ea49e4571d6ebb56c055094b439787319f854f0838c0f282b9f0fa92",
    ("contract", "divisor_count", "1", "120"):
        "d152aa9f10b445db9cddb772647dbbc03889c806194232a511e7c6dcb9d7034d",
    ("contract", "one", "2", "11"):
        "8f48a448389b0e3afa9714f6c498cb4cecea17de0273ee8cca65ed0d74bd99c3",
}

# The report file of the theorem1 suite, whose rows include the Λ residual.
THEOREM1_REPORT_DIGEST = (
    "25b2b609f235472796cce8671237b6164afae354ea1afa5acfff9240e4a01bde")

# The same report at the benchmark's x = 100, taken while Λ's values were
# still held by a value type of their own.
THEOREM1_X100_REPORT_DIGEST = (
    "1718ee1b8195fa298efc706f51241dc29f584796f8dafce0d05e710f693f4f6e")

# The report file of phi-identity at the index cap, taken with the theorem1
# stdout digest above, while its ranks were read off Factorization divisors.
PHI_IDENTITY_X120_REPORT_DIGEST = (
    "e9ba7b7dcc22eaf849f9e568a11b90b81c39716c4785d95ebd979d0d4eb8343f")

# The report file of the euler-product suite, taken with the last digests
# above; it pins the suite's name-major order and its residuals.
EULER_PRODUCT_REPORT_DIGEST = (
    "e02037ba0453354960be66c6e13b239e3d8b9aeded2a37105e5b01b9bd151748")

# The cache file written by `contract mu 3 40 --cache FILE` from an empty memo.
CACHE_FILE_DIGEST = (
    "7721961bc714d72151cc12f8b5b6a974a1a11b6baf826d4d294e001d7a110c7e")

# The benchmark's own digests, among them those of the cache files it writes.
BENCH_GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench"
                           / "golden.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _no_cache_from_environment(monkeypatch):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS), ids=" ".join)
def test_stdout_is_golden(argv, capsys):
    assert cli.main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out.encode()) == STDOUT_DIGESTS[argv]


def test_verify_all_stops_at_the_budget_index_cap(capsys):
    assert cli.main(["verify", "all", "--budget", "1000"]) == 3
    assert "F(58)" in capsys.readouterr().err


def test_theorem1_report_file_is_golden(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["verify", "theorem1", "--x", "40", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == THEOREM1_REPORT_DIGEST


def test_theorem1_report_file_at_the_benchmark_x_is_golden(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["verify", "theorem1", "--x", "100", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == THEOREM1_X100_REPORT_DIGEST
    assert (_sha256(capsys.readouterr().out.encode())
            == BENCH_GOLDEN["stdout"]["verify theorem1 --x 100"])


# the benchmark's other invocations, whose stdout is all they leave; the
# series one is the only pinned run past Dilation.values' first block
@pytest.mark.parametrize("command", [
    "fib 1", "alpha 10214411", "alpha 10579363", "alpha 10792519",
    "series --s 3 --n 200000"])
def test_benchmark_stdout_is_golden(command, capsys):
    assert cli.main(command.split()) == 0
    assert (_sha256(capsys.readouterr().out.encode())
            == BENCH_GOLDEN["stdout"][command])


def test_phi_identity_report_file_at_the_index_cap_is_golden(tmp_path,
                                                            capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["verify", "phi-identity", "--x", "120",
                     "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == PHI_IDENTITY_X120_REPORT_DIGEST


def test_euler_product_report_file_is_golden(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["verify", "euler-product", "--n", "20000",
                     "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == EULER_PRODUCT_REPORT_DIGEST


def test_cache_file_is_golden(tmp_path, capsys, monkeypatch):
    # the file holds every F(n) factored so far, so start from an empty memo
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    cache = tmp_path / "cache.txt"
    assert cli.main(["contract", "mu", "3", "40", "--cache", str(cache)]) == 0
    assert _sha256(cache.read_bytes()) == CACHE_FILE_DIGEST


# pi-alpha keeps F(1) = F(2) = 1 out of the memo, so its file starts at n = 3
@pytest.mark.parametrize("command, first", [("contract mu 3 120", 2),
                                            ("verify pi-alpha --x 120", 3)])
def test_benchmark_cache_files_are_golden_and_load(command, first, tmp_path,
                                                   capsys, monkeypatch):
    key = command + " --cache {cache}"
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    cache = tmp_path / "cache.txt"
    assert cli.main(command.split() + ["--cache", str(cache)]) == 0
    assert _sha256(cache.read_bytes()) == BENCH_GOLDEN["cache_file"][key]
    assert (_sha256(capsys.readouterr().out.encode())
            == BENCH_GOLDEN["stdout"][key])
    assert [r.n for r in load_cache_file(cache)] == list(range(first, 121))
