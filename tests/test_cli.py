import csv
import json
import math
import os
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from fibdirichlet import cache as cache_module
from fibdirichlet import cli, contraction, numtheory, verify
from fibdirichlet import fib as fib_module
from fibdirichlet.cache import (
    CacheRecord,
    collect_records,
    format_record,
    load_cache_file,
    parse_record,
    save_cache_file,
)
from fibdirichlet.numtheory import (
    ArithFn,
    BudgetExceededError,
    Factorization,
)
from fibdirichlet.verify import VerificationReport, primitive_prime_totals


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def test_scalar_commands(capsys):
    assert run_cli(["fib", "12"]) == 0
    assert run_cli(["alpha", "2"]) == 0
    assert run_cli(["alpha", "10"]) == 0
    assert run_cli(["entry-exponent", "12"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["144", "3", "15", "2"]


def readme_block(section, language):
    """The first ```language block under README's `## section` heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split(f"## {section}\n", 1)[1]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_cli_examples():
    """(argv, comment) for each `fibdirichlet …` line of README's CLI block."""
    examples = []
    for line in readme_block("CLI", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "fibdirichlet", line
        examples.append((argv[1:], comment.strip()))
    return examples


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # --out files land here
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    printed = {}
    for argv, comment in readme_cli_examples():
        assert run_cli(argv) == 0, argv
        printed[argv[0]] = capsys.readouterr().out, comment
    for command, value in (("fib", "144"), ("alpha", "3"),
                           ("entry-exponent", "2")):
        out, comment = printed[command]
        assert out == value + "\n" and comment.split()[0] == value, command


def test_readme_library_example_runs(capsys):
    block = readme_block("Library use", "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == (
        "1000000008\nfactoring 1000000007 exceeded the work budget\n")


# argvs that the reference parser accepts: each spelling of a flag, values
# that start with '-', flags before and after the positionals, and repeats,
# each read alike by argparse of Python 3.10 to 3.13
ACCEPTED = [argv for argv, _ in readme_cli_examples()] + [shlex.split(line) for line in (
    "fib 12", "fib --budget 5 12", "fib 12 --budget=5", "fib 12 --budget -5",
    "fib 12 --budget=-5", "fib 12 --budget 5 --budget 7", "alpha -3",
    "alpha 7 --cache c", "alpha 7 --cache=c", "alpha 7 --cache= --budget 9",
    "alpha ' 7 '", "entry-exponent 12 --cache c --cache d",
    "entry-exponent 1_000", "contract mu", "contract phi 3",
    "contract one 2 40", "contract --budget 5 mu 3 120",
    "contract --format json --out f mu 2", "contract mu 1 -3",
    "contract mu -1", "contract mu 3 120 --precision=-1",
    "contract mu 3 120 --format=json --format csv --precision 3",
    "contract lambda 1 12 --out 'a b' --cache '-a b'", "fib -- 5",
    "contract mu 1 -- 2",
    "verify all", "verify theorem1 --x 1e300", "verify theorem1 --x .5",
    "verify theorem1 --x -3", "verify theorem1 --x=-3", "verify logprod --x=-.5",
    "verify euler-product --s -2.5 --n -4 --which mu2",
    "verify --x 12 pi-alpha --format json", "verify all --s nan --s 3",
    "report-asymptotics", "report-asymptotics --x 5,12",
    "report-asymptotics --x=5,50,200 --format json", "report-asymptotics --x ''",
    "report-asymptotics --x -5", "report-asymptotics --x=-5,3",
    "series", "series --which mu --s 3 --n 2000", "series --s=-1 --n 1_000",
    "series --which=all --s inf",
)] + [["verify", check, *flag]
      for check in (*sorted(verify.SUITE), "all")
      for name, value in (("x", "5"), ("s", "3"), ("n", "12"), ("which", "mu"))
      for flag in ([f"--{name}", value], [f"--{name}={value}"])]

# argvs that the reference parser refuses
REFUSED = [shlex.split(line) for line in (
    "", "nope", "-x", "--budget 3 fib 5", "-5", "fib", "fib 1 2", "fib x",
    "fib 1.5", "fib 5 --out f", "fib 5 --format json", "fib 5 --precision=3",
    "fib 5 --budget", "fib 5 --budget x", "fib 5 --budget --cache c",
    "fib 5 --budget -h", "fib 5 --help=x", "fib 5 --budget --",
    "contract mu 1 --out -f", "contract mu -- -3 --budget", "alpha 7 --cache",
    "alpha 7 --nope", "alpha --nope 7", "contract", "contract foo",
    "contract mu x", "contract mu 1 2 3", "contract mu 1 2 --format xml",
    "contract mu 1 2 --precision 1.5", "verify", "verify nope",
    "verify theorem1 --x", "verify theorem1 --x inf", "verify theorem1 --x=nan",
    "verify theorem1 --x -inf", "verify theorem1 --x=-inf",
    "verify theorem1 --x 1e400",
    "verify euler-product --which nope", "verify euler-product --n 1e3",
    "series --which nope", "series --s x", "series --n 2.0",
    "report-asymptotics 5", "report-asymptotics --x",
)]


@pytest.mark.parametrize("argv", ACCEPTED, ids=shlex.join)
def test_parse_args_reads_what_argparse_reads(argv, reference_parser):
    assert vars(cli.parse_args(argv)) == vars(reference_parser.parse_args(argv))


@pytest.mark.parametrize("argv", REFUSED, ids=shlex.join)
def test_parse_args_refuses_what_argparse_refuses(argv, reference_parser,
                                                  capsys):
    with pytest.raises(SystemExit) as exc:
        reference_parser.parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: fibdirichlet")
    assert error.startswith("fibdirichlet") and ": error: " in error


def test_parse_args_refuses_an_abbreviated_flag(reference_parser, capsys):
    # argparse reads a unique prefix as the flag; parse_args does not
    assert reference_parser.parse_args(["fib", "5", "--bud", "3"]).budget == 3
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["fib", "5", "--bud", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bud 3" in capsys.readouterr().err


def test_contract_reads_its_positionals_around_flags():
    # argparse 3.11 takes depth and n_max as absent at the first flag
    args = cli.parse_args(["contract", "mu", "--budget", "5", "3", "--out",
                           "f", "120"])
    assert (args.fn, args.depth, args.n_max, args.budget, args.out) == (
        "mu", 3, 120, 5, "f")


@pytest.mark.parametrize("argv, read", [
    (["fib", "5", "--"], {"n": 5}),
    (["contract", "--", "mu", "1", "2"], {"fn": "mu", "depth": 1, "n_max": 2}),
    (["contract", "mu", "--", "-3", "5"], {"depth": -3, "n_max": 5}),
    (["alpha", "--", "--budget"], None)])
def test_every_token_after_a_double_dash_is_a_positional(argv, read, capsys):
    if read is None:
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 2
        assert "argument n: expected an integer, got '--budget'" in (
            capsys.readouterr().err)
        return
    args = vars(cli.parse_args(argv))
    assert {name: args[name] for name in read} == read


# the flags each command takes
COMMON_FLAGS = ("--cache", "--budget")
ROW_FLAGS = COMMON_FLAGS + ("--format", "--out", "--precision")
COMMAND_FLAGS = {
    "fib": COMMON_FLAGS, "alpha": COMMON_FLAGS, "entry-exponent": COMMON_FLAGS,
    "contract": ROW_FLAGS,
    "verify": ROW_FLAGS + ("--x", "--s", "--n", "--which"),
    "report-asymptotics": ROW_FLAGS + ("--x",),
    "series": ROW_FLAGS + ("--which", "--s", "--n")}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMAND_FLAGS])
def test_help_exits_0_and_names_every_flag(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: fibdirichlet ")
    words = set(captured.out.replace(",", " ").split())
    assert "-h" in words and "--help" in words
    if command is None:
        assert set(COMMAND_FLAGS) <= words
        return
    assert set(COMMAND_FLAGS[command]) <= words
    assert not (set(ROW_FLAGS) - set(COMMAND_FLAGS[command])) & words


def test_fib_prints_past_the_int_string_limit(capsys):
    # str() of an int refuses more than 4300 digits by default; the limit
    # is the same after the command as before it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run_cli(["fib", "21000"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    digits = capsys.readouterr().out.strip()
    golden = (1 + math.sqrt(5)) / 2
    assert len(digits) == math.floor(21000 * math.log10(golden)
                                     - math.log10(math.sqrt(5))) + 1
    assert int(digits[-12:]) == fib_module.fib_mod(21000, 10**12)


@pytest.mark.parametrize("command", ["fib 5", "alpha 7", "entry-exponent 12"])
@pytest.mark.parametrize("flag", ["--out", "--format", "--precision"])
def test_scalar_commands_take_no_emission_flags(command, flag, tmp_path,
                                                monkeypatch, capsys):
    # they print one value and write no rows, so --out would write nothing
    monkeypatch.chdir(tmp_path)
    value = {"--out": "f", "--format": "json", "--precision": "3"}[flag]
    with pytest.raises(SystemExit) as exc:
        run_cli(command.split() + [flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 2


def test_fib_refuses_n_past_its_scale_at_once():
    # F(10⁷)'s digits took 87.6 s to write; a cold run past the bound
    # exits 3 before F(n) is computed
    start = time.perf_counter()
    result = _run_script(["fib", str(cli.FIB_N_MAX + 1)])
    assert time.perf_counter() - start < 1.0
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == f"error: fib stops at n={cli.FIB_N_MAX}\n"


def test_contract_refuses_n_max_past_its_scale_at_once(tmp_path):
    # 10⁸ rows would take about half an hour; a cold run past the bound
    # exits 3 before any row is made, and writes no --out file
    out = tmp_path / "rows.csv"
    start = time.perf_counter()
    result = _run_script(["contract", "mu", "3", str(cli.CONTRACT_N_MAX + 1),
                          "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == (f"error: contract stops at "
                             f"n_max={cli.CONTRACT_N_MAX}\n")
    assert not out.exists()


def test_invalid_argument_exits_2(capsys):
    assert run_cli(["entry-exponent", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_alpha_beyond_the_budget_exits_3(capsys):
    # (10^20 + 39)(10^20 + 129): rho would need ~10^10 steps to split it
    semiprime = "10000000000000000016800000000000000005031"
    start = time.perf_counter()
    assert run_cli(["alpha", semiprime]) == 3
    assert run_cli(["entry-exponent", semiprime]) == 3
    assert time.perf_counter() - start < 1.0
    assert run_cli(["alpha", "1000000007", "--budget", "1"]) == 3
    assert run_cli(["alpha", "1000000007"]) == 0
    assert capsys.readouterr().out == "1000000008\n"


def test_alpha_of_a_prime_cube_exits_0(capsys):
    # (10^9 + 7)^3: rho would refuse it, and its cube root splits it
    start = time.perf_counter()
    assert run_cli(["alpha", "1000000021000000147000000343"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "1000000022000000161000000392\n"


@pytest.mark.parametrize("units", ["-5", "0"])
@pytest.mark.parametrize("command", ["verify theorem1 --x 10", "contract mu 1 6",
                                     "alpha 12", "fib 5"])
def test_budget_below_1_is_a_usage_error(command, units, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command.split() + ["--budget", units])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget must be at least 1" in captured.err


@pytest.mark.parametrize("precision", ["-1", "-12"])
@pytest.mark.parametrize("command", [["series", "--n", "100"],
                                     ["report-asymptotics", "--x", "5"],
                                     ["contract", "mu", "1", "6"]])
def test_negative_precision_is_a_usage_error(command, precision, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command + ["--precision", precision])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--precision must be at least 0, got {precision}" in captured.err


def test_every_factorization_of_a_command_is_charged_to_the_budget(
        monkeypatch, capsys):
    seen = []
    original = numtheory.factorize

    def recording(n):
        seen.append(numtheory.FACTOR_BUDGET.get())
        return original(n)

    # the index n in contributors and the plain-int μ of the closed forms
    for module in (numtheory, fib_module, contraction):
        monkeypatch.setattr(module, "factorize", recording)
    assert run_cli(["contract", "mu", "1", "30", "--budget", "54321"]) == 0
    assert seen and set(seen) == {54321}
    assert numtheory.FACTOR_BUDGET.get() == numtheory.DEFAULT_FACTOR_BUDGET


def test_contract_golden_sequence(tmp_path):
    out = tmp_path / "mu3.csv"
    assert run_cli(["contract", "mu", "3", "24", "--out", str(out)]) == 0
    rows = read_csv(out)
    got = [int(r["direct"]) for r in rows]
    assert got == [1, 0, 0, 0, -1, -1, -1, -1, -1, 0, -1, 0,
                   -1, 0, 0, 0, -1, 1, -1, 0, 0, 0, -1, 1]
    assert all(r["match"] == "yes" for r in rows)


def test_contract_lambda_row(tmp_path):
    out = tmp_path / "la.csv"
    assert run_cli(["contract", "lambda", "1", "12", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert int(rows[11]["direct"]) == 2
    assert int(rows[1]["direct"]) == 0  # the empty contraction at n=2


@pytest.mark.parametrize("depth", ["2", "3"])
def test_contract_lambda_reads_its_tower(depth, tmp_path):
    # λ's (depth − 1)-form is contracted once, so no row reaches past the
    # index cap, as F(233) does on the literal path at depth 3
    out = tmp_path / "la.csv"
    assert run_cli(["contract", "lambda", depth, "120", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 120
    assert all(r["match"] == "yes" for r in rows)


def test_contract_lambda_past_its_fixed_point_is_mu_alpha3(tmp_path):
    # λ_α³ and μ_α³ share the fixed form 1_{1,2,3,4}
    la, mu = tmp_path / "la.csv", tmp_path / "mu.csv"
    assert run_cli(["contract", "lambda", "5", "60", "--out", str(la)]) == 0
    assert run_cli(["contract", "mu", "3", "60", "--out", str(mu)]) == 0
    assert ([r["direct"] for r in read_csv(la)]
            == [r["direct"] for r in read_csv(mu)])


def test_contract_past_the_repeated_level_is_depth_3(tmp_path):
    deep, shallow = tmp_path / "deep.csv", tmp_path / "shallow.csv"
    start = time.perf_counter()
    assert run_cli(["contract", "phi", "1000000000", "5",
                    "--out", str(deep)]) == 0
    assert time.perf_counter() - start < 1
    assert run_cli(["contract", "phi", "3", "5", "--out", str(shallow)]) == 0
    assert read_csv(deep) == read_csv(shallow)


def test_contract_empty_sum_row(capsys):
    assert run_cli(["contract", "mu", "1", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("2,0,0,yes")


def test_contract_without_closed_form(tmp_path):
    out = tmp_path / "phi.csv"
    assert run_cli(["contract", "phi", "1", "6", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["closed_form"] == "" and rows[0]["match"] == ""


def test_contract_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["contract", "mu", "2", "20", "--out", str(a)])
    run_cli(["contract", "mu", "2", "20", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_contract_marks_budget_rows(tmp_path):
    out = tmp_path / "deep.csv"
    assert run_cli(["contract", "one", "2", "40", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert any(r["direct"] == "budget-exceeded" for r in rows)
    assert all(r["match"] == "" for r in rows)  # no closed form at this depth


@pytest.mark.parametrize("argv, stdout", [
    # the 1 → 1 and 5 → 5 chains far past the recursion limit; the bytes
    # are those that depth 300 printed when the levels still recursed
    (["phi", "400", "5"], "n,direct,closed_form,match\n"
                          "1,1,,\n2,0,,\n3,0,,\n4,0,,\n5,4,,\n"),
    (["one", "1500", "2"], "n,direct,closed_form,match\n1,1,,\n2,0,,\n"),
    (["mu", "5000", "5"], "n,direct,closed_form,match\n"
                          "1,1,,\n2,0,,\n3,0,,\n4,0,,\n5,-1,,\n"),
])
def test_deep_contractions_exit_0(argv, stdout, capsys):
    assert run_cli(["contract", *argv]) == 0
    assert capsys.readouterr().out == stdout


def test_contract_mismatch_exits_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.CLOSED_FORMS, ("mu", 1),
                        ArithFn("mu_alpha_wrong", lambda n: 7))
    out = tmp_path / "bad.csv"
    assert run_cli(["contract", "mu", "1", "6", "--out", str(out)]) == 1
    rows = read_csv(out)
    assert [r["match"] for r in rows] == ["no"] * 6
    assert "FAILED" in capsys.readouterr().err


def test_contract_budget_rows_exit_0(monkeypatch, tmp_path):
    contract = cli.alpha_contract_iter

    def capped(f, depth, n):
        if n > 3:
            raise BudgetExceededError("capped for the test")
        return contract(f, depth, n)

    monkeypatch.setattr(cli, "alpha_contract_iter", capped)
    out = tmp_path / "capped.csv"
    assert run_cli(["contract", "mu", "1", "6", "--out", str(out)]) == 0
    matches = [r["match"] for r in read_csv(out)]
    assert matches == ["yes"] * 3 + [""] * 3


@pytest.mark.parametrize("argv", [
    ["contract", "mu", "1", "0"], ["contract", "mu", "1", "-3"],
    ["contract", "mu", "0"], ["contract", "mu", "0", "10"]])
def test_contract_refuses_depth_or_n_max_below_1(argv, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and ">= 1" in captured.err


def test_verify_all_passes(capsys):
    assert run_cli(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("theorem1", "corollary-mult", "logprod", "constant-c",
                 "asymptotic-mangoldt", "ep-sum", "pi-alpha", "pi-alpha-bound",
                 "phi-identity", "phi-recursion", "euler-product", "t-tables"):
        assert name in out


def test_verify_named_checks(capsys):
    assert run_cli(["verify", "theorem1", "--x", "20"]) == 0
    assert run_cli(["verify", "phi-identity", "--x", "30"]) == 0
    assert run_cli(["verify", "phi-recursion", "--x", "0"]) == 0   # base case
    assert run_cli(["verify", "euler-product", "--which", "lambda",
                    "--s", "2", "--n", "10000"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_failure_exits_1(monkeypatch, capsys):
    def always_fails():
        return [VerificationReport("always-fails", "stub", False, 1)]

    monkeypatch.setitem(cli.verify_mod.SUITE, "always-fails", always_fails)
    assert run_cli(["verify", "always-fails"]) == 1
    captured = capsys.readouterr()
    assert "FAIL always-fails" in captured.out
    assert "always-fails" in captured.err


def test_verify_budget_exhaustion_exits_3(capsys):
    assert run_cli(["verify", "theorem1", "--x", "130"]) == 3
    assert "budget" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("check", ["theorem1", "pi-alpha", "phi-identity",
                                   "logprod"])
def test_verify_refuses_a_non_finite_x(check, x, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", check, f"--x={x}"])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["theorem1", "--x", "0"], ["theorem1", "--x", "-3"],
    ["theorem1", "--x", "0.5"], ["logprod", "--x", "0"],
    ["phi-identity", "--x", "0"], ["corollary-mult", "--n", "0"],
    ["corollary-mult", "--n", "-4"],
    # these count to x, so truncating it would check a range not asked for
    ["pi-alpha", "--x", "2.9"], ["phi-recursion", "--x", "2.5"],
    ["ep-sum", "--x", "0.5"], ["ep-sum", "--x", "60.25"]])
def test_verify_refuses_an_empty_range(argv, capsys):
    # nothing to check is not a pass
    assert run_cli(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[0]} expects")
    assert f"got {argv[2]}" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("x", ["0.5", "0", "-3"])
def test_verify_theorem1_refuses_x_below_1_before_any_table(x, monkeypatch,
                                                            capsys):
    listed = []
    for name in ("divisor_halves", "fib_factorization"):
        monkeypatch.setattr(verify, name, lambda *a: listed.append(a))
    assert run_cli(["verify", "theorem1", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and listed == []
    assert captured.err == f"error: theorem1 expects x >= 1, got {float(x)}\n"


def test_verify_phi_recursion_budget_error_names_the_fibonacci_index(capsys):
    # the recursion factors each term it generates with fib_factorization's
    # strong-divisibility step; 127 is prime, so the step divides nothing
    # out and hands rho the whole F(127) = 27941 · a 22-digit prime, which
    # has no factor below trial division's bound, and rho refuses it up
    # front, as its fourth root is above the default budget
    assert run_cli(["verify", "phi-recursion", "--x", "130"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: F(127): factoring "
                            "155576970220531065681649693 exceeded the work "
                            "budget\n")


@pytest.mark.parametrize("argv, line", [
    (["pi-alpha", "--x", "1e2"], "PASS pi-alpha [x<=100]\n"),
    (["phi-recursion", "--x", "3.0"], "PASS phi-recursion [x_max=3]\n")])
def test_verify_takes_an_integral_x_in_any_spelling(argv, line, capsys):
    assert run_cli(["verify"] + argv) == 0
    assert capsys.readouterr().out == line


@pytest.mark.parametrize("n", ["121", "1000"])
def test_verify_corollary_mult_past_the_cap_exits_3_at_once(n, monkeypatch,
                                                             capsys):
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    assert run_cli(["verify", "corollary-mult", "--n", n]) == 3
    assert f"F({n})" in capsys.readouterr().err
    assert fib_module.FIB_FACTORS == {}


@pytest.mark.parametrize("x", ["121", "1000"])
def test_verify_phi_identity_past_the_cap_exits_3_at_once(x, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    assert run_cli(["verify", "phi-identity", "--x", x]) == 3
    assert f"F({x})" in capsys.readouterr().err
    assert fib_module.FIB_FACTORS == {}


@pytest.mark.parametrize("check", ["theorem1", "pi-alpha", "phi-identity"])
def test_verify_a_huge_finite_x_exits_3_at_once(check, capsys):
    start = time.perf_counter()
    assert run_cli(["verify", check, "--x", "1e300"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["asymptotic-mangoldt", "--x", "1e6"], "--x"),
    (["constant-c", "--x", "1e9"], "--x"),
    (["t-tables", "--x", "5"], "--x"),
    (["euler-product", "--x", "3"], "--x"),
    (["phi-recursion", "--n", "5"], "--n"),
    (["theorem1", "--s", "2"], "--s"),
    (["logprod", "--which", "mu"], "--which"),
    (["all", "--n", "100"], "--n")])
def test_verify_refuses_a_flag_its_check_does_not_take(argv, flag, capsys):
    assert run_cli(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verify {argv[0]} takes no {flag}\n"


# the flags each `verify` argument takes; it refuses the others
VERIFY_FLAGS = {
    "theorem1": {"x"}, "corollary-mult": {"n"}, "logprod": {"x"},
    "constant-c": set(), "asymptotic-mangoldt": set(), "ep-sum": {"x"},
    "pi-alpha": {"x"}, "pi-alpha-bound": set(), "phi-identity": {"x"},
    "phi-recursion": {"x"}, "euler-product": {"s", "n", "which"},
    "t-tables": set(), "all": set()}
FLAG_VALUES = {"x": "12", "n": "12", "s": "3", "which": "mu"}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("check", sorted(VERIFY_FLAGS))
def test_verify_takes_exactly_its_checks_flags(check, flag, capsys):
    status = run_cli(["verify", check, f"--{flag}", FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    if flag in VERIFY_FLAGS[check]:
        assert (status, captured.err) == (0, "")
        assert captured.out.startswith("PASS ")
    else:
        assert (status, captured.out, captured.err) == (
            2, "", f"error: verify {check} takes no --{flag}\n")


def test_verify_flag_table_names_every_check():
    assert set(VERIFY_FLAGS) == set(verify.SUITE) | {"all"}


@pytest.mark.parametrize("x", ["1e6", "1e300"])
def test_verify_logprod_past_its_bound_exits_3_at_once(x, capsys):
    start = time.perf_counter()
    assert run_cli(["verify", "logprod", "--x", x]) == 3
    assert time.perf_counter() - start < 1.0
    assert "logprod is blind past x=5904" in capsys.readouterr().err


def test_verify_all_honours_the_budget(capsys):
    assert run_cli(["verify", "theorem1", "--budget", "10"]) == 3
    assert run_cli(["verify", "all", "--budget", "10"]) == 3
    assert "budget" in capsys.readouterr().err.lower()


def test_budget_error_names_the_fibonacci_index(capsys):
    # the ep-sum suite is the first to reach F(29) = 514229, a prime that
    # trial division cannot reach in 100 units
    assert run_cli(["verify", "all", "--budget", "100"]) == 3
    assert "F(29)" in capsys.readouterr().err


def test_verify_report_file(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "t-tables", "--format", "json",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"] == "verify-t-tables"
    assert all(sample["passed"] for sample in doc["samples"])


def test_report_asymptotics(tmp_path):
    out = tmp_path / "asym.csv"
    assert run_cli(["report-asymptotics", "--x", "1,5", "--out", str(out)]) == 0
    rows = read_csv(out)
    by_key = {(r["kind"], r["x"]): r for r in rows}
    assert float(by_key[("log_lcm", "1")]["exact"]) == 0.0
    assert abs(float(by_key[("log_lcm", "5")]["exact"]) - 3.401197381662) < 1e-9
    assert abs(float(by_key[("log_lcm", "5")]["predicted"]) - 3.656771377330) < 1e-9


def test_report_asymptotics_marks_budget_rows(tmp_path):
    out = tmp_path / "asym.csv"
    assert run_cli(["report-asymptotics", "--x", "5,200",
                    "--out", str(out)]) == 0
    rows = read_csv(out)
    ep200 = next(r for r in rows if r["kind"] == "ep_log_sum" and r["x"] == "200")
    assert ep200["exact"] == "budget-exceeded"
    lcm200 = next(r for r in rows if r["kind"] == "log_lcm" and r["x"] == "200")
    assert 0.9 <= float(lcm200["ratio"]) <= 1.1


@pytest.mark.parametrize("xs", ["0,5", "5,-3"])
def test_report_asymptotics_rejects_x_below_1(xs, capsys):
    assert run_cli(["report-asymptotics", "--x", xs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x >= 1" in captured.err


@pytest.mark.parametrize("spelling", ["1e1,60", "10.0, 6e1", " 10,060"])
def test_report_asymptotics_takes_an_integral_x_in_any_spelling(spelling,
                                                                capsys):
    assert run_cli(["report-asymptotics", "--x", spelling]) == 0
    out = capsys.readouterr().out
    assert run_cli(["report-asymptotics", "--x", "10,60"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("point", ["2.5", "1e-1", "inf", "-inf", "nan",
                                   "1e400", "ten"])
def test_report_asymptotics_refuses_a_fractional_or_non_finite_x(point,
                                                                 capsys):
    assert run_cli(["report-asymptotics", "--x", f"5,{point}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: report-asymptotics expects integral "
                            f"--x points, got {point}\n")


@pytest.mark.parametrize("xs", ["", ",", " , "])
def test_report_asymptotics_refuses_an_x_with_no_point(xs, capsys):
    assert run_cli(["report-asymptotics", "--x", xs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: report-asymptotics expects at least one "
                            f"--x point, got {xs!r}\n")


def test_report_asymptotics_without_x_samples_the_defaults(capsys):
    assert run_cli(["report-asymptotics"]) == 0
    out = capsys.readouterr().out
    assert run_cli(["report-asymptotics", "--x", "5,12,30,60,200"]) == 0
    assert capsys.readouterr().out == out


def test_report_rows_equal_the_standalone_sums(tmp_path):
    xs = range(1, 61)
    out = tmp_path / "asym.json"
    assert run_cli(["report-asymptotics", "--x", ",".join(map(str, xs)),
                    "--format", "json", "--precision", "17",
                    "--out", str(out)]) == 0
    rows = {(r["kind"], r["x"]): r["exact"]
            for r in json.loads(out.read_text())["samples"]}
    for x, (count, product) in enumerate(primitive_prime_totals(60), 1):
        assert rows[("ep_log_sum", x)] == math.log(product), x
        scaled = count * math.log(x) / (x * x) if x > 1 else 0.0
        assert rows[("pi_alpha_scaled", x)] == scaled, x


# One walk per command: a call per index up to the first F(n) the budget
# refuses (F(121) at the default budget), and 60 for each of the ep-sum,
# pi-alpha and pi-alpha-bound suites of `verify all`.
@pytest.mark.parametrize("argv, calls", [
    (["report-asymptotics"], 121),
    (["report-asymptotics", "--x", "5,50,200"], 121),
    (["verify", "all"], 180),
], ids=["report-asymptotics", "report-asymptotics --x 5,50,200",
        "verify all"])
def test_primitive_primes_calls_per_command(argv, calls, monkeypatch, capsys):
    seen = []
    original = verify.primitive_primes

    def counting(n):
        seen.append(n)
        return original(n)

    monkeypatch.setattr(verify, "primitive_primes", counting)
    assert run_cli(argv) == 0
    assert len(seen) == calls


def test_pi_alpha_checks_pi_alpha_5_from_x_5(monkeypatch, capsys):
    # a walk that misses F(5)'s primitive prime 5 reads π_α(5) = 2
    original = verify.primitive_primes
    monkeypatch.setattr(verify, "primitive_primes", lambda n: [
        (p, e) for p, e in original(n) if p != 5])
    assert run_cli(["verify", "pi-alpha", "--x", "7"]) == 1
    assert capsys.readouterr().out == "FAIL pi-alpha [x<=7]\n"


@pytest.mark.parametrize("argv", [
    ["series", "--s", "1"], ["series", "--s", "0.5"], ["series", "--s", "nan"],
    ["verify", "euler-product", "--s", "nan"]])
def test_series_refuses_s_not_above_1_before_sieving(argv, monkeypatch,
                                                     capsys):
    sieved = []
    monkeypatch.setattr(verify, "mu_sieve", sieved.append)
    assert run_cli(argv + ["--n", "3000000"]) == 2
    assert sieved == []
    assert "requires s > 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["series"], ["verify", "euler-product"]])
def test_series_refuses_infinite_s_before_sieving(argv, monkeypatch, capsys):
    # every n**s is inf at s = inf, so each series would be f(1) = 1 and
    # its check would compare 1 with 1
    sieved = []
    monkeypatch.setattr(verify, "mu_sieve", sieved.append)
    assert run_cli(argv + ["--s", "inf", "--n", "100"]) == 2
    assert sieved == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n**s overflows a float at s=inf\n"


@pytest.mark.parametrize("argv", [["series"], ["verify", "euler-product"]])
def test_series_refuses_n_past_its_scale_before_sieving(argv, monkeypatch,
                                                        capsys):
    # about 10 bytes per term: N = 10⁷ + 1 would hold over 100 MB
    def no_sieve(n):
        raise AssertionError(f"mu_sieve({n}) was called")

    monkeypatch.setattr(verify, "mu_sieve", no_sieve)
    n = verify.SERIES_N_MAX + 1
    assert verify.SERIES_N_MAX == 10**7
    assert run_cli(argv + ["--s", "3", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the series checks stop at N=10000000\n"


@pytest.mark.parametrize("argv", [["series"], ["verify", "euler-product"]])
def test_series_overflowing_n_to_the_s_exits_2(argv, capsys):
    # 12**400 is past the largest float; s = 400 itself is a valid exponent
    assert run_cli(argv + ["--s", "400", "--n", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n**s overflows a float at s=400.0\n"


@pytest.mark.parametrize("argv", [["series"], ["verify", "euler-product"]])
def test_series_past_the_last_finite_n_to_the_s_exits_0(argv, capsys):
    # 16**258.9 overflows, but f(16) = 0 in all four forms, so it is never
    # needed; 15**258.9 is the last power taken
    assert run_cli(argv + ["--s", "258.9", "--n", "16"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, builds", [
    (["series", "--s", "3", "--n", "2000"], [(3.0, 2000)]),
    (["verify", "euler-product", "--n", "2000"], [(2.0, 2000), (3.0, 2000)])])
def test_each_power_table_is_built_once(argv, builds, monkeypatch, capsys):
    # one table and one ζ_N(s) per (s, N), shared by the four series, and
    # one μ sieve to N, shared by every s
    built, summed, sieved = [], [], []
    build, zeta = verify.series_table, verify.zeta_partial
    sieve = verify.mu_sieve

    def counting_build(s, n):
        built.append((s, n))
        return build(s, n)

    def counting_zeta(s, n):
        summed.append((s, n))
        return zeta(s, n)

    def counting_sieve(n):
        sieved.append(n)
        return sieve(n)

    monkeypatch.setattr(verify, "series_table", counting_build)
    monkeypatch.setattr(verify, "zeta_partial", counting_zeta)
    monkeypatch.setattr(verify, "mu_sieve", counting_sieve)
    assert run_cli(argv) == 0
    assert built == summed == builds
    assert sieved == [2000]


def test_verify_euler_product_holds_one_power_table_at_a_time(monkeypatch,
                                                              capsys):
    refs, seen, sieves = [], [], []
    build, sieve = verify.series_table, verify.mu_sieve

    def tracking_build(s, n):
        # the tables still alive as this one is built
        seen.append(sum(ref() is not None for ref in refs))
        table = build(s, n)
        refs.append(weakref.ref(table[-1]))   # the n**s array
        return table

    def tracking_sieve(n):
        mu = sieve(n)
        sieves.append(weakref.ref(mu))
        return mu

    monkeypatch.setattr(verify, "series_table", tracking_build)
    monkeypatch.setattr(verify, "mu_sieve", tracking_sieve)
    assert run_cli(["verify", "euler-product", "--n", "2000"]) == 0
    assert seen == [0, 0]
    # neither a table nor the μ sieve outlives its command
    assert run_cli(["series", "--s", "3", "--n", "2000"]) == 0
    assert len(refs) == 3 and len(sieves) == 2
    assert all(ref() is None for ref in refs + sieves)


def test_series_emission(tmp_path):
    out = tmp_path / "series.json"
    assert run_cli(["series", "--which", "all", "--s", "2", "--n", "2000",
                    "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["samples"]) == 4
    assert all(s["passed"] for s in doc["samples"])
    lam = next(s for s in doc["samples"] if s["which"] == "lambda")
    assert abs(lam["polynomial"] - (1 + 0.25 + 1 / 144)) < 1e-9


def test_cache_record_round_trip(tmp_path):
    records = [
        CacheRecord(2, Factorization(1, ()), 3, 1),
        CacheRecord(12, Factorization(144, ((2, 4), (3, 2))), 12, 2),
    ]
    path = tmp_path / "cache.txt"
    save_cache_file(path, records)
    assert load_cache_file(path) == records
    assert parse_record(format_record(records[1]), set()) == records[1]


def test_cache_rejects_corruption(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("n=2 fib=1 alpha=3 e=1\nn=12 fib=2^4*5 alpha=12 e=2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_cache_file(path)


# F(100) + 2^64 − 59 has F(100)'s size to within a bit and its residue mod
# the prime 2^64 − 59, so only the product of its primes tells it apart
@pytest.mark.parametrize("record, complaint, tested", [
    ("n=5 fib=5 alpha=5 e", "malformed token 'e'", []),
    ("n=5 fib=5 alpha=5 f=1",
     "expected fields n, fib, alpha, e; got ['alpha', 'f', 'fib', 'n']", []),
    ("n=1 fib=1 alpha=1 e=1", "records start at n=2, got n=1", []),
    ("n=10 fib=5*13 alpha=15 e=1", "factorization does not reconstruct F(10)",
     []),
    ("n=100 fib=2^3*127*366802748280483727 alpha=150 e=2",
     "factorization does not reconstruct F(100)",
     [2, 127, 366802748280483727]),
], ids=["no-equals-sign", "wrong-fields", "n-below-2", "residue", "product"])
def test_cache_refusal_names_its_path_and_line(tmp_path, monkeypatch, record,
                                               complaint, tested):
    # lines 2 and 3 are blank, so skipped but counted; the residue is
    # checked before any primality test, and the product after them
    calls = []
    is_prime = cache_module.is_prime
    monkeypatch.setattr(cache_module, "is_prime",
                        lambda p: calls.append(p) or is_prime(p))
    path = tmp_path / "cache.txt"
    path.write_text("n=2 fib=1 alpha=3 e=1\n\n  \n" + record + "\n")
    with pytest.raises(ValueError) as refusal:
        load_cache_file(path)
    assert str(refusal.value) == f"{path}: line 4: {complaint}"
    assert calls == tested


@pytest.mark.parametrize("record, complaint", [
    ("n=12 fib=2^4*3^2 alpha=6 e=5", "alpha=6 is not the rank"),
    ("n=12 fib=2^4*3^2 alpha=24 e=2", "alpha=24 is not the rank"),
    ("n=12 fib=4^2*9 alpha=12 e=2", "factor 4 of F(12) is not prime"),
    ("n=12 fib=2^4*3^2 alpha=12 e=3", "e=3 is not the exponent"),
    ("n=12 fib=3^2*2^4 alpha=12 e=2", "distinct ascending primes"),
    ("n=12 fib=2^4*3^2 alpha=12 e=" + "9" * 4000, "is not the exponent"),
    # valid records in other spellings, which a lax parser would load and
    # save back as format_record writes them
    ("n=+05 fib=5^1 alpha=0005 e=1",
     "line 1: the record is not written as 'n=5 fib=5 alpha=5 e=1'"),
    ("n=3  fib=2 alpha=4 e=1",
     "line 1: the record is not written as 'n=3 fib=2 alpha=4 e=1'"),
])
def test_cache_rejects_untrusted_records(tmp_path, capsys, record, complaint):
    path = tmp_path / "cache.txt"
    path.write_text(record + "\n")
    assert run_cli(["alpha", "12", "--cache", str(path)]) == 2
    assert complaint in capsys.readouterr().err
    assert path.read_text() == record + "\n"  # never saved back


def test_cache_that_is_not_utf8_names_its_path_and_line(tmp_path, capsys):
    path = tmp_path / "cache.txt"
    path.write_bytes(b"n=2 fib=1 alpha=3 e=1\n\xff\n")
    assert run_cli(["fib", "5", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: line 2: 'utf-8' codec can't "
                            "decode byte 0xff in position 0: invalid start "
                            "byte\n")


def test_cache_record_that_repeats_a_field_names_its_path_and_line(
        tmp_path, capsys):
    # valid but for the second n=5, so a parser that keeps the last value
    # would load it and save it back clean
    path = tmp_path / "cache.txt"
    path.write_text("n=5 n=5 fib=5 alpha=5 e=1\n")
    assert run_cli(["fib", "5", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 1: repeated field 'n'\n"
    assert path.read_text() == "n=5 n=5 fib=5 alpha=5 e=1\n"


@pytest.mark.parametrize("argv, path, out", [
    (["fib", "5", "--cache", "d"], "d", ""),
    (["fib", "5", "--cache", "missing/c"], "missing/c", "5\n"),
    (["contract", "mu", "1", "3", "--out", "missing/o.csv"], "missing/o.csv",
     ""),
    (["verify", "theorem1", "--x", "3", "--out", "d"], "d", None)],
    ids=["cache-is-a-directory", "cache-in-a-missing-directory",
         "out-in-a-missing-directory", "out-is-a-directory"])
def test_a_file_that_cannot_be_opened_exits_2(argv, path, out, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    if out is not None:   # verify prints its PASS lines before writing --out
        assert captured.out == out
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and repr(path) in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


@pytest.mark.parametrize("record", [
    "n=30000000 fib=2 alpha=3 e=1",
    "n=1000000000 fib=2 alpha=3 e=1",
    # the size of F(10^9) to within a bit, so only the residue tells
    "n=1000000000 fib=2^694241912 alpha=3 e=1",
    # a 4,299-digit composite as the factor of F(5) = 5
    "n=5 fib=" + str(10**4298 + 1) + " alpha=5 e=1",
    "n=5 fib=5^" + "9" * 400 + " alpha=5 e=1",
], ids=["n=3e7", "n=1e9", "n=1e9-2^e", "n=5-composite", "n=5-5^e"])
def test_cache_rejects_a_record_of_the_wrong_size_at_once(
        tmp_path, capsys, monkeypatch, record):
    # neither F(n) nor a primality test is computed for such a record
    calls = []
    for name in ("fib", "is_prime"):
        monkeypatch.setattr(cache_module, name,
                            lambda *a, name=name: calls.append(name))
    path = tmp_path / "cache.txt"
    path.write_text(record + "\n")
    start = time.perf_counter()
    assert run_cli(["fib", "1", "--cache", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "does not reconstruct F(" in capsys.readouterr().err
    assert calls == []


def test_standalone_record_is_tested_for_primality():
    with pytest.raises(ValueError, match="factor 4 of F\\(12\\) is not prime"):
        parse_record("n=12 fib=4^2*9 alpha=12 e=2", set())


def _fill_memo(monkeypatch, n_max):
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    for n in range(2, n_max + 1):
        fib_module.fib_factorization(n)


def test_saving_ranks_each_record_once(monkeypatch):
    _fill_memo(monkeypatch, 60)
    calls = []
    original = fib_module.rank
    for module in (fib_module, cache_module):
        monkeypatch.setattr(module, "rank",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
    records = collect_records()
    assert [r.n for r in records] == list(range(2, 61))
    assert len(calls) == len(records)
    for r in records:
        assert (r.rank, r.entry_exponent) == (original(r.n),
                                              fib_module.entry_exponent(r.n))


def test_loading_tests_each_distinct_prime_once(tmp_path, monkeypatch):
    _fill_memo(monkeypatch, 60)
    records = collect_records()
    path = tmp_path / "cache.txt"
    save_cache_file(path, records)
    calls = []
    original = cache_module.is_prime
    monkeypatch.setattr(cache_module, "is_prime",
                        lambda p: calls.append(p) or original(p))
    assert load_cache_file(path) == records
    primes = {p for r in records for p, _ in r.fib_factorization.factors}
    assert sorted(calls) == sorted(primes)


def test_loading_computes_each_fib_once_and_memoizes_the_checked_object(
        tmp_path, monkeypatch):
    _fill_memo(monkeypatch, 120)
    path = tmp_path / "cache.txt"
    save_cache_file(path, collect_records())
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    calls = []
    original = fib_module.fib
    for module in (fib_module, cache_module):
        monkeypatch.setattr(module, "fib",
                            lambda n: calls.append(n) or original(n))
    records = load_cache_file(path)
    cache_module.apply_records(records)
    assert sorted(calls) == list(range(2, 121))
    assert sorted(fib_module.FIB_FACTORS) == [r.n for r in records]
    for r in records:
        assert fib_module.FIB_FACTORS[r.n] is r.fib_factorization
        assert int(r.fib_factorization) == original(r.n)


def _run_script(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fibdirichlet.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_closed_stdout_exits_141_in_silence(tmp_path):
    # the reader of stdout is gone before the first line, as in
    # `verify all | head -1` once head has exited
    cache = tmp_path / "cache.txt"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "fibdirichlet.cli", "verify", "all",
             "--cache", str(cache)], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert not cache.exists()   # no cache write, as on the other error exits


def test_cache_file_lifecycle(tmp_path):
    cache = tmp_path / "cache.txt"
    first = _run_script(["contract", "mu", "1", "10", "--cache", str(cache)])
    assert first.returncode == 0
    records = load_cache_file(cache)
    assert {r.n for r in records} == set(range(2, 11))
    content = cache.read_bytes()
    second = _run_script(["contract", "mu", "1", "10", "--cache", str(cache)])
    assert second.returncode == 0
    assert cache.read_bytes() == content  # reload + rewrite is stable

    lines = cache.read_text().splitlines()
    lines[3] = "n=5 fib=7 alpha=5 e=1"  # 7 is not F(5)
    cache.write_text("\n".join(lines) + "\n")
    third = _run_script(["contract", "mu", "1", "10", "--cache", str(cache)])
    assert third.returncode == 2
    assert "line 4" in third.stderr


def test_cache_holds_only_this_calls_records(tmp_path, capsys):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(["contract", "mu", "1", "30", "--cache", str(first)]) == 0
    assert run_cli(["fib", "5", "--cache", str(second)]) == 0
    fresh = tmp_path / "fresh.txt"
    assert _run_script(["fib", "5", "--cache", str(fresh)]).returncode == 0
    assert second.read_bytes() == fresh.read_bytes()
    assert len(load_cache_file(first)) == 29


def test_cache_path_from_environment(tmp_path):
    cache = tmp_path / "envcache.txt"
    result = _run_script(["alpha", "7", "--cache", str(cache)])
    assert result.returncode == 0
    result = _run_script(
        ["contract", "mu", "1", "6"],
        env_extra={"FIBDIRICHLET_CACHE": str(cache)},
    )
    assert result.returncode == 0
    assert {r.n for r in load_cache_file(cache)} == set(range(2, 7))
