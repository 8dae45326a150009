import csv
import json
import math
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
from fibdirichlet.numtheory import ArithFn, BudgetExceededError
from fibdirichlet.verify import VerificationReport, ep_weighted_sum, pi_alpha


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


def readme_cli_examples():
    """(argv, comment) for each `fibdirichlet …` line of README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
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
    monkeypatch.setattr(numtheory, "_mu_values", [0, 1])
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
    for name in ("divisors", "fib_factorization"):
        monkeypatch.setattr(verify, name, lambda *a: listed.append(a))
    assert run_cli(["verify", "theorem1", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and listed == []
    assert captured.err == f"error: theorem1 expects x >= 1, got {float(x)}\n"


@pytest.mark.parametrize("argv, line", [
    (["pi-alpha", "--x", "1e2"], "PASS pi-alpha [x<=100]\n"),
    (["phi-recursion", "--x", "3.0"], "PASS phi-recursion [x_max=3]\n")])
def test_verify_takes_an_integral_x_in_any_spelling(argv, line, capsys):
    assert run_cli(["verify"] + argv) == 0
    assert capsys.readouterr().out == line


@pytest.mark.parametrize("n", ["121", "1000"])
def test_verify_corollary_mult_past_the_cap_exits_3_at_once(n, monkeypatch,
                                                             capsys):
    monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
    assert run_cli(["verify", "corollary-mult", "--n", n]) == 3
    assert f"F({n})" in capsys.readouterr().err
    assert fib_module._FIB_FACTORS == {}


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


def test_report_rows_equal_the_standalone_sums(tmp_path):
    xs = range(1, 61)
    out = tmp_path / "asym.json"
    assert run_cli(["report-asymptotics", "--x", ",".join(map(str, xs)),
                    "--format", "json", "--precision", "17",
                    "--out", str(out)]) == 0
    rows = {(r["kind"], r["x"]): r["exact"]
            for r in json.loads(out.read_text())["samples"]}
    for x in xs:
        assert rows[("ep_log_sum", x)] == ep_weighted_sum(x).log_value, x
        scaled = pi_alpha(x) * math.log(x) / (x * x) if x > 1 else 0.0
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


@pytest.mark.parametrize("argv", [
    ["series", "--s", "1"], ["series", "--s", "0.5"], ["series", "--s", "nan"],
    ["verify", "euler-product", "--s", "nan"]])
def test_series_refuses_s_not_above_1_before_sieving(argv, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(numtheory, "_mu_values", [0, 1])
    assert run_cli(argv + ["--n", "3000000"]) == 2
    assert len(numtheory._mu_values) == 2
    assert "requires s > 1" in capsys.readouterr().err


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
    # one table and one ζ_N(s) per (s, N), shared by the four series
    built, summed = [], []
    build, zeta = verify.series_table, verify.zeta_partial

    def counting_build(s, n):
        built.append((s, n))
        return build(s, n)

    def counting_zeta(s, n):
        summed.append((s, n))
        return zeta(s, n)

    monkeypatch.setattr(verify, "series_table", counting_build)
    monkeypatch.setattr(verify, "zeta_partial", counting_zeta)
    assert run_cli(argv) == 0
    assert built == summed == builds


def test_verify_euler_product_holds_one_power_table_at_a_time(monkeypatch,
                                                              capsys):
    refs, seen = [], []
    build = verify.series_table

    def tracking_build(s, n):
        # the tables still alive as this one is built
        seen.append(sum(ref() is not None for ref in refs))
        table = build(s, n)
        refs.append(weakref.ref(table[-1]))   # the n**s array
        return table

    monkeypatch.setattr(verify, "series_table", tracking_build)
    assert run_cli(["verify", "euler-product", "--n", "2000"]) == 0
    assert seen == [0, 0]


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
        CacheRecord(2, (), 3, 1),
        CacheRecord(12, ((2, 4), (3, 2)), 12, 2),
    ]
    path = tmp_path / "cache.txt"
    save_cache_file(path, records)
    assert load_cache_file(path) == records
    assert parse_record(format_record(records[1])) == records[1]


def test_cache_rejects_corruption(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("n=2 fib=1 alpha=3 e=1\nn=12 fib=2^4*5 alpha=12 e=2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_cache_file(path)


@pytest.mark.parametrize("record, complaint", [
    ("n=12 fib=2^4*3^2 alpha=6 e=5", "alpha=6 is not the rank"),
    ("n=12 fib=2^4*3^2 alpha=24 e=2", "alpha=24 is not the rank"),
    ("n=12 fib=4^2*9 alpha=12 e=2", "factor 4 of F(12) is not prime"),
    ("n=12 fib=2^4*3^2 alpha=12 e=3", "e=3 is not the exponent"),
    ("n=12 fib=3^2*2^4 alpha=12 e=2", "distinct ascending primes"),
    ("n=12 fib=2^4*3^2 alpha=12 e=" + "9" * 4000, "is not the exponent"),
])
def test_cache_rejects_untrusted_records(tmp_path, capsys, record, complaint):
    path = tmp_path / "cache.txt"
    path.write_text(record + "\n")
    assert run_cli(["alpha", "12", "--cache", str(path)]) == 2
    assert complaint in capsys.readouterr().err
    assert path.read_text() == record + "\n"  # never saved back


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
        parse_record("n=12 fib=4^2*9 alpha=12 e=2")


def _fill_memo(monkeypatch, n_max):
    monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
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
    primes = {p for r in records for p, _ in r.fib_factorization}
    assert sorted(calls) == sorted(primes)


def _run_script(args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fibdirichlet.cli", *args],
        capture_output=True, text=True, env=env,
    )


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
