"""Acceptance suite: every criterion as a test at its stated tolerance.

Each test prints one pass line; run with `pytest -s tests/test_acceptance.py`
to see them, or rely on the test outcomes themselves.
"""

import csv
import math
import time

from fibdirichlet import cli
from fibdirichlet.contraction import (
    alpha_contract,
    closed_delta23,
    closed_lambda_alpha,
    closed_mu_alpha3,
)
from fibdirichlet.fib import GOLDEN_RATIO, fib, rank
from fibdirichlet.numtheory import (
    ArithFn,
    LIOUVILLE,
    MANGOLDT,
    MU,
    ONE,
    PHI,
)
from fibdirichlet.verify import (
    PRIMITIVE_COUNT_BOUND,
    asymptotic_mangoldt_report,
    check_theorem1,
    constant_c,
    euler_product_check,
    growth_sample,
    logprod_walk,
    phi_recursive_fib,
    pi_alpha_bound_report,
    primitive_prime_totals,
    primitive_totals_at,
    run_suite,
    small_integer_fn,
)

GOLDEN_MU3_24 = [1, 0, 0, 0, -1, -1, -1, -1, -1, 0, -1, 0,
                 -1, 0, 0, 0, -1, 1, -1, 0, 0, 0, -1, 1]


def _announce(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_mu_alpha3_golden_sequence(tmp_path):
    started = time.monotonic()
    out = tmp_path / "mu3.csv"
    assert cli.main(["contract", "mu", "3", "24", "--out", str(out)]) == 0
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["direct"]) for r in rows] == GOLDEN_MU3_24
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _announce(1, f"contract mu 3 24 reproduces the 24 listed values "
                 f"({elapsed:.2f}s < 10s)")


def test_criterion_2_fixed_point_and_kernel():
    started = time.monotonic()
    mu3 = ArithFn("mu_alpha3", closed_mu_alpha3)
    delta = ArithFn("delta23", closed_delta23)
    for n in range(1, 41):
        assert alpha_contract(mu3, n) == closed_mu_alpha3(n), n
        assert alpha_contract(delta, n) == 0, n
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _announce(2, f"contraction fixes the thrice-contracted mu and kills "
                 f"delta23 for n<=40 ({elapsed:.2f}s < 120s)")


def test_criterion_3_lambda_contraction():
    for n in range(1, 41):
        assert closed_lambda_alpha(n) == alpha_contract(LIOUVILLE, n), n
    assert closed_lambda_alpha(12) == 2
    assert closed_lambda_alpha(4) * closed_lambda_alpha(3) == 1 != 2
    _announce(3, "closed lambda contraction equals the divisor-sum oracle "
                 "for n<=40; value 2 at 12 breaks multiplicativity")


def test_criterion_4_theorem1_exact():
    for f, g in ((MU, ONE), (PHI, ONE), (LIOUVILLE, ONE), (MANGOLDT, ONE)):
        report = check_theorem1(f, g, 25)
        assert report.passed and report.residual == 0, (f.name, g.name)
    for seed in range(20):
        report = check_theorem1(small_integer_fn(seed),
                                small_integer_fn(1000 + seed), 25)
        assert report.passed and report.residual == 0, seed
    _announce(4, "three-way double-counting equality exact for 4 named and "
                 "20 random pairs at x=25")


def test_criterion_5_logprod_and_constant():
    worst = max(residual for _, _, residual in logprod_walk(40))
    assert worst <= 1e-8
    assert abs(constant_c(50) - 0.2043618834) <= 1e-9
    _announce(5, f"log-product closed form residual {worst:.2e} <= 1e-8 for "
                 f"x<=40; tail constant matches to 1e-9")


def test_criterion_6_phi_representation():
    (report,) = run_suite("phi-identity", x=30)
    assert report.passed and report.residual == 0
    assert [row["x"] for row in report.details if row["passed"]] == list(
        range(1, 31))
    assert phi_recursive_fib(25) == [fib(i) for i in range(1, 28)]
    _announce(6, "totient identity exact for x<=30; totient recursion "
                 "regenerates F(1)..F(27)")


def test_criterion_7_asymptotic_windows():
    started = time.monotonic()
    samples = asymptotic_mangoldt_report([50, 200])
    at50, at200 = samples[0]["ratio"], samples[1]["ratio"]
    assert 0.9 <= at200 <= 1.1
    assert abs(at200 - 1) < abs(at50 - 1)
    [(_, _, product)] = primitive_totals_at([60])
    ep_ratio = growth_sample(60, product)["ratio"]
    assert 0.8 <= ep_ratio <= 1.2
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _announce(7, f"lcm ratio {at200:.4f} in [0.9,1.1] at x=200 and closer to "
                 f"1 than at x=50; entry-exponent ratio {ep_ratio:.4f} "
                 f"in [0.8,1.2] at x=60 ({elapsed:.2f}s < 120s)")


def test_criterion_8_primitive_prime_counts():
    counts = [count for count, _ in primitive_prime_totals(60)]
    assert counts[4] == 3   # π_α(5)
    assert counts[11] == 8   # π_α(12)
    assert counts == sorted(counts)
    rows = pi_alpha_bound_report([12, 60])
    assert all(abs(row["bound"] - PRIMITIVE_COUNT_BOUND) < 1e-15 for row in rows)
    assert abs(PRIMITIVE_COUNT_BOUND
               - 3 * math.log(GOLDEN_RATIO) / (2 * math.pi**2)) < 1e-15
    _announce(8, "pi_alpha anchors 3 and 8, non-decreasing to x=60, bound "
                 "constant emitted without asserting the limit")


def test_criterion_9_euler_products():
    for which in ("lambda", "mu", "mu2", "mu3"):
        for s in (2, 3):
            report = euler_product_check(which, s, 10_000)
            tolerance = report.details[0]["tolerance"]
            assert tolerance >= 1e-6, (which, s)
            assert report.passed, (which, s, report.residual, tolerance)
    _announce(9, "all four truncated series match their polynomial sides "
                 "within derived tail tolerances at s in {2,3}, N=10^4")


def test_criterion_10_lemma_conformance(rank_scan):
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in (1, 2, 3):
            assert rank(p**k) == rank_scan(p**k), (p, k)
    for p, k_max in ((2, 16), (3, 8), (5, 6)):
        for k in range(1, k_max + 1):
            assert rank(p**k) == rank_scan(p**k), (p, k)
    fibs = [fib(m) for m in range(201)]
    for n in range(1, 501):
        r = rank(n)
        for m in range(1, 201):
            assert (fibs[m] % n == 0) == (m % r == 0), (n, m)
    _announce(10, "prime-power ranks agree with scanning; duality "
                  "holds for n<=500, m<=200")
