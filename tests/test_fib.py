import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibdirichlet import fib as fib_module
from fibdirichlet.contraction import alpha_contract, contributors
from fibdirichlet.fib import (
    CONSTANTS,
    divisor_has_rank,
    entry_exponent,
    fib,
    fib_factorization,
    fib_mod,
    lcm_fib,
    max_factorable_index,
    primitive_primes,
    rank,
    rank_prime_power,
)
from fibdirichlet.numtheory import (
    MU,
    BudgetExceededError,
    ExactLog,
    Factorization,
    divisors,
    factor_budget,
    factorize,
    is_prime,
    valuation,
)


def naive_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_fib_examples():
    assert fib(12) == 144
    assert fib(0) == 0
    assert fib(50) == 12586269025


def test_fib_matches_naive_recurrence():
    for n in range(301):
        assert fib(n) == naive_fib(n)


def test_fib_mod():
    assert fib_mod(12, 10) == 4
    assert fib_mod(0, 7) == 0
    assert fib_mod(8, 7) == 0  # F(8) = 21
    for n in range(101):
        for m in (2, 3, 7, 10, 89):
            assert fib_mod(n, m) == fib(n) % m
    with pytest.raises(ValueError):
        fib_mod(5, 1)


def test_rank_examples():
    assert rank(2) == 3
    assert rank(1) == 1
    assert rank(10) == 15  # F(15) = 610


def test_rank_matches_scan(rank_scan):
    for n in range(1, 3001):
        assert rank(n) == rank_scan(n), n


def test_rank_carries_its_factors():
    for n in (1, 2, 10, 25, 144, 1000, 10**9 + 7):
        r = rank(n)
        assert r.factors == factorize(int(r)).factors, n


def test_entry_exponent_matches_scan(rank_scan):
    for n in range(2, 1001):
        assert entry_exponent(n) == valuation(fib(rank_scan(n)), n), n


def test_rank_duality_small():
    fibs = [fib(m) for m in range(101)]
    for n in range(1, 101):
        r = rank(n)
        for m in range(1, 101):
            assert (fibs[m] % n == 0) == (m % r == 0), (n, m)


def test_rank_prime_power_examples():
    assert rank_prime_power(2, 3) == 6  # F(6) = 8
    assert rank_prime_power(2, 1) == 3
    assert rank_prime_power(3, 2) == 12  # 9 | F(12) = 144
    assert rank_prime_power(5, 3) == 125
    # p^3 is past the default budget of factorize; its factors are given
    p = 10**9 + 7
    assert rank_prime_power(p, 3) == (p + 1) * p**2
    with pytest.raises(ValueError):
        rank_prime_power(6, 1)


def test_rank_checks_its_answer(monkeypatch):
    # a wrong walk must not get past the definition check
    monkeypatch.setattr(fib_module, "_rank_within",
                        lambda m, multiple: Factorization(16, ((2, 4),)))
    with pytest.raises(RuntimeError, match="not the rank"):
        rank(7)   # the true rank is 8, and 7 | F(16) but also 7 | F(8)


def test_rank_is_the_lcm_of_its_prime_power_ranks(rank_scan):
    for n in range(1, 3001):
        prime_power_ranks = [rank_scan(p**k) for p, k in factorize(n).factors]
        assert rank(n) == math.lcm(*prime_power_ranks), n


def test_rank_honours_the_budget():
    with factor_budget(1), pytest.raises(BudgetExceededError):
        rank(10**9 + 7)
    with pytest.raises(BudgetExceededError):
        entry_exponent((10**20 + 39) * (10**20 + 129))


def test_entry_exponent():
    assert entry_exponent(2) == 1  # F(3) = 2, 4 does not divide it
    assert entry_exponent(5) == 1
    assert entry_exponent(7) == 1
    assert entry_exponent(12) == 2  # F(12) = 144 = 12^2
    with pytest.raises(ValueError):
        entry_exponent(1)   # unbounded: 1 divides everything


def test_primitive_primes():
    assert primitive_primes(12) == []  # 144 = 2^4·3^2, ranks 3 and 4
    assert primitive_primes(7) == [(13, 1)]
    assert primitive_primes(5) == [(5, 1)]
    assert primitive_primes(1) == [] and primitive_primes(2) == []


def test_primitive_primes_rank_agrees_with_scan(rank_scan):
    for n in range(3, 40):
        for p, _ in primitive_primes(n):
            assert rank_scan(p) == n


def test_divisor_has_rank_matches_scan(rank_scan):
    for n in (8, 12, 20, 24):
        for d in divisors(fib_factorization(n)):
            assert divisor_has_rank(d, n) == (rank_scan(d) == n)


def _legendre5(p):
    """(5|p) for an odd prime p: 0 at 5, else +1 iff p ≡ ±1 (mod 5)."""
    return 0 if p == 5 else 1 if p % 5 in (1, 4) else -1


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**5))
def test_rank_duality_property(n, m):
    divides = n == 1 or fib_mod(m, n) == 0
    assert divides == (m % rank(n) == 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_rank_lcm_law(a, b):
    assert rank(math.lcm(a, b)) == math.lcm(rank(a), rank(b))


@settings(max_examples=200, deadline=None)
@given(st.integers(7, 10**12).map(_next_prime))
def test_rank_of_prime_divides_p_minus_legendre(p):
    assert (p - _legendre5(p)) % rank(p) == 0


def test_contributors_match_the_divisor_filter():
    for n in range(1, 121):
        literal = [d for d in divisors(fib_factorization(n))
                   if divisor_has_rank(d, n)]
        found = contributors(n)
        assert found == literal, n
        assert [d.factors for d in found] == [d.factors for d in literal], n


def test_contributors_past_the_cap_raise_before_memoizing(monkeypatch):
    # F(130) is past the default index cap; F(65), F(26) and F(10), which
    # duality would list, must not be factored first
    monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
    with pytest.raises(BudgetExceededError):
        contributors(130)
    with pytest.raises(BudgetExceededError):
        alpha_contract(MU, 130)   # the same stream, summed with no list
    assert fib_module._FIB_FACTORS == {}


def test_large_prime_ranks_are_certified():
    # the certificate is the definition itself, not a second rank routine
    rng = random.Random(20161)
    primes = {10**9 + 7}
    while len(primes) < 51:
        p = rng.randrange(10**9, 2 * 10**9)
        if is_prime(p):
            primes.add(p)
    for p in sorted(primes):
        r = rank(p)
        assert (p - _legendre5(p)) % r == 0, p
        assert fib_mod(r, p) == 0, p
        for q, _ in factorize(r).factors:
            assert fib_mod(r // q, p) != 0, (p, q)
    assert rank(10**9 + 7) == 10**9 + 8


def test_lcm_fib():
    assert lcm_fib(5) == 30
    assert lcm_fib(6) == 120
    assert lcm_fib(2) == 1
    assert lcm_fib(6.9) == 120  # floor semantics


def test_log_of_big():
    assert ExactLog(1).log_value == 0.0
    for v, expected in ((30, 3.4011973816621555), (240, 5.480638923341991)):
        log = ExactLog(v)
        assert abs(log.log_value - expected) <= 1e-12 * expected
        assert log.integer_value == v
    huge = ExactLog(fib(5000))
    assert abs(huge.log_value - 5000 * math.log(CONSTANTS.golden_ratio)
               + math.log(math.sqrt(5.0))) < 1e-6
    with pytest.raises(ValueError):
        ExactLog(0)


def test_constants():
    r, s = CONSTANTS.golden_ratio, CONSTANTS.golden_conjugate
    assert abs(r * s + 1) < 1e-12
    assert abs(r + s - 1) < 1e-12
    assert abs(CONSTANTS.lcm_growth_constant - 3 * math.log(r) / math.pi**2) < 1e-15
    sqrt5 = math.sqrt(5.0)
    for n in range(31):
        assert abs((r**n - s**n) / sqrt5 - fib(n)) < 1e-6


def test_strong_divisibility():
    fibs = [fib(n) for n in range(121)]
    for m in range(1, 121):
        for n in range(1, 121):
            assert math.gcd(fibs[m], fibs[n]) == fibs[math.gcd(m, n)]


def test_rank_exceeds_index_beyond_fib_value():
    # n > F(x) forces rank(n) > x
    for x in (5, 10, 15, 20):
        ax = fib(x)
        for n in range(ax + 1, ax + 26):
            assert rank(n) > x


def test_fib_factorization_scale_guard():
    assert max_factorable_index(2_000_000) == 120
    with pytest.raises(BudgetExceededError):
        fib_factorization(2000)


def test_fib_factorization_budget_ignores_a_warm_memo():
    fib_factorization(100)
    with factor_budget(10), pytest.raises(BudgetExceededError):
        fib_factorization(100)


def test_fib_factorization_matches_direct_factoring(monkeypatch):
    # the literal path, factorize(fib(n)), is the oracle; 94, 96 and 120
    # are also factored alone, each from an empty memo
    monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
    for n in range(1, 101):
        f = fib_factorization(n)
        assert f == fib(n) and f.factors == factorize(fib(n)).factors, n
    for n in (94, 96, 120):
        monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
        assert fib_factorization(n).factors == factorize(fib(n)).factors, n


def test_fib_factorization_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
    for n in range(1, 121):
        expected = tuple(sorted(sympy.factorint(fib(n)).items()))
        assert fib_factorization(n).factors == expected, n


def test_primitive_prime_exists_except_at_1_2_6_12():
    # Carmichael's primitive divisor theorem for the Fibonacci numbers
    for n in range(1, 121):
        assert bool(primitive_primes(n)) == (n not in (1, 2, 6, 12)), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 60, 94, 120])
def test_fib_factorization_memoizes_only_its_divisor_indices(n, monkeypatch):
    # F(1) = F(2) = 1 enter the memo only when asked for directly
    monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
    fib_factorization(n)
    expected = {d for d in range(1, n + 1) if n % d == 0 and (d >= 3 or d == n)}
    assert set(fib_module._FIB_FACTORS) == expected


def _within_budget(fn, arg):
    try:
        fn(arg)
    except BudgetExceededError:
        return False
    return True


@pytest.mark.parametrize("units, gained", [(30, {26}), (100, {34}),
                                           (1000, set()), (10000, set())])
def test_fib_factorization_reaches_what_direct_factoring_reaches(
        units, gained, monkeypatch):
    # each piece is factored under its own budget, so the primitive-part
    # route loses no index the direct route reaches, and gains a few
    indices = range(1, max_factorable_index(units) + 1)
    reached = set()
    with factor_budget(units):
        direct = {n for n in indices if _within_budget(factorize, fib(n))}
        for n in indices:
            monkeypatch.setattr(fib_module, "_FIB_FACTORS", {})
            if _within_budget(fib_factorization, n):
                reached.add(n)
    assert direct <= reached and reached - direct == gained


def test_fib_submodule_is_not_shadowed():
    import types

    import fibdirichlet.fib as m

    assert isinstance(m, types.ModuleType)
    assert m.fib(12) == 144
