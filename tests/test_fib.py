import math

import pytest

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
from fibdirichlet.numtheory import BudgetExceededError, ExactLog


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
    with pytest.raises(ValueError):
        rank_prime_power(6, 1)


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


def test_primitive_primes_rank_agrees_with_scan():
    for n in range(3, 40):
        for p, _ in primitive_primes(n):
            assert rank(p) == n


def test_divisor_has_rank_matches_scan():
    for n in (8, 12, 20, 24):
        from fibdirichlet.numtheory import divisors
        for d in divisors(fib_factorization(n)):
            assert divisor_has_rank(d, n) == (rank(d) == n)


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
    with pytest.raises(BudgetExceededError):
        fib_factorization(100, budget=10)


def test_fib_submodule_is_not_shadowed():
    import types

    import fibdirichlet.fib as m

    assert isinstance(m, types.ModuleType)
    assert m.fib(12) == 144
