import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibdirichlet import fib as fib_module
from fibdirichlet.contraction import LAMBDA_ALPHA, alpha_contract, contributors
from fibdirichlet.fib import (
    GOLDEN_RATIO,
    LCM_GROWTH_CONSTANT,
    divisor_has_rank,
    entry_exponent,
    factor_fib,
    fib,
    fib_factorization,
    fib_mod,
    lcm_fib,
    max_factorable_index,
    primitive_primes,
    rank,
)
from fibdirichlet.numtheory import (
    FACTOR_BUDGET,
    MU,
    BudgetExceededError,
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


@pytest.mark.parametrize("n", [-1, -2, -4])
def test_fib_mod_refuses_a_negative_index(n):
    # F(−n) = (−1)^(n+1)·F(n), which doubling from bin(n) does not give
    with pytest.raises(ValueError, match="n >= 0"):
        fib_mod(n, 7)


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
    assert rank(2**3) == 6  # F(6) = 8
    assert rank(2) == 3
    assert rank(3**2) == 12  # 9 | F(12) = 144
    assert rank(5**3) == 125
    # factorize finds (10^9 + 7)^3 as a cube; rho would refuse it
    assert rank((10**9 + 7)**3) == (10**9 + 8) * (10**9 + 7)**2


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


def _two_adic_valuation_of_fib(n):
    """v₂(F(n)) by Lengyel's rule (Fib. Quart. 33, 1995)."""
    return 0 if n % 3 else 1 if n % 6 == 3 else valuation(n, 2) + 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, max_factorable_index(FACTOR_BUDGET.get())))
def test_lifting_law(n):
    # v_p(F(m·rank(p))) = v_p(F(rank(p))) + v_p(m) for odd p, with
    # v₅(F(n)) = v₅(n), and Lengyel's rule for p = 2; drawn up to the index
    # cap, so it reaches as far as the memo of factored F(n) does
    exponents = dict(fib_factorization(n).factors)
    assert exponents.get(2, 0) == _two_adic_valuation_of_fib(n)
    assert exponents.get(5, 0) == valuation(n, 5)
    for p, e in exponents.items():
        if p == 2:
            continue
        # rank(p) is the least index d | n with p | F(d), read off the memo
        r = min(d for d in divisors(factorize(n))
                if fib_factorization(d) % p == 0)
        entry = dict(fib_factorization(r).factors)[p]
        assert e == entry + valuation(n // r, p), (n, p)
        # primitive_primes gives p at its rank with that entry exponent
        assert (p, entry) in primitive_primes(r), (n, p)


def test_cohn_squares():
    # 1 and 144 are the only square Fibonacci numbers, so the λ_α form,
    # 1*λ = [square] pulled back along F, weighs exactly their indices
    squares = [n for n in range(1, 1001) if math.isqrt(fib(n)) ** 2 == fib(n)]
    assert squares == [1, 2, 12]
    assert LAMBDA_ALPHA.weights == dict.fromkeys(squares, 1)


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
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    with pytest.raises(BudgetExceededError):
        contributors(130)
    with pytest.raises(BudgetExceededError):
        alpha_contract(MU, 130)   # the same stream, summed with no list
    assert fib_module.FIB_FACTORS == {}


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
    # the log of an exact product, as the reports read it: math.log on an
    # int reads its bit length and leading bits, so it holds at any size
    assert math.log(1) == 0.0
    for v, expected in ((30, 3.4011973816621555), (240, 5.480638923341991)):
        assert abs(math.log(v) - expected) <= 1e-12 * expected
    assert abs(math.log(fib(5000)) - 5000 * math.log(GOLDEN_RATIO)
               + math.log(math.sqrt(5.0))) < 1e-6
    with pytest.raises(ValueError):
        math.log(0)


def test_constants():
    r = GOLDEN_RATIO
    s = 1 - r   # the conjugate (1 − √5)/2
    assert abs(r * s + 1) < 1e-12
    assert abs(LCM_GROWTH_CONSTANT - 3 * math.log(r) / math.pi**2) < 1e-15
    sqrt5 = math.sqrt(5.0)
    for n in range(31):
        assert abs((r**n - s**n) / sqrt5 - fib(n)) < 1e-6


def test_strong_divisibility():
    # fib_factorization and the rank stream divide out the F(n/q) on it;
    # every pair up to 300, past the index cap, as the cap will move
    fibs = [fib(n) for n in range(301)]
    for m in range(1, 301):
        for n in range(1, 301):
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
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    for n in range(1, 101):
        f = fib_factorization(n)
        assert f == fib(n) and f.factors == factorize(fib(n)).factors, n
    for n in (94, 96, 120):
        monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
        assert fib_factorization(n).factors == factorize(fib(n)).factors, n


def test_factor_fib_is_fib_factorizations_step(monkeypatch):
    # a plain list, filled only from earlier steps, stands in for the memo
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    factored = [None]
    for n in range(1, 121):
        factored.append(factor_fib(n, fib(n), factored.__getitem__))
    assert fib_module.FIB_FACTORS == {}
    raised = []
    with factor_budget(1):
        for n in range(1, 121):
            try:
                f = factor_fib(n, fib(n), factored.__getitem__)
            except BudgetExceededError as exc:
                assert str(exc).startswith(f"F({n}): "), n
                raised.append(n)
            else:
                assert f.factors == factored[n].factors, n
    assert fib_module.FIB_FACTORS == {} and 120 in raised
    for n in range(1, 121):
        assert factored[n] == fib(n), n
        assert factored[n].factors == fib_factorization(n).factors, n


def test_fib_factorization_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
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
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    fib_factorization(n)
    expected = {d for d in range(1, n + 1) if n % d == 0 and (d >= 3 or d == n)}
    assert set(fib_module.FIB_FACTORS) == expected


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
            monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
            if _within_budget(fib_factorization, n):
                reached.add(n)
    assert direct <= reached and reached - direct == gained


def test_fib_submodule_is_not_shadowed():
    import types

    import fibdirichlet.fib as m

    assert isinstance(m, types.ModuleType)
    assert m.fib(12) == 144
