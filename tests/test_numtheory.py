import copy
import importlib
import inspect
import math
import operator
import pkgutil
import random
import types
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from fibdirichlet import numtheory
from fibdirichlet.numtheory import (
    ArithFn,
    BudgetExceededError,
    DIVISOR_COUNT,
    MANGOLDT,
    MR_DETERMINISTIC_BOUND,
    dirichlet_convolve,
    divisor_count,
    divisor_halves,
    divisors,
    euler_phi,
    factor_budget,
    factorize,
    is_prime,
    liouville,
    mangoldt_base,
    mertens,
    mobius,
    MU,
    ONE,
    PHI,
    LIOUVILLE,
    zeta_partial,
)


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(89)       # = F(11)
    assert not is_prime(144)  # = F(12)


def test_is_prime_matches_trial_division():
    for n in range(1, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_above_deterministic_threshold():
    mersenne_89 = 2**89 - 1  # prime, larger than the deterministic bound
    assert mersenne_89 > MR_DETERMINISTIC_BOUND
    assert is_prime(mersenne_89)
    mersenne_61 = 2**61 - 1
    assert not is_prime(mersenne_61**2)


def test_factorize_examples():
    assert factorize(144).factors == ((2, 4), (3, 2))
    assert factorize(1).factors == ()
    f60 = factorize(1548008755920)  # = F(60)
    assert f60.factors == ((2, 4), (3, 2), (5, 1), (11, 1), (31, 1),
                           (41, 1), (61, 1), (2521, 1))
    prod = 1
    for p, e in f60.factors:
        prod *= p**e
    assert prod == 1548008755920
    assert copy.deepcopy(f60).factors == f60.factors


def test_divisors_examples():
    assert divisors(factorize(21)) == [1, 3, 7, 21]
    assert divisors(factorize(1)) == [1]
    d144 = divisors(factorize(144))
    assert len(d144) == 15 and d144[-1] == 144


def assert_divisor_list(fac, divs):
    """divs lists fac's divisors ascending, each carrying its own factors,
    so that the i-th from the end is fac over the i-th."""
    exponents = dict(fac.factors)
    assert all(a < b for a, b in zip(divs, divs[1:]))
    for d in divs:
        primes = [p for p, _ in d.factors]
        assert primes == sorted(set(primes))
        assert math.prod(p**e for p, e in d.factors) == d
        assert all(e <= exponents.get(p, 0) for p, e in d.factors)
    assert all(d * c == fac for d, c in zip(divs, reversed(divs)))


def test_factorization_and_divisor_sums_to_10000():
    # one pass over n <= 10^4: reconstruction, divisor count and order, and
    # the classical divisor-sum identities for mu, phi and lambda
    for n in range(1, 10_001):
        fac = factorize(n)
        prod = 1
        count = 1
        for p, e in fac.factors:
            assert is_prime(p)
            prod *= p**e
            count *= e + 1
        assert prod == n
        divs = divisors(fac)
        assert len(divs) == count
        assert_divisor_list(fac, divs)
        assert sum(mobius(d) for d in divs) == (1 if n == 1 else 0)
        assert sum(euler_phi(d) for d in divs) == n
        is_square = math.isqrt(n) ** 2 == n
        assert sum(liouville(d) for d in divs) == (1 if is_square else 0)


def test_divisor_lists_of_fibonacci_and_high_exponent_values():
    from fibdirichlet.fib import fib_factorization

    facs = [fib_factorization(k) for k in range(1, 121)]
    facs += [factorize(2**20 * 3**5 * 7), factorize(720720**2)]
    for fac in facs:
        divs = divisors(fac)
        assert len(divs) == divisor_count(fac)
        assert_divisor_list(fac, divs)
        # each divisor is exactly one product a·b of coprime halves, and it
        # carries a.factors + b.factors
        low, high = divisor_halves(fac)
        assert low[0] == high[0] == 1 and low[-1] * high[-1] == fac
        assert math.gcd(low[-1], high[-1]) == 1
        products = sorted((a * b, a.factors + b.factors)
                          for a in low for b in high)
        assert products == [(d, d.factors) for d in divs]


def assert_halves_are_complement_symmetric(fac):
    """Each half ascends from 1 to its top h, and its i-th from the end is
    h over its i-th; so the products a·b, low by high, read backwards are
    fac over the same products read forwards."""
    low, high = divisor_halves(fac)
    assert low[-1] * high[-1] == fac
    for half in (low, high):
        assert half[0] == 1
        assert all(a < b for a, b in zip(half, half[1:]))
        assert [a * b for a, b in zip(half, reversed(half))] == \
            [half[-1]] * len(half)
    listing = [a * b for a in low for b in high]
    assert listing[::-1] == [fac // d for d in listing]


def test_halves_of_fibonacci_numbers_are_complement_symmetric():
    from fibdirichlet.fib import fib_factorization

    for k in range(3, 121):
        assert_halves_are_complement_symmetric(fib_factorization(k))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 97, 2**61 - 1]),
                       st.integers(1, 5), max_size=5))
def test_halves_of_random_factors_are_complement_symmetric(exponents):
    factors = tuple(sorted(exponents.items()))
    assert_halves_are_complement_symmetric(
        numtheory.Factorization(math.prod(p**e for p, e in factors), factors))


def assert_listing_is_the_oracle(fac):
    """fac's listing, the products a·b of its halves low by high, is
    divisors(fac) as plain ints, and a multiplicative f read as f(a)·f(b)
    on it, and Λ's base read off the halves' tops, are the functions on
    those Factorizations."""
    low, high = divisor_halves(fac)
    listing = [a * b for a in low for b in high]
    assert all(type(d) is int for d in listing)
    by_value = {d: d for d in divisors(fac)}
    assert sorted(listing) == list(by_value)
    factored = [by_value[d] for d in listing]
    for f in (MU, PHI, LIOUVILLE, DIVISOR_COUNT):
        column = [f.fn(a) * f.fn(b) for a in low for b in high]
        assert column == list(map(f.fn, factored)), f.name
    bases = {p**j: p for half in (low, high)
             for p, e in half[-1].factors for j in range(1, e + 1)}
    assert [bases.get(d, 1) for d in listing] == \
        list(map(mangoldt_base, factored))


def test_divisor_listing_of_fibonacci_numbers_is_the_oracle():
    from fibdirichlet.fib import fib_factorization

    for k in range(1, 121):
        assert_listing_is_the_oracle(fib_factorization(k))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 97, 2**61 - 1]),
                       st.integers(1, 5), max_size=5))
def test_divisor_listing_of_random_factors_is_the_oracle(exponents):
    factors = tuple(sorted(exponents.items()))
    assert_listing_is_the_oracle(
        numtheory.Factorization(math.prod(p**e for p, e in factors), factors))


def test_factors_strictly_increasing():
    for n in (360, 5040, 96577):
        primes = [p for p, _ in factorize(n).factors]
        assert primes == sorted(set(primes))


def test_classical_values():
    assert mobius(4) == 0
    assert euler_phi(12) == 4
    assert liouville(12) == -1  # Omega(12) = 3
    assert divisor_count(144) == 15
    assert mobius(1) == liouville(1) == euler_phi(1) == 1


def test_mangoldt_base():
    assert mangoldt_base(8) == 2
    assert mangoldt_base(12) == 1   # Λ(12) = 0 = log 1
    assert mangoldt_base(89) == 89
    assert mangoldt_base(1) == 1


def test_arith_fn_is_frozen_and_shown_by_fields():
    with pytest.raises(AttributeError):
        MU.name = "not mu"
    with pytest.raises(AttributeError):
        MU.extra = 1
    with pytest.raises(AttributeError):
        del MU.fn
    assert MU.name == "mu" and MU.fn is mobius
    assert ArithFn.__slots__ == ("name", "fn")
    assert repr(MANGOLDT) == f"ArithFn(name='mangoldt', fn={mangoldt_base!r})"


def test_mangoldt_values():
    # Λ is carried as its base e^Λ: the prime of a prime power, else 1
    assert MANGOLDT.fn is mangoldt_base
    assert MANGOLDT(8) == 2
    assert MANGOLDT(12) == MANGOLDT(1) == 1


def test_mertens_examples():
    assert mertens(1) == 1
    assert mertens(4) == -1
    assert mertens(0.5) == 0


def test_mertens_step_function():
    for x in (1.2, 3.9, 10.5, 99.99):
        assert mertens(x) == mertens(math.floor(x))
    # M(n) − M(n − 1) = μ(n): M against one running sum of μ, at every
    # n ≤ 2000, past each sieve boundary p² with p ≤ 43, and then at a stride
    running = list(accumulate(map(mobius, range(1, 10_001)), initial=0))
    for n in (*range(2001), *range(2001, 10_000, 97), 10_000):
        assert mertens(n) == running[n], n


def test_dirichlet_convolve_examples():
    assert dirichlet_convolve(MU, ONE, 6) == 0
    assert dirichlet_convolve(PHI, ONE, 12) == 12
    assert dirichlet_convolve(LIOUVILLE, ONE, 9) == 1


def test_mangoldt_convolved_with_one_is_log():
    # Σ_{d|n} Λ(d) = log n, carried as ∏_{d|n} e^Λ(d) = n
    for n in range(1, 201):
        assert math.prod(map(MANGOLDT, divisors(factorize(n)))) == n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_mangoldt_convolved_with_one_is_log_property(n):
    assert math.prod(map(mangoldt_base, divisors(factorize(n)))) == n


def test_dirichlet_convolve_reads_carried_factors(monkeypatch):
    from fibdirichlet.fib import fib_factorization
    pairs = [(MU, ONE), (PHI, LIOUVILLE), (DIVISOR_COUNT, ONE)]
    plain = {(f.name, n): dirichlet_convolve(f, g, int(fib_factorization(n)))
             for f, g in pairs for n in range(1, 61)}
    calls = []
    original = numtheory.factorize
    monkeypatch.setattr(numtheory, "factorize",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    for f, g in pairs:
        for n in range(1, 61):
            value = dirichlet_convolve(f, g, fib_factorization(n))
            assert value == plain[(f.name, n)], (f.name, n)
    assert calls == []


def test_dirichlet_convolve_refuses_mangoldt():
    # Λ is carried as its base e^Λ: Σ_{d|12} e^Λ(d) is 10, not log 12
    for f, g in ((MANGOLDT, ONE), (ONE, MANGOLDT), (MANGOLDT, MANGOLDT)):
        with pytest.raises(ValueError, match="base e\\^Λ"):
            dirichlet_convolve(f, g, 12)


def assert_euler_product_is_the_divisor_sum(fac):
    """For every ordered pair of MULTIPLICATIVE, dirichlet_convolve on fac,
    a product over its prime powers, is the literal Σ_{d|fac} f(d)·g(fac/d)
    over one listing of its divisors."""
    divs = divisors(fac)
    values = [list(map(f.fn, divs)) for f in numtheory.MULTIPLICATIVE]
    for f, fv in zip(numtheory.MULTIPLICATIVE, values):
        for g, gv in zip(numtheory.MULTIPLICATIVE, values):
            literal = sum(map(operator.mul, fv, reversed(gv)))
            assert dirichlet_convolve(f, g, fac) == literal, (f.name, g.name)


def test_dirichlet_convolve_of_multiplicative_pairs_at_fibonacci_numbers():
    from fibdirichlet.fib import fib_factorization

    for n in range(1, 121):
        assert_euler_product_is_the_divisor_sum(fib_factorization(n))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 97, 2**61 - 1]),
                       st.integers(1, 5), max_size=5))
def test_dirichlet_convolve_of_multiplicative_pairs_on_random_factors(
        exponents):
    factors = tuple(sorted(exponents.items()))
    assert_euler_product_is_the_divisor_sum(
        numtheory.Factorization(math.prod(p**e for p, e in factors), factors))


def test_dirichlet_convolve_lists_prime_powers_only_for_multiplicative_pairs(
        monkeypatch):
    # a look-alike of MU is no MULTIPLICATIVE object: it sums over all 64
    # divisors of F(30) = 2^3·5·11·31·61, MU with ONE over each p^e's own
    from fibdirichlet.fib import fib_factorization

    f30 = fib_factorization(30)
    listed = []
    original = numtheory._divisor_list
    monkeypatch.setattr(numtheory, "_divisor_list",
                        lambda factors: listed.append(factors)
                        or original(factors))
    assert dirichlet_convolve(MU, ONE, f30) == 0
    assert listed == [((p, e),) for p, e in f30.factors]
    assert [p**e for (p, e), in listed] == [2**3, 5, 11, 31, 61]
    listed.clear()
    assert dirichlet_convolve(ArithFn("mu", mobius), ONE, f30) == 0
    assert listed == [f30.factors]


def test_dirichlet_convolve_commutative():
    rng = random.Random(90210)
    for _ in range(1000):
        n = rng.randint(1, 60)
        table_f = {k: rng.randint(-5, 5) for k in range(1, 61)}
        table_g = {k: rng.randint(-5, 5) for k in range(1, 61)}
        f = ArithFn("table_f", table_f.__getitem__)
        g = ArithFn("table_g", table_g.__getitem__)
        assert dirichlet_convolve(f, g, n) == dirichlet_convolve(g, f, n)


def test_zeta_partial():
    value, tail = zeta_partial(2, 1)
    assert value == 1.0 and tail <= 1.0
    value, tail = zeta_partial(2, 10_000)
    assert abs(value - math.pi**2 / 6) < 1e-4
    assert tail < 2e-4
    value, tail = zeta_partial(3, 100)
    assert abs(value - 1.2020569) < 1e-4
    for s in (1.0, 0.5, math.nan):
        with pytest.raises(ValueError):
            zeta_partial(s, 10)


def test_factor_budget_error():
    with factor_budget(10), pytest.raises(BudgetExceededError):
        factorize(1000003 * 1000033)


def test_trial_division_is_charged_once_per_call(monkeypatch):
    # the prime F(29) = 514229 takes 119 trial steps, 5, 11, ..., 713, and
    # nothing more: they are charged in one spend, so a budget of 118 runs
    # out inside the trial pass and raises, and 119 does not
    with factor_budget(119):
        assert factorize(514229).factors == ((514229, 1),)
    with factor_budget(118), pytest.raises(
            BudgetExceededError,
            match="^factoring 514229 exceeded the work budget$"):
        factorize(514229)
    spent = []
    original = numtheory._Budget.spend
    monkeypatch.setattr(numtheory._Budget, "spend",
                        lambda self, units: spent.append(units)
                        or original(self, units))
    factorize(514229)
    assert spent == [119]
    factorize(2**20 * 3**5 * 7)   # 7 < 5² is left: no trial step to charge
    assert spent == [119, 0]


def test_factor_budget_ignores_a_warm_call():
    fib_100 = 354224848179261915075
    factorize(fib_100)
    with factor_budget(10), pytest.raises(BudgetExceededError):
        factorize(fib_100)


def test_factor_budget_outside_any_scope_is_the_default():
    assert numtheory.FACTOR_BUDGET.get() == numtheory.DEFAULT_FACTOR_BUDGET


def test_nested_factor_budget_scopes_restore_the_outer_budget():
    with factor_budget(500):
        with factor_budget(7):
            assert numtheory.FACTOR_BUDGET.get() == 7
        assert numtheory.FACTOR_BUDGET.get() == 500
        with pytest.raises(BudgetExceededError), factor_budget(3):
            assert numtheory.FACTOR_BUDGET.get() == 3
            factorize(1000003 * 1000033)
        assert numtheory.FACTOR_BUDGET.get() == 500
    assert numtheory.FACTOR_BUDGET.get() == numtheory.DEFAULT_FACTOR_BUDGET


def _argument_names(code):
    """The argument names of a code object and of every function it defines."""
    count = code.co_argcount + code.co_kwonlyargcount
    names = set(code.co_varnames[:count])
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _argument_names(const)
    return names


def test_no_function_takes_a_budget_parameter():
    # the budget is read from the factor_budget scope; threading it through
    # call signatures again would let a call forget to pass it on
    import fibdirichlet

    offenders = []
    for info in pkgutil.iter_modules(fibdirichlet.__path__):
        module = importlib.import_module(f"fibdirichlet.{info.name}")
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for attr, obj in [(name, value), *members]:
                fn = inspect.unwrap(obj)
                code = getattr(fn, "__code__", None)
                if (code is not None and fn.__module__ == module.__name__
                        and "budget" in _argument_names(code)):
                    offenders.append(f"{module.__name__}.{attr}")
    assert offenders == []
