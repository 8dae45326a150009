"""The factored fast paths against independent slow oracles.

Divisors of F(n) carry their factors, F(n) over a divisor is read from the
other end of the divisor list, and μ on 1..N comes from a sieve.  Each is
checked against a fresh factorization of the plain integer, and against
sympy where it is installed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fibdirichlet.fib import fib_factorization
from fibdirichlet.numtheory import (
    MANGOLDT,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    liouville,
    mobius,
    mu_sieve,
)

FUNCTIONS = (mobius, liouville, euler_phi, divisor_count, MANGOLDT)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 100), st.data())
def test_carried_factors_match_a_fresh_factorization(n, data):
    fib_n = fib_factorization(n)
    divs = divisors(fib_n)
    i = data.draw(st.integers(0, len(divs) - 1), label="divisor index")
    d = divs[i]
    assert divs[-1 - i] == int(fib_n) // int(d)
    for carried in (d, divs[-1 - i]):
        fresh = factorize(int(carried))
        assert carried.factors == fresh.factors
        for fn in FUNCTIONS:
            assert fn(carried) == fn(fresh) == fn(int(carried))


def test_sieve_mobius_matches_factorized_mobius():
    # sieves of four lengths, each checked in full; the byte sieve reads
    # back as the ints -1, 0 and 1, and each n is factored once
    for limit in (13, 1000, 20_000, 200_000):
        sieve = mu_sieve(limit)
        assert len(sieve) == limit + 1 and sieve[0] == 0
        for n in range(1, limit + 1):
            fac = factorize(n)
            exponents = [e for _, e in fac.factors]
            expected = (0 if any(e > 1 for e in exponents)
                        else (-1) ** len(exponents))
            assert sieve[n] == mobius(fac) == expected, (limit, n)


def test_carried_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 81):
        fib_n = fib_factorization(n)
        assert dict(fib_n.factors) == sympy.factorint(int(fib_n))
        for d in divisors(fib_n):
            assert dict(d.factors) == sympy.factorint(int(d)), (n, d)
