"""Exact Fibonacci arithmetic and the rank of apparition.

Fast-doubling Fibonacci values, modular Fibonacci, the rank of apparition
(least index m with n | F(m)) by one walk down from the multiple of it that
Lucas's law gives, entry exponents, the memo of factored F(n), each factored
through the memoized F(n/q) so that Pollard rho sees only its primitive
part, primitive prime extraction, exact Fibonacci lcms, the golden ratio
and the growth constant of log lcm F(1..x).
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .numtheory import (
    BudgetExceededError,
    FACTOR_BUDGET,
    Factorization,
    _prime_factors,
    factorize,
    valuation,
)

GOLDEN_RATIO = (1 + math.sqrt(5.0)) / 2
# log lcm(F(1), …, F(x)) grows as LCM_GROWTH_CONSTANT·x²
LCM_GROWTH_CONSTANT = 3 * math.log(GOLDEN_RATIO) / math.pi**2


def fib(n: int) -> int:
    """F(n) by fast doubling: F(0)=0, F(1)=1, F(n+1)=F(n)+F(n−1)."""
    if n < 0:
        raise ValueError("fib expects n >= 0")
    a, b = 0, 1  # F(0), F(1)
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a


def fib_mod(n: int, m: int) -> int:
    """F(n) mod m by doubling; n ≥ 0 and m ≥ 2."""
    if n < 0:
        raise ValueError("fib_mod expects n >= 0")
    if m < 2:
        raise ValueError("fib_mod expects modulus >= 2")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if bit == "1":
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a


def _rank_within(m: int, multiple: Factorization) -> Factorization:
    """rank(m), given a multiple of it that carries its factors.

    By duality the r | multiple with m | F(r) are the multiples of rank(m),
    so dividing out each prime of the multiple while m still divides F(r)
    ends at rank(m), whatever the order of the primes.
    """
    r = int(multiple)
    kept = []
    for q, k in multiple.factors:
        while k and fib_mod(r // q, m) == 0:
            r //= q
            k -= 1
        if k:
            kept.append((q, k))
    return Factorization(r, tuple(kept))


def rank(n: int) -> Factorization:
    """Rank of apparition: least m ≥ 1 with n | F(m), carrying its factors.

    rank(p^k) divides p^(k−1)·(p − (5|p)), where p − (5|p) is p − 1 when
    p ≡ ±1 (mod 5), p + 1 when p ≡ ±2, and 5 for p = 5 (Lucas; Wall,
    "Fibonacci series modulo m", 1960).  So rank(n) divides the lcm M of
    those multiples over p^k ‖ n, and one walk down from M finds it.  The
    answer is checked against the definition before it is returned;
    factoring n or the p ∓ 1 beyond the budget raises BudgetExceededError.
    A Factorization n is not factored again.
    """
    if n < 1:
        raise ValueError("rank expects n >= 1")
    exponents: dict[int, int] = {}
    for p, k in _prime_factors(n):
        local = dict(factorize(p - 1 if p % 5 in (1, 4) else
                               p + 1 if p % 5 else p).factors)
        if k > 1:
            local[p] = local.get(p, 0) + k - 1
        for q, e in local.items():
            exponents[q] = max(exponents.get(q, 0), e)
    multiple = Factorization(math.prod(q**e for q, e in exponents.items()),
                             tuple(sorted(exponents.items())))
    r = _rank_within(n, multiple)
    if (n > 1 and fib_mod(r, n)) or not divisor_has_rank(n, r):
        raise RuntimeError(f"the walk gave {r}, which is not the rank "
                           f"of apparition of {n}")
    return r


def entry_exponent(n: int) -> int:
    """Largest m with n^m | F(rank(n)); defined for n ≥ 2."""
    if n < 2:
        raise ValueError("entry_exponent expects n >= 2")
    return _exponent_at_rank(n, rank(n))


def _exponent_at_rank(n: int, r: int) -> int:
    """Largest m with n^m | F(r), for n ≥ 2 of rank r.

    It counts up one residue at a time, so it costs m residues whatever
    value a caller expects.
    """
    m = 1
    while fib_mod(r, n ** (m + 1)) == 0:
        m += 1
    return m


# --- Fibonacci factorization with a fail-fast scale guard ---

# the memo of factored F(n); other modules read it as fib.FIB_FACTORS at call
# time, never by a name bound at import, so that it may be swapped whole
FIB_FACTORS: dict[int, Factorization] = {}


def max_factorable_index(units: int) -> int:
    """Largest Fibonacci index a budget of units could plausibly factor.

    Rho splits a composite m in ~m^(1/4) iterations, so the budget affords
    values of about 4·log2(units) bits; F(n) has about 0.694·n bits.
    """
    return int(4 * math.log2(units + 2) / math.log2(GOLDEN_RATIO))


def require_factorable(n: int) -> None:
    """Raise at once if F(n) is beyond the scale of the FACTOR_BUDGET units."""
    units = FACTOR_BUDGET.get()
    if n > max_factorable_index(units):
        raise BudgetExceededError(
            f"F({n}) is beyond the factable scale for a budget of {units} "
            f"work units (index cap {max_factorable_index(units)})"
        )


def factor_fib(n: int, value: int, factored: Callable) -> Factorization:
    """Factorization of value = F(n), factored(m) giving that of F(m), m < n.

    A prime of F(n) that is not primitive divides F(n/q) for a prime q | n
    (strong divisibility), so the primes of each factored(n/q), n/q > 2,
    are divided out with their exponents, and only the rest, the primitive
    part of F(n) without its intrinsic primes, goes to factorize.  A spent
    budget raises BudgetExceededError naming F(n).
    """
    try:
        old = {p for q, _ in factorize(n).factors if n // q > 2
               for p, _ in factored(n // q).factors}
        rest, exponents = value, {}
        for p in old:
            exponents[p] = valuation(rest, p)
            rest //= p ** exponents[p]
        exponents.update(factorize(rest).factors)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"F({n}): {exc}") from exc
    return Factorization(value, tuple(sorted(exponents.items())))


def fib_factorization(n: int) -> Factorization:
    """Factorization of F(n), memoized, by factor_fib through the memo; fails
    fast, memo or not, when F(n) is beyond scale.  Besides F(n) the memo
    gains only F(d) for the divisors 3 ≤ d < n of n."""
    require_factorable(n)
    if (cached := FIB_FACTORS.get(n)) is None:
        cached = FIB_FACTORS[n] = factor_fib(n, fib(n), fib_factorization)
    return cached


def divisor_has_rank(d: int, n: int) -> bool:
    """For d | F(n): True iff rank(d) is exactly n.

    rank(d) divides n, so it suffices that d divides no F(n/q) for the
    maximal proper divisors n/q of n.  The primes q are read from n when it
    is a Factorization.
    """
    if d == 1:
        return n == 1
    return all(fib_mod(n // q, d) for q, _ in _prime_factors(n))


def primitive_primes(n: int) -> list[tuple[int, int]]:
    """Primes p | F(n) with rank(p) = n, each with its exponent in F(n).

    The exponent of such a p in F(n) equals its entry exponent, since F(n)
    is the first Fibonacci number p divides.
    """
    if n < 1:
        raise ValueError("primitive_primes expects n >= 1")
    if n in (1, 2):
        return []  # F(1) = F(2) = 1; also keeps them out of the memo
    index = factorize(n)
    return [(p, e) for p, e in fib_factorization(n).factors
            if divisor_has_rank(p, index)]


def lcm_fib(x: float) -> int:
    """lcm(F(1), …, F(⌊x⌋)) by iterated gcd; no factorization involved."""
    n = math.floor(x)
    if n < 1:
        raise ValueError("lcm_fib expects x >= 1")
    out = 1
    a, b = 1, 1  # F(1), F(2)
    for _ in range(n):
        out = math.lcm(out, a)
        a, b = b, a + b
    return out
