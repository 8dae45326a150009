"""Exact Fibonacci arithmetic and the rank of apparition.

Fast-doubling Fibonacci values, modular Fibonacci, the rank of apparition
(least index m with n | F(m)) with its prime-power shortcut, entry exponents,
primitive prime extraction, exact Fibonacci lcms, and the golden-ratio
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .numtheory import (
    BudgetExceededError,
    DEFAULT_FACTOR_BUDGET,
    Factorization,
    factorize,
    is_prime,
    valuation,
)

_LOG2_GOLDEN = math.log2((1 + math.sqrt(5.0)) / 2)


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
    """F(n) mod m by doubling; m ≥ 2."""
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


def rank(n: int) -> int:
    """Rank of apparition: least m ≥ 1 with n | F(m).

    Computed by scanning consecutive Fibonacci residues mod n up to 6n.
    Duality: n | F(m) if and only if rank(n) | m.
    """
    if n < 1:
        raise ValueError("rank expects n >= 1")
    # The scan is bounded by 6n, a classical Pisano-period bound the source
    # material leaves implicit; exceeding it means a bug, not a bad input.
    a, b = 1 % n, 1 % n  # F(1), F(2)
    for k in range(1, 6 * n + 1):
        if a == 0:
            return k
        a, b = b, (a + b) % n
    raise RuntimeError(f"no rank of apparition found for {n} within 6n steps")


def entry_exponent(n: int) -> int:
    """Largest m with n^m | F(rank(n)); defined for n ≥ 2."""
    if n < 2:
        raise ValueError("entry_exponent expects n >= 2")
    return valuation(fib(rank(n)), n)


def rank_prime_power(p: int, k: int) -> int:
    """rank(p^k) via the prime-power shortcut.

    p = 2 is exceptional: 3, 6, then 3·2^(k−2).  For odd p the rank stays at
    rank(p) while k ≤ entry exponent of p and then grows by a factor p per step.
    """
    if k < 1:
        raise ValueError("rank_prime_power expects k >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        if k == 1:
            return 3
        if k == 2:
            return 6
        return 3 * 2 ** (k - 2)
    r = rank(p)
    e = valuation(fib(r), p)
    return r if k <= e else p ** (k - e) * r


# --- Fibonacci factorization with a fail-fast scale guard ---

_FIB_FACTORS: dict[int, Factorization] = {}


def max_factorable_index(budget: int) -> int:
    """Largest Fibonacci index the given work budget could plausibly factor.

    Rho splits a composite m in ~m^(1/4) iterations, so the budget affords
    values of about 4·log2(budget) bits; F(n) has about 0.694·n bits.
    """
    return int(4 * math.log2(budget + 2) / _LOG2_GOLDEN)


def require_factorable(n: int, budget: Optional[int] = None) -> int:
    """The work units of budget; raises at once if F(n) is beyond their scale."""
    units = DEFAULT_FACTOR_BUDGET if budget is None else budget
    if n > max_factorable_index(units):
        raise BudgetExceededError(
            f"F({n}) is beyond the factable scale for a budget of {units} "
            f"work units (index cap {max_factorable_index(units)})"
        )
    return units


def fib_factorization(n: int, budget: Optional[int] = None) -> Factorization:
    """Factorization of F(n), memoized; fails fast when F(n) is beyond scale.

    The scale check comes first, so a budget refuses the same n whether or
    not F(n) is in the memo.
    """
    units = require_factorable(n, budget)
    cached = _FIB_FACTORS.get(n)
    if cached is not None:
        return cached
    f = factorize(fib(n), budget=units)
    _FIB_FACTORS[n] = f
    return f


def preload_fib_factorization(n: int, factors: tuple[tuple[int, int], ...]) -> None:
    _FIB_FACTORS[n] = Factorization(fib(n), factors)


def known_fib_factorizations() -> dict[int, Factorization]:
    return dict(_FIB_FACTORS)


def divisor_has_rank(d: int, n: int) -> bool:
    """For d | F(n): True iff rank(d) is exactly n.

    rank(d) divides n, so it suffices that d divides no F(n/q) for the
    maximal proper divisors n/q of n; this avoids rank scans for large d.
    The primes q are read from n when it is a Factorization.
    """
    if d == 1:
        return n == 1
    if not isinstance(n, Factorization):
        n = factorize(n)
    return all(fib_mod(n // q, d) for q, _ in n.factors)


def primitive_primes(n: int, budget: Optional[int] = None) -> list[tuple[int, int]]:
    """Primes p | F(n) with rank(p) = n, each with its exponent in F(n).

    The exponent of such a p in F(n) equals its entry exponent, since F(n)
    is the first Fibonacci number p divides.
    """
    if n < 1:
        raise ValueError("primitive_primes expects n >= 1")
    if n in (1, 2):
        return []
    fac = fib_factorization(n, budget)
    index = factorize(n)
    return [(p, e) for p, e in fac.factors if divisor_has_rank(p, index)]


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


@dataclass(frozen=True)
class Constants:
    """Floating constants used by the closed forms and asymptotics."""

    golden_ratio: float          # (1+√5)/2
    golden_conjugate: float      # (1−√5)/2
    lcm_growth_constant: float   # 3·log(golden_ratio)/π²


def _build_constants() -> Constants:
    golden = (1 + math.sqrt(5.0)) / 2
    return Constants(
        golden_ratio=golden,
        golden_conjugate=(1 - math.sqrt(5.0)) / 2,
        lcm_growth_constant=3 * math.log(golden) / math.pi**2,
    )


CONSTANTS = _build_constants()
