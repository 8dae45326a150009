"""The rank-of-apparition contraction operator and its summatory functions.

The contraction of an arithmetic function f sends n to the sum of f over all
m whose rank of apparition is exactly n.  By duality those m are precisely
the divisors of F(n) that divide no earlier Fibonacci number, which makes the
sum finite and exactly computable.  This module also provides the iterated
contractions of μ, the floor-weighted (T) and plain (S) summatory functions,
and closed forms for μ_α, μ_α², μ_α³, λ_α and the kernel element Δ₂₃.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, reduce
from itertools import filterfalse, repeat
from operator import add, mul
from typing import Any, NamedTuple

from .fib import fib, fib_factorization
from .numtheory import (
    ArithFn,
    MU,
    ONE,
    _prime_factors,
    dirichlet_convolve,
    divisors,
    factorize,
    grow_mu_sieve,
    mobius,
)


def divisor_union_ranks(x: float) -> dict[int, int]:
    """All n with rank(n) ≤ ⌊x⌋, mapped to rank(n).

    This set is the union of the divisor sets of F(1)..F(⌊x⌋); the first
    index whose Fibonacci number a divisor divides is its rank.
    """
    ranks: dict[int, int] = {}
    for n in range(1, math.floor(x) + 1):
        for d in divisors(fib_factorization(n)):
            ranks.setdefault(d, n)
    return ranks


def contributors(n: int) -> list[int]:
    """Divisors of F(n) whose rank of apparition is exactly n, ascending.

    By duality d | F(n) has rank n iff d divides no F(n/q) for a prime
    q | n, so the divisors of those F(n/q) are listed and left out; no
    Fibonacci residue is computed per divisor.  F(n) is factored first, so
    an n beyond the index cap raises before any F(n/q) enters the memo.
    """
    fib_n = fib_factorization(n)
    excluded = {d for q, _ in factorize(n).factors
                for d in divisors(fib_factorization(n // q))}
    return list(filterfalse(excluded.__contains__, divisors(fib_n)))


def alpha_contract(f: ArithFn, n: int) -> Any:
    """Contraction of f at n: Σ f(m) over m with rank(m) = n.

    Empty sums are f.zero — in particular at n = 2, where F(2) = 1 has no
    divisor of rank 2.
    """
    if n < 1:
        raise ValueError("alpha_contract expects n >= 1")
    return sum((f(m) for m in contributors(n)), f.zero)


# --- iterated contractions of mu ---
#
# Contracting h(n) = Σ c_j·μ(n/j)·[j|n] again gives a function of the same
# shape: by duality Σ_{k|n} h_α(k) = Σ_{d|F(n)} h(d), and Σ_{d|v, j|d} μ(d/j)
# collapses to [v = j], so only dilations j that are Fibonacci values survive,
# each replaced by its Fibonacci index.  Everything used here is classical;
# no case table is assumed.


def _fib_indexes_of(value: int) -> tuple[int, ...]:
    if value == 1:
        return (1, 2)
    j = 3
    while fib(j) < value:
        j += 1
    return (j,) if fib(j) == value else ()


@lru_cache(maxsize=None)
def _mu_iterate_weights(depth: int) -> tuple[tuple[int, int], ...]:
    """Dilation weights of the depth-fold contraction of μ, as (dilate, coeff)."""
    combo = {1: 1}
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for m, c in combo.items():
            for j in _fib_indexes_of(m):
                nxt[j] = nxt.get(j, 0) + c
        combo = nxt
    return tuple(sorted(combo.items()))


@lru_cache(maxsize=None)
def _mu_iterate_fn(depth: int) -> ArithFn:
    # built once per depth, so the dilates are factored once; μ(n/m) is read
    # from n's exponents less those of m, so no quotient is built
    weights = [(m, dict(factorize(m).factors), c)
               for m, c in _mu_iterate_weights(depth)]

    def evaluate(n: int) -> int:
        factors = _prime_factors(n)
        total = 0
        for m, dilate, c in weights:
            if n % m:
                continue
            sign = c
            for p, e in factors:
                e -= dilate.get(p, 0)
                if e > 1:
                    break  # n/m is not squarefree: μ(n/m) = 0
                if e:
                    sign = -sign
            else:
                total += sign
        return total

    return ArithFn(f"mu_iter{depth}", evaluate)


def alpha_contract_iter(f: ArithFn, depth: int, n: int) -> Any:
    """depth-fold contraction of f at n.

    For μ the inner iterate is evaluated through its exact dilation form, so
    arbitrarily large contributors stay cheap.  For other functions the inner
    levels recurse literally and raise the budget error once an intermediate
    Fibonacci number is unfactorable.
    """
    if depth < 1:
        raise ValueError("alpha_contract_iter expects depth >= 1")
    if depth == 1:
        return alpha_contract(f, n)
    if f is MU:
        inner = _mu_iterate_fn(depth - 1)
    else:
        inner = ArithFn(f"{f.name}_iter{depth - 1}",
                        lambda m: alpha_contract_iter(f, depth - 1, m), f.zero)
    return alpha_contract(inner, n)


# --- closed forms ---


class CaseTable(NamedTuple):
    """A closed form f(n) = Σ c·μ(n/j) over the (j, c) pairs listed under
    n mod modulus.

    Each j listed under r divides both r and the modulus, so j | n wherever
    the pair applies.  at(n) reads f at one n; values(N) reads f(1..N) in
    slice passes over the μ sieve.
    """

    modulus: int
    cases: tuple[tuple[tuple[int, int], ...], ...]   # indexed by residue

    def at(self, n: int) -> int:
        # n itself for j = 1, so that a Factorization supplies its factors
        return sum(c * mobius(n // j if j > 1 else n)
                   for j, c in self.cases[n % self.modulus])

    def values(self, n_max: int) -> list[int]:
        """[f(1), ..., f(n_max)], with μ read from the sieve grown to n_max."""
        mu = grow_mu_sieve(n_max)
        m = self.modulus
        out = [0] * n_max
        for r, pairs in enumerate(self.cases):
            first = r or m   # the least n ≥ 1 with n ≡ r, at out[first - 1]
            columns = []
            for j, c in pairs:
                # μ(n/j) for n = first, first + m, ... ≤ n_max
                column = mu[first // j:n_max // j + 1:m // j]
                columns.append(column if c == 1
                               else map(mul, column, repeat(c)))
            if columns:   # summed lazily, written in one pass
                out[first - 1::m] = reduce(partial(map, add), columns)
        return out


def _case_table(modulus: int, cases: dict) -> CaseTable:
    """The table listing cases[residues] under each of those residues."""
    by_residue = {r: pairs for residues, pairs in cases.items()
                  for r in residues}
    return CaseTable(modulus, tuple(by_residue[r] for r in range(modulus)))


MU_ALPHA_TABLE = _case_table(4, {
    (1, 3): ((1, 1),), (2,): (), (0,): ((2, 1),)})
MU_ALPHA2_TABLE = _case_table(6, {
    (1, 5): ((1, 1),), (2, 4): ((1, 1), (2, 1)), (3,): ((1, 1), (3, 1)),
    (0,): ((1, 1), (2, 1), (3, 1))})
MU_ALPHA3_TABLE = _case_table(12, {
    (1, 5, 7, 11): ((1, 1),), (2, 10): (), (3, 9): ((1, 1), (3, 1)),
    (6,): ((3, 1),), (0, 4, 8): ((2, 1), (4, 1))})
LAMBDA_ALPHA_TABLE = _case_table(12, {
    (1, 3, 5, 7, 9, 11): ((1, 1),), (2, 4, 6, 8, 10): ((1, 1), (2, 1)),
    (0,): ((2, 1), (12, 1))})
DELTA23_TABLE = _case_table(4, {(1, 2, 3): (), (0,): ((4, -1),)})


def closed_mu_alpha(n: int) -> int:
    """Contraction of μ: case table mod 4.  Multiplicative."""
    return MU_ALPHA_TABLE.at(n)


def closed_mu_alpha2(n: int) -> int:
    """Twice-contracted μ: μ(n) plus μ(n/2) and μ(n/3) where those divide."""
    return MU_ALPHA2_TABLE.at(n)


def closed_mu_alpha3(n: int) -> int:
    """Thrice-contracted μ: case table mod 12; a fixed point of contraction."""
    return MU_ALPHA3_TABLE.at(n)


def closed_lambda_alpha(n: int) -> int:
    """Contraction of λ: case table mod 12, driven by the three square
    Fibonacci numbers F(1) = F(2) = 1 and F(12) = 144."""
    return LAMBDA_ALPHA_TABLE.at(n)


def closed_delta23(n: int) -> int:
    """μ_α² − μ_α³ in closed form: −μ(n/4) on multiples of 4, else 0.

    Lies in the kernel of the contraction operator.
    """
    return DELTA23_TABLE.at(n)


CLOSED_FORMS: dict[tuple[str, int], ArithFn] = {
    ("mu", 1): ArithFn("mu_alpha", closed_mu_alpha),
    ("mu", 2): ArithFn("mu_alpha2", closed_mu_alpha2),
    ("mu", 3): ArithFn("mu_alpha3", closed_mu_alpha3),
    ("lambda", 1): ArithFn("lambda_alpha", closed_lambda_alpha),
}


# --- summatory functions ---


def summatory_T(f: ArithFn, x: float) -> Any:
    """Floor-weighted summatory function Σ_{rank(n)≤x} f(n)·⌊x/rank(n)⌋.

    Evaluated through the double-counting identity as Σ_{n≤x} (1*f)(F(n)),
    i.e. divisor sums over Fibonacci numbers, which avoids enumerating the
    full rank-bounded set.  For Λ it is the log of F(1)·…·F(⌊x⌋).
    """
    return sum((dirichlet_convolve(ONE, f, fib_factorization(n))
                for n in range(1, math.floor(x) + 1)), f.zero)


def summatory_S(f: ArithFn, x: float) -> Any:
    """Plain summatory function Σ_{rank(n)≤x} f(n).

    Computed as the sum of contractions up to ⌊x⌋; for Λ it is the log of
    lcm(F(1)..F(⌊x⌋)).
    """
    return sum((alpha_contract(f, n)
                for n in range(1, math.floor(x) + 1)), f.zero)
