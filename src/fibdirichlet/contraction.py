"""The rank-of-apparition contraction operator and its summatory functions.

The contraction of an arithmetic function f sends n to the sum of f over all
m whose rank of apparition is exactly n.  By duality those m are precisely
the divisors of F(n) that divide no earlier Fibonacci number, which makes the
sum finite and exactly computable.

The μ-family is held one way, as a Dilation {j: c_j} with
f(n) = Σ_{j|n} c_j·μ(n/j), on which contraction is the pull-back c ↦ c∘F:
μ_α, μ_α² and μ_α³ are [n = 1] pulled back, λ_α is c = 1_{1,2,12} and the
kernel element Δ₂₃ is c = −1_{4}.  The module also provides the
floor-weighted (T) and plain (S) summatory functions.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import repeat
from operator import add, mul
from typing import Any, Iterator, Sequence

from .fib import fib_factorization
from .numtheory import (
    ArithFn,
    Factorization,
    MU,
    ONE,
    _prime_factors,
    dirichlet_convolve,
    divisor_stream,
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


def _rank_stream(n: int) -> Iterator[Factorization]:
    """The divisors of F(n) whose rank of apparition is exactly n, streamed.

    By duality d | F(n) has rank n iff d divides no F(n/q) for a prime
    q | n, that is iff F(n/q) % d is nonzero for each such q: one C-level
    filter per q, and no divisor of an F(n/q) is listed.  F(n) is factored
    first, so an n beyond the index cap raises before any F(n/q) enters the
    memo, and every F(n/q) is factored before the first divisor is made.
    """
    stream = divisor_stream(fib_factorization(n))
    for q, _ in factorize(n).factors:
        stream = filter(fib_factorization(n // q).__mod__, stream)
    return stream


def contributors(n: int) -> list[int]:
    """Divisors of F(n) whose rank of apparition is exactly n, ascending,
    held in one list; alpha_contract sums the same divisors without one."""
    return sorted(_rank_stream(n))


def alpha_contract(f: ArithFn, n: int) -> Any:
    """Contraction of f at n: Σ f(m) over m with rank(m) = n.

    The m are streamed, never held in a list.  Empty sums are f.zero — in
    particular at n = 2, where F(2) = 1 has no divisor of rank 2.
    """
    if n < 1:
        raise ValueError("alpha_contract expects n >= 1")
    return sum(map(f.fn, _rank_stream(n)), f.zero)


# --- the μ-family as dilation forms ---


class Dilation:
    """f(n) = Σ_{j|n} c_j·μ(n/j) for a finite map {j: c_j}, so that 1*f = c.

    By duality Σ_{k|n} f_α(k) = Σ_{d|F(n)} f(d) = c(F(n)): contraction is the
    pull-back c ↦ c∘F, and it keeps this shape.
    """

    __slots__ = ("weights", "_terms")

    def __init__(self, weights: dict[int, int]) -> None:
        self.weights = {j: c for j, c in sorted(weights.items()) if c}
        # each dilate with its exponents, so μ(n/j) is read from n's
        self._terms = [(j, dict(factorize(j).factors), c)
                       for j, c in self.weights.items()]

    def pull_back(self) -> Dilation:
        """The form of f's contraction: c(F(k)) at each k with F(k) ≤ max j."""
        pulled, k, value, after = {}, 1, 1, 1
        top = max(self.weights, default=0)
        while value <= top:
            pulled[k] = self.weights.get(value, 0)
            k, value, after = k + 1, after, value + after
        return Dilation(pulled)

    def at(self, n: int) -> int:
        """f(n); a plain int n is factored once, and no quotient is built."""
        factors = _prime_factors(n)
        total = 0
        for m, dilate, c in self._terms:
            if n % m:
                continue
            # μ(n/m) from n's exponents less m's: squarefree test and sign
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

    def values(self, n_max: int) -> Sequence[int]:
        """f(1..n_max) in a signed-byte view, walking n by its class mod M.

        With M = lcm(j)², n/k ≡ first/k (mod M/k) on a class, so two facts
        hold on all of it at once: μ(n/j) = μ(k/j)·μ(n/k) for j | k with
        k/j prime to first/k, which folds c_j into c_k, and μ(n/j) = 0 where
        gcd(first/j, M/j) is not squarefree.  Each remaining μ(n/j) is one
        strided slice of the μ sieve; a lone one with c_j = 1 is copied.
        """
        if sum(map(abs, self.weights.values())) > 127:
            raise ValueError(f"{self.weights} may leave a signed byte")
        from array import array   # imported here, as in verify.series_table
        mu = grow_mu_sieve(n_max)
        m = math.lcm(*self.weights) ** 2
        out = memoryview(bytearray(n_max)).cast("b")
        for first in range(1, min(m, n_max) + 1):   # out[first - 1::m]
            coeffs = {j: c for j, c in self.weights.items() if first % j == 0}
            for j in list(coeffs):
                k = next((k for k in coeffs if k > j and k % j == 0
                          and math.gcd(k // j, first // k) == 1), None)
                if k is not None:
                    coeffs[k] += mobius(k // j) * coeffs.pop(j)
            columns = []
            for j, c in coeffs.items():
                if c and mobius(math.gcd(first // j, m // j)):
                    column = mu[first // j:n_max // j + 1:m // j]
                    columns.append(column if c == 1
                                   else map(mul, column, repeat(c)))
            if columns:   # summed lazily, written in one pass
                column = reduce(partial(map, add), columns)
                out[first - 1::m] = (column if isinstance(column, memoryview)
                                     else array("b", column))
        return out

    def polynomial(self, s: float) -> float:
        """Σ c_j·j^−s, which ζ(s)·Σ f(n)/n^s equals."""
        return math.fsum(c * j ** -s for j, c in self.weights.items())


def _mu_forms() -> tuple[Dilation, ...]:
    """μ contracted once, twice, …: [n = 1] pulled back while that changes
    the form, up to the fixed point that every deeper contraction equals."""
    forms = [Dilation({1: 1}).pull_back()]
    while (pulled := forms[-1].pull_back()).weights != forms[-1].weights:
        forms.append(pulled)
    return tuple(forms)


MU_ALPHA, MU_ALPHA2, MU_ALPHA3 = _MU_FORMS = _mu_forms()   # fixed at depth 3
# one per depth (not per n), over the bound .at: no frame per contributor
MU_ITERATES = tuple(ArithFn(f"mu_iter{depth}", form.at)
                    for depth, form in enumerate(_MU_FORMS, 1))


def alpha_contract_iter(f: ArithFn, depth: int, n: int) -> Any:
    """depth-fold contraction of f at n.

    For μ the inner iterate is read from its dilation form, so arbitrarily
    large contributors stay cheap.  For other f the contributors are expanded
    level by level, equal m merged with their multiplicities, and f_α is
    summed once per distinct m; an unfactorable F(m) raises the budget error.
    """
    if depth < 1:
        raise ValueError("alpha_contract_iter expects depth >= 1")
    if depth == 1:
        return alpha_contract(f, n)
    if f is MU:   # the (depth − 1)-fold iterate; past the fixed point, the last
        return alpha_contract(MU_ITERATES[:depth - 1][-1], n)
    level = {n: 1}
    for _ in range(depth - 1):
        below: dict[int, int] = {}
        for m, k in level.items():
            for d in contributors(m):
                below[d] = below.get(d, 0) + k
        level = below
    return sum((alpha_contract(f, m) * k for m, k in level.items()), f.zero)


# --- closed forms ---

# 1*λ is the indicator of the squares, the only square Fibonacci numbers
# being 1 and 144 (Cohn, 1964)
LAMBDA_ALPHA = Dilation({1: 1, 2: 1, 12: 1})
DELTA23 = Dilation({4: -1})   # μ_α² − μ_α³


def closed_mu_alpha(n: int) -> int:
    """Contraction of μ: c = 1_{1,2}.  Multiplicative."""
    return MU_ALPHA.at(n)


def closed_mu_alpha2(n: int) -> int:
    """Twice-contracted μ: μ(n) plus μ(n/2) and μ(n/3) where those divide."""
    return MU_ALPHA2.at(n)


def closed_mu_alpha3(n: int) -> int:
    """Thrice-contracted μ: c = 1_{1,2,3,4}; a fixed point of contraction."""
    return MU_ALPHA3.at(n)


def closed_lambda_alpha(n: int) -> int:
    """Contraction of λ: c = 1_{1,2,12}, driven by the three square
    Fibonacci numbers F(1) = F(2) = 1 and F(12) = 144."""
    return LAMBDA_ALPHA.at(n)


def closed_delta23(n: int) -> int:
    """μ_α² − μ_α³ in closed form: −μ(n/4) on multiples of 4, else 0.

    Lies in the kernel of the contraction operator.
    """
    return DELTA23.at(n)


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
