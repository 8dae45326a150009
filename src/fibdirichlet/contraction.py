"""The rank-of-apparition contraction operator and its summatory functions.

The contraction of an arithmetic function f sends n to the sum of f over all
m whose rank of apparition is exactly n.  By duality those m are precisely
the divisors of F(n) that divide no earlier Fibonacci number, which makes the
sum finite and exactly computable.

A finite form is held one way, as a Dilation {j: c_j} with
f(n) = Σ_{j|n} c_j·μ(n/j), on which contraction is the pull-back c ↦ c∘F:
μ's and λ's α-forms are pulled back to the fixed point c = 1_{1,2,3,4}, and
the kernel element Δ₂₃ is c = −1_{4}.  The module also provides the
floor-weighted (T) and plain (S) summatory functions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import partial, reduce
from itertools import repeat
from operator import add, mul

from .fib import fib_factorization
from .numtheory import (
    ArithFn,
    Factorization,
    LIOUVILLE,
    MANGOLDT,
    MU,
    ONE,
    _prime_factors,
    dirichlet_convolve,
    divisor_stream,
    divisors,
    factorize,
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


def alpha_contract(f: ArithFn, n: int) -> object:
    """Contraction of f at n: Σ f(m) over m with rank(m) = n.

    The m are streamed, never held in a list.  Empty sums are 0 — in
    particular at n = 2, where F(2) = 1 has no divisor of rank 2.  Λ is
    refused, as a sum of its bases e^Λ is no log.
    """
    if n < 1:
        raise ValueError("alpha_contract expects n >= 1")
    if f is MANGOLDT:
        raise ValueError("Λ is carried as its base e^Λ; its sums are no logs")
    return sum(map(f.fn, _rank_stream(n)))


# --- finite forms and their towers ---


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

    def values(self, mu: Sequence[int]) -> Sequence[int]:
        """f(1..N) in a signed-byte view, from mu = μ(0..N), walking n by
        its class mod M.

        With M = lcm(j)², n/k ≡ first/k (mod M/k) on a class, so two facts
        hold on all of it at once: μ(n/j) = μ(k/j)·μ(n/k) for j | k with
        k/j prime to first/k, which folds c_j into c_k, and μ(n/j) = 0 where
        gcd(first/j, M/j) is not squarefree; both μ are read from mu.  Each
        remaining μ(n/j) is one strided slice of mu; a lone one with c_j = 1
        is copied.
        """
        if sum(map(abs, self.weights.values())) > 127:
            raise ValueError(f"{self.weights} may leave a signed byte")
        from array import array   # here, as loading it adds 0.2 MB of peak RSS
        n_max = len(mu) - 1
        m = math.lcm(*self.weights) ** 2
        out = memoryview(bytearray(n_max)).cast("b")
        for first in range(1, min(m, n_max) + 1):   # out[first - 1::m]
            coeffs = {j: c for j, c in self.weights.items() if first % j == 0}
            for j in list(coeffs):
                k = next((k for k in coeffs if k > j and k % j == 0
                          and math.gcd(k // j, first // k) == 1), None)
                if k is not None:
                    coeffs[k] += mu[k // j] * coeffs.pop(j)
            columns = []
            for j, c in coeffs.items():
                if c and mu[math.gcd(first // j, m // j)]:
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


def _tower(form: Dilation) -> tuple[Dilation, ...]:
    """form, its pull-back, …, while that changes the form: the last is the
    fixed point that every deeper contraction equals."""
    forms = [form]
    while (pulled := forms[-1].pull_back()).weights != forms[-1].weights:
        forms.append(pulled)
    return tuple(forms)


# f ↦ its forms f_α, f_α², … up to the fixed point, looked up by identity.
#   μ_α  (c = 1_{1,2}) is [n = 1] pulled back, and multiplicative.
#   λ_α  (c = 1_{1,2,12}): 1*λ is the indicator of the squares, and the
#        only square Fibonacci numbers are F(1) = F(2) = 1 and F(12) = 144
#        (Cohn, 1964).
# Both reach c = 1_{1,2,3,4}, μ_α³, at depth 3.
TOWERS = {MU: _tower(Dilation({1: 1}).pull_back()),
          LIOUVILLE: _tower(Dilation({1: 1, 2: 1, 12: 1}))}
MU_ALPHA, MU_ALPHA2, MU_ALPHA3 = TOWERS[MU]
LAMBDA_ALPHA = TOWERS[LIOUVILLE][0]
# Δ₂₃ = μ_α² − μ_α³ is −μ(n/4) on multiples of 4, else 0, and lies in the
# kernel of the contraction operator.
DELTA23 = Dilation({4: -1})

# Each closed form is its Dilation's bound .at, and each iterate a bound
# method of its own, one per depth (not per n): bench/layertrace.py, which
# swaps functions by identity, counts only the calls made through closed_*.
CLOSED_FORMS: dict[tuple[str, int], ArithFn] = {
    (f.name, depth): ArithFn(f"{f.name}_alpha{depth}", form.at)
    for f, forms in TOWERS.items() for depth, form in enumerate(forms, 1)}
ITERATES = {f: tuple(ArithFn(f"{f.name}_iter{depth}", form.at)
                     for depth, form in enumerate(forms, 1))
            for f, forms in TOWERS.items()}
MU_ITERATES = ITERATES[MU]
closed_mu_alpha, closed_mu_alpha2, closed_mu_alpha3 = (
    CLOSED_FORMS["mu", depth].fn for depth in (1, 2, 3))
closed_lambda_alpha = CLOSED_FORMS["lambda", 1].fn
closed_delta23 = DELTA23.at


def alpha_contract_iter(f: ArithFn, depth: int, n: int) -> object:
    """depth-fold contraction of f at n.

    An f with a tower (μ or λ, found by identity) has its (depth − 1)-form,
    past the fixed point its last, contracted once, so arbitrarily large
    contributors stay cheap.  For other f the contributors are expanded
    level by level, each level one list, and f is contracted at each m of
    the last.  Each m has one rank, so no m is listed twice in a level, and a
    loop, not a recursion, walks the 1 → 1 and 5 → 5 chains to any depth.
    An unfactorable F(m) raises the budget error.
    """
    if depth < 1:
        raise ValueError("alpha_contract_iter expects depth >= 1")
    if depth > 1 and f in ITERATES:
        return alpha_contract(ITERATES[f][:depth - 1][-1], n)
    level = [n]
    for _ in range(depth - 1):
        level = [d for m in level for d in contributors(m)]
    return sum(alpha_contract(f, m) for m in level)


# --- summatory functions ---


def summatory_T(f: ArithFn, x: float) -> object:
    """Floor-weighted summatory function Σ_{rank(n)≤x} f(n)·⌊x/rank(n)⌋.

    Evaluated through the double-counting identity as Σ_{n≤x} (1*f)(F(n)),
    i.e. divisor sums over Fibonacci numbers, which avoids enumerating the
    full rank-bounded set.
    """
    return sum(dirichlet_convolve(ONE, f, fib_factorization(n))
               for n in range(1, math.floor(x) + 1))


def summatory_S(f: ArithFn, x: float) -> object:
    """Plain summatory function Σ_{rank(n)≤x} f(n).

    Computed as the sum of contractions up to ⌊x⌋.
    """
    return sum(alpha_contract(f, n) for n in range(1, math.floor(x) + 1))
