"""The rank-of-apparition contraction operator and its summatory functions.

The contraction of an arithmetic function f sends n to the sum of f over all
m whose rank of apparition is exactly n.  By duality those m are the products
a·b of F(n)'s two coprime divisor halves whose tags share no bit, so the sum
is finite and exact, and _tag_sum takes it per tag for a multiplicative f
and for each term of a finite form.

A finite form is held one way, as a Dilation {j: c_j} with
f(n) = Σ_{j|n} c_j·μ(n/j), on which contraction is the pull-back c ↦ c∘F:
μ's and λ's α-forms are pulled back to the fixed point c = 1_{1,2,3,4}, and
the kernel element Δ₂₃ is c = −1_{4}.  The module also provides the
floor-weighted (T) and plain (S) summatory functions.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterator
from itertools import compress, repeat

from .fib import fib_factorization, require_factorable
from .numtheory import (
    ArithFn,
    Factorization,
    LISTED,
    LIOUVILLE,
    MU,
    MULTIPLICATIVE,
    ONE,
    _prime_factors,
    dirichlet_convolve,
    divisor_halves,
    divisor_listing,
    factorize,
    refuse_mangoldt,
)


def divisor_union(x: float) -> tuple[dict[int, int], list[int], list, dict]:
    """The n with rank(n) ≤ ⌊x⌋, from one divisor_listing of each F(k ≤ x):
    each n mapped to its id, its place in the order the listings first hold
    them; their ranks (that k) by id; each F(k)'s listing with its ids;
    and the LISTED functions' values by id, keyed by function.
    An F(⌊x⌋) past the index cap fails before anything is factored."""
    require_factorable(math.floor(x))
    ids: dict[int, int] = {}
    runs, columns = [], [[] for _ in range(len(LISTED) + 1)]   # rank, LISTED
    for k in range(1, math.floor(x) + 1):
        listing, *values = divisor_listing(fib_factorization(k).factors)
        first = len(ids)
        runs.append((listing, [ids.setdefault(d, len(ids)) for d in listing]))
        fresh = [i >= first for i in runs[-1][1]]   # the n of rank k
        for column, listed in zip(columns, (repeat(k), *values)):
            column += compress(listed, fresh)
    return ids, columns[0], runs, dict(zip(LISTED, columns[1:]))


def divisor_union_ranks(x: float) -> dict[int, int]:
    """All n with rank(n) ≤ ⌊x⌋, mapped to rank(n), read off divisor_union."""
    return dict(zip(*divisor_union(x)[:2]))


def _rank_halves(n: int) -> list[list[tuple[int, Factorization]]]:
    """F(n)'s two coprime divisor halves, each divisor tagged with bit i
    set when it divides F(n/q) for the i-th prime q | n.  By duality a·b
    has rank n iff it divides no F(n/q), that is iff the tags of a and b
    share no bit.  F(n) is factored first, so an n past the index cap
    raises before any F(n/q) enters the memo, and each F(n/q) before any
    divisor is made.
    """
    whole = fib_factorization(n)
    below = [fib_factorization(n // q) for q, _ in factorize(n).factors]
    return [[(sum(1 << i for i, v in enumerate(below) if v % d == 0), d)
             for d in half] for half in divisor_halves(whole)]


def _rank_stream(n: int) -> Iterator[Factorization]:
    """The divisors of F(n) of rank exactly n, each made from its pair of
    tagged half-divisors when the stream reaches it, and none held."""
    low, high = _rank_halves(n)
    return (Factorization(a * b, a.factors + b.factors)
            for s, a in low for t, b in high if not s & t)


def contributors(n: int) -> list[int]:
    """Divisors of F(n) whose rank of apparition is exactly n, ascending,
    held in one list; alpha_contract sums the same divisors without one."""
    return sorted(_rank_stream(n))


def _tag_sum(halves: list, on_low: Callable, on_high: Callable) -> int:
    """Σ U[s]·V[t] over the tags s, t that share no bit, with U[s] the sum
    of on_low(a) over the low half's a tagged s, V[t] that of on_high(b)."""
    low, high = [defaultdict(int) for _ in halves]
    for half, on, sums in zip(halves, (on_low, on_high), (low, high)):
        for tag, d in half:
            sums[tag] += on(d)
    return sum(u * v for s, u in low.items()
               for t, v in high.items() if not s & t)


def alpha_contract(f: ArithFn, n: int) -> object:
    """Contraction of f at n: Σ f(m) over m with rank(m) = n.

    A MULTIPLICATIVE f, as f(a·b) = f(a)·f(b), is summed per tag on the
    halves; any other f on the m streamed, never held.  Empty sums are 0 — in
    particular at n = 2, where F(2) = 1 has no divisor of rank 2.  Λ is
    refused, as a sum of its bases e^Λ is no log.
    """
    if n < 1:
        raise ValueError("alpha_contract expects n >= 1")
    refuse_mangoldt(f)
    if f in MULTIPLICATIVE:   # by identity: ArithFn has no __eq__
        return _tag_sum(_rank_halves(n), f.fn, f.fn)
    return sum(map(f.fn, _rank_stream(n)))


# --- finite forms and their towers ---


def _mu_over(n: int, factors: tuple, m: int, dilate: dict[int, int]) -> int:
    """[m | n]·μ(n/m), from n's factors less m's exponents."""
    if n % m:
        return 0
    sign = 1
    for p, e in factors:
        e -= dilate.get(p, 0)
        if e > 1:
            return 0   # n/m is not squarefree
        if e:
            sign = -sign
    return sign


# Dilation.values sums f(1..N) this many n at a time, so no lane is N long
_BLOCK = 1 << 16


class Dilation:
    """f(n) = Σ_{j|n} c_j·μ(n/j) for a finite map {j: c_j}, so that 1*f = c.

    By duality Σ_{k|n} f_α(k) = Σ_{d|F(n)} f(d) = c(F(n)): contraction is the
    pull-back c ↦ c∘F, and it keeps this shape.  `contract` reads f_α(n) off
    the divisors of rank n instead, with neither that sum nor the pull-back.
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
        return sum(c * _mu_over(n, factors, m, dilate)
                   for m, dilate, c in self._terms)

    def contract(self, n: int) -> int:
        """f_α(n) with no rank-n divisor made: for j | F(n) with parts j_A,
        j_B on F(n)'s halves, [j | a·b]·μ(a·b/j) = [j_A | a]·μ(a/j_A)·
        [j_B | b]·μ(b/j_B), so c_j adds c_j times their _tag_sum.
        """
        total, halves = 0, _rank_halves(n)
        for m, dilate, c in self._terms:
            parts = [math.gcd(m, half[-1][1]) for half in halves]
            if parts[0] * parts[1] == m:   # else m ∤ F(n)
                total += c * _tag_sum(halves, *(
                    lambda d, j=j: _mu_over(d, d.factors, j, dilate)
                    for j in parts))
        return total

    def values(self, mu: memoryview) -> memoryview:
        """f(1..N) from mu = μ(0..N), each a signed-byte view, summed a
        block of _BLOCK values of n at a time.

        Term j's lane holds |c_j| + c_j·μ(n/j) at each multiple n of j, from
        one slice of mu, and |c_j| elsewhere, one byte per n.  Added as
        little-endian integers, the lanes leave S + f(n) in n's byte, with
        S = Σ|c_j| and no carry as 2S ≤ 254; one translate takes S off.
        """
        total = sum(map(abs, self.weights.values()))
        if total > 127:
            raise ValueError(f"{self.weights} may leave a signed byte")
        n_max = len(mu) - 1
        less_total = bytes((b - total) % 256 for b in range(256))
        out = bytearray(n_max)
        for low in range(1, n_max + 1, _BLOCK):
            high = min(low + _BLOCK, n_max + 1)   # this block's n < high
            lanes = 0
            for j, c in self.weights.items():
                # μ's bytes 0, 1 and 0xff (−1) to |c| + c·μ
                weigh = bytes.maketrans(b"\0\1\xff",
                                        bytes(abs(c) + c * m for m in (0, 1, -1)))
                lane = bytearray([abs(c)]) * (high - low)
                k = -(-low // j)   # the least k with j·k in the block
                lane[j * k - low::j] = (
                    mu[k:(high - 1) // j + 1].tobytes().translate(weigh))
                lanes += int.from_bytes(lane, "little")
            out[low - 1:high - 1] = lanes.to_bytes(
                high - low, "little").translate(less_total)
        return memoryview(out).cast("b")

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
#   μ_α  (c = 1_{1,2}) is 1*μ = [n = 1] pulled back, and multiplicative.
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

# Each closed form is its Dilation's bound .at, and each μ iterate a bound
# method of its own, one per depth (not per n): bench/layertrace.py, which
# swaps functions by identity, counts only the calls made through closed_*.
CLOSED_FORMS: dict[tuple[str, int], ArithFn] = {
    (f.name, depth): ArithFn(f"{f.name}_alpha{depth}", form.at)
    for f, forms in TOWERS.items() for depth, form in enumerate(forms, 1)}
MU_ITERATES = tuple(ArithFn(f"mu_iter{depth}", form.at)
                    for depth, form in enumerate(TOWERS[MU], 1))
closed_mu_alpha, closed_mu_alpha2, closed_mu_alpha3 = (
    CLOSED_FORMS["mu", depth].fn for depth in (1, 2, 3))
closed_lambda_alpha = CLOSED_FORMS["lambda", 1].fn
closed_delta23 = DELTA23.at


def alpha_contract_iter(f: ArithFn, depth: int, n: int) -> object:
    """depth-fold contraction of f at n.

    An f with a tower, found by identity, has its (depth − 1)-form, past
    the fixed point its last, contracted once on F(n)'s tagged halves
    (Dilation.contract), so no contributor is made.  Otherwise, and at depth
    1, the contributors are expanded level by level, one list per level,
    and f is contracted at each m of the last.  Each m has one rank, so no
    m is listed twice in a level, and a loop, not a recursion, walks the
    1 → 1 and 5 → 5 chains to any depth.  Λ is refused before any work; an
    unfactorable F(m) raises the budget error.
    """
    if depth < 1:
        raise ValueError("alpha_contract_iter expects depth >= 1")
    refuse_mangoldt(f)
    if forms := TOWERS.get(f, ())[:depth - 1]:
        return forms[-1].contract(n)
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
