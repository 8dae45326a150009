"""Exact elementary number theory.

Primality, factorization, divisor enumeration and the classical arithmetic
functions (μ, λ, φ, d, the von Mangoldt function Λ) over arbitrary-precision
integers.  Everything here is exact except zeta_partial, which returns an
explicit tail bound with its floating value.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import compress, repeat
from operator import mul


class BudgetExceededError(Exception):
    """Factorization work budget exhausted: the input is beyond desk scale."""


# The first 13 primes decide Miller-Rabin deterministically below this bound.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# At or above it, the first 30 primes: reproducible, but only probable.
_MR_LARGE_WITNESSES = _MR_BASE_WITNESSES + (43, 47, 53, 59, 61, 67, 71, 73, 79,
                                           83, 89, 97, 101, 103, 107, 109, 113)

DEFAULT_FACTOR_BUDGET = 2_000_000

_TRIAL_BOUND = 4096  # trial-divide below this, Pollard rho above

# The work units each factorization may spend; set only by factor_budget.
FACTOR_BUDGET = ContextVar("FACTOR_BUDGET", default=DEFAULT_FACTOR_BUDGET)


@contextmanager
def factor_budget(units: int) -> Iterator[None]:
    """Charge every factorization inside the block to a budget of units.

    The budget is a ContextVar: an asyncio task created inside the block
    keeps it, but a thread started inside it runs at DEFAULT_FACTOR_BUDGET
    unless it opens a scope of its own.
    """
    token = FACTOR_BUDGET.set(units)
    try:
        yield
    finally:
        FACTOR_BUDGET.reset(token)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test; 1 is not prime.

    Proven below MR_DETERMINISTIC_BOUND (witnesses 2..41), probable at or
    above it (the fixed witnesses 2..113).
    """
    if n < 2:
        return False
    for p in _MR_BASE_WITNESSES:
        if n % p == 0:
            return n == p
    witnesses = (_MR_BASE_WITNESSES if n < MR_DETERMINISTIC_BOUND
                 else _MR_LARGE_WITNESSES)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(int):
    """An integer n ≥ 1 that carries its exact prime factorization.

    ``factors`` holds (prime, exponent) pairs, primes ascending, whose product
    ∏ prime**exponent is n.  It is an int in every other respect, so it goes
    wherever an int goes, and μ, λ, φ, d and Λ read its factors instead of
    factoring it again.  Arithmetic on it gives plain ints.
    """

    def __new__(cls, value: int,
                factors: tuple[tuple[int, int], ...]) -> "Factorization":
        self = super().__new__(cls, value)
        self.factors = factors
        return self

    def __getnewargs__(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return int(self), self.factors   # for copy and pickle


class _Budget:
    """Mutable work-unit counter shared across one factorization call tree."""

    __slots__ = ("remaining", "target")

    def __init__(self, units: int, target: int):
        self.remaining = units
        self.target = target

    def spend(self, units: int) -> None:
        self.remaining -= units
        if self.remaining < 0:
            raise BudgetExceededError(
                f"factoring {self.target} exceeded the work budget"
            )


def _brent_rho(n: int, meter: _Budget) -> int:
    """Deterministic Brent-cycle Pollard rho: a proper factor of odd composite n.

    Polynomial constants are tried in a fixed order, so repeated runs split
    identically.  Work is charged per iteration.
    """
    # expected iterations ~ n**(1/4); refuse hopeless inputs up front
    expected = math.isqrt(math.isqrt(n)) + 1
    if expected > meter.remaining:
        meter.spend(expected)
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                meter.spend(steps)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                meter.spend(1)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise BudgetExceededError(f"rho could not split {n}")  # pragma: no cover


def _power_root(n: int) -> int:
    """r with n = r^k for some k ≥ 2, else 0, for n with no prime below
    _TRIAL_BOUND = 2^12, so that r > 2^12 and k ≤ bit_length/12."""
    for k in range(2, n.bit_length() // 12 + 1):
        r = 1 << -(-n.bit_length() // k)   # Newton from above to ⌊n^(1/k)⌋
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n:
            return r
    return 0


def _factor_into(n: int, out: dict[int, int], meter: _Budget) -> None:
    stack = [n]
    while stack:
        m = stack.pop()
        meter.spend(m.bit_length())
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # rho would need ~m^(1/4) steps on a prime power; a root takes none
        d = _power_root(m) or _brent_rho(m, meter)
        stack.append(d)
        stack.append(m // d)


def factorize(n: int) -> Factorization:
    """Full prime factorization of n ≥ 1; a pure function, nothing memoized.

    Trial division up to a small fixed bound, then deterministic Brent rho.
    Raises BudgetExceededError once the FACTOR_BUDGET units are spent, on
    every call alike.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    b = _Budget(FACTOR_BUDGET.get(), n)
    fac: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    p = 5
    while p <= _TRIAL_BOUND and p * p <= m:
        b.spend(1)
        for q in (p, p + 2):
            while m % q == 0:
                fac[q] = fac.get(q, 0) + 1
                m //= q
        p += 6
    if m > 1:
        if p * p > m:
            fac[m] = fac.get(m, 0) + 1
        else:
            _factor_into(m, fac, b)
    return Factorization(n, tuple(sorted(fac.items())))


def valuation(v: int, n: int) -> int:
    """The largest e with n^e | v, for n ≥ 2 and v ≥ 1."""
    if n < 2 or v < 1:
        raise ValueError(f"valuation expects n >= 2 and v >= 1, got {n}, {v}")
    e = 0
    while v % n == 0:
        v //= n
        e += 1
    return e


def _divisor_list(factors: tuple[tuple[int, int], ...]) -> list[Factorization]:
    """The divisors of ∏ p**e over factors, ascending, each with its factors."""
    out = [Factorization(1, ())]
    for p, e in factors:   # primes ascending, so each d.factors is too
        powers = [(p**k, ((p, k),)) for k in range(1, e + 1)]
        out += [Factorization(d * q, d.factors + pk)
                for d in out for q, pk in powers]
    return sorted(out)


def divisors(f: Factorization) -> list[Factorization]:
    """All divisors of f in increasing order, ∏(eᵢ+1) of them, each carrying
    its factors, held in one list.  Listed this way, the i-th from the end
    is f over the i-th."""
    return _divisor_list(f.factors)


def divisor_halves(f: Factorization) -> tuple[list[Factorization], ...]:
    """The divisors of f's smaller primes, taken until their count reaches
    the square root of d(f), and those of the rest, each with its factors.

    The two are coprime, each divisor of f is one product a·b of them, and
    each list ascends from 1 to its half's whole part of f.
    """
    factors, total = f.factors, divisor_count(f)
    count, split = 1, 0
    while count * count < total:
        count *= factors[split][1] + 1
        split += 1
    return _divisor_list(factors[:split]), _divisor_list(factors[split:])


def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The factors n carries, else those factorize finds."""
    return n.factors if isinstance(n, Factorization) else factorize(n).factors


def mobius(n: int) -> int:
    """μ(n): 0 unless n is squarefree, else (−1)^(number of prime factors).

    Read from the factors n carries, else from factorize(n); mu_sieve lists
    μ on all of 0..N at once.
    """
    fac = _prime_factors(n)
    return 0 if any(e > 1 for _, e in fac) else -1 if len(fac) % 2 else 1


def liouville(n: int) -> int:
    """λ(n) = (−1)^Ω(n) with Ω counting prime factors with multiplicity."""
    return -1 if sum(e for _, e in _prime_factors(n)) % 2 else 1


def euler_phi(n: int) -> int:
    """φ(n), the count of 1 ≤ k ≤ n coprime to n."""
    v = n
    for p, _ in _prime_factors(n):
        v = v // p * (p - 1)
    return v


def divisor_count(n: int) -> int:
    """d(n) = ∏(eᵢ+1) over the prime factorization."""
    return math.prod(e + 1 for _, e in _prime_factors(n))


def mangoldt_base(n: int) -> int:
    """e^Λ(n): the prime p when n = p^k (k ≥ 1), else 1."""
    fac = _prime_factors(n)
    return fac[0][0] if len(fac) == 1 else 1


# --- the μ sieve ---

_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")   # μ as bytes: 1 ↔ −1


def mu_sieve(n: int) -> Sequence[int]:
    """μ(0..n) in a fresh signed-byte view: μ(k) at index k, and μ(0) = 0.

    Nothing here keeps it, so it is freed when its caller drops it.
    """
    # primes by Eratosthenes, zeroing μ on the multiples of each p² on the
    # way; then μ is negated on the multiples of each prime in one translate
    prime = bytearray([1]) * (n + 1)
    prime[:2] = b"\0\0"
    mu = bytearray([1]) * (n + 1)
    mu[0] = 0
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
            mu[p * p::p * p] = bytes(len(range(p * p, n + 1, p * p)))
    for p in compress(range(n + 1), prime):
        mu[p::p] = mu[p::p].translate(_NEGATE)   # 0 stays 0
    return memoryview(mu).cast("b")


def mertens(x: float) -> int:
    """M(x) = Σ_{n≤⌊x⌋} μ(n), summed from a sieve of its own; 0 for x < 1."""
    n = math.floor(x)
    if n < 1:
        return 0
    return sum(mu_sieve(n))


class ArithFn:
    """A named, deterministic, exact arithmetic function.

    Frozen, and shown by (name, fn).  Every sum of its values starts at 0.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[int], object]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fn", fn)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"cannot delete field {attr!r}")

    def __call__(self, n: int) -> object:
        return self.fn(n)

    def __repr__(self) -> str:
        return f"ArithFn(name={self.name!r}, fn={self.fn!r})"


MU = ArithFn("mu", mobius)
LIOUVILLE = ArithFn("lambda", liouville)
PHI = ArithFn("phi", euler_phi)
ONE = ArithFn("one", lambda n: 1)
DIVISOR_COUNT = ArithFn("divisor_count", divisor_count)
IDENTITY = ArithFn("id", lambda n: n)
# Λ as its base e^Λ(n): a sum Σ Λ(a)·k is the log of ∏ base(a)^k, so its
# values are multiplied, never added
MANGOLDT = ArithFn("mangoldt", mangoldt_base)
# f(a·b) = f(a)·f(b) for coprime a, b: these objects, not look-alikes
MULTIPLICATIVE = (MU, LIOUVILLE, PHI, ONE, DIVISOR_COUNT, IDENTITY)
NAMED_FUNCTIONS: dict[str, ArithFn] = {f.name: f for f in MULTIPLICATIVE}


def refuse_mangoldt(*fns: ArithFn) -> None:
    """Raise if Λ is among fns: a sum of its bases e^Λ is no log."""
    if MANGOLDT in fns:
        raise ValueError("Λ is carried as its base e^Λ; its sums are no logs")


def dirichlet_convolve(f: ArithFn, g: ArithFn, n: int) -> object:
    """(f*g)(n) = Σ_{d|n} f(d)·g(n/d), exactly.

    A Factorization is not factored again: its divisors carry factors taken
    from its own, and n/d is read from the other end of their list.  Λ is
    refused, as a sum of its bases e^Λ is no log.
    """
    refuse_mangoldt(f, g)
    divs = divisors(n if isinstance(n, Factorization) else factorize(n))
    return sum(map(mul, map(f.fn, divs), map(g.fn, reversed(divs))))


def zeta_partial(s: float, n_terms: int) -> tuple[float, float]:
    """(Σ_{n≤N} n^−s, tail bound N^(1−s)/(s−1)) for s > 1.

    The bound is the integral estimate Σ_{n>N} n^−s ≤ ∫_N^∞ t^−s dt.
    Not memoized: the series checks sum it once per (s, N).
    """
    if not s > 1:   # NaN fails this too
        raise ValueError("zeta_partial requires s > 1")
    if n_terms < 1:
        raise ValueError("zeta_partial requires N >= 1")
    value = math.fsum(map(pow, range(1, n_terms + 1), repeat(-s)))
    tail = n_terms ** (1.0 - s) / (s - 1.0)
    return value, tail
