"""Executable verification of the toolkit's identities, closed forms,
constants and asymptotic trends.

Every check returns a VerificationReport.  Exact identities demand residual
exactly 0; floating comparisons carry explicitly derived tolerances; the
asymptotic statements are reported with bracketing windows, never asserted
as limits.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator, Sequence
from contextlib import suppress
from itertools import chain, compress, product, repeat, starmap
from operator import add, and_, ge, itemgetter, mod, mul, rshift, sub, truediv

from .contraction import (
    LAMBDA_ALPHA,
    MU_ALPHA,
    MU_ALPHA2,
    MU_ALPHA3,
    MU_ITERATES,
    Dilation,
    _rank_halves,
    _tag_halves,
    _tag_sum,
    alpha_contract,
    summatory_T,
)
from .fib import (
    GOLDEN_RATIO,
    LCM_GROWTH_CONSTANT,
    factor_fib,
    fib,
    fib_factorization,
    lcm_fib,
    primitive_primes,
    require_factorable,
)
from .numtheory import (
    ArithFn,
    BudgetExceededError,
    LIOUVILLE,
    MANGOLDT,
    MU,
    MULTIPLICATIVE,
    ONE,
    PHI,
    IDENTITY,
    dirichlet_convolve,
    divisor_halves,
    euler_phi,
    factorize,
    mu_sieve,
    refuse_mangoldt,
    zeta_partial,
)


class VerificationReport:
    """Structured pass/fail record for one identity check."""

    def __init__(self, check_name: str, parameters: str, passed: bool,
                 residual: int | float,
                 details: list[dict] | None = None) -> None:
        self.check_name = check_name
        self.parameters = parameters
        self.passed = passed
        self.residual = residual
        self.details = [] if details is None else details


# A seeded value ((n·K + o) >> 7) mod 7 reads n·K + o only mod 7·2⁷: with
# n·K + o = 896a + b, ⌊(n·K + o)/2⁷⌋ = 7a + ⌊b/2⁷⌋, which is ⌊b/2⁷⌋ mod 7.
SMALL_INTEGER_PERIOD = 7 << 7


def small_integer_table(seed: int) -> tuple[int, ...]:
    """small_integer_fn(seed) at n = 0..SMALL_INTEGER_PERIOD − 1."""
    offset, step = seed * 40503, 2654435761
    seeded = range(offset, offset + SMALL_INTEGER_PERIOD * step, step)
    return tuple(map(sub, map(mod, map(rshift, seeded, repeat(7)), repeat(7)),
                     repeat(3)))


def small_integer_fn(seed: int) -> ArithFn:
    """A deterministic pseudo-random arithmetic function with values in −3..3,
    ((n·2654435761 + 40503·seed) >> 7) mod 7 − 3.

    It has period SMALL_INTEGER_PERIOD = 7·2⁷ = 896 in n, as the shift by 7
    and the mod 7 read n·2654435761 + 40503·seed only mod 7·2⁷, so f(n) is
    the entry n mod 896 of small_integer_table(seed).
    """
    table = small_integer_table(seed)
    return ArithFn(f"seed{seed}",
                   lambda n: table[n % SMALL_INTEGER_PERIOD])


# --- the double-counting identity ---


# The divisors of F(1..n_max), each held once, with readers over them.
# ``values`` holds each n with rank(n) ≤ n_max once, a plain int placed at
# its id.  F(k)'s listing is the products a·b, low by high, of its pair of
# ascending ``halves``, so read backwards it is F(k)/d for each d read
# forwards; ``fresh`` has one byte per slot of the listings, end to end, 1
# where a value is listed first.  ``readers`` holds three (left, right)
# pairs of itemgetters over ids, each pair picking one side's terms, slot
# for slot, from a list of f's values and one of g's on ``values``: the
# direct pairs (d, F(k)/d) for each d | F(k), k ≤ n_max; the rank-weighted
# pairs (n, F(k)/n) for each n and each multiple k of rank(n) up to n_max;
# and these swapped.  So each pair (k, d | F(k)) is one slot of every side.
DivisorTables = namedtuple("DivisorTables", "n_max values halves fresh readers")


def _gather(ids: list[int]) -> Callable:
    """itemgetter over ids; a lone id reads a slice, not the bare item."""
    return (itemgetter(*ids) if len(ids) > 1
            else itemgetter(slice(ids[0], ids[0] + 1)))


def divisor_tables(x: float) -> DivisorTables:
    """List the divisors of F(1..⌊x⌋) once and index them for theorem 1.

    x < 1 is refused, and an F(⌊x⌋) beyond the budget's scale fails, before
    anything is factored.  The rank of n is the first index whose Fibonacci
    number n divides, and no listing is held, only its ids.  F(k)/n is
    found by exact division, and a listed n that leaves a remainder in F(k)
    for a multiple k of its rank raises RuntimeError.  Each id is one int
    object wherever it is held.
    """
    if x < 1:
        raise ValueError(f"theorem1 expects x >= 1, got {x}")
    require_factorable(n_max := math.floor(x))
    tops = list(map(fib_factorization, range(1, n_max + 1)))
    halves = list(map(divisor_halves, tops))
    ids: dict[int, int] = {}
    ordered, mirrored, ranks, fresh = [], [], [], bytearray()
    for k, (low, high) in enumerate(halves, 1):
        run = [ids.setdefault(d, len(ids))   # F(k)'s listing, streamed
               for d in starmap(mul, product(low, high))]
        fresh += bytes(map(ge, run, repeat(len(ranks))))   # the n of rank k
        ordered += run
        mirrored += reversed(run)   # the id of F(k)/d at d's slot
        ranks += repeat(k, len(ids) - len(ranks))   # by id
    direct = _gather(ordered), _gather(mirrored)
    del ordered, mirrored, run   # held as the readers' tuples from here
    owners, slots = [], []
    for (n, n_id), m in zip(ids.items(), ranks):
        for k in range(m, n_max + 1, m):
            q, r = divmod(tops[k - 1], n)
            if r:
                raise RuntimeError(f"{n} has rank {m} but does not "
                                   f"divide F({k})")
            owners.append(n_id)
            slots.append(ids[q])
    weighted = _gather(owners), _gather(slots)
    return DivisorTables(n_max, list(ids), halves, fresh,
                         (direct, weighted, weighted[::-1]))


def _values_on(f: ArithFn, tables: DivisorTables) -> list:
    """f on the tables' values: a MULTIPLICATIVE f as f(a)·f(b) over the
    halves, Λ's base off their tops' prime powers, else f on the ints."""
    if f in MULTIPLICATIVE:   # by identity: ArithFn has no __eq__
        products = (starmap(mul, product(map(f.fn, low), map(f.fn, high)))
                    for low, high in tables.halves)
        return list(compress(chain.from_iterable(products), tables.fresh))
    if f is MANGOLDT:
        bases = {p**j: p for pair in tables.halves for half in pair
                 for p, e in half[-1].factors for j in range(1, e + 1)}
        return list(map(bases.get, tables.values, repeat(1)))
    return list(map(f.fn, tables.values))


def check_theorem1(f: ArithFn, g: ArithFn, x: float,
                   tables: DivisorTables | None = None) -> VerificationReport:
    """Verify the three-way double-counting identity at real x ≥ 1.

    Direct side: Σ_{n≤x} (f*g)(F(n)) by literal divisor sums.  The other two
    sides enumerate all n with rank(n) ≤ x (the divisor union of the first
    ⌊x⌋ Fibonacci numbers) and sum f(n)·g(F(k)/n), then f(F(k)/n)·g(n),
    over the multiples k of rank(n) up to x.  Each side is one pass over
    the slots its readers gather from the divisor tables of F(1..⌊x⌋),
    built here unless a suite passes its own, with f and g read on them by
    _values_on.  Exact equality is required; residual is an exact integer
    difference.  For f = Λ, carried as its base e^Λ, each side is held as
    the integer ∏ base(a)^g(b), whose log is Σ Λ(a)·g(b), and g must then
    be nonnegative and not Λ.  Building the tables refuses x < 1 and an x
    past the index cap.
    """
    if g is MANGOLDT:
        raise ValueError("Λ is carried as its base e^Λ; check it as f")
    if tables is None:
        tables = divisor_tables(x)
    elif tables.n_max != math.floor(x):
        raise ValueError(f"the tables list F(1..{tables.n_max}), "
                         f"not F(1..{math.floor(x)})")
    fv, gv = (_values_on(h, tables) for h in (f, g))
    if f is MANGOLDT and min(gv) < 0:
        raise ValueError(f"Λ's sides are logs of integers; {g.name} "
                         f"takes a negative value")
    return _theorem1_report(f, g, x, [_side(f, a(fv), b(gv))
                                      for a, b in tables.readers])


def _side(f: ArithFn, fs: Sequence, gs: Sequence) -> int:
    """Σ f(a)·g(b) over terms fs, gs; for Λ, as its base, ∏ base(a)^g(b)."""
    return (math.prod(map(pow, fs, gs)) if f is MANGOLDT
            else sum(map(mul, fs, gs)))


def _residual(sides: Sequence[int]) -> int:
    """The largest gap between the direct side, first, and another side."""
    return max(abs(sides[0] - side) for side in sides)


def _theorem1_report(f: ArithFn, g: ArithFn, x: float, sides: list[int]
                     ) -> VerificationReport:
    """Theorem 1's report on its sides (direct, rank-weighted, swapped)."""
    residual = _residual(sides)
    details = [{"side": side, "value": value} for side, value
               in zip(("direct", "rank-weighted", "swapped"), sides)]
    return VerificationReport("theorem1", f"f={f.name}, g={g.name}, x={x}",
                              residual == 0, residual, details)


def check_corollary_completely_mult(f: ArithFn, g: ArithFn, n_max: int
                                    ) -> VerificationReport:
    """Verify (f*g)(F(n)) = g(F(n)) · Σ_{k|n} (f/g)-contraction(k) for n ≤ N.

    f must be MULTIPLICATIVE and g completely multiplicative, nonzero up to
    F(N), so g(x)/g(y) = g(x/y) for y | x: C(k) = g(F(k))·(f/g)_α(k) is the int
    _tag_sum of a ↦ f(a)·g(T)/g(a) on F(k)'s halves, T a half's top, and the
    right side Σ_{k|n} g(F(n))/g(F(k))·C(k).  With g = 1 this is precisely
    (1*f)(F(n)) = (1*f_α)(n).  N < 1, Λ and any other f are refused, and an
    F(N) past the budget's scale fails at once; a g(x)/g(y) that is not an
    int shows g is not completely multiplicative, and raises ValueError.
    """
    if n_max < 1:
        raise ValueError(f"corollary-mult expects N >= 1, got {n_max}")
    refuse_mangoldt(f, g)
    if f not in MULTIPLICATIVE:   # by identity: ArithFn has no __eq__
        raise ValueError(f"corollary-mult expects a MULTIPLICATIVE f, got {f.name}")
    require_factorable(n_max)

    def over_g(top: int, a: int) -> int:   # g(t)/g(a) for a | t, top = g(t)
        if (ga := g(a)) == 0:
            raise ZeroDivisionError(
                f"{g.name}({a}) = 0; the quotient contraction is undefined")
        quotient, remainder = divmod(top, ga)
        if remainder:
            raise ValueError(f"{g.name}({a}) = {ga} does not divide {top}; "
                             f"{g.name} is not completely multiplicative")
        return quotient

    contracted = [_tag_sum(h, *(
        lambda a, top=g(half[-1][1]): f(a) * over_g(top, a) for half in h))
        for h in map(_rank_halves, range(1, n_max + 1))]
    details, worst = [], 0
    for n, an in enumerate(map(fib_factorization, range(1, n_max + 1)), 1):
        lhs = dirichlet_convolve(f, g, an)
        rhs = sum(over_g(g(an), fib_factorization(k)) * contracted[k - 1]
                  for k in range(1, n + 1) if n % k == 0)
        worst = max(worst, abs(lhs - rhs))
        details.append({"n": n, "lhs": str(lhs), "rhs": str(rhs),
                        "equal": lhs == rhs})
    return VerificationReport("corollary-mult", f"f={f.name}, g={g.name}, N={n_max}",
                              worst == 0, float(worst), details)


# --- the exact log-product closed form and its tail constant ---


def logprod_walk(x: float) -> Iterator[tuple[int, float, float]]:
    """(∏_{n≤k} F(n), the closed form of its log, |difference of logs|) for
    k = 1..⌊x⌋, from one running product; the closed form is (log r / 2)·k²
    + (log(r/5) / 2)·k + Σ_{n≤k} log(1 − (−1)ⁿ/r²ⁿ), r the golden ratio."""
    if x < 1:
        raise ValueError(f"logprod expects x >= 1, got {x}")
    if x >= LOGPROD_X_MAX + 1:   # at the first read, whatever the budget
        raise BudgetExceededError(f"logprod is blind past x={LOGPROD_X_MAX}")
    r = GOLDEN_RATIO
    prod = 1
    a, b = 1, 1
    terms = []   # constant_c(n)'s terms
    for n in range(1, math.floor(x) + 1):
        prod *= a
        a, b = b, a + b
        terms.append(_tail_term(n))
        rhs = (math.log(r) / 2 * n * n + math.log(r / 5) / 2 * n
               + math.fsum(terms))
        yield prod, rhs, abs(math.log(prod) - rhs)


def constant_c(n_terms: int) -> float:
    """Partial sum Σ_{n≤N} log(1 − (−1)ⁿ/r²ⁿ); converges geometrically."""
    if n_terms < 1:
        raise ValueError("constant_c expects N >= 1")
    return math.fsum(map(_tail_term, range(1, n_terms + 1)))


def _tail_term(n: int) -> float:
    return math.log1p(-((-1) ** n) * GOLDEN_RATIO ** (-2 * n))


# --- asymptotics: reported with ratios, not asserted as limits ---


def growth_sample(x: int, exact: int) -> dict:
    """The row (x, exact, predicted, ratio) of the log of the integer exact
    against the quadratic growth LCM_GROWTH_CONSTANT·x²."""
    predicted = LCM_GROWTH_CONSTANT * x * x
    log = math.log(exact)
    return {"x": x, "exact": log, "predicted": predicted,
            "ratio": log / predicted if predicted > 0 else 0.0}


def asymptotic_mangoldt_report(x_values: Sequence[int]) -> list[dict]:
    """log lcm(F(1)..F(x)) against its predicted quadratic growth."""
    return [growth_sample(x, lcm_fib(x) if x >= 1 else 1) for x in x_values]


def primitive_prime_totals(x: int) -> Iterator[tuple[int, int]]:
    """(π_α(n), ∏_{rank(p)≤n} p^(e_p)) for n = 1..x, from one walk.

    Each prime p is counted at its rank n, with e_p its exponent in F(n),
    which is its entry exponent since F(n) is the first Fibonacci number p
    divides.  Lazy: F(n) is factored when the n-th pair is read, so a reader
    that meets BudgetExceededError at n has read every pair before it.  x < 1
    raises ValueError at the first read.
    """
    if x < 1:
        raise ValueError(f"primitive-prime totals expect x >= 1, got {x}")
    count, product = 0, 1
    for n in range(1, x + 1):
        primes = primitive_primes(n)
        count += len(primes)
        product *= math.prod(p**e for p, e in primes)
        yield count, product


def primitive_totals_at(x_values: Sequence[int]
                        ) -> Iterator[tuple[int, int, int]]:
    """(x, π_α(x), ∏_{rank(p)≤x} p^(e_p)) for each distinct x of x_values,
    ascending, read from one primitive_prime_totals walk to the largest.

    Every x is checked before anything is factored: one below 1 raises
    ValueError at the first read.
    """
    wanted = set(x_values)
    if wanted and min(wanted) < 1:
        raise ValueError(f"primitive-prime totals expect x >= 1, "
                         f"got {min(wanted)}")
    walk = primitive_prime_totals(max(wanted, default=1))
    for x, (count, product) in enumerate(walk, 1):
        if x in wanted:
            yield x, count, product


PRIMITIVE_COUNT_BOUND = LCM_GROWTH_CONSTANT / 2  # 3·log r / (2π²)


def pi_alpha_row(x: int, count: int) -> dict:
    """The trend row (x, count, count·log x / x², limsup bound) of π_α(x)."""
    scaled = count * math.log(x) / (x * x) if x > 1 else 0.0
    return {"x": x, "count": count, "scaled": scaled,
            "bound": PRIMITIVE_COUNT_BOUND}


def pi_alpha_bound_report(x_values: Sequence[int]) -> list[dict]:
    """Trend rows of π_α at each x, from one walk to the largest.

    The bound is asymptotic, so rows are reported alongside it and never
    asserted against it.
    """
    counts = {x: count for x, count, _ in primitive_totals_at(x_values)}
    return [pi_alpha_row(x, counts[x]) for x in x_values]


# --- the totient representation of Fibonacci numbers ---


def _phi_rank_sums(x: float) -> list[int]:
    """[Σ_{rank(n)≤k} φ(n)·⌊k/rank(n)⌋ for k = 0..⌊x⌋] from φ_α.

    φ summed per rank m is φ_α(m); each k then weights those ⌊x⌋ totals.
    x < 1 is refused, and an F(⌊x⌋) past the index cap before any factoring.
    """
    if x < 1:
        raise ValueError(f"phi-identity expects x >= 1, got {x}")
    require_factorable(n := math.floor(x))
    by_rank = [0, *(alpha_contract(PHI, m) for m in range(1, n + 1))]
    return [sum(by_rank[m] * (k // m) for m in range(1, k + 1))
            for k in range(len(by_rank))]


def phi_recursive_fib(x_max: int) -> list[int]:
    """Regenerate F(1)..F(x_max+2) from the totient recursion alone.

    F(1) = F(2) = 1 (x = 0's empty sum); each x ≥ 1 factors F(x) by
    factor_fib through the recursion's own earlier factorizations, takes
    φ_α(x) as the _tag_sum of φ on its halves tagged against its own F(x/q),
    and appends 1 + Σ_{m≤x} φ_α(m)·⌊x/m⌋.  fib, the memo and rank are unread.
    """
    if x_max < 0:
        raise ValueError("phi_recursive_fib expects x_max >= 0")
    seq, factored, phi_alpha = [1, 1], [None], []
    for x in range(1, x_max + 1):
        factored.append(factor_fib(x, seq[x - 1], factored.__getitem__))
        halves = _tag_halves(factored[x], [
            seq[x // q - 1] for q, _ in factorize(x).factors])
        phi_alpha.append(_tag_sum(halves, euler_phi, euler_phi))
        seq.append(1 + sum(p * (x // m) for m, p in enumerate(phi_alpha, 1)))
    return seq


# --- truncated Dirichlet series against the finite polynomial sides ---

# Each stated Euler product divided by ∏_p (1−p^−s) = 1/ζ(s) is a finite
# polynomial in p^−s: e.g. (1−4^−s)·∏_{p>2}(1−p^−s) equals
# (1−2^−s)(1+2^−s) / ((1−2^−s)·ζ(s)) = (1+2^−s)/ζ(s), so ζ(s)·D(s) for the
# once-contracted μ must approach 1 + 2^−s, its form's Σ c_j·j^−s.

EULER_SERIES: dict[str, Dilation] = {
    "lambda": LAMBDA_ALPHA, "mu": MU_ALPHA, "mu2": MU_ALPHA2, "mu3": MU_ALPHA3,
}


def series_table(s: float, n_terms: int) -> tuple:
    """(ζ_N(s), its tail bound, n**s for n ≤ N short of a float overflow)
    for the checks at (s, N)."""
    from array import array   # here, as loading it adds 0.2 MB of peak RSS
    zeta_n, tail = zeta_partial(s, n_terms)
    powers = array("d")
    with suppress(OverflowError):   # extend keeps the powers taken before
        powers.extend(map(pow, range(1, n_terms + 1), repeat(s)))
    return zeta_n, tail, powers


def euler_product_check(which: str, s: float, n_terms: int,
                        table: tuple | None = None) -> VerificationReport:
    """Check ζ_N(s)·Σ_{n≤N} f(n)/n^s against the finite polynomial side.

    Tolerance is derived, never tuned: |poly|·tail(N) for the ζ truncation
    plus ζ(s)·3·tail(N) for the series truncation (|f(n)| ≤ 3, as at most
    three of a form's μ(n/j) are nonzero at any n), floored at 1e−6.  The
    table is series_table(s, N) with μ(0..N) appended; without one, the
    check runs through euler_product_checks.
    """
    if which not in EULER_SERIES:
        raise ValueError(f"unknown series {which!r}; pick from {sorted(EULER_SERIES)}")
    if table is None:
        return euler_product_checks([which], [s], n_terms)[0]
    zeta_n, tail, powers, mu = table
    form = EULER_SERIES[which]
    values = form.values(mu)
    if any(values[len(powers):]):
        raise ValueError(f"n**s overflows a float at s={s}")
    # f(n)/n^s as the same floats as evaluating it term by term; a term
    # with f(n) = 0 adds 0.0, which changes nothing as fsum is exact
    series = math.fsum(map(truediv, values, powers))
    poly = form.polynomial(s)
    tolerance = max(abs(poly) * tail + (zeta_n + tail) * 3 * tail, 1e-6)
    residual = abs(zeta_n * series - poly)
    details = [{"zeta_N_times_D_N": zeta_n * series, "polynomial": poly,
                "tolerance": tolerance}]
    return VerificationReport(
        "euler-product", f"which={which}, s={s}, N={n_terms}",
        residual <= tolerance, residual, details,
    )


def euler_product_checks(names: Sequence[str], s_values: Sequence[float],
                         n_terms: int) -> list[VerificationReport]:
    """euler_product_check of each name at each s, name by name, on one μ
    sieve to N, built once N < 12, each s not > 1 and s = inf are refused,
    and N past SERIES_N_MAX raises the budget error; each s's series_table
    is built after it and freed before the next s's."""
    if n_terms < 12:
        raise ValueError("need N >= 12 to see all polynomial terms")
    if not all(s > 1 for s in s_values):   # NaN fails this too
        raise ValueError("zeta_partial requires s > 1")
    if math.inf in s_values:   # every n**s would be inf, each series f(1)
        raise ValueError("n**s overflows a float at s=inf")
    if n_terms > SERIES_N_MAX:   # before a byte of the tables is allocated
        raise BudgetExceededError(f"the series checks stop at N={SERIES_N_MAX}")
    mu = mu_sieve(n_terms)

    def checks_at(s: float) -> list[VerificationReport]:
        table = (*series_table(s, n_terms), mu)
        return [euler_product_check(name, s, n_terms, table) for name in names]

    return [report for row in zip(*map(checks_at, s_values)) for report in row]


# --- step tables of the floor-weighted summatory function ---


def check_T_tables(depth: int, x: float) -> VerificationReport:
    """The floor-weighted summatory function of the (depth−1)-contracted μ
    is the step function min(⌊x⌋, depth+1)."""
    if depth not in (1, 2, 3):
        raise ValueError("depth must be 1, 2 or 3")
    value = summatory_T((MU, *MU_ITERATES)[depth - 1], x)
    expected = min(math.floor(x), depth + 1)
    details = [{"value": value, "expected": expected}]
    return VerificationReport("t-tables", f"depth={depth}, x={x}",
                              value == expected, abs(value - expected), details)


# --- suite runners with default desk-scale parameters ---

STATED_TAIL_CONSTANT = 0.2043618834  # the published decimal for the tail sum
LOGPROD_TOLERANCE = 1e-8
# logprod's float log of ∏_{n≤X} F(n) is about (log r / 2)·X² = 0.2406·X²; its
# ulp passes 1e-9, a tenth of the tolerance, once it reaches 2²³
LOGPROD_X_MAX = math.isqrt(int(2**23 / (math.log(GOLDEN_RATIO) / 2)))
# the series checks hold about 10 bytes per term at their peak: μ(0..N) as
# signed bytes (N), the n**s table of doubles (8N) and one form's values (N);
# N = 10⁷, the largest N measured, took 7.6 s and peaked at 113.6 MB on a
# 2-vCPU VM, so past it a run is refused
SERIES_N_MAX = 10**7
THEOREM1_RANDOM_PAIRS = 20
RATIO_WINDOW_LCM = (0.9, 1.1)
RATIO_WINDOW_EP = (0.8, 1.2)


def _seeded_sides(tables: DivisorTables, seeds: Sequence[int]
                  ) -> list[tuple[int, int, int]]:
    """Theorem 1's sides (direct, rank-weighted, swapped) for each seed's
    f = small_integer_fn(seed) and g = small_integer_fn(1000 + seed), from
    one walk of each side's slots.

    Both read n mod SMALL_INTEGER_PERIOD and lie in −3..3, so the int for a
    residue s holds each seed's g(s) + 3 as a W-bit lane, and 1 in a top
    lane.  Summed over the slots whose a has residue r, the top lane counts
    them, and a seed's side is Σ_r f(r)·(its lane − 3·count_r).  A lane
    gains at most 6 a slot, so W = (6·slots).bit_length() leaves no carry.
    Only the direct side's lanes are read; each other side is direct's less
    the lane differences at the residues where its sum differs from direct's.
    """
    period = SMALL_INTEGER_PERIOD
    residues = list(map(mod, tables.values, repeat(period)))
    width = (6 * len(tables.fresh)).bit_length()   # fresh: a byte per slot
    shifts = range(0, width * len(seeds), width)
    mask, top = (1 << width) - 1, shifts.stop
    lanes = [sum(3 << shift for shift in shifts) + (1 << top)] * period
    for seed, shift in zip(seeds, shifts):   # each lane's 3 added up front
        lanes = list(map(add, lanes, map(
            mul, small_integer_table(1000 + seed), repeat(1 << shift))))
    lanes = list(map(lanes.__getitem__, residues))   # by id
    packs = [[0] * period for _ in tables.readers]
    for packed, (a, b) in zip(packs, tables.readers):
        for r, lane in zip(a(residues), b(lanes)):
            packed[r] += lane

    def read(packed: list, fs: list) -> list[int]:   # f at packed's residues
        thrice = [3 * (p >> top) for p in packed]
        return [sum(map(mul, f, map(sub, map(and_, map(
            rshift, packed, repeat(shift)), repeat(mask)), thrice)))
            for f, shift in zip(fs, shifts)]

    (direct, *others), fs = packs, list(map(small_integer_table, seeds))
    sides = [read(direct, fs)]
    for packed in others:
        at = list(compress(range(period), map(sub, packed, direct)))
        fa = [[f[r] for r in at] for f in fs]
        lost = map(sub, read([direct[r] for r in at], fa),
                   read([packed[r] for r in at], fa))
        sides.append(list(map(sub, sides[0], lost)))
    return list(zip(*sides))


def _suite_theorem1(*, x: float = 25.0) -> list[VerificationReport]:
    tables = divisor_tables(x)
    # g = 1: a side is Σ f(a)·m(a), m(a) how often a stands left on its
    # slots (for Λ ∏ base(a)^m(a) over prime powers a), direct's at equal m
    ids = list(range(len(tables.values)))
    counts = [list(map(Counter(a(ids)).__getitem__, ids))
              for a, _ in tables.readers]
    reports = []
    for f in (MU, PHI, LIOUVILLE, MANGOLDT):
        fv, ms = _values_on(f, tables), counts
        if f is MANGOLDT:
            at = list(compress(ids, map(sub, fv, repeat(1))))
            fv, ms = [fv[i] for i in at], [[m[i] for i in at] for m in ms]
        sides = [_side(f, fv, ms[0])]
        sides += [sides[0] if m == ms[0] else _side(f, fv, m) for m in ms[1:]]
        reports.append(_theorem1_report(f, ONE, x, sides))
    seeds = range(THEOREM1_RANDOM_PAIRS)
    residuals = list(map(_residual, _seeded_sides(tables, seeds)))
    details = [{"seed": seed, "passed": residual == 0}
               for seed, residual in zip(seeds, residuals)]
    worst = max(residuals)
    reports.append(VerificationReport(
        "theorem1-random", f"pairs={THEOREM1_RANDOM_PAIRS}, x={x}",
        worst == 0, worst, details))
    return reports


def _suite_corollary(*, n: int = 20) -> list[VerificationReport]:
    return [check_corollary_completely_mult(f, g, n) for f, g in (
        (MU, ONE), (PHI, ONE), (LIOUVILLE, ONE), (MU, LIOUVILLE), (PHI, IDENTITY))]


def _suite_logprod(*, x: float = 40.0) -> list[VerificationReport]:
    details = []
    worst = 0.0
    for n, (_, _, residual) in enumerate(logprod_walk(x), 1):
        worst = max(worst, residual)
        details.append({"x": n, "residual": residual})
    return [VerificationReport("logprod", f"x<={math.floor(x)}",
                               worst <= LOGPROD_TOLERANCE, worst, details)]


def _suite_constant_c() -> list[VerificationReport]:
    sums = [constant_c(n) for n in range(1, 62)]
    value = sums[49]   # c_50
    residual = abs(value - STATED_TAIL_CONSTANT)
    r = GOLDEN_RATIO
    cauchy_ok = all(abs(sums[n] - sums[n - 1]) <= r ** (-2 * n)
                    for n in range(1, 61))
    details = [{"c_50": value, "stated": STATED_TAIL_CONSTANT,
                "cauchy_geometric": cauchy_ok}]
    return [VerificationReport("constant-c", "N=50 vs stated decimal",
                               residual <= 1e-9 and cauchy_ok, residual, details)]


def _suite_asymptotic_mangoldt() -> list[VerificationReport]:
    samples = asymptotic_mangoldt_report([5, 50, 200])
    lo, hi = RATIO_WINDOW_LCM
    at50, at200 = samples[1]["ratio"], samples[2]["ratio"]
    passed = lo <= at200 <= hi and abs(at200 - 1) < abs(at50 - 1)
    return [VerificationReport("asymptotic-mangoldt",
                               f"window {lo}..{hi} at x=200, improving from x=50",
                               passed, abs(at200 - 1), samples)]


def _suite_ep_sum(*, x: int = 60) -> list[VerificationReport]:
    # Σ entry_exponent(p)·log p over rank(p) ≤ x, held as ∏ p^(e_p)
    [(_, _, product)] = primitive_totals_at([x])
    sample = growth_sample(x, product)
    lo, hi = RATIO_WINDOW_EP
    return [VerificationReport("ep-sum", f"x={x}, window {lo}..{hi}",
                               lo <= sample["ratio"] <= hi,
                               abs(sample["ratio"] - 1), [sample])]


def _suite_pi_alpha_counts(*, x: int = 60) -> list[VerificationReport]:
    counts = [count for count, _ in primitive_prime_totals(x)]
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    anchors = all(counts[n - 1] == pi for n, pi in ((5, 3), (12, 8)) if n <= x)
    details = [{"pi_alpha_5": counts[4] if x >= 5 else None,
                "pi_alpha_12": counts[11] if x >= 12 else None,
                "monotone": monotone}]
    return [VerificationReport("pi-alpha", f"x<={x}", monotone and anchors,
                               0 if monotone and anchors else 1, details)]


def _suite_pi_alpha_bound() -> list[VerificationReport]:
    rows = pi_alpha_bound_report([12, 30, 60])
    return [VerificationReport("pi-alpha-bound",
                               "trend report, bound not asserted",
                               True, 0, rows)]


def _suite_phi_identity(*, x: float = 30.0) -> list[VerificationReport]:
    """Σ_{rank(n)≤k} φ(n)·⌊k/rank(n)⌋ = Σ_{n≤k} F(n) = F(k+2) − 1, k ≤ x."""
    worst = fib_sum = 0   # Σ F(n) is kept running
    details = []
    rank_sums = _phi_rank_sums(x)  # φ_α(1..⌊x⌋), no divisor listed
    for n in range(1, math.floor(x) + 1):
        fib_sum += fib(n)
        residual = max(abs(rank_sums[n] - fib_sum),
                       abs(fib_sum - (fib(n + 2) - 1)))
        worst = max(worst, residual)
        details.append({"x": n, "passed": residual == 0})
    return [VerificationReport("phi-identity", f"x<={math.floor(x)}",
                               worst == 0, worst, details)]


def _suite_phi_recursion(*, x: int = 25) -> list[VerificationReport]:
    seq = phi_recursive_fib(x)
    expected = [fib(i) for i in range(1, x + 3)]
    passed = seq == expected
    return [VerificationReport("phi-recursion", f"x_max={x}", passed,
                               0 if passed else 1,
                               [{"generated": len(seq), "match": passed}])]


def _suite_euler_product(*, s: float | None = None, n: int = 10_000,
                         which: str | None = None) -> list[VerificationReport]:
    s_values = [s] if s is not None else [2.0, 3.0]
    names = [which] if which is not None else sorted(EULER_SERIES)
    return euler_product_checks(names, s_values, n)


def _suite_t_tables() -> list[VerificationReport]:
    return [check_T_tables(depth, x)
            for depth in (1, 2, 3)
            for x in (1, 1.9, 2, 3, 4, 10, 25)]


# a check takes the `verify` flags it accepts as keyword-only parameters;
# the CLI reads them from __kwdefaults__, integral where the default is an int
SUITE: dict[str, Callable[..., list[VerificationReport]]] = {
    "theorem1": _suite_theorem1,
    "corollary-mult": _suite_corollary,
    "logprod": _suite_logprod,
    "constant-c": _suite_constant_c,
    "asymptotic-mangoldt": _suite_asymptotic_mangoldt,
    "ep-sum": _suite_ep_sum,
    "pi-alpha": _suite_pi_alpha_counts,
    "pi-alpha-bound": _suite_pi_alpha_bound,
    "phi-identity": _suite_phi_identity,
    "phi-recursion": _suite_phi_recursion,
    "euler-product": _suite_euler_product,
    "t-tables": _suite_t_tables,
}


def run_suite(name: str, **overrides) -> list[VerificationReport]:
    """Run one named check (or 'all'), overriding the flags it takes."""
    if name == "all":
        reports = []
        for check in SUITE.values():
            reports.extend(check())
        return reports
    if name not in SUITE:
        raise ValueError(f"unknown check {name!r}; pick from "
                         f"{sorted(SUITE) + ['all']}")
    return SUITE[name](**overrides)
