"""Executable verification of the toolkit's identities, closed forms,
constants and asymptotic trends.

Every check returns a VerificationReport.  Exact identities demand residual
exactly 0; floating comparisons carry explicitly derived tolerances; the
asymptotic statements are reported with bracketing windows, never asserted
as limits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import suppress
from itertools import repeat
from operator import itemgetter, mul, truediv
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .contraction import (
    LAMBDA_ALPHA,
    MU_ALPHA,
    MU_ALPHA2,
    MU_ALPHA3,
    MU_ITERATES,
    Dilation,
    contributors,
    divisor_union_ranks,
    summatory_T,
)
from .fib import (
    CONSTANTS,
    fib,
    fib_factorization,
    lcm_fib,
    primitive_primes,
    require_factorable,
)
from .numtheory import (
    ArithFn,
    BudgetExceededError,
    ExactLog,
    Factorization,
    LIOUVILLE,
    MANGOLDT,
    MU,
    ONE,
    PHI,
    IDENTITY,
    dirichlet_convolve,
    divisors,
    euler_phi,
    factorize,
    grow_mu_sieve,
    zeta_partial,
)


class VerificationReport:
    """Structured pass/fail record for one identity check."""

    def __init__(self, check_name: str, parameters: str, passed: bool,
                 residual: Union[int, float],
                 details: Optional[list[dict]] = None) -> None:
        self.check_name = check_name
        self.parameters = parameters
        self.passed = passed
        self.residual = residual
        self.details = [] if details is None else details


class AsymptoticSample(NamedTuple):
    """One exact-vs-predicted comparison point."""

    x: int
    exact_value: ExactLog
    predicted: float
    ratio: float

    def exact_as_float(self) -> float:
        return self.exact_value.log_value

    def row(self) -> dict:
        return {"x": self.x, "exact": self.exact_as_float(),
                "predicted": self.predicted, "ratio": self.ratio}


def small_integer_fn(seed: int, name: Optional[str] = None) -> ArithFn:
    """A deterministic pseudo-random arithmetic function with values in −3..3."""
    offset = seed * 40503

    def evaluate(n: int) -> int:
        return ((n * 2654435761 + offset) >> 7) % 7 - 3

    return ArithFn(name or f"seed{seed}", evaluate)


# --- the double-counting identity ---


class DivisorTables(NamedTuple):
    """The divisors of F(1..n_max), each held once, with readers over them.

    ``values`` holds each n with rank(n) ≤ n_max once, in the order that the
    divisors of F(1), then of F(2), and so on, first list them; n's position
    there is its id.  ``readers`` holds three (left, right) pairs of
    itemgetters over ids, each pair picking one side's terms, slot for slot,
    from a list of f's values and one of g's on ``values``: the direct pairs
    (d, F(k)/d) for each d | F(k), k ≤ n_max; the rank-weighted pairs
    (n, F(k)/n) for each n and each multiple k of rank(n) up to n_max; and
    these swapped.  So each pair (k, d | F(k)) is one slot of every side.
    """

    n_max: int
    values: list[Factorization]
    readers: tuple[tuple[Callable, Callable], ...]


def _gather(ids: list[int]) -> Callable:
    """itemgetter over ids; a lone id reads a slice, not the bare item."""
    return (itemgetter(*ids) if len(ids) > 1
            else itemgetter(slice(ids[0], ids[0] + 1)))


def divisor_tables(x: float) -> DivisorTables:
    """List the divisors of F(1..⌊x⌋) once and index them for theorem 1.

    x < 1 is refused, and an F(⌊x⌋) beyond the budget's scale fails, before
    anything is factored.  The rank of n is the first index whose Fibonacci
    number n divides; F(k)/n is found by bisection in F(k)'s ascending
    divisors, and a listed n missing from F(k) for a multiple k of that rank
    raises RuntimeError.  Each id is one int object wherever it is held.
    """
    if x < 1:
        raise ValueError(f"theorem1 expects x >= 1, got {x}")
    n_max = math.floor(x)
    require_factorable(n_max)
    ids: dict[int, int] = {}
    runs = []   # (F(k)'s first new id, the ids of its divisors ascending)
    for k in range(1, n_max + 1):
        runs.append((len(ids), [ids.setdefault(d, len(ids))
                                for d in divisors(fib_factorization(k))]))
    values = list(ids)
    del ids
    direct = _gather([i for _, run in runs for i in run])
    mirror = _gather([i for _, run in runs for i in reversed(run)])
    owners, slots = [], []
    for m, (first, run) in enumerate(runs, 1):
        for n_id in [i for i in run if i >= first]:   # rank(n) = m
            n = values[n_id]
            for k in range(m, n_max + 1, m):
                row = runs[k - 1][1]
                i = bisect_left(row, n, key=values.__getitem__)
                if i == len(row) or row[i] != n_id:
                    raise RuntimeError(f"{n} has rank {m} but does not "
                                       f"divide F({k})")
                owners.append(n_id)
                slots.append(row[~i])
    weighted = _gather(owners), _gather(slots)
    return DivisorTables(n_max, values,
                         ((direct, mirror), weighted, weighted[::-1]))


def check_theorem1(f: ArithFn, g: ArithFn, x: float,
                   tables: Optional[DivisorTables] = None) -> VerificationReport:
    """Verify the three-way double-counting identity at real x ≥ 1.

    Direct side: Σ_{n≤x} (f*g)(F(n)) by literal divisor sums.  The other two
    sides enumerate all n with rank(n) ≤ x (the divisor union of the first
    ⌊x⌋ Fibonacci numbers) and sum f(n)·g(F(k)/n), then f(F(k)/n)·g(n),
    over the multiples k of rank(n) up to x.  Each side is one pass over
    the slots its readers gather from the divisor tables of F(1..⌊x⌋),
    built here unless a suite passes its own, and f and g are evaluated
    once per distinct divisor.  Exact equality is required; residual is an
    exact integer difference, taken on the held integers when the values
    are ExactLogs.  Building the tables refuses x < 1 and fails at once
    when F(⌊x⌋) is beyond the budget's scale.
    """
    params = f"f={f.name}, g={g.name}, x={x}"
    if tables is None:
        tables = divisor_tables(x)
    elif tables.n_max != math.floor(x):
        raise ValueError(f"the tables list F(1..{tables.n_max}), "
                         f"not F(1..{math.floor(x)})")
    fv = list(map(f.fn, tables.values))
    gv = list(map(g.fn, tables.values))
    zero = f.zero * g.zero
    direct, weighted, swapped = [sum(map(mul, a(fv), b(gv)), zero)
                                 for a, b in tables.readers]
    sides = [v.integer_value if isinstance(v, ExactLog) else v
             for v in (direct, weighted, swapped)]
    residual = max(abs(sides[0] - sides[1]), abs(sides[0] - sides[2]))
    details = [{"side": "direct", "value": direct},
               {"side": "rank-weighted", "value": weighted},
               {"side": "swapped", "value": swapped}]
    return VerificationReport("theorem1", params, residual == 0, residual, details)


def check_corollary_completely_mult(f: ArithFn, g: ArithFn, n_max: int
                                    ) -> VerificationReport:
    """Verify (f*g)(F(n)) = g(F(n)) · Σ_{k|n} (f/g)-contraction(k) for n ≤ N.

    g must be completely multiplicative and nonzero up to F(N); the quotient
    contraction is evaluated by the divisor-sum definition in exact rationals.
    With g = 1 this is precisely the specialization (1*f)(F(n)) = (1*f_α)(n).
    N < 1 is refused, and an F(N) beyond the budget's scale fails at once.
    """
    if n_max < 1:
        raise ValueError(f"corollary-mult expects N >= 1, got {n_max}")
    require_factorable(n_max)
    # imported here, so that commands which never run this check do not load
    # fractions with its decimal and numbers modules
    from fractions import Fraction

    params = f"f={f.name}, g={g.name}, N={n_max}"
    details = []
    worst = Fraction(0)
    quotient_cache: dict[int, Fraction] = {}

    def quotient_contraction(k: int) -> Fraction:
        if k not in quotient_cache:
            total = Fraction(0)
            for m in contributors(k):
                gm = g(m)
                if gm == 0:
                    raise ZeroDivisionError(
                        f"{g.name}({m}) = 0; the quotient contraction is undefined"
                    )
                total += Fraction(f(m), gm)
            quotient_cache[k] = total
        return quotient_cache[k]

    for n in range(1, n_max + 1):
        an = fib_factorization(n)
        lhs = Fraction(dirichlet_convolve(f, g, an))
        rhs = Fraction(g(an)) * sum(
            (quotient_contraction(k) for k in range(1, n + 1) if n % k == 0),
            Fraction(0),
        )
        diff = abs(lhs - rhs)
        worst = max(worst, diff)
        details.append({"n": n, "lhs": str(lhs), "rhs": str(rhs),
                        "equal": lhs == rhs})
    return VerificationReport("corollary-mult", params,
                              worst == 0, float(worst), details)


# --- the exact log-product closed form and its tail constant ---


def logprod_walk(x: float) -> Iterator[tuple[ExactLog, float, float]]:
    """logprod_closed_form(n) for n = 1..⌊x⌋, from one running product."""
    if x < 1:
        raise ValueError(f"logprod expects x >= 1, got {x}")
    if x >= LOGPROD_X_MAX + 1:   # at the first read, whatever the budget
        raise BudgetExceededError(f"logprod is blind past x={LOGPROD_X_MAX}")
    r = CONSTANTS.golden_ratio
    prod = 1
    a, b = 1, 1
    terms = []   # constant_c(n)'s terms
    for n in range(1, math.floor(x) + 1):
        prod *= a
        a, b = b, a + b
        terms.append(_tail_term(n))
        lhs = ExactLog(prod)
        rhs = (math.log(r) / 2 * n * n + math.log(r / 5) / 2 * n
               + math.fsum(terms))
        yield lhs, rhs, abs(lhs.log_value - rhs)


def logprod_closed_form(x: float) -> tuple[ExactLog, float, float]:
    """Exact log of ∏_{n≤x} F(n) against its golden-ratio closed form.

    Left side: big-integer product, converted once.  Right side:
    (log r / 2)·⌊x⌋² + (log(r/5) / 2)·⌊x⌋ + Σ_{n≤x} log(1 − (−1)ⁿ/r²ⁿ)
    with r the golden ratio.  Returns (lhs, rhs, |difference|).
    """
    for row in logprod_walk(x):
        pass
    return row


def constant_c(n_terms: int) -> float:
    """Partial sum Σ_{n≤N} log(1 − (−1)ⁿ/r²ⁿ); converges geometrically."""
    if n_terms < 1:
        raise ValueError("constant_c expects N >= 1")
    return math.fsum(map(_tail_term, range(1, n_terms + 1)))


def _tail_term(n: int) -> float:
    return math.log1p(-((-1) ** n) * CONSTANTS.golden_ratio ** (-2 * n))


# --- asymptotics: reported with ratios, not asserted as limits ---


def growth_sample(x: int, exact: ExactLog) -> AsymptoticSample:
    """exact against the quadratic growth CONSTANTS.lcm_growth_constant·x²."""
    predicted = CONSTANTS.lcm_growth_constant * x * x
    ratio = exact.log_value / predicted if predicted > 0 else 0.0
    return AsymptoticSample(x, exact, predicted, ratio)


def asymptotic_mangoldt_report(x_values: Sequence[int]) -> list[AsymptoticSample]:
    """log lcm(F(1)..F(x)) against its predicted quadratic growth."""
    return [growth_sample(x, ExactLog(lcm_fib(x)) if x >= 1 else ExactLog(1))
            for x in x_values]


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


def ep_weighted_sum(x: int) -> ExactLog:
    """Σ entry_exponent(p)·log p over primes with rank(p) ≤ x, held exactly
    as the log of ∏ p^(e_p)."""
    [(_, _, product)] = primitive_totals_at([x])
    return ExactLog(product)


def pi_alpha(x: int) -> int:
    """Number of distinct primes whose rank of apparition is ≤ x."""
    [(_, count, _)] = primitive_totals_at([x])
    return count


PRIMITIVE_COUNT_BOUND = CONSTANTS.lcm_growth_constant / 2  # 3·log r / (2π²)


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


def check_phi_identity(x: float) -> VerificationReport:
    """Verify Σ_{rank(n)≤x} φ(n)·⌊x/rank(n)⌋ = Σ_{n≤x} F(n) = F(⌊x⌋+2) − 1."""
    return _phi_identity_report(x, _phi_rank_sums(x)[-1])


def _phi_rank_sums(x: float) -> list[int]:
    """[Σ_{rank(n)≤k} φ(n)·⌊k/rank(n)⌋ for k = 0..⌊x⌋] from one rank map.

    φ is summed per rank once; each k then weights those ⌊x⌋ totals.
    x < 1 is refused.
    """
    if x < 1:
        raise ValueError(f"phi-identity expects x >= 1, got {x}")
    # listed first: past the index cap it raises before x sizes by_rank
    ranks = divisor_union_ranks(x)
    by_rank = [0] * (math.floor(x) + 1)
    for n, m in ranks.items():
        by_rank[m] += euler_phi(n)
    return [sum(by_rank[m] * (k // m) for m in range(1, k + 1))
            for k in range(len(by_rank))]


def _phi_identity_report(x: float, rank_sum: int) -> VerificationReport:
    n_max = math.floor(x)
    fib_sum = sum(fib(n) for n in range(1, n_max + 1))
    closed = fib(n_max + 2) - 1
    residual = max(abs(rank_sum - fib_sum), abs(fib_sum - closed))
    details = [{"rank_sum": rank_sum, "fib_sum": fib_sum, "closed": closed}]
    return VerificationReport("phi-identity", f"x={x}", residual == 0,
                              residual, details)


def phi_recursive_fib(x_max: int) -> list[int]:
    """Regenerate F(1)..F(x_max+2) from the totient recursion alone.

    Seeds F(1) = 1; each step x ≥ 0 produces the (x+2)-nd term as one plus
    the floor-weighted totient sum over ranks computed from the terms
    generated so far (x = 0 is the empty-sum base case giving F(2) = 1).
    Nothing here calls fib() or rank().
    """
    if x_max < 0:
        raise ValueError("phi_recursive_fib expects x_max >= 0")
    seq = [1]
    ranks: dict[int, int] = {}
    for x in range(0, x_max + 1):
        if x >= 1:
            for d in divisors(factorize(seq[x - 1])):
                ranks.setdefault(d, x)
        seq.append(1 + sum(euler_phi(n) * (x // m) for n, m in ranks.items()))
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
    """(ζ_N(s), its tail bound, n**s for n ≤ N short of a float overflow) for
    the checks at (s, N).  N < 12, then s not > 1, is refused before the μ
    sieve is grown to N, and the sieve is grown before the powers are listed."""
    from array import array   # here, as loading it adds 0.2 MB of peak RSS
    if n_terms < 12:
        raise ValueError("need N >= 12 to see all polynomial terms")
    zeta_n, tail = zeta_partial(s, n_terms)
    grow_mu_sieve(n_terms)   # first, so that its transient arrays are gone
    powers = array("d")
    with suppress(OverflowError):   # extend keeps the powers taken before
        powers.extend(map(pow, range(1, n_terms + 1), repeat(s)))
    return zeta_n, tail, powers


def euler_product_check(which: str, s: float, n_terms: int,
                        table: Optional[tuple] = None) -> VerificationReport:
    """Check ζ_N(s)·Σ_{n≤N} f(n)/n^s against the finite polynomial side.

    Tolerance is derived, never tuned: |poly|·tail(N) for the ζ truncation
    plus ζ(s)·3·tail(N) for the series truncation (|f(n)| ≤ 3, as at most
    three of a form's μ(n/j) are nonzero at any n), floored at 1e−6.  ζ_N(s)
    and n**s come from series_table(s, N) unless a caller passes them.
    """
    if which not in EULER_SERIES:
        raise ValueError(f"unknown series {which!r}; pick from {sorted(EULER_SERIES)}")
    zeta_n, tail, powers = table or series_table(s, n_terms)
    form = EULER_SERIES[which]
    values = form.values(n_terms)
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


def euler_product_checks(names: Sequence[str], s: float, n_terms: int
                         ) -> list[VerificationReport]:
    """euler_product_check of each name at (s, N) on one series_table."""
    table = series_table(s, n_terms)
    return [euler_product_check(name, s, n_terms, table) for name in names]


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
LOGPROD_X_MAX = math.isqrt(int(2**23 / (math.log(CONSTANTS.golden_ratio) / 2)))
THEOREM1_RANDOM_PAIRS = 20
RATIO_WINDOW_LCM = (0.9, 1.1)
RATIO_WINDOW_EP = (0.8, 1.2)


def _suite_theorem1(x: float = 25.0) -> list[VerificationReport]:
    tables = divisor_tables(x)
    reports = [check_theorem1(f, ONE, x, tables)
               for f in (MU, PHI, LIOUVILLE, MANGOLDT)]
    details = []
    worst = 0
    for seed in range(THEOREM1_RANDOM_PAIRS):
        rep = check_theorem1(small_integer_fn(seed), small_integer_fn(1000 + seed),
                             x, tables)
        worst = max(worst, rep.residual)
        details.append({"seed": seed, "passed": rep.passed})
    reports.append(VerificationReport(
        "theorem1-random", f"pairs={THEOREM1_RANDOM_PAIRS}, x={x}",
        worst == 0, worst, details))
    return reports


def _suite_corollary(n_max: int = 20) -> list[VerificationReport]:
    pairs = [(MU, ONE), (PHI, ONE), (LIOUVILLE, ONE), (MU, LIOUVILLE),
             (PHI, IDENTITY)]
    return [check_corollary_completely_mult(f, g, n_max)
            for f, g in pairs]


def _suite_logprod(x: float = 40.0) -> list[VerificationReport]:
    details = []
    worst = 0.0
    for n, (_, _, residual) in enumerate(logprod_walk(x), 1):
        worst = max(worst, residual)
        details.append({"x": n, "residual": residual})
    return [VerificationReport("logprod", f"x<={math.floor(x)}",
                               worst <= LOGPROD_TOLERANCE, worst, details)]


def _suite_constant_c() -> list[VerificationReport]:
    value = constant_c(50)
    residual = abs(value - STATED_TAIL_CONSTANT)
    cauchy_ok = True
    r = CONSTANTS.golden_ratio
    for n in range(1, 61):
        if abs(constant_c(n + 1) - constant_c(n)) > r ** (-2 * n):
            cauchy_ok = False
    details = [{"c_50": value, "stated": STATED_TAIL_CONSTANT,
                "cauchy_geometric": cauchy_ok}]
    return [VerificationReport("constant-c", "N=50 vs stated decimal",
                               residual <= 1e-9 and cauchy_ok, residual, details)]


def _suite_asymptotic_mangoldt() -> list[VerificationReport]:
    samples = asymptotic_mangoldt_report([5, 50, 200])
    lo, hi = RATIO_WINDOW_LCM
    at50 = samples[1].ratio
    at200 = samples[2].ratio
    passed = lo <= at200 <= hi and abs(at200 - 1) < abs(at50 - 1)
    details = [s.row() for s in samples]
    return [VerificationReport("asymptotic-mangoldt",
                               f"window {lo}..{hi} at x=200, improving from x=50",
                               passed, abs(at200 - 1), details)]


def _suite_ep_sum(x: int = 60) -> list[VerificationReport]:
    sample = growth_sample(x, ep_weighted_sum(x))
    lo, hi = RATIO_WINDOW_EP
    details = [sample.row()]
    return [VerificationReport("ep-sum", f"x={x}, window {lo}..{hi}",
                               lo <= sample.ratio <= hi,
                               abs(sample.ratio - 1), details)]


def _suite_pi_alpha(x: int = 60) -> list[VerificationReport]:
    counts = [count for count, _ in primitive_prime_totals(x)]
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    anchors = counts[4] == 3 and counts[11] == 8 if x >= 12 else True
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


def _suite_phi_identity(x: float = 30.0) -> list[VerificationReport]:
    worst = 0
    details = []
    rank_sums = _phi_rank_sums(x)  # lists F(1..⌊x⌋)'s divisors once
    for n in range(1, math.floor(x) + 1):
        rep = _phi_identity_report(n, rank_sums[n])
        worst = max(worst, rep.residual)
        details.append({"x": n, "passed": rep.passed})
    return [VerificationReport("phi-identity", f"x<={math.floor(x)}",
                               worst == 0, worst, details)]


def _suite_phi_recursion(x_max: int = 25) -> list[VerificationReport]:
    seq = phi_recursive_fib(x_max)
    expected = [fib(i) for i in range(1, x_max + 3)]
    passed = seq == expected
    return [VerificationReport("phi-recursion", f"x_max={x_max}", passed,
                               0 if passed else 1,
                               [{"generated": len(seq), "match": passed}])]


def _suite_euler_product(s: Optional[float] = None, n_terms: int = 10_000,
                         which: Optional[str] = None) -> list[VerificationReport]:
    s_values = [s] if s is not None else [2.0, 3.0]
    names = [which] if which is not None else sorted(EULER_SERIES)
    by_s = [euler_product_checks(names, sv, n_terms) for sv in s_values]
    return [report for row in zip(*by_s) for report in row]


def _suite_t_tables() -> list[VerificationReport]:
    return [check_T_tables(depth, x)
            for depth in (1, 2, 3)
            for x in (1, 1.9, 2, 3, 4, 10, 25)]


SUITE: dict[str, Callable[..., list[VerificationReport]]] = {
    "theorem1": _suite_theorem1,
    "corollary-mult": _suite_corollary,
    "logprod": _suite_logprod,
    "constant-c": _suite_constant_c,
    "asymptotic-mangoldt": _suite_asymptotic_mangoldt,
    "ep-sum": _suite_ep_sum,
    "pi-alpha": _suite_pi_alpha,
    "pi-alpha-bound": _suite_pi_alpha_bound,
    "phi-identity": _suite_phi_identity,
    "phi-recursion": _suite_phi_recursion,
    "euler-product": _suite_euler_product,
    "t-tables": _suite_t_tables,
}


def run_suite(name: str, **overrides) -> list[VerificationReport]:
    """Run one named check (or 'all') with optional parameter overrides."""
    if name == "all":
        reports = []
        for check in SUITE.values():
            reports.extend(check())
        return reports
    if name not in SUITE:
        raise ValueError(f"unknown check {name!r}; pick from "
                         f"{sorted(SUITE) + ['all']}")
    return SUITE[name](**overrides)
