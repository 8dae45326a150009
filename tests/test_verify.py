import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from fibdirichlet import contraction
from fibdirichlet import fib as fib_module
from fibdirichlet import numtheory
from fibdirichlet import verify
from fibdirichlet.contraction import contributors, divisor_union_ranks
from fibdirichlet.fib import (
    GOLDEN_RATIO,
    LCM_GROWTH_CONSTANT,
    fib,
    fib_factorization,
    lcm_fib,
)
from fibdirichlet.numtheory import (
    ArithFn,
    BudgetExceededError,
    DIVISOR_COUNT,
    IDENTITY,
    LIOUVILLE,
    MANGOLDT,
    MU,
    ONE,
    PHI,
    dirichlet_convolve,
    factor_budget,
    mobius,
    zeta_partial,
)
from fibdirichlet.verify import (
    EULER_SERIES,
    PRIMITIVE_COUNT_BOUND,
    asymptotic_mangoldt_report,
    check_T_tables,
    check_corollary_completely_mult,
    check_theorem1,
    constant_c,
    euler_product_check,
    growth_sample,
    logprod_walk,
    phi_recursive_fib,
    pi_alpha_bound_report,
    primitive_prime_totals,
    primitive_totals_at,
    run_suite,
    small_integer_fn,
)


def test_theorem1_mu_one():
    report = check_theorem1(MU, ONE, 2)
    assert report.passed and report.residual == 0
    assert report.details[0]["value"] == 2  # both F(1), F(2) equal 1


def test_theorem1_phi_one():
    report = check_theorem1(PHI, ONE, 4)
    assert report.passed
    assert report.details[0]["value"] == 7  # 1 + 1 + 2 + 3


def test_theorem1_random_pairs():
    for seed in (0, 1, 2):
        report = check_theorem1(small_integer_fn(seed),
                                small_integer_fn(100 + seed), 20)
        assert report.passed and report.residual == 0


def test_theorem1_exact_mangoldt():
    report = check_theorem1(MANGOLDT, ONE, 10)
    assert report.passed and report.residual == 0
    prod = 1
    for n in range(1, 11):
        prod *= fib(n)
    # each side is carried as the integer whose log it is: ∏ F(n)
    assert [d["value"] for d in report.details] == [prod] * 3
    with pytest.raises(ValueError):
        check_theorem1(MANGOLDT, MU, 5)   # μ(2) = −1 is no exponent
    with pytest.raises(ValueError):
        check_theorem1(ONE, MANGOLDT, 5)


def test_theorem1_fails_fast_beyond_index_cap(monkeypatch):
    calls = []
    for module in (numtheory, fib_module, verify):
        original = module.factorize
        monkeypatch.setattr(
            module, "factorize",
            lambda *a, _original=original, **k: calls.append(a) or _original(*a, **k))
    with pytest.raises(BudgetExceededError):
        check_theorem1(MU, ONE, 130)
    with factor_budget(10), pytest.raises(BudgetExceededError):
        check_theorem1(MU, ONE, 30)
    assert calls == []


def test_theorem1_sides_match_literal_oracle():
    from fibdirichlet.numtheory import dirichlet_convolve
    pairs = [(f, ONE) for f in (MU, PHI, LIOUVILLE, MANGOLDT)]
    pairs += [(small_integer_fn(seed), small_integer_fn(1000 + seed))
              for seed in (0, 7, 19)]
    tables = verify.divisor_tables(40)
    for f, g in pairs:
        for x in (1, 1.9, 12.5, 40):   # F(1) = 1 alone is one listing
            indices = range(1, math.floor(x) + 1)
            oracle = (math.prod(map(fib, indices)) if f is MANGOLDT
                      else sum(dirichlet_convolve(f, g, fib(n))
                               for n in indices))
            report = check_theorem1(f, g, x,
                                    tables=tables if x == 40 else None)
            assert [d["value"] for d in report.details] == [oracle] * 3, \
                (f.name, g.name, x)
    with pytest.raises(ValueError):
        check_theorem1(MU, ONE, 39, tables=tables)


def test_theorem1_look_alikes_of_listed_functions_give_the_same_reports():
    # MU and PHI are read off F(k)'s halves; a look-alike with the same name
    # and function is mapped over the tables' plain ints instead
    tables = verify.divisor_tables(40)
    seen = []

    def counted(fn):
        return lambda n: seen.append(type(n)) or fn(n)

    mu_like = numtheory.ArithFn("mu", counted(numtheory.mobius))
    phi_like = numtheory.ArithFn("phi", counted(numtheory.euler_phi))
    pairs = [((MU, ONE), (mu_like, ONE)), ((PHI, ONE), (phi_like, ONE)),
             ((ONE, MU), (ONE, mu_like)), ((MU, PHI), (mu_like, phi_like))]
    for listed, alike in pairs:
        a, b = (check_theorem1(f, g, 40, tables) for f, g in (listed, alike))
        assert a.passed and b.passed
        assert ((a.check_name, a.parameters, a.residual, a.details)
                == (b.check_name, b.parameters, b.residual, b.details))
    assert seen == [int] * (5 * len(tables.values))


def theorem1_pairs(tables):
    """The (left, right) id pairs of each reader pair: direct, weighted,
    swapped."""
    ids = list(range(len(tables.values)))
    return [list(zip(left(ids), right(ids))) for left, right in tables.readers]


def test_theorem1_suite_rank_map_matches_rank():
    # the tables' ranks, each n's first listing, read off its first weighted
    # slot F(rank)/n, against the ranks the duality tags give
    n_max = 80
    tables = verify.divisor_tables(n_max)
    values = tables.values
    assert len(set(values)) == len(values)
    index = {fib(k): k for k in range(n_max, 0, -1)}   # F(1) = F(2) at 1
    _, weighted, _ = theorem1_pairs(tables)
    runs = [(n_id, [s for _, s in run]) for n_id, run
            in groupby(weighted, itemgetter(0))]
    assert len(runs) == 4243
    ranks = {values[n_id]: index[values[n_id] * values[row[0]]]
             for n_id, row in runs}
    assert ranks == divisor_union_ranks(n_max)
    assert all(ranks[a] <= ranks[b] for a, b in zip(values, values[1:]))
    for n_id, row in runs:
        n = values[n_id]
        m = fib_module.rank(n)
        assert ranks[n] == m, n
        assert [n * values[s] for s in row] == \
            [fib(k) for k in range(m, n_max + 1, m)], n


@pytest.mark.parametrize("n_max", [40, 100])
def test_theorem1_slots_list_every_divisor_pair_once(n_max):
    tables = verify.divisor_tables(n_max)
    values = tables.values
    direct, weighted, swapped = theorem1_pairs(tables)
    # each F(k)'s slots are the products a·b of its halves, low by high
    listed = [(k, a * b) for k in range(1, n_max + 1)
              for low, high in [numtheory.divisor_halves(fib_factorization(k))]
              for a in low for b in high]
    assert [(k, values[a], values[b]) for (k, _), (a, b)
            in zip(listed, direct)] == \
        [(k, d, fib(k) // d) for k, d in listed]
    assert len(direct) == len(listed)
    assert sorted(weighted) == sorted(direct)
    assert swapped == [(b, a) for a, b in weighted]
    owners = [a for a, _ in weighted]
    assert [n_id for n_id, _ in groupby(owners)] == list(range(len(values)))


def test_theorem1_evaluates_each_function_once_per_distinct_divisor():
    calls = {"f": 0, "g": 0}

    def counted(name, fn):
        def evaluate(n):
            calls[name] += 1
            return fn(n)
        return numtheory.ArithFn(name, evaluate)

    for x in (1, 2, 30, 60.5):
        calls.update(f=0, g=0)
        report = check_theorem1(counted("f", small_integer_fn(3)),
                                counted("g", MU), x)
        assert report.passed
        assert calls == dict.fromkeys("fg", len(divisor_union_ranks(x))), x


def test_small_integer_fn_is_the_literal_formula():
    for seed in range(4):
        f = small_integer_fn(seed)
        assert [f(n) for n in range(1, 1001)] == \
            [((n * 2654435761 + seed * 40503) >> 7) % 7 - 3
             for n in range(1, 1001)], seed


def _literal_small_integer(seed):
    return lambda n: ((n * 2654435761 + seed * 40503) >> 7) % 7 - 3


def test_small_integer_table_is_the_literal_formula():
    # 40503·seed mod 896 takes every value for seed < 896, as 40503 is
    # coprime to 896; the suite's seeds are 1000..1019
    period = verify.SMALL_INTEGER_PERIOD
    for seed in [*range(period), *range(1000, 1020)]:
        literal = _literal_small_integer(seed)
        assert verify.small_integer_table(seed) == tuple(
            map(literal, range(period))), seed


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2**256))
def test_small_integer_fn_reads_its_period_table(seed, n):
    assert small_integer_fn(seed)(n) == _literal_small_integer(seed)(n)


@pytest.fixture(scope="module")
def theorem1_values_to_100():
    return verify.divisor_tables(100).values


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2000))
def test_small_integer_fn_on_the_theorem1_values(theorem1_values_to_100,
                                                 seed):
    values = theorem1_values_to_100
    assert list(map(small_integer_fn(seed), values)) == \
        list(map(_literal_small_integer(seed), values))


@pytest.mark.parametrize("x", [1, 1.9, 40])
def test_theorem1_suite_maps_one_once_for_its_listed_checks(x):
    # the suite's four checks against ONE read each side off how often each
    # value stands left on its slots, so ONE is never evaluated; each report
    # must be the one check_theorem1 gives on tables of its own
    calls = []
    original = ONE.fn
    object.__setattr__(ONE, "fn", lambda n: calls.append(n) or original(n))
    try:
        named = verify._suite_theorem1(x=x)[:4]
    finally:
        object.__setattr__(ONE, "fn", original)
    assert calls == []
    for f, report in zip((MU, PHI, LIOUVILLE, MANGOLDT), named):
        assert vars(report) == vars(check_theorem1(f, ONE, x)), f.name


NAMED = (MU, PHI, LIOUVILLE, MANGOLDT)
SEEDS = range(verify.THEOREM1_RANDOM_PAIRS)


def seeded_pair(seed):
    return small_integer_fn(seed), small_integer_fn(1000 + seed)


def read_packs(tables, packs):
    """Each seed's sides (direct, rank-weighted, swapped) read off the three
    packs of _seeded_packs(tables, SEEDS): Σ_r f(r)·(its lane − 3·count_r),
    with count_r the top lane."""
    width = (6 * len(tables.fresh)).bit_length()
    top, mask = width * len(SEEDS), (1 << width) - 1
    return [tuple(sum(f * ((pack >> width * seed & mask) - 3 * (pack >> top))
                      for f, pack in zip(verify.small_integer_table(seed),
                                         packed))
                  for packed in packs) for seed in SEEDS]


def reference_suite(x, tables):
    """The theorem-1 suite's five reports, each read by check_theorem1 on
    the tables: the four named checks against ONE, then the seeded pairs'
    report, each seed passing with its own check."""
    named = [check_theorem1(f, ONE, x, tables) for f in NAMED]
    seeded = [check_theorem1(*seeded_pair(seed), x, tables) for seed in SEEDS]
    worst = max(report.residual for report in seeded)
    return [*named, verify.VerificationReport(
        "theorem1-random", f"pairs={len(SEEDS)}, x={x}", worst == 0, worst,
        [{"seed": seed, "passed": r.passed} for seed, r in zip(SEEDS, seeded)]
    )], seeded


def assert_suite_is_the_reference(reports, x, tables):
    """Every suite report, in passed, residual and details, is the one that
    check_theorem1 gives on the tables; the seeds' reports are returned."""
    expected, seeded = reference_suite(x, tables)
    assert list(map(vars, reports)) == list(map(vars, expected))
    return seeded


@pytest.mark.parametrize("x", [1, 1.9, 40])
def test_theorem1_suite_sums_the_seeded_pairs_of_check_theorem1(
        x, monkeypatch):
    # the suite packs every seeded pair's sums in one walk of each side's
    # slots, with the seeds as lanes of one int per residue; each side read
    # off the packs must be the one that check_theorem1 and the literal
    # Σ_{n≤x} (f*g)(F(n)) give, at x < 2 on one-item slices too
    seen = []
    original = verify._seeded_packs

    def recording(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(verify, "_seeded_packs", recording)
    reports = verify._suite_theorem1(x=x)
    monkeypatch.undo()
    [packs] = seen
    tables = verify.divisor_tables(x)
    public = assert_suite_is_the_reference(reports, x, tables)
    for seed, sides in enumerate(read_packs(tables, packs)):
        assert list(sides) == [d["value"] for d in public[seed].details], seed
        f, g = _literal_small_integer(seed), _literal_small_integer(1000 + seed)
        literal = sum(dirichlet_convolve(
            numtheory.ArithFn("f", f), numtheory.ArithFn("g", g), fib(n))
            for n in range(1, math.floor(x) + 1))
        assert list(sides) == [literal] * 3, seed
    assert reports[-1].passed


@pytest.mark.parametrize("x", [1, 1.9, 40])
def test_theorem1_suite_agrees_without_the_reference(x, monkeypatch):
    # where every side's left counts and seeded packs are the direct side's,
    # the suite reports from them alone: no check_theorem1, no seeded f
    expected, _ = reference_suite(x, verify.divisor_tables(x))

    def refuse(*args):
        raise AssertionError("the agreeing suite read a pair")

    monkeypatch.setattr(verify, "check_theorem1", refuse)
    monkeypatch.setattr(verify, "small_integer_fn", refuse)
    reports = verify._suite_theorem1(x=x)
    assert all(report.passed for report in reports)
    assert list(map(vars, reports)) == list(map(vars, expected))


THEOREM1_SIDES = ["direct", "rank-weighted", "swapped"]


def forge_slot(tables, side, hand, slot=100, to=None):
    """The tables with one slot of one side's left (hand 0) or right (hand
    1) reader pointed at the id to, or else at the next id."""
    ids = list(range(len(tables.values)))
    readers = [list(pair) for pair in tables.readers]
    forged = list(readers[side][hand](ids))
    forged[slot] = (forged[slot] + 1) % len(ids) if to is None else to
    readers[side][hand] = verify._gather(forged)
    return tables._replace(readers=tuple(map(tuple, readers)))


@pytest.mark.parametrize("side", range(3), ids=THEOREM1_SIDES)
def test_theorem1_named_checks_fail_on_a_forged_slot(side, monkeypatch):
    # with g = 1 each side reads only how often a value stands left on its
    # slots: with one left slot of one side pointed at another id, each
    # report must be what check_theorem1 gives on the same tables
    forged = forge_slot(verify.divisor_tables(40), side, 0)
    monkeypatch.setattr(verify, "divisor_tables", lambda x: forged)
    reports = verify._suite_theorem1(x=40)
    assert_suite_is_the_reference(reports, 40, forged)
    assert not all(report.passed for report in reports[:4])


@pytest.mark.parametrize("side", range(3), ids=THEOREM1_SIDES)
def test_theorem1_random_fails_on_a_forged_slot(side, monkeypatch):
    # the lanes must not hide a mismatch: with one right slot of one side
    # pointed at another id, theorem1-random fails by the worst residual
    # that the per-seed check_theorem1 gives on the same tables, whichever
    # side differs from the others, and each seed's three sides, read off
    # the packs, are the oracle's
    forged = forge_slot(verify.divisor_tables(40), side, 1)
    monkeypatch.setattr(verify, "divisor_tables", lambda x: forged)
    reports = verify._suite_theorem1(x=40)
    oracle = assert_suite_is_the_reference(reports, 40, forged)
    assert read_packs(forged, verify._seeded_packs(forged, SEEDS)) == [
        tuple(detail["value"] for detail in r.details) for r in oracle]
    assert not reports[-1].passed


@pytest.mark.parametrize("hand", [0, 1], ids=["left", "right"])
@pytest.mark.parametrize("side", range(3), ids=THEOREM1_SIDES)
def test_theorem1_suite_reports_a_slot_forged_within_its_residue(
        side, hand, monkeypatch):
    # a slot pointed at another id of the same residue mod 896 leaves every
    # side's seeded packs as they were, though the forged side no longer
    # holds the same pairs.  Forged on the right, the left counts hold too
    # and every pair's sides are still equal; forged on the left, the
    # counts differ and a named check fails.  Each report must be
    # check_theorem1's on the forged tables
    tables = verify.divisor_tables(40)
    ids = list(range(len(tables.values)))
    period = verify.SMALL_INTEGER_PERIOD
    classes = {}
    for i, value in enumerate(tables.values):
        classes.setdefault(value % period, []).append(i)
    forged_hand = tables.readers[side][hand](ids)
    slot, twin = next((slot, twin) for slot, b in enumerate(forged_hand)
                      for twin in classes[tables.values[b] % period]
                      if twin != b)
    forged = forge_slot(tables, side, hand, slot, twin)

    def pairs(tables, side):
        left, right = tables.readers[side]
        return Counter(zip(left(ids), right(ids)))

    assert pairs(forged, side) != pairs(tables, side)
    assert pairs(forged, side) != pairs(forged, (side + 1) % 3)
    packs = verify._seeded_packs(forged, SEEDS)
    assert packs == [packs[0]] * 3 == verify._seeded_packs(tables, SEEDS)
    monkeypatch.setattr(verify, "divisor_tables", lambda x: forged)
    reports = verify._suite_theorem1(x=40)
    assert_suite_is_the_reference(reports, 40, forged)
    assert reports[-1].passed
    assert all(report.passed for report in reports[:4]) == (hand == 1)


def test_theorem1_random_lanes_hold_the_largest_residue_class_at_x_120():
    # a seed's lane sums g + 3 ≤ 6 over the slots of one residue of a, and
    # the top lane counts them; W = (6·slots).bit_length(), slots read off
    # ``fresh``, must hold 6 times the largest residue class of x = 120's
    # three sides, each of which has that many slots
    tables = verify.divisor_tables(120)
    slots = len(tables.fresh)
    width = (6 * slots).bit_length()
    residues = [n % verify.SMALL_INTEGER_PERIOD for n in tables.values]
    classes = Counter(tables.readers[0][0](residues))
    for left, _ in tables.readers:
        assert len(left(residues)) == slots
        assert Counter(left(residues)) == classes
    assert 6 * max(classes.values()) < 2**width
    assert 2**width <= 12 * slots
    packs = verify._seeded_packs(tables, SEEDS)
    assert packs == [packs[0]] * 3
    top = width * len(SEEDS)
    assert [pack >> top for pack in packs[0]] == [
        classes[r] for r in range(verify.SMALL_INTEGER_PERIOD)]
    assert read_packs(tables, packs) == [
        tuple(d["value"] for d in check_theorem1(
            *seeded_pair(seed), 120, tables).details) for seed in SEEDS]


def count_listings(monkeypatch):
    """Calls of divisor_halves and of divisors, each of which lists
    Factorizations, wherever a module binds them."""
    calls = {"divisor_halves": [], "divisors": []}
    for name, seen in calls.items():
        original = getattr(numtheory, name)
        for module in (numtheory, contraction, verify):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name,
                    lambda *a, _o=original, _s=seen: _s.append(a) or _o(*a))
    return calls


def test_theorem1_suite_lists_divisors_once(monkeypatch):
    calls = count_listings(monkeypatch)
    reports = verify._suite_theorem1(x=60)
    assert all(r.passed for r in reports)
    # one pair of halves per F(k), shared by all 24 pairs (f, g)
    assert calls["divisor_halves"] == [(fib_factorization(k),)
                                       for k in range(1, 61)]
    assert calls["divisors"] == []


def test_phi_identity_suite_lists_no_divisors(monkeypatch):
    # φ summed per rank m is φ_α(m), read off F(m)'s two halves
    calls = count_listings(monkeypatch)
    reports = verify._suite_phi_identity(x=30)
    assert all(r.passed for r in reports)
    assert calls["divisor_halves"] == [(fib_factorization(m),)
                                       for m in range(1, 31)]
    assert calls["divisors"] == []


def test_theorem1_values_are_each_function_on_the_factored_values():
    # a MULTIPLICATIVE f is read off F(k)'s halves and Λ's base off the
    # prime powers of their tops; each must be f on the factored values
    tables = verify.divisor_tables(60)
    factored = list(map(numtheory.factorize, tables.values))
    for f in (*numtheory.MULTIPLICATIVE, MANGOLDT):
        assert verify._values_on(f, tables) == list(map(f.fn, factored)), \
            f.name
    # a look-alike of MU is no MULTIPLICATIVE object: mapped over plain ints
    seen = []
    mu_like = ArithFn("mu", lambda n: seen.append(type(n)) or mobius(n))
    assert verify._values_on(mu_like, tables) == list(map(mobius, factored))
    assert seen == [int] * len(tables.values)


def test_phi_rank_sums_match_the_literal_sum():
    sums = verify._phi_rank_sums(30)
    assert len(sums) == 31 and sums[0] == 0
    for k in range(1, 31):
        literal = sum(numtheory.euler_phi(n) * (k // m)
                      for n, m in divisor_union_ranks(k).items())
        assert sums[k] == literal == fib(k + 2) - 1, k


def test_theorem1_rejects_a_divisor_missing_from_a_multiple(monkeypatch):
    from fibdirichlet.numtheory import Factorization
    original = verify.fib_factorization
    monkeypatch.setattr(  # a forged F(5) = 7, which F(10) = 55 lacks
        verify, "fib_factorization",
        lambda k: (Factorization(7, ((7, 1),)) if k == 5 else original(k)))
    with pytest.raises(RuntimeError, match="7 has rank 5"):
        check_theorem1(MU, ONE, 10)


def test_corollary_with_unit_function():
    for f in (MU, PHI, LIOUVILLE):
        report = check_corollary_completely_mult(f, ONE, 20)
        assert report.passed, f.name
    report = check_corollary_completely_mult(LIOUVILLE, ONE, 12)
    at_12 = report.details[11]
    assert at_12["lhs"] == at_12["rhs"] == "1"  # F(12) = 144 is a square


def test_corollary_with_nontrivial_completely_multiplicative():
    assert check_corollary_completely_mult(MU, LIOUVILLE, 20).passed
    assert check_corollary_completely_mult(PHI, IDENTITY, 15).passed


def test_corollary_refuses_mangoldt(monkeypatch):
    # Λ is carried as its base e^Λ; its Dirichlet products are no logs.  It
    # is refused before the scale check and before any contraction, so no
    # F(n) is factored, and an N past the index cap is still the Λ error
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    for f, g, n_max in ((MANGOLDT, ONE, 6), (MU, MANGOLDT, 6),
                        (MANGOLDT, ONE, 130)):
        with pytest.raises(ValueError, match="base e\\^Λ"):
            check_corollary_completely_mult(f, g, n_max)
    assert fib_module.FIB_FACTORS == {}


def test_corollary_refuses_a_function_not_multiplicative(monkeypatch):
    # f is summed per tag on F(k)'s halves, which only a MULTIPLICATIVE f,
    # found by identity, allows; the refusal comes before anything is factored
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    for f in (ArithFn("mu", mobius), small_integer_fn(0)):
        with pytest.raises(ValueError, match="expects a MULTIPLICATIVE f"):
            check_corollary_completely_mult(f, ONE, 6)
    assert fib_module.FIB_FACTORS == {}


def test_corollary_refuses_a_g_not_completely_multiplicative():
    # d(4) = 3 does not divide d(F(6)) = d(8) = 4; no quotient is floored
    with pytest.raises(ValueError, match="divisor_count is not completely"):
        check_corollary_completely_mult(MU, DIVISOR_COUNT, 12)


def test_corollary_rows_match_the_fraction_definition():
    # the corollary's right side as written, g(F(n))·Σ_{k|n} (f/g)_α(k), with
    # f/g summed as exact fractions over the contributors of each k
    pairs = [(MU, ONE), (PHI, ONE), (LIOUVILLE, ONE), (MU, LIOUVILLE),
             (PHI, IDENTITY)]
    reports = verify.SUITE["corollary-mult"](n=40)
    assert len(reports) == len(pairs)
    for (f, g), report in zip(pairs, reports):
        assert report.parameters == f"f={f.name}, g={g.name}, N=40"
        quotient = [sum(Fraction(f(m), g(m)) for m in contributors(k))
                    for k in range(1, 41)]
        for row in report.details:
            n = row["n"]
            rhs = g(fib_factorization(n)) * sum(
                quotient[k - 1] for k in range(1, n + 1) if n % k == 0)
            assert row["rhs"] == str(rhs), (report.parameters, n)


def test_logprod_closed_form():
    *_, (lhs, rhs, residual) = logprod_walk(2)
    assert lhs == 1 and abs(rhs) <= 1e-9
    *_, (lhs, _, residual) = logprod_walk(6)
    assert lhs == 240 and residual <= 1e-9
    *_, (_, _, residual) = logprod_walk(40)
    assert residual <= 1e-8
    with pytest.raises(ValueError):
        next(logprod_walk(0.5))


def test_logprod_suite_reads_one_walk():
    # each residual against F(1)·…·F(x) multiplied out afresh for that x
    r = GOLDEN_RATIO
    (report,) = run_suite("logprod", x=60)
    assert [row["x"] for row in report.details] == list(range(1, 61))
    for row in report.details:
        x = row["x"]
        lhs = math.log(math.prod(fib(n) for n in range(1, x + 1)))
        rhs = (math.log(r) / 2 * x * x + math.log(r / 5) / 2 * x
               + constant_c(x))
        assert row["residual"] == abs(lhs - rhs), x


def test_constant_c():
    assert abs(constant_c(50) - 0.2043618834) <= 1e-9
    r = GOLDEN_RATIO
    assert abs(constant_c(1) - math.log1p(r**-2)) < 1e-15
    assert abs(constant_c(1) - 0.3235071311574467) < 1e-12
    assert abs(constant_c(2) - constant_c(50)) < r**-4 / (1 - r**-2)
    for n in range(1, 61):
        assert abs(constant_c(n + 1) - constant_c(n)) <= r ** (-2 * n)


def test_asymptotic_mangoldt_report():
    samples = asymptotic_mangoldt_report([1, 5])
    assert [list(row) for row in samples] == [["x", "exact", "predicted",
                                               "ratio"]] * 2
    assert samples[0]["exact"] == 0.0
    assert abs(samples[1]["exact"] - math.log(30)) < 1e-12
    assert abs(samples[1]["predicted"]
               - LCM_GROWTH_CONSTANT * 25) < 1e-12


def test_ep_weighted_sum():
    products = {x: product for x, _, product in primitive_totals_at([12, 2, 5])}
    assert products[5] == 30  # primes 2, 3, 5 each with exponent 1
    assert products[2] == 1
    assert products[12] == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 89
    assert growth_sample(2, products[2])["exact"] == 0.0
    assert growth_sample(5, products[5])["x"] == 5


def test_ep_product_divides_lcm():
    for x, (_, product) in enumerate(primitive_prime_totals(60), 1):
        total = lcm_fib(x)
        assert total % product == 0
        assert math.log(product) <= math.log(total) + 1e-9


def test_pi_alpha():
    counts = [count for count, _ in primitive_prime_totals(30)]
    assert counts[4] == 3   # π_α(5)
    assert counts[11] == 8   # π_α(12)
    assert counts[1] == 0   # π_α(2)
    assert counts == sorted(counts)


def test_pi_alpha_bounded_by_total_prime_count():
    from fibdirichlet.fib import fib_factorization
    for x, count, _ in primitive_totals_at([10, 20, 30]):
        total_omega = sum(
            sum(e for _, e in fib_factorization(n).factors)
            for n in range(3, x + 1)
        )
        assert count <= total_omega


def test_pi_alpha_bound_report():
    rows = pi_alpha_bound_report([2, 12])
    assert rows[0]["count"] == 0
    assert rows[1]["count"] == 8
    expected_scaled = 8 * math.log(12) / 144
    assert abs(rows[1]["scaled"] - expected_scaled) < 1e-12
    assert all(abs(r["bound"] - PRIMITIVE_COUNT_BOUND) < 1e-15 for r in rows)
    assert abs(PRIMITIVE_COUNT_BOUND - LCM_GROWTH_CONSTANT / 2) < 1e-15


def test_phi_identity(monkeypatch):
    assert verify._phi_rank_sums(4)[4] == 7 == fib(6) - 1
    (report,) = run_suite("phi-identity", x=1)
    assert report.passed and report.details == [{"x": 1, "passed": True}]
    (report,) = run_suite("phi-identity", x=12)
    assert report.passed and report.residual == 0
    assert [row["x"] for row in report.details if row["passed"]] == list(
        range(1, 13))
    # a rank sum off by one at x = 7 fails that row and the suite
    original = verify._phi_rank_sums
    monkeypatch.setattr(verify, "_phi_rank_sums", lambda x: [
        s + (k == 7) for k, s in enumerate(original(x))])
    (report,) = run_suite("phi-identity", x=12)
    assert not report.passed and report.residual == 1
    assert [row["x"] for row in report.details if not row["passed"]] == [7]


def test_phi_recursive_fib():
    assert phi_recursive_fib(4) == [1, 1, 2, 3, 5, 8]
    assert phi_recursive_fib(0) == [1, 1]
    assert phi_recursive_fib(10) == [fib(i) for i in range(1, 13)]
    assert phi_recursive_fib(120) == [fib(i) for i in range(1, 123)]


def test_phi_recursive_fib_calls_neither_fib_nor_the_memo(monkeypatch):
    expected = [fib(i) for i in range(1, 63)]

    def refuse(*args):
        raise AssertionError("the recursion reached the library's F(n)")

    for module in (fib_module, verify, contraction):
        for name in ("fib", "fib_factorization", "rank"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    assert phi_recursive_fib(60) == expected
    assert fib_module.FIB_FACTORS == {}


def test_euler_product_examples():
    report = euler_product_check("lambda", 2, 10_000)
    assert report.passed
    poly = report.details[0]["polynomial"]
    assert abs(poly - (1 + 0.25 + 1 / 144)) < 1e-15
    assert report.residual <= 1e-2

    report = euler_product_check("mu", 3, 1000)
    assert report.passed
    assert abs(report.details[0]["polynomial"] - 1.125) < 1e-15

    report = euler_product_check("mu3", 2, 10_000)
    assert report.passed
    assert abs(report.details[0]["polynomial"] - 205 / 144) < 1e-15

    with pytest.raises(ValueError):
        euler_product_check("mu", 2, 5)
    with pytest.raises(ValueError):
        euler_product_check("nope", 2, 100)


@pytest.mark.parametrize("s", [
    2, 3.0, 2.5, pytest.param((2.5, 3.0, 2.5), id="2.5-3.0-2.5")])
@pytest.mark.parametrize("n_terms", [12, 1001])
def test_euler_series_equals_the_term_by_term_sum(s, n_terms):
    # the slice-pass values of the derived forms against the same forms
    # read one n at a time; alternating s at one N builds a table each time
    for sv in s if isinstance(s, tuple) else (s,):
        zeta_n, _ = zeta_partial(sv, n_terms)
        for which, form in EULER_SERIES.items():
            series = math.fsum(form.at(n) / n**sv
                               for n in range(1, n_terms + 1))
            report = euler_product_check(which, sv, n_terms)
            assert (report.details[0]["zeta_N_times_D_N"]
                    == zeta_n * series), (which, sv)


def test_logprod_bound_is_where_the_ulp_passes_a_tenth_of_the_tolerance():
    # the float log of the product is about (log r / 2)·x²
    half_log_r = math.log(GOLDEN_RATIO) / 2
    assert verify.LOGPROD_X_MAX == 5904
    assert math.ulp(half_log_r * 5904**2) <= 1e-9 < math.ulp(half_log_r
                                                            * 5905**2)
    with pytest.raises(BudgetExceededError, match="x=5904"):
        next(logprod_walk(5905))


def test_check_T_tables():
    assert check_T_tables(1, 1.9).passed  # value 1
    assert check_T_tables(2, 10).passed   # value 3
    assert check_T_tables(3, 4).passed    # value 4
    report = check_T_tables(1, 1.9)
    assert report.details[0]["value"] == 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: fib(-1), ValueError, "fib expects n >= 0"),
    (lambda: fib_module.rank(0), ValueError, "rank expects n >= 1"),
    (lambda: fib_module.primitive_primes(0), ValueError,
     "primitive_primes expects n >= 1"),
    (lambda: lcm_fib(0.5), ValueError, "lcm_fib expects x >= 1"),
    (lambda: numtheory.factorize(0), ValueError,
     "factorize expects n >= 1, got 0"),
    (lambda: numtheory.valuation(0, 3), ValueError,
     "valuation expects n >= 2 and v >= 1, got 3, 0"),
    (lambda: zeta_partial(2.0, 0), ValueError, "zeta_partial requires N >= 1"),
    (lambda: contraction.alpha_contract(MU, 0), ValueError,
     "alpha_contract expects n >= 1"),
    (lambda: constant_c(0), ValueError, "constant_c expects N >= 1"),
    (lambda: next(primitive_prime_totals(0)), ValueError,
     "primitive-prime totals expect x >= 1, got 0"),
    (lambda: phi_recursive_fib(-1), ValueError,
     "phi_recursive_fib expects x_max >= 0"),
    (lambda: check_T_tables(4, 10), ValueError, "depth must be 1, 2 or 3"),
    # the corollary divides by g(m) at each m of rank ≤ N, and 4 has rank 6
    (lambda: check_corollary_completely_mult(PHI, MU, 6), ZeroDivisionError,
     "mu(4) = 0; the quotient contraction is undefined"),
], ids=["fib", "rank", "primitive_primes", "lcm_fib", "factorize",
        "valuation", "zeta_partial", "alpha_contract", "constant_c",
        "primitive_prime_totals", "phi_recursive_fib", "check_T_tables",
        "corollary-divides-by-zero"])
def test_arguments_out_of_range_are_refused(call, error, message):
    with pytest.raises(error) as refusal:
        call()
    assert str(refusal.value) == message


def test_every_check_takes_keyword_only_flags():
    # cmd_verify reads each check's flags, and which are integral, from these
    for name, check in verify.SUITE.items():
        for param in inspect.signature(check).parameters.values():
            assert param.kind is param.KEYWORD_ONLY, (name, param)
            assert param.name in {"x", "n", "s", "which"}, (name, param)
            assert param.default is None \
                or type(param.default) in (int, float), (name, param)


def test_run_suite_dispatch():
    reports = run_suite("t-tables")
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_suite("not-a-check")
