import math
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fibdirichlet import contraction
from fibdirichlet import fib as fib_module
from fibdirichlet.cli import CONTRACTIBLE
from fibdirichlet.contraction import (
    CLOSED_FORMS,
    DELTA23,
    LAMBDA_ALPHA,
    MU_ALPHA,
    MU_ALPHA2,
    MU_ALPHA3,
    MU_ITERATES,
    TOWERS,
    Dilation,
    alpha_contract,
    alpha_contract_iter,
    closed_delta23,
    closed_lambda_alpha,
    closed_mu_alpha,
    closed_mu_alpha2,
    closed_mu_alpha3,
    contributors,
    divisor_union_ranks,
    summatory_S,
    summatory_T,
)
from fibdirichlet.fib import divisor_has_rank, fib_factorization, rank
from fibdirichlet.numtheory import (
    ArithFn,
    BudgetExceededError,
    LIOUVILLE,
    MANGOLDT,
    MU,
    MULTIPLICATIVE,
    NAMED_FUNCTIONS,
    ONE,
    PHI,
    divisors,
    factorize,
    mertens,
    mobius,
    mu_sieve,
)
from fibdirichlet.fib import fib, lcm_fib

# The paper's closed forms as residue case tables: f(n) = Σ c·μ(n/j) over the
# (j, c) pairs listed under n mod the modulus.  The derived forms are checked
# against them; λ_α's rests on the squares among the Fibonacci numbers being
# F(1) = F(2) = 1 and F(12) = 144 (Cohn, 1964).
PAPER_CASE_TABLES = {
    "mu_alpha": (closed_mu_alpha, 4, {
        (1, 3): ((1, 1),), (2,): (), (0,): ((2, 1),)}),
    "mu_alpha2": (closed_mu_alpha2, 6, {
        (1, 5): ((1, 1),), (2, 4): ((1, 1), (2, 1)), (3,): ((1, 1), (3, 1)),
        (0,): ((1, 1), (2, 1), (3, 1))}),
    "mu_alpha3": (closed_mu_alpha3, 12, {
        (1, 5, 7, 11): ((1, 1),), (2, 10): (), (3, 9): ((1, 1), (3, 1)),
        (6,): ((3, 1),), (0, 4, 8): ((2, 1), (4, 1))}),
    "lambda_alpha": (closed_lambda_alpha, 12, {
        (1, 3, 5, 7, 9, 11): ((1, 1),), (2, 4, 6, 8, 10): ((1, 1), (2, 1)),
        (0,): ((2, 1), (12, 1))}),
    "delta23": (closed_delta23, 4, {(1, 2, 3): (), (0,): ((4, -1),)}),
}


def case_table_value(modulus, cases, n):
    pairs = next(p for residues, p in cases.items() if n % modulus in residues)
    return sum(c * mobius(n // j) for j, c in pairs)


def invert_T_to_S(T: dict[int, int], x: float) -> int:
    """Moebius inversion Σ_{n≤x} μ(n)·T(x/n), recovering S from T's values.

    Both summatory functions are step functions changing only at integers,
    so only the values T(⌊⌊x⌋/n⌋) are needed.
    """
    n_max = math.floor(x)
    return sum(mobius(n) * T[n_max // n] for n in range(1, n_max + 1))


def summatory_values(summatory, f, x_max):
    """{x: summatory(f, x)} at the integers 1..x_max."""
    return {x: summatory(f, x) for x in range(1, x_max + 1)}


def test_alpha_contract_examples():
    assert alpha_contract(MU, 2) == 0    # empty sum by construction
    assert alpha_contract(MU, 4) == -1   # only divisor of F(4)=3 with rank 4 is 3
    assert alpha_contract(LIOUVILLE, 12) == 2
    assert alpha_contract(MU, 1) == 1


def test_contributors():
    assert contributors(2) == []
    assert contributors(1) == [1]
    assert contributors(4) == [3]
    assert all(rank(m) == 12 for m in contributors(12))


def test_divisor_union_ranks():
    ranks = divisor_union_ranks(4)
    assert ranks == {1: 1, 2: 3, 3: 4}
    bigger = divisor_union_ranks(15)
    for n, m in bigger.items():
        assert rank(n) == m


def test_alpha_contract_iter_examples():
    assert alpha_contract_iter(MU, 2, 6) == -1
    assert alpha_contract_iter(MU, 3, 6) == -1
    assert alpha_contract_iter(MU, 1, 1) == 1


def test_contraction_table():
    # the depth-1 iterate tabulated over 1..20 is the plain contraction
    values = {n: alpha_contract_iter(MU, 1, n) for n in range(1, 21)}
    assert values[2] == 0
    for n in range(1, 21):
        assert values[n] == alpha_contract(MU, n), n
    # depth 0 is f itself and is not an iterate
    with pytest.raises(ValueError):
        alpha_contract_iter(MU, 0, 10)


def test_mu_fast_path_is_chosen_by_identity():
    impostor = ArithFn("mu", lambda n: 1)
    assert alpha_contract_iter(impostor, 2, 6) == alpha_contract_iter(ONE, 2, 6)
    assert alpha_contract_iter(impostor, 2, 6) != alpha_contract_iter(MU, 2, 6)


def test_lambda_fast_path_is_chosen_by_identity():
    impostor = ArithFn("lambda", lambda n: 1)
    assert alpha_contract_iter(impostor, 2, 6) == alpha_contract_iter(ONE, 2, 6)
    assert alpha_contract_iter(impostor, 2, 6) != alpha_contract_iter(
        LIOUVILLE, 2, 6)


def test_lambda_tower_is_its_three_forms():
    # λ_α = 1_{1,2,12} → 1_{1,2,3} → 1_{1,2,3,4}, μ_α³'s form
    assert [form.weights for form in TOWERS[LIOUVILLE]] == [
        {1: 1, 2: 1, 12: 1}, {1: 1, 2: 1, 3: 1}, MU_ALPHA3.weights]
    assert TOWERS[MU] == (MU_ALPHA, MU_ALPHA2, MU_ALPHA3)
    assert TOWERS[LIOUVILLE][0] is LAMBDA_ALPHA


def test_closed_forms_and_iterates_come_from_the_towers():
    assert sorted(CLOSED_FORMS) == [("lambda", 1), ("lambda", 2),
                                    ("lambda", 3), ("mu", 1), ("mu", 2),
                                    ("mu", 3)]
    # the closed_* names are the very functions that CLOSED_FORMS holds, and
    # each iterate calls a bound method of its own
    closed = (closed_mu_alpha, closed_mu_alpha2, closed_mu_alpha3)
    for depth, fn in enumerate(closed, 1):
        assert CLOSED_FORMS["mu", depth].fn is fn
    assert CLOSED_FORMS["lambda", 1].fn is closed_lambda_alpha
    held = {id(f.fn) for f in CLOSED_FORMS.values()}
    for depth, iterate in enumerate(MU_ITERATES, 1):
        assert id(iterate.fn) not in held
        assert iterate.fn == CLOSED_FORMS["mu", depth].fn


def test_lambda_tower_matches_the_literal_path():
    # depth 2 against λ contracted twice over its contributors (F(144) is
    # past the index cap from n = 12 on), and past the fixed point μ_α³
    for n in range(1, 12):
        assert alpha_contract_iter(LIOUVILLE, 2, n) == sum(
            alpha_contract(LIOUVILLE, m) for m in contributors(n)), n
    for k in (4, 5, 300):
        for n in range(1, 61):
            assert alpha_contract_iter(LIOUVILLE, k, n) == closed_mu_alpha3(n)


def test_closed_mu_alpha_agrees_with_divisor_sum():
    for n in range(1, 51):
        assert closed_mu_alpha(n) == alpha_contract(MU, n), n


def test_closed_iterates_agree_with_divisor_sum():
    for n in range(1, 41):
        assert closed_mu_alpha2(n) == alpha_contract_iter(MU, 2, n), n
        assert closed_mu_alpha3(n) == alpha_contract_iter(MU, 3, n), n


def test_closed_lambda_agrees_with_divisor_sum():
    for n in range(1, 41):
        assert closed_lambda_alpha(n) == alpha_contract(LIOUVILLE, n), n


def test_mu_alpha_multiplicative():
    for m in range(1, 61):
        for n in range(1, 61):
            if math.gcd(m, n) == 1:
                assert closed_mu_alpha(m * n) == \
                    closed_mu_alpha(m) * closed_mu_alpha(n)


def test_non_multiplicativity_witnesses():
    assert closed_mu_alpha2(6) == -1
    assert closed_mu_alpha2(6) != closed_mu_alpha2(2) * closed_mu_alpha2(3)
    assert closed_mu_alpha3(6) == -1
    assert closed_mu_alpha3(6) != closed_mu_alpha3(2) * closed_mu_alpha3(3)
    assert closed_lambda_alpha(12) == 2
    assert closed_lambda_alpha(12) != \
        closed_lambda_alpha(4) * closed_lambda_alpha(3)


def test_delta23_consistency():
    assert closed_delta23(4) == -1
    assert closed_delta23(6) == 0
    assert closed_delta23(8) == 1
    for n in range(1, 201):
        delta = closed_delta23(n)
        assert delta == closed_mu_alpha2(n) - closed_mu_alpha3(n)
        if n % 4:
            assert delta == 0


def test_deeper_iterates_hit_the_fixed_point():
    for n in range(1, 21):
        assert alpha_contract_iter(MU, 4, n) == alpha_contract_iter(MU, 3, n)


def test_closed_forms_match_the_dilation_form():
    # the paper's case tables against the forms derived by pull-back, and
    # the iterates at depths 4 to 6 against depth 3
    for name, (closed, modulus, cases) in PAPER_CASE_TABLES.items():
        for n in range(1, 5001):
            assert closed(n) == case_table_value(modulus, cases, n), (name, n)
    # each form is the pull-back of the one before, up to the fixed point
    forms = (Dilation({1: 1}), MU_ALPHA, MU_ALPHA2, MU_ALPHA3, MU_ALPHA3)
    for form, pulled in zip(forms, forms[1:]):
        assert form.pull_back().weights == pulled.weights
    assert len(MU_ITERATES) == 3
    # past the fixed point, as deep as 5000, the iterate read is μ_α³
    for k in (4, 5, 6, 5000):
        for n in range(1, 61):
            assert alpha_contract_iter(MU, k, n) == closed_mu_alpha3(n), (k, n)


def test_derived_forms_and_their_polynomials():
    assert MU_ALPHA.weights == {1: 1, 2: 1}
    assert MU_ALPHA2.weights == {1: 1, 2: 1, 3: 1}
    assert MU_ALPHA3.weights == {1: 1, 2: 1, 3: 1, 4: 1}
    # ζ(s)·D(s) of the paper's Euler products
    for s in (2.0, 3.0, 2.5):
        assert MU_ALPHA.polynomial(s) == 1 + 2 ** -s
    assert abs(MU_ALPHA3.polynomial(2) - 205 / 144) < 1e-15
    assert abs(LAMBDA_ALPHA.polynomial(2) - (1 + 1 / 4 + 1 / 144)) < 1e-15
    assert DELTA23.polynomial(2) == -1 / 16


# the closed forms beside their Dilations, and a form with coefficients of
# both signs and of sizes other than 1, on dilates that share multiples
EXTRA_FORM = Dilation({1: 2, 2: -1, 4: 3, 6: 1, 8: 1, 9: -2})
READER_CASES = ((MU_ALPHA, closed_mu_alpha), (MU_ALPHA2, closed_mu_alpha2),
                (MU_ALPHA3, closed_mu_alpha3),
                (LAMBDA_ALPHA, closed_lambda_alpha),
                (DELTA23, closed_delta23), (EXTRA_FORM, EXTRA_FORM.at))


@pytest.mark.parametrize("n_max", [12, 13, 47, 5000, 50_000])
def test_whole_array_reader_matches_the_scalar_closed_forms(n_max):
    for form, closed in READER_CASES:
        values = form.values(mu_sieve(n_max))
        assert len(values) == n_max
        for n in range(1, n_max + 1):
            assert values[n - 1] == closed(n), (form.weights, n)


def test_whole_array_reader_across_its_blocks():
    # N = 2·_BLOCK + 3 ends 3 values into a third block of the reader: f is
    # read against the scalar form on 600 n each side of each block edge,
    # and summed against Σ_{n≤N} f(n) = Σ_j c_j·M(N/j) over all of them
    block = contraction._BLOCK
    n_max = 2 * block + 3
    mu = mu_sieve(n_max)
    near_edges = [n for edge in (0, block, 2 * block)
                  for n in range(max(edge - 599, 1), min(edge + 601, n_max + 1))]
    for form, closed in READER_CASES:
        values = form.values(mu)
        assert len(values) == n_max
        for n in near_edges:
            assert values[n - 1] == closed(n), (form.weights, n)
        assert sum(values) == sum(c * mertens(n_max // j)
                                  for j, c in form.weights.items())


def test_whole_array_reader_refuses_values_past_a_signed_byte():
    # Σ|c_j| = 127 still fits a signed byte at every n; 128 may not
    fits = Dilation({1: 100, 2: -27})
    assert list(fits.values(mu_sieve(50))) == [fits.at(n) for n in range(1, 51)]
    with pytest.raises(ValueError, match="signed byte"):
        Dilation({1: 100, 2: -28}).values(mu_sieve(50))


def test_dilation_form_reads_mu_of_the_quotient():
    # on carried factors, against Σ c·μ(d/m) over plain-int quotients
    for iterate in (MU_ALPHA, MU_ALPHA2, MU_ALPHA3):
        for n in range(1, 61):
            for d in divisors(fib_factorization(n)):
                literal = sum(c * mobius(int(d) // m)
                              for m, c in iterate.weights.items()
                              if d % m == 0)
                assert iterate.at(d) == literal, (iterate.weights, n, d)


def test_mu_iterate_is_built_once_per_depth(monkeypatch):
    # the iterates are derived at import, so every call, the first included,
    # factors only its index, for contributors, and no dilate
    calls = []
    original = contraction.factorize
    monkeypatch.setattr(contraction, "factorize",
                        lambda n: calls.append(n) or original(n))
    alpha_contract_iter(MU, 3, 10)
    alpha_contract_iter(MU, 3, 12)
    assert calls == [10, 12]


FIBONACCI_VALUES = {1, 2, 3, 5, 8}   # those up to 8


def test_fixed_points_and_kernel_of_the_pull_back():
    # every c on 1..8 with values in {−1, 0, 1}, pulled back exactly.  The
    # components of k ↦ F(k) are {1, 2, 3, 4}, {5} and one infinite chain
    # through each k ≥ 6, so a finitely supported c is fixed iff it is
    # constant on {1, 2, 3, 4} and 0 from 6 on; it is killed iff it is 0 on
    # the Fibonacci values.
    support = range(1, 9)
    for values in product((-1, 0, 1), repeat=len(support)):
        c = dict(zip(support, values))
        form = Dilation(c)
        pulled = form.pull_back().weights
        fixed = (c[1] == c[2] == c[3] == c[4]
                 and not any(c[k] for k in support if k >= 6))
        assert (pulled == form.weights) == fixed, c
        assert (pulled == {}) == (not any(c[v] for v in FIBONACCI_VALUES)), c
    assert Dilation({}).pull_back().weights == {}
    assert DELTA23.pull_back().weights == {}
    assert MU_ALPHA3.pull_back().weights == MU_ALPHA3.weights


# random finite forms: support in 1..24, coefficients in −3..3
WEIGHT_MAPS = st.dictionaries(st.integers(1, 24), st.integers(-3, 3),
                              max_size=8)


@pytest.mark.parametrize("block", [1, 7, 64, contraction._BLOCK])
@settings(max_examples=40, deadline=None)
@given(WEIGHT_MAPS, st.integers(1, 3000))
def test_whole_array_reader_matches_at_on_random_forms(block, weights, n_max):
    # small blocks put the block edges among the multiples of every dilate
    form = Dilation(weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contraction, "_BLOCK", block)
        values = form.values(mu_sieve(n_max))
    assert list(values) == [form.at(n) for n in range(1, n_max + 1)]


@settings(max_examples=40, deadline=None)
@given(WEIGHT_MAPS)
def test_pull_back_is_the_literal_contraction_on_random_forms(weights):
    form = Dilation(weights)
    pulled = form.pull_back()
    f = ArithFn(f"dilation{weights}", form.at)
    for n in range(1, 61):
        assert pulled.at(n) == alpha_contract(f, n), n


def literal_rank_divisors(n):
    """The divisors of F(n) of rank n by the literal filter, one rank test
    per divisor, and none of the tagged halves."""
    index = factorize(n)
    return [d for d in divisors(fib_factorization(n))
            if divisor_has_rank(d, index)]


@pytest.fixture(scope="module")
def literal_to_60():
    return {n: literal_rank_divisors(n) for n in range(1, 61)}


@settings(max_examples=40, deadline=None)
@given(WEIGHT_MAPS)
def test_halves_contraction_is_the_literal_sum_on_random_forms(literal_to_60,
                                                               weights):
    form = Dilation(weights)
    pulled = form.pull_back()
    for n, literal in literal_to_60.items():
        literal_sum = sum(map(form.at, literal))
        assert form.contract(n) == literal_sum == pulled.at(n), n


def test_halves_contraction_of_every_tower_form_to_120():
    # every form of both towers, the kernel element Δ₂₃ and the fixed point
    # 1_{5}, at each n up to the index cap
    forms = [*TOWERS[MU], *TOWERS[LIOUVILLE], DELTA23, Dilation({5: 1})]
    forms = {tuple(form.weights.items()): form for form in forms}.values()
    pulled = [form.pull_back() for form in forms]
    for n in range(1, 121):
        literal = literal_rank_divisors(n)
        for form, pulled_form in zip(forms, pulled):
            assert form.contract(n) == sum(map(form.at, literal)) == \
                pulled_form.at(n), (form.weights, n)


def test_multiplicative_depth_one_sums_on_the_halves(monkeypatch):
    # each CONTRACTIBLE f is MULTIPLICATIVE, f(a·b) = f(a)·f(b) on F(n)'s
    # coprime halves, so `contract f 1` is summed per tag and makes no
    # rank-n divisor; a look-alike named mu and a μ iterate are not looked
    # up, and take the stream
    literal = {n: literal_rank_divisors(n) for n in range(1, 121)}
    streamed = []
    original = contraction._rank_stream
    monkeypatch.setattr(contraction, "_rank_stream",
                        lambda n: streamed.append(n) or original(n))
    for name in CONTRACTIBLE:
        f = NAMED_FUNCTIONS[name]
        assert f in MULTIPLICATIVE
        assert [alpha_contract_iter(f, 1, n) for n in literal] == \
            [sum(map(f.fn, ds)) for ds in literal.values()], name
    assert streamed == []
    impostor, iterate = ArithFn("mu", mobius), MU_ITERATES[1]
    assert alpha_contract_iter(impostor, 1, 30) == \
        sum(map(mobius, literal[30]))
    assert alpha_contract_iter(iterate, 1, 12) == \
        sum(map(iterate.fn, literal[12]))
    assert streamed == [30, 12]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.data())
def test_tag_sum_of_a_random_multiplicative_function(literal_to_60, n, data):
    # f is drawn on the prime powers it reads, in -3..3, and f(1) = 1
    values = {}

    def f(d):
        for power in d.factors:
            if power not in values:
                values[power] = data.draw(st.integers(-3, 3), label=f"f{power}")
        return math.prod(values[power] for power in d.factors)

    assert contraction._tag_sum(contraction._rank_halves(n), f, f) == \
        sum(map(f, literal_to_60[n]))


def test_tower_contraction_past_the_index_cap_factors_nothing(monkeypatch):
    # F(130) is refused before any F(130/q) enters the memo
    monkeypatch.setattr(fib_module, "FIB_FACTORS", {})
    with pytest.raises(BudgetExceededError, match="F\\(130\\)"):
        alpha_contract_iter(MU, 3, 130)
    assert fib_module.FIB_FACTORS == {}


FIBONACCI_VALUES_TO_24 = {1, 2, 3, 5, 8, 13, 21}
# a fixed form a·1_{1,2,3,4} + b·1_{5}, with at most one entry drawn anew
NEAR_FIXED_MAPS = st.builds(
    lambda a, b, change: {1: a, 2: a, 3: a, 4: a, 5: b, **change},
    st.integers(-3, 3), st.integers(-3, 3),
    st.dictionaries(st.integers(1, 24), st.integers(-3, 3), max_size=1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(WEIGHT_MAPS, NEAR_FIXED_MAPS))
def test_fixed_points_and_kernel_on_random_forms(weights):
    # the component rule of test_fixed_points_and_kernel_of_the_pull_back
    form = Dilation(weights)
    c = form.weights   # with the zero coefficients dropped
    pulled = form.pull_back().weights
    fixed = (len({c.get(k, 0) for k in (1, 2, 3, 4)}) == 1
             and all(k < 6 for k in c))
    killed = not FIBONACCI_VALUES_TO_24 & c.keys()
    assert (pulled == c) == fixed
    assert (pulled == {}) == killed


def test_fixed_points_and_kernel_on_the_literal_path():
    # μ(n/5)·[5 | n] is the fixed point besides μ_α³; Δ₂₃ = −1_{4} and
    # 1_{6} lie in the kernel
    for c, fixed in (({5: 1}, True), ({4: -1}, False), ({6: 1}, False)):
        form = Dilation(c)
        f = ArithFn(f"dilation{c}", form.at)
        for n in range(1, 121):
            assert alpha_contract(f, n) == (form.at(n) if fixed else 0), (c, n)


def test_streamed_contraction_equals_the_sum_over_contributors():
    fns = [NAMED_FUNCTIONS[name] for name in CONTRACTIBLE] + list(MU_ITERATES)
    for n in range(1, 121):
        listed = contributors(n)
        for f in fns:
            assert alpha_contract(f, n) == sum(map(f.fn, listed)), (
                f.name, n)


def test_contraction_holds_no_list_of_contributors():
    # F(120) has 36,864 divisors, about 12.6 MB as a list of Factorizations;
    # the generic path and the tower form hold only its 288 + 128 halves
    for contract in (lambda: alpha_contract(MU_ITERATES[1], 120),
                     lambda: MU_ALPHA2.contract(120)):
        expected = contract()   # the memo is warm from here on
        tracemalloc.start()
        try:
            assert contract() == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_level_by_level_contraction_equals_the_nested_sum():
    # F(144) is past the index cap from n = 12 on
    for f in (ONE, PHI):
        for n in range(1, 12):
            assert alpha_contract_iter(f, 2, n) == sum(
                alpha_contract(f, m) for m in contributors(n)), (f.name, n)


def test_generic_deep_iteration_exceeds_budget():
    # non-mu inner levels recurse literally; contributors of 40 include
    # values whose Fibonacci numbers are far beyond factoring scale
    with pytest.raises(BudgetExceededError):
        alpha_contract_iter(PHI, 2, 40)


def test_contraction_refuses_mangoldt():
    # Λ is carried as its base e^Λ, so a sum of its values is no log: at 6,
    # T would be 22 = Σ e^Λ, not log 240
    # at depth ≥ 2 before any contributor is listed: F(2) = 1 has none, and
    # 7 → 13 → 233 would reach F(233), past the index cap
    for call in (lambda: alpha_contract(MANGOLDT, 6),
                 lambda: alpha_contract_iter(MANGOLDT, 1, 6),
                 lambda: alpha_contract_iter(MANGOLDT, 2, 6),
                 lambda: alpha_contract_iter(MANGOLDT, 2, 2),
                 lambda: alpha_contract_iter(MANGOLDT, 4, 7),
                 lambda: summatory_T(MANGOLDT, 6),
                 lambda: summatory_S(MANGOLDT, 6)):
        with pytest.raises(ValueError, match="base e\\^Λ"):
            call()


def test_summatory_T_examples():
    assert summatory_T(MU, 1.5) == 1
    assert summatory_T(MU, 10) == 2
    assert _mangoldt_T(6) == 240  # 1·1·2·3·5·8


# Λ is carried as its base e^Λ, so its summatory functions are read as the
# products whose logs they are: T by the divisor sums of summatory_T, S by
# the contractions of summatory_S.
def _mangoldt_T(x: int) -> int:
    return math.prod(MANGOLDT(d) for n in range(1, x + 1)
                     for d in divisors(fib_factorization(n)))


def _mangoldt_S(x: int) -> int:
    return math.prod(map(_mangoldt_alpha, range(1, x + 1)))


def _mangoldt_alpha(n: int) -> int:
    return math.prod(map(MANGOLDT, contributors(n)))


def test_mangoldt_summatory_T_is_the_fibonacci_product():
    prod = 1
    for x in range(1, 61):
        prod *= fib(x)
        assert _mangoldt_T(x) == prod, x


def test_mangoldt_summatory_S_is_the_fibonacci_lcm():
    for x in range(1, 61):
        assert _mangoldt_S(x) == lcm_fib(x), x


def test_mangoldt_contraction_products_multiply_to_lcm():
    prod = 1
    for n in range(1, 31):
        prod *= _mangoldt_alpha(n)
    assert prod == lcm_fib(30)


def test_summatory_S_examples():
    assert _mangoldt_S(5) == 30  # lcm(1,1,2,3,5)
    assert summatory_S(MU, 4) == mertens(4) + mertens(2) == -1
    assert summatory_S(PHI, 1) == 1


def test_plain_summatory_matches_mertens_pair():
    for x in range(1, 51):
        assert summatory_S(MU, x) == mertens(x) + mertens(x / 2), x


def test_inversion_examples():
    table = summatory_values(summatory_T, MU, 6)
    assert invert_T_to_S(table, 4) == -1
    assert invert_T_to_S(table, 1) == 1
    # the once-contracted mu, evaluated by the divisor-sum oracle
    mu_alpha_direct = ArithFn("mu_alpha_direct", lambda d: alpha_contract(MU, d))
    table2 = summatory_values(summatory_T, mu_alpha_direct, 6)
    value = invert_T_to_S(table2, 6)
    assert value == -2  # equals M(6) + M(3) + M(2)
    assert value == mertens(6) + mertens(3) + mertens(2)
    assert value == sum(alpha_contract_iter(MU, 2, n) for n in range(1, 7))


def test_inversion_round_trip():
    for f in (MU, PHI, LIOUVILLE):
        table = summatory_values(summatory_T, f, 30)
        for x in range(1, 31):
            assert invert_T_to_S(table, x) == summatory_S(f, x), (f.name, x)


def test_T_is_the_divisor_coarsening_of_S():
    for f in (MU, PHI, LIOUVILLE):
        s_table = summatory_values(summatory_S, f, 25)
        for x in range(1, 26):
            total = sum(s_table[x // n] for n in range(1, x + 1)
                        if x // n >= 1)
            assert total == summatory_T(f, x), (f.name, x)
