import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import B2_B, B2_LAMBDA, LADDER, a2_gold, elem, principal_framings
from qcluster import build_exchange_graph, make_seed, opposite_seed, pointed
from qcluster._linalg import mat_vec
from qcluster.leclerc import CandidateBasis, verify_theorem
from oracles import Bidegree, bidegree, normalize_at, normalize_deg, to_nform
from qcluster.pointed import (
    NForm,
    NonUnitLeading,
    codegree,
    decompose,
    degree,
    dominance_leq,
    dominance_n,
    interval,
    is_m_unitriangular,
)
from qcluster.qtorus import NotDivisible, QTElem, VCoeff, exact_divide, twisted_mul, vec_add


def rand_vec(rng, n, lo=-4, hi=4):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_dominance_examples(a2_seed):
    assert dominance_leq(a2_seed, (0, -1), (1, -1))
    assert dominance_n(a2_seed, (0, -1), (1, -1)) == (0, 1)
    assert dominance_leq(a2_seed, (1, 0), (1, 0))
    assert not dominance_leq(a2_seed, (1, 0), (0, 1))


def test_dominance_partial_order(a2_seed, b2_seed, a3_seed):
    rng = random.Random(21)
    for s in (a2_seed, b2_seed, a3_seed):
        for _ in range(120):
            a, b, c = (rand_vec(rng, s.n, -3, 3) for _ in range(3))
            assert dominance_leq(s, a, a)
            if dominance_leq(s, a, b) and dominance_leq(s, b, a):
                assert a == b
            if dominance_leq(s, a, b) and dominance_leq(s, b, c):
                assert dominance_leq(s, a, c)


def test_dominance_matches_bruteforce(a2_seed, b2_seed, a3_seed):
    rng = random.Random(22)
    for s in (a2_seed, b2_seed, a3_seed):
        for _ in range(80):
            g = rand_vec(rng, s.n, -3, 3)
            gp = rand_vec(rng, s.n, -3, 3)
            assert dominance_leq(s, gp, g) == oracles.brute_dominance_leq(
                s.B, s.unfrozen, gp, g
            )


def test_interval_matches_bruteforce(a2_seed, b2_seed):
    rng = random.Random(23)
    for s in (a2_seed, b2_seed):
        for _ in range(40):
            g = rand_vec(rng, s.n, -2, 2)
            nvec = tuple(rng.randint(0, 3) for _ in s.unfrozen)
            lo = tuple(
                g[i] + sum(s.B[i][c] * nvec[c] for c in range(len(nvec)))
                for i in range(s.n)
            )
            got = interval(s, lo, g)
            want = oracles.brute_interval(s.B, s.unfrozen, lo, g)
            assert got == want
            assert len(got) > 0


def test_dominance_flips_in_opposite_seed(a2_seed, b2_seed):
    rng = random.Random(24)
    for s in (a2_seed, b2_seed):
        op = opposite_seed(s)
        for _ in range(60):
            a, b = rand_vec(rng, s.n), rand_vec(rng, s.n)
            assert dominance_leq(s, a, b) == dominance_leq(op, b, a)


def test_degree_codegree_examples(a2_seed):
    p1 = a2_gold("P1")
    assert degree(a2_seed, p1) == (0, -1)
    assert codegree(a2_seed, p1) == (-1, 0)
    assert bidegree(a2_seed, a2_gold("P2")) == Bidegree((1, -1), (0, -1))
    assert bidegree(a2_seed, a2_gold("I1")) == Bidegree((-1, 0), (-1, 1))
    m = QTElem.monomial((2, -3))
    assert degree(a2_seed, m) == (2, -3) == codegree(a2_seed, m)


def test_f1_f2_support_is_a_chain(a2_seed):
    # f2 = f1 + B(1,1), so this support is comparable after all
    z = QTElem.monomial((1, 0)) + QTElem.monomial((0, 1))
    assert degree(a2_seed, z) == (1, 0)
    assert codegree(a2_seed, z) == (0, 1)


def test_no_degree_for_incomparable_support(a2_seed):
    # (1,1) vs (0,0): neither difference lies in the dominance cone
    assert not dominance_leq(a2_seed, (1, 1), (0, 0))
    assert not dominance_leq(a2_seed, (0, 0), (1, 1))
    z = QTElem.monomial((1, 1)) + QTElem.one(2)
    assert degree(a2_seed, z) is None
    assert codegree(a2_seed, z) is None


def test_degree_of_zero_raises(a2_seed):
    with pytest.raises(ValueError):
        degree(a2_seed, QTElem.zero(2))


def test_pointed_iff_opposite_copointed(a2_seed):
    op = opposite_seed(a2_seed)
    for name in ("P1", "P2", "I1", "[X1*I2]"):
        z = a2_gold(name)
        assert degree(a2_seed, z) == codegree(op, z)
        assert codegree(a2_seed, z) == degree(op, z)


def test_normalize_golden_products(a2_seed):
    lam = a2_seed.Lambda
    x1, x2 = QTElem.monomial((1, 0)), QTElem.monomial((0, 1))
    i2, p1, p2 = a2_gold("P1"), a2_gold("P1"), a2_gold("P2")
    assert normalize_deg(a2_seed, twisted_mul(x1, i2, lam)) == a2_gold("[X1*I2]")
    # copointed normalization is normalize_deg in the opposite seed
    assert normalize_deg(opposite_seed(a2_seed), twisted_mul(p1, x1, lam)) == a2_gold("{P1*X1}")
    m = QTElem.monomial((3, 1))
    assert normalize_deg(a2_seed, m.vshift(4)) == m


def test_normalize_non_unit_leading(a2_seed):
    z = QTElem.monomial((1, 0), VCoeff({0: 2}))
    with pytest.raises(NonUnitLeading):
        normalize_deg(a2_seed, z)
    z2 = QTElem.monomial((0, 1), VCoeff({0: 2})) + QTElem.monomial((1, 0))
    with pytest.raises(NonUnitLeading):
        normalize_deg(opposite_seed(a2_seed), z2)


def _a2_basis():
    return {
        (0, 0): QTElem.one(2),
        (1, 0): a2_gold("X1"),
        (0, 1): a2_gold("X2"),
        (1, -1): a2_gold("P2"),
        (0, -1): a2_gold("P1"),
        (-1, 0): a2_gold("I1"),
    }


def _a2_cobasis():
    return {
        (0, 0): QTElem.one(2),
        (1, 0): a2_gold("X1"),
        (0, 1): a2_gold("X2"),
        (0, -1): a2_gold("P2"),
        (-1, 0): a2_gold("P1"),
        (-1, 1): a2_gold("I1"),
    }


def test_decompose_golden(a2_seed):
    z = a2_gold("[X1*I2]")
    window = Bidegree(deg=(1, -1), codeg=(-1, 0))
    d = oracles.n_form_decompose(a2_seed, z, _a2_basis(), window)
    assert d.is_exact
    assert sorted(d.terms) == [((0, 0), VCoeff({-1: 1})), ((1, -1), VCoeff.one())]
    assert is_m_unitriangular(d, (1, -1))
    z2 = a2_gold("[X2*I2]")
    d2 = oracles.n_form_decompose(a2_seed, z2, _a2_basis(), Bidegree(deg=(0, 0), codeg=(-1, 1)))
    assert sorted(d2.terms) == [((-1, 0), VCoeff({-1: 1})), ((0, 0), VCoeff.one())]


def test_decompose_basis_element_is_single_term(a2_seed):
    d = oracles.n_form_decompose(
        a2_seed, a2_gold("P2"), _a2_basis(), Bidegree(deg=(1, -1), codeg=(0, -1))
    )
    assert d.is_exact and d.terms == [((1, -1), VCoeff.one())]
    assert is_m_unitriangular(d, (1, -1))


def test_decompose_co_golden(a2_seed):
    # co-decomposition is decompose in the opposite seed, window ends traded
    op = opposite_seed(a2_seed)
    z = a2_gold("{P1*X2}")
    d = oracles.n_form_decompose(op, z, _a2_cobasis(), Bidegree(deg=(-1, 1), codeg=(0, 0)))
    assert d.is_exact
    assert sorted(d.terms) == [((-1, 1), VCoeff.one()), ((0, 0), VCoeff({-1: 1}))]
    assert is_m_unitriangular(d, (-1, 1))
    z2 = a2_gold("{P2*X2}")
    d2 = oracles.n_form_decompose(op, z2, _a2_cobasis(), Bidegree(deg=(0, 0), codeg=(1, 0)))
    assert sorted(d2.terms) == [((0, 0), VCoeff.one()), ((1, 0), VCoeff({-1: 1}))]
    assert is_m_unitriangular(d2, (0, 0))


def test_decompose_missing_basis_element(a2_seed):
    basis = {(1, -1): a2_gold("P2")}
    z = a2_gold("[X1*I2]")
    d = oracles.n_form_decompose(a2_seed, z, basis, Bidegree(deg=(1, -1), codeg=(-1, 0)))
    assert not d.is_exact
    assert "no basis element" in d.reason


def test_decompose_window_escape(a2_seed):
    z = a2_gold("[X1*I2]")
    d = oracles.n_form_decompose(a2_seed, z, _a2_basis(), Bidegree(deg=(1, -1), codeg=(1, -1)))
    assert not d.is_exact
    assert "window" in d.reason


def test_decompose_roundtrip_and_uniqueness(a2_seed):
    rng = random.Random(25)
    basis = _a2_basis()
    z = a2_gold("[X1*I2]")
    window = Bidegree(deg=(1, -1), codeg=(-1, 0))
    base = oracles.n_form_decompose(a2_seed, z, basis, window)
    assert oracles.recompose(base, basis, 2) == z
    for _ in range(10):
        d = oracles.n_form_decompose(a2_seed, z, basis, window, tie_break=rng.choice)
        assert d.is_exact
        assert sorted(d.terms) == sorted(base.terms)


def test_is_m_unitriangular_rejects_positive_exponents():
    from qcluster.pointed import Decomposition

    d = Decomposition(terms=[((1, 0), VCoeff.one()), ((0, 0), VCoeff({1: 1}))])
    assert not is_m_unitriangular(d, (1, 0))
    d2 = Decomposition(terms=[((1, 0), VCoeff.one())])
    assert is_m_unitriangular(d2, (1, 0))


# -- the codegree side against direct scans (normalize, decompose: opposite seed) --

_COEFF = st.builds(
    lambda e, c: VCoeff({e: c}), st.integers(-2, 2), st.sampled_from((-2, -1, 1, 2)))


def _exponents(seed):
    return st.tuples(*[st.integers(-2, 2)] * seed.n)


def _steps(seed):
    return st.tuples(*[st.integers(0, 2)] * len(seed.unfrozen))


@st.composite
def seeded_elements(draw):
    """A random principal framing and a small element of its torus: a few
    exponents on one side of a base point in dominance order, plus at
    most one arbitrary exponent."""
    seed = draw(principal_framings())
    base = draw(_exponents(seed))
    side = draw(st.sampled_from((1, -1)))
    exps = [base]
    for n in draw(st.lists(_steps(seed), max_size=3)):
        exps.append(vec_add(base, tuple(side * x for x in mat_vec(seed.B, n))))
    exps += draw(st.lists(_exponents(seed), max_size=1))
    return seed, QTElem(seed.n, {m: draw(_COEFF) for m in exps})


class ExtremalFamily:
    """Keyed elements X^g + v^-1 X^(g + side B e_k), with the unfrozen
    column k picked from g: pointed and keyed by degree for side 1,
    copointed and keyed by codegree for side -1; none at the missing
    keys. Resolved on lookup, like a window."""

    def __init__(self, seed, side, missing=()):
        self.seed = seed
        self.side = side
        self.missing = set(missing)

    def member(self, g):
        col = sum(g) % len(self.seed.unfrozen)
        tail = tuple(x + self.side * row[col] for x, row in zip(g, self.seed.B))
        return QTElem(self.seed.n, {g: VCoeff.one(), tail: VCoeff({-1: 1})})

    def get(self, g):
        return None if g in self.missing else self.member(g)


@st.composite
def decompositions(draw, side, coset=False):
    """(seed, z, basis, window) for elimination from the top (side 1) or
    from the bottom (side -1): z combines family members keyed inside the
    window, with coefficient 1 at the end the elimination starts from,
    plus at most one stray monomial anywhere (with coset, anywhere in
    start + B Z^k, where an n-form holds it) and at most one beyond that
    end; at most one of the keys may be missing from the basis."""
    seed = draw(principal_framings())
    start = draw(_exponents(seed))
    box = draw(_steps(seed))

    def step(n, sign=1):
        return vec_add(start, tuple(sign * side * x for x in mat_vec(seed.B, n)))

    far = step(box)
    window = Bidegree(deg=start, codeg=far) if side == 1 else Bidegree(deg=far, codeg=start)
    inside = st.tuples(*(st.integers(0, b) for b in box))
    keys = [start] + [step(n) for n in draw(st.lists(inside, max_size=3))]
    basis = ExtremalFamily(seed, side, draw(st.sets(st.sampled_from(keys), max_size=1)))
    z = basis.member(start)
    for g in keys[1:]:
        z = z + basis.member(g).scale(draw(_COEFF))
    if coset:
        anywhere = st.tuples(*[st.integers(-2, 2)] * len(seed.unfrozen)).map(step)
    else:
        anywhere = _exponents(seed)
    strays = draw(st.lists(anywhere, max_size=1))
    strays += [step(n, -1) for n in draw(st.lists(_steps(seed), max_size=1))]
    for m in strays:
        z = z + QTElem.monomial(m, draw(_COEFF))
    return seed, z, basis, window


@settings(max_examples=100, deadline=None)
@given(seeded_elements())
def test_codegree_matches_direct_scan(case):
    seed, z = case
    eta = oracles.direct_codegree(seed, z)
    assert codegree(seed, z) == eta
    if eta is not None and z.terms[eta].is_unit():
        assert normalize_deg(opposite_seed(seed), z) == z.scale(z.terms[eta].unit_inverse())
    else:
        with pytest.raises(NonUnitLeading):
            normalize_deg(opposite_seed(seed), z)


# The exponent-space decomposition (oracles.subtracting_decompose) takes
# any torus element; the n-form one takes those an n-form holds, and must
# agree with it there.

@settings(max_examples=100, deadline=None)
@given(decompositions(-1), st.booleans())
def test_decompose_co_matches_direct_scan(case, largest_first):
    seed, z, basis, window = case
    tie_break = (lambda keys: keys[-1]) if largest_first else None
    flipped = Bidegree(deg=window.codeg, codeg=window.deg)
    want = oracles.direct_decompose_co(seed, z, basis, window, tie_break)
    op = opposite_seed(seed)
    assert oracles.subtracting_decompose(op, z, basis, flipped, tie_break) == want
    got = oracles.n_form_decompose(op, z, basis, flipped, tie_break)
    assert got is None or got == want
    if want.is_exact:
        assert oracles.recompose(want, basis, seed.n) == z


@settings(max_examples=200, deadline=None)
@given(decompositions(1), st.booleans())
def test_decompose_matches_pairwise_scan(case, largest_first):
    seed, z, basis, window = case
    tie_break = (lambda keys: keys[-1]) if largest_first else None
    want = oracles.direct_decompose(seed, z, basis, window, tie_break)
    assert oracles.subtracting_decompose(seed, z, basis, window, tie_break) == want
    got = oracles.n_form_decompose(seed, z, basis, window, tie_break)
    assert got is None or got == want
    if want.is_exact:
        assert oracles.recompose(want, basis, seed.n) == z


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, -1)).flatmap(lambda side: st.tuples(
    st.just(side), decompositions(side, coset=True))), st.booleans())
def test_n_form_decompose_matches_the_exponent_space_one(case, largest_first):
    # every stray in the coset, above the start and beyond the far end
    # too: the n-form decomposition runs on every input and agrees
    side, (seed, z, basis, window) = case
    tie_break = (lambda keys: keys[-1]) if largest_first else None
    if side == -1:
        seed, window = opposite_seed(seed), Bidegree(deg=window.codeg, codeg=window.deg)
    got = oracles.n_form_decompose(seed, z, basis, window, tie_break)
    assert got is not None
    assert got == oracles.subtracting_decompose(seed, z, basis, window, tie_break)


@settings(max_examples=100, deadline=None)
@given(seeded_elements())
def test_dominance_matches_fraction_data(case):
    # the closed-form projection against the rational solves it replaced,
    # on both sides of the order
    seed, z = case
    for s in (seed, opposite_seed(seed)):
        assert degree(s, z) == oracles.fraction_degree(s, z)
        for gp in z.terms:
            for g in z.terms:
                assert dominance_n(s, gp, g) == oracles.fraction_dominance_n(s, gp, g)


# -- one-pass measures and the in-place residual, against what they replaced --

class _DoubledAt:
    """2 X^g at every key: a residual term at g never cancels."""

    def get(self, g):
        return QTElem.monomial(g, VCoeff({0: 2}))


@pytest.mark.parametrize("basis, window, reason", [
    ({(1, -1): a2_gold("P2")}, Bidegree(deg=(1, -1), codeg=(-1, 0)), "no basis element keyed"),
    (_a2_basis(), Bidegree(deg=(1, -1), codeg=(1, -1)), "escapes the window"),
    (_DoubledAt(), Bidegree(deg=(1, -1), codeg=(-1, 0)), "iteration cap hit"),
], ids=["missing", "window", "cap"])
def test_each_indeterminate_reason_matches_the_subtracting_residual(
        a2_seed, basis, window, reason, monkeypatch):
    monkeypatch.setattr(pointed, "DECOMPOSE_ITERATION_CAP", 7)
    z = a2_gold("[X1*I2]")
    for tie_break in (None, lambda keys: keys[-1]):
        got = oracles.n_form_decompose(a2_seed, z, basis, window, tie_break)
        assert not got.is_exact and reason in got.reason
        assert got == oracles.subtracting_decompose(a2_seed, z, basis, window, tie_break)


@settings(max_examples=200, deadline=None)
@given(seeded_elements())
def test_each_end_matches_the_pairwise_scans(case):
    # the degree's one rank scan, and the codegree as the degree in the
    # opposite seed, against the pairwise scans
    seed, z = case
    d, c = degree(seed, z), codegree(seed, z)
    highs = oracles.maximal_support(seed, list(z.terms))
    assert d == (highs[0] if len(highs) == 1 else None)
    assert c == oracles.direct_codegree(seed, z)
    assert bidegree(seed, z) == (None if d is None or c is None else Bidegree(d, c))


def test_each_end_ambiguous_alone(a2_seed):
    # two incomparable exponents above (0, 0), then below it
    below = elem(2, {(0, -1): 1, (1, 0): 1, (0, 0): 1})
    above = elem(2, {(0, 1): 1, (-1, 0): 1, (0, 0): 1})
    for z, want in ((below, (None, (0, 0))), (above, ((0, 0), None))):
        assert (degree(a2_seed, z), codegree(a2_seed, z)) == want
        assert want == (degree(a2_seed, z), degree(opposite_seed(a2_seed), z))
        assert bidegree(a2_seed, z) is None


def test_normalize_at_returns_a_pointed_element_itself(a2_seed):
    # nothing is copied when the coefficient is already 1; a unit other
    # than 1 still divides
    for name in ("P1", "I1", "[X1*I2]"):
        z = a2_gold(name)
        assert normalize_at(z, degree(a2_seed, z)) is z
        for c in (VCoeff({3: 1}), VCoeff({-1: -1})):
            got = normalize_at(z.scale(c), degree(a2_seed, z))
            assert got == z and got is not z


# -- n-coordinates: products never projected, against the torus --

# non-unit D (B2, G2) and a weighted frozen vertex, whose exponents may be
# negative, next to random principal framings
_NFORM_SEEDS = (
    make_seed(B2_B, B2_LAMBDA),
    make_seed(((0, -3), (1, 0))),
    make_seed(((0, -1), (1, 0), (1, 1)), unfrozen=(0, 1)),
)


_MULTI_COEFF = st.dictionaries(st.integers(-2, 2), st.sampled_from((-2, -1, 1, 2)),
                               min_size=2, max_size=3).map(VCoeff)

# (side, at n = 0, unit coefficient) of an explicit one-term factor
_ONE_TERM = list(itertools.product(("left", "right"), (True, False), (True, False)))


@st.composite
def nform_products(draw, pointed_only, pointed_right=False, one_term=None):
    """(seed, a, b): two small NForms of one seed. With pointed_only, no n
    is negative and the coefficient at n = 0 is a unit; with
    pointed_right, so for b alone. With one_term = (side, at_zero, unit)
    the factor on that side ("left" or "right") is one term instead: at
    n = 0 or at a nonzero n >= 0, with a unit coefficient or a
    multi-term one, and the other factor's coefficients may be multi-term
    too."""
    seed = draw(st.one_of(st.sampled_from(_NFORM_SEEDS), principal_framings()))
    k = len(seed.unfrozen)
    coeffs = _COEFF if one_term is None else st.one_of(_COEFF, _MULTI_COEFF)

    def draw_nform(unit_at_zero):
        low = 0 if unit_at_zero else -1
        terms = draw(st.dictionaries(st.tuples(*[st.integers(low, 2)] * k), coeffs,
                                     min_size=1, max_size=4))
        if unit_at_zero:
            terms[(0,) * k] = draw(_COEFF.filter(VCoeff.is_unit))
        return NForm(draw(_exponents(seed)), terms)

    def draw_one_term(at_zero, unit):
        n = (0,) * k if at_zero else draw(st.tuples(*[st.integers(0, 2)] * k).filter(any))
        c = draw(_COEFF.filter(VCoeff.is_unit) if unit else _MULTI_COEFF)
        return NForm(draw(_exponents(seed)), {n: c})

    side, at_zero, unit = one_term or (None, None, None)
    a = draw_one_term(at_zero, unit) if side == "left" else draw_nform(pointed_only)
    b = (draw_one_term(at_zero, unit) if side == "right"
         else draw_nform(pointed_only or pointed_right))
    return seed, a, b


@settings(max_examples=200, deadline=None)
@given(nform_products(pointed_only=False))
def test_n_form_product_maps_back_to_twisted_mul(case):
    seed, a, b = case
    want = twisted_mul(a.expand(seed), b.expand(seed), seed.Lambda)
    got = pointed.mul(seed, a, b)
    assert got.g == vec_add(a.g, b.g)
    assert got.expand(seed) == want
    # and the conversion projects each exponent back to its n
    assert to_nform(seed, a.expand(seed), a.g) == a
    assert to_nform(seed, want, got.g) == got


@settings(max_examples=200, deadline=None)
@given(nform_products(pointed_only=True))
def test_normalized_n_form_product_is_one_v_shift(case):
    # the n = 0 coefficient of a product of pointed n-forms is the
    # factors' times v^lambda(a.g, b.g): normalizing folds it away
    seed, a, b = case
    full = twisted_mul(a.expand(seed), b.expand(seed), seed.Lambda)
    got = pointed.mul(seed, a, b, normalize=True)
    assert got.expand(seed) == normalize_at(full, vec_add(a.g, b.g))
    zero = (0,) * len(seed.unfrozen)
    assert got.terms[zero].is_one() and got.is_pointed()
    assert pointed.mul(seed, a, b).terms[zero] == (
        a.terms[zero] * b.terms[zero]).shift(seed.lam(a.g, b.g))


@settings(max_examples=200, deadline=None)
@given(nform_products(pointed_only=False, pointed_right=True))
def test_n_form_division_undoes_the_product(case):
    # q * d divided by a pointed d is q again, and the torus's exact
    # division of the expansions agrees; normalizing divides by q's n = 0
    # coefficient, which must be a unit
    seed, q, d = case
    inv = d.terms[(0,) * len(seed.unfrozen)].unit_inverse()
    d = NForm(d.g, {n: c * inv for n, c in d.terms.items()})
    num = pointed.mul(seed, q, d)
    got = pointed.divide(seed, num, d)
    assert got == q
    assert got.expand(seed) == exact_divide(num.expand(seed), d.expand(seed), seed.Lambda)
    c = q.terms.get((0,) * len(seed.unfrozen))
    if c is None or not c.is_unit():
        with pytest.raises(NonUnitLeading):
            got.normalized()
    else:
        (e, sign), = c._c.items()
        want = NForm(q.g, {n: x.shift(-e) * sign for n, x in q.terms.items()})
        assert got.normalized() == want


@pytest.mark.parametrize("one_term", _ONE_TERM,
                         ids=["-".join(map(str, x)) for x in _ONE_TERM])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_term_products_are_shifted_copies(one_term, data):
    # a product with a one-term factor (on either side, at n = 0 or not,
    # with a unit or a multi-term coefficient) is a shifted copy of the
    # other factor: against the torus product, normalized when both n = 0
    # coefficients are units, and divided back when the divisor is pointed
    side, at_zero, unit = one_term
    seed, a, b = data.draw(nform_products(pointed_only=True, one_term=one_term))
    want = twisted_mul(a.expand(seed), b.expand(seed), seed.Lambda)
    got = pointed.mul(seed, a, b)
    assert got.g == vec_add(a.g, b.g) and got.expand(seed) == want
    if at_zero and unit:
        assert pointed.mul(seed, a, b, normalize=True).expand(seed) == normalize_at(want, got.g)
    else:
        with pytest.raises(NonUnitLeading):
            pointed.mul(seed, a, b, normalize=True)
    if side == "right" and not (at_zero and unit):
        with pytest.raises(NonUnitLeading, match="divisor is not pointed"):
            pointed.divide(seed, got, b)
        return
    d = b.normalized()
    num = pointed.mul(seed, a, d)
    assert pointed.divide(seed, num, d) == a
    assert a.expand(seed) == exact_divide(num.expand(seed), d.expand(seed), seed.Lambda)


def test_n_form_division_refuses_a_non_multiple(a2_seed):
    # I1 = X^(-1,0) (1 + Y_1) divides I1^2 but not a monomial, nor I1^2
    # with a stray term inside the support box; a divisor that is not
    # pointed is refused
    i1 = to_nform(a2_seed, a2_gold("I1"), (-1, 0))
    square = pointed.mul(a2_seed, i1, i1)
    assert pointed.divide(a2_seed, square, i1) == i1
    with pytest.raises(NotDivisible, match="incompatible support boxes"):
        pointed.divide(a2_seed, NForm.monomial((0, 0), 2), i1)
    stray = pointed.add(a2_seed, square, NForm((-2, 0), {(1, 1): VCoeff.one()}))
    with pytest.raises(NotDivisible, match="escapes the support box"):
        pointed.divide(a2_seed, stray, i1)
    for bad in ({(0, 0): VCoeff({1: 1})}, {(0, 0): VCoeff.one(), (-1, 0): VCoeff.one()}):
        with pytest.raises(NonUnitLeading, match="divisor is not pointed"):
            pointed.divide(a2_seed, square, NForm((-1, 0), bad))


def test_n_form_sum_is_based_at_the_dominating_base(a2_seed, pa2_seed):
    # X^(1,-1) + X^(0,-1) is P2, based at (1, -1) in either order; the
    # bases (0, 0) and (1, 1) = (0, 0) + B (1, -1) are incomparable, and a
    # base off the coset is not comparable at all
    x, y = NForm.monomial((1, -1), 2), NForm.monomial((0, -1), 2)
    p2 = to_nform(a2_seed, a2_gold("P2"), (1, -1))
    assert pointed.add(a2_seed, x, y) == pointed.add(a2_seed, y, x) == p2
    with pytest.raises(RuntimeError, match="neither of the bases"):
        pointed.add(a2_seed, NForm.monomial((0, 0), 2), NForm.monomial((1, 1), 2))
    with pytest.raises(RuntimeError, match="neither of the bases"):
        pointed.add(pa2_seed, NForm.monomial((0, 0, 0, 0), 2), NForm.monomial((1, 1, 0, 0), 2))


def test_n_form_ends(a2_seed, pa2_seed):
    # I1 = X^(-1,0) (1 + Y_1), Y_1 = X^(B e_1) = X^(0,1): pointed at
    # (-1, 0), its codegree at n = (1, 0); read in the opposite seed from
    # there
    i1 = to_nform(a2_seed, a2_gold("I1"), (-1, 0))
    assert i1.terms == {(0, 0): VCoeff.one(), (1, 0): VCoeff.one()}
    assert i1.is_pointed() and i1.co_n() == (1, 0)
    op = opposite_seed(a2_seed)
    flipped = i1.opposite(a2_seed)
    assert flipped.g == codegree(a2_seed, a2_gold("I1")) == (-1, 1)
    assert flipped.expand(op) == a2_gold("I1") and flipped.is_pointed()
    # no componentwise-largest n: no codegree to read it from
    split = NForm((0, 0), {(0, 0): VCoeff.one(), (1, 0): VCoeff.one(), (0, 1): VCoeff.one()})
    assert split.co_n() is None
    with pytest.raises(ValueError):
        split.opposite(a2_seed)
    assert not NForm((0, 0), {(0, 0): VCoeff({1: 1})}).is_pointed()
    assert not NForm((0, 0), {(0, 0): VCoeff.one(), (-1, 0): VCoeff.one()}).is_pointed()
    # off the coset g + B Z^k no n-form holds an exponent
    with pytest.raises(ValueError, match="is not"):
        to_nform(pa2_seed, QTElem.monomial((1, 1, 0, 0)), (0, 0, 0, 0))


class _Expanded:
    """A window view's NForms as torus elements, for the exponent-space
    reference."""

    def __init__(self, view, seed):
        self.view = view
        self.seed = seed

    def get(self, g):
        elem = self.view.get(g)
        return None if elem is None else elem.expand(self.seed)


class _Hiding:
    """A basis with one key missing."""

    def __init__(self, basis, hidden):
        self.basis = basis
        self.hidden = hidden

    def get(self, g):
        return None if g == self.hidden else self.basis.get(g)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_n_form_decompose_matches_the_oracle_on_the_ladder_sweeps(name, monkeypatch):
    # every product the rung's sweep decomposes, with and without a tie
    # break, against the exponent-space decomposition of its expansion;
    # then each indeterminate reason, from the same inputs: an iteration
    # cap, a missing key, and a window shrunk to its top
    make, cap, window = LADDER[name]
    basis = CandidateBasis(build_exchange_graph(make()), unfrozen_cap=cap,
                           frozen_window=window)
    calls = []
    real = pointed.decompose
    monkeypatch.setattr(pointed, "decompose", lambda *a: calls.append(a) or real(*a))
    assert verify_theorem(basis).ok
    monkeypatch.setattr(pointed, "decompose", real)
    reasons = set()
    for seed, z, view, box in calls:
        x = z.expand(seed)
        window = Bidegree(z.g, vec_add(z.g, mat_vec(seed.B, box)))
        torus_view = _Expanded(view, seed)
        for tie_break in (None, lambda keys: keys[-1]):
            got = pointed.decompose(seed, z, view, box, tie_break)
            assert got.is_exact
            assert got == oracles.subtracting_decompose(seed, x, torus_view, window, tie_break)
        if len(got.terms) < 2:
            continue
        hidden = got.terms[-1][0]
        cases = [
            (_Hiding(view, hidden), _Hiding(torus_view, hidden), box, window, None),
            (view, torus_view, (0,) * len(box), Bidegree(z.g, z.g), None),
            (view, torus_view, box, window, 1),
        ]
        for view_case, torus_case, box_case, window_case, iteration_cap in cases:
            with monkeypatch.context() as m:
                if iteration_cap is not None:
                    m.setattr(pointed, "DECOMPOSE_ITERATION_CAP", iteration_cap)
                got = pointed.decompose(seed, z, view_case, box_case)
                want = oracles.subtracting_decompose(seed, x, torus_case, window_case)
            assert not got.is_exact and got == want
            reasons.add(got.reason.split(" ")[0])
    assert len(calls) > 0
    assert reasons == {"no", "support", "iteration"}
