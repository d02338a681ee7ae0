import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import a2_gold, elem, principal_framings
from qcluster import opposite_seed, pointed
from qcluster._linalg import mat_vec
from qcluster.pointed import (
    Bidegree,
    NonUnitLeading,
    bidegree,
    codegree,
    decompose,
    degree,
    dominance_leq,
    dominance_n,
    interval,
    is_m_unitriangular,
    normalize_deg,
)
from qcluster.qtorus import QTElem, VCoeff, twisted_mul, vec_add


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
    d = decompose(a2_seed, z, _a2_basis(), window)
    assert d.is_exact
    assert sorted(d.terms) == [((0, 0), VCoeff({-1: 1})), ((1, -1), VCoeff.one())]
    assert is_m_unitriangular(d, (1, -1))
    z2 = a2_gold("[X2*I2]")
    d2 = decompose(a2_seed, z2, _a2_basis(), Bidegree(deg=(0, 0), codeg=(-1, 1)))
    assert sorted(d2.terms) == [((-1, 0), VCoeff({-1: 1})), ((0, 0), VCoeff.one())]


def test_decompose_basis_element_is_single_term(a2_seed):
    d = decompose(
        a2_seed, a2_gold("P2"), _a2_basis(), Bidegree(deg=(1, -1), codeg=(0, -1))
    )
    assert d.is_exact and d.terms == [((1, -1), VCoeff.one())]
    assert is_m_unitriangular(d, (1, -1))


def test_decompose_co_golden(a2_seed):
    # co-decomposition is decompose in the opposite seed, window ends traded
    op = opposite_seed(a2_seed)
    z = a2_gold("{P1*X2}")
    d = decompose(op, z, _a2_cobasis(), Bidegree(deg=(-1, 1), codeg=(0, 0)))
    assert d.is_exact
    assert sorted(d.terms) == [((-1, 1), VCoeff.one()), ((0, 0), VCoeff({-1: 1}))]
    assert is_m_unitriangular(d, (-1, 1))
    z2 = a2_gold("{P2*X2}")
    d2 = decompose(op, z2, _a2_cobasis(), Bidegree(deg=(0, 0), codeg=(1, 0)))
    assert sorted(d2.terms) == [((0, 0), VCoeff.one()), ((1, 0), VCoeff({-1: 1}))]
    assert is_m_unitriangular(d2, (0, 0))


def test_decompose_missing_basis_element(a2_seed):
    basis = {(1, -1): a2_gold("P2")}
    z = a2_gold("[X1*I2]")
    d = decompose(a2_seed, z, basis, Bidegree(deg=(1, -1), codeg=(-1, 0)))
    assert not d.is_exact
    assert "no basis element" in d.reason


def test_decompose_window_escape(a2_seed):
    z = a2_gold("[X1*I2]")
    d = decompose(a2_seed, z, _a2_basis(), Bidegree(deg=(1, -1), codeg=(1, -1)))
    assert not d.is_exact
    assert "window" in d.reason


def test_decompose_roundtrip_and_uniqueness(a2_seed):
    rng = random.Random(25)
    basis = _a2_basis()
    z = a2_gold("[X1*I2]")
    window = Bidegree(deg=(1, -1), codeg=(-1, 0))
    base = decompose(a2_seed, z, basis, window)
    assert oracles.recompose(base, basis, 2) == z
    for _ in range(10):
        d = decompose(a2_seed, z, basis, window, tie_break=rng.choice)
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
def decompositions(draw, side):
    """(seed, z, basis, window) for elimination from the top (side 1) or
    from the bottom (side -1): z combines family members keyed inside the
    window, with coefficient 1 at the end the elimination starts from,
    plus at most one stray monomial anywhere and at most one beyond that
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
    strays = draw(st.lists(_exponents(seed), max_size=1))
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


@settings(max_examples=100, deadline=None)
@given(decompositions(-1), st.booleans())
def test_decompose_co_matches_direct_scan(case, largest_first):
    seed, z, basis, window = case
    tie_break = (lambda keys: keys[-1]) if largest_first else None
    flipped = Bidegree(deg=window.codeg, codeg=window.deg)
    got = decompose(opposite_seed(seed), z, basis, flipped, tie_break)
    assert got == oracles.direct_decompose_co(seed, z, basis, window, tie_break)
    if got.is_exact:
        assert oracles.recompose(got, basis, seed.n) == z


@settings(max_examples=200, deadline=None)
@given(decompositions(1), st.booleans())
def test_decompose_matches_pairwise_scan(case, largest_first):
    seed, z, basis, window = case
    tie_break = (lambda keys: keys[-1]) if largest_first else None
    got = decompose(seed, z, basis, window, tie_break)
    assert got == oracles.direct_decompose(seed, z, basis, window, tie_break)
    assert got == oracles.subtracting_decompose(seed, z, basis, window, tie_break)
    if got.is_exact:
        assert oracles.recompose(got, basis, seed.n) == z


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
        got = decompose(a2_seed, z, basis, window, tie_break)
        assert not got.is_exact and reason in got.reason
        assert got == oracles.subtracting_decompose(a2_seed, z, basis, window, tie_break)


@settings(max_examples=200, deadline=None)
@given(seeded_elements())
def test_one_projection_matches_each_end_measured_apart(case):
    # the codegree off the seed's own projection against the degree in the
    # opposite seed, and both ends against the pairwise scans
    seed, z = case
    support = pointed.Support(seed, z)
    d, c = support.top(), support.bottom()
    highs = oracles.maximal_support(seed, list(z.terms))
    assert d == degree(seed, z) == (highs[0] if len(highs) == 1 else None)
    assert c == codegree(seed, z) == degree(opposite_seed(seed), z)
    assert c == oracles.direct_codegree(seed, z)
    assert bidegree(seed, z) == (None if d is None or c is None else Bidegree(d, c))


def test_one_projection_with_one_end_ambiguous(a2_seed):
    # two incomparable exponents above (0, 0), then below it
    below = elem(2, {(0, -1): 1, (1, 0): 1, (0, 0): 1})
    above = elem(2, {(0, 1): 1, (-1, 0): 1, (0, 0): 1})
    for z, want in ((below, (None, (0, 0))), (above, ((0, 0), None))):
        support = pointed.Support(a2_seed, z)
        assert (support.top(), support.bottom()) == want
        assert want == (degree(a2_seed, z), degree(opposite_seed(a2_seed), z))
        assert bidegree(a2_seed, z) is None


def test_projection_memo_stays_bounded_and_exact(a3_seed):
    dom = pointed._dominance_data(a3_seed)
    fresh = pointed._Projection(dom.p_num, dom.p_den, dom.kernel)
    assert fresh == dom and hash(fresh) == hash(dom)
    assert hash(dom) == hash((dom.p_num, dom.p_den, dom.kernel))
    limit = pointed.PROJECTION_MEMO_LIMIT
    exps = list(itertools.islice(itertools.product(range(-3, 4), repeat=a3_seed.n),
                                 2 * limit + 17))
    rng = random.Random(5)
    for m in exps + rng.sample(exps, 500):
        assert fresh.project(m) == (mat_vec(dom.p_num, m), mat_vec(dom.kernel, m))
        assert 0 < len(fresh.memo) <= limit
    assert fresh == dom and hash(fresh) == hash(dom)
