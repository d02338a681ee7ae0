import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import A2_LAMBDA, a2_gold, elem
from qcluster.qtorus import (
    NotDivisible,
    QTElem,
    VCoeff,
    exact_divide,
    lam_pair,
    twisted_mul,
    unit_vec,
)


def vc(d):
    return VCoeff(d)


def rand_vcoeff(rng, span=3):
    return VCoeff({e: rng.randint(-3, 3) for e in range(-span, span + 1)})


def rand_elem(rng, dim, nterms=4, lo=-3, hi=3):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(lo, hi) for _ in range(dim))
        terms[m] = rand_vcoeff(rng, 2)
    return QTElem(dim, terms)


class TestVCoeff:
    def test_ring_ops(self):
        a = vc({0: 1, 1: 1})
        b = vc({0: 1, 1: -1})
        assert a * b == vc({0: 1, 2: -1})
        assert a + b == vc({0: 2})
        assert a - a == VCoeff.zero()
        assert not VCoeff.zero()
        assert (a * 0) == VCoeff.zero()

    def test_bar_and_shift(self):
        a = vc({-1: 2, 3: 1})
        assert a.bar() == vc({1: 2, -3: 1})
        assert a.shift(2) == vc({1: 2, 5: 1})
        assert a.bar().bar() == a

    def test_units(self):
        assert vc({3: -1}).is_unit()
        assert not vc({3: 2}).is_unit()
        assert not vc({0: 1, 1: 1}).is_unit()
        assert vc({3: -1}).unit_inverse() == vc({-3: -1})

    def test_exact_div(self):
        num = vc({-1: 1, 0: 2, 1: 1})  # v^-1 (1+v)^2
        den = vc({0: 1, 1: 1})
        assert num.exact_div(den) == vc({-1: 1, 0: 1})
        assert vc({0: 1, 2: -1}).exact_div(vc({0: 1, 1: 1})) == vc({0: 1, 1: -1})
        assert vc({0: 3}).exact_div(vc({0: 2})) is None
        assert vc({0: 1, 1: 1}).exact_div(vc({0: 1, 1: -1})) is None

    def test_exact_div_random_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = rand_vcoeff(rng), rand_vcoeff(rng)
            if not b:
                continue
            assert (a * b).exact_div(b) == a

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_div_is_none_or_a_true_quotient(self, data):
        # gaps, negative exponents and negative leading coefficients; half
        # of the dividends are multiples of the divisor
        coeff = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=4).map(VCoeff)
        b = data.draw(coeff.filter(bool))
        x = data.draw(coeff)
        if data.draw(st.booleans()):
            x = x * b
        q = x.exact_div(b)
        assert q is None or q * b == x

    def test_in_m_and_window(self):
        assert vc({-1: 1, -3: 1}).in_m()
        assert not VCoeff.one().in_m()
        assert VCoeff.zero().in_m()
        assert vc({1: 1, 2: -5}).in_window(1, 2)
        assert not vc({0: 1, 2: 1}).in_window(1, 2)

    def test_str(self):
        assert str(vc({-1: 1, 3: 2})) == "v^-1 + 2*v^3"
        assert str(vc({0: -1, 1: 1})) == "-1 + v"
        assert str(VCoeff.zero()) == "0"


class TestQTElem:
    def test_add_identities(self):
        x1 = QTElem.monomial((1, 0))
        assert x1 + QTElem.zero(2) == x1
        assert x1 + x1.scale(-1) == QTElem.zero(2)
        p2 = QTElem.monomial((1, -1)) + QTElem.monomial((0, -1))
        assert p2 == a2_gold("P2")

    def test_a_shift_or_scale_that_changes_nothing_returns_the_element(self):
        # elements are immutable, so a unit factor or a zero shift copies
        # nothing; any other factor or shift gives an equal new element
        z = a2_gold("[X1*I2]")
        assert z.vshift(0) is z
        assert z.scale(1) is z and z.scale(VCoeff.one()) is z and z * 1 is z
        want = {m: c.shift(2) for m, c in z.terms.items()}
        for got in (z.vshift(2), z.scale(VCoeff.v_power(2))):
            assert got is not z and got.terms == want
        assert z.scale(-1) == -z and z.vshift(-2).vshift(2) == z

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            QTElem.monomial((1, 0)) + QTElem.monomial((1, 0, 0))

    def test_commutative_mul(self):
        # X^{-f2} (1 + Y2 + Y1 Y2) with Y1 = X^{f2}, Y2 = X^{-f1}
        y1 = QTElem.monomial((0, 1))
        y2 = QTElem.monomial((-1, 0))
        body = QTElem.one(2) + y2 + y1 * y2
        assert QTElem.monomial((0, -1)) * body == a2_gold("P1")
        a = rand_elem(random.Random(0), 2)
        assert a * QTElem.one(2) == a
        four = (QTElem.one(2) + y1) * (QTElem.one(2) + y2)
        assert four == elem(2, {(0, 0): 1, (0, 1): 1, (-1, 0): 1, (-1, 1): 1})

    def test_twisted_monomial_rule(self):
        x1 = QTElem.monomial(unit_vec(2, 0))
        x2 = QTElem.monomial(unit_vec(2, 1))
        assert twisted_mul(x1, x2, A2_LAMBDA) == elem(2, {(1, 1): {-1: 1}})
        m = QTElem.monomial((2, -1))
        assert twisted_mul(m, QTElem.one(2), A2_LAMBDA) == m

    def test_twisted_normalized_product_hits_gold(self):
        # v^{Lambda_12} X1 * I2 is the first worked normalized product
        x1 = QTElem.monomial((1, 0))
        i2 = a2_gold("P1")
        prod = twisted_mul(x1, i2, A2_LAMBDA).vshift(A2_LAMBDA[0][1])
        assert prod == a2_gold("[X1*I2]")

    def test_quasi_commutation_random(self):
        rng = random.Random(1)
        for _ in range(50):
            m = tuple(rng.randint(-3, 3) for _ in range(2))
            mp = tuple(rng.randint(-3, 3) for _ in range(2))
            a, b = QTElem.monomial(m), QTElem.monomial(mp)
            lhs = twisted_mul(a, b, A2_LAMBDA)
            rhs = twisted_mul(b, a, A2_LAMBDA).vshift(2 * lam_pair(A2_LAMBDA, m, mp))
            assert lhs == rhs
            # on monomials the twisted product is the commutative one
            # shifted by the pairing
            assert lhs == (a * b).vshift(lam_pair(A2_LAMBDA, m, mp))

    def test_twisted_associative_random(self):
        rng = random.Random(2)
        for _ in range(20):
            a, b, c = (rand_elem(rng, 2, nterms=3) for _ in range(3))
            assert twisted_mul(twisted_mul(a, b, A2_LAMBDA), c, A2_LAMBDA) == twisted_mul(
                a, twisted_mul(b, c, A2_LAMBDA), A2_LAMBDA
            )

    def test_bar(self):
        vx = QTElem.monomial((1, 0), VCoeff({1: 1}))
        assert vx.bar() == QTElem.monomial((1, 0), VCoeff({-1: 1}))
        assert a2_gold("P2").bar() == a2_gold("P2")
        rng = random.Random(3)
        for _ in range(30):
            a = rand_elem(rng, 2)
            assert a.bar().bar() == a
        for _ in range(30):
            a, b = rand_elem(rng, 2, nterms=3), rand_elem(rng, 2, nterms=3)
            assert twisted_mul(a, b, A2_LAMBDA).bar() == twisted_mul(
                b.bar(), a.bar(), A2_LAMBDA
            )


class TestExactDivide:
    def test_single_step(self):
        num = QTElem.monomial((1, 0)) + QTElem.one(2)
        q = exact_divide(num, QTElem.monomial((0, 1)), A2_LAMBDA)
        assert q == elem(2, {(1, -1): {1: 1}, (0, -1): 1})
        assert twisted_mul(q, QTElem.monomial((0, 1)), A2_LAMBDA) == num

    def test_divide_by_one(self):
        a = rand_elem(random.Random(4), 2)
        assert exact_divide(a, QTElem.one(2), A2_LAMBDA) == a

    def test_not_divisible(self):
        # (X1 + 1) - (X1 - 1) leaves 2 at exponent 0, whose quotient term
        # (-1, 0) lies outside the box {(0, 0)}
        num = QTElem.monomial((1, 0)) + QTElem.one(2)
        den = QTElem.monomial((1, 0)) - QTElem.one(2)
        with pytest.raises(NotDivisible, match=r"quotient term \(-1, 0\) escapes"):
            exact_divide(num, den, A2_LAMBDA)

    def test_not_divisible_coefficient(self):
        num = QTElem.monomial((1, 0), VCoeff({0: 3}))
        den = QTElem.one(2).scale(2)
        with pytest.raises(NotDivisible, match=r"coefficient 3 not divisible at \(1, 0\)"):
            exact_divide(num, den, A2_LAMBDA)

    def test_not_divisible_empty_box(self):
        num = QTElem.monomial((1, 0))
        den = QTElem.one(2) + QTElem.monomial((2, 0))
        with pytest.raises(NotDivisible, match="incompatible support boxes"):
            exact_divide(num, den, A2_LAMBDA)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(QTElem.one(2), QTElem.zero(2), A2_LAMBDA)

    def test_zero_numerator(self):
        d = QTElem.monomial((1, 0)) + QTElem.one(2)
        assert exact_divide(QTElem.zero(2), d, A2_LAMBDA) == QTElem.zero(2)

    def test_roundtrip_random(self):
        rng = random.Random(6)
        for _ in range(60):
            q = rand_elem(rng, 2, nterms=3)
            d = rand_elem(rng, 2, nterms=2)
            if not d or not q:
                continue
            num = twisted_mul(q, d, A2_LAMBDA)
            assert exact_divide(num, d, A2_LAMBDA) == q


@st.composite
def torus_case(draw, count, sizes=None):
    """A random skew form Lambda of dimension 2-4 and `count` elements.

    With sizes, element i has exactly sizes[i] terms, each with a
    nonzero coefficient; otherwise each has at most 3 terms.
    """
    n = draw(st.integers(2, 4))
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(st.integers(-3, 3))
            lam[j][i] = -lam[i][j]
    exponent = st.tuples(*[st.integers(-2, 2)] * n)
    coeff = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                            min_size=0 if sizes is None else 1, max_size=3)
    if sizes is not None:
        coeff = coeff.filter(lambda c: any(c.values()))
    elems = [
        QTElem(n, {m: VCoeff(c) for m, c in draw(st.dictionaries(
            exponent, coeff, min_size=0 if sizes is None else sizes[i],
            max_size=3 if sizes is None else sizes[i])).items()})
        for i in range(count)
    ]
    return tuple(tuple(row) for row in lam), elems


@st.composite
def lopsided_case(draw):
    """A skew form and two elements of 1 x k, k x 1 or k x k terms, k up
    to 6: uneven products that torus_case, at most 3 terms each, does not
    reach."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.sampled_from([(1, k), (k, 1), (k, k)]))
    lam, (a, b) = draw(torus_case(2, sizes))
    assert (len(a.terms), len(b.terms)) == sizes
    return lam, (a, b)


@st.composite
def division_case(draw):
    """A skew form, a nonzero divisor d and a numerator that is a twisted
    multiple of d or an arbitrary element."""
    lam, (a, d) = draw(torus_case(2))
    assume(d)
    if draw(st.booleans()):
        a = twisted_mul(a, d, lam)
    return lam, a, d


class TestTwistedProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(torus_case(2), lopsided_case()))
    def test_a_zero_form_gives_the_commutative_product(self, case):
        lam, (a, b) = case
        zero = tuple((0,) * len(row) for row in lam)
        assert twisted_mul(a, b, zero) == a * b

    @settings(max_examples=80, deadline=None)
    @given(torus_case(3))
    def test_associative(self, case):
        lam, (a, b, c) = case
        assert twisted_mul(twisted_mul(a, b, lam), c, lam) == twisted_mul(
            a, twisted_mul(b, c, lam), lam
        )

    @settings(max_examples=80, deadline=None)
    @given(torus_case(2))
    def test_bar_reverses_products(self, case):
        lam, (a, b) = case
        assert twisted_mul(a, b, lam).bar() == twisted_mul(b.bar(), a.bar(), lam)

    @settings(max_examples=80, deadline=None)
    @given(torus_case(2))
    def test_exact_divide_roundtrip(self, case):
        lam, (q, d) = case
        assume(d)
        assert exact_divide(twisted_mul(q, d, lam), d, lam) == q

    @settings(max_examples=120, deadline=None)
    @given(division_case())
    def test_a_quotient_found_multiplies_back(self, case):
        lam, num, d = case
        try:
            q = exact_divide(num, d, lam)
        except NotDivisible:
            return
        assert twisted_mul(q, d, lam) == num
