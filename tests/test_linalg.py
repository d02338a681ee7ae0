import random
from fractions import Fraction

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster._linalg import (
    combine,
    diagonalize,
    identity,
    invert,
    mat_mul,
    mat_vec,
    rank,
    solve_integer,
    transpose,
)
from qcluster.qtorus import vec_add


def rand_mat(rng, m, n, lo=-4, hi=4):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def rand_unimodular(rng, n, steps=8):
    """The identity after row additions, a row permutation and row sign
    flips: a product of elementary integer operations."""
    mat = [list(row) for row in identity(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    rng.shuffle(mat)
    signs = [rng.choice((1, -1)) for _ in mat]
    return tuple(tuple(sign * x for x in row) for sign, row in zip(signs, mat))


def det(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def test_basic_ops():
    m = ((1, 2), (3, 4))
    assert transpose(m) == ((1, 3), (2, 4))
    assert mat_mul(m, identity(2)) == m
    assert mat_vec(m, (1, 1)) == (3, 7)
    assert rank(m) == 2
    assert rank(((1, 2), (2, 4))) == 1


def test_invert_roundtrip():
    rng = random.Random(41)
    for _ in range(30):
        m = rand_mat(rng, 3, 3)
        assert (invert(m) is None) == (abs(det(m)) != 1)
        u = rand_unimodular(rng, 3)
        inv = invert(u)
        assert mat_mul(inv, u) == identity(3) == mat_mul(u, inv)
    assert invert(((2, 0), (0, 1))) is None
    assert invert(()) == ()


def test_diagonalize_unimodular():
    rng = random.Random(43)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, m, n)
        u, s, v = diagonalize(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0


def test_solve_integer():
    rng = random.Random(44)
    for _ in range(40):
        a = rand_mat(rng, 3, 4)
        x = tuple(rng.randint(-5, 5) for _ in range(4))
        b = mat_vec(a, x)
        sol = solve_integer(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    # parity obstruction: 2x = 1 has no integer solution
    assert solve_integer(((2,),), (1,)) is None
    # rational solution exists but no integral one
    assert solve_integer(((2, 0), (0, 3)), (1, 3)) is None
    assert solve_integer(((2, 0), (0, 3)), (4, 3)) == (2, 1)


def _entries(draw, rows, cols):
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def rank_cases(draw):
    """m x n integer matrices, m, n <= 5: arbitrary, zero, or a product
    through r <= 3 columns, so rank deficiency is common."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("any", "zero", "thin")))
    if kind == "zero":
        return tuple((0,) * n for _ in range(m))
    if kind == "thin":
        r = draw(st.integers(1, 3))
        return mat_mul(_entries(draw, m, r), _entries(draw, r, n))
    return _as_tuple(_entries(draw, m, n))


def _as_tuple(mat):
    return tuple(tuple(row) for row in mat)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 12), st.randoms(use_true_random=False))
def test_invert_matches_sympy_on_unimodular(n, steps, rng):
    mat = rand_unimodular(rng, n, steps)
    inv = invert(mat)
    assert inv == _as_tuple(sp.Matrix(mat).inv().tolist())
    assert all(type(x) is int for row in inv for x in row)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_invert_is_none_unless_unimodular(mat):
    mat = _as_tuple(mat)
    inv = invert(mat)
    if abs(sp.Matrix(mat).det()) != 1:
        assert inv is None
    else:
        assert inv == _as_tuple(sp.Matrix(mat).inv().tolist())


@settings(max_examples=200, deadline=None)
@given(rank_cases())
def test_rank_matches_sympy(mat):
    cols = len(mat[0]) if mat else 0
    assert rank(mat) == sp.Matrix(len(mat), cols, [x for row in mat for x in row]).rank()


# a coefficient of combine: zero, unit, small of either sign, or large
_COEFF = st.sampled_from((0, 1, -1)) | st.integers(-5, 5) | st.integers(-2 ** 70, 2 ** 70)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_combine_matches_the_matrix_product(n, k, data):
    # base + sum_j c_j col_j, against the dense product of the columns'
    # matrix, whatever the coefficients (all zero among them)
    entries = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * n)
    base = data.draw(entries)
    cols = tuple(data.draw(entries) for _ in range(k))
    coeffs = data.draw(st.tuples(*[_COEFF] * k) | st.just((0,) * k))
    assert combine(base, cols, coeffs) == vec_add(base, mat_vec(transpose(cols), coeffs))
