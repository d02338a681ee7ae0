import random
from fractions import Fraction

from qcluster._linalg import (
    diagonalize,
    identity,
    invert,
    mat_mul,
    mat_vec,
    rank,
    solve_integer,
    transpose,
)


def rand_mat(rng, m, n, lo=-4, hi=4):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


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
        inv = invert(m)
        if det(m) == 0:
            assert inv is None
            continue
        prod = mat_mul(inv, m)
        assert all(
            prod[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3)
        )


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
