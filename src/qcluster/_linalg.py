"""Exact linear algebra on small integer matrices.

Matrices are tuples of row tuples; vectors are tuples. Solvers work
over the rationals (fractions.Fraction) or over the integers (via a
Smith-style diagonalization with unimodular row/column operations).
No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul


def transpose(mat):
    return tuple(zip(*mat)) if mat else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def dot(a, b):
    return sum(map(mul, a, b))


def mat_vec(mat, vec):
    return tuple(dot(row, vec) for row in mat)


def vec_mat(vec, mat):
    """The row vector vec^T mat."""
    return tuple(dot(vec, col) for col in zip(*mat))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _row_reduce(mat, rhs_cols):
    """Gaussian elimination over Q on [mat | rhs_cols]; returns (rows, pivots)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = [[Fraction(x) for x in mat[i]] + [Fraction(x) for x in rhs_cols[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return aug, pivots


def rank(mat):
    if not mat:
        return 0
    _, pivots = _row_reduce(mat, [[] for _ in mat])
    return len(pivots)


def invert(mat):
    """Rational inverse of a square matrix, or None if singular."""
    n = len(mat)
    aug, pivots = _row_reduce(mat, [list(row) for row in identity(n)])
    if len(pivots) < n:
        return None
    return tuple(tuple(aug[i][n:]) for i in range(n))


def diagonalize(mat):
    """Unimodular U, V and diagonal S with U @ mat @ V = S (all integer)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    s = [list(row) for row in mat]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        s[t], s[pi] = s[pi], s[t]
        u[t], u[pi] = u[pi], u[t]
        for row in s:
            row[t], row[pj] = row[pj], row[t]
        for row in v:
            row[t], row[pj] = row[pj], row[t]
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    s[i] = [a - q * b for a, b in zip(s[i], s[t])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[t])]
                    if s[i][t]:
                        s[t], s[i] = s[i], s[t]
                        u[t], u[i] = u[i], u[t]
                        clean = False
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    for row in s:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if s[t][j]:
                        for row in s:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        clean = False
        t += 1
    return tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x = rhs, or None if there is none."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return (0,) * n
    u, s, v = diagonalize(mat)
    c = mat_vec(u, rhs)
    y = [0] * n
    for t in range(min(m, n)):
        if s[t][t] != 0:
            if c[t] % s[t][t] != 0:
                return None
            y[t] = c[t] // s[t][t]
        elif c[t] != 0:
            return None
    for t in range(min(m, n), m):
        if c[t] != 0:
            return None
    return mat_vec(v, tuple(y))
