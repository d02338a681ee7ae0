"""Exact linear algebra on small integer matrices.

Matrices are tuples of row tuples; vectors are tuples. Everything is
over the integers, through one elimination: a Smith-style
diagonalization U @ mat @ V = S with unimodular row and column
operations. rank counts S's nonzero diagonal entries, solve_integer
reads its solution off S, and invert returns the integer inverse V S U
of a unimodular matrix. Those are the only matrices the library
inverts: the (co)degree maps of a cluster's variables, whose g-vectors
form a Z-basis of the lattice (Fomin-Zelevinsky, Cluster algebras IV,
arXiv:math/0602259; Gross-Hacking-Keel-Kontsevich, arXiv:1411.1394).
combine is the one kernel that forms a linear combination of columns
the caller already holds, base + sum_j c_j col_j, one vector sum per
nonzero c_j: every exponent g + B n over B's columns, every degree of
a cluster monomial over its variables' degrees, and row k of a mutated
Lambda over Lambda's rows. No floating point anywhere.
"""
from __future__ import annotations

from itertools import repeat
from operator import add, mul


def transpose(mat):
    return tuple(zip(*mat)) if mat else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def dot(a, b):
    return sum(map(mul, a, b))


def mat_vec(mat, vec):
    return tuple(sum(map(mul, row, vec)) for row in mat)


def combine(base, cols, coeffs):
    """base + sum_j coeffs[j] cols[j], as a tuple: one vector sum per
    nonzero coefficient, the column scaled first unless its coefficient
    is 1. The one way to form an exponent g + B n over B's columns, a
    cluster monomial's degree over its variables' degrees, or row k of a
    mutated Lambda over Lambda's rows."""
    for col, c in zip(cols, coeffs):
        if c:
            base = tuple(map(add, base, col if c == 1 else map(mul, col, repeat(c))))
    return tuple(base)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def _diagonal(s):
    return [s[t][t] for t in range(min(len(s), len(s[0]) if s else 0))]


def rank(mat):
    return sum(1 for x in _diagonal(diagonalize(mat)[1]) if x)


def invert(mat):
    """Integer inverse of a square integer matrix, or None unless its
    determinant is +-1: with U @ mat @ V = S = diag(+-1), the inverse is
    V @ S @ U."""
    u, s, v = diagonalize(mat)
    if any(abs(x) != 1 for x in _diagonal(s)):
        return None
    return mat_mul(mat_mul(v, s), u)


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
