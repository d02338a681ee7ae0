"""Quantum seed data model: exchange matrix, skew form, mutation.

A seed couples an n x |unfrozen| integer exchange matrix B (rows run
over all vertices, columns over the unfrozen ones) with a skew-symmetric
n x n integer form Lambda, subject to B^T Lambda = (D 0) for a strictly
positive integer diagonal D indexed by the unfrozen vertices. D is
stored once at construction and treated as mutation-invariant.

Vertices are 0-based throughout the library; the CLI converts to the
1-based labels used in files and reports.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice, product, repeat
from math import gcd, lcm
from operator import add, mul, neg

from . import _linalg
from .qtorus import lam_pair, unit_vec


class IncompatibleResult(RuntimeError):
    """Mutation produced an inconsistent or incompatible seed (internal bug)."""


class NoCompatibleLambda(LookupError):
    """No skew form completing the exchange matrix was found in the search bound."""


class IncompatiblePair(ValueError):
    """B^T Lambda = (D 0) fails; the message is check_compatible's diagnostic."""


# Largest diagonal entry of D that Lambda synthesis tries.
D_MAX = 8

# Most candidate D that Lambda synthesis solves for: every multiple for
# up to three components, so that many components cannot run for hours.
SOLVES_MAX = D_MAX ** 3


class QuantumSeed:
    """A quantum seed: n, the unfrozen vertices, B, Lambda and D, all
    tuples. Their shapes, Lambda's skew-symmetry and D's positivity are
    checked on construction. The library makes every seed through one
    cached constructor (_interned: make_seed, mutate_seed and
    opposite_seed), which also checks compatibility, so equal fields are
    one object. Compares and hashes by those five fields, the hash
    computed once, since every per-seed cache is keyed by the seed.
    Immutable by convention, like NForm."""

    __slots__ = ("n", "unfrozen", "B", "Lambda", "D", "_hash")

    def __init__(self, n, unfrozen, B, Lambda, D):
        _check_shape(n, unfrozen, B, Lambda)
        _check_d(unfrozen, D)
        self.n = n
        self.unfrozen = unfrozen
        self.B = B
        self.Lambda = Lambda
        self.D = D
        self._hash = hash((n, unfrozen, B, Lambda, D))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not QuantumSeed:
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and self.unfrozen == other.unfrozen and self.B == other.B
                and self.Lambda == other.Lambda and self.D == other.D)

    def __hash__(self):
        return self._hash

    @property
    def frozen(self):
        uf = set(self.unfrozen)
        return tuple(i for i in range(self.n) if i not in uf)

    def col(self, k):
        """Column position of unfrozen vertex k in B."""
        return self.unfrozen.index(k)

    def b(self, i, k):
        return self.B[i][self.col(k)]

    def lam(self, m, mp):
        return lam_pair(self.Lambda, m, mp)


def _check_exchange(n, unfrozen, B):
    """Raise ValueError unless unfrozen holds distinct vertices and B is
    n x |unfrozen|."""
    nuf = len(unfrozen)
    if len(set(unfrozen)) != nuf or any(not 0 <= k < n for k in unfrozen):
        raise ValueError("unfrozen must be distinct vertex indices")
    if len(B) != n or any(len(row) != nuf for row in B):
        raise ValueError("B must be n x |unfrozen|")


def _check_shape(n, unfrozen, B, Lambda):
    """Raise ValueError unless _check_exchange passes and Lambda is n x n
    and skew-symmetric."""
    _check_exchange(n, unfrozen, B)
    if len(Lambda) != n or any(len(row) != n for row in Lambda):
        raise ValueError("Lambda must be n x n")
    if any(any(map(add, row, col)) for row, col in zip(Lambda, zip(*Lambda))):
        raise ValueError("Lambda must be skew-symmetric")


def _check_d(unfrozen, D):
    """Raise ValueError unless D has one positive entry per unfrozen vertex."""
    if len(D) != len(unfrozen):
        raise ValueError("D must have one entry per unfrozen vertex")
    if min(D, default=1) <= 0:
        raise ValueError("D must be a positive diagonal over the unfrozen vertices")


def check_compatible(seed):
    """Verify B^T Lambda = (D 0) against the stored D.

    Returns (ok, diagnostic); the diagnostic names the first bad entry
    in row-major order. Row r of B^T Lambda is formed as the combination
    of Lambda's nonzero rows over the nonzero entries of B's column r,
    and compared in full. A passing pair also has B of full column rank:
    the unfrozen columns of B^T Lambda form the invertible diagonal
    D > 0, so no separate rank test is needed.
    """
    n = seed.n
    live = [(row, lam_row) for row, lam_row in zip(seed.B, seed.Lambda) if any(lam_row)]
    for r, (k, d) in enumerate(zip(seed.unfrozen, seed.D)):
        got = (0,) * n
        for row, lam_row in live:
            if row[r]:
                got = tuple(map(add, got, map(mul, lam_row, repeat(row[r], n))))
        want = (0,) * k + (d,) + (0,) * (n - k - 1)
        if got != want:
            j = next(j for j in range(n) if got[j] != want[j])
            return False, f"(B^T Lambda)[{r}][{j}] = {got[j]}, expected {want[j]}"
    return True, ""


def _conjugated_lambda(seed, k, eps, lam_t):
    """Row k and column k of E^T Lambda E, for the elementary matrix E of
    the mutation at k with sign choice eps; the rest of it is Lambda's.

    E is the identity except in column k, which is e: -1 at k and
    max(0, -eps * b_ik) elsewhere. So E^T Lambda E differs from Lambda
    only in row k, which is e^T Lambda, and column k, which is Lambda e:
    combinations of the rows of Lambda and of its transpose lam_t over
    the nonzero entries of e. They meet in e^T Lambda e. No symmetry of
    Lambda is assumed.
    """
    ck, n = seed.col(k), seed.n
    e = [(k, -1)] + [(i, -eps * row[ck]) for i, row in enumerate(seed.B) if eps * row[ck] < 0]
    row = col = (0,) * n
    for i, x in e:
        row = tuple(map(add, row, map(mul, seed.Lambda[i], repeat(x, n))))
        col = tuple(map(add, col, map(mul, lam_t[i], repeat(x, n))))
    corner = sum(x * col[i] for i, x in e)
    return row[:k] + (corner,) + row[k + 1:], col[:k] + (corner,) + col[k + 1:]


@lru_cache(maxsize=None)
def _interned(n, unfrozen, B, Lambda, D):
    """The one QuantumSeed of the five fields for the process, the only
    way the library makes a seed: its shapes checked on construction, then
    IncompatiblePair, with check_compatible's diagnostic, unless
    B^T Lambda = (D 0). Equal fields return the object already built and
    checked, since the checks depend on the fields alone; a call that
    raises is not cached, so it raises again."""
    seed = QuantumSeed(n, unfrozen, B, Lambda, D)
    ok, diag = check_compatible(seed)
    if not ok:
        raise IncompatiblePair(diag)
    return seed


@lru_cache(maxsize=None)
def mutate_seed(seed, k):
    """Seed mutation at an unfrozen vertex k; an involution.

    B mutates by the standard matrix rule, which changes only row k and
    the rows with b_ik != 0. Lambda is conjugated by the elementary
    matrix of the mutation, of which only row and column k differ from
    Lambda and are formed. Both sign conventions are computed and must
    agree, and compatibility with the unchanged D is checked once per
    distinct result, so convention drift shows up as a hard error.

    Cached per (seed, k): a labeled seed is mutated once per vertex in a
    process, and every later call (the exchange graph's re-tracking
    repeats the build's mutations) returns that seed. The result is the
    seed constructor's (_interned), so a seed met again, the involution
    back along an edge among them, the loaded seed included, is that
    object and is not checked again. A call that raises is not cached,
    so it raises again on every call.
    """
    if k not in seed.unfrozen:
        raise ValueError(f"vertex {k} is not unfrozen")
    ck = seed.col(k)
    bk = seed.B[k]
    plus = tuple(x if x > 0 else 0 for x in bk)
    minus = tuple(-x if x < 0 else 0 for x in bk)
    newb = []
    for i, row in enumerate(seed.B):
        bik = row[ck]
        if i == k:
            row = tuple(map(neg, row))
        elif bik:
            # b_ij + max(b_ik, 0) b_kj + b_ik max(-b_kj, 0), and -b_ik at k
            row = [x + bik * y for x, y in zip(row, plus if bik > 0 else minus)]
            row[ck] = -bik
            row = tuple(row)
        newb.append(row)
    lam_t = tuple(zip(*seed.Lambda))
    conventions = [_conjugated_lambda(seed, k, eps, lam_t) for eps in (1, -1)]
    if conventions[0] != conventions[1]:
        raise IncompatibleResult(f"Lambda mutation at {k}: sign conventions disagree")
    row, col = conventions[0]
    lam = [r[:k] + (x,) + r[k + 1:] for r, x in zip(seed.Lambda, col)]
    lam[k] = row
    try:
        return _interned(seed.n, seed.unfrozen, tuple(newb), tuple(lam), seed.D)
    except IncompatiblePair as exc:
        raise IncompatibleResult(f"mutation at {k} broke compatibility: {exc}") from None


def opposite_seed(seed):
    """Negate both matrices; compatibility is preserved with the same D.

    The dominance order of the result is the reverse of the seed's, so
    it carries every codegree-side computation. The result is the seed
    constructor's (_interned), so the opposite of an opposite is the
    seed itself, and a seed's opposite is checked once per process.
    """
    negb = tuple(tuple(-x for x in row) for row in seed.B)
    negl = tuple(tuple(-x for x in row) for row in seed.Lambda)
    return _interned(seed.n, seed.unfrozen, negb, negl, seed.D)


def _lambda_solver(btilde, unfrozen):
    """dvec -> integer skew Lambda with B^T Lambda = (diag(dvec) 0), or None.

    Raises ValueError if btilde is not n x |unfrozen| over distinct
    vertices, or not of full column rank.
    """
    n = len(btilde)
    nuf = len(unfrozen)
    _check_exchange(n, unfrozen, btilde)
    if _linalg.rank(btilde) != nuf:
        raise ValueError("exchange matrix must have full column rank")
    # unknowns: Lambda[a][b] = -Lambda[b][a] for a < b; one equation per
    # (unfrozen column r, vertex j) of B^T Lambda = (D 0)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mat = tuple(
        tuple((btilde[a][r] if b == j else 0) - (btilde[b][r] if a == j else 0)
              for a, b in pairs)
        for r in range(nuf) for j in range(n))

    def solve(dvec):
        rhs = tuple(dvec[r] if j == unfrozen[r] else 0 for r in range(nuf) for j in range(n))
        x = _linalg.solve_integer(mat, rhs)
        if x is None:
            return None
        upper = dict(zip(pairs, x))
        return tuple(tuple(upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(n))
                     for i in range(n))

    return solve


def _minimal_symmetrizers(principal):
    """Minimal positive integer d with d_i b_ij = -d_j b_ji, per component.

    Returns one (vertices, d0 over those vertices) per connected
    component of the principal part, in order of smallest vertex.
    Raises NoCompatibleLambda when no positive symmetrizer exists.
    """
    # imported in its one use: a seed given with its Lambda loads no fractions or decimal
    from fractions import Fraction

    nuf = len(principal)
    ratio = [None] * nuf
    components = []
    for root in range(nuf):
        if ratio[root] is not None:
            continue
        ratio[root], members = Fraction(1), [root]
        for i in members:
            for j in range(nuf):
                bij, bji = principal[i][j], principal[j][i]
                if bij == bji == 0:
                    continue
                want = ratio[i] * -bij / bji if bij * bji < 0 else None
                if want is not None and ratio[j] is None:
                    ratio[j] = want
                    members.append(j)
                elif want is None or ratio[j] != want:
                    raise NoCompatibleLambda(
                        f"principal part is not skew-symmetrizable at ({i}, {j})")
        scale = lcm(*(ratio[i].denominator for i in members))
        d0 = [int(ratio[i] * scale) for i in members]
        components.append((members, [x // gcd(*d0) for x in d0]))
    return components


def find_compatible_lambda(btilde, unfrozen=None):
    """Synthesize a skew integer Lambda and positive diagonal D for btilde.

    B^T Lambda = (D 0) forces D times the principal part of btilde (its
    rows at the unfrozen vertices) to be skew-symmetric, which fixes D
    up to one positive integer multiple of a minimal symmetrizer per
    connected component. Those multiples with every entry <= D_MAX are
    tried in lexicographic order of D, one integer solve each, and the
    first hit is returned as (Lambda, D). At most SOLVES_MAX = 512
    candidate D are solved, which covers every seed of up to three
    components.

    Raises ValueError if btilde is malformed or not of full column rank,
    and NoCompatibleLambda when the principal part is not skew-symmetrizable
    or no candidate within the bounds admits an integer Lambda.
    """
    nuf = len(btilde[0]) if btilde else 0
    unfrozen = tuple(range(nuf)) if unfrozen is None else tuple(unfrozen)
    solve = _lambda_solver(btilde, unfrozen)
    components = _minimal_symmetrizers([btilde[k] for k in unfrozen])
    ranges = [range(1, D_MAX // max(d0) + 1) for _, d0 in components]
    candidates = product(*ranges)
    for multiples in islice(candidates, SOLVES_MAX):
        dvec = [0] * nuf
        for (members, d0), c in zip(components, multiples):
            for i, x in zip(members, d0):
                dvec[i] = c * x
        lam = solve(dvec)
        if lam is not None:
            return lam, tuple(dvec)
    if next(candidates, None) is not None:
        raise NoCompatibleLambda(f"no compatible skew form among the first {SOLVES_MAX} "
                                 "candidate D; give D or Lambda in the seed")
    raise NoCompatibleLambda(f"no compatible skew form with diagonal entries <= {D_MAX}")


def make_seed(btilde, lam=None, unfrozen=None, d=None):
    """The checked QuantumSeed of the data, the seed constructor's object
    (_interned); the one place Lambda and D are derived.

    Without lam and d, both are synthesized by find_compatible_lambda.
    With d alone, Lambda is solved for exactly that D, which must be
    positive (NoCompatibleLambda if there is none). With lam alone, D is
    read off B^T Lambda, and a diagonal entry that is not positive makes
    the pair incompatible.

    Raises IncompatiblePair when the resulting pair fails
    check_compatible or that diagonal, and ValueError on malformed input.
    """
    n = len(btilde)
    nuf = len(btilde[0]) if n else 0
    unfrozen = tuple(range(nuf)) if unfrozen is None else tuple(unfrozen)
    btilde = tuple(tuple(row) for row in btilde)
    if lam is None and d is None:
        lam, d = find_compatible_lambda(btilde, unfrozen)
    elif lam is None:
        d = tuple(d)
        _check_d(unfrozen, d)
        lam = _lambda_solver(btilde, unfrozen)(d)
        if lam is None:
            raise NoCompatibleLambda(f"no compatible skew form for D = {list(d)}")
    else:
        lam = tuple(tuple(row) for row in lam)
        if d is None:
            _check_shape(n, unfrozen, btilde, lam)
            bt_lam = _linalg.mat_mul(_linalg.transpose(btilde), lam)
            d = tuple(bt_lam[r][k] for r, k in enumerate(unfrozen))
            bad = next((r for r, x in enumerate(d) if x <= 0), None)
            if bad is not None:
                raise IncompatiblePair(f"(B^T Lambda)[{bad}][{unfrozen[bad]}] = {d[bad]}, "
                                       "expected a positive entry")
    return _interned(n, unfrozen, btilde, lam, tuple(d))


def principal_framing(b_principal):
    """Stack an identity block under a square exchange matrix.

    The first block of vertices stays unfrozen, the new block is frozen;
    a compatible skew form always exists here and is synthesized.
    """
    m = len(b_principal)
    rows = [tuple(row) for row in b_principal]
    rows += [unit_vec(m, i) for i in range(m)]
    return make_seed(tuple(rows), unfrozen=tuple(range(m)))
