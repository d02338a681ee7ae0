"""Dominance order, degrees/codegrees, normalization, decomposition.

For a seed t, an exponent vector g' is dominated by g when g' = g + B n
for some nonnegative integer vector n on the unfrozen vertices. Since B
has full column rank, membership is decided by solving for the unique
rational candidate n and checking integrality and sign.

The degree of a torus element is the unique dominance-maximal exponent
of its support, when there is one. An element is pointed when the
leading coefficient is 1; normalization divides by a unit leading
coefficient. decompose() peels a pointed element against a degree-keyed
set of pointed elements, greedily eliminating a maximal support degree
per step.

decompose() works in n-coordinates, the separation-formula view X^g F(Y)
of a pointed element (Fomin-Zelevinsky, Cluster algebras IV): every
exponent at or below the window's top is top + B n for a unique n >= 0,
and below the top g' <= g iff n(g') >= n(g) componentwise. So each
support exponent is projected once per call, the maximal ones are the
Pareto-minimal n, and the window is the box 0 <= n <= n(window bottom).

Only the degree side is implemented. Negating B and Lambda
(seed.opposite_seed) reverses the dominance order, so codegrees are
degrees in the opposite seed, and normalizing at the codegree or
decomposing against codegree-keyed copointed elements is normalize_deg
or decompose there, with the window's two ends traded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import lcm

from . import _linalg
from .qtorus import QTElem, vec_add, vec_sub
from .seed import opposite_seed


class NonUnitLeading(ArithmeticError):
    """Normalization needs the extremal coefficient to be +-v**a."""


DECOMPOSE_ITERATION_CAP = 10 ** 5


@lru_cache(maxsize=None)
def _dominance_data(seed):
    """Per-seed exact helpers for dominance tests.

    Returns (w, p_num, p_den):
      w      integer functional with w . (B n) < 0 for every n >= 0, n != 0,
             so the degree of a pointed element strictly maximizes w;
      p_num / p_den   integer left inverse of B: n = p_num (g'-g) / p_den.
    """
    bt = _linalg.transpose(seed.B)
    nuf = len(seed.unfrozen)
    w_frac = _linalg.solve_any(bt, (-1,) * nuf)
    gram_inv = _linalg.invert(_linalg.mat_mul(bt, seed.B))
    if w_frac is None or gram_inv is None:
        raise ValueError("exchange matrix lacks full column rank")
    den = lcm(*(f.denominator for f in w_frac))
    w = tuple(int(f * den) for f in w_frac)
    pinv = _linalg.mat_mul(gram_inv, bt)
    p_den = lcm(*(f.denominator for row in pinv for f in row))
    p_num = tuple(tuple(int(f * p_den) for f in row) for row in pinv)
    return w, p_num, p_den


def dominance_n(seed, gp, g):
    """The n >= 0 with gp = g + B n, or None when gp is not dominated by g."""
    diff = vec_sub(gp, g)
    _, p_num, p_den = _dominance_data(seed)
    num = _linalg.mat_vec(p_num, diff)
    if any(x % p_den for x in num):
        return None
    n = tuple(x // p_den for x in num)
    if any(x < 0 for x in n):
        return None
    if _linalg.mat_vec(seed.B, n) != diff:
        return None
    return n


def dominance_leq(seed, gp, g):
    """True iff gp is dominated by g in the seed's dominance order."""
    return dominance_n(seed, gp, g) is not None


def _w_value(seed, m):
    w, _, _ = _dominance_data(seed)
    return sum(a * b for a, b in zip(w, m))


def degree(seed, z):
    """Unique dominance-maximal support exponent, or None if not unique."""
    return _extremal(seed, z)


def codegree(seed, z):
    """Unique dominance-minimal support exponent, or None if not unique.

    The degree in the opposite seed, computed without going through
    degree() so that a codegree never counts as a degree call.
    """
    return _extremal(opposite_seed(seed), z)


def _extremal(seed, z):
    if not z:
        raise ValueError("zero element has no degree")
    supp = list(z.terms)
    vals = [_w_value(seed, m) for m in supp]
    best = max(vals)
    cands = [m for m, v in zip(supp, vals) if v == best]
    if len(cands) > 1:
        return None
    g = cands[0]
    if any(m != g and not dominance_leq(seed, m, g) for m in supp):
        return None
    return g


@dataclass(frozen=True)
class Bidegree:
    deg: tuple
    codeg: tuple


def bidegree(seed, z):
    """Bidegree (degree, codegree) or None when either end is ambiguous."""
    d = degree(seed, z)
    c = codegree(seed, z)
    if d is None or c is None:
        return None
    return Bidegree(d, c)


def normalize_deg(seed, z):
    """Divide by the leading coefficient, which must be a unit +-v**a."""
    return normalize_at(z, degree(seed, z))


def normalize_at(z, g):
    """Divide by the coefficient at an already measured (co)degree g,
    which must be a unit +-v**a."""
    if g is None:
        raise NonUnitLeading("element has no degree to normalize at")
    c = z.terms[g]
    if not c.is_unit():
        raise NonUnitLeading(f"leading coefficient {c} is not a unit")
    return z.scale(c.unit_inverse())


def interval(seed, lo, hi):
    """All g with lo <= g <= hi in dominance order, sorted lexicographically.

    Finite: the n-coordinates of members fill the box [0, n_total].
    """
    n_tot = dominance_n(seed, lo, hi)
    if n_tot is None:
        return []
    out = []
    for nvec in product(*(range(c + 1) for c in n_tot)):
        out.append(vec_add(hi, _linalg.mat_vec(seed.B, nvec)))
    return sorted(set(out))


@dataclass
class Decomposition:
    terms: list = field(default_factory=list)
    status: str = "exact"
    reason: str | None = None

    @property
    def is_exact(self):
        return self.status == "exact"


def _maximal_support(seed, supp, n_of):
    """Dominance-maximal elements of a finite exponent set.

    n_of maps each exponent to its n-coordinates below a common top, or
    to None when it is not below the top. Below the top the maxima are
    the Pareto-minimal n. An exponent not below the top is never
    dominated by one below it, so only those few are compared pairwise:
    among themselves, and against the maxima below the top.
    """
    below = sorted((sum(n_of[m]), n_of[m], m) for m in supp if n_of[m] is not None)
    minima = []
    for _, n, m in below:
        # only a smaller sum can lie componentwise below n
        if not any(all(a <= b for a, b in zip(o, n)) for o, _ in minima):
            minima.append((n, m))
    above = [m for m in supp if n_of[m] is None]
    out = [m for _, m in minima if not any(dominance_leq(seed, m, q) for q in above)]
    out += [q for q in above if not any(p != q and dominance_leq(seed, q, p) for p in above)]
    return out


def decompose(seed, z, basis, window: Bidegree, tie_break=None):
    """Unitriangular expansion of z over degree-keyed pointed elements.

    basis is any mapping whose get(g) returns the element keyed at g, or
    None. Greedy elimination from the top: each step removes one maximal
    support degree, which must carry a basis element and stay inside
    [window.codeg, window.deg]. Ties between incomparable maxima break
    to the lexicographically smallest (tie_break overrides the choice;
    the resulting term multiset is order-independent). Failures are
    reported in the status, never raised.

    Each support exponent is projected once per call onto its
    n-coordinates below window.deg (residual terms persist across steps,
    so the projections are kept); a pivot is inside the window iff its
    n lies in the box [0, n_total], n_total the n of window.codeg.
    """
    n_total = dominance_n(seed, window.codeg, window.deg)
    n_of = {}
    terms = []
    r = z
    for _ in range(DECOMPOSE_ITERATION_CAP):
        if not r:
            return Decomposition(terms=terms, status="exact")
        for m in r.terms:
            if m not in n_of:
                n_of[m] = dominance_n(seed, m, window.deg)
        pivots = _maximal_support(seed, r.terms, n_of)
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        n = n_of[g]
        if n is None or n_total is None or any(a > b for a, b in zip(n, n_total)):
            return Decomposition(
                terms=terms, status="indeterminate",
                reason=f"support degree {g} escapes the window",
            )
        elem = basis.get(g)
        if elem is None:
            return Decomposition(
                terms=terms, status="indeterminate",
                reason=f"no basis element keyed at {g}",
            )
        c = r.terms[g]
        terms.append((g, c))
        r = r - elem.scale(c)
    return Decomposition(terms=terms, status="indeterminate", reason="iteration cap hit")


def is_m_unitriangular(decomp: Decomposition, pivot):
    """Pivot coefficient 1 and every other coefficient with v-exponents <= -1."""
    if not decomp.is_exact:
        return False
    seen_pivot = False
    for g, c in decomp.terms:
        if g == pivot:
            if not c.is_one():
                return False
            seen_pivot = True
        elif not c.in_m():
            return False
    return seen_pivot


def recompose(decomp: Decomposition, basis, dim):
    """Sum coefficient * basis element; the oracle inverse of decompose."""
    acc = QTElem.zero(dim)
    for g, c in decomp.terms:
        acc = acc + basis.get(g).scale(c)
    return acc
