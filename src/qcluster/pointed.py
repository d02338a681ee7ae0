"""Dominance order, degrees/codegrees, normalization, decomposition.

For a seed t, an exponent vector g' is dominated by g when g' = g + B n
for some nonnegative integer vector n on the unfrozen vertices. Since B
has full column rank, that n is unique when it exists.

Every dominance test goes through one projection per seed, read off
the compatible pair in closed form: B^T Lambda = (D 0) makes
P = D^-1 Lambda[:, U]^T a left inverse of B (P B = I), kept as the
integer rows p_num = p_den P with p_den = lcm(D), and K is an integer
basis of B's left kernel. An exponent m projects once to (p_num m, K m).
Then g' is dominated by g exactly when K g' = K g (g' - g lies in the
column space of B), p_num (g' - g) is divisible by p_den (the rational
n is integral) and the quotient n is >= 0. The functional
w = -p_den P^T 1 has B^T w = -p_den 1, so w . m = -sum(p_num m) is
strictly larger at a degree than at any exponent it dominates.

Each seed's projection keeps a memo of the exponents it has projected,
since one torus's decompositions and measures meet the same exponents
again and again. The memo is bounded: it is cleared whenever it reaches
PROJECTION_MEMO_LIMIT entries, so it never holds more than that many
per seed.

The degree of a torus element is the unique dominance-maximal exponent
of its support, when there is one: the unique maximizer of w that also
dominates every other support exponent. An element is pointed when the
leading coefficient is 1; normalization divides by a unit leading
coefficient. decompose() peels a pointed element against a degree-keyed
set of pointed elements, greedily eliminating a maximal support degree
per step. Both scan the support with each exponent projected once per
call.

decompose() works in n-coordinates, the separation-formula view X^g F(Y)
of a pointed element (Fomin-Zelevinsky, Cluster algebras IV): every
exponent at or below the window's top is top + B n for a unique n >= 0,
and below the top g' <= g iff n(g') >= n(g) componentwise. So the
maximal ones are the Pareto-minimal n, and the window is the box
0 <= n <= n(window bottom). Its residual is one dict of integer
coefficient dicts, from which each step subtracts its coefficient times
the basis element in place, dropping the terms that cancel.

Normalization and decomposition are implemented on the degree side
only. Negating B and Lambda (seed.opposite_seed) reverses the dominance
order, so codegrees are degrees in the opposite seed, and normalizing at
the codegree or decomposing against codegree-keyed copointed elements is
normalize_deg or decompose there, with the window's two ends traded.
The opposite seed's projection is the seed's with p_num negated, so a
Support reads both ends, the degree and the codegree, off one projection
in the seed itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import lcm
from operator import sub

from . import _linalg
from .qtorus import VCoeff, _add_product, vec_add


class NonUnitLeading(ArithmeticError):
    """Normalization needs the extremal coefficient to be +-v**a."""


DECOMPOSE_ITERATION_CAP = 10 ** 5

PROJECTION_MEMO_LIMIT = 4096  # projections a seed keeps before it forgets them all


@dataclass(frozen=True)
class _Projection:
    """One seed's dominance coordinates: p_num / p_den is a left inverse
    of B and kernel an integer basis of B's left kernel. memo keeps the
    projections made, up to PROJECTION_MEMO_LIMIT, and takes no part in
    equality or hashing."""

    p_num: tuple
    p_den: int
    kernel: tuple
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def project(self, m):
        """m -> (p_num m, K m), from the memo when m was projected since
        it was last cleared; the memo is cleared when full."""
        hit = self.memo.get(m)
        if hit is None:
            if len(self.memo) >= PROJECTION_MEMO_LIMIT:
                self.memo.clear()
            hit = self.memo[m] = (_linalg.mat_vec(self.p_num, m),
                                  _linalg.mat_vec(self.kernel, m))
        return hit

    def n_between(self, pgp, pg):
        """The n >= 0 with gp = g + B n, from the projections of gp and g,
        or None when gp is not dominated by g."""
        if pgp[1] != pg[1]:
            return None
        n = tuple(map(sub, pgp[0], pg[0]))
        if n and min(n) < 0:
            return None
        if self.p_den == 1:
            return n
        if any(x % self.p_den for x in n):
            return None
        return tuple(x // self.p_den for x in n)


@lru_cache(maxsize=None)
def _dominance_data(seed) -> _Projection:
    """The seed's projection, in closed form from B^T Lambda = (D 0).

    Row r of p_num is (p_den / D_r) times column U_r of Lambda; the
    kernel basis is the last n - |unfrozen| columns of V in an integer
    diagonalization U B^T V = S. Raises ValueError when P B = I fails,
    that is, when the seed is not a compatible pair.
    """
    nuf = len(seed.unfrozen)
    p_den = lcm(*seed.D)
    p_num = tuple(
        tuple(p_den // d * row[k] for row in seed.Lambda)
        for k, d in zip(seed.unfrozen, seed.D)
    )
    if _linalg.mat_mul(p_num, seed.B) != tuple(
            tuple(p_den * x for x in row) for row in _linalg.identity(nuf)):
        raise ValueError("B^T Lambda = (D 0) fails: no left inverse of B from the pair")
    if nuf:
        _, _, v = _linalg.diagonalize(_linalg.transpose(seed.B))
        kernel = _linalg.transpose(v)[nuf:]
    else:
        kernel = _linalg.identity(seed.n)
    return _Projection(p_num, p_den, kernel)


def dominance_n(seed, gp, g):
    """The n >= 0 with gp = g + B n, or None when gp is not dominated by g."""
    dom = _dominance_data(seed)
    return dom.n_between(dom.project(gp), dom.project(g))


def dominance_leq(seed, gp, g):
    """True iff gp is dominated by g in the seed's dominance order."""
    return dominance_n(seed, gp, g) is not None


def degree(seed, z):
    """Unique dominance-maximal support exponent, or None if not unique."""
    return Support(seed, z).top()


def codegree(seed, z):
    """Unique dominance-minimal support exponent, or None if not unique."""
    return Support(seed, z).bottom()


class Support:
    """A nonzero element's support in one seed's dominance coordinates:
    each exponent projected once, with its rank sum(p_num m) = -(w . m).
    Both ends are read off it.

    The codegree is the degree in the opposite seed, whose projection is
    this one with p_num negated (the same kernel): the unique exponent of
    largest rank when every other support exponent dominates it.
    """

    def __init__(self, seed, z):
        if not z:
            raise ValueError("zero element has no degree")
        self._dom = _dominance_data(seed)
        self._proj = {m: self._dom.project(m) for m in z.terms}
        self._ranks = {m: sum(p[0]) for m, p in self._proj.items()}

    def top(self):
        """The degree, or None."""
        return self._end(top=True)

    def bottom(self):
        """The codegree, or None."""
        return self._end(top=False)

    def _end(self, top):
        """The unique exponent of least rank when it dominates every other
        one (top), or of largest rank when every other one dominates it;
        None when there is no such exponent."""
        best = (min if top else max)(self._ranks.values())
        cands = [m for m, r in self._ranks.items() if r == best]
        if len(cands) > 1:
            return None
        g = cands[0]
        pg = self._proj[g]
        between = self._dom.n_between
        if top:
            ns = (between(p, pg) for m, p in self._proj.items() if m != g)
        else:
            ns = (between(pg, p) for m, p in self._proj.items() if m != g)
        return None if any(n is None for n in ns) else g


@dataclass(frozen=True)
class Bidegree:
    deg: tuple
    codeg: tuple


def bidegree(seed, z):
    """Bidegree (degree, codegree) or None when either end is ambiguous,
    from one projection of the support."""
    support = Support(seed, z)
    d, c = support.top(), support.bottom()
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
    c = z.terms.get(g)
    if c is None:
        raise NonUnitLeading(f"element has no term at {g} to normalize at")
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


def _maximal_support(dom, supp, proj, n_of):
    """Dominance-maximal elements of a finite exponent set.

    proj maps each exponent to its projection, and n_of to its
    n-coordinates below a common top, or to None when it is not below
    the top. Below the top the maxima are the Pareto-minimal n. An
    exponent not below the top is never dominated by one below it, so
    only those few are compared pairwise: among themselves, and against
    the maxima below the top.
    """
    below = sorted((sum(n_of[m]), n_of[m], m) for m in supp if n_of[m] is not None)
    minima = []
    for _, n, m in below:
        # only a smaller sum can lie componentwise below n
        if not any(all(a <= b for a, b in zip(o, n)) for o, _ in minima):
            minima.append((n, m))
    above = [m for m in supp if n_of[m] is None]

    def leq(a, b):
        return dom.n_between(proj[a], proj[b]) is not None

    out = [m for _, m in minima if not any(leq(m, q) for q in above)]
    out += [q for q in above if not any(p != q and leq(q, p) for p in above)]
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

    Each support exponent is projected once per call, and its
    n-coordinates below window.deg taken from the projection (residual
    terms persist across steps, so both are kept); a pivot is inside the
    window iff its n lies in the box [0, n_total], n_total the n of
    window.codeg. The residual is one {exponent: {v-exponent: int}} dict
    from which each step subtracts its coefficient times the element in
    place, dropping the terms that cancel.
    """
    dom = _dominance_data(seed)
    top = dom.project(window.deg)
    n_total = dom.n_between(dom.project(window.codeg), top)
    proj = {}
    n_of = {}
    terms = []
    r = {m: dict(c._c) for m, c in z.terms.items()}
    for _ in range(DECOMPOSE_ITERATION_CAP):
        if not r:
            return Decomposition(terms=terms, status="exact")
        for m in r:
            if m not in n_of:
                proj[m] = dom.project(m)
                n_of[m] = dom.n_between(proj[m], top)
        pivots = _maximal_support(dom, r, proj, n_of)
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
        c = VCoeff(r[g])
        terms.append((g, c))
        for m, ce in elem.terms.items():
            rm = r.setdefault(m, {})
            _add_product(rm, c, ce, 0, -1)
            if not rm:
                del r[m]
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
