"""Dominance order, degrees/codegrees, n-forms, normalization, decomposition.

For a seed t, an exponent vector g' is dominated by g when g' = g + B n
for some nonnegative integer vector n on the unfrozen vertices. Since B
has full column rank, that n is unique when it exists.

Every dominance test on exponents goes through one projection per seed,
read off the compatible pair in closed form: B^T Lambda = (D 0) makes
P = D^-1 Lambda[:, U]^T a left inverse of B (P B = I), kept as the
integer rows p_num = p_den P with p_den = lcm(D), and K is an integer
basis of B's left kernel. An exponent m projects to (p_num m, K m).
Then g' is dominated by g exactly when K g' = K g (g' - g lies in the
column space of B), p_num (g' - g) is divisible by p_den (the rational
n is integral) and the quotient n is >= 0. The functional
w = -p_den P^T 1 has B^T w = -p_den 1, so w . m = -sum(p_num m) is
strictly larger at a degree than at any exponent it dominates.

The degree of a torus element is the unique dominance-maximal exponent
of its support, when there is one: the unique maximizer of w that also
dominates every other support exponent, found by one scan of the ranks.
An element is pointed when the leading coefficient is 1. degree,
codegree and interval take torus elements, and nothing in the package
calls them: every element it builds is an NForm, which carries its
degree. They stay because bench/tracer.py wraps them by name.

A pointed element is X^g F(Y), the separation formula of
Fomin-Zelevinsky (Cluster algebras IV, arXiv:math/0602259; quantum
F-polynomials: Tran, arXiv:0904.3291): its exponents are g + B n with
n >= 0. An NForm keeps an element as (g, {n: coefficient}), n indexed
by the unfrozen vertices, and its arithmetic never projects. By
B^T Lambda = (D 0), the pairing of B n with any exponent m is

    lambda(B n, m) = sum_k d_k n_k m[U_k],

read off D and m's unfrozen entries, so twisted products (mul) stay in
n-coordinates: the product of (g1, n1) and (g2, n2) is at (g1 + g2,
n1 + n2) with v-exponent lambda(g1, g2) + sum_k d_k (n1_k g2[U_k] -
n2_k g1[U_k]) + n1^T D B_U n2, B_U the unfrozen rows of B. The n = 0
coefficient of a product of pointed elements is exactly
v^lambda(g1, g2), so normalizing is one v-shift. Exact division
(divide) inverts mul term by term from the lexicographically least n,
and a sum (add) is based at the base that dominates the other, one
projection of the two. mul, divide, add and each decompose step
accumulate through one kernel (_add_row), one call per row term: mul
past its one-term fast path once per term of its left factor, divide
once per quotient term, add once, and decompose once per pivot. An NForm's degree is g when no n
is negative and n = 0 is a term, and its codegree is g + B n_max when
the componentwise-largest n_max is a term. expand reads g + B n back, the
one way from an NForm to a torus element.

decompose() peels an NForm against a degree-keyed set of pointed
NForms, greedily eliminating a maximal support degree per step. Its
residual is keyed by n below the window's top: g' <= g iff
n(g') >= n(g) componentwise, so the maximal terms are the Pareto-minimal
n, and the window is the box 0 <= n <= n(window bottom). The residual
is one dict of integer coefficient dicts, from which each step
subtracts its coefficient times the basis element in place, dropping
the terms that cancel.

Normalization and decomposition are implemented on the degree side
only. Negating B and Lambda (seed.opposite_seed) reverses the dominance
order, so codegrees are degrees in the opposite seed, and normalizing at
the codegree or decomposing against codegree-keyed copointed elements is
NForm.normalized or decompose there, with the window's two ends traded,
on the same element read from its codegree (NForm.opposite).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from math import lcm
from operator import add as _plus, le, mul as _times, neg, sub

from . import _linalg
from .qtorus import NotDivisible, QTElem, VCoeff, vec_add, vec_sub
from .seed import opposite_seed


class NonUnitLeading(ArithmeticError):
    """Normalization needs the extremal coefficient to be +-v**a."""


DECOMPOSE_ITERATION_CAP = 10 ** 5


class _Projection:
    """One seed's dominance coordinates: p_num / p_den is a left inverse
    of B and kernel an integer basis of B's left kernel. Compares by
    identity (one per seed, from _dominance_data); immutable by
    convention."""

    __slots__ = ("p_num", "p_den", "kernel")

    def __init__(self, p_num, p_den, kernel):
        self.p_num = p_num
        self.p_den = p_den
        self.kernel = kernel

    def project(self, m):
        """m -> (p_num m, K m)."""
        return _linalg.mat_vec(self.p_num, m), _linalg.mat_vec(self.kernel, m)

    def offset(self, pgp, pg):
        """The integer n with gp = g + B n, from the projections of gp and
        g, or None when there is none."""
        if pgp[1] != pg[1]:
            return None
        n = tuple(map(sub, pgp[0], pg[0]))
        if self.p_den == 1:
            return n
        if any(x % self.p_den for x in n):
            return None
        return tuple(x // self.p_den for x in n)

    def n_between(self, pgp, pg):
        """The n >= 0 with gp = g + B n, from the projections of gp and g,
        or None when gp is not dominated by g."""
        n = self.offset(pgp, pg)
        return None if n is None or (n and min(n) < 0) else n


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


@lru_cache(maxsize=None)
def _pairing_data(seed):
    """The seed's (unfrozen vertex, d) pairs and the rows of D B_U, all
    that pairs n-coordinates: lambda(B n, m) = sum_k d_k n_k m[U_k] and
    lambda(B n1, B n2) = n1^T D B_U n2."""
    units = tuple(zip(seed.unfrozen, seed.D))
    return units, tuple(tuple(d * x for x in seed.B[u]) for u, d in units)


def dominance_n(seed, gp, g):
    """The n >= 0 with gp = g + B n, or None when gp is not dominated by g."""
    dom = _dominance_data(seed)
    return dom.n_between(dom.project(gp), dom.project(g))


def dominance_leq(seed, gp, g):
    """True iff gp is dominated by g in the seed's dominance order."""
    return dominance_n(seed, gp, g) is not None


def degree(seed, z):
    """Unique dominance-maximal support exponent, or None if not unique:
    an exponent of least rank sum(p_num m) = -(w . m), when it dominates
    every other one (a dominated exponent has a larger rank, so a tie
    leaves none). One projection per exponent."""
    if not z:
        raise ValueError("zero element has no degree")
    dom = _dominance_data(seed)
    proj = {m: dom.project(m) for m in z.terms}
    g = min(proj, key=lambda m: sum(proj[m][0]))
    return g if all(dom.n_between(p, proj[g]) is not None for p in proj.values()) else None


def codegree(seed, z):
    """Unique dominance-minimal support exponent, or None if not unique:
    the degree in the opposite seed, whose dominance order is reversed."""
    return degree(opposite_seed(seed), z)


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


class NForm:
    """The torus element sum_n c_n X^(g + B n) of one seed, kept as its
    base exponent g and {n: VCoeff}, each n indexed by the seed's unfrozen
    vertices (the separation formula X^g F(Y)). Immutable, like QTElem;
    zero coefficients are never stored, so equality is structural."""

    __slots__ = ("g", "terms")

    def __init__(self, g, terms):
        self.g = g
        self.terms = terms

    @classmethod
    def monomial(cls, m, rank):
        """X^m, for a seed with rank unfrozen vertices."""
        return cls(tuple(m), _unit_terms(rank))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NForm) and self.g == other.g and self.terms == other.terms

    def __repr__(self):
        return f"NForm({self.g}, {self.terms})"

    def vshift(self, e):
        """Multiply by v**e; self when e is 0."""
        if e == 0:
            return self
        return NForm(self.g, {n: c.shift(e) for n, c in self.terms.items()})

    def bar(self):
        """Bar involution on every coefficient."""
        return NForm(self.g, {n: c.bar() for n, c in self.terms.items()})

    def is_pointed(self):
        """Pointed at g: no n is negative and the coefficient at n = 0 is 1."""
        zero = (0,) * len(next(iter(self.terms), ()))
        c = self.terms.get(zero)
        return (c is not None and c.is_one()
                and min(chain.from_iterable(self.terms), default=0) >= 0)

    def normalized(self):
        """Divided by the coefficient at n = 0, which must be a unit
        (NonUnitLeading otherwise)."""
        c = self.terms.get((0,) * len(next(iter(self.terms), ())))
        if c is None or not c.is_unit():
            raise NonUnitLeading(f"coefficient {c} at n = 0 is not a unit")
        inv = c.unit_inverse()
        return NForm(self.g, {n: x * inv for n, x in self.terms.items()})

    def co_n(self):
        """The componentwise-largest n when it is a term (the codegree's),
        else None."""
        if not self.terms:
            return None
        top = tuple(map(max, *self.terms)) if len(self.terms) > 1 else next(iter(self.terms))
        return top if top in self.terms else None

    def codegree(self, seed):
        """The exponent g + B n_max of the co_n term, or None without one."""
        top = self.co_n()
        return None if top is None else vec_add(self.g, _linalg.mat_vec(seed.B, top))

    def expand(self, seed):
        """The torus element: exponent g + B n per term."""
        return QTElem(len(self.g), {vec_add(self.g, _linalg.mat_vec(seed.B, n)): c
                                    for n, c in self.terms.items()})

    def opposite(self, seed):
        """The same element in the opposite seed's n-coordinates, read from
        its codegree: (codegree, {n_max - n: c}). Raises ValueError when
        it has no codegree term."""
        top = self.co_n()
        if top is None:
            raise ValueError("element has no codegree to read it from")
        eta = vec_add(self.g, _linalg.mat_vec(seed.B, top))
        return NForm(eta, {vec_sub(top, n): c for n, c in self.terms.items()})


@lru_cache(maxsize=None)
def _unit_terms(rank):
    """{n = 0: 1}: one dict shared by the NForms of unit-coefficient
    monomials, which never mutate their terms."""
    return {(0,) * rank: VCoeff.one()}


def mul(seed, a, b, normalize=False):
    """Twisted product of two NForms of the seed, never projected.

    The term pair (n1, n2) lands at n1 + n2 with v-exponent
    s1 + s2 + p1 . p2: s1 = lambda(a.g, b.g) + sum_k d_k n1_k b.g[U_k],
    s2 = -sum_k d_k n2_k a.g[U_k], and p1 . p2 = n1^T D B_U n2, formed
    as n1^T D B_U once per term of a when a has at most as many terms as
    b, else as D B_U n2 once per term of b. When either factor has one
    term (a monomial X^m, for one), the product is one shifted copy of
    each term of the other, at one dot product per term. With normalize,
    the product is divided by its n = 0 coefficient, a's times b's times
    v^lambda(a.g, b.g), which must be a unit: the lambda term is dropped
    and the rest folded into the same pass.
    """
    if normalize:
        zero = (0,) * len(seed.unfrozen)
        ca, cb = a.terms.get(zero), b.terms.get(zero)
        if ca is None or cb is None or not ca.is_unit() or not cb.is_unit():
            raise NonUnitLeading("a factor's coefficient at n = 0 is not a unit")
        (ea, sa), = ca._c.items()
        (eb, sb), = cb._c.items()
        shift, sign = -ea - eb, sa * sb
    else:
        shift, sign = seed.lam(a.g, b.g), 1
    units, db = _pairing_data(seed)
    d_a = tuple(d * a.g[u] for u, d in units)
    d_b = tuple(d * b.g[u] for u, d in units)
    g = tuple(map(_plus, a.g, b.g))
    lone = _lone_term(a.terms)
    if lone is not None:
        return NForm(g, _shifted_copies(lone, b.terms, shift, tuple(map(neg, d_a)), sign))
    lone = _lone_term(b.terms)
    if lone is not None:
        return NForm(g, _shifted_copies(lone, a.terms, shift, d_b, sign))
    left = [(n1, [(e1, sign * x1) for e1, x1 in c1._c.items()],
             shift + sum(map(_times, d_b, n1))) for n1, c1 in a.terms.items()]
    right = [(n2, c2._c, -sum(map(_times, d_a, n2))) for n2, c2 in b.terms.items()]
    if len(left) <= len(right):
        left = [(n1, c1, s1, tuple(sum(map(_times, n1, col)) for col in zip(*db)))
                for n1, c1, s1 in left]
        right = [(n2, c2, s2, n2) for n2, c2, s2 in right]
    else:
        left = [(n1, c1, s1, n1) for n1, c1, s1 in left]
        right = [(n2, c2, s2, tuple(sum(map(_times, row, n2)) for row in db))
                 for n2, c2, s2 in right]
    t = {}
    for n1, c1, s1, p1 in left:
        _add_row(t, n1, c1, s1, p1, right)
    return NForm(g, {n: VCoeff._of(c) for n, c in t.items()})


def _add_row(t, n1, c1, s1, p1, right):
    """t += the row term times each (n2, {e: x}, s2, p2) of right, in
    place, on a {n: {v-exponent: int}} dict. The row term is at n1, with
    (e, x) pairs c1, v-exponent s1 and pairing vector p1; each product
    lands at n1 + n2 with v-exponent s1 + s2 + p1 . p2. Coefficients and
    dicts that cancel are dropped as they do."""
    for n2, c2, s2, p2 in right:
        key = tuple(map(_plus, n1, n2))
        acc = t.get(key)
        if acc is None:
            acc = t[key] = {}
        e = s1 + s2 + sum(map(_times, p1, p2))
        for e1, x1 in c1:
            for e2, x2 in c2.items():
                k = e1 + e2 + e
                x = acc.get(k, 0) + x1 * x2
                if x:
                    acc[k] = x
                else:
                    del acc[k]
        if not acc:
            del t[key]


def _lone_term(terms):
    """(e, x) when terms is the one term x v^e at n = 0, else None."""
    if len(terms) == 1:
        (n, c), = terms.items()
        if len(c._c) == 1 and not any(n):
            (t,) = c._c.items()
            return t
    return None


def _shifted_copies(lone, other, s, w, sign):
    """The terms of a product with the one-term factor x0 v^e0 at n = 0
    (lone = (e0, x0)): each term (n, c) of the other factor keeps its n,
    with coefficient sign x0 v^(e0 + s + w . n) c."""
    e0, x0 = lone
    x0 *= sign
    out = {}
    for n, c in other.items():
        e = e0 + s + sum(map(_times, w, n))
        out[n] = VCoeff._of({k + e: x0 * x for k, x in c._c.items()})
    return out


def add(seed, a, b):
    """a + b for two NForms of the seed, based at whichever base dominates
    the other: one projection of the two bases. Raises RuntimeError when
    neither does."""
    dom = _dominance_data(seed)
    n = dom.offset(dom.project(b.g), dom.project(a.g))
    if n is not None and min(n, default=0) < 0:
        a, b, n = b, a, tuple(-x for x in n)
    if n is None or min(n, default=0) < 0:
        raise RuntimeError(f"neither of the bases {a.g} and {b.g} dominates the other")
    t = {m: dict(c._c) for m, c in a.terms.items()}
    _add_row(t, n, ((0, 1),), 0, (), [(m, c._c, 0, ()) for m, c in b.terms.items()])
    return NForm(a.g, {m: VCoeff._of(c) for m, c in t.items()})


def divide(seed, num, d):
    """The NForm q with mul(seed, q, d) == num, for a pointed d, based at
    num.g - d.g.

    d's least n is 0, with coefficient 1, so the remainder's
    lexicographically least n is a quotient term's, with its coefficient
    one v-shift of the remainder's, and d's n = 0 term cancels the
    remainder there exactly. Each step places that term and subtracts
    its product with d's other terms in place, as mul forms it. The
    quotient's n lie in the box forced by the per-coordinate extremes of
    the two supports; a term outside it raises NotDivisible.
    """
    if not d.is_pointed():
        raise NonUnitLeading("the divisor is not pointed")
    g = vec_sub(num.g, d.g)
    cols, dcols = tuple(zip(*num.terms)), tuple(zip(*d.terms))
    lo = tuple(min(x) - min(y) for x, y in zip(cols, dcols))
    hi = tuple(max(x) - max(y) for x, y in zip(cols, dcols))
    if any(a > b for a, b in zip(lo, hi)):
        raise NotDivisible("incompatible support boxes")
    units, db = _pairing_data(seed)
    d_q = tuple(k * g[u] for u, k in units)
    d_d = tuple(k * d.g[u] for u, k in units)
    right = [(n2, c2._c, -sum(map(_times, d_q, n2)), tuple(sum(map(_times, row, n2)) for row in db))
             for n2, c2 in d.terms.items() if any(n2)]
    shift = seed.lam(g, d.g)
    q = {}
    r = {n: dict(c._c) for n, c in num.terms.items()}
    while r:
        nq = min(r)
        rq = r.pop(nq)
        if not (all(map(le, lo, nq)) and all(map(le, nq, hi))):
            raise NotDivisible(f"quotient term {nq} escapes the support box")
        s1 = shift + sum(map(_times, d_d, nq))
        q[nq] = VCoeff._of({e - s1: x for e, x in rq.items()})
        _add_row(r, nq, [(e, -x) for e, x in rq.items()], 0, nq, right)
    return NForm(g, q)


class Decomposition:
    """decompose's result: the (g, coefficient) terms found, in the order
    found, and "exact" or "indeterminate" with a reason. Compares by its
    three fields (the oracle tests compare decompositions); immutable by
    convention."""

    __slots__ = ("terms", "status", "reason")

    def __init__(self, terms, status="exact", reason=None):
        self.terms = terms
        self.status = status
        self.reason = reason

    def __eq__(self, other):
        if type(other) is not Decomposition:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def is_exact(self):
        return self.status == "exact"


def _maximal_support(ns):
    """The dominance-maximal terms of a residual keyed by n below a common
    top: its Pareto-minimal n."""
    minima = []
    for n in sorted(ns, key=sum):
        # only a smaller sum can lie componentwise below n
        for o in minima:
            if all(map(le, o, n)):
                break
        else:
            minima.append(n)
    return minima


def decompose(seed, z, basis, box, tie_break=None):
    """Unitriangular expansion of the NForm z over degree-keyed pointed
    NForms.

    z's degree z.g is the window's top, and box the n of its bottom
    below the top (None for an empty window). basis is any mapping whose
    get(g) returns the NForm keyed, and based, at exponent g, or None.
    Greedy elimination from the top: each step removes one maximal
    support term, a Pareto-minimal n, which must lie in the box
    0 <= n <= box and whose exponent z.g + B n must carry a basis
    element. Ties between incomparable maxima break to the
    lexicographically smallest exponent (tie_break overrides the choice;
    the resulting term multiset is order-independent). Failures are
    reported in the status, never raised.

    The residual is one {n: {v-exponent: int}} dict from which each step
    subtracts its coefficient times the element in place (the element's
    term n' lands at n + n'), dropping the terms that cancel. Each step
    forms the exponents of the residual's Pareto-minimal n alone, one
    mat_vec each; nothing is projected.
    """
    r = {n: dict(c._c) for n, c in z.terms.items()}
    terms = []
    for _ in range(DECOMPOSE_ITERATION_CAP):
        if not r:
            return Decomposition(terms=terms, status="exact")
        pivots = {vec_add(z.g, _linalg.mat_vec(seed.B, n)): n for n in _maximal_support(r)}
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        n = pivots[g]
        if box is None or min(n, default=0) < 0 or not all(map(le, n, box)):
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
        c = VCoeff(r[n])
        terms.append((g, c))
        _add_row(r, n, [(e, -x) for e, x in c._c.items()], 0, (),
                 [(m, ce._c, 0, ()) for m, ce in elem.terms.items()])
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
