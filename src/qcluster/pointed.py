"""Dominance order, degrees/codegrees, n-forms, normalization, decomposition.

For a seed t, an exponent vector g' is dominated by g when g' = g + B n
for some nonnegative integer vector n on the unfrozen vertices. Since B
has full column rank, that n is unique when it exists.

Every dominance test on exponents is dominance_n, which checks that
definition directly. The compatible pair gives a left inverse of B in
closed form: B^T Lambda = (D 0) makes P = D^-1 Lambda[:, U]^T satisfy
P B = I, kept as the integer rows p_num = p_den P with p_den = lcm(D).
P only proposes n = floor(P (g' - g)); it is the answer when n >= 0 and
B n = g' - g. If some n solves B n = g' - g, then P (g' - g) = n
exactly, so a wrong P can refuse a dominated pair but never accept one
that is not. The functional w = -p_den P^T 1 has B^T w = -p_den 1, so
w . m = -sum(p_num m) is strictly larger at a degree than at any
exponent it dominates; -w is the column sums of p_num, so the rank
sum(p_num m) is one dot product. Every exponent g + B n, in that test
and wherever an n-form's term is placed (codegree, opposite, expand,
decompose's pivots, interval), is exponent(seed, g, n): one column of
B added per nonzero n_k (_linalg.combine). B's columns, P, the column
sums and the pairing data below (D and D B_U) are made once per seed,
in one cached record (_seed_data).

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
by the unfrozen vertices, and its arithmetic never tests dominance.

Each coefficient sum_e x_e v^e is packed into one int (Kronecker
substitution; Harvey, arXiv:0712.4046): the pair (lo, z) with lo the
least v-exponent and z = sum_e x_e 2^(K_BITS (e - lo)), K_BITS = 32,
each x_e a balanced digit in [-2^31, 2^31). The lowest digit is
never 0, so the layout is canonical and equality stays structural. A
term pair then costs one int product z1 z2 at lo1 + lo2, a v-shift
moves lo, a sum aligns the lower int at digit 0 and adds, and bar
reverses the digits. Coefficients stay packed through mul, divide, add,
the decompose residual, vshift, normalized, opposite and bar; they are
unpacked to VCoeff only where one is handed out: Decomposition.terms
(once per pivot), expand and NForm.coeffs. Digits do not carry, so a
digit or partial sum that reached 2^31 would wrap silently. Every
NForm carries l1 and max_l1, upper bounds on the sum of |x_e| over all
its terms and at any one n, and every arithmetic loop checks before it
sums that no digit can reach 2^31: a product's digits are at most
min(max_l1(a) l1(b), max_l1(b) l1(a)), a sum's at most
max_l1(a) + max_l1(b), and a division's or decomposition's remainder
at most its start's max_l1 plus each step's l1 times the divisor's or
element's max_l1. Past the bound it raises CoefficientOverflow, an
ArithmeticError, which the CLI reports as an internal error (exit 3).

By B^T Lambda = (D 0), the pairing of B n with any exponent m is

    lambda(B n, m) = sum_k d_k n_k m[U_k],

read off D and m's unfrozen entries, so twisted products (mul) stay in
n-coordinates: the product of (g1, n1) and (g2, n2) is at (g1 + g2,
n1 + n2) with v-exponent lambda(g1, g2) + sum_k d_k (n1_k g2[U_k] -
n2_k g1[U_k]) + n1^T D B_U n2, B_U the unfrozen rows of B. The n = 0
coefficient of a product of pointed elements is exactly
v^lambda(g1, g2), so normalizing is one v-shift. Exact division
(divide) inverts mul term by term from the lexicographically least n,
and a sum (add) is based at the base that dominates the other, one or
two dominance tests of the two bases. mul, divide, add and each
decompose step accumulate through one loop (_add_row), one call per row
term: mul past its one-term fast path once per term of its left factor,
divide once per quotient term, add once, and decompose once per pivot.
An NForm's degree is g when no n is negative and n = 0 is a term, and
its codegree is g + B n_max when the componentwise-largest n_max is a
term. expand reads g + B n back, the one way from an NForm to a torus
element.

decompose() peels an NForm against the pointed NForms a lookup returns
by degree, greedily eliminating a maximal support degree per step. Its
residual is keyed by n below the window's top: g' <= g iff
n(g') >= n(g) componentwise, so the maximal terms are the Pareto-minimal
n, and the window is the box 0 <= n <= n(window bottom). The residual
is one dict of packed coefficients, from which each step
subtracts its coefficient times the basis element in place, dropping
the terms that cancel; each pivot's coefficient is unpacked once, into
the decomposition's terms.

Normalization and decomposition are implemented on the degree side
only. Negating B and Lambda (seed.opposite_seed) reverses the dominance
order, so codegrees are degrees in the opposite seed, and normalizing at
the codegree or decomposing against codegree-keyed copointed elements is
NForm.normalized or decompose there, with the window's two ends traded,
on the same element read from its codegree (NForm.opposite).
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, product
from math import lcm
from operator import add as _plus, le, mul as _times, neg

from . import _linalg
from .qtorus import NotDivisible, QTElem, VCoeff, vec_sub
from .seed import opposite_seed


class NonUnitLeading(ArithmeticError):
    """Normalization needs the extremal coefficient to be +-v**a."""


class CoefficientOverflow(ArithmeticError):
    """A coefficient digit could reach 2^(K_BITS - 1), where the packed
    layout would wrap: the operation stops before it sums."""


K_BITS = 32
_HALF = 1 << (K_BITS - 1)
_MASK = (1 << K_BITS) - 1
_ONE = (0, 1)  # the packed coefficient 1


DECOMPOSE_ITERATION_CAP = 10 ** 5


_SeedData = namedtuple("_SeedData", "units db cols p_num p_den sums")


@lru_cache(maxsize=None)
def _seed_data(seed):
    """What the seed's n-coordinates are computed from, made once per seed.

    units, the (unfrozen vertex, d) pairs, and db, the rows of D B_U,
    pair n-coordinates: lambda(B n, m) = sum_k d_k n_k m[U_k] and
    lambda(B n1, B n2) = n1^T D B_U n2. cols, B's columns, place them
    (exponent). p_num and p_den give the left inverse P = p_num / p_den
    of B, in closed form from B^T Lambda = (D 0): row r of p_num is
    (p_den / D_r) times column U_r of Lambda, p_den = lcm(D); sums, the
    column sums of p_num, rank exponents (degree). Raises ValueError
    when P B = I fails, that is, when the seed is not a compatible pair.
    """
    units = tuple(zip(seed.unfrozen, seed.D))
    p_den = lcm(*seed.D)
    p_num = tuple(tuple(p_den // d * row[k] for row in seed.Lambda) for k, d in units)
    if _linalg.mat_mul(p_num, seed.B) != tuple(
            tuple(p_den * x for x in row) for row in _linalg.identity(len(units))):
        raise ValueError("B^T Lambda = (D 0) fails: no left inverse of B from the pair")
    return _SeedData(units, tuple(tuple(d * x for x in seed.B[u]) for u, d in units),
                     _linalg.transpose(seed.B), p_num, p_den, tuple(map(sum, zip(*p_num))))


def exponent(seed, g, n):
    """The exponent g + B n of the term at n of an n-form based at g: one
    column of B added per nonzero n_k (_linalg.combine)."""
    return _linalg.combine(g, _seed_data(seed).cols, n)


def dominance_n(seed, gp, g):
    """The n >= 0 with gp = g + B n, or None when gp is not dominated by g:
    n = floor(P (gp - g)), checked against the definition."""
    data = _seed_data(seed)
    diff = vec_sub(gp, g)
    n = tuple(sum(map(_times, row, diff)) // data.p_den for row in data.p_num)
    return None if (n and min(n) < 0) or exponent(seed, g, n) != gp else n


def dominance_leq(seed, gp, g):
    """True iff gp is dominated by g in the seed's dominance order."""
    return dominance_n(seed, gp, g) is not None


def degree(seed, z):
    """Unique dominance-maximal support exponent, or None if not unique:
    an exponent of least rank sum(p_num m) = -(w . m), one dot product
    with the column sums of p_num, when it dominates every other one (a
    dominated exponent has a larger rank, so a tie leaves none)."""
    if not z:
        raise ValueError("zero element has no degree")
    sums = _seed_data(seed).sums
    g = min(z.terms, key=lambda m: sum(map(_times, sums, m)))
    return g if all(dominance_n(seed, m, g) is not None for m in z.terms) else None


def codegree(seed, z):
    """Unique dominance-minimal support exponent, or None if not unique:
    the degree in the opposite seed, whose dominance order is reversed."""
    return degree(opposite_seed(seed), z)


def interval(seed, lo, hi):
    """All g with lo <= g <= hi in dominance order, sorted lexicographically.

    Finite: the n-coordinates of members fill the box [0, n_total], one
    member per n since B has full column rank.
    """
    n_tot = dominance_n(seed, lo, hi)
    if n_tot is None:
        return []
    return sorted(exponent(seed, hi, n) for n in product(*(range(c + 1) for c in n_tot)))


def pack(c):
    """The packed (lo, z) of a nonzero VCoeff: lo its least v-exponent and
    z = sum x_e 2^(K_BITS (e - lo)). Raises CoefficientOverflow when a
    digit does not fit."""
    lo = min(c._c)
    if max(map(abs, c._c.values())) >= _HALF:
        raise CoefficientOverflow(f"coefficient {c} has a digit of {K_BITS} bits or more")
    return lo, sum(x << K_BITS * (e - lo) for e, x in c._c.items())


def v_power(e):
    """The packed coefficient v^e."""
    return e, 1


def unpack(c):
    """The VCoeff of a packed (lo, z): its balanced digits, lowest first."""
    lo, z = c
    return VCoeff._of({e: x for e, x in enumerate(_digits(z), lo) if x})


def _digits(z):
    """z's balanced base-2^K_BITS digits, each in [-_HALF, _HALF), lowest
    first, up to its top nonzero one."""
    while z:
        d = ((z + _HALF) & _MASK) - _HALF
        yield d
        z = (z - d) >> K_BITS


def _l1(z):
    """The sum of the absolute values of z's digits."""
    return abs(z) if -_HALF <= z < _HALF else sum(map(abs, _digits(z)))


def _bar(c):
    """The packed bar (v -> 1/v) of a packed coefficient: its digits
    reversed, the top one lowest."""
    lo, z = c
    if -_HALF <= z < _HALF:
        return -lo, z
    out = top = 0
    for top, d in enumerate(_digits(z), lo):
        out = (out << K_BITS) + d
    return -top, out


def _guard(bound):
    """bound, when a digit or partial sum bounded by it fits in K_BITS
    bits; CoefficientOverflow otherwise, before anything is summed."""
    if bound >= _HALF:
        raise CoefficientOverflow(
            f"a coefficient of up to {bound} does not fit in {K_BITS}-bit digits")
    return bound


class NForm:
    """The torus element sum_n c_n X^(g + B n) of one seed, kept as its
    base exponent g and {n: (lo, z)}, each n indexed by the seed's
    unfrozen vertices (the separation formula X^g F(Y)) and each
    coefficient packed (pack). l1 bounds the sum of |digit| over all
    terms and max_l1 that sum at any one n. Immutable, like QTElem; zero
    coefficients are never stored and each lowest digit is nonzero, so
    equality is structural (the bounds do not take part)."""

    __slots__ = ("g", "terms", "l1", "max_l1", "_bar_invariant")

    def __init__(self, g, terms, l1, max_l1):
        self.g = g
        self.terms = terms
        self.l1 = l1
        self.max_l1 = max_l1
        self._bar_invariant = None

    @classmethod
    def of(cls, g, coeffs):
        """The NForm of {n: VCoeff}, zero coefficients dropped, with exact
        bounds."""
        l1s = {n: sum(map(abs, c._c.values())) for n, c in coeffs.items() if c}
        return cls(g, {n: pack(coeffs[n]) for n in l1s}, sum(l1s.values()),
                   max(l1s.values(), default=0))

    @classmethod
    def monomial(cls, m, rank):
        """X^m, for a seed with rank unfrozen vertices."""
        return cls(tuple(m), {(0,) * rank: _ONE}, 1, 1)

    def coeffs(self):
        """{n: VCoeff}, each coefficient unpacked."""
        return {n: unpack(c) for n, c in self.terms.items()}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NForm) and self.g == other.g and self.terms == other.terms

    def __repr__(self):
        return f"NForm({self.g}, {self.coeffs()})"

    def _with(self, terms):
        """The NForm at the same g with terms whose digits are a
        rearrangement of self's (or signs flipped), so the same bounds."""
        return NForm(self.g, terms, self.l1, self.max_l1)

    def vshift(self, e):
        """Multiply by v**e; self when e is 0."""
        if e == 0:
            return self
        return self._with({n: (lo + e, z) for n, (lo, z) in self.terms.items()})

    def bar(self):
        """Bar involution on every coefficient."""
        return self._with({n: _bar(c) for n, c in self.terms.items()})

    def is_bar_invariant(self):
        """Whether bar fixes every coefficient; computed once per element."""
        if self._bar_invariant is None:
            self._bar_invariant = all(_bar(c) == c for c in self.terms.values())
        return self._bar_invariant

    def is_pointed(self):
        """Pointed at g: no n is negative and the coefficient at n = 0 is 1."""
        zero = (0,) * len(next(iter(self.terms), ()))
        return (self.terms.get(zero) == _ONE
                and min(chain.from_iterable(self.terms), default=0) >= 0)

    def normalized(self):
        """Divided by the coefficient at n = 0, which must be a unit
        (NonUnitLeading otherwise)."""
        c = self.terms.get((0,) * len(next(iter(self.terms), ())))
        if c is None or c[1] not in (1, -1):
            raise NonUnitLeading(
                f"coefficient {c and unpack(c)} at n = 0 is not a unit")
        e, sign = c
        return self._with({n: (lo - e, sign * z) for n, (lo, z) in self.terms.items()})

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
        return None if top is None else exponent(seed, self.g, top)

    def expand(self, seed):
        """The torus element: exponent g + B n per term, each coefficient
        unpacked."""
        return QTElem(len(self.g), {exponent(seed, self.g, n): unpack(c)
                                    for n, c in self.terms.items()})

    def opposite(self, seed):
        """The same element in the opposite seed's n-coordinates, read from
        its codegree: (codegree, {n_max - n: c}). Raises ValueError when
        it has no codegree term."""
        top = self.co_n()
        if top is None:
            raise ValueError("element has no codegree to read it from")
        return NForm(exponent(seed, self.g, top),
                     {vec_sub(top, n): c for n, c in self.terms.items()}, self.l1, self.max_l1)


def mul(seed, a, b, normalize=False):
    """Twisted product of two NForms of the seed, in n-coordinates.

    The term pair (n1, n2) lands at n1 + n2 with lowest v-exponent
    lo1 + lo2 + s1 + s2 + p1 . p2 and packed coefficient z1 z2:
    s1 = lambda(a.g, b.g) + sum_k d_k n1_k b.g[U_k],
    s2 = -sum_k d_k n2_k a.g[U_k], and p1 . p2 = n1^T D B_U n2, with
    D B_U n2 formed once per term of b. When either factor has one
    term of one digit at n = 0 (a monomial X^m, for one), the product is
    one shifted copy of each term of the other, at one dot product per
    term. With normalize, the product is divided by its n = 0
    coefficient, a's times b's times v^lambda(a.g, b.g), which must be a
    unit: the lambda term is dropped and the rest folded into the same
    pass. A digit of the product is at most
    min(a.max_l1 b.l1, b.max_l1 a.l1), checked first (_guard).
    """
    if normalize:
        zero = (0,) * len(seed.unfrozen)
        ca, cb = a.terms.get(zero), b.terms.get(zero)
        if ca is None or cb is None or ca[1] not in (1, -1) or cb[1] not in (1, -1):
            raise NonUnitLeading("a factor's coefficient at n = 0 is not a unit")
        shift, sign = -ca[0] - cb[0], ca[1] * cb[1]
    else:
        shift, sign = seed.lam(a.g, b.g), 1
    max_l1 = _guard(min(a.max_l1 * b.l1, b.max_l1 * a.l1))
    l1 = a.l1 * b.l1
    data = _seed_data(seed)
    units, db = data.units, data.db
    d_a = tuple(d * a.g[u] for u, d in units)
    d_b = tuple(d * b.g[u] for u, d in units)
    g = tuple(map(_plus, a.g, b.g))
    lone = _lone_term(a.terms)
    if lone is not None:
        return NForm(g, _shifted_copies(lone, b.terms, shift, tuple(map(neg, d_a)), sign),
                     l1, max_l1)
    lone = _lone_term(b.terms)
    if lone is not None:
        return NForm(g, _shifted_copies(lone, a.terms, shift, d_b, sign), l1, max_l1)
    right = [(n2, lo2 - sum(map(_times, d_a, n2)), z2,
              tuple(sum(map(_times, row, n2)) for row in db))
             for n2, (lo2, z2) in b.terms.items()]
    t = {}
    for n1, (lo1, z1) in a.terms.items():
        _add_row(t, n1, lo1 + shift + sum(map(_times, d_b, n1)), sign * z1, n1, right)
    return NForm(g, t, l1, max_l1)


def _add_row(t, n1, e1, z1, p1, right):
    """t += the row term z1 v^e1 at n1 times each (n2, e2, z2, p2) of
    right, in place, on a {n: (lo, z)} dict. Each product z1 z2 lands at
    n1 + n2 with lowest v-exponent e1 + e2 + p1 . p2, and is added to the
    coefficient there as one int sum, the lower of the two aligned at
    digit 0. A sum that cancels is dropped, and one whose lowest digit
    cancels loses its trailing zero digits, so t stays canonical. The
    caller has bounded every digit and partial sum (_guard)."""
    for n2, e2, z2, p2 in right:
        key = tuple(map(_plus, n1, n2))
        e = e1 + e2 + sum(map(_times, p1, p2))
        z = z1 * z2
        acc = t.get(key)
        if acc is not None:
            lo, za = acc
            if lo < e:
                z = za + (z << K_BITS * (e - lo))
                e = lo
            elif lo > e:
                z += za << K_BITS * (lo - e)
            else:
                z += za
                if not z:
                    del t[key]
                    continue
                if not z & _MASK:
                    k = ((z & -z).bit_length() - 1) // K_BITS
                    z >>= K_BITS * k
                    e += k
        t[key] = (e, z)


def _lone_term(terms):
    """(lo, x) when terms is the one term x v^lo, x one digit, at n = 0,
    else None."""
    if len(terms) == 1:
        (n, c), = terms.items()
        if -_HALF <= c[1] < _HALF and not any(n):
            return c
    return None


def _shifted_copies(lone, other, s, w, sign):
    """The terms of a product with the one-term factor x0 v^e0 at n = 0
    (lone = (e0, x0)): each term (n, (lo, z)) of the other factor keeps
    its n, with coefficient (lo + e0 + s + w . n, sign x0 z)."""
    e0, x0 = lone
    x0 *= sign
    e0 += s
    return {n: (lo + e0 + sum(map(_times, w, n)), x0 * z) for n, (lo, z) in other.items()}


def add(seed, a, b):
    """a + b for two NForms of the seed, based at whichever base dominates
    the other: b's base tested under a's, then a's under b's. Raises
    RuntimeError when neither dominates."""
    n = dominance_n(seed, b.g, a.g)
    if n is None:
        n = dominance_n(seed, a.g, b.g)
        if n is None:
            raise RuntimeError(f"neither of the bases {a.g} and {b.g} dominates the other")
        a, b = b, a
    max_l1 = _guard(a.max_l1 + b.max_l1)
    t = dict(a.terms)
    _add_row(t, n, 0, 1, (), [(m, lo, z, ()) for m, (lo, z) in b.terms.items()])
    return NForm(a.g, t, a.l1 + b.l1, max_l1)


def divide(seed, num, d):
    """The NForm q with mul(seed, q, d) == num, for a pointed d, based at
    num.g - d.g.

    d's least n is 0, with coefficient 1, so the remainder's
    lexicographically least n is a quotient term's, with its coefficient
    one v-shift of the remainder's, and d's n = 0 term cancels the
    remainder there exactly. Each step places that term and subtracts
    its product with d's other terms in place, as mul forms it. The
    quotient's n lie in the box forced by the per-coordinate extremes of
    the two supports; a term outside it raises NotDivisible. A digit of
    the remainder is at most num.max_l1 plus d.max_l1 times the quotient
    terms' l1 so far, checked before each step (_guard); the quotient's
    bounds are exact.
    """
    if not d.is_pointed():
        raise NonUnitLeading("the divisor is not pointed")
    g = vec_sub(num.g, d.g)
    cols, dcols = tuple(zip(*num.terms)), tuple(zip(*d.terms))
    lo = tuple(min(x) - min(y) for x, y in zip(cols, dcols))
    hi = tuple(max(x) - max(y) for x, y in zip(cols, dcols))
    if any(a > b for a, b in zip(lo, hi)):
        raise NotDivisible("incompatible support boxes")
    data = _seed_data(seed)
    units, db = data.units, data.db
    d_q = tuple(k * g[u] for u, k in units)
    d_d = tuple(k * d.g[u] for u, k in units)
    right = [(n2, e2 - sum(map(_times, d_q, n2)), z2,
              tuple(sum(map(_times, row, n2)) for row in db))
             for n2, (e2, z2) in d.terms.items() if any(n2)]
    shift = seed.lam(g, d.g)
    q = {}
    r = dict(num.terms)
    l1 = max_l1 = 0
    while r:
        nq = min(r)
        e, z = r.pop(nq)
        if not (all(map(le, lo, nq)) and all(map(le, nq, hi))):
            raise NotDivisible(f"quotient term {nq} escapes the support box")
        q[nq] = (e - shift - sum(map(_times, d_d, nq)), z)
        size = _l1(z)
        l1 += size
        max_l1 = max(max_l1, size)
        _guard(num.max_l1 + d.max_l1 * l1)
        _add_row(r, nq, e, -z, nq, right)
    return NForm(g, q, l1, max_l1)


class Decomposition(namedtuple("Decomposition", "terms status reason", defaults=("exact", None))):
    """decompose's result: the (g, coefficient) terms found, in the order
    found, and "exact" or "indeterminate" with a reason. A namedtuple:
    immutable, and equal to any record or tuple of the same three fields
    (the oracle tests compare decompositions)."""

    __slots__ = ()

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


def decompose(seed, z, lookup, box, tie_break=None):
    """Unitriangular expansion of the NForm z over degree-keyed pointed
    NForms.

    z's degree z.g is the window's top, and box the n of its bottom
    below the top (None for an empty window). lookup(g) returns the
    NForm keyed, and based, at exponent g, or None: a dict's get, or
    what CandidateBasis.window_set returns.
    Greedy elimination from the top: each step removes one maximal
    support term, a Pareto-minimal n, which must lie in the box
    0 <= n <= box and whose exponent z.g + B n must carry a basis
    element. Ties between incomparable maxima break to the
    lexicographically smallest exponent (tie_break overrides the choice;
    the resulting term multiset is order-independent). Failures of the
    expansion are reported in the status, not raised.

    The residual is one {n: (lo, z)} dict from which each step
    subtracts its coefficient times the element in place (the element's
    term n' lands at n + n'), dropping the terms that cancel. Each step
    forms the exponents of the residual's Pareto-minimal n alone, one
    exponent each, and tests nothing for dominance. A residual digit is at
    most z.max_l1 plus each step's coefficient l1 times its element's
    max_l1, checked before each step: CoefficientOverflow is the one
    failure raised.
    """
    r = dict(z.terms)
    bound = z.max_l1
    terms = []
    for _ in range(DECOMPOSE_ITERATION_CAP):
        if not r:
            return Decomposition(terms=terms, status="exact")
        pivots = {exponent(seed, z.g, n): n for n in _maximal_support(r)}
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        n = pivots[g]
        if box is None or min(n, default=0) < 0 or not all(map(le, n, box)):
            return Decomposition(
                terms=terms, status="indeterminate",
                reason=f"support degree {g} escapes the window",
            )
        elem = lookup(g)
        if elem is None:
            return Decomposition(
                terms=terms, status="indeterminate",
                reason=f"no basis element keyed at {g}",
            )
        lo, x = r[n]
        terms.append((g, unpack(r[n])))
        bound = _guard(bound + _l1(x) * elem.max_l1)
        _add_row(r, n, lo, -x, (), [(m, e, y, ()) for m, (e, y) in elem.terms.items()])
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
