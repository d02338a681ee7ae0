"""Sparse exact arithmetic in a quantum torus.

Coefficients are integer Laurent polynomials in the quantum parameter v
(class VCoeff). Torus elements (class QTElem) are finite maps from
integer exponent vectors to nonzero coefficients. The commutative
product adds exponents; the twisted product additionally picks up
v**lam(m, m') from a skew-symmetric integer form, so

    X^m * X^m' = v^lam(m,m') X^(m+m') = v^(2 lam(m,m')) X^m' * X^m.

All values are immutable after construction and every operation is a
pure function, so elements can be shared freely across threads. Zero
coefficients are pruned at every step: equality is structural.

The package multiplies and divides in n-coordinates (pointed.mul and
pointed.divide); nothing in it calls twisted_mul or exact_divide. They
are the tests' reference arithmetic, and stay for bench/tracer.py,
which wraps them by name. So they are written as their definitions:
twisted_mul is the double loop over term pairs, and exact_divide and
VCoeff.exact_div cancel the leading term by subtracting a whole product,
sharing no loop with the arithmetic they check.
"""
from __future__ import annotations

from operator import add, mul, sub


class NotDivisible(ArithmeticError):
    """Exact division in the quantum torus failed."""


class VCoeff:
    """Integer Laurent polynomial in v, stored as {v-exponent: int}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c = {e: a for e, a in (coeffs or {}).items() if a != 0}

    @classmethod
    def _of(cls, c):
        """The VCoeff on the dict c itself, which must hold no zero (for
        kernels that build their coefficients zero-free)."""
        z = object.__new__(cls)
        z._c = c
        return z

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def v_power(cls, e, a=1):
        return cls({e: a})

    def items(self):
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        return isinstance(other, VCoeff) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        c = dict(self._c)
        for e, a in other._c.items():
            c[e] = c.get(e, 0) + a
        return VCoeff(c)

    def __neg__(self):
        return VCoeff._of({e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return VCoeff({e: a * other for e, a in self._c.items()})
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + a1 * a2
        return VCoeff(c)

    __rmul__ = __mul__

    def bar(self):
        """The involution v -> 1/v."""
        return VCoeff._of({-e: a for e, a in self._c.items()})

    def shift(self, e):
        """Multiply by v**e."""
        return VCoeff._of({k + e: a for k, a in self._c.items()})

    def is_one(self):
        return self._c == {0: 1}

    def is_unit(self):
        """Units of the coefficient ring are exactly +-v**e."""
        return len(self._c) == 1 and abs(next(iter(self._c.values()))) == 1

    def unit_inverse(self):
        (e, a), = self._c.items()
        if abs(a) != 1:
            raise NotDivisible(f"{self} is not a unit")
        return VCoeff({-e: a})

    def exact_div(self, other):
        """Quotient self/other in the coefficient ring, or None if inexact.

        Long division from the top: each step divides the leading
        coefficients over the integers and subtracts that quotient term
        times other. An exact quotient has no exponent below
        min(self) - min(other), so reaching one means there is none.
        """
        if not other:
            raise ZeroDivisionError("division by zero coefficient")
        top = max(other._c)
        floor = min(self._c, default=0) - min(other._c)
        q, r = {}, self
        while r:
            e = max(r._c)
            c, rem = divmod(r._c[e], other._c[top])
            if rem or e - top < floor:
                return None
            q[e - top] = c
            r = r - VCoeff({e - top: c}) * other
        return VCoeff(q)

    def in_m(self):
        """True iff every v-exponent is <= -1."""
        return all(e <= -1 for e in self._c)

    def in_window(self, lo, hi):
        """True iff every v-exponent lies in [lo, hi]."""
        return all(lo <= e <= hi for e in self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, a in self.items():
            if e == 0:
                body = str(abs(a))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                body = vpow if abs(a) == 1 else f"{abs(a)}*{vpow}"
            if not parts:
                parts.append(("-" if a < 0 else "") + body)
            else:
                parts.append(("- " if a < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"VCoeff({self})"


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def unit_vec(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def zero_vec(n):
    return (0,) * n


def pos_part(a):
    return tuple(x if x > 0 else 0 for x in a)


def lam_pair(lam, m, mp):
    """Evaluate the skew form: m^T lam m', one row of lam per nonzero
    entry of m."""
    return sum(x * sum(map(mul, lam[i], mp)) for i, x in enumerate(m) if x)


class QTElem:
    """Quantum torus element: finite map exponent vector -> VCoeff."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = {}
        for m, c in (terms or {}).items():
            if c:
                if len(m) != dim:
                    raise ValueError(f"exponent {m} has dimension {len(m)}, expected {dim}")
                self.terms[m] = c

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def one(cls, dim):
        return cls(dim, {zero_vec(dim): VCoeff.one()})

    @classmethod
    def monomial(cls, m, coeff=None):
        return cls(len(m), {tuple(m): VCoeff.one() if coeff is None else coeff})

    def support(self):
        return set(self.terms)

    def items(self):
        """Terms sorted by exponent vector (lexicographic)."""
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, QTElem) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check_dim(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, VCoeff.zero()) + c
        return QTElem(self.dim, t)

    def __neg__(self):
        return QTElem(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Commutative product (no v-factor); scalars also accepted."""
        if isinstance(other, (VCoeff, int)):
            return self.scale(other)
        self._check_dim(other)
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = vec_add(m1, m2)
                t[m] = t.get(m, VCoeff.zero()) + c1 * c2
        return QTElem(self.dim, t)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by a scalar; self when it is 1 (elements are immutable)."""
        if isinstance(c, int):
            c = VCoeff({0: c})
        if c.is_one():
            return self
        return QTElem(self.dim, {m: c * cm for m, cm in self.terms.items()})

    def vshift(self, e):
        """Multiply by v**e; self when e is 0."""
        if e == 0:
            return self
        return QTElem(self.dim, {m: c.shift(e) for m, c in self.terms.items()})

    def bar(self):
        """Bar involution: v -> 1/v on every coefficient, exponents fixed."""
        return QTElem(self.dim, {m: c.bar() for m, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.items():
            if all(x == 0 for x in m):
                parts.append(str(c) if len(c._c) == 1 else f"({c})")
                continue
            mono = "X[" + ",".join(str(x) for x in m) + "]"
            if c.is_one():
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"QTElem({self})"


def twisted_mul(a, b, lam):
    """Twisted product for the skew form lam: the sum over term pairs of
    v^lam(m1, m2) c1 c2 X^(m1 + m2)."""
    a._check_dim(b)
    t = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = vec_add(m1, m2)
            t[m] = t.get(m, VCoeff.zero()) + (c1 * c2).shift(lam_pair(lam, m1, m2))
    return QTElem(a.dim, t)


def exact_divide(numerator, divisor, lam):
    """The q with twisted_mul(q, divisor, lam) == numerator.

    Subtractive division: each step cancels the lexicographically leading
    term of the remainder by subtracting the twisted product of one
    quotient term and the divisor. The quotient support is confined to
    the per-coordinate box forced by the extremes of the two supports
    (supports of exact factors add at the extremes of any linear
    functional), which both bounds the loop and detects failure.

    Raises NotDivisible when no quotient exists in the torus.
    """
    if not divisor:
        raise ZeroDivisionError("division by zero")
    if not numerator:
        return QTElem.zero(numerator.dim)
    numerator._check_dim(divisor)
    dim = numerator.dim
    ns, ds = numerator.support(), divisor.support()
    lo = tuple(min(m[i] for m in ns) - min(m[i] for m in ds) for i in range(dim))
    hi = tuple(max(m[i] for m in ns) - max(m[i] for m in ds) for i in range(dim))
    if any(l > h for l, h in zip(lo, hi)):
        raise NotDivisible("incompatible support boxes")
    md = max(ds)
    cd = divisor.terms[md]
    q = {}
    r = numerator
    while r:
        mr = max(r.terms)
        cr = r.terms[mr]
        mq = vec_sub(mr, md)
        if any(not (l <= x <= h) for x, l, h in zip(mq, lo, hi)):
            raise NotDivisible(f"quotient term {mq} escapes the support box")
        cq = cr.exact_div(cd.shift(lam_pair(lam, mq, md)))
        if cq is None:
            raise NotDivisible(f"coefficient {cr} not divisible at {mr}")
        q[mq] = cq
        r = r - twisted_mul(QTElem.monomial(mq, cq), divisor, lam)
    return QTElem(dim, q)
