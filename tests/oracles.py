"""Independent oracles the test suite checks the library against.

Everything here deliberately avoids the library's own solvers: dominance
is brute-forced over a bounded exponent box, and cluster expansions are
recomputed classically (v = 1) with sympy rational arithmetic. The one
exception is the Lambda reference search, which reuses the library's
integer solver so that it picks the same particular solution: what it
checks is which diagonals D are tried, and in which order. Likewise the
eager window reuses the basis's own lookups: what it checks is which
keys a lazy window answers for, and the codegree-side references reuse
the dominance test in the seed itself: what they check is that the
library's codegree side, computed in the opposite seed, matches a
direct scan from the bottom, and that decomposition in n-coordinates
matches the pairwise dominance scan it replaced. The fresh degree scan
reuses degree() too: what it checks is that the degrees an exchange
graph records at mutation are the ones a scan of each expansion finds.
The eager enumeration reuses the library's expansions and scans: what
it checks is that keying a basis by recorded degrees and resolving each
key finds the elements, keys and provenance that expanding every
cluster monomial of the exponent box found. The direct projective
element reuses the library's arithmetic: what it checks is that building
it as the injective construction in the opposite seed changes nothing.
The dense Lambda mutation and the subtractive division reuse the
library's matrix product and twisted product: what they check is that
forming only row and column k of E^T Lambda E, and dividing with one
remainder updated in place, give the results of the whole products.
The rational dominance data comes from sympy's elimination (rref and
inverse), independent of the library's integer one: what it checks is
that the closed-form projection read off the compatible pair decides
dominance and finds degrees as the rational solves of B^T w = -1 and of
the normal equations did. The scan lookup reuses the basis's inverse
maps and expansions: what it checks is that the node where a walk of
the g-vector fan ends names the element that trying every node found,
and that trying every node finds no conflict. The
re-tracking through the reference reuses the library's mutation: what
it checks is that re-tracking along the path tree, from whatever is
already re-tracked, gives the variables of the route through the
reference. The premutated route steps reuse the library's mutation:
what they check is that the seeds read off the path tree along a route
are the ones mutating from its start finds. The subtracting
decomposition is the exponent-space decomposition the library ran
before it moved to n-forms, each support exponent projected by the
library's dominance data and a new residual per step: what it checks is
that the n-form residual, updated in place, gives its terms and
reasons. The n-form decomposition of torus elements reuses the
library's conversion to n-coordinates, to run the library's
decomposition on the inputs of the exponent-space references.
Recomposition reuses the library's arithmetic: what it checks is that
an exact decomposition sums back to its input. The torus-element
mutation is the tracked mutation the library ran before it moved to
n-coordinates: an ordered twisted product of the variables with its v
overshoot peeled off by hand, exact division in the torus, and a degree
scan to normalize at. It reuses the library's torus arithmetic and
degree scan: what it checks is that mutating in n-coordinates, where the
degree is the quotient's base and nothing is measured, gives the same
variables. The torus-element helpers (Bidegree, bidegree,
normalize_deg, normalize_at, to_nform) are the ones the library kept
before every element it builds became an NForm; they reuse its degree
scan and dominance data, and state the tests' results on torus elements.
The torus-element distinguished element is the construction the library
ran before it moved to n-forms: ordered twisted products, each
normalized at a degree scan. It reuses the library's torus arithmetic
and degree scan: what it checks is that the n-form construction,
normalized by one v-shift per factor, gives the same elements.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

import sympy as sp

from qcluster import _linalg, pointed
from qcluster.expansion import apply_word, cluster_monomial, initial_tracked
from qcluster.qtorus import (
    NotDivisible, QTElem, exact_divide, lam_pair, pos_part, twisted_mul, unit_vec, vec_sub)
from qcluster.seed import NoCompatibleLambda, mutate_seed, opposite_seed
from qcluster.tropical import FrozenFactorNotFrozen, p_vars


@dataclass(frozen=True)
class Bidegree:
    deg: tuple
    codeg: tuple


def bidegree(seed, z):
    """Bidegree (degree, codegree) or None when either end is ambiguous."""
    d, c = pointed.degree(seed, z), pointed.codegree(seed, z)
    if d is None or c is None:
        return None
    return Bidegree(d, c)


def normalize_deg(seed, z):
    """Divide by the leading coefficient, which must be a unit +-v**a."""
    return normalize_at(z, pointed.degree(seed, z))


def normalize_at(z, g):
    """Divide by the coefficient at an already measured (co)degree g,
    which must be a unit +-v**a; z itself when it is already 1."""
    if g is None:
        raise pointed.NonUnitLeading("element has no degree to normalize at")
    c = z.terms.get(g)
    if c is None:
        raise pointed.NonUnitLeading(f"element has no term at {g} to normalize at")
    if not c.is_unit():
        raise pointed.NonUnitLeading(f"leading coefficient {c} is not a unit")
    return z.scale(c.unit_inverse())


def to_nform(seed, z, g):
    """The torus element z in n-coordinates below g, each exponent
    projected once. Raises ValueError when an exponent is not g + B n for
    an integer n."""
    g = tuple(g)
    dom = pointed._dominance_data(seed)
    pg = dom.project(g)
    terms = {}
    for m, c in z.terms.items():
        n = dom.offset(dom.project(m), pg)
        if n is None:
            raise ValueError(f"exponent {m} is not {g} + B n for an integer n")
        terms[n] = c
    return pointed.NForm(g, terms)


def qtelem_distinguished(seed, factors, g):
    """The torus element pointed at g: X^(g+) times the ordered twisted
    product of the torus-element factors to the powers -g_k for g_k < 0,
    normalized at a degree scan, then the forced frozen factor in front,
    normalized again."""
    lam = seed.Lambda
    acc = QTElem.one(seed.n)
    for z, k in zip(factors, seed.unfrozen):
        for _ in range(max(-g[k], 0)):
            acc = twisted_mul(acc, z, lam)
    body = twisted_mul(QTElem.monomial(pos_part(g)), normalize_deg(seed, acc), lam)
    d = pointed.degree(seed, body)
    body = normalize_at(body, d)
    u = vec_sub(g, d)
    if any(u[i] != 0 for i in seed.unfrozen):
        raise FrozenFactorNotFrozen(f"forced correction {u} is not frozen")
    return normalize_deg(seed, twisted_mul(QTElem.monomial(u), body, lam))


def brute_dominance_leq(b_matrix, unfrozen, gp, g, bound=6):
    """Search n in {0..bound}^unfrozen with gp = g + B n."""
    n = len(g)
    for nvec in product(range(bound + 1), repeat=len(unfrozen)):
        cand = list(g)
        for c, col in enumerate(nvec):
            for i in range(n):
                cand[i] += b_matrix[i][c] * col
        if tuple(cand) == tuple(gp):
            return True
    return False


def brute_interval(b_matrix, unfrozen, lo, hi, bound=6):
    """All g with lo <= g <= hi, brute-forced from both ends."""
    out = set()
    n = len(hi)
    for nvec in product(range(bound + 1), repeat=len(unfrozen)):
        cand = list(hi)
        for c, col in enumerate(nvec):
            for i in range(n):
                cand[i] += b_matrix[i][c] * col
        cand = tuple(cand)
        if brute_dominance_leq(b_matrix, unfrozen, lo, cand, bound):
            out.add(cand)
    return sorted(out)


def _mutate_b(b, unfrozen, k):
    """Standard matrix mutation, written independently of the library."""
    ck = unfrozen.index(k)
    n = len(b)
    new = [row[:] for row in b]
    for i in range(n):
        for cj, j in enumerate(unfrozen):
            if i == k or j == k:
                new[i][cj] = -b[i][cj]
            else:
                bik = b[i][ck]
                bkj = b[k][cj]
                sign = (bik > 0) - (bik < 0)
                new[i][cj] = b[i][cj] + sign * max(bik * bkj, 0)
    return new


def dense_mutated_lambda(seed, k, eps):
    """Reference Lambda mutation: E^T Lambda E by two dense matrix products,
    E the elementary n x n matrix of the mutation at k with sign choice
    eps (the identity except in column k, which holds -1 on the diagonal
    and max(0, -eps * b_ik) elsewhere)."""
    ck = seed.col(k)
    e = [list(row) for row in _linalg.identity(seed.n)]
    for i in range(seed.n):
        e[i][k] = -1 if i == k else max(0, -eps * seed.B[i][ck])
    return _linalg.mat_mul(_linalg.mat_mul(_linalg.transpose(e), seed.Lambda), e)


def subtractive_exact_divide(numerator, divisor, lam):
    """Reference exact division: cancel the lexicographically leading term
    of the remainder by subtracting the whole twisted product of the
    quotient term and the divisor, inside the same support box and with
    the same NotDivisible messages as qtorus.exact_divide."""
    if not divisor:
        raise ZeroDivisionError("division by zero")
    if not numerator:
        return QTElem.zero(numerator.dim)
    dim = numerator.dim
    ns, ds = numerator.support(), divisor.support()
    lo = tuple(min(m[i] for m in ns) - min(m[i] for m in ds) for i in range(dim))
    hi = tuple(max(m[i] for m in ns) - max(m[i] for m in ds) for i in range(dim))
    if any(l > h for l, h in zip(lo, hi)):
        raise NotDivisible("incompatible support boxes")
    md = max(divisor.terms)
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


def laurent_dict(expr, gens):
    """Canonical {exponent vector: Rational} of a Laurent polynomial."""
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    pden = sp.Poly(den, *gens)
    if len(pden.monoms()) != 1:
        raise ValueError(f"denominator not a monomial: {den}")
    dmono = pden.monoms()[0]
    dcoef = pden.coeffs()[0]
    pnum = sp.Poly(sp.expand(num), *gens)
    out = {}
    for mono, coef in zip(pnum.monoms(), pnum.coeffs()):
        key = tuple(int(a) - int(b) for a, b in zip(mono, dmono))
        out[key] = sp.Rational(coef, dcoef)
    return out


def classical_clusters(b_matrix, unfrozen=None):
    """(number of clusters, distinct unfrozen variables) at v = 1.

    BFS over classical seeds with sympy rational functions; clusters are
    deduplicated as unordered sets of canonical Laurent expansions.
    """
    n = len(b_matrix)
    unfrozen = list(range(len(b_matrix[0]))) if unfrozen is None else list(unfrozen)
    gens = sp.symbols(f"x1:{n + 1}", positive=True)
    start_vars = list(gens)
    start_b = [list(row) for row in b_matrix]

    def key_of(vars_):
        return frozenset(
            tuple(sorted(laurent_dict(vars_[k], gens).items())) for k in unfrozen
        )

    seen = {key_of(start_vars)}
    frontier = [(start_b, start_vars)]
    all_vars = {tuple(sorted(laurent_dict(start_vars[k], gens).items())) for k in unfrozen}
    while frontier:
        nxt = []
        for b, vars_ in frontier:
            for k in unfrozen:
                ck = unfrozen.index(k)
                top = sp.Integer(1)
                bottom = sp.Integer(1)
                for i in range(n):
                    if b[i][ck] > 0:
                        top *= vars_[i] ** b[i][ck]
                    elif b[i][ck] < 0:
                        bottom *= vars_[i] ** (-b[i][ck])
                newvar = sp.cancel((top + bottom) / vars_[k])
                new_vars = list(vars_)
                new_vars[k] = newvar
                key = key_of(new_vars)
                all_vars.add(tuple(sorted(laurent_dict(newvar, gens).items())))
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((_mutate_b(b, unfrozen, k), new_vars))
        frontier = nxt
    return len(seen), all_vars


def v1_dict(elem):
    """Collapse a torus element to {exponent: integer} at v = 1."""
    out = {}
    for m, c in elem.terms.items():
        total = sum(a for _, a in c.items())
        if total:
            out[m] = total
    return out


def scan_compatible_lambda(btilde, unfrozen=None, d_max=8):
    """Reference Lambda synthesis: try every diagonal D in 1..d_max.

    Scans all d_max**|unfrozen| diagonals in lexicographic order and
    solves B^T Lambda = (D 0) over the integers for each; returns
    (Lambda, D) for the first hit. Raises ValueError if btilde is not of
    full column rank and NoCompatibleLambda when the scan is exhausted.
    """
    n = len(btilde)
    nuf = len(btilde[0]) if n else 0
    unfrozen = tuple(range(nuf)) if unfrozen is None else tuple(unfrozen)
    if _linalg.rank(btilde) != nuf:
        raise ValueError("exchange matrix must have full column rank")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows, targets = [], []
    for r in range(nuf):
        for j in range(n):
            row = [0] * len(pairs)
            for idx, (a, b) in enumerate(pairs):
                if b == j:
                    row[idx] += btilde[a][r]
                if a == j:
                    row[idx] -= btilde[b][r]
            rows.append(tuple(row))
            targets.append((r, j))
    for dvec in product(range(1, d_max + 1), repeat=nuf):
        rhs = tuple(dvec[r] if j == unfrozen[r] else 0 for (r, j) in targets)
        x = _linalg.solve_integer(tuple(rows), rhs)
        if x is None:
            continue
        lam = [[0] * n for _ in range(n)]
        for idx, (a, b) in enumerate(pairs):
            lam[a][b] = x[idx]
            lam[b][a] = -x[idx]
        return tuple(tuple(row) for row in lam), dvec
    raise NoCompatibleLambda(f"no compatible skew form with diagonal entries <= {d_max}")


def eager_window(basis, torus_key, window, co=False):
    """Reference window: every interval point resolved up front.

    Returns {key: element} over the points of [window.codeg, window.deg]
    that resolve to a basis element, looked up by degree (by codegree
    when co, read from its codegree). This is the dict
    CandidateBasis.window_set materialized before its lookups became lazy.
    """
    seed = basis.graph.nodes[torus_key].seed
    lookup = basis.element_at_codegree if co else basis.element_at_degree
    out = {}
    for g in pointed.interval(seed, window.codeg, window.deg):
        elem = lookup(torus_key, g)
        if elem is not None:
            out[g] = elem.opposite(seed) if co else elem
    return out


def fresh_degrees(graph):
    """Every variable degree an exchange graph records, measured again.

    Returns {(home, None): degrees of home's variables in the reference
    torus, (home, torus): degrees of home's variables re-tracked into the
    torus}, each by one degree() scan of the variable's torus element.
    """
    out = {}
    for home in graph.order:
        out[(home, None)] = tuple(pointed.degree(graph.reference, z.expand(graph.reference))
                                  for z in graph.nodes[home].vars)
        for torus in graph.order:
            seed = graph.nodes[torus].seed
            out[(home, torus)] = tuple(
                pointed.degree(seed, z.expand(seed)) for z in graph.vars_in(home, torus))
    return out


def recorded_degrees(graph):
    """The degrees fresh_degrees measures, as the graph recorded them at
    mutation: the nodes' own, and those of vars_in's re-tracked seeds."""
    out = {}
    for home in graph.order:
        out[(home, None)] = graph.nodes[home].degs
        for torus in graph.order:
            out[(home, torus)] = graph.tracked_in(home, torus).degs
    return out


def maximal_support(seed, supp):
    """Dominance-maximal elements of a finite exponent set, by the pairwise
    scan: one dominance test per ordered pair."""
    return [m for m in supp
            if not any(mp != m and pointed.dominance_leq(seed, m, mp) for mp in supp)]


def minimal_support(seed, supp):
    """Dominance-minimal elements of a finite exponent set, in seed itself."""
    return [m for m in supp
            if not any(mp != m and pointed.dominance_leq(seed, mp, m) for mp in supp)]


def direct_codegree(seed, z):
    """Reference codegree: the unique dominance-minimal support exponent.

    A finite poset with exactly one minimal element has it as its
    minimum, so this is None exactly when there is no minimum.
    """
    lows = minimal_support(seed, list(z.terms))
    return lows[0] if len(lows) == 1 else None


def _pairwise_decompose(seed, z, basis, window, tie_break, extremes):
    """Greedy elimination by pairwise scans: each step removes one of the
    extremes(seed, support) exponents, which must stay inside
    [window.codeg, window.deg] (two dominance tests) and carry a basis
    element; ties break to the lexicographically smallest (or to
    tie_break)."""
    terms = []
    r = z
    for _ in range(pointed.DECOMPOSE_ITERATION_CAP):
        if not r:
            return pointed.Decomposition(terms=terms, status="exact")
        pivots = extremes(seed, list(r.terms))
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        if not (pointed.dominance_leq(seed, window.codeg, g)
                and pointed.dominance_leq(seed, g, window.deg)):
            return pointed.Decomposition(
                terms=terms, status="indeterminate",
                reason=f"support degree {g} escapes the window")
        elem = basis.get(g)
        if elem is None:
            return pointed.Decomposition(
                terms=terms, status="indeterminate",
                reason=f"no basis element keyed at {g}")
        c = r.terms[g]
        terms.append((g, c))
        r = r - elem.scale(c)
    return pointed.Decomposition(
        terms=terms, status="indeterminate", reason="iteration cap hit")


def direct_decompose(seed, z, basis, window, tie_break=None):
    """Reference decomposition from the top, by pairwise dominance scans
    (the elimination loop before it moved to n-coordinates)."""
    return _pairwise_decompose(seed, z, basis, window, tie_break, maximal_support)


def direct_decompose_co(seed, z, basis, window, tie_break=None):
    """Reference co-decomposition, scanned from the bottom in seed itself."""
    return _pairwise_decompose(seed, z, basis, window, tie_break, minimal_support)


def direct_trop_codeg(seed, k, g):
    """Reference codegree tropical transformation across the mutation at k."""
    ck = seed.col(k)
    out = []
    for i in range(seed.n):
        bik = seed.B[i][ck]
        if i == k:
            out.append(-g[k])
        elif bik <= 0:
            out.append(g[i] - bik * max(g[k], 0))
        else:
            out.append(g[i] - bik * max(-g[k], 0))
    return tuple(out)


def eager_enumeration(graph, cap, frozen_window):
    """Reference basis: every cluster monomial of the exponent box expanded
    in the reference torus and keyed by a degree and a codegree scan.

    Returns (by_degree, by_codegree, provenance), the first element, in
    n-coordinates below its degree, and (node, m) per key, as
    CandidateBasis built them before its keys came from recorded degrees.
    """
    ref = graph.reference
    by_degree, by_codegree, provenance = {}, {}, {}
    for key in graph.order:
        ts = graph.nodes[key]
        boxes = [range(cap + 1) if i in ts.seed.unfrozen
                 else range(-frozen_window, frozen_window + 1) for i in range(ts.seed.n)]
        for m in product(*boxes):
            elem = cluster_monomial(ts, m)
            g = pointed.degree(ref, elem)
            eta = pointed.codegree(ref, elem)
            elem = to_nform(ref, elem, g)
            if g not in by_degree:
                by_degree[g] = elem
                provenance[g] = (key, m)
            elif by_degree[g] != elem:
                continue  # a degree conflict: the codegree is not keyed
            by_codegree.setdefault(eta, elem)
    return by_degree, by_codegree, provenance


def direct_proj_element(graph, sd, eta):
    """Reference projective distinguished element: the projectives' power
    times the cluster monomial X^(eta+), then the frozen factor, each
    product taken from the right and normalized from the bottom."""
    s = graph.nodes[sd.base].seed
    lam = s.Lambda
    ppart = QTElem.one(s.n)
    for z, k in zip(p_vars(graph, sd), s.unfrozen):
        for _ in range(max(-eta[k], 0)):
            ppart = twisted_mul(ppart, z, lam)
    ppart = normalize_deg(s, ppart)
    body = twisted_mul(ppart, QTElem.monomial(pos_part(eta)), lam)
    c = pointed.codegree(s, body)
    body = normalize_at(body, c)
    u = vec_sub(eta, c)
    if any(u[i] != 0 for i in s.unfrozen):
        raise FrozenFactorNotFrozen(f"forced correction {u} is not frozen")
    return normalize_deg(opposite_seed(s), twisted_mul(body, QTElem.monomial(u), lam))


def _fraction_solve_any(mat, rhs):
    """One rational solution x of the sympy system mat @ x = rhs (free
    variables zero), or None if inconsistent, read off the reduced row
    echelon form."""
    n = mat.cols
    aug, pivots = mat.row_join(sp.Matrix(rhs)).rref()
    if n in pivots:
        return None
    x = [sp.Integer(0)] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r, n]
    return tuple(x)


def fraction_dominance_data(seed):
    """Reference dominance data, by sympy's rational elimination: (w,
    p_num, p_den) with w an integer multiple of a solution of B^T w = -1
    and p_num / p_den the left inverse (B^T B)^-1 B^T of B."""
    b = sp.Matrix(seed.B)
    w_frac = _fraction_solve_any(b.T, [-1] * len(seed.unfrozen))
    pinv = (b.T * b).inv() * b.T
    den = lcm(*(int(f.q) for f in w_frac))
    p_den = lcm(*(int(f.q) for f in pinv))
    return (tuple(int(f * den) for f in w_frac),
            tuple(tuple(int(f * p_den) for f in row) for row in pinv.tolist()), p_den)


def fraction_dominance_n(seed, gp, g):
    """Reference dominance: n = p_num (gp - g) / p_den, checked integral,
    nonnegative and with B n = gp - g."""
    diff = vec_sub(gp, g)
    _, p_num, p_den = fraction_dominance_data(seed)
    num = _linalg.mat_vec(p_num, diff)
    if any(x % p_den for x in num):
        return None
    n = tuple(x // p_den for x in num)
    if any(x < 0 for x in n) or _linalg.mat_vec(seed.B, n) != diff:
        return None
    return n


def fraction_degree(seed, z):
    """Reference degree: the unique maximizer of the rational w, when it
    dominates every other support exponent."""
    w, _, _ = fraction_dominance_data(seed)
    vals = {m: _linalg.dot(w, m) for m in z.terms}
    best = max(vals.values())
    cands = [m for m, v in vals.items() if v == best]
    if len(cands) > 1:
        return None
    g = cands[0]
    if any(m != g and fraction_dominance_n(seed, m, g) is None for m in z.terms):
        return None
    return g


def scan_resolve(basis, torus_key, g, co):
    """Reference lookup at a (co)degree: every node of the graph tried in
    order, as CandidateBasis resolved keys before the fan walk.

    Returns (found, conflicts): found is ((home, m), element) for the
    first home whose candidate has extremal exponent g, or None; conflicts
    lists what the lookup would record, in order. The basis's caches of
    resolved keys and conflicts are left alone.
    """
    graph = basis.graph
    kind = "codegree" if co else "degree"
    extremal = pointed.codegree if co else pointed.degree
    torus_seed = graph.nodes[torus_key].seed

    def factors(home_key, m):
        """home's variables at m's nonzero positions, expanded in the
        torus and keyed by reference degree."""
        degs = graph.nodes[home_key].degs
        xs = graph.vars_in(home_key, torus_key)
        return {degs[i]: xs[i] for i, x in enumerate(m) if x}

    found = None
    conflicts = []
    seen = {}
    for home_key in graph.order:
        inv = basis._inverse_map(home_key, torus_key, co)
        if inv is None:
            continue
        m = _linalg.mat_vec(inv, g)
        home = graph.nodes[home_key]
        if any(m[i] < 0 for i in home.seed.unfrozen):
            continue
        identity = tuple(sorted((home.degs[i], x) for i, x in enumerate(m) if x))
        first = seen.get(identity)
        if first is not None:
            if factors(*first) != factors(home_key, m):
                conflicts.append((kind, g, first, (home_key, m)))
            continue
        seen[identity] = (home_key, m)
        elem = graph.monomial_in(home_key, m, torus_key)
        if extremal(torus_seed, elem.expand(torus_seed)) != g:
            continue
        if found is None:
            found = ((home_key, m), elem)
        elif found[1] != elem:
            conflicts.append((kind, g, found[0], (home_key, m)))
    return found, conflicts


def recompose(decomp, basis, dim, seed=None):
    """Sum coefficient * basis element; the inverse of decompose. With a
    seed, the elements are NForms of it, expanded first."""
    acc = QTElem.zero(dim)
    for g, c in decomp.terms:
        elem = basis.get(g)
        acc = acc + (elem if seed is None else elem.expand(seed)).scale(c)
    return acc


def route_vars_in(graph, home_key, torus_key):
    """home's variables re-tracked into the torus along graph.route, which
    passes through the reference node, with no cache read or written."""
    ts = apply_word(initial_tracked(graph.nodes[torus_key].seed),
                    graph.route(torus_key, home_key))
    if ts.seed != graph.nodes[home_key].seed:
        raise RuntimeError("re-tracking did not reproduce the labeled seed")
    return ts.vars


def premutated_route_steps(graph, a_key, b_key):
    """(seed, vertex) pairs along graph.route, from node a's labeled seed,
    each seed the one before it mutated; the end must be node b's."""
    seed = graph.nodes[a_key].seed
    steps = []
    for k in graph.route(a_key, b_key):
        steps.append((seed, k))
        seed = mutate_seed(seed, k)
    if seed != graph.nodes[b_key].seed:
        raise RuntimeError("route does not land on the target seed")
    return tuple(steps)


def _exponent_maximal_support(dom, supp, proj, n_of):
    """Dominance-maximal elements of a finite exponent set. Below the top
    (n_of[m] not None) the maxima are the Pareto-minimal n; the few
    exponents not below it are compared pairwise: among themselves, and
    against the maxima below the top."""
    below = sorted((sum(n_of[m]), n_of[m], m) for m in supp if n_of[m] is not None)
    minima = []
    for _, n, m in below:
        if not any(all(a <= b for a, b in zip(o, n)) for o, _ in minima):
            minima.append((n, m))
    above = [m for m in supp if n_of[m] is None]

    def leq(a, b):
        return dom.n_between(proj[a], proj[b]) is not None

    out = [m for _, m in minima if not any(leq(m, q) for q in above)]
    out += [q for q in above if not any(p != q and leq(q, p) for p in above)]
    return out


def subtracting_decompose(seed, z, basis, window, tie_break=None):
    """The exponent-space decomposition of a torus element over
    degree-keyed torus elements, with a new QTElem residual r - c *
    element per step: each support exponent projected once, its n below
    window.deg taken from the projection, a pivot inside the window iff
    its n lies in the box up to window.codeg's n."""
    dom = pointed._dominance_data(seed)
    top = dom.project(window.deg)
    n_total = dom.n_between(dom.project(window.codeg), top)
    proj = {}
    n_of = {}
    terms = []
    r = z
    for _ in range(pointed.DECOMPOSE_ITERATION_CAP):
        if not r:
            return pointed.Decomposition(terms=terms, status="exact")
        for m in r.terms:
            if m not in n_of:
                proj[m] = dom.project(m)
                n_of[m] = dom.n_between(proj[m], top)
        pivots = _exponent_maximal_support(dom, r.terms, proj, n_of)
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        n = n_of[g]
        if n is None or n_total is None or any(a > b for a, b in zip(n, n_total)):
            return pointed.Decomposition(
                terms=terms, status="indeterminate",
                reason=f"support degree {g} escapes the window",
            )
        elem = basis.get(g)
        if elem is None:
            return pointed.Decomposition(
                terms=terms, status="indeterminate",
                reason=f"no basis element keyed at {g}",
            )
        c = r.terms[g]
        terms.append((g, c))
        r = r - elem.scale(c)
    return pointed.Decomposition(terms=terms, status="indeterminate",
                                 reason="iteration cap hit")


class NFormBasis:
    """A degree-keyed basis read in n-coordinates: each torus element
    below its key, an NForm (a window view's) as it is."""

    def __init__(self, seed, basis):
        self.seed = seed
        self.basis = basis

    def get(self, g):
        elem = self.basis.get(g)
        if elem is None or isinstance(elem, pointed.NForm):
            return elem
        return to_nform(self.seed, elem, g)


def n_form_decompose(seed, z, basis, window, tie_break=None):
    """pointed.decompose on the inputs of the exponent-space references: z
    in n-coordinates below window.deg, the basis read by NFormBasis, and
    the box up to window.codeg's n. None when z has an exponent off
    window.deg + B Z^k, which no n-form holds."""
    try:
        zn = to_nform(seed, z, window.deg)
    except ValueError:
        return None
    box = pointed.dominance_n(seed, window.codeg, window.deg)
    return pointed.decompose(seed, zn, NFormBasis(seed, basis), box, tie_break)


def qtelem_image_monomial(seed, xs, ref, a):
    """The seed's monomial X^a in ref's torus, its variables xs torus
    elements there: the ordered twisted product, which overshoots X^a by
    v to the sum of lam(a_i f_i, a_j f_j) over i < j in the seed's form."""
    w = sum(a[i] * a[j] * seed.Lambda[i][j] for i in range(seed.n) for j in range(i + 1, seed.n))
    acc = QTElem.one(seed.n).vshift(-w)
    for i in range(seed.n):
        if a[i] < 0:
            acc = twisted_mul(acc, QTElem.monomial(tuple(a[i] * x for x in unit_vec(seed.n, i))),
                              ref.Lambda)
        for _ in range(max(a[i], 0)):
            acc = twisted_mul(acc, xs[i], ref.Lambda)
    return acc


def qtelem_mutate(seed, xs, ref, k):
    """(mutated seed, variables) after mutating at k, the variables torus
    elements of ref's torus: the exchange relation's two monomials summed
    in the torus, divided exactly by X_k and normalized at a degree scan."""
    ck = seed.col(k)
    col = tuple(seed.B[i][ck] for i in range(seed.n))
    fk = unit_vec(seed.n, k)
    num = QTElem.zero(seed.n)
    for a in (pos_part(tuple(-x for x in col)), pos_part(col)):
        num = num + qtelem_image_monomial(seed, xs, ref, a).vshift(seed.lam(a, fk))
    z = exact_divide(num, xs[k], ref.Lambda)
    z = normalize_at(z, pointed.degree(ref, z))
    return mutate_seed(seed, k), xs[:k] + (z,) + xs[k + 1:]


def qtelem_vars_in(graph, torus_key):
    """{home: (seed, variables)} for every node re-tracked into the torus
    by qtelem_mutate, each from its path-tree neighbour toward the torus's
    node, whose variables are the unit monomials."""
    torus = graph.nodes[torus_key]
    ref, up = torus.seed, torus.path
    memo = {up: (ref, tuple(QTElem.monomial(unit_vec(ref.n, i)) for i in range(ref.n)))}

    def at(path):
        if path not in memo:
            if up[:len(path)] == path:  # an ancestor of the torus's node
                seed, xs = at(up[:len(path) + 1])
                memo[path] = qtelem_mutate(seed, xs, ref, up[len(path)])
            else:
                seed, xs = at(path[:-1])
                memo[path] = qtelem_mutate(seed, xs, ref, path[-1])
        return memo[path]

    return {key: at(graph.nodes[key].path) for key in graph.order}
