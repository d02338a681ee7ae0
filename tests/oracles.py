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
it checks is that keying a basis by degree and codegree maps finds the
keys, codegree keys and provenance, and looking each key up the
elements, that expanding every cluster monomial of the exponent box
found. The direct projective
element reuses the library's arithmetic: what it checks is that building
it as the injective construction in the opposite seed changes nothing.
The dense Lambda mutation reuses the library's matrix product: what it
checks is that forming only row and column k of E^T Lambda E gives the
result of the whole products.
The rational dominance data comes from sympy's elimination (rref and
inverse), independent of the library's integer one: what it checks is
that the closed-form left inverse read off the compatible pair decides
dominance and finds degrees as the rational solves of B^T w = -1 and of
the normal equations did. The scan lookup reuses the basis's inverse
maps and expansions: what it checks is that the node where a walk of
the g-vector fan ends names the element that trying every node found,
and that trying every node finds no conflict. The record columns are
the codegree columns CandidateBasis read before it read them off the
variables' n-forms: each variable resolved at its degree by the basis's
own degree-side walk, its codegree taken from that record. What they
check is that the n-form reading gives the resolver's codegrees. The
re-tracking through the reference reuses the library's mutation: what
it checks is that re-tracking along the path tree, from whatever is
already re-tracked, gives the variables of the route through the
reference. The premutated route steps reuse the library's mutation:
what they check is that the seeds read off the path tree along a route
are the ones mutating from its start finds. The subtracting
decomposition is the exponent-space decomposition the library ran
before it moved to n-forms, each support exponent tested by the
library's dominance_n and a new residual per step: what it checks is
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
normalized by one v-shift per factor, gives the same elements. Each
factor power is formed and scanned once; a monomial factor X^m only
shifts the support by m (monomial_mul), so it shifts the (co)degree by m
too, and the monomial factors of one element fold into one.
The scanning shift detection is the one the library ran before it
skipped candidates by their unfrozen B: it re-tracks into every
candidate torus in discovery order and reuses the library's pattern
match and B condition. What it checks is that skipping the candidates
whose B profile differs from the base's finds the same shift.
The bar-decomposition consistency is the check verify_pair made before
it read bar-invariance off the basis elements: it decomposes the barred
product a second time, with the library's product and decomposition.
What it checks is that the elements' bar-invariance gives the same
value on every two-tail pair, and that a perturbed element fails both.
The dict kernels (DictForm, dict_mul, dict_divide, dict_add,
dict_decompose) are the n-form arithmetic the library ran before it
packed each coefficient into one int: every coefficient a
{v-exponent: int} dict, each term pair a double loop over them. They
share no code with the packed kernels: what they check is that packing,
the aligned int sums and the digit reversal of bar give the same
elements, decompositions and refusals.
The common-node case predicts each pair's verdict case from the
exchange graph alone, with no product, lookup or decomposition: R V
lands in v^Z times the basis exactly when R and every factor of V are
variables of one cluster, some node whose degs hold them all, so that
R V is a cluster monomial up to a power of v; otherwise the product is
two-tailed. It reuses only the graph's nodes and the basis's provenance
of V's key. What it checks is that verify_pair's case, in_basis or
two_tail, is the one compatibility of the factors decides.
The positivity oracle reads digits off a sweep's own records and
verdicts, and shares nothing else with the library: what it checks is
that, for a skew-symmetric seed, no element the sweep resolved and no
middle coefficient of a two-tailed product has a negative digit.
The report document (report_json, verdict_json) is the --json report
the CLI built before it streamed the report: one dict per pair, the
whole document serialized by json.dumps(indent=2, sort_keys=True). What
it checks is that the streamed file, each pair encoded on its own as
the sweep makes it, has those bytes. The report-order sweep reuses
verify_pair through keyed_verdicts: what it checks is that
verify_theorem hands its sink every verdict, once, in report order.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, product
from math import lcm
from operator import mul

import sympy as sp

from qcluster import _linalg, pointed
from qcluster.expansion import apply_word, cluster_monomial, initial_tracked
from qcluster.leclerc import default_r_specs, verify_pair, verify_theorem
from qcluster.qtorus import (
    NotDivisible, QTElem, VCoeff, exact_divide, pos_part, twisted_mul, unit_vec, vec_add,
    vec_sub)
from qcluster.seed import NoCompatibleLambda, mutate_seed, opposite_seed
from qcluster.tropical import (
    FrozenFactorNotFrozen, ShiftData, ShiftNotFound, _b_condition, _shift_pattern)


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


def signed_offset(seed, gp, g):
    """The integer n of any sign with gp = g + B n, or None: n proposed
    by the library's closed-form left inverse P, checked against B."""
    data = pointed._seed_data(seed)
    diff = vec_sub(gp, g)
    n = tuple(x // data.p_den for x in _linalg.mat_vec(data.p_num, diff))
    return n if _linalg.mat_vec(seed.B, n) == diff else None


def to_nform(seed, z, g):
    """The torus element z in n-coordinates below g, one signed offset
    per exponent. Raises ValueError when an exponent is not g + B n for
    an integer n."""
    g = tuple(g)
    terms = {}
    for m, c in z.terms.items():
        n = signed_offset(seed, m, g)
        if n is None:
            raise ValueError(f"exponent {m} is not {g} + B n for an integer n")
        terms[n] = c
    return pointed.NForm.of(g, terms)


def monomial_mul(lam, m, z, at, right=False):
    """X^m z, or z X^m when right, by an exponent shift, divided by the
    v-power the product puts on z's term at the exponent at: each term
    c X^t becomes v^(w . (t - at)) c X^(m + t), where w . t is lam(m, t)
    (w = lam^T m), or lam(t, m) from the right (w = lam m). When z is
    normalized at at, the product is normalized at m + at."""
    w = _linalg.mat_vec(lam if right else _linalg.transpose(lam), m)
    return QTElem(len(m), {vec_add(m, t): c.shift(sum(map(mul, w, vec_sub(t, at))))
                           for t, c in z.terms.items()})


def factor_power(seed, factors, g, powers=None):
    """(element, degree, codegree): the ordered twisted product of the
    torus-element factors to the powers -g_k for g_k < 0, normalized at
    a degree scan, with that degree and a codegree scan. The dict powers
    keeps each by those exponents: the distinguished elements of a box
    of exponents share their negative parts, so a caller that keeps one
    dict per (seed, factors) forms and scans each product once."""
    powers = {} if powers is None else powers
    neg = tuple(max(-g[k], 0) for k in seed.unfrozen)
    hit = powers.get(neg)
    if hit is None:
        acc = QTElem.one(seed.n)
        for z, p in zip(factors, neg):
            for _ in range(p):
                acc = twisted_mul(acc, z, seed.Lambda)
        d = pointed.degree(seed, acc)
        hit = powers[neg] = (normalize_at(acc, d), d, pointed.codegree(seed, acc))
    return hit


def qtelem_distinguished(seed, factors, g, powers=None):
    """The torus element pointed at g: X^(g+) times the ordered twisted
    product of the torus-element factors to the powers -g_k for g_k < 0,
    normalized at a degree scan (factor_power, over powers), then the
    forced frozen factor X^u in front, normalized at g. X^(g+) shifts the
    power's degree d to g+ + d, which fixes u = g - g+ - d, and the two
    monomials are one, X^(u + g+), up to the v-power normalizing drops:
    the power's coefficient 1 at d lands at g unchanged (monomial_mul).
    """
    acc, d, _ = factor_power(seed, factors, g, powers)
    gp = pos_part(g)
    u = vec_sub(g, vec_add(gp, d))
    if any(u[i] != 0 for i in seed.unfrozen):
        raise FrozenFactorNotFrozen(f"forced correction {u} is not frozen")
    return monomial_mul(seed.Lambda, vec_add(u, gp), acc, d)


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


def dense_mutation_mismatch(seed, k):
    """None when mutate_seed(seed, k) is what the dense references make:
    B as _mutate_b mutates it, Lambda as dense_mutated_lambda conjugates
    it under each sign convention, and D unchanged; else the first field
    that differs, with the sign convention for Lambda."""
    got = mutate_seed(seed, k)
    if got.B != tuple(map(tuple, _mutate_b([list(row) for row in seed.B], seed.unfrozen, k))):
        return "B"
    for eps in (1, -1):
        if got.Lambda != dense_mutated_lambda(seed, k, eps):
            return f"Lambda (eps = {eps})"
    return None if got.D == seed.D else "D"


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
    CandidateBasis.window_set's lookup materialized before it became lazy.
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
            out[(home, torus)] = tuple(x.g for x in graph.vars_in(home, torus))
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


def _pairwise_decompose(seed, z, lookup, window, tie_break, extremes):
    """Greedy elimination by pairwise scans: each step removes one of the
    extremes(seed, support) exponents, which must stay inside
    [window.codeg, window.deg] (two dominance tests) and carry a basis
    element, lookup(g); ties break to the lexicographically smallest (or to
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
        elem = lookup(g)
        if elem is None:
            return pointed.Decomposition(
                terms=terms, status="indeterminate",
                reason=f"no basis element keyed at {g}")
        c = r.terms[g]
        terms.append((g, c))
        r = r - elem.scale(c)
    return pointed.Decomposition(
        terms=terms, status="indeterminate", reason="iteration cap hit")


def direct_decompose(seed, z, lookup, window, tie_break=None):
    """Reference decomposition from the top, by pairwise dominance scans
    (the elimination loop before it moved to n-coordinates)."""
    return _pairwise_decompose(seed, z, lookup, window, tie_break, maximal_support)


def direct_decompose_co(seed, z, lookup, window, tie_break=None):
    """Reference co-decomposition, scanned from the bottom in seed itself."""
    return _pairwise_decompose(seed, z, lookup, window, tie_break, minimal_support)


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
    CandidateBasis built them before it held keys only.
    """
    ref = graph.reference
    by_degree, by_codegree, provenance = {}, {}, {}
    for key in graph.order:
        ts = graph.nodes[key]
        boxes = [range(cap + 1) if i in ts.seed.unfrozen
                 else range(-frozen_window, frozen_window + 1) for i in range(ts.seed.n)]
        for m in product(*boxes):
            elem = cluster_monomial(ts, m).expand(ref)
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


def direct_proj_element(seed, factors, eta, powers=None):
    """Reference projective distinguished element of the seed, from its
    projectives as torus elements: their power (factor_power, over
    powers) times the cluster monomial X^(eta+), then the frozen factor,
    each product taken from the right and normalized from the bottom."""
    ppart, _, c = factor_power(seed, factors, eta, powers)
    ep = pos_part(eta)
    u = vec_sub(eta, vec_add(c, ep))
    if any(u[i] != 0 for i in seed.unfrozen):
        raise FrozenFactorNotFrozen(f"forced correction {u} is not frozen")
    body = monomial_mul(seed.Lambda, vec_add(ep, u), ppart, c, right=True)
    return normalize_at(body, eta)


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


def record_columns(basis, home_key, torus_key, co):
    """(Co)degrees in the torus of home's variables, in home's order, each
    codegree read off the record the basis resolves at the variable's
    degree (None without one)."""
    degs = tuple(x.g for x in basis.graph.vars_in(home_key, torus_key))
    if not co:
        return degs
    return tuple(rec and rec[2] for rec in (basis._resolve(torus_key, d, False) for d in degs))


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


def recompose(decomp, lookup, dim, seed=None):
    """Sum coefficient * basis element lookup(g); the inverse of
    decompose. With a seed, the elements are NForms of it, expanded
    first."""
    acc = QTElem.zero(dim)
    for g, c in decomp.terms:
        elem = lookup(g)
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


def route_transport(graph, a_key, b_key, g, trop):
    """g transformed by trop along graph.route, which passes through the
    reference node, in the premutated seeds of premutated_route_steps."""
    for seed, k in premutated_route_steps(graph, a_key, b_key):
        g = trop(seed, k, g)
    return g


def _exponent_maximal_support(seed, supp, n_of):
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
        return pointed.dominance_leq(seed, a, b)

    out = [m for _, m in minima if not any(leq(m, q) for q in above)]
    out += [q for q in above if not any(p != q and leq(q, p) for p in above)]
    return out


def subtracting_decompose(seed, z, lookup, window, tie_break=None):
    """The exponent-space decomposition of a torus element over the torus
    elements lookup(g) returns by degree, with a new QTElem residual r - c *
    element per step: each support exponent's n below window.deg taken
    once from the library's dominance test, a pivot inside the window
    iff its n lies in the box up to window.codeg's n."""
    n_total = pointed.dominance_n(seed, window.codeg, window.deg)
    n_of = {}
    terms = []
    r = z
    for _ in range(pointed.DECOMPOSE_ITERATION_CAP):
        if not r:
            return pointed.Decomposition(terms=terms, status="exact")
        for m in r.terms:
            if m not in n_of:
                n_of[m] = pointed.dominance_n(seed, m, window.deg)
        pivots = _exponent_maximal_support(seed, r.terms, n_of)
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        n = n_of[g]
        if n is None or n_total is None or any(a > b for a, b in zip(n, n_total)):
            return pointed.Decomposition(
                terms=terms, status="indeterminate",
                reason=f"support degree {g} escapes the window",
            )
        elem = lookup(g)
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


def nform_lookup(seed, lookup):
    """A degree-keyed lookup read in n-coordinates: each torus element
    below its key, an NForm (a window_set lookup's) as it is."""

    def get(g):
        elem = lookup(g)
        if elem is None or isinstance(elem, pointed.NForm):
            return elem
        return to_nform(seed, elem, g)

    return get


def n_form_decompose(seed, z, lookup, window, tie_break=None):
    """pointed.decompose on the inputs of the exponent-space references: z
    in n-coordinates below window.deg, the lookup read by nform_lookup,
    and the box up to window.codeg's n. None when z has an exponent off
    window.deg + B Z^k, which no n-form holds."""
    try:
        zn = to_nform(seed, z, window.deg)
    except ValueError:
        return None
    box = pointed.dominance_n(seed, window.codeg, window.deg)
    return pointed.decompose(seed, zn, nform_lookup(seed, lookup), box, tie_break)


def bar_decomposition_consistency(basis, r_home, r_m, verdict):
    """bar_consistency as verify_pair checked it when it decomposed each
    two-tail product twice: bar(R V) v^s, decomposed over V's window,
    is exact and expands to the barred coefficients of v^-s R V."""
    t_seed = basis.graph.nodes[r_home].seed
    gamma = verdict.v_degree
    box = pointed.dominance_n(t_seed, basis._resolve(r_home, gamma, False)[2], gamma)
    prod = pointed.mul(t_seed, pointed.NForm.monomial(r_m, len(t_seed.unfrozen)),
                       basis.element_at_degree(r_home, gamma))
    lookup = basis.window_set(r_home)
    decomp = pointed.decompose(t_seed, prod.vshift(-verdict.s), lookup, box)
    bar_decomp = pointed.decompose(t_seed, prod.bar().vshift(verdict.s), lookup, box)
    return bar_decomp.is_exact and sorted(
        (g, c.bar()) for g, c in decomp.terms) == sorted(bar_decomp.terms)


def common_node_case(graph, basis, r_spec, v_key):
    """The case of R V from the exchange graph alone: "in_basis" when some
    node's degs hold R's variables and every factor of V, the element
    keyed at v_key (its provenance's variables of nonzero exponent),
    else "two_tail"."""
    r_home, r_m = r_spec
    v_home, v_m = basis.by_degree[v_key]
    factors = {graph.nodes[r_home].degs[i] for i, x in enumerate(r_m) if x}
    factors.update(graph.nodes[v_home].degs[i] for i, x in enumerate(v_m) if x)
    held = any(factors <= set(ts.degs) for ts in graph.nodes.values())
    return "in_basis" if held else "two_tail"


def empty_middle_case(graph, basis, r_spec, v_key):
    """Whether the two-tail product R V has an empty middle, from the
    exchange graph alone: exactly when V, the element keyed at v_key, has
    one factor that no node holds together with R, that factor has
    exponent 1 in V, and it is R's exchange partner, the variable an
    edge swaps R with (the two clusters an edge joins differ in that pair
    alone; a node's labeled order need not match its neighbour's). Holds
    on A3-, A4- and D4-principal cap1; not on B2, G2, B3-principal cap1
    or A3-principal cap2."""
    r_home, r_m = r_spec
    v_home, v_m = basis.by_degree[v_key]
    r_deg = graph.nodes[r_home].degs[r_m.index(1)]
    factors = {graph.nodes[v_home].degs[i]: x for i, x in enumerate(v_m) if x}
    clusters = [set(ts.degs) for ts in graph.nodes.values()]
    apart = [f for f in factors if not any({f, r_deg} <= c for c in clusters)]
    partners = {frozenset(set(graph.nodes[a].degs) ^ set(graph.nodes[b].degs))
                for a, _, b in graph.edges}
    return len(apart) == 1 and factors[apart[0]] == 1 and {r_deg, apart[0]} in partners


def empty_middle_mismatches(basis, keyed):
    """The (R spec, V's key, middle is empty, predicted empty) of each
    two-tail keyed verdict whose middle is not as empty_middle_case
    predicts."""
    out = []
    for r_spec, v_key, verdict in keyed:
        if verdict.case == "two_tail":
            want = empty_middle_case(basis.graph, basis, r_spec, v_key)
            if (not verdict.middle) != want:
                out.append((r_spec, v_key, not verdict.middle, want))
    return out


def keyed_verdicts(basis, r_specs=None, leaving=None):
    """(R spec, V's key, verdict) of every pair of the full sweep, R by R in
    default_r_specs order (or over r_specs, grouped by home) and V by key,
    each home's torus forgotten after its last R, as verify_theorem does;
    leaving(torus), when given, is called just before each forget."""
    specs = default_r_specs(basis.graph) if r_specs is None else r_specs
    for i, (r_home, r_m) in enumerate(specs):
        for g in basis.degree_keys():
            yield (r_home, r_m), g, verify_pair(basis, r_home, r_m, *basis.by_degree[g])
        if i + 1 == len(specs) or specs[i + 1][0] != r_home:
            if leaving is not None:
                leaving(r_home)
            basis.forget(r_home)


def report_order_verdicts(basis, r_specs=None):
    """Every verdict of a sweep over r_specs (default_r_specs when None),
    in verify_theorem's report order: R specs by (index of R's home in
    graph order, m), each R's verdicts by V's degree, stably; each made
    by keyed_verdicts, which forgets as verify_theorem does."""
    graph = basis.graph
    specs = default_r_specs(graph) if r_specs is None else r_specs
    specs = sorted(specs, key=lambda rs: (graph.order.index(rs[0]), tuple(rs[1])))
    out = []
    for _, group in groupby(keyed_verdicts(basis, specs), key=lambda kv: kv[0]):
        out += sorted((v for _, _, v in group), key=lambda v: v.v_degree)
    return out


def sweep(basis, r_specs=None):
    """verify_theorem's report and the verdicts its sink received, in order."""
    verdicts = []
    return verify_theorem(basis, r_specs, sink=verdicts.append), verdicts


def verdict_json(v, node):
    """One pair of the --json report document, R's home given as node, its
    index in graph order: the verdict's fields as they are, an optional one
    only when set, and each middle coefficient as its text."""
    out = {"R": {"node": node, "m": v.r_spec[1]}, "V": v.v_degree, "verdict": v.case,
           "checks": v.checks}
    for name in ("reason", "s", "h", "S", "H"):
        if getattr(v, name) is not None:
            out[name] = getattr(v, name)
    if v.middle:
        out["middle"] = [[g, str(c)] for g, c in v.middle]
    return out


def report_json(basis, report, verdicts):
    """The --json report document of a sweep's report and all its verdicts,
    in the report's order."""
    graph = basis.graph
    node_ids = {key: i for i, key in enumerate(graph.order)}
    return {
        "nodes": len(graph.order),
        "variables": len(graph.distinct_variables()),
        "basis_size": len(basis.by_degree),
        "counts": report.counts(),
        "conflicts": [str(c) for c in report.conflicts],
        "pairs": [verdict_json(v, node_ids[v.r_spec[0]]) for v in verdicts],
    }


def report_text(basis, report, verdicts):
    """The bytes the --json report file must hold: report_json's document
    serialized whole, then a newline."""
    return json.dumps(report_json(basis, report, verdicts), indent=2, sort_keys=True) + "\n"


def negative_digits(coeffs):
    """The number of negative digits (integer coefficients of powers of v)
    over the VCoeffs coeffs."""
    return sum(a < 0 for c in coeffs for _, a in c.items())


def sweep_positivity(basis, r_specs=None):
    """The positivity oracle over keyed_verdicts's sweep, a Counter of:
    records, the records made in each torus (both sides) with an element,
    read just before forget drops them; record_negatives, the negative
    digits of those elements; middles, the middle coefficients of every
    verdict; middle_negatives, their negative digits. For a
    skew-symmetric seed both negative counts are 0: quantum cluster
    monomials have coefficients in N[v, 1/v] (Davison, arXiv:1601.07918),
    and in finite type so do the structure constants of the basis they
    form (Davison-Mandel, arXiv:1910.12915)."""
    out = Counter()

    def leaving(torus):
        elems = [hit[1] for co in (False, True)
                 for hit in basis._resolved.get((torus, co), {}).values() if hit is not None]
        out["records"] += len(elems)
        out["record_negatives"] += negative_digits(
            c for elem in elems for c in elem.coeffs().values())

    for _, _, verdict in keyed_verdicts(basis, r_specs, leaving):
        out["middles"] += len(verdict.middle)
        out["middle_negatives"] += negative_digits(c for _, c in verdict.middle)
    return out


def common_node_mismatches(basis, keyed):
    """The (R spec, V's key, case, predicted case) of each keyed verdict
    whose case is not the common-node case."""
    out = []
    for r_spec, v_key, verdict in keyed:
        want = common_node_case(basis.graph, basis, r_spec, v_key)
        if verdict.case != want:
            out.append((r_spec, v_key, verdict.case, want))
    return out


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


def scanning_detect_shift(graph, key, direction=1):
    """The shift of a node, found by re-tracking into every node in
    discovery order until the degree pattern and the B condition hold."""
    for cand in graph.order:
        home, torus = (cand, key) if direction == 1 else (key, cand)
        hit = _shift_pattern(graph, home, torus)
        if hit is None:
            continue
        sigma, u = hit
        if not _b_condition(graph.nodes[torus].seed, graph.nodes[home].seed, sigma):
            continue
        return ShiftData(base=key, target=cand, direction=direction,
                         word=graph.route(key, cand), sigma=sigma, u=u)
    raise ShiftNotFound(f"no {direction:+d} shift for node in graph")


# -- the dict kernels: n-form arithmetic on {n: {v-exponent: int}} --

class DictForm:
    """An n-form with unpacked coefficients, (g, {n: VCoeff}), no zero
    coefficient stored: the layout pointed.NForm had before it packed
    each coefficient into one int."""

    __slots__ = ("g", "terms")

    def __init__(self, g, terms):
        self.g = tuple(g)
        self.terms = {n: c for n, c in terms.items() if c}

    @classmethod
    def of(cls, z):
        """The DictForm of a (packed) NForm."""
        return cls(z.g, z.coeffs())

    def packed(self):
        return pointed.NForm.of(self.g, self.terms)

    def __eq__(self, other):
        return isinstance(other, DictForm) and (self.g, self.terms) == (other.g, other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"DictForm({self.g}, {self.terms})"

    def vshift(self, e):
        return DictForm(self.g, {n: c.shift(e) for n, c in self.terms.items()})

    def bar(self):
        return DictForm(self.g, {n: c.bar() for n, c in self.terms.items()})


def _dict_add_row(t, n1, c1, s1, p1, right):
    """t += the row term times each (n2, {e: x}, s2, p2) of right, in
    place, on a {n: {v-exponent: int}} dict. The row term is at n1, with
    (e, x) pairs c1, v-exponent s1 and pairing vector p1; each product
    lands at n1 + n2 with v-exponent s1 + s2 + p1 . p2. Coefficients and
    dicts that cancel are dropped as they do."""
    for n2, c2, s2, p2 in right:
        key = tuple(a + b for a, b in zip(n1, n2))
        acc = t.setdefault(key, {})
        e = s1 + s2 + sum(a * b for a, b in zip(p1, p2))
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


def _pairing(seed):
    units = tuple(zip(seed.unfrozen, seed.D))
    return units, tuple(tuple(d * x for x in seed.B[u]) for u, d in units)


def dict_mul(seed, a, b, normalize=False):
    """pointed.mul on DictForms, every term pair through the dict kernel
    (no one-term fast path)."""
    if normalize:
        zero = (0,) * len(seed.unfrozen)
        ca, cb = a.terms.get(zero), b.terms.get(zero)
        if ca is None or cb is None or not ca.is_unit() or not cb.is_unit():
            raise pointed.NonUnitLeading("a factor's coefficient at n = 0 is not a unit")
        (ea, sa), = ca._c.items()
        (eb, sb), = cb._c.items()
        shift, sign = -ea - eb, sa * sb
    else:
        shift, sign = seed.lam(a.g, b.g), 1
    units, db = _pairing(seed)
    d_a = tuple(d * a.g[u] for u, d in units)
    d_b = tuple(d * b.g[u] for u, d in units)
    right = [(n2, c2._c, -sum(x * y for x, y in zip(d_a, n2)),
              tuple(sum(x * y for x, y in zip(row, n2)) for row in db))
             for n2, c2 in b.terms.items()]
    t = {}
    for n1, c1 in a.terms.items():
        _dict_add_row(t, n1, [(e1, sign * x1) for e1, x1 in c1._c.items()],
                      shift + sum(x * y for x, y in zip(d_b, n1)), n1, right)
    return DictForm(tuple(x + y for x, y in zip(a.g, b.g)),
                    {n: VCoeff(c) for n, c in t.items()})


def dict_add(seed, a, b):
    """pointed.add on DictForms."""
    n = signed_offset(seed, b.g, a.g)
    if n is not None and min(n, default=0) < 0:
        a, b, n = b, a, tuple(-x for x in n)
    if n is None or min(n, default=0) < 0:
        raise RuntimeError(f"neither of the bases {a.g} and {b.g} dominates the other")
    t = {m: dict(c._c) for m, c in a.terms.items()}
    _dict_add_row(t, n, ((0, 1),), 0, (), [(m, c._c, 0, ()) for m, c in b.terms.items()])
    return DictForm(a.g, {m: VCoeff(c) for m, c in t.items()})


def dict_divide(seed, num, d):
    """pointed.divide on DictForms: from the lexicographically least n of
    the remainder, one quotient term per step."""
    zero = (0,) * len(seed.unfrozen)
    if d.terms.get(zero) != VCoeff.one() or any(x < 0 for n in d.terms for x in n):
        raise pointed.NonUnitLeading("the divisor is not pointed")
    g = vec_sub(num.g, d.g)
    cols, dcols = tuple(zip(*num.terms)), tuple(zip(*d.terms))
    lo = tuple(min(x) - min(y) for x, y in zip(cols, dcols))
    hi = tuple(max(x) - max(y) for x, y in zip(cols, dcols))
    if any(a > b for a, b in zip(lo, hi)):
        raise NotDivisible("incompatible support boxes")
    units, db = _pairing(seed)
    d_q = tuple(k * g[u] for u, k in units)
    d_d = tuple(k * d.g[u] for u, k in units)
    right = [(n2, c2._c, -sum(x * y for x, y in zip(d_q, n2)),
              tuple(sum(x * y for x, y in zip(row, n2)) for row in db))
             for n2, c2 in d.terms.items() if any(n2)]
    shift = seed.lam(g, d.g)
    q = {}
    r = {n: dict(c._c) for n, c in num.terms.items()}
    while r:
        nq = min(r)
        rq = r.pop(nq)
        if not all(a <= x <= b for a, x, b in zip(lo, nq, hi)):
            raise NotDivisible(f"quotient term {nq} escapes the support box")
        s1 = shift + sum(x * y for x, y in zip(d_d, nq))
        q[nq] = VCoeff({e - s1: x for e, x in rq.items()})
        _dict_add_row(r, nq, [(e, -x) for e, x in rq.items()], 0, nq, right)
    return DictForm(g, q)


def dict_decompose(seed, z, lookup, box, tie_break=None):
    """pointed.decompose on a DictForm over the DictForms lookup(g)
    returns: the residual one {n: {v-exponent: int}} dict, each step's
    pivot its Pareto-minimal n of least exponent."""
    r = {n: dict(c._c) for n, c in z.terms.items()}
    terms = []
    for _ in range(pointed.DECOMPOSE_ITERATION_CAP):
        if not r:
            return pointed.Decomposition(terms=terms, status="exact")
        minima = [n for n in r if not any(o != n and all(a <= b for a, b in zip(o, n))
                                          for o in r)]
        pivots = {vec_add(z.g, _linalg.mat_vec(seed.B, n)): n for n in minima}
        g = min(pivots) if tie_break is None else tie_break(sorted(pivots))
        n = pivots[g]
        if box is None or min(n, default=0) < 0 or any(a > b for a, b in zip(n, box)):
            return pointed.Decomposition(terms=terms, status="indeterminate",
                                         reason=f"support degree {g} escapes the window")
        elem = lookup(g)
        if elem is None:
            return pointed.Decomposition(terms=terms, status="indeterminate",
                                         reason=f"no basis element keyed at {g}")
        c = VCoeff(r[n])
        terms.append((g, c))
        _dict_add_row(r, n, [(e, -x) for e, x in c._c.items()], 0, (),
                      [(m, ce._c, 0, ()) for m, ce in elem.terms.items()])
    return pointed.Decomposition(terms=terms, status="indeterminate",
                                 reason="iteration cap hit")
