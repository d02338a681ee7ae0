"""Cluster-monomial candidate basis and product-structure verification.

The candidate basis of a finite-type graph is the set of normalized
localized cluster monomials, and it holds only their keys: by_degree
maps each degree in the reference torus to a provenance (node, m), and
by_codegree each codegree to its degree. Both are linear in m on a
node's cone (g-vectors and F-polynomial tops add over a cluster
monomial's factors), so the keys of an exponent box up to a cap come
from two integer maps per node, without an expansion, and a provenance
names its element's degree in any torus: m's combination of the
degrees of the node's variables there, the bases the graph keeps for
them (ExchangeGraph.degs_in), formed by _linalg.combine with one vector
sum per nonzero exponent (tropical.psi_matrix is the same map as a
matrix, which no lookup forms). Every
element in every torus (a sweep key, a key decompose reads through the
window_set lookup inside its dominance window, verify_pair's V, an
element of a triangularity sweep) is looked up by (co)degree through one
resolver, which alone expands cluster monomials, and whose records are
the only elements kept, each until forget drops its torus from every
store, each keyed by torus first (as verify_theorem does on leaving a home).

In one torus, the (co)degree cones of the nodes, each spanned by its
variables' (co)degrees, form a complete simplicial fan (the g-vector fan
of a finite type; Hohlweg-Pilaud-Stella, arXiv:1703.09551). The
resolver walks it: from the node where its last walk in the (torus,
side) ended, the torus's own node at first, it reads a key g in a
node's coordinates, lambda = M^-1 g through the integer inverse of the
node's (co)degree map M, and while some unfrozen lambda_k < 0 it steps
across wall k along the graph edge (node, k, node'). Each M is
unimodular: the g-vectors of a cluster form a Z-basis of the lattice
(conjectured in Fomin-Zelevinsky, Cluster algebras IV,
arXiv:math/0602259, and proved there in finite type; in general by
Gross-Hacking-Keel-Kontsevich, arXiv:1411.1394), and frozen variables
add unit columns. So every key has integer coordinates in every node,
and no lookup divides. Only the torus's own node's M is inverted
outright: along the path tree, a node's M differs from its neighbour's
in the exchanged column alone, so its inverse is the neighbour's after
one rank-one update. In a polytopal fan each step improves <g, .> at
the polytope's vertices, so no node repeats, whatever the start. The
walk ends at a node whose cone holds g, with g's exponents m there, and
the key's element is that node's X^m: expanded once
(ExchangeGraph.monomial_in), in n-coordinates (pointed.NForm, exponents
g' + B n), and checked pointed at its degree g' (no negative n,
coefficient 1 at n = 0) with g' = g on the degree side, or its codegree
g' + B n_max = g on the codegree side. Any other node whose cone holds
g holds the variables spanning the face g lies in, and names the same
X^m: the graph keeps each variable once per torus, as its one-factor
cluster monomial, a re-tracking that disagrees with it being an
internal error. So neither the walk's start nor its route matters, and
no other node is tried. Before the first
lookup in a (torus, side), a certificate checks that the cones do form
such a fan: every node has a wall, an edge, for each unfrozen vertex
(checked once, when the basis is built), every node's map is
unimodular, every edge's new variable lies strictly across the wall
(lambda_k < 0 in the coordinates of the node it leaves), and an
interior point of the torus's own cone lies in no other cone. A failed
certificate, or a walk longer than the node count, is an internal
error, never a fallback to trying every node. The resolver keeps one
record per (torus, key, side), ((home, m), element, codegree, the
codegree's n), the codegree read off the n-form its degree was checked
on. Each caller reads a key's record once and takes from it all it needs
(verify_pair V's element, codegree and n, each decomposition term's
codegree and bar flag; check_triangular an element and its box), so no
element is measured twice. The maps' columns are not looked up: a
variable's degree is its n-form's base and its codegree g + B n_max, read
off the variable as the graph keeps it in the torus. So the codegree side
does not depend on the degree side, building a basis walks no fan,
certifies no torus and makes no record, and a (torus, side) is certified
at its first lookup.

verify_pair multiplies a localized cluster monomial R (working in the
torus of R's home node, where R is a plain monomial) against a basis
element V and classifies the product: either it lands in v^Z times the
basis, or it decomposes with a single term at the top degree, a single
term at the bottom codegree, and middle coefficients confined to
v-exponent window [h+1, s-1], where v^s and v^h are the extremal
coefficients. The products and their decompositions stay in
n-coordinates and test no dominance; the claims about them (the
extremal coefficients, s - h, and both dominance chains) are checked
independently, on exponents (the chains by pointed.dominance_n), and
recorded. Each pair is decomposed once: bar-consistency is read off the
basis elements of the expansion, each of which must equal its bar (see
verify_pair).

verify_theorem sweeps verify_pair over R specs and keys and hands each
verdict, in report order, to a caller's sink as it is made (the CLI
encodes it onto its --json spool there). Its report keeps the tally by
case, the verdicts that did not pass and the conflicts, so the memory a
sweep holds does not grow with its pair count.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from functools import partial
from itertools import groupby, product

from . import _linalg, pointed
from .expansion import ExchangeGraph
from .pointed import NForm
from .qtorus import VCoeff, unit_vec, vec_add
from .seed import opposite_seed

ENUMERATION_LIMIT = 10 ** 5  # (node, m) pairs a CandidateBasis will key


class EnumerationTooLarge(ValueError):
    """The exponent box keys more (node, m) pairs than ENUMERATION_LIMIT."""

    def __init__(self, size):
        super().__init__(f"the exponent box keys {size} (node, m) pairs, "
                         f"over {ENUMERATION_LIMIT}")
        self.size = size


def _exponent_box(seed, cap, frozen_window):
    """Exponent vectors with unfrozen entries in [0, cap] and frozen
    entries in [-frozen_window, frozen_window], in lexicographic order."""
    return product(*(
        range(cap + 1) if i in seed.unfrozen else range(-frozen_window, frozen_window + 1)
        for i in range(seed.n)
    ))


def enumeration_size(graph, unfrozen_cap, frozen_window):
    """The number of (node, m) pairs CandidateBasis keys, not enumerated."""
    nuf = len(graph.reference.unfrozen)
    frozen = graph.reference.n - nuf
    return len(graph.order) * (unfrozen_cap + 1) ** nuf * (2 * frozen_window + 1) ** frozen


class CandidateBasis:
    """Normalized localized cluster monomials of a closed exchange graph.

    walk_steps counts the fan walk's steps over every new key resolved.
    """

    def __init__(self, graph: ExchangeGraph, unfrozen_cap=3, frozen_window=0):
        if graph.truncated:
            raise ValueError("exchange graph is truncated; basis needs a closed graph")
        size = enumeration_size(graph, unfrozen_cap, frozen_window)
        if size > ENUMERATION_LIMIT:
            raise EnumerationTooLarge(size)
        self.graph = graph
        self.unfrozen_cap = unfrozen_cap
        self.frozen_window = frozen_window
        self.by_degree: dict = {}
        self.by_codegree: dict = {}
        self.conflicts: list = []
        self.walk_steps = 0
        self._inv: dict = defaultdict(dict)
        self._resolved: dict = defaultdict(dict)
        self._last_home: dict = {}
        # each edge (a, k, b) as (b, position of b's new variable)
        self._walls = {}
        for a, k, b in graph.edges:
            new = set(graph.nodes[b].degs) - set(graph.nodes[a].degs)
            if len(new) != 1:
                raise RuntimeError(f"fan certificate fails: edge ({a}, {k}, {b}) "
                                   f"exchanges {len(new)} variables")
            self._walls[(a, k)] = (b, graph.nodes[b].degs.index(new.pop()))
        for key in graph.order:
            for k in graph.reference.unfrozen:
                if (key, k) not in self._walls:
                    raise RuntimeError(f"fan certificate fails: node {key} has no wall {k}")
        self._enumerate()

    def _enumerate(self):
        """Key each node's exponent box in the reference torus t0 by two
        integer maps, expanding nothing: X^m's degree D m, D's columns
        the node's variables' degrees, and its codegree C m, C's columns
        their codegrees, read off their n-forms (_columns), each formed
        as one combination of the columns (_linalg.combine).
        Both add over factors: g-vectors do, and pointed.mul puts the
        pair of its factors' co_n terms alone at their sum, with a
        nonzero coefficient (frozen factors are plain monomials).
        by_degree keeps the first (node, m) per degree g, by_codegree
        maps each codegree to its g, and a second g at one codegree is a
        conflict. Nothing is resolved, walked or certified."""
        t0 = self.graph.order[0]
        zero = (0,) * self.graph.reference.n
        for key in self.graph.order:
            seed = self.graph.nodes[key].seed
            deg = self._columns(key, t0, co=False)
            codeg = self._columns(key, t0, co=True)
            for m in _exponent_box(seed, self.unfrozen_cap, self.frozen_window):
                g = _linalg.combine(zero, deg, m)
                if g in self.by_degree:
                    continue
                self.by_degree[g] = (key, m)
                eta = _linalg.combine(zero, codeg, m)
                if self.by_codegree.setdefault(eta, g) != g:
                    self.conflicts.append(("codegree", eta, None, (key, m)))

    def degree_keys(self):
        return sorted(self.by_degree)

    # -- on-demand resolution of elements by (co)degree in any torus --

    def _columns(self, home_key, torus_key, co):
        """(Co)degrees in the torus of home's variables, in home's order,
        read off their n-forms there: a degree is its base, a codegree
        g + B n_max (NForm.codegree). Nothing is resolved."""
        if not co:
            return self.graph.degs_in(home_key, torus_key)
        xs = self.graph.vars_in(home_key, torus_key)
        seed = self.graph.nodes[torus_key].seed
        etas = tuple(x.codegree(seed) for x in xs)
        if None in etas:
            raise RuntimeError(f"variable at degree {xs[etas.index(None)].g} of node "
                               f"{home_key} has no codegree in torus {torus_key}")
        return etas

    def _inverse_map(self, home_key, torus_key, co):
        """Integer inverse M^-1 of m -> (co)degree of home's X^m in torus_key.

        Column j of M is the (co)degree of home's j-th variable in the
        torus; on the degree side M is psi_matrix(home, torus). M is
        unimodular, the g-vectors of a cluster being a Z-basis; None when
        it is not, which the fan certificate refuses. Computed once per
        (home, torus, side), kept in _inv[(torus, side)][home] and
        returned from there before anything else is built, by
        exchange update along the path tree (ExchangeGraph.build_back),
        inverting only the torus's own node's map outright. A node's
        labeled seed is its neighbour's mutated at k (_exchange_update),
        so its M is the neighbour's M' but for column k, c: with
        lambda = M'^-1 c, det M = lambda_k det M', and when lambda_k =
        +-1, M^-1 is M'^-1 after one row operation per row. Otherwise M
        is not unimodular and the map is None, and so is the map of a
        node whose neighbour has none.
        """
        store = self._inv[(torus_key, co)]
        if home_key in store:
            return store[home_key]
        return self.graph.build_back(
            store, home_key, torus_key,
            lambda: _linalg.invert(_linalg.transpose(self._columns(torus_key, torus_key, co))),
            lambda prev_key, key, k: self._exchange_update(prev_key, key, k, torus_key, co))

    def _exchange_update(self, prev_key, key, k, torus_key, co):
        """key's inverse map from its neighbour prev_key's across vertex k."""
        inv = self._inv[(torus_key, co)][prev_key]
        if inv is None:
            return None
        cols = self._columns(key, torus_key, co)
        prev = self._columns(prev_key, torus_key, co)
        if cols[:k] + cols[k + 1:] != prev[:k] + prev[k + 1:]:
            raise RuntimeError(f"nodes {key} and {prev_key} differ off their exchanged "
                               f"vertex {k} in torus {torus_key}")
        lam = _linalg.mat_vec(inv, cols[k])
        if lam[k] not in (1, -1):
            return None
        row_k = tuple(lam[k] * x for x in inv[k])
        return tuple(
            row_k if i == k else row if not lam[i]
            else tuple(a - lam[i] * b for a, b in zip(row, row_k))
            for i, row in enumerate(inv))

    def _certify(self, torus_key, co):
        """Check once per (torus, side) that the nodes' (co)degree cones
        form a complete simplicial fan, so that the walk ends in a cone
        holding the key.

        Every node has a wall per unfrozen vertex (checked in __init__).
        Every node's map must be unimodular; across every edge (a, k, b),
        b's new variable must have lambda_k < 0 in a's coordinates, so the
        two cones lie strictly on opposite sides of their shared wall; and
        the interior point sum_k f_k of the torus's own cone must lie in
        no other cone. Those are the conditions for a pseudomanifold of
        cones covering space exactly once. Raises RuntimeError otherwise,
        else sets the first walk home, the torus's node, marking it done.
        """
        if (torus_key, co) in self._last_home:
            return
        kind = "codegree" if co else "degree"
        graph = self.graph
        for key in graph.order:
            if self._inverse_map(key, torus_key, co) is None:
                raise RuntimeError(f"{kind} map of node {key} is not unimodular (singular over "
                                   f"the integers) in torus {torus_key}")
        for (a, k), (b, j) in self._walls.items():
            inv = self._inverse_map(a, torus_key, co)
            if _linalg.dot(inv[k], self._columns(b, torus_key, co)[j]) >= 0:
                raise RuntimeError(f"{kind} fan certificate fails in torus {torus_key}: "
                                   f"edge ({a}, {k}, {b}) does not cross its wall")
        unfrozen = graph.reference.unfrozen
        inner = tuple(int(i in unfrozen) for i in range(graph.reference.n))
        covering = [key for key in graph.order if all(
            x >= 0 for i, x in enumerate(
                _linalg.mat_vec(self._inverse_map(key, torus_key, co), inner))
            if i in unfrozen)]
        if covering != [torus_key]:
            raise RuntimeError(f"{kind} fan certificate fails in torus {torus_key}: "
                               f"an interior point of its cone lies in {len(covering)} cones")
        self._last_home[(torus_key, co)] = torus_key

    def _walk(self, torus_key, g, co):
        """The node whose cone holds g, with g's exponents there, reached
        from the node where the last walk in this (torus, side) ended
        (the torus's own node for the first). In a polytopal fan no node
        repeats from any start, and any node whose cone holds g names
        the same element (see the module docstring)."""
        self._certify(torus_key, co)
        unfrozen = self.graph.reference.unfrozen
        home = self._last_home[(torus_key, co)]
        for _ in self.graph.order:
            lam = _linalg.mat_vec(self._inverse_map(home, torus_key, co), g)
            k = next((k for k in unfrozen if lam[k] < 0), None)
            if k is None:
                self._last_home[(torus_key, co)] = home
                return home, lam
            home = self._walls[(home, k)][0]
            self.walk_steps += 1
        raise RuntimeError(f"fan walk to {g} in torus {torus_key} is longer than "
                           f"{len(self.graph.order)} nodes")

    def _resolve(self, torus_key, g, co):
        """The record of key g in the torus, made once per side: ((home,
        m), element, codegree, the codegree's n), home the node where the
        fan walk ends and m g's exponents there; None when there is no
        element.

        X^m is expanded once, in n-coordinates; it is the element when it
        is pointed at its degree (no negative n, coefficient 1 at n = 0)
        and that degree (its codegree, when co) is g. The codegree's n is
        read off the same n-form in one scan (NForm.co_n: the
        componentwise-largest n, so also the lexicographically largest),
        and the codegree is g + B n there; both are None when it has no
        codegree term.
        """
        records = self._resolved[(torus_key, co)]
        if g in records:
            return records[g]
        home_key, m = self._walk(torus_key, g, co)
        elem = self.graph.monomial_in(home_key, m, torus_key)
        found = None
        if elem.is_pointed() and (co or elem.g == g):
            top = elem.co_n()
            eta = None if top is None else pointed.exponent(
                self.graph.nodes[torus_key].seed, elem.g, top)
            if (eta if co else elem.g) == g:
                found = ((home_key, m), elem, eta, top)
        records[g] = found
        return found

    def element_at_degree(self, torus_key, g):
        hit = self._resolve(torus_key, tuple(g), co=False)
        return None if hit is None else hit[1]

    def element_at_codegree(self, torus_key, eta):
        """The element keyed at codegree eta in the torus, in its
        n-coordinates there (based at its degree), or None."""
        hit = self._resolve(torus_key, tuple(eta), co=True)
        return None if hit is None else hit[1]

    def window_set(self, torus_key, co=False):
        """The lookup decompose reads the elements keyed in one torus by.

        Nothing is resolved here: the lookup resolves g on the spot, so
        only the keys a decomposition or a codegree lookup reaches are
        ever resolved. On the degree side it is element_at_degree bound
        to the torus; when co, it reads each element from its codegree in
        the opposite seed (NForm.opposite), so that it is based at its key
        there. The lookup does not test the window: decompose's n-box
        test keeps every lookup inside it.
        """
        if not co:
            return partial(self.element_at_degree, torus_key)
        seed = self.graph.nodes[torus_key].seed

        def at_codegree(eta):
            elem = self.element_at_codegree(torus_key, eta)
            return None if elem is None else elem.opposite(seed)

        return at_codegree

    def forget(self, torus_key):
        """Leave the torus: drop its inverse maps, records and last walk
        homes (certificates with them) on both sides, and the graph's share
        (ExchangeGraph.forget); a later lookup makes them again."""
        for side in (False, True):
            for store in (self._inv, self._resolved, self._last_home):
                store.pop((torus_key, side), None)
        self.graph.forget(torus_key)


class TriangularReport(namedtuple("TriangularReport", "passes failures indeterminates")):
    """check_triangular's tally: the number of products that passed, and
    the failing and indeterminate ones with their labels. Built once, by
    check_triangular."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.failures and not self.indeterminates


def check_triangular(basis: CandidateBasis, t_key, co=False) -> TriangularReport:
    """Multiply every variable of the working seed onto every basis element
    from the left and test the normalized product for unitriangularity with
    coefficients below 1 in v-degree. When co, the mirror check, from the
    right and from the bottom: the same check in the opposite seed, where
    the left product is the right one and each degree step its codegree
    mirror.

    Each product X^(f_i) * elem is formed in n-coordinates, normalized by
    one v-shift, and decomposed there: its window is elem's, the box up
    to elem's codegree n, shifted by f_i.

    What it resolves in the torus (the basis's records, inverse maps and
    certificates, the graph's re-trackings, cluster monomials and
    relation table) is kept until its caller calls basis.forget(t_key)."""
    graph = basis.graph
    t_seed = graph.nodes[t_key].seed
    seed = opposite_seed(t_seed) if co else t_seed
    lookup = basis.window_set(t_key, co=co)
    zero = (0,) * seed.n
    passes, failures, indeterminates = 0, [], []
    for g_ref in basis.degree_keys():
        home, m = basis.by_degree[g_ref]
        g = _linalg.combine(zero, graph.degs_in(home, t_key), m)
        _, elem, _, box = basis._resolve(t_key, g, False)
        if co:
            elem = elem.opposite(t_seed)
        for i in range(seed.n):
            prod = pointed.mul(seed, NForm.monomial(unit_vec(seed.n, i), len(seed.unfrozen)),
                               elem, normalize=True)
            decomp = pointed.decompose(seed, prod, lookup, box)
            label = (tuple(g_ref), i)
            if not decomp.is_exact:
                indeterminates.append((label, decomp.reason))
            elif pointed.is_m_unitriangular(decomp, prod.g):
                passes += 1
            else:
                failures.append((label, decomp.terms))
    return TriangularReport(passes, failures, indeterminates)


class LeclercVerdict(namedtuple("LeclercVerdict",
                                 "case r_spec v_degree checks middle reason s h S H",
                                 defaults=(None,) * 5)):
    """verify_pair's verdict on one (R, V) pair: its case ("in_basis",
    "two_tail" or "indeterminate"), R's (home, m) and V's degree, the
    named checks, the middle terms, and the extremal v-exponents s and h
    at the degrees S and H. Immutable; compared by its ten fields."""

    __slots__ = ()

    @property
    def passed(self):
        if self.case == "indeterminate":
            return False
        return all(self.checks.values())


def verify_pair(basis: CandidateBasis, r_home, r_m, v_home, v_m) -> LeclercVerdict:
    """Classify the twisted product of a localized cluster monomial with a
    basis element V, working in the torus of R's home node, where V is
    looked up at its degree psi_matrix(v_home, r_home) v_m, formed as
    v_m's combination of the degrees the graph keeps for v_home's
    variables there (ExchangeGraph.degs_in, _linalg.combine); B n_v,
    checked against s - h, is the same kernel over B's columns.

    The normalized product v^-s R V is decomposed once. On a two-tail
    pair, checks["bar_consistency"] is that every basis element b in
    the expansion equals its bar, a lookup of records the decomposition
    already made. It implies that bar(R V) v^s decomposes to the barred
    coefficients: the decomposition is exact, so v^-s R V is the sum of
    c_b b, its bar is the sum of bar(c_b) bar(b), which is the sum of
    bar(c_b) b when every b is bar-invariant, and a unitriangular
    expansion is unique. Decomposing the bar again would only check the
    weaker condition that the sum of bar(c_b) (b - bar(b)) is 0.
    """
    graph = basis.graph
    t_seed = graph.nodes[r_home].seed
    r_m = tuple(r_m)
    r_spec = (r_home, r_m)
    zero = (0,) * t_seed.n
    gamma = _linalg.combine(zero, graph.degs_in(v_home, r_home), v_m)
    hit = basis._resolve(r_home, gamma, False)
    if hit is None or hit[2] is None:
        return LeclercVerdict(
            case="indeterminate", r_spec=r_spec, v_degree=(), checks={}, middle=[],
            reason="factor V is not bipointed in the working torus",
        )
    # V's record: its element, its codegree, and the n of that codegree
    # below its degree, the window's box and where the product's bottom
    # coefficient sits
    _, z_v, eta, n_v = hit
    prod = pointed.mul(t_seed, NForm.monomial(r_m, len(t_seed.unfrozen)), z_v)
    top = vec_add(r_m, gamma)
    bottom = vec_add(r_m, eta)
    s = t_seed.lam(r_m, gamma)
    h = t_seed.lam(r_m, eta)
    checks = {
        "s_matches_lambda": prod.g == top and prod.terms.get(
            (0,) * len(t_seed.unfrozen)) == pointed.v_power(s),
        "h_matches_lambda": prod.terms.get(n_v) == pointed.v_power(h),
    }
    decomp = pointed.decompose(t_seed, prod.vshift(-s), basis.window_set(r_home), n_v)
    if not decomp.is_exact:
        return LeclercVerdict(
            case="indeterminate", r_spec=r_spec, v_degree=gamma, checks=checks, middle=[],
            reason=decomp.reason, s=s, h=h,
        )
    if len(decomp.terms) == 1:
        g0, c0 = decomp.terms[0]
        checks["pivot_is_one"] = g0 == top and c0.is_one()
        _record_n_criterion(checks, t_seed, r_m, n_v, in_basis=True)
        return LeclercVerdict(
            case="in_basis", r_spec=r_spec, v_degree=gamma, checks=checks, middle=[],
            s=s, h=h, S=top,
        )
    # two-tailed case: identify the head term by the codegree of its element
    checks["s_gt_h"] = s > h
    b_n = pointed.exponent(t_seed, zero, n_v)
    checks["s_minus_h_matches_b_n"] = s - h == -t_seed.lam(r_m, b_n)
    head = None
    mids = []
    # each term's record, read once: its codegree and its element's bar flag
    record = {g: basis._resolve(r_home, g, False) for g, _ in decomp.terms}
    heads = [g for g, _ in decomp.terms if record[g][2] == bottom]
    checks["unique_head"] = len(heads) == 1
    if len(heads) == 1:
        head = heads[0]
    for g, c in decomp.terms:
        if g == top:
            checks["pivot_is_one"] = c.is_one()
        elif head is not None and g == head:
            checks["h_coefficient"] = c.shift(s) == VCoeff.v_power(h)
        else:
            mids.append((g, c.shift(s)))
    # one dominance test per term in each chain: every degree below top,
    # bottom below every other codegree
    checks["deg_dominance"] = all(
        g == top or pointed.dominance_n(t_seed, g, top) is not None
        for g, _ in decomp.terms
    )
    if head is not None:
        checks["codeg_dominance"] = all(
            g == head
            or (record[g][2] != bottom
                and pointed.dominance_n(t_seed, bottom, record[g][2]) is not None)
            for g, _ in decomp.terms
        )
    checks["coeff_window"] = all(c.in_window(h + 1, s - 1) for _, c in mids)
    checks["bar_consistency"] = all(rec[1].is_bar_invariant() for rec in record.values())
    _record_n_criterion(checks, t_seed, r_m, n_v, in_basis=False)
    return LeclercVerdict(
        case="two_tail", r_spec=r_spec, v_degree=gamma, checks=checks, middle=sorted(mids),
        s=s, h=h, S=top, H=head,
    )


def _record_n_criterion(checks, t_seed, r_m, n_v, in_basis):
    """For a single-variable R, landing in the basis must match n_i = 0."""
    ones = [i for i, x in enumerate(r_m) if x != 0]
    if len(ones) != 1 or r_m[ones[0]] != 1 or ones[0] not in t_seed.unfrozen:
        return
    ni = n_v[t_seed.col(ones[0])]
    checks["in_basis_iff_n_zero"] = in_basis == (ni == 0)


class LeclercReport(namedtuple("LeclercReport", "tally failures conflicts")):
    """verify_theorem's tally of its verdicts by case (a two-tailed one by
    whether it passed), the verdicts that did not pass, in sweep order, and
    the basis's conflicts. Built once, by verify_theorem; it holds no
    verdict that passed."""

    __slots__ = ()

    @property
    def ok(self):
        """No conflict, and every verdict passed (LeclercVerdict.passed)."""
        return not self.conflicts and not self.failures

    def counts(self):
        """The tally, keyed in_basis, two_tail_pass, two_tail_fail and
        indeterminate, in that order."""
        return dict(self.tally)


def default_r_specs(graph: ExchangeGraph):
    """Distinct single variables, frozen too, over all nodes, as (key, m)."""
    specs = []
    seen = set()
    for key in graph.order:
        ts = graph.nodes[key]
        for i in range(ts.seed.n):
            g = ts.degs[i]
            if g in seen:
                continue
            seen.add(g)
            specs.append((key, unit_vec(ts.seed.n, i)))
    return specs


def verify_theorem(basis: CandidateBasis, r_specs=None, sink=None) -> LeclercReport:
    """Sweep verify_pair over R specs and all keyed basis elements, one
    home torus at a time: R specs by (index of R's home in graph.order,
    m), each R's verdicts by V's degree (stably; an indeterminate one's
    is ()). After a home's last R, one basis.forget drops all that the
    basis and the graph keep of its torus, the reference's too, so a
    sweep holds one torus's data at a time.

    Each verdict is tallied and handed to sink(verdict), when given, in
    that order, as soon as its R's verdicts are sorted; the report keeps
    only the tally, the verdicts that did not pass and the conflicts, so
    a sweep holds one R's verdicts at a time.
    """
    graph = basis.graph
    if r_specs is None:
        r_specs = default_r_specs(graph)
    index = {key: i for i, key in enumerate(graph.order)}
    tally = dict.fromkeys(("in_basis", "two_tail_pass", "two_tail_fail", "indeterminate"), 0)
    failures = []
    specs = sorted(r_specs, key=lambda rs: (index[rs[0]], tuple(rs[1])))
    for r_home, group in groupby(specs, key=lambda rs: rs[0]):
        for _, r_m in group:
            for v in sorted((verify_pair(basis, r_home, r_m, *basis.by_degree[g])
                             for g in basis.degree_keys()), key=lambda v: v.v_degree):
                passed = v.passed
                if v.case == "two_tail":
                    tally["two_tail_pass" if passed else "two_tail_fail"] += 1
                else:
                    tally[v.case] += 1
                if not passed:
                    failures.append(v)
                if sink is not None:
                    sink(v)
        basis.forget(r_home)
    return LeclercReport(tally, failures, list(basis.conflicts))
