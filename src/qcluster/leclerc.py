"""Cluster-monomial candidate basis and product-structure verification.

The candidate basis of a finite-type graph is the set of normalized
localized cluster monomials, keyed by degree (and, mirrored, by
codegree). A provenance (node, m) names its element's degree in any
torus without an expansion, psi_matrix applied to m, since g-vectors add
over a cluster monomial's factors; the sweep keys are those of an
exponent box up to a cap. Every element in every torus (a sweep key, a
point of the lazy window_set view that decompose keeps inside its
dominance window, verify_pair's V, an element of a triangularity sweep)
is looked up by (co)degree through one resolver, which inverts the
linear map sending a node's exponent vectors to (co)degrees and alone
expands cluster monomials. A cluster monomial on a face shared by
several nodes' g-vector cones is found from each of them; it is
identified by the reference degrees and exponents of its factors and
expanded once, and the other nodes' factors are compared with the first
node's instead. Two distinct elements sharing a key, or a repeated
identity whose factors differ, are recorded as conflicts, never merged,
and the lookup returns the first home's element; conflicts are recorded
for every resolved key, so window points that no lookup reaches are
never checked.

verify_pair multiplies a localized cluster monomial R (working in the
torus of R's home node, where R is a plain monomial) against a basis
element V and classifies the product: either it lands in v^Z times the
basis, or it decomposes with a single term at the top degree, a single
term at the bottom codegree, and middle coefficients confined to
v-exponent window [h+1, s-1], where v^s and v^h are the extremal
coefficients. Each claim is checked independently and recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import lcm

from . import _linalg, pointed
from .expansion import ExchangeGraph
from .pointed import Bidegree
from .qtorus import QTElem, VCoeff, twisted_mul, unit_vec, vec_add
from .seed import opposite_seed
from .tropical import psi_matrix


_MISS = object()

ENUMERATION_LIMIT = 10 ** 5  # (node, m) pairs the leclerc command will key


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
    """Normalized localized cluster monomials of a closed exchange graph."""

    def __init__(self, graph: ExchangeGraph, unfrozen_cap=3, frozen_window=0):
        if graph.truncated:
            raise ValueError("exchange graph is truncated; basis needs a closed graph")
        self.graph = graph
        self.unfrozen_cap = unfrozen_cap
        self.frozen_window = frozen_window
        self.by_degree: dict = {}
        self.by_codegree: dict = {}
        self.provenance: dict = {}
        self.conflicts: list = []
        self._deg_inv: dict = {}
        self._codeg_inv: dict = {}
        self._resolved: dict = {}
        self._resolved_co: dict = {}
        self._enumerate()

    def _enumerate(self):
        """Key each node's exponent box by its recorded degrees (g-vectors
        add over factors), the first (node, m) per key its provenance, and
        resolve the keys in the reference torus. Every node's degree map
        must be invertible there, so that _resolve reaches every (node, m)."""
        t0 = self.graph.order[0]
        for key in self.graph.order:
            if self._inverse_map(key, t0, co=False) is None:
                raise RuntimeError(f"degree map of node {key} is singular")
            seed = self.graph.nodes[key].seed
            psi = psi_matrix(self.graph, key, t0)
            for m in _exponent_box(seed, self.unfrozen_cap, self.frozen_window):
                self.provenance.setdefault(_linalg.mat_vec(psi, m), (key, m))
        for g, (key, m) in self.provenance.items():
            elem = self.element_at_degree(t0, g)
            eta = None if elem is None else pointed.codegree(self.graph.reference, elem)
            if eta is None:
                raise RuntimeError(f"cluster monomial {m} of {key} not bipointed")
            self.by_degree[g] = elem
            if self.by_codegree.setdefault(eta, elem) != elem:
                self.conflicts.append(("codegree", eta, None, (key, m)))

    def degree_keys(self):
        return sorted(self.by_degree)

    # -- on-demand resolution of elements by (co)degree in any torus --

    def _inverse_map(self, home_key, torus_key, co):
        """Integer inverse of m -> (co)degree of home's X^m in torus_key.

        Returns (num, den) with num = den * M^-1 and den > 0, where column
        j of M is the (co)degree of home's j-th variable in the torus; None
        when M is singular. Computed once per (home, torus) pair; on the
        degree side M is psi_matrix(home, torus).
        """
        cache = self._codeg_inv if co else self._deg_inv
        key = (home_key, torus_key)
        if key in cache:
            return cache[key]
        if co:
            torus_seed = self.graph.nodes[torus_key].seed
            xs = self.graph.vars_in(home_key, torus_key)
            mat = _linalg.transpose([pointed.codegree(torus_seed, z) for z in xs])
        else:
            mat = psi_matrix(self.graph, home_key, torus_key)
        inv = _linalg.invert(mat)
        if inv is not None:
            den = lcm(*(f.denominator for row in inv for f in row))
            inv = (tuple(tuple(int(f * den) for f in row) for row in inv), den)
        cache[key] = inv
        return inv

    def _factors(self, home_key, m, torus_key):
        """home's variables at m's nonzero positions, expanded in the torus
        and keyed by reference degree."""
        degs = self.graph.nodes[home_key].degs
        xs = self.graph.vars_in(home_key, torus_key)
        return {degs[i]: xs[i] for i, x in enumerate(m) if x}

    def _resolve(self, torus_key, g, co):
        """The element keyed at g in the torus, with its provenance.

        Every home whose integer inverse gives a valid m names a candidate
        cluster monomial. Its identity is the sorted (reference degree,
        exponent) pairs over m's nonzero entries; only a new identity is
        expanded. A repeated identity is the same product of the same
        factors, which is checked instead of the expansion: a factor that
        differs is a conflict, as is a distinct element at the key. With
        conflicts present the first home's element is the one returned.
        """
        cache = self._resolved_co if co else self._resolved
        hit = cache.get((torus_key, g))
        if hit is not None:
            return None if hit is _MISS else hit
        kind = "codegree" if co else "degree"
        extremal = pointed.codegree if co else pointed.degree
        torus_seed = self.graph.nodes[torus_key].seed
        found = None
        seen = {}
        for home_key in self.graph.order:
            inv = self._inverse_map(home_key, torus_key, co)
            if inv is None:
                continue
            num, den = inv
            m = _linalg.mat_vec(num, g)
            if any(x % den for x in m):
                continue
            m = tuple(x // den for x in m)
            home = self.graph.nodes[home_key]
            if any(m[i] < 0 for i in home.seed.unfrozen):
                continue
            identity = tuple(sorted((home.degs[i], x) for i, x in enumerate(m) if x))
            first = seen.get(identity)
            if first is not None:
                if self._factors(*first, torus_key) != self._factors(home_key, m, torus_key):
                    self.conflicts.append((kind, g, first, (home_key, m)))
                continue
            seen[identity] = (home_key, m)
            elem = self.graph.monomial_in(home_key, m, torus_key)
            if extremal(torus_seed, elem) != g:
                continue
            if found is None:
                found = ((home_key, m), elem)
            elif found[1] != elem:
                self.conflicts.append((kind, g, found[0], (home_key, m)))
        cache[(torus_key, g)] = _MISS if found is None else found
        return found

    def element_at_degree(self, torus_key, g):
        hit = self._resolve(torus_key, tuple(g), co=False)
        return None if hit is None else hit[1]

    def element_at_codegree(self, torus_key, eta):
        hit = self._resolve(torus_key, tuple(eta), co=True)
        return None if hit is None else hit[1]

    def window_set(self, torus_key, co=False) -> WindowView:
        """The elements keyed in one torus, as a lazy view for decompose.

        Nothing is resolved here: the view's get(g) resolves g on the spot
        (by codegree when co), so only the keys a decomposition or a
        codegree lookup reaches are ever resolved. The view does not test
        the window: decompose's n-box test keeps every lookup inside it.
        """
        return WindowView(self, torus_key, co)


@dataclass(frozen=True)
class WindowView:
    """Degree- (or codegree-) keyed basis elements of one torus, resolved
    on lookup; decompose reads it through get, like a dict (in the
    opposite seed when co)."""

    basis: CandidateBasis
    torus_key: object
    co: bool = False

    def get(self, g):
        if self.co:
            return self.basis.element_at_codegree(self.torus_key, g)
        return self.basis.element_at_degree(self.torus_key, g)


@dataclass
class TriangularReport:
    passes: int = 0
    failures: list = field(default_factory=list)
    indeterminates: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures and not self.indeterminates


def check_degree_triangular(basis: CandidateBasis, t_key) -> TriangularReport:
    """Multiply every variable of the working seed onto every basis element
    from the left and test the normalized product for unitriangularity with
    coefficients below 1 in v-degree."""
    return _check_triangular(basis, t_key, co=False)


def check_codegree_triangular(basis: CandidateBasis, t_key) -> TriangularReport:
    """Mirror of check_degree_triangular, from the right and from the bottom."""
    return _check_triangular(basis, t_key, co=True)


def _check_triangular(basis, t_key, co):
    """The degree-side check; when co, in the opposite seed, where the left
    product is the right one and each degree step its codegree mirror."""
    graph = basis.graph
    seed = graph.nodes[t_key].seed
    if co:
        seed = opposite_seed(seed)
    pset = basis.window_set(t_key, co=co)
    report = TriangularReport()
    for g_ref in basis.degree_keys():
        home, m = basis.provenance[g_ref]
        g = _linalg.mat_vec(psi_matrix(graph, home, t_key), m)
        elem = basis.element_at_degree(t_key, g)
        bid = pointed.bidegree(seed, elem)
        for i in range(seed.n):
            fi = unit_vec(seed.n, i)
            prod = twisted_mul(QTElem.monomial(fi), elem, seed.Lambda)
            prod = pointed.normalize_deg(seed, prod)
            window = Bidegree(deg=vec_add(bid.deg, fi), codeg=vec_add(bid.codeg, fi))
            decomp = pointed.decompose(seed, prod, pset, window)
            label = (tuple(g_ref), i)
            if not decomp.is_exact:
                report.indeterminates.append((label, decomp.reason))
            elif pointed.is_m_unitriangular(decomp, window.deg):
                report.passes += 1
            else:
                report.failures.append((label, decomp.terms))
    return report


@dataclass
class LeclercVerdict:
    case: str
    r_spec: tuple
    v_degree: tuple
    reason: str | None = None
    s: int | None = None
    h: int | None = None
    S: tuple | None = None
    H: tuple | None = None
    middle: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self):
        if self.case == "indeterminate":
            return False
        return all(self.checks.values())


def verify_pair(basis: CandidateBasis, r_home, r_m, v_home, v_m) -> LeclercVerdict:
    """Classify the twisted product of a localized cluster monomial with a
    basis element V, working in the torus of R's home node, where V is
    looked up at its degree psi_matrix(v_home, r_home) v_m."""
    graph = basis.graph
    t_seed = graph.nodes[r_home].seed
    r_m = tuple(r_m)
    r_spec = (r_home, r_m)
    gamma = _linalg.mat_vec(psi_matrix(graph, v_home, r_home), v_m)
    z_v = basis.element_at_degree(r_home, gamma)
    eta = None if z_v is None else pointed.codegree(t_seed, z_v)
    if eta is None:
        return LeclercVerdict(
            case="indeterminate", r_spec=r_spec, v_degree=(),
            reason="factor V is not bipointed in the working torus",
        )
    prod = twisted_mul(QTElem.monomial(r_m), z_v, t_seed.Lambda)
    top = vec_add(r_m, gamma)
    bottom = vec_add(r_m, eta)
    s = t_seed.lam(r_m, gamma)
    h = t_seed.lam(r_m, eta)
    checks = {
        "s_matches_lambda": prod.coeff(top) == VCoeff.v_power(s),
        "h_matches_lambda": prod.coeff(bottom) == VCoeff.v_power(h),
    }
    window = Bidegree(deg=top, codeg=bottom)
    pset = basis.window_set(r_home)
    normalized = prod.vshift(-s)
    decomp = pointed.decompose(t_seed, normalized, pset, window)
    if not decomp.is_exact:
        return LeclercVerdict(
            case="indeterminate", r_spec=r_spec, v_degree=gamma,
            reason=decomp.reason, s=s, h=h, checks=checks,
        )
    n_v = pointed.dominance_n(t_seed, eta, gamma)
    if len(decomp.terms) == 1:
        g0, c0 = decomp.terms[0]
        checks["pivot_is_one"] = g0 == top and c0.is_one()
        _record_n_criterion(checks, t_seed, r_m, n_v, in_basis=True)
        return LeclercVerdict(
            case="in_basis", r_spec=r_spec, v_degree=gamma,
            s=s, h=h, S=top, checks=checks,
        )
    # two-tailed case: identify the head term by the codegree of its element
    checks["s_gt_h"] = s > h
    if n_v is not None:
        b_n = _linalg.mat_vec(t_seed.B, n_v)
        checks["s_minus_h_matches_b_n"] = s - h == -t_seed.lam(r_m, b_n)
    head = None
    mids = []
    codeg_of = {}
    for g, c in decomp.terms:
        elem = pset.get(g)
        codeg_of[g] = pointed.codegree(t_seed, elem)
    heads = [g for g, _ in decomp.terms if codeg_of[g] == bottom]
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
    checks["deg_dominance"] = all(
        g == top or (pointed.dominance_leq(t_seed, g, top) and g != top)
        for g, _ in decomp.terms
    )
    if head is not None:
        checks["codeg_dominance"] = all(
            g == head
            or (pointed.dominance_leq(t_seed, bottom, codeg_of[g]) and codeg_of[g] != bottom)
            for g, _ in decomp.terms
        )
    checks["coeff_window"] = all(c.in_window(h + 1, s - 1) for _, c in mids)
    bar_norm = prod.bar().vshift(s)
    bar_decomp = pointed.decompose(t_seed, bar_norm, pset, window)
    checks["bar_consistency"] = bar_decomp.is_exact and sorted(
        (g, c.bar()) for g, c in decomp.terms
    ) == sorted(bar_decomp.terms)
    _record_n_criterion(checks, t_seed, r_m, n_v, in_basis=False)
    return LeclercVerdict(
        case="two_tail", r_spec=r_spec, v_degree=gamma,
        s=s, h=h, S=top, H=head, middle=sorted(mids), checks=checks,
    )


def _record_n_criterion(checks, t_seed, r_m, n_v, in_basis):
    """For a single-variable R, landing in the basis must match n_i = 0."""
    ones = [i for i, x in enumerate(r_m) if x != 0]
    if len(ones) != 1 or r_m[ones[0]] != 1 or ones[0] not in t_seed.unfrozen:
        return
    if n_v is None:
        checks["in_basis_iff_n_zero"] = False
        return
    ni = n_v[t_seed.col(ones[0])]
    checks["in_basis_iff_n_zero"] = in_basis == (ni == 0)


@dataclass
class LeclercReport:
    in_basis: int = 0
    two_tail_pass: int = 0
    two_tail_fail: int = 0
    indeterminate: int = 0
    verdicts: list = field(default_factory=list)
    conflicts: list = field(default_factory=list)

    @property
    def ok(self):
        return self.two_tail_fail == 0 and not self.conflicts

    def counts(self):
        return {
            "in_basis": self.in_basis,
            "two_tail_pass": self.two_tail_pass,
            "two_tail_fail": self.two_tail_fail,
            "indeterminate": self.indeterminate,
        }


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


def verify_theorem(basis: CandidateBasis, r_specs=None) -> LeclercReport:
    """Sweep verify_pair over R specs and all enumerated basis elements."""
    graph = basis.graph
    if r_specs is None:
        r_specs = default_r_specs(graph)
    report = LeclercReport()
    for r_home, r_m in r_specs:
        for g_ref in basis.degree_keys():
            v_home, v_m = basis.provenance[g_ref]
            verdict = verify_pair(basis, r_home, r_m, v_home, v_m)
            report.verdicts.append(verdict)
            if verdict.case == "indeterminate":
                report.indeterminate += 1
            elif verdict.case == "in_basis":
                report.in_basis += 1
            elif verdict.passed:
                report.two_tail_pass += 1
            else:
                report.two_tail_fail += 1
    report.conflicts = list(basis.conflicts)
    return report
