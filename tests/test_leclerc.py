import re
import sys
from collections import Counter
from itertools import product

import pytest

import oracles
from conftest import A3_B, a2_gold
from qcluster import build_exchange_graph, pointed, principal_framing
from qcluster.leclerc import (
    ENUMERATION_LIMIT,
    CandidateBasis,
    EnumerationTooLarge,
    check_codegree_triangular,
    check_degree_triangular,
    default_r_specs,
    enumeration_size,
    verify_pair,
    verify_theorem,
)
from qcluster._linalg import mat_vec
from qcluster.pointed import codegree, degree, dominance_n
from qcluster.qtorus import QTElem, unit_vec
from qcluster.tropical import psi_matrix


def test_enumeration_counts(a2_graph):
    assert len(CandidateBasis(a2_graph, unfrozen_cap=0).by_degree) == 1
    basis1 = CandidateBasis(a2_graph, unfrozen_cap=1)
    # 1, five variables, five compatible pairs
    assert len(basis1.by_degree) == 11
    assert not basis1.conflicts
    basis2 = CandidateBasis(a2_graph, unfrozen_cap=2)
    assert len(basis2.by_degree) == len(basis2.by_codegree)
    assert not basis2.conflicts


@pytest.mark.parametrize("graph_name, cap", [
    ("a2_graph", 2), ("b2_graph", 2), ("pa2_graph", 1), ("a3_graph", 1),
])
def test_enumeration_matches_eager_expansion(graph_name, cap, request):
    graph = request.getfixturevalue(graph_name)
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    by_degree, by_codegree, provenance = oracles.eager_enumeration(graph, cap, 0)
    assert basis.by_degree == by_degree
    assert basis.by_codegree == by_codegree
    assert list(basis.provenance.items()) == list(provenance.items())
    assert not basis.conflicts


def test_enumeration_size(a3_graph, pa2_graph):
    assert len(a3_graph.order) == 14
    assert enumeration_size(a3_graph, 1, 0) == 14 * 2 ** 3
    assert enumeration_size(a3_graph, 3, 5) == 14 * 4 ** 3 * 11 ** 3
    assert enumeration_size(pa2_graph, 1, 1) == len(pa2_graph.order) * 2 ** 2 * 3 ** 2


def test_library_enumeration_is_bounded(a3_graph):
    # 14 * 101**3 (node, m) pairs: refused before anything is keyed
    with pytest.raises(EnumerationTooLarge, match=f"over {ENUMERATION_LIMIT}") as exc:
        CandidateBasis(a3_graph, unfrozen_cap=100)
    assert exc.value.size == enumeration_size(a3_graph, 100, 0) > ENUMERATION_LIMIT
    assert isinstance(exc.value, ValueError)


def test_singular_degree_map_is_refused(a2_graph, monkeypatch):
    real = CandidateBasis._inverse_map
    last = a2_graph.order[-1]

    def singular(self, home_key, torus_key, co):
        return None if home_key == last else real(self, home_key, torus_key, co)

    monkeypatch.setattr(CandidateBasis, "_inverse_map", singular)
    with pytest.raises(RuntimeError, match="singular"):
        CandidateBasis(a2_graph, unfrozen_cap=1)


def test_non_unimodular_degree_map_is_refused(a2_graph, monkeypatch):
    # doubling one variable's degree keeps every cone but gives its node a
    # map of determinant 2, which no cluster's g-vectors have
    real = CandidateBasis._columns
    last = a2_graph.order[-1]

    def doubled(self, home_key, torus_key, co):
        cols = real(self, home_key, torus_key, co)
        if home_key != last:
            return cols
        return (tuple(2 * x for x in cols[0]),) + cols[1:]

    monkeypatch.setattr(CandidateBasis, "_columns", doubled)
    with pytest.raises(RuntimeError, match=re.escape(f"map of node {last} is not unimodular")):
        CandidateBasis(a2_graph, unfrozen_cap=1)


def test_basis_elements_bipointed_and_bar_invariant(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    ref = a2_graph.reference
    for g, nform in basis.by_degree.items():
        elem = nform.expand(ref)
        assert degree(ref, elem) == g
        assert elem.terms[g].is_one()
        eta = codegree(ref, elem)
        assert elem.terms[eta].is_one()
        assert elem.bar() == elem


def test_truncated_graph_rejected(a2_seed):
    from qcluster.expansion import build_exchange_graph

    g = build_exchange_graph(a2_seed, node_cap=2)
    with pytest.raises(ValueError):
        CandidateBasis(g, unfrozen_cap=1)


def test_window_resolution_beyond_cap(a2_graph):
    # cap-1 enumeration still resolves the degree of a cap-2 monomial
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    t0 = a2_graph.order[0]
    seed = a2_graph.nodes[t0].seed
    got = basis.element_at_degree(t0, (2, 1))
    assert got.expand(seed) == QTElem.monomial((2, 1))
    assert basis.element_at_degree(t0, (5, -7)) is not None
    assert basis.element_at_codegree(t0, (0, -1)).expand(seed) == a2_gold("P2")


def _shared_variable(graph, torus):
    """A variable held by two nodes: (its degree in the torus, and for each
    of the two homes in graph order, (home, exponent of the variable))."""
    degs = {key: graph.nodes[key].degs for key in graph.order}
    x = next(d for d in degs[graph.order[-1]]
             if sum(d in row for row in degs.values()) == 2)
    homes = [(key, unit_vec(len(degs[key]), degs[key].index(x)))
             for key in graph.order if x in degs[key]]
    first_home, first_m = homes[0]
    seed = graph.nodes[torus].seed
    return degree(seed, graph.monomial_in(first_home, first_m, torus).expand(seed)), homes


def test_repeated_identity_is_expanded_once(a2_graph, monkeypatch):
    # a variable held by two nodes is one key, expanded once, at the node
    # where the walk ends
    t0 = a2_graph.order[0]
    g, homes = _shared_variable(a2_graph, t0)
    basis = CandidateBasis(a2_graph, unfrozen_cap=0)
    calls = []
    real = a2_graph.monomial_in
    monkeypatch.setattr(a2_graph, "monomial_in", lambda *a: calls.append(a) or real(*a))
    assert basis.element_at_degree(t0, g) is not None
    assert calls == [(*basis._resolved[(t0, g, False)][0], t0)]
    assert calls[0][:2] in homes
    assert not basis.conflicts


def test_degree_triangular_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report = check_degree_triangular(basis, a2_graph.order[0])
    assert report.ok, (report.failures, report.indeterminates)
    assert report.passes == 2 * len(basis.by_degree)


def test_codegree_triangular_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report = check_codegree_triangular(basis, a2_graph.order[0])
    assert report.ok, (report.failures, report.indeterminates)
    assert report.passes == 2 * len(basis.by_degree)


def test_triangular_away_from_reference(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    other = a2_graph.order[3]
    assert check_degree_triangular(basis, other).ok
    assert check_codegree_triangular(basis, other).ok


def test_triangular_with_frozen_vertices(pa2_graph):
    # in every torus: with frozen rows, elements of the wrong torus fail
    basis = CandidateBasis(pa2_graph, unfrozen_cap=1)
    for t_key in pa2_graph.order:
        for check in (check_degree_triangular, check_codegree_triangular):
            report = check(basis, t_key)
            assert report.ok, (report.failures, report.indeterminates)
            assert report.passes == pa2_graph.reference.n * len(basis.by_degree)


def test_triangularity_windows_are_read_off_the_records(a3_graph, monkeypatch):
    # in two tori, each element's window and the codegree columns come
    # from the resolver's records: nothing is measured again
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    monkeypatch.setattr(pointed, "codegree", lambda *a: pytest.fail("codegree measured"))
    for torus in (a3_graph.order[0], a3_graph.order[-1]):
        assert check_degree_triangular(basis, torus).ok
        assert check_codegree_triangular(basis, torus).ok


def test_b2_triangular(b2_graph):
    basis = CandidateBasis(b2_graph, unfrozen_cap=2)
    assert check_degree_triangular(basis, b2_graph.order[0]).ok
    assert check_codegree_triangular(basis, b2_graph.order[0]).ok


def _prov_at_degree(basis, g):
    assert g in basis.provenance
    return basis.provenance[g]


def test_verify_pair_worked_examples(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=3)
    t0 = a2_graph.order[0]
    # X1 * I2: two tails, s=1, h=0, S=P2, H=1, no middle
    v = verify_pair(basis, t0, (1, 0), *_prov_at_degree(basis, (0, -1)))
    assert v.case == "two_tail" and v.passed
    assert (v.s, v.h, v.S, v.H, v.middle) == (1, 0, (1, -1), (0, 0), [])
    # X1 * I1: two tails, s=0, h=-1, S=1, H=X2
    v = verify_pair(basis, t0, (1, 0), *_prov_at_degree(basis, (-1, 0)))
    assert v.case == "two_tail" and v.passed
    assert (v.s, v.h, v.S, v.H) == (0, -1, (0, 0), (0, 1))
    # V = 1 lands in the basis for every variable R
    for r_home, r_m in default_r_specs(a2_graph):
        v = verify_pair(basis, r_home, r_m, *_prov_at_degree(basis, (0, 0)))
        assert v.case == "in_basis" and v.passed


def test_verify_pair_records_n_criterion(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    t0 = a2_graph.order[0]
    v = verify_pair(basis, t0, (1, 0), *_prov_at_degree(basis, (-1, 0)))
    assert v.checks["in_basis_iff_n_zero"]
    # and the criterion is genuinely two-sided: n_1 = 0 here
    v2 = verify_pair(basis, t0, (0, 1), *_prov_at_degree(basis, (1, 0)))
    assert v2.case == "in_basis"
    s = a2_graph.nodes[t0].seed
    z = a2_graph.monomial_in(*_prov_at_degree(basis, (1, 0)), t0).expand(s)
    n = dominance_n(s, codegree(s, z), degree(s, z))
    assert n[s.col(1)] == 0


@pytest.mark.parametrize("graph_name, cap", [
    ("a2_graph", 2), ("b2_graph", 2), ("pa2_graph", 1),
])
def test_lookup_by_degree_returns_v(graph_name, cap, request):
    # V's key in R's torus is psi . m, the element there is V itself, and
    # verify_pair reports V's degree in that torus
    graph = request.getfixturevalue(graph_name)
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    for r_home, r_m in default_r_specs(graph):
        for home, m in basis.provenance.values():
            z = graph.monomial_in(home, m, r_home)
            g = mat_vec(psi_matrix(graph, home, r_home), m)
            assert basis.element_at_degree(r_home, g) == z
            v = verify_pair(basis, r_home, r_m, home, m)
            seed = graph.nodes[r_home].seed
            assert v.v_degree == degree(seed, z.expand(seed))
    assert not basis.conflicts


def test_verify_pair_v_not_found_is_indeterminate(a2_graph, monkeypatch):
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    t0 = a2_graph.order[0]
    v_home, v_m = _prov_at_degree(basis, (1, 0))
    monkeypatch.setattr(basis, "element_at_degree", lambda torus_key, g: None)
    v = verify_pair(basis, t0, (1, 0), v_home, v_m)
    assert v.case == "indeterminate" and not v.passed
    assert v.reason == "factor V is not bipointed in the working torus"
    assert v.v_degree == ()


@pytest.mark.parametrize("graph_name, cap", [("a2_graph", 2), ("pa2_graph", 1)])
def test_sweep_expands_each_monomial_once_per_torus(graph_name, cap, request, monkeypatch):
    graph = request.getfixturevalue(graph_name)
    t0 = graph.order[0]
    specs = [spec for spec in default_r_specs(graph) if spec[0] == t0]
    assert len(specs) >= 2
    calls = []
    real = graph.monomial_in
    monkeypatch.setattr(graph, "monomial_in", lambda *a: calls.append(a) or real(*a))
    report = verify_theorem(CandidateBasis(graph, unfrozen_cap=cap), r_specs=specs)
    assert report.ok and report.counts()["indeterminate"] == 0
    assert len(calls) == len(set(calls))


def test_sweep_measures_each_codegree_once(a3_graph, monkeypatch):
    # each resolved element's codegree is read off the n-form its degree
    # was checked on, and V's eta and every two-tail term's codegree are
    # read from the resolver
    calls = []
    real = pointed.NForm.co_n
    monkeypatch.setattr(pointed.NForm, "co_n",
                        lambda self: calls.append(self) or real(self))
    monkeypatch.setattr(pointed, "codegree", lambda *a: pytest.fail("codegree measured again"))
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    report = verify_theorem(basis)
    assert report.ok and report.counts()["two_tail_pass"] > 0
    assert len(calls) == len(basis._resolved)
    assert all(hit is not None and hit[2] is not None for hit in basis._resolved.values())
    assert len(calls) < sum(len(v.middle) + 2 for v in report.verdicts)


def test_a_sweep_projects_only_to_make_variables_and_check_pairs(monkeypatch):
    # a full A3-principal cap1 sweep, from the graph build on: mutations,
    # products, lookups and decompositions stay in n-coordinates. An
    # exponent is projected only where a variable is made, the two bases of
    # its exchange sum (add), and by verify_pair's own checks on exponents:
    # the two ends of V's n, then for a two-tailed pair top and bottom once
    # each and one end per other decomposition term in each dominance chain
    owners = ("add", "divide", "_intern", "mutate_tracked", "verify_pair", "decompose", "mul",
              "monomial_in", "_resolve", "_walk", "_certify", "_enumerate")
    seen = Counter()
    real = pointed._Projection.project

    def spy(self, m):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in owners:
            frame = frame.f_back
        seen[None if frame is None else frame.f_code.co_name] += 1
        return real(self, m)

    monkeypatch.setattr(pointed._Projection, "project", spy)
    sums = []
    real_add = pointed.add
    monkeypatch.setattr(pointed, "add", lambda *a: sums.append(a) or real_add(*a))
    graph = build_exchange_graph(principal_framing(A3_B))
    report = verify_theorem(CandidateBasis(graph, unfrozen_cap=1))
    assert report.ok and len(report.verdicts) == 540
    assert set(seen) == {"add", "verify_pair"}
    assert seen["add"] == 2 * len(sums) > 0
    assert seen["verify_pair"] == sum(2 + (4 + 2 * len(v.middle) if v.case == "two_tail" else 0)
                                      for v in report.verdicts)


def test_verify_theorem_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report = verify_theorem(basis)
    assert report.ok
    counts = report.counts()
    assert counts["two_tail_fail"] == 0
    assert counts["indeterminate"] == 0
    assert counts["in_basis"] > 0 and counts["two_tail_pass"] > 0
    for v in report.verdicts:
        if v.case == "two_tail":
            assert v.s > v.h
            assert all(v.checks.values()), v.checks


def test_verify_theorem_scope_subset(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    specs = default_r_specs(a2_graph)[:2]
    report = verify_theorem(basis, r_specs=specs)
    assert len(report.verdicts) == 2 * len(basis.by_degree)


def test_two_tail_extremal_coefficients(a2_graph):
    # every two-tail product has coefficient v^s at the top degree and
    # v^h at the bottom codegree, with middles strictly inside
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report = verify_theorem(basis)
    seen_middle = False
    for v in report.verdicts:
        if v.case != "two_tail":
            continue
        assert v.checks["s_matches_lambda"] and v.checks["h_matches_lambda"]
        for _, c in v.middle:
            seen_middle = True
            assert c.in_window(v.h + 1, v.s - 1)
    assert seen_middle


def test_verify_theorem_monomial_r(a2_graph):
    # the product structure holds with R any cluster monomial, not just
    # single variables
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    specs = list(CandidateBasis(a2_graph, unfrozen_cap=1).provenance.values())
    assert len(specs) == 11
    report = verify_theorem(basis, r_specs=specs)
    assert report.ok
    assert report.counts()["two_tail_fail"] == 0
    assert report.counts()["indeterminate"] == 0
    for v in report.verdicts:
        if v.case == "two_tail":
            assert v.s > v.h


def test_frozen_r_always_lands_in_basis(pa2_graph):
    basis = CandidateBasis(pa2_graph, unfrozen_cap=1)
    t0 = pa2_graph.order[0]
    frozen_m = unit_vec(4, 2)
    for g in basis.degree_keys():
        v = verify_pair(basis, t0, frozen_m, *basis.provenance[g])
        assert v.case == "in_basis", (g, v.case, v.reason)
