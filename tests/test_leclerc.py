import re
import sys
from collections import Counter
from itertools import product

import pytest

import oracles
from conftest import (
    A3_B, B3_B, LADDER, a2_gold, assert_matches_eager_enumeration,
    assert_reference_retracked_again, forbid)
from qcluster import ExchangeGraph, build_exchange_graph, expansion, pointed, principal_framing
from qcluster.leclerc import (
    ENUMERATION_LIMIT,
    CandidateBasis,
    EnumerationTooLarge,
    check_triangular,
    default_r_specs,
    enumeration_size,
    verify_pair,
    verify_theorem,
)
from qcluster._linalg import mat_vec
from qcluster.pointed import NForm, codegree, degree, dominance_n
from qcluster.qtorus import QTElem, VCoeff, unit_vec
from qcluster.tropical import detect_shift, psi_matrix


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
    assert_matches_eager_enumeration(basis)
    assert not basis.conflicts


def test_construction_expands_nothing(monkeypatch):
    # the keys come from the variables' n-forms alone: construction
    # resolves no key, walks no fan and certifies no torus
    graph = build_exchange_graph(principal_framing(A3_B))
    _, by_codegree, provenance = oracles.eager_enumeration(graph, 1, 0)
    forbid(monkeypatch, pointed.mul)
    basis = CandidateBasis(graph, unfrozen_cap=1)
    assert list(basis.by_degree.items()) == list(provenance.items())
    assert basis.by_codegree.keys() == by_codegree.keys()
    assert sum(map(len, basis._resolved.values())) == 0
    assert basis.walk_steps == 0
    assert not basis._last_home


def test_a_variable_without_a_codegree_is_refused(a2_graph, monkeypatch):
    # the keys' codegrees add over the variables' codegrees, read off
    # their n-forms: a variable with no codegree term is an internal error
    monkeypatch.setattr(pointed.NForm, "codegree", lambda self, seed: None)
    with pytest.raises(RuntimeError, match="has no codegree in torus"):
        CandidateBasis(a2_graph, unfrozen_cap=1)


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
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    with pytest.raises(RuntimeError, match="singular"):
        basis._certify(a2_graph.order[0], co=False)


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
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    with pytest.raises(RuntimeError, match=re.escape(f"map of node {last} is not unimodular")):
        basis._certify(a2_graph.order[0], co=False)


def test_basis_elements_bipointed_and_bar_invariant(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    ref = a2_graph.reference
    for g in basis.by_degree:
        elem = basis.element_at_degree(a2_graph.order[0], g).expand(ref)
        assert degree(ref, elem) == g
        assert elem.terms[g].is_one()
        eta = codegree(ref, elem)
        assert elem.terms[eta].is_one()
        assert elem.bar() == elem


def test_truncated_graph_rejected(a2_seed, monkeypatch):
    monkeypatch.setattr(expansion, "NODE_CAP", 2)
    g = build_exchange_graph(a2_seed)
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
    # where the walk ends; in a torus other than the reference, where the
    # basis has no record yet
    torus = a2_graph.order[1]
    g, homes = _shared_variable(a2_graph, torus)
    basis = CandidateBasis(a2_graph, unfrozen_cap=0)
    calls = []
    real = a2_graph.monomial_in
    monkeypatch.setattr(a2_graph, "monomial_in", lambda *a: calls.append(a) or real(*a))
    assert basis.element_at_degree(torus, g) is not None
    assert calls == [(*basis._resolved[(torus, False)][g][0], torus)]
    assert calls[0][:2] in homes
    assert not basis.conflicts


def test_degree_triangular_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report = check_triangular(basis, a2_graph.order[0])
    assert report.ok, (report.failures, report.indeterminates)
    assert report.passes == 2 * len(basis.by_degree)


def test_codegree_triangular_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report = check_triangular(basis, a2_graph.order[0], co=True)
    assert report.ok, (report.failures, report.indeterminates)
    assert report.passes == 2 * len(basis.by_degree)


def test_triangular_away_from_reference(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    other = a2_graph.order[3]
    assert check_triangular(basis, other).ok
    assert check_triangular(basis, other, co=True).ok


def test_triangular_with_frozen_vertices(pa2_graph):
    # in every torus: with frozen rows, elements of the wrong torus fail
    basis = CandidateBasis(pa2_graph, unfrozen_cap=1)
    for t_key in pa2_graph.order:
        for co in (False, True):
            report = check_triangular(basis, t_key, co=co)
            assert report.ok, (report.failures, report.indeterminates)
            assert report.passes == pa2_graph.reference.n * len(basis.by_degree)


def test_an_element_off_triangularity_fails_one_product_and_leaves_one_open(a2_graph):
    # the element at degree (-1, -1) given the coefficient 1 + v at n =
    # (1, 0), in the reference torus only: it stays pointed at its degree
    # and keeps its box, but X_1 times it decomposes with a coefficient
    # v^-1 + 1, outside v^-1 Z[v^-1], and X_2 times it has a term outside
    # its window; the other 20 products pass, and another torus is untouched
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    t0, g = a2_graph.order[0], (-1, -1)
    assert basis.element_at_degree(t0, g) is not None
    provenance, elem, eta, box = basis._resolved[(t0, False)][g]
    terms = elem.coeffs()
    terms[(1, 0)] = terms[(1, 0)] + VCoeff.v_power(1)
    perturbed = NForm.of(elem.g, terms)
    assert perturbed.is_pointed() and perturbed.co_n() == box
    basis._resolved[(t0, False)][g] = (provenance, perturbed, eta, box)
    report = check_triangular(basis, t0)
    assert not report.ok and report.passes == 2 * len(basis.by_degree) - 2
    [(label, terms)] = report.failures
    assert label == (g, 0)
    assert [str(c) for _, c in terms] == ["1", "v^-1 + 1", "v^-2"]
    assert report.indeterminates == [((g, 1), "support degree (-1, 3) escapes the window")]
    assert check_triangular(basis, a2_graph.order[3]).ok


def test_triangularity_windows_are_read_off_the_records(a3_graph, monkeypatch):
    # in two tori, each element's window and the codegree columns come
    # from the resolver's records: nothing is measured again
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    monkeypatch.setattr(pointed, "codegree", lambda *a: pytest.fail("codegree measured"))
    for torus in (a3_graph.order[0], a3_graph.order[-1]):
        assert check_triangular(basis, torus).ok
        assert check_triangular(basis, torus, co=True).ok


@pytest.mark.parametrize("co", [False, True], ids=["degree", "codegree"])
def test_forgetting_a_triangularity_checked_torus_leaves_none_of_it(co):
    # check_triangular keeps what it resolves in the torus, the graph's
    # re-trackings, cluster monomials and relation table with the rest,
    # until its caller forgets the torus
    graph = build_exchange_graph(principal_framing(A3_B))
    basis = CandidateBasis(graph, unfrozen_cap=1)
    torus = graph.order[-1]
    assert check_triangular(basis, torus, co=co).ok
    assert torus in graph._relations and torus in _tori_kept(graph, basis)
    basis.forget(torus)
    assert torus not in _tori_kept(graph, basis)


def _tori_kept(graph, basis):
    """Every torus that some store of the graph or the basis keeps an
    entry of."""
    return (set(graph._cross) | set(graph._monomials) | set(graph._relations)
            | {t for t, _ in basis._inv} | {t for t, _ in basis._resolved}
            | {t for t, _ in basis._last_home})


def test_b2_triangular(b2_graph):
    basis = CandidateBasis(b2_graph, unfrozen_cap=2)
    assert check_triangular(basis, b2_graph.order[0]).ok
    assert check_triangular(basis, b2_graph.order[0], co=True).ok


def _prov_at_degree(basis, g):
    assert g in basis.by_degree
    return basis.by_degree[g]


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
        for home, m in basis.by_degree.values():
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
    monkeypatch.setattr(basis, "_resolve", lambda torus_key, g, co: None)
    v = verify_pair(basis, t0, (1, 0), v_home, v_m)
    assert v.case == "indeterminate" and not v.passed
    assert v.reason == "factor V is not bipointed in the working torus"
    assert v.v_degree == ()


def test_verify_pair_with_an_inexact_decomposition_is_indeterminate(a2_graph, monkeypatch):
    # X1 * I2 decomposes over the elements at (1, -1) and (0, 0); with the
    # second hidden from the lookup, its decomposition stops there, and
    # the verdict keeps the checks and extremal exponents made before it
    basis = CandidateBasis(a2_graph, unfrozen_cap=3)
    t0 = a2_graph.order[0]
    real = basis.window_set(t0)
    monkeypatch.setattr(basis, "window_set",
                        lambda torus_key, co=False: lambda g: None if g == (0, 0) else real(g))
    v = verify_pair(basis, t0, (1, 0), *_prov_at_degree(basis, (0, -1)))
    assert v.case == "indeterminate" and not v.passed
    assert v.reason == "no basis element keyed at (0, 0)"
    assert (v.v_degree, v.s, v.h, v.S, v.H, v.middle) == ((0, -1), 1, 0, None, None, [])
    assert v.checks == {"s_matches_lambda": True, "h_matches_lambda": True}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_bar_consistency_matches_the_second_decomposition(name):
    # reading bar-invariance off the expansion's elements gives the value
    # the decomposition of the barred product gave, on every two-tail pair
    make, cap, window = LADDER[name]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    two_tail = 0
    for r_home, r_m in default_r_specs(graph):
        for g in basis.degree_keys():
            v = verify_pair(basis, r_home, r_m, *basis.by_degree[g])
            if v.case == "two_tail":
                two_tail += 1
                assert v.checks["bar_consistency"] == oracles.bar_decomposition_consistency(
                    basis, r_home, r_m, v)
    assert two_tail > 0


def _first_two_tail(basis):
    """(R spec, V provenance, verdict) of the first two-tail pair."""
    for r_home, r_m in default_r_specs(basis.graph):
        for g in basis.degree_keys():
            v = verify_pair(basis, r_home, r_m, *basis.by_degree[g])
            if v.case == "two_tail":
                return (r_home, r_m), basis.by_degree[g], v
    raise AssertionError("no two-tail pair")


def test_an_element_off_bar_invariance_fails_bar_consistency(a3_graph):
    # S' = S + (v - v^-1) H is pointed at S's degree, so the product still
    # decomposes exactly, over S' and H with H's coefficient moved; S' is
    # not its bar, and the barred product no longer expands to the barred
    # coefficients either
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    (r_home, r_m), v_spec, v = _first_two_tail(basis)
    assert v.passed
    t_seed = a3_graph.nodes[r_home].seed
    provenance, s_elem, eta, top = basis._resolved[(r_home, False)][v.S]
    h_elem = basis.element_at_degree(r_home, v.H)
    shift = dominance_n(t_seed, v.H, v.S)
    terms = s_elem.coeffs()
    for n, c in h_elem.coeffs().items():
        n = tuple(a + b for a, b in zip(n, shift))
        terms[n] = terms.get(n, VCoeff.zero()) + c * VCoeff({1: 1, -1: -1})
    perturbed = NForm.of(s_elem.g, {n: c for n, c in terms.items() if c})
    assert perturbed.is_pointed() and perturbed != perturbed.bar()
    basis._resolved[(r_home, False)][v.S] = (provenance, perturbed, eta, top)
    w = verify_pair(basis, r_home, r_m, *v_spec)
    assert w.case == "two_tail" and (w.S, w.H) == (v.S, v.H)
    assert not w.checks["bar_consistency"] and not w.checks["h_coefficient"]
    assert not oracles.bar_decomposition_consistency(basis, r_home, r_m, w)


def test_each_pair_is_decomposed_once(a3_graph, monkeypatch):
    calls = []
    real = pointed.decompose
    monkeypatch.setattr(pointed, "decompose", lambda *a: calls.append(a) or real(*a))
    report, verdicts = oracles.sweep(CandidateBasis(a3_graph, unfrozen_cap=1))
    assert report.ok and report.counts()["two_tail_pass"] > 0
    # an indeterminate verdict with no V degree stopped before decomposing
    assert len(calls) == sum(v.v_degree != () for v in verdicts) == 540


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
    monkeypatch.setattr(pointed, "codegree", lambda *a: pytest.fail("codegree measured again"))
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)  # its codegree columns read co_n
    monkeypatch.setattr(pointed.NForm, "co_n",
                        lambda self: calls.append(self) or real(self))
    records, forget = [], basis.forget  # each torus's, as the sweep forgets it
    monkeypatch.setattr(basis, "forget",
                        lambda torus: records.extend(hit for side in basis._resolved.values()
                                                     for hit in side.values()) or forget(torus))
    report, verdicts = oracles.sweep(basis)
    assert report.ok and report.counts()["two_tail_pass"] > 0
    assert len(calls) == len(records)
    assert all(hit is not None and hit[2] is not None for hit in records)
    assert len(calls) < sum(len(v.middle) + 2 for v in verdicts)


def test_a_sweep_projects_only_to_make_variables_and_check_pairs(monkeypatch):
    # a full A3-principal cap1 sweep, from the graph build on: mutations,
    # products, lookups and decompositions stay in n-coordinates. Dominance
    # is tested only where a variable is made, once or twice on the two
    # bases of its exchange sum (add), and by verify_pair's own checks on
    # exponents: none for V's n, which is read off V's record, then for a
    # two-tailed pair one test per term other than the chain's own end in
    # each dominance chain
    owners = ("add", "divide", "_intern", "mutate_tracked", "verify_pair", "decompose", "mul",
              "monomial_in", "_resolve", "_walk", "_certify", "_enumerate")
    seen = Counter()
    real = pointed.dominance_n

    def spy(seed, gp, g):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in owners:
            frame = frame.f_back
        seen[None if frame is None else frame.f_code.co_name] += 1
        return real(seed, gp, g)

    monkeypatch.setattr(pointed, "dominance_n", spy)
    per_add = []
    real_add = pointed.add

    def counted_add(*a):
        before = seen["add"]
        out = real_add(*a)
        per_add.append(seen["add"] - before)
        return out

    monkeypatch.setattr(pointed, "add", counted_add)
    graph = build_exchange_graph(principal_framing(A3_B))
    report, verdicts = oracles.sweep(CandidateBasis(graph, unfrozen_cap=1))
    assert report.ok and len(verdicts) == 540
    assert set(seen) == {"add", "verify_pair"}
    assert per_add and set(per_add) <= {1, 2}
    assert seen["verify_pair"] == sum(2 + 2 * len(v.middle) if v.case == "two_tail" else 0
                                      for v in verdicts)


@pytest.mark.parametrize("name", ["a3p-cap1", "frozen-cap2-w1"])
def test_a_sweep_forgets_every_torus_it_leaves(name, monkeypatch):
    # no store keeps a key of any torus, the reference included, which is
    # re-entered like any other (one mutation per node but its own); each
    # torus left had a relation table and kept products (exchange
    # monomials among them) to drop; a second sweep re-enters every torus
    # and gives the same verdicts
    make, cap, window = LADDER[name]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    left, real_forget = [], graph.forget

    def forgetting(torus):
        products = [i for i in graph._monomials.get(torus, ()) if len(i) > 1 or i[0][1] > 1]
        left.append((torus, len(graph._relations.get(torus, ())), len(products)))
        real_forget(torus)

    monkeypatch.setattr(graph, "forget", forgetting)
    first, first_verdicts = oracles.sweep(basis)
    assert len({v.r_spec[0] for v in first_verdicts}) > 1
    assert [torus for torus, _, _ in left] == sorted({v.r_spec[0] for v in first_verdicts},
                                                     key=graph.order.index)
    assert all(table and products for _, table, products in left)
    assert not _tori_kept(graph, basis)
    assert_reference_retracked_again(graph, monkeypatch)
    second, second_verdicts = oracles.sweep(basis)
    assert first.ok and second.counts() == first.counts()
    assert second_verdicts == first_verdicts


def test_a_second_pass_in_the_reference_torus_interns_nothing(monkeypatch):
    # the reference torus keeps its re-trackings like any other torus:
    # after one pass over the pairs whose R is at home there, a second
    # pass, with no forget in between, reads every variable back and
    # interns none
    make, cap, window = LADDER["a3p-cap1"]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    t0 = graph.order[0]
    pairs = [(r_home, r_m, *basis.by_degree[g]) for r_home, r_m in default_r_specs(graph)
             if r_home == t0 for g in basis.degree_keys()]
    first = [verify_pair(basis, *pair) for pair in pairs]
    calls, real = [], ExchangeGraph._intern
    monkeypatch.setattr(ExchangeGraph, "_intern", lambda *a: calls.append(a) or real(*a))
    assert [verify_pair(basis, *pair) for pair in pairs] == first
    assert len(pairs) == 270 and calls == []


@pytest.mark.parametrize("name", ["a2-cap3", "frozen-cap2-w1", "a3p-cap1"])
def test_a_skew_symmetric_sweep_has_no_negative_digit(name):
    # the skew-symmetric ladder rungs, full sweeps: the element of every
    # record made in a torus, read before forget drops it, and every
    # middle coefficient have nonnegative digits
    make, cap, window = LADDER[name]
    basis = CandidateBasis(build_exchange_graph(make()), unfrozen_cap=cap, frozen_window=window)
    counts = oracles.sweep_positivity(basis)
    assert counts["record_negatives"] == counts["middle_negatives"] == 0
    assert counts["records"] > 0 and counts["middles"] > 0


def test_a_planted_negative_digit_fails_the_positivity_check(monkeypatch):
    # one record of the first torus gets one coefficient negated after the
    # torus's last pair, before the sweep leaves it: the check counts
    # exactly that coefficient's digits
    make, cap, window = LADDER["a3p-cap1"]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    t0 = graph.order[0]
    last = sum(r_home == t0 for r_home, _ in default_r_specs(graph)) * len(basis.by_degree)
    calls, planted, real = [], [], oracles.verify_pair

    def planting(basis, r_home, *pair):
        verdict = real(basis, r_home, *pair)
        calls.append(r_home)
        if len(calls) == last:
            records = basis._resolved[(r_home, False)]
            g, hit = next((g, hit) for g, hit in records.items()
                          if hit is not None and len(hit[1].terms) > 1)
            coeffs = hit[1].coeffs()
            n = max(coeffs)  # not the pivot, n = 0
            coeffs[n] = -coeffs[n]
            records[g] = (hit[0], NForm.of(hit[1].g, coeffs)) + hit[2:]
            planted.append(len(coeffs[n].items()))
        return verdict

    monkeypatch.setattr(oracles, "verify_pair", planting)
    counts = oracles.sweep_positivity(basis)
    assert set(calls[:last]) == {t0} and calls[last] != t0
    assert planted and counts["record_negatives"] == planted[0] > 0
    assert counts["middle_negatives"] == 0


def test_verify_theorem_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    report, verdicts = oracles.sweep(basis)
    assert report.ok
    counts = report.counts()
    assert counts["two_tail_fail"] == 0
    assert counts["indeterminate"] == 0
    assert counts["in_basis"] > 0 and counts["two_tail_pass"] > 0
    for v in verdicts:
        if v.case == "two_tail":
            assert v.s > v.h
            assert all(v.checks.values()), v.checks


def test_a_clean_sweep_holds_no_verdict():
    # the report keeps the tally, the verdicts that did not pass and the
    # conflicts, so a clean A3-principal cap1 sweep's holds no verdict;
    # its counts are the tally of the 540 verdicts its sink received, and
    # those are the report-order sweep's, in order
    graph = build_exchange_graph(principal_framing(A3_B))
    report, verdicts = oracles.sweep(CandidateBasis(graph, unfrozen_cap=1))
    assert tuple(report) == (report.counts(), [], [])
    tally = Counter(v.case if v.case != "two_tail" else
                    "two_tail_pass" if v.passed else "two_tail_fail" for v in verdicts)
    assert report.counts() == {case: tally[case] for case in report.counts()}
    assert list(report.counts()) == ["in_basis", "two_tail_pass", "two_tail_fail",
                                     "indeterminate"]
    assert len(verdicts) == 540 and report.ok
    assert verdicts == oracles.report_order_verdicts(CandidateBasis(graph, unfrozen_cap=1))


def test_records_are_immutable(a2_graph):
    # a verdict, a decomposition, a shift witness and both reports refuse
    # a field assignment: a record is built once and handed out as is
    t0 = a2_graph.order[0]
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    report, verdicts = oracles.sweep(basis)
    seed = a2_graph.nodes[t0].seed
    x = a2_graph.nodes[t0].vars[0]
    records = [
        (verdicts[0], "checks"),
        (pointed.decompose(seed, x, {x.g: x}.get, (0,) * seed.n), "terms"),
        (detect_shift(a2_graph, t0, 1), "sigma"),
        (report, "tally"),
        (check_triangular(basis, t0), "passes"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_verify_theorem_scope_subset(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    specs = default_r_specs(a2_graph)[:2]
    report, verdicts = oracles.sweep(basis, specs)
    assert len(verdicts) == sum(report.counts().values()) == 2 * len(basis.by_degree)


def test_two_tail_extremal_coefficients(a2_graph):
    # every two-tail product has coefficient v^s at the top degree and
    # v^h at the bottom codegree, with middles strictly inside
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    _, verdicts = oracles.sweep(basis)
    seen_middle = False
    for v in verdicts:
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
    specs = list(CandidateBasis(a2_graph, unfrozen_cap=1).by_degree.values())
    assert len(specs) == 11
    report, verdicts = oracles.sweep(basis, specs)
    assert report.ok
    assert report.counts()["two_tail_fail"] == 0
    assert report.counts()["indeterminate"] == 0
    for v in verdicts:
        if v.case == "two_tail":
            assert v.s > v.h


def test_frozen_r_always_lands_in_basis(pa2_graph):
    basis = CandidateBasis(pa2_graph, unfrozen_cap=1)
    t0 = pa2_graph.order[0]
    frozen_m = unit_vec(4, 2)
    for g in basis.degree_keys():
        v = verify_pair(basis, t0, frozen_m, *basis.by_degree[g])
        assert v.case == "in_basis", (g, v.case, v.reason)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_v_codegree_n_is_read_off_its_record(name, monkeypatch):
    # on every pair of the rung's sweep, V's n below its degree, as
    # verify_pair reads it off V's record, is the dominance n of V's
    # codegree below its degree. Every record read, on either side, keeps
    # the n its codegree was read from: the element's co_n, scanned once,
    # and so also its lexicographically largest n; and its codegree is
    # the element's codegree in the torus
    make, cap, window = LADDER[name]
    basis = CandidateBasis(build_exchange_graph(make()), unfrozen_cap=cap,
                           frozen_window=window)
    seen = set()
    real = basis._resolve

    def checked(torus_key, g, co):
        record = real(torus_key, g, co)
        if record is not None:
            _, elem, eta, n = record
            seed = basis.graph.nodes[torus_key].seed
            assert n == elem.co_n() == max(elem.terms)
            assert eta == elem.codegree(seed)
            if not co:
                assert n == dominance_n(seed, eta, g) is not None
                seen.add((torus_key, g))
        return record

    monkeypatch.setattr(basis, "_resolve", checked)
    report, verdicts = oracles.sweep(basis)
    assert report.ok
    assert all((v.r_spec[0], v.v_degree) in seen for v in verdicts)
    assert sum(v.v_degree != () for v in verdicts) == len(verdicts)


def test_verify_pair_reads_each_record_once(a3_graph, monkeypatch):
    # V's element, codegree and n come from one read of V's record, and
    # each decomposition term's codegree and bar flag from one read of its
    # own, next to the read decompose's lookup makes
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    (r_home, r_m), v_spec, v = _first_two_tail(basis)
    reads = Counter()
    real = basis._resolve

    def counted(torus_key, g, co):
        reads[(torus_key, g, co)] += 1
        return real(torus_key, g, co)

    monkeypatch.setattr(basis, "_resolve", counted)
    assert verify_pair(basis, r_home, r_m, *v_spec) == v
    assert v.case == "two_tail" and v.H is not None
    assert reads[(r_home, v.v_degree, False)] == 1
    terms = [v.S, v.H] + [g for g, _ in v.middle]
    assert v.v_degree not in terms
    assert all(reads[(r_home, g, False)] == 2 for g in terms)


def test_bar_invariance_is_computed_once_per_element(monkeypatch):
    # bar_consistency reads each element's cached flag: an element's
    # coefficients are barred on its first read only (a graph of its own,
    # whose elements no other sweep has read)
    barred, read = [], {}
    real, real_read = pointed._bar, NForm.is_bar_invariant
    monkeypatch.setattr(pointed, "_bar", lambda c: barred.append(c) or real(c))
    monkeypatch.setattr(NForm, "is_bar_invariant",
                        lambda self: read.setdefault(id(self), self) and real_read(self))
    report, verdicts = oracles.sweep(
        CandidateBasis(build_exchange_graph(principal_framing(A3_B)), unfrozen_cap=1))
    assert report.ok and report.counts()["two_tail_pass"] > 0
    first = len(barred)
    assert first == sum(len(e.terms) for e in read.values()) > 0
    assert sum(len(v.middle) + 2 for v in verdicts if v.case == "two_tail") > len(read)
    elem = NForm.of((0,) * 6, {(0, 0, 0): VCoeff.one(), (1, 0, 0): VCoeff({-1: 1, 1: 1})})
    assert elem.is_bar_invariant() and len(barred) == first + 2
    assert elem.is_bar_invariant() and len(barred) == first + 2


@pytest.mark.parametrize("name", ["a3p-cap1", "frozen-cap2-w1"])
def test_v_degrees_match_the_degree_map(name):
    # every V degree verify_pair forms, summing the degrees of V's home's
    # variables in R's torus over v_m (exponents of 2, and negative frozen
    # ones, on the frozen rung), is psi_matrix(v_home, r_home) v_m
    make, cap, window = LADDER[name]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    for r_home, r_m in default_r_specs(graph):
        for v_home, v_m in basis.by_degree.values():
            v = verify_pair(basis, r_home, r_m, v_home, v_m)
            assert v.v_degree == mat_vec(psi_matrix(graph, v_home, r_home), v_m), (
                r_home, r_m, v_home, v_m)


# the ladder-small rungs at their benchmark options, and B3-principal cap1
COMMON_NODE_RUNGS = {**LADDER, "b3p-cap1": (lambda: principal_framing(B3_B), 1, 0)}


def _keyed_sweep(name):
    make, cap, window = COMMON_NODE_RUNGS[name]
    basis = CandidateBasis(build_exchange_graph(make()), unfrozen_cap=cap,
                           frozen_window=window)
    return basis, list(oracles.keyed_verdicts(basis))


@pytest.mark.parametrize("name", sorted(COMMON_NODE_RUNGS))
def test_verdict_cases_match_the_common_node_oracle(name):
    # in_basis exactly when some node holds R and every factor of V
    # (2,706 pairs over the six rungs), and never indeterminate
    basis, keyed = _keyed_sweep(name)
    assert len(keyed) == len(default_r_specs(basis.graph)) * len(basis.by_degree)
    assert {v.case for _, _, v in keyed} == {"in_basis", "two_tail"}
    assert oracles.common_node_mismatches(basis, keyed) == []


def test_a_tampered_verdict_case_fails_the_common_node_oracle():
    basis, keyed = _keyed_sweep("a2-cap3")
    for i, (r_spec, g, v) in enumerate(keyed):
        flipped = "two_tail" if v.case == "in_basis" else "in_basis"
        tampered = keyed[:i] + [(r_spec, g, v._replace(case=flipped))] + keyed[i + 1:]
        assert oracles.common_node_mismatches(basis, tampered) == [
            (r_spec, g, flipped, v.case)]


def test_two_tail_middles_match_the_exchange_partner_oracle():
    # on A3-principal cap1 a two-tail product has an empty middle exactly
    # when V has one factor no node holds with R, of exponent 1, that an
    # edge swaps R with (219 two-tail pairs; the rule fails on B2, G2,
    # B3-principal cap1 and A3-principal cap2, so it is not asserted there)
    basis, keyed = _keyed_sweep("a3p-cap1")
    two_tail = [v for _, _, v in keyed if v.case == "two_tail"]
    assert len(two_tail) == 219
    assert {bool(v.middle) for v in two_tail} == {False, True}
    assert oracles.empty_middle_mismatches(basis, keyed) == []


def test_a_tampered_middle_fails_the_exchange_partner_oracle():
    basis, keyed = _keyed_sweep("a3p-cap1")
    some = next(v.middle for _, _, v in keyed if v.middle)
    for empty in (True, False):
        # fill the first empty middle, or empty the first nonempty one
        i = next(i for i, (_, _, v) in enumerate(keyed)
                 if v.case == "two_tail" and (not v.middle) == empty)
        r_spec, g, v = keyed[i]
        flipped = v._replace(middle=some if empty else ())
        tampered = keyed[:i] + [(r_spec, g, flipped)] + keyed[i + 1:]
        assert oracles.empty_middle_mismatches(basis, tampered) == [(r_spec, g, not empty, empty)]
