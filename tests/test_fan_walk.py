"""The fan walk of CandidateBasis against the scan over every node."""
import dataclasses
import json

import pytest

import oracles
from conftest import A2_B, A2_LAMBDA, A3_B, B2_B, B2_LAMBDA
from qcluster import cli, make_seed, principal_framing
from qcluster.expansion import build_exchange_graph
from qcluster.leclerc import (
    CandidateBasis,
    check_codegree_triangular,
    check_degree_triangular,
    verify_theorem,
)
from qcluster.qtorus import QTElem

LADDER = {
    "a2-cap3": (lambda: make_seed(A2_B, A2_LAMBDA), 3, 0),
    "b2-cap2": (lambda: make_seed(B2_B, B2_LAMBDA), 2, 0),
    "g2-cap1": (lambda: make_seed(((0, -3), (1, 0))), 1, 0),
    "frozen-cap2-w1": (lambda: make_seed(((0, -1), (1, 0), (1, 1)), unfrozen=(0, 1)), 2, 1),
    "a3p-cap1": (lambda: principal_framing(A3_B), 1, 0),
}


def _swept_basis(name):
    """The rung's basis after its full sweep, and a codegree-side
    triangularity check in two tori."""
    make, cap, window = LADDER[name]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    assert verify_theorem(basis).ok
    for torus in (graph.order[0], graph.order[-1]):
        assert check_codegree_triangular(basis, torus).ok
    return basis


@pytest.mark.parametrize("name", sorted(LADDER))
def test_walk_matches_scan_on_every_ladder_key(name):
    basis = _swept_basis(name)
    keys = [(t, g, False) for t, g in basis._resolved] + [
        (t, g, True) for t, g in basis._resolved_co]
    assert any(co for _, _, co in keys) and len(keys) > len(basis.by_degree)
    for torus, g, co in keys:
        cache = basis._resolved_co if co else basis._resolved
        del cache[(torus, g)]
        before = len(basis.conflicts)
        got = basis._resolve(torus, g, co)
        found, conflicts = oracles.scan_resolve(basis, torus, g, co)
        assert got == found, (torus, g, co)
        assert basis.conflicts[before:] == conflicts
    assert not basis.conflicts


def test_inverse_map_reads_per_key_are_bounded(a3_graph, monkeypatch):
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    torus = a3_graph.order[-1]
    basis._certify(torus, co=False)
    basis._certify(torus, co=True)
    reads = []
    real = CandidateBasis._inverse_map
    monkeypatch.setattr(CandidateBasis, "_inverse_map",
                        lambda self, *a: reads.append(a) or real(self, *a))
    passed = []
    real_same = CandidateBasis._same_factors
    monkeypatch.setattr(CandidateBasis, "_same_factors",
                        lambda self, *a: passed.append(real_same(self, *a)) or passed[-1])
    steps, homes = basis.walk_steps, basis.face_homes
    assert check_degree_triangular(basis, torus).ok
    assert check_codegree_triangular(basis, torus).ok
    new_keys = sum(t == torus for t, _ in basis._resolved) + sum(
        t == torus for t, _ in basis._resolved_co)
    steps, homes = basis.walk_steps - steps, basis.face_homes - homes
    # one read per node the walk visits, and one per face home that is not
    # passed over by identity: only each key's first home, here
    slow = homes - sum(passed)
    assert new_keys > 0 and steps > 0 and homes > new_keys
    assert slow == new_keys
    assert len(reads) <= steps + new_keys + slow
    assert homes < new_keys * len(a3_graph.order)


def test_planted_duplicate_home_is_a_conflict(a2_graph):
    # a copy of the last node whose first variable, re-tracked into the
    # torus, is off by a power of v: every key on that variable's ray has
    # the copy among its face homes, and the factors differ
    graph = build_exchange_graph(a2_graph.reference)
    t0 = graph.order[0]
    last = graph.order[-1]
    dup = ("planted",) + last
    graph.nodes[dup] = graph.nodes[last]
    graph.order.append(dup)
    ts = graph.tracked_in(last, t0)
    graph._cross[(dup, t0)] = dataclasses.replace(
        ts, vars=(ts.vars[0].vshift(1),) + ts.vars[1:])
    basis = CandidateBasis(graph, unfrozen_cap=1)
    g = ts.degs[0]
    basis._resolved.pop((t0, g), None)
    del basis.conflicts[:]
    found = basis._resolve(t0, g, co=False)
    want_found, want_conflicts = oracles.scan_resolve(basis, t0, g, co=False)
    assert found == want_found
    assert basis.conflicts == want_conflicts
    assert [c[:2] + (c[3][0],) for c in basis.conflicts] == [("degree", g, dup)]


def _copy(x):
    return QTElem(x.dim, dict(x.terms))


def _skew(x):
    return x.vshift(1)


@pytest.mark.parametrize("factor", ["unfrozen", "frozen"])
@pytest.mark.parametrize("plant, conflict", [(_copy, False), (_skew, True)],
                         ids=["equal-copy", "skewed"])
def test_interned_factors_keep_conflicts(factor, plant, conflict, monkeypatch):
    # a key x * f in a non-reference torus, x an unfrozen variable held by
    # several nodes and f frozen; the last of its face homes holds, in
    # place of one factor, an equal object that is not the torus's table
    # entry, or one off by a power of v. That home alone takes the
    # per-home checks, and the lookup records what the scan over every
    # node records.
    graph = build_exchange_graph(principal_framing(A3_B))
    basis = CandidateBasis(graph, unfrozen_cap=0)
    torus = graph.order[-1]
    basis._certify(torus, co=False)
    degs = graph.nodes[torus].degs
    unfrozen = graph.reference.unfrozen
    i = max(unfrozen, key=lambda i: len(basis._holders[degs[i]]))
    f = next(k for k in range(graph.reference.n) if k not in unfrozen)
    # the torus's own variables have unit degrees there
    g = tuple(int(k in (i, f)) for k in range(graph.reference.n))
    homes = basis._face_homes(*basis._walk(torus, g, co=False))
    assert len(homes) >= 3
    last = homes[-1]
    j = basis._holders[degs[i if factor == "unfrozen" else f]][last]
    ts = graph.tracked_in(last, torus)
    planted = plant(ts.vars[j])
    assert planted is not ts.vars[j] and (planted == ts.vars[j]) != conflict
    graph._cross[(last, torus)] = dataclasses.replace(
        ts, vars=ts.vars[:j] + (planted,) + ts.vars[j + 1:])
    assert not basis.conflicts
    compared = []
    real = CandidateBasis._factors
    monkeypatch.setattr(CandidateBasis, "_factors",
                        lambda self, home, *a: compared.append(home) or real(self, home, *a))
    found = basis.element_at_degree(torus, g)
    assert set(compared) == {homes[0], last}
    want_found, want_conflicts = oracles.scan_resolve(basis, torus, g, co=False)
    assert found == want_found[1]
    assert basis.conflicts == want_conflicts
    assert [c[3][0] for c in basis.conflicts] == ([last] if conflict else [])


@pytest.fixture
def a3p_file(tmp_path):
    p = tmp_path / "a3p.json"
    p.write_text(json.dumps({"n": 6, "unfrozen": [1, 2, 3], "B": [
        [0, -1, 0], [1, 0, -1], [0, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    return str(p)


def test_tampered_edge_fails_the_certificate(a3p_file, monkeypatch, capsys):
    # the first node's first two edges trade targets: each new variable
    # then lies across the other wall, where its lambda is >= 0
    real = cli.build_exchange_graph

    def tampered(seed, node_cap):
        graph = real(seed, node_cap=node_cap)
        (a, k, b), (a2, k2, b2) = graph.edges[:2]
        assert a == a2 and k != k2
        graph.edges[:2] = [(a, k, b2), (a, k2, b)]
        return graph

    monkeypatch.setattr(cli, "build_exchange_graph", tampered)
    assert cli.main(["leclerc", a3p_file, "--cap", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: degree fan certificate fails")


def test_overlapping_cones_fail_the_certificate(a2_graph, monkeypatch):
    # a node whose degree map is the first node's covers the first cone
    # twice; with no edges to check, the covering test alone refuses it
    graph = build_exchange_graph(a2_graph.reference)
    graph.edges.clear()
    real = CandidateBasis._inverse_map
    t0, other = graph.order[0], graph.order[2]

    def overlapping(self, home_key, torus_key, co):
        return real(self, t0 if home_key == other else home_key, torus_key, co)

    monkeypatch.setattr(CandidateBasis, "_inverse_map", overlapping)
    with pytest.raises(RuntimeError, match="fan certificate fails .* lies in 2 cones"):
        CandidateBasis(graph, unfrozen_cap=1)


def test_walk_longer_than_the_graph_is_an_error(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=0)
    t0 = a2_graph.order[0]
    # every wall leads back to the torus's own node: the walk never ends
    basis._walls = {(a, k): (t0, j) for (a, k), (_, j) in basis._walls.items()}
    with pytest.raises(RuntimeError, match="longer than 5 nodes"):
        basis.element_at_degree(t0, (-1, 0))
