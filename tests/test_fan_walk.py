"""The fan walk of CandidateBasis against the scan over every node."""
import json
import pathlib
import random
import re

import pytest

import oracles
from conftest import A3_B, D4_B, LADDER
from qcluster import _linalg, cli, expansion, principal_framing
from qcluster.expansion import build_exchange_graph
from qcluster.leclerc import CandidateBasis, check_triangular, verify_theorem
from qcluster.pointed import NForm
from qcluster.qtorus import VCoeff, unit_vec

DATA = pathlib.Path(__file__).parent / "data"


def _swept_basis(name):
    """The rung's basis after its full sweep, with the records of every
    torus the sweep forgot put back, and a codegree-side triangularity
    check in two tori."""
    make, cap, window = LADDER[name]
    graph = build_exchange_graph(make())
    basis = CandidateBasis(graph, unfrozen_cap=cap, frozen_window=window)
    kept, real = {}, basis.forget
    basis.forget = lambda torus: kept.update(basis._resolved) or real(torus)
    assert verify_theorem(basis).ok
    basis._resolved.update(kept)
    for torus in (graph.order[0], graph.order[-1]):
        assert check_triangular(basis, torus, co=True).ok
    return basis


@pytest.mark.parametrize("name", sorted(LADDER))
def test_walk_matches_scan_on_every_ladder_key(name):
    # the element found where the walk ends is the scan's, whose first
    # home may be another node of the face; the scan records no conflict
    basis = _swept_basis(name)
    keys = [(torus, g, co) for (torus, co), records in basis._resolved.items() for g in records]
    assert any(co for _, _, co in keys) and len(keys) > len(basis.by_degree)
    for torus, g, co in keys:
        del basis._resolved[(torus, co)][g]
        got = basis._resolve(torus, g, co)
        found, conflicts = oracles.scan_resolve(basis, torus, g, co)
        assert got[1] == found[1], (torus, g, co)
        assert not conflicts
    assert not basis.conflicts


def test_inverse_map_reads_per_key_are_bounded(a3_graph, monkeypatch):
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    torus = a3_graph.order[-1]
    basis._certify(torus, co=False)
    basis._certify(torus, co=True)
    # the certificates resolve nothing: every key below is a walk's
    keys = len(basis._resolved[(torus, False)]) + len(basis._resolved[(torus, True)])
    reads = []
    real = CandidateBasis._inverse_map
    monkeypatch.setattr(CandidateBasis, "_inverse_map",
                        lambda self, *a: reads.append(a) or real(self, *a))
    steps = basis.walk_steps
    assert check_triangular(basis, torus).ok
    assert check_triangular(basis, torus, co=True).ok
    new_keys = len(basis._resolved[(torus, False)]) + len(basis._resolved[(torus, True)]) - keys
    steps = basis.walk_steps - steps
    # one read per node the walk visits: one per step, and the node it ends at
    assert new_keys > 0 and steps > 0
    assert len(reads) == steps + new_keys


def _rung_graph(name):
    if name == "b3p-cap1":
        return build_exchange_graph(cli.load_seed(str(DATA / "b3p.json"))[0]), 1
    make, cap, window = LADDER[name]
    return build_exchange_graph(make()), cap


@pytest.mark.parametrize("name", sorted(LADDER) + ["b3p-cap1"])
def test_inverse_maps_by_exchange_update_match_inversion(name):
    # every (node, torus, side), each torus's maps requested in graph
    # order, so that most are updated from a neighbour's
    graph, cap = _rung_graph(name)
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    for torus in graph.order:
        for co in (False, True):
            for key in graph.order:
                want = _linalg.invert(_linalg.transpose(basis._columns(key, torus, co)))
                assert want is not None
                assert basis._inverse_map(key, torus, co) == want, (key, torus, co)


@pytest.mark.parametrize("name", sorted(LADDER) + ["b3p-cap1"])
def test_columns_read_off_the_n_forms_match_the_records(name):
    # every (node, torus, side): a variable's codegree read off its n-form
    # in the torus is the one its degree-side record gives
    graph, cap = _rung_graph(name)
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    for torus in graph.order:
        for co in (False, True):
            for key in graph.order:
                want = oracles.record_columns(basis, key, torus, co)
                assert None not in want
                assert basis._columns(key, torus, co) == want, (key, torus, co)
        basis.forget(torus)


@pytest.mark.parametrize("principal", [A3_B, D4_B], ids=["A3p", "D4p"])
@pytest.mark.parametrize("co", [False, True], ids=["degree", "codegree"])
@pytest.mark.parametrize("order", ["discovery", "reverse", "shuffled"])
def test_each_inverse_map_costs_one_exchange_update(principal, co, order, monkeypatch):
    # the inverse maps' twin of test_each_retracked_pair_costs_one_mutation:
    # whatever the request order, each node's map in one deep torus is
    # built once, by one exchange update from a neighbour's, except the
    # torus's own node's, the one inversion; each equals a direct inversion
    graph = build_exchange_graph(principal_framing(principal))
    basis = CandidateBasis(graph, unfrozen_cap=1)
    torus = max(graph.order, key=lambda key: len(graph.nodes[key].path))
    assert len(graph.nodes[torus].path) >= 2
    homes = list(graph.order if order == "discovery" else reversed(graph.order))
    if order == "shuffled":
        random.Random(5).shuffle(homes)
    # the columns first: on the codegree side they are the degree side's
    # records, whose walks build the degree side's maps
    want = {home: _linalg.invert(_linalg.transpose(basis._columns(home, torus, co)))
            for home in homes}
    assert (torus, co) not in basis._inv
    inverted, updated = [], []
    real_invert, real_update = _linalg.invert, CandidateBasis._exchange_update

    def update(self, prev_key, key, k, torus_key, side):
        inv = real_update(self, prev_key, key, k, torus_key, side)
        assert inv == want[key], key
        updated.append(key)
        return inv

    monkeypatch.setattr(_linalg, "invert", lambda mat: inverted.append(mat) or real_invert(mat))
    monkeypatch.setattr(CandidateBasis, "_exchange_update", update)
    for home in homes:
        assert basis._inverse_map(home, torus, co) == want[home], home
    assert inverted == [_linalg.transpose(basis._columns(torus, torus, co))]
    # len(order) - 1 updates: every node but the torus's, each once
    assert sorted(updated) == sorted(set(graph.order) - {torus})


def test_entering_a_torus_inverts_once_per_side(a3_graph, monkeypatch):
    # one Smith diagonalization per (torus, side), at the torus's own
    # node; building the basis certified no torus
    basis = CandidateBasis(a3_graph, unfrozen_cap=1)
    calls = []
    real = _linalg.invert
    monkeypatch.setattr(_linalg, "invert", lambda mat: calls.append(mat) or real(mat))
    for torus in a3_graph.order:
        for co in (False, True):
            before = len(calls)
            basis._certify(torus, co)
            assert len(calls) == before + 1, (torus, co)
            assert calls[-1] == _linalg.transpose(basis._columns(torus, torus, co))


def test_an_exchange_pivot_of_two_gives_none(a2_graph, monkeypatch):
    # the last node's exchanged column doubled: lambda_k = +-2 in its
    # neighbour's coordinates, det M = +-2, and the update refuses it
    # without inverting
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    torus, home = a2_graph.order[0], a2_graph.order[-1]
    k, neighbour = a2_graph.step_toward(home, torus)
    assert neighbour != torus
    real = CandidateBasis._columns

    def doubled(self, home_key, torus_key, co):
        cols = real(self, home_key, torus_key, co)
        if home_key != home:
            return cols
        return cols[:k] + (tuple(2 * x for x in cols[k]),) + cols[k + 1:]

    monkeypatch.setattr(CandidateBasis, "_columns", doubled)
    column = doubled(basis, home, torus, True)[k]
    lam = _linalg.mat_vec(basis._inverse_map(neighbour, torus, True), column)
    assert lam[k] in (2, -2)
    monkeypatch.setattr(_linalg, "invert", lambda mat: pytest.fail("inverted"))
    assert basis._inverse_map(home, torus, True) is None


def test_columns_that_differ_off_the_exchanged_vertex_are_an_internal_error(a2_graph,
                                                                            monkeypatch):
    # a node's columns are its neighbour's but for the exchanged one; any
    # other difference is a broken re-tracking, raised, never inverted
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    torus, home = a2_graph.order[0], a2_graph.order[-1]
    k, neighbour = a2_graph.step_toward(home, torus)
    assert basis._inverse_map(neighbour, torus, True) is not None
    j = next(j for j in a2_graph.reference.unfrozen if j != k)
    real = CandidateBasis._columns

    def moved(self, home_key, torus_key, co):
        cols = real(self, home_key, torus_key, co)
        if home_key != home:
            return cols
        return cols[:j] + (tuple(-x for x in cols[j]),) + cols[j + 1:]

    monkeypatch.setattr(CandidateBasis, "_columns", moved)
    monkeypatch.setattr(_linalg, "invert", lambda mat: pytest.fail("inverted"))
    with pytest.raises(RuntimeError, match=re.escape(
            f"nodes {home} and {neighbour} differ off their exchanged vertex {k}")):
        basis._inverse_map(home, torus, True)


def test_walks_from_the_last_home_take_fewer_steps_than_keys(monkeypatch):
    # a full A3-principal cap1 sweep: each walk starts where the last one
    # in its (torus, side) ended, so most keys are reached in no step; the
    # records are totalled as each torus is forgotten
    graph, cap = _rung_graph("a3p-cap1")
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    records, real = [], basis.forget
    monkeypatch.setattr(basis, "forget",
                        lambda torus: records.append(sum(map(len, basis._resolved.values())))
                        or real(torus))
    assert verify_theorem(basis).ok
    assert 0 < basis.walk_steps < sum(records)


def test_planted_duplicate_home_has_no_wall(a2_graph):
    # a copy of the last node, under a new key and with no edges: every
    # key on the last node's cone has the copy among the nodes whose cones
    # hold it, and no walk can leave it
    graph = build_exchange_graph(a2_graph.reference)
    dup = ("planted",) + graph.order[-1]
    graph.nodes[dup] = graph.nodes[graph.order[-1]]
    graph.order.append(dup)
    with pytest.raises(RuntimeError, match=re.escape(
            f"fan certificate fails: node {dup} has no wall 0")):
        CandidateBasis(graph, unfrozen_cap=1)


@pytest.mark.parametrize("co", [False, True], ids=["degree", "codegree"])
def test_a_node_missing_a_wall_fails_the_certificate(co):
    # the wall the walk to -2 f_1 steps across first, on this side, is
    # dropped from the graph: the node it leaves is refused before any
    # walk. -2 f_1 is no variable's (co)degree, so the basis holds no
    # record of it yet
    graph = build_exchange_graph(principal_framing(A3_B))
    basis = CandidateBasis(graph, unfrozen_cap=0)
    t0 = graph.order[0]
    g = (-2,) + (0,) * (graph.reference.n - 1)
    lam = _linalg.mat_vec(basis._inverse_map(t0, t0, co), g)
    k = next(k for k in graph.reference.unfrozen if lam[k] < 0)
    steps = basis.walk_steps
    assert basis._resolve(t0, g, co) is not None and basis.walk_steps > steps
    graph.edges.remove(next(e for e in graph.edges if e[:2] == (t0, k)))
    with pytest.raises(RuntimeError, match=re.escape(
            f"fan certificate fails: node {t0} has no wall {k}")):
        CandidateBasis(graph, unfrozen_cap=0)


def _copy(x):
    return NForm(x.g, dict(x.terms), x.l1, x.max_l1)


def _skew(x):
    return x.vshift(1)


def _with_var(ts, j, x):
    """ts with variable j replaced by x."""
    return expansion.TrackedSeed(ts.seed, ts.vars[:j] + (x,) + ts.vars[j + 1:], ts.ref, ts.path)


def _planting(graph, torus, home, factor, plant):
    """mutate_tracked, with one variable of home replaced by plant(x) at
    each mutation into the torus that lands on home's labeled seed: the
    new variable, or the first frozen one, carried along; and the
    position of the replaced variable."""
    ref = graph.reference
    frozen = next(i for i in range(ref.n) if i not in ref.unfrozen)
    j = graph.nodes[home].path[-1] if factor == "unfrozen" else frozen
    torus_seed, home_seed = graph.nodes[torus].seed, graph.nodes[home].seed
    real = expansion.mutate_tracked

    def planting(ts, k, *rest):
        out = real(ts, k, *rest)
        if out.ref == torus_seed and out.seed == home_seed:
            out = _with_var(out, j, plant(out.vars[j]))
        return out

    return planting, j


@pytest.mark.parametrize("factor", ["unfrozen", "frozen"])
@pytest.mark.parametrize("plant, error", [(_copy, False), (_skew, True)],
                         ids=["equal-copy", "skewed"])
def test_retracked_factors_match_their_table_entry(factor, plant, error, monkeypatch):
    # the last node, a leaf of the path tree, re-tracked into a
    # non-reference torus after every other node, with one of its
    # variables replaced at the mutation that lands on its seed. An equal
    # copy gives way to the torus's stored one-factor monomial; a variable
    # off by a power of v is an internal error
    graph = build_exchange_graph(principal_framing(A3_B))
    torus, home = graph.order[1], graph.order[-1]
    for key in graph.order[:-1]:
        graph.vars_in(key, torus)
    planting, j = _planting(graph, torus, home, factor, plant)
    entry = graph._monomials[torus][((graph.nodes[home].degs[j], 1),)]
    planted = []
    monkeypatch.setattr(expansion, "mutate_tracked",
                        lambda ts, k, *rest: planted.append(k) or planting(ts, k, *rest))
    if error:
        with pytest.raises(RuntimeError, match="disagrees with its entry in torus"):
            graph.vars_in(home, torus)
    else:
        assert graph.vars_in(home, torus)[j] is entry
    assert planted == [graph.nodes[home].path[-1]]


def test_a_build_landing_on_a_stored_node_checks_its_variables(monkeypatch):
    # the mutation back across the reference's first edge lands on the
    # reference node, with the variable it brings back off by a power of v
    seed = principal_framing(A3_B)
    k = seed.unfrozen[0]
    real = expansion.mutate_tracked
    planted = []

    def planting(ts, j, *rest):
        out = real(ts, j, *rest)
        if out.path == (k, k):
            planted.append(j)
            out = _with_var(out, k, _skew(out.vars[k]))
        return out

    monkeypatch.setattr(expansion, "mutate_tracked", planting)
    with pytest.raises(RuntimeError, match=re.escape(
            f"path {(k, k)}: variable at reference degree {unit_vec(seed.n, k)} "
            f"disagrees with its entry in torus")):
        build_exchange_graph(seed)
    assert planted == [k]


@pytest.fixture
def a3p_file(tmp_path):
    p = tmp_path / "a3p.json"
    p.write_text(json.dumps({"n": 6, "unfrozen": [1, 2, 3], "B": [
        [0, -1, 0], [1, 0, -1], [0, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    return str(p)


def test_a_retracking_that_disagrees_exits_3(a3p_file, monkeypatch, capsys):
    # the skewed plant of test_retracked_factors_match_their_table_entry,
    # in the graph the command builds from the same file
    graph = build_exchange_graph(cli.load_seed(a3p_file)[0])
    planting, _ = _planting(graph, graph.order[1], graph.order[-1], "unfrozen", _skew)
    monkeypatch.setattr(expansion, "mutate_tracked", planting)
    assert cli.main(["leclerc", a3p_file, "--cap", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: path ") and "disagrees with its entry" in err


@pytest.mark.parametrize("tamper", ["negative-n", "coefficient-v"])
def test_a_variable_not_pointed_at_its_degree_exits_3(a3p_file, tamper, monkeypatch, capsys):
    # the first node the build finds, its new variable tampered before it
    # is stored in the reference torus: a term above its degree (n = -1 at
    # the exchanged vertex), or the coefficient v at its degree (n = 0)
    seed = cli.load_seed(a3p_file)[0]
    k = seed.unfrozen[0]
    real = expansion.mutate_tracked

    def tampering(ts, j, *rest):
        out = real(ts, j, *rest)
        if out.path == (k,):
            x = out.vars[k]
            if tamper == "negative-n":
                above = tuple(-int(u == k) for u in seed.unfrozen)
                x = NForm.of(x.g, {**x.coeffs(), above: VCoeff.one()})
            else:
                x = x.vshift(1)
            out = _with_var(out, k, x)
        return out

    monkeypatch.setattr(expansion, "mutate_tracked", tampering)
    assert cli.main(["leclerc", a3p_file, "--cap", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: path {(k,)}: variable at reference degree ")
    assert "is not pointed at" in err


def test_tampered_edge_fails_the_certificate(a3p_file, monkeypatch, capsys):
    # the first node's first two edges trade targets: each new variable
    # then lies across the other wall, where its lambda is >= 0
    real = cli.build_exchange_graph

    def tampered(seed):
        graph = real(seed)
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
    # twice; with no walls to check, the covering test alone refuses it
    basis = CandidateBasis(a2_graph, unfrozen_cap=1)
    basis._walls.clear()
    basis._last_home.clear()
    real = CandidateBasis._inverse_map
    t0, other = a2_graph.order[0], a2_graph.order[2]

    def overlapping(self, home_key, torus_key, co):
        return real(self, t0 if home_key == other else home_key, torus_key, co)

    monkeypatch.setattr(CandidateBasis, "_inverse_map", overlapping)
    with pytest.raises(RuntimeError, match="fan certificate fails .* lies in 2 cones"):
        basis._certify(t0, co=False)


def test_walk_longer_than_the_graph_is_an_error(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=0)
    t0 = a2_graph.order[0]
    basis._certify(t0, co=False)
    # every wall leads back to the torus's own node: the walk never ends
    basis._walls = {(a, k): (t0, j) for (a, k), (_, j) in basis._walls.items()}
    # (-2, 0) is no variable's degree, so the basis holds no record of it
    with pytest.raises(RuntimeError, match="longer than 5 nodes"):
        basis.element_at_degree(t0, (-2, 0))
