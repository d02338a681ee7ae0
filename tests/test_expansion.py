import copy
import inspect
import pathlib
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import bidegree
from conftest import (
    A2_B, A3_B, B2_B, B3_B, D4_B, LADDER, a2_gold, assert_reference_retracked_again, elem, forbid,
    principal_framings, retracked)
from qcluster import (
    QuantumSeed,
    apply_word,
    build_exchange_graph,
    cluster_monomial,
    emit_dot,
    initial_tracked,
    make_seed,
    mutate_seed,
    mutate_tracked,
    opposite_seed,
    principal_framing,
)
from qcluster import cli, expansion, pointed, qtorus
from qcluster import seed as seed_module
from qcluster.expansion import degree_key
from qcluster.leclerc import CandidateBasis, _exponent_box
from qcluster.pointed import degree
from qcluster.qtorus import QTElem, lam_pair, twisted_mul, unit_vec


def expanded(ts):
    """A tracked seed's variables as torus elements of its reference."""
    return tuple(x.expand(ts.ref) for x in ts.vars)


# C5 with the doubled arrow at the last vertex: non-unit D (2, 2, 2, 2, 1)
C5_B = ((0, -1, 0, 0, 0), (1, 0, -1, 0, 0), (0, 1, 0, -1, 0), (0, 0, 1, 0, -1),
        (0, 0, 0, 2, 0))
GRAPH_SEEDS = {name: make for name, (make, _, _) in LADDER.items()}
GRAPH_SEEDS["c5p"] = lambda: principal_framing(C5_B)


@pytest.mark.parametrize("name", sorted(GRAPH_SEEDS))
def test_every_variable_matches_the_torus_element_mutation(name):
    # every node's variables, in the reference torus as the build made
    # them and re-tracked into the last node's torus, against the mutation
    # in torus elements with a degree scan; the degrees recorded are the
    # scanned ones. The build's store holds every node's re-tracking into
    # the reference torus: its tracked seed itself
    graph = build_exchange_graph(GRAPH_SEEDS[name]())
    assert not graph.truncated
    for torus in (graph.order[0], graph.order[-1]):
        torus_seed = graph.nodes[torus].seed
        want = oracles.qtelem_vars_in(graph, torus)
        for home in graph.order:
            seed, xs = want[home]
            ts = retracked(graph, home, torus)
            assert ts.seed == seed == graph.nodes[home].seed
            assert tuple(x.expand(torus_seed) for x in ts.vars) == xs, (home, torus)
            assert tuple(x.g for x in graph.vars_in(home, torus)) == tuple(
                pointed.degree(torus_seed, x) for x in xs)
        if torus == graph.order[0]:
            assert all(graph.vars_in(home, torus) is graph.nodes[home].vars
                       for home in graph.order)
            assert graph._cross[torus].keys() == graph.nodes.keys()
            assert all(graph._cross[torus][home] is graph.nodes[home] for home in graph.order)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_the_build_and_retracking_make_no_torus_element(name, monkeypatch):
    # variables are made, compared and re-tracked in n-coordinates: no
    # torus element is made, and neither torus kernel nor degree scan
    # runs, in whatever qcluster namespace holds it
    forbid(monkeypatch, qtorus.exact_divide, qtorus.twisted_mul, pointed.degree)
    monkeypatch.setattr(QTElem, "__init__", lambda *a, **k: pytest.fail("torus element made"))
    graph = build_exchange_graph(GRAPH_SEEDS[name]())
    for home in graph.order:
        for torus in graph.order:
            graph.vars_in(home, torus)
    # every pair, the reference torus's too, whose re-trackings the build made
    assert set(graph._cross) == set(graph.order)
    assert sum(map(len, graph._cross.values())) == len(graph.order) ** 2
    # a word replayed with no store of the graph, as qcluster expand does
    last = graph.nodes[graph.order[-1]]
    assert apply_word(initial_tracked(graph.reference), last.path).vars == last.vars


def test_initial_tracked(a2_seed, pa2_seed):
    ts = initial_tracked(a2_seed)
    assert expanded(ts) == (QTElem.monomial((1, 0)), QTElem.monomial((0, 1)))
    assert ts.path == ()
    tp = initial_tracked(pa2_seed)
    assert expanded(tp) == tuple(QTElem.monomial(unit_vec(4, i)) for i in range(4))


def test_first_mutations_hit_gold(a2_seed):
    ts = initial_tracked(a2_seed)
    assert expanded(mutate_tracked(ts, 0))[0] == a2_gold("I1")
    assert expanded(mutate_tracked(ts, 1))[1] == a2_gold("P2")


def test_shift_words(a2_seed):
    ts = initial_tracked(a2_seed)
    up = apply_word(ts, (1, 0, 1))
    assert expanded(up) == (a2_gold("P1"), a2_gold("I1"))  # (I2, I1)
    assert up.seed.B == ((0, 1), (-1, 0))
    down = apply_word(ts, (0, 1, 0))
    assert expanded(down) == (a2_gold("P2"), a2_gold("P1"))
    assert down.seed.B == ((0, 1), (-1, 0))


def test_a_copied_tracked_seed_keeps_the_degrees_of_its_variables(pa2_seed):
    # degs is formed once, in __init__: a copy keeps it, and a rebuild
    # with other variables forms it from those
    ts = apply_word(initial_tracked(pa2_seed), (0, 1))
    dup = copy.copy(ts)
    assert dup is not ts and dup.degs == ts.degs == tuple(x.g for x in dup.vars)
    swapped = expansion.TrackedSeed(ts.seed, ts.vars[::-1], ts.ref, ts.path)
    assert swapped.degs == tuple(x.g for x in ts.vars[::-1]) != ts.degs


def test_apply_word_identities(a2_seed, b2_seed):
    for s in (a2_seed, b2_seed):
        ts = initial_tracked(s)
        assert apply_word(ts, ()) == ts
        rng = random.Random(12)
        word = tuple(rng.choice(s.unfrozen) for _ in range(6))
        back = apply_word(apply_word(ts, word), tuple(reversed(word)))
        assert back.vars == ts.vars and back.seed == ts.seed


def _two_finite(seed):
    """No unfrozen pair with b_ij b_ji < -3."""
    return all(seed.B[i][cj] * seed.B[j][ci] >= -3
               for ci, i in enumerate(seed.unfrozen) for cj, j in enumerate(seed.unfrozen))


@settings(max_examples=80, deadline=None)
@given(principal_framings().filter(_two_finite), st.data())
def test_mutation_is_an_involution_on_tracked_variables(seed, data):
    # after a random word, mutating twice at one vertex gives back the
    # seed and every variable, in frozen-row seeds with D up to 3
    ts = apply_word(initial_tracked(seed),
                    data.draw(st.lists(st.sampled_from(seed.unfrozen), max_size=3)))
    back = apply_word(ts, (data.draw(st.sampled_from(seed.unfrozen)),) * 2)
    assert back.seed == ts.seed and back.vars == ts.vars


def test_new_variables_bipointed_and_bar_invariant(a2_seed, b2_seed):
    rng = random.Random(13)
    for s in (a2_seed, b2_seed):
        ts = initial_tracked(s)
        for _ in range(6):
            k = rng.choice(ts.seed.unfrozen)
            ts = mutate_tracked(ts, k)
            z = expanded(ts)[k]
            bid = bidegree(s, z)
            assert bid is not None
            assert z.terms[bid.deg].is_one() and z.terms[bid.codeg].is_one()
            assert z.bar() == z


def test_graph_counts(a2_graph, b2_graph, a3_graph):
    assert len(a2_graph.order) == 5
    assert len(a2_graph.undirected_edges()) == 5
    assert len(a2_graph.distinct_variables()) == 5
    assert len(b2_graph.order) == 6
    assert len(b2_graph.distinct_variables()) == 6
    assert len(a3_graph.order) == 14
    assert len(a3_graph.distinct_variables()) == 9


def test_recorded_degrees_match_a_fresh_scan(a2_graph, b2_graph, a3_graph, pa2_graph):
    # degrees are measured once, at mutation: in every node's torus they
    # must equal a scan of the expansion
    for graph in (a2_graph, b2_graph, a3_graph, pa2_graph):
        fresh = oracles.fresh_degrees(graph)
        assert oracles.recorded_degrees(graph) == fresh
        assert len(fresh) == len(graph.order) * (len(graph.order) + 1)


def test_principal_a2_graph(pa2_graph):
    assert len(pa2_graph.order) == 5
    assert len(pa2_graph.distinct_variables()) == 5
    # frozen variables stay plain monomials in every node
    for key in pa2_graph.order:
        ts = pa2_graph.nodes[key]
        for i in ts.seed.frozen:
            assert expanded(ts)[i] == QTElem.monomial(unit_vec(4, i))


@pytest.mark.parametrize(
    "b,expect_clusters,expect_vars",
    [(A2_B, 5, 5), (B2_B, 6, 6)],
    ids=["A2", "B2"],
)
def test_counts_match_classical_oracle(b, expect_clusters, expect_vars):
    nclusters, variables = oracles.classical_clusters([list(r) for r in b])
    assert nclusters == expect_clusters
    assert len(variables) == expect_vars


def test_a3_counts_match_classical_oracle():
    rows = [list(r) for r in A3_B] + [list(unit_vec(3, i)) for i in range(3)]
    nclusters, variables = oracles.classical_clusters(rows, unfrozen=(0, 1, 2))
    assert nclusters == 14
    assert len(variables) == 9


def test_expansions_match_classical_at_v1(a2_graph):
    _, classical = oracles.classical_clusters([list(r) for r in A2_B])
    classical_dicts = [dict(items) for items in classical]
    for z in a2_graph.distinct_variables().values():
        assert oracles.v1_dict(z.expand(a2_graph.reference)) in classical_dicts


def test_b2_expansions_match_classical_at_v1(b2_graph):
    _, classical = oracles.classical_clusters([list(r) for r in B2_B])
    classical_dicts = [dict(items) for items in classical]
    for z in b2_graph.distinct_variables().values():
        assert oracles.v1_dict(z.expand(b2_graph.reference)) in classical_dicts


def test_b2_quantum_binomial_coefficient(b2_graph):
    # hand expansion: the doubled arrow squares a two-term variable, whose
    # cross terms pick up v and 1/v, so the middle coefficient is v + 1/v
    from qcluster.qtorus import VCoeff

    two = VCoeff({1: 1, -1: 1})
    want = elem(2, {(-2, -1): 1, (-2, 1): 1, (0, -1): 1})
    want = want + QTElem.monomial((-2, 0), two)
    assert want in {z.expand(b2_graph.reference) for z in b2_graph.distinct_variables().values()}


def test_quasi_commutation_at_every_node(a2_graph, b2_graph):
    for graph in (a2_graph, b2_graph):
        lam0 = graph.reference.Lambda
        for key in graph.order:
            ts = graph.nodes[key]
            xs = expanded(ts)
            for i in range(ts.seed.n):
                for j in range(ts.seed.n):
                    lhs = twisted_mul(xs[i], xs[j], lam0)
                    rhs = twisted_mul(xs[j], xs[i], lam0).vshift(
                        2 * ts.seed.Lambda[i][j]
                    )
                    assert lhs == rhs, (key, i, j)


def test_cluster_monomial(a2_seed, a2_graph):
    ts = initial_tracked(a2_seed)
    assert cluster_monomial(ts, (0, 0)).expand(a2_seed) == QTElem.one(2)
    assert cluster_monomial(ts, (1, 1)).expand(a2_seed) == QTElem.monomial((1, 1))
    shifted = apply_word(ts, (1, 0, 1))
    assert cluster_monomial(shifted, (1, 0)).expand(a2_seed) == a2_gold("P1")  # I2
    with pytest.raises(ValueError):
        cluster_monomial(ts, (-1, 0))


def test_cluster_monomial_normalizes_at_the_recorded_degree(pa2_graph, monkeypatch):
    # degrees add over factors: the normalization reads them and scans nothing
    cases = []
    for key in pa2_graph.order:
        ts = pa2_graph.nodes[key]
        for m in product(range(2), range(2), range(-1, 2), range(-1, 2)):
            cases.append((ts, m, _oracle_monomial(ts, m)))
    monkeypatch.setattr(pointed, "degree", lambda *a: pytest.fail("degree scanned"))
    for ts, m, want in cases:
        assert cluster_monomial(ts, m).expand(ts.ref) == want


def test_monomial_in_own_torus(a2_graph):
    key = a2_graph.order[1]
    got = a2_graph.monomial_in(key, (1, 1), key)
    assert got == pointed.NForm.monomial((1, 1), 2)
    assert got.expand(a2_graph.nodes[key].seed) == QTElem.monomial((1, 1))


def test_path_independence_of_cross_expansion(a2_graph):
    # same element through two different routes: compare against a fresh track
    key = a2_graph.order[0]
    far = a2_graph.order[-1]
    direct = a2_graph.vars_in(far, key)
    ts = apply_word(initial_tracked(a2_graph.reference), a2_graph.nodes[far].path)
    assert tuple(direct) == ts.vars


def test_opposite_graph_word_identity(a2_seed):
    # the sign-flipped seed reproduces the same expansions under the same
    # words, since negating both matrices commutes with mutation and the
    # flip fixes monomial data
    ts = apply_word(initial_tracked(opposite_seed(a2_seed)), (1, 0, 1))
    assert expanded(ts) == (a2_gold("P1"), a2_gold("I1"))  # (I2, I1)
    assert ts.seed.B == a2_seed.B
    ts2 = apply_word(initial_tracked(opposite_seed(a2_seed)), (0, 1, 0))
    assert expanded(ts2) == (a2_gold("P2"), a2_gold("P1"))
    assert ts2.seed.B == a2_seed.B


def test_key_of_path(a2_graph):
    key = degree_key(apply_word(initial_tracked(a2_graph.reference), (1, 0, 1)))
    assert key in a2_graph.nodes
    assert set(a2_graph.nodes[key].degs) == {(0, -1), (-1, 0)}


def test_node_cap_truncates(a2_seed, monkeypatch):
    monkeypatch.setattr(expansion, "NODE_CAP", 2)
    g = build_exchange_graph(a2_seed)
    assert g.truncated
    assert len(g.order) == 2
    assert g.witness is None


@pytest.mark.parametrize("b, nodes, witness", [
    (((0, 2), (-2, 0)), 1, ((), 0, 1, -4)),
    (((0, 1, 1), (-1, 0, 1), (-1, -1, 0)), 3, ((1,), 0, 2, -4)),
], ids=["kronecker", "affine-a2"])
def test_a_seed_that_is_not_2_finite_stops_the_build(b, nodes, witness):
    # Fomin-Zelevinsky's 2-finite criterion: some seed has b_ij b_ji < -3,
    # so the graph is infinite and the search stops at that seed
    graph = build_exchange_graph(principal_framing(b))
    assert graph.truncated and graph.witness == witness
    assert len(graph.order) == nodes
    assert graph.nodes[graph.order[-1]].path == witness[0]


def test_a_node_met_again_must_match_under_the_degree_permutation():
    # a node's seed relabeled by a swap of two unfrozen vertices, as a
    # second route would meet it, matches; one entry of Lambda or of B
    # changed is named at its place in the relabeled seed
    graph = build_exchange_graph(principal_framing(A3_B))
    stored = graph.nodes[graph.order[5]]
    a, perm = stored.seed, (1, 0, 2, 3, 4, 5)
    lam = [[a.Lambda[p][q] for q in perm] for p in perm]
    b = [[a.B[p][perm[k]] for k in a.unfrozen] for p in perm]
    xs, lam0, b0 = tuple(stored.vars[p] for p in perm), _rows(lam), _rows(b)

    def relabeled(lam=lam0, b=b0):
        seed = QuantumSeed(a.n, a.unfrozen, b, lam, a.D)
        return expansion.TrackedSeed(seed=seed, vars=xs, ref=stored.ref, path=(9,))

    expansion._assert_same_node(stored, relabeled())
    lam[1][4] += 1
    lam[4][1] -= 1
    with pytest.raises(RuntimeError, match=r"path \(9,\): Lambda mismatch at \(1,4\) under "
                                           r"\(1, 0, 2, 3, 4, 5\)"):
        expansion._assert_same_node(stored, relabeled(lam=_rows(lam)))
    b[3][2] += 1
    with pytest.raises(RuntimeError, match=r"B mismatch at \(3,2\)"):
        expansion._assert_same_node(stored, relabeled(b=_rows(b)))


def _rows(mat):
    return tuple(map(tuple, mat))


def test_dot_output(a2_graph):
    text = emit_dot(a2_graph)
    assert text.startswith("graph exchange {")
    assert text.count(" -- ") == 5
    assert 'label="1"' in text and 'label="2"' in text


def test_weyl_constant_consistency(a2_seed):
    # ordered twisted product of tracked vars equals v^w times the monomial
    ts = initial_tracked(a2_seed)
    m = (2, 3)
    prod = QTElem.one(2)
    for i, e in enumerate(m):
        for _ in range(e):
            prod = twisted_mul(prod, expanded(ts)[i], a2_seed.Lambda)
    w = m[0] * m[1] * a2_seed.Lambda[0][1]
    assert prod == QTElem.monomial(m).vshift(w)
    assert lam_pair(a2_seed.Lambda, (1, 0), (0, 1)) == -1


def test_degrees_are_g_vectors(a2_graph):
    # the five degree vectors of the worked example
    ref = a2_graph.reference
    degs = {degree(ref, z.expand(ref)) for z in a2_graph.distinct_variables().values()}
    assert degs == {(1, 0), (0, 1), (1, -1), (0, -1), (-1, 0)}


@pytest.mark.parametrize("principal, order_seed", [(A3_B, 1), (B3_B, 2)], ids=["A3p", "B3p"])
def test_path_tree_retracking_matches_the_route_through_the_reference(principal,
                                                                       order_seed):
    # a fresh graph, so each request starts from whatever earlier requests
    # in the shuffled order left re-tracked
    graph = build_exchange_graph(principal_framing(principal))
    pairs = list(product(graph.order, repeat=2))
    random.Random(order_seed).shuffle(pairs)
    for home, torus in pairs:
        assert graph.vars_in(home, torus) == oracles.route_vars_in(graph, home, torus)
        assert retracked(graph, home, torus).seed == graph.nodes[home].seed


@pytest.mark.parametrize("principal", [A3_B, D4_B], ids=["A3p", "D4p"])
@pytest.mark.parametrize("order", ["discovery", "reverse", "shuffled"])
def test_each_retracked_pair_costs_one_mutation(principal, order, monkeypatch):
    # whatever the request order, each (node, torus) pair is cached once,
    # built by one mutation from a neighbour already cached, except the
    # torus's own node, whose variables there are the unit monomials. The
    # route through the reference node costs far more.
    graph = build_exchange_graph(principal_framing(principal))
    torus = max(graph.order, key=lambda key: len(graph.nodes[key].path))
    assert len(graph.nodes[torus].path) >= 2
    homes = list(graph.order if order == "discovery" else reversed(graph.order))
    if order == "shuffled":
        random.Random(5).shuffle(homes)
    want = {home: oracles.route_vars_in(graph, home, torus) for home in homes}
    calls = []
    real = expansion.mutate_tracked
    monkeypatch.setattr(expansion, "mutate_tracked", lambda *a: calls.append(a) or real(*a))
    assert torus not in graph._cross
    for home in homes:
        assert graph.vars_in(home, torus) == want[home], home
    cached = len(graph._cross[torus])
    assert cached == len(graph.order)
    assert len(calls) == cached - 1


FROZEN_B = ((0, -1), (1, 0), (1, 1))


@pytest.mark.parametrize("make, cap, window", [
    (lambda: make_seed(FROZEN_B, unfrozen=(0, 1)), 2, 1),
    (lambda: principal_framing(A3_B), 2, 0),
], ids=["frozen-cap2-w1", "A3p-cap2"])
def test_monomial_in_matches_the_full_product(make, cap, window, monkeypatch):
    # every (node, m) of the box in two non-reference tori, in a shuffled
    # order: each new monomial is one twisted product, in n-coordinates,
    # from a kept one, the full product is never taken, and a repeat is
    # read back
    graph = build_exchange_graph(make())
    tori = (graph.order[1], graph.order[-1])
    requests = [(home, m, torus) for torus in tori for home in graph.order
                for m in _exponent_box(graph.nodes[home].seed, cap, window)]
    random.Random(3).shuffle(requests)
    full, muls = [], []
    monkeypatch.setattr(expansion, "cluster_monomial",
                        lambda ts, m: full.append(m) or cluster_monomial(ts, m))
    real_mul = pointed.mul
    monkeypatch.setattr(pointed, "mul", lambda *a, **k: muls.append(a) or real_mul(*a, **k))
    made = kept = 0
    for home, m, torus in requests:
        want = _oracle_monomial(retracked(graph, home, torus), m)
        before, stored = len(muls), len(graph._monomials[torus])
        got = graph.monomial_in(home, m, torus)
        assert got.expand(graph.nodes[torus].seed) == want, (home, m, torus)
        made += len(muls) - before
        kept += len(graph._monomials[torus]) - stored
    assert any(min(m) < 0 for _, m, _ in requests) == (window > 0)
    assert full == []
    assert made == kept > 0


@pytest.mark.parametrize("make", [
    lambda: make_seed(FROZEN_B, unfrozen=(0, 1)),
    lambda: principal_framing(A3_B),
], ids=["frozen", "A3p"])
def test_every_retracked_variable_is_its_one_factor_monomial(make, monkeypatch):
    # every (home, torus) pair, frozen variables too: monomial_in stops at
    # the stored variable itself, which is the re-tracked one, and takes
    # no product
    _assert_variables_are_stored(build_exchange_graph(make()), monkeypatch)


@pytest.mark.parametrize("make", [
    lambda: make_seed(FROZEN_B, unfrozen=(0, 1)),
    lambda: principal_framing(A3_B),
], ids=["frozen", "A3p"])
def test_a_forgotten_torus_stores_its_variables_again(make, monkeypatch):
    # the same after every torus is forgotten, the reference one included,
    # which is re-tracked like any other: one mutation per node but its own
    graph = build_exchange_graph(make())
    for torus in graph.order:
        graph.forget(torus)
    assert_reference_retracked_again(graph, monkeypatch)
    _assert_variables_are_stored(graph, monkeypatch)


def _assert_variables_are_stored(graph, monkeypatch):
    """Each (home, torus) pair's j-th variable is the torus's stored
    one-factor monomial, which monomial_in returns without a product."""
    n = graph.reference.n
    pairs = [(home, torus) for torus in graph.order for home in graph.order]
    for home, torus in pairs:
        graph.vars_in(home, torus)
    monkeypatch.setattr(pointed, "mul", lambda *a, **k: pytest.fail("product taken"))
    for home, torus in pairs:
        xs = graph.vars_in(home, torus)
        for j in range(n):
            z = graph.monomial_in(home, unit_vec(n, j), torus)
            assert z is graph._monomials[torus][((graph.nodes[home].degs[j], 1),)]
            assert z is xs[j], (home, torus, j)


def _oracle_monomial(ts, m):
    """X^m of a re-tracked seed, in torus elements of its torus: the
    ordered twisted product, normalized at a degree scan."""
    return oracles.normalize_deg(
        ts.ref, oracles.qtelem_image_monomial(ts.seed, expanded(ts), ts.ref, m))


def test_monomial_in_rejects_a_negative_unfrozen_exponent():
    # the one check, in _monomial, whatever the torus; frozen exponents
    # may be negative
    graph = build_exchange_graph(principal_framing(A2_B))
    home, torus = graph.order[1], graph.order[-1]
    got = graph.monomial_in(home, (0, 1, -1, 0), torus)
    want = _oracle_monomial(retracked(graph, home, torus), (0, 1, -1, 0))
    assert got.expand(graph.nodes[torus].seed) == want
    for m in ((-1, 0, 0, 0), (1, -1, 0, 0)):
        with pytest.raises(ValueError):
            graph.monomial_in(home, m, torus)


def test_monomial_in_does_not_recurse_on_the_exponent(a2_graph):
    # 200 factors, each step one product, under a recursion limit only 40
    # frames above the caller's depth
    home, torus = a2_graph.order[1], a2_graph.order[0]
    m = [0, 0]
    m[1 - a2_graph.nodes[home].path[-1]] = 200  # the variable home shares with the torus
    want = _oracle_monomial(retracked(a2_graph, home, torus), m)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = a2_graph.monomial_in(home, tuple(m), torus)
    finally:
        sys.setrecursionlimit(limit)
    assert got.expand(a2_graph.nodes[torus].seed) == want


def _dividing_build(seed, monkeypatch):
    """The build with no exchange table: every mutation divides."""
    real = expansion.mutate_tracked
    with monkeypatch.context() as patch:
        patch.setattr(expansion, "mutate_tracked", lambda ts, k, exchange=None: real(ts, k))
        return build_exchange_graph(seed)


@pytest.mark.parametrize("make", [
    lambda: principal_framing(A3_B),
    lambda: principal_framing(B3_B),
    lambda: principal_framing(D4_B),
    LADDER["g2-cap1"][0],
    LADDER["frozen-cap2-w1"][0],
], ids=["A3p", "B3p", "D4p", "G2", "frozen"])
def test_a_shared_exchange_relation_gives_the_replayed_variables(make, monkeypatch):
    # each node's variables, made once per exchange relation, against a
    # replay of its path that passes no table; node order and edges as in
    # a build that divides at every mutation
    seed = make()
    graph = build_exchange_graph(seed)
    want = _dividing_build(seed, monkeypatch)
    assert graph.order == want.order and graph.edges == want.edges
    ts0 = initial_tracked(seed)
    for key in graph.order:
        node, replay = graph.nodes[key], apply_word(ts0, graph.nodes[key].path)
        assert node.seed == replay.seed and node.vars == replay.vars == want.nodes[key].vars, key


BENCH_SEEDS = pathlib.Path(__file__).parent.parent / "bench" / "seeds"


def _counting(monkeypatch):
    """Record every mutate_tracked call, with the new variable of each
    that divided nothing, every division and twisted product, and each
    product check's verdict."""
    real_mutate, real_divide, real_mul = expansion.mutate_tracked, pointed.divide, pointed.mul
    real_check = expansion._is_quotient
    calls = {"mutated": [], "hits": [], "divided": [], "products": [], "checked": []}

    def mutating(ts, k, *rest):
        before = len(calls["divided"])
        out = real_mutate(ts, k, *rest)
        calls["mutated"].append(k)
        if len(calls["divided"]) == before:
            calls["hits"].append(out.vars[k])
        return out

    def checking(*a):
        calls["checked"].append(real_check(*a))
        return calls["checked"][-1]

    monkeypatch.setattr(expansion, "mutate_tracked", mutating)
    monkeypatch.setattr(expansion, "_is_quotient", checking)
    monkeypatch.setattr(pointed, "divide",
                        lambda *a: calls["divided"].append(a) or real_divide(*a))
    monkeypatch.setattr(pointed, "mul",
                        lambda *a, **k: calls["products"].append(a) or real_mul(*a, **k))
    return calls


def _kept_products(graph, torus):
    """The torus's kept cluster monomials that are not variables."""
    return [i for i in graph._monomials[torus] if len(i) > 1 or i[0][1] > 1]


def _stored_variables(graph, torus):
    """How many variables, frozen ones too, the torus's store holds."""
    return sum(len(i) == 1 and i[0][1] == 1 for i in graph._monomials[torus])


@pytest.mark.parametrize("name, mutations, relations, divisions, products", [
    pytest.param("c5p", 1260, 270, 25, 196, id="c5p-1260-270"),
    pytest.param("a4p", 168, 70, 10, 34, id="a4p-168-70"),
])
def test_the_build_divides_once_per_exchange_relation(name, mutations, relations, divisions,
                                                      products, monkeypatch):
    # every node is mutated in every direction, but each distinct exchange
    # relation is formed once, into the reference torus's relation table:
    # divided once when its variable is new to the torus, else checked by
    # one product against the stored variable, which it keeps. Each
    # exchange monomial is one kept product from a kept one; a repeat
    # returns the reference torus's stored variable itself, and so does
    # every entry of the table
    seed = cli.load_seed(str(BENCH_SEEDS / f"{name}.json"))[0]
    calls = _counting(monkeypatch)
    graph = build_exchange_graph(seed)
    t0 = graph.order[0]
    table = graph._relations[t0]
    assert set(graph._relations) == {t0}
    assert (len(calls["mutated"]), len(calls["divided"]), len(table)) == (
        mutations, divisions, relations)
    assert _stored_variables(graph, t0) - seed.n == divisions
    assert calls["checked"] == [True] * (relations - divisions)
    assert len(calls["hits"]) == mutations - divisions
    assert len(_kept_products(graph, t0)) == products
    assert len(calls["products"]) == products + relations - divisions

    def stored(x):
        return graph._monomials[t0][((x.g, 1),)]

    assert all(x is stored(x) for x in calls["hits"])
    assert all(x is stored(x) for x in table.values())


@pytest.mark.parametrize("name, torus, retracks, relations, divisions, products", [
    pytest.param("a4p", 9, 41, 20, 10, 23, id="a4p-torus-9"),
    pytest.param("c5p", -1, 251, 87, 25, 126, id="c5p-last-torus"),
])
def test_entering_a_torus_divides_once_per_exchange_relation(name, torus, retracks, relations,
                                                             divisions, products, monkeypatch):
    # every node re-tracked into one torus, one mutation each but the
    # torus's own node: each distinct relation is formed once there, into
    # the torus's relation table, divided once per variable new to the
    # torus and checked by one product otherwise; each exchange monomial
    # is one kept product, and every table entry is the torus's stored
    # variable. The variables are the route oracle's, and forgetting the
    # torus drops its table with the rest
    graph = build_exchange_graph(cli.load_seed(str(BENCH_SEEDS / f"{name}.json"))[0])
    torus = graph.order[torus]
    calls = _counting(monkeypatch)
    for home in graph.order:
        graph.vars_in(home, torus)
    table = graph._relations[torus]
    assert (len(calls["mutated"]), len(calls["divided"]), len(table)) == (
        retracks, divisions, relations)
    assert _stored_variables(graph, torus) - graph.reference.n == divisions
    assert calls["checked"] == [True] * (relations - divisions)
    assert len(_kept_products(graph, torus)) == products
    assert len(calls["products"]) == products + relations - divisions
    variables = {id(x) for home in graph.order for x in graph.vars_in(home, torus)}
    assert all(id(x) in variables for x in table.values())
    for home in random.Random(2).sample(graph.order, 5):
        assert graph.vars_in(home, torus) == oracles.route_vars_in(graph, home, torus)
    graph.forget(torus)
    assert torus not in graph._relations
    assert torus not in graph._monomials and torus not in graph._cross


def _tampered(x):
    """x with its coefficient at n = e_0 changed: doubled, or 1 where x
    has none; the bounds stay bounds."""
    terms = dict(x.terms)
    e0 = unit_vec(len(next(iter(terms))), 0)
    lo, z = terms.get(e0, (0, 0))
    terms[e0] = (lo, 2 * z or 1)
    return pointed.NForm(x.g, terms, 2 * x.l1 + 1, 2 * x.max_l1 + 1)


def test_a_tampered_stored_variable_fails_the_product_check(monkeypatch):
    # one build finds the first relation whose variable, not a monomial,
    # the reference torus already stores; in a second, that stored
    # variable is tampered with just before the relation is met. The
    # product check fails, the relation is divided, and the build stops
    # where it stopped before there was a check: _intern finds that the
    # quotient and the store disagree
    seed = cli.load_seed(str(BENCH_SEEDS / "a4p.json"))[0]
    real_new, real_check = expansion._new_variable, expansion._is_quotient
    calls, first = [], []

    def new_variable(*a):
        calls.append(a)
        return real_new(*a)

    def checking(seed, z, num, d):
        if not first and len(z.terms) > 1:
            first.append((len(calls) - 1, z.g))
        return real_check(seed, z, num, d)

    with monkeypatch.context() as patch:
        patch.setattr(expansion, "_new_variable", new_variable)
        patch.setattr(expansion, "_is_quotient", checking)
        build_exchange_graph(seed)
    at, d = first[0]
    path = calls[at][4].path + (calls[at][5],)
    counted, divided = _counting(monkeypatch), []

    def tampering(monomials, *rest):
        if len(calls) == at:
            monomials[((d, 1),)] = _tampered(monomials[((d, 1),)])
            divided.append(len(counted["divided"]))
        return new_variable(monomials, *rest)

    monkeypatch.setattr(expansion, "_new_variable", tampering)
    calls.clear()
    with pytest.raises(RuntimeError) as err:
        build_exchange_graph(seed)
    assert len(calls) == at + 1 and counted["checked"][-1] is False
    assert len(counted["divided"]) == divided[0] + 1
    torus = degree_key(initial_tracked(seed))
    assert str(err.value) == (f"path {path}: variable at reference degree {d} "
                              f"disagrees with its entry in torus {torus}")


def test_the_build_checks_each_distinct_seed_once(monkeypatch):
    # mutate_seed conjugates Lambda under both sign conventions once per
    # (labeled seed, vertex), but a mutated seed equal to one already
    # checked, the loaded seed included, is that seed: one compatibility
    # check per distinct seed (the loaded one's at load), and mutating
    # any node's seed back along an edge returns the seed itself,
    # checking nothing
    mutate_seed.cache_clear()
    seed_module._interned.cache_clear()
    seed = cli.load_seed(str(BENCH_SEEDS / "c5p.json"))[0]
    assert seed_module._interned.cache_info().currsize == 1
    conjugations, checks = [], []
    real_conj, real_check = seed_module._conjugated_lambda, seed_module.check_compatible
    monkeypatch.setattr(seed_module, "_conjugated_lambda",
                        lambda *a: conjugations.append(a) or real_conj(*a))
    monkeypatch.setattr(seed_module, "check_compatible",
                        lambda s: checks.append(s) or real_check(s))
    graph = build_exchange_graph(seed)
    assert (len(conjugations), len(checks)) == (2 * 1260, 663)
    assert seed not in checks
    assert seed_module._interned.cache_info().currsize == len({id(s) for s in checks}) + 1 == 664
    made = [ts.seed for ts in graph.nodes.values()]
    assert made[0] is seed
    assert all(mutate_seed(mutate_seed(s, k), k) is s for s in made for k in s.unfrozen)
    assert len(checks) == 663


def test_the_interned_seeds_are_seeds_mutate_seed_returns():
    # after a build the seed constructor's table holds the loaded seed
    # and one object per distinct mutated seed, and in a closed graph the
    # loaded seed is one that mutate_seed returns too: the table keeps no
    # seed alive that mutate_seed's cache does not. Opposite seeds are
    # the table's too, one per seed whose codegree side is worked
    mutate_seed.cache_clear()
    seed_module._interned.cache_clear()
    seed = cli.load_seed(str(BENCH_SEEDS / "a4p.json"))[0]
    graph = build_exchange_graph(seed)
    returned = {id(s): s for s in (mutate_seed(ts.seed, k) for ts in graph.nodes.values()
                                   for k in ts.seed.unfrozen)}
    assert mutate_seed.cache_info().currsize == 168
    interned = seed_module._interned.cache_info().currsize
    assert interned == len(returned) == 114 and id(seed) in returned
    assert all(seed_module._interned(s.n, s.unfrozen, s.B, s.Lambda, s.D) is s
               for s in returned.values())
    assert seed_module._interned.cache_info().currsize == interned
    opposites = {id(opposite_seed(ts.seed)) for ts in graph.nodes.values()}
    assert seed_module._interned.cache_info().currsize == interned + len(opposites) == 114 + 42


@pytest.mark.parametrize("name, build, pairs", [
    pytest.param("a3p", 42, 540, id="a3p-42"),
    pytest.param("a4p", 168, 3546, id="a4p-168"),
])
def test_a_sweep_mutates_no_seed_the_build_did_not(name, build, pairs, monkeypatch):
    # the build mutates every node in every direction (two conjugations
    # per mutation made, one per sign convention); a full cap1 sweep
    # re-tracks every node into every home torus, and each step reads the
    # build's seed back (uncached, 78 and 410 mutations more). Every
    # re-tracked seed, read before its torus is forgotten, is its node's
    # labeled seed
    mutate_seed.cache_clear()
    conjugations, real = [], seed_module._conjugated_lambda
    monkeypatch.setattr(seed_module, "_conjugated_lambda",
                        lambda *a: conjugations.append(a) or real(*a))
    graph = build_exchange_graph(cli.load_seed(str(BENCH_SEEDS / f"{name}.json"))[0])
    assert len(conjugations) == 2 * len(graph.order) * len(graph.reference.unfrozen) == 2 * build
    basis = CandidateBasis(graph, unfrozen_cap=1)
    retracked, forget = [], graph.forget
    monkeypatch.setattr(graph, "forget", lambda torus: retracked.extend(
        (torus, home, ts.seed) for home, ts in graph._cross[torus].items()) or forget(torus))
    report, verdicts = oracles.sweep(basis)
    assert report.ok and len(verdicts) == pairs
    assert len(conjugations) == 2 * build
    homes = {v.r_spec[0] for v in verdicts}
    assert {torus for torus, _, _ in retracked} == homes and len(homes) > 1
    assert len(retracked) == len(homes) * len(graph.order)
    assert all(seed is graph.nodes[home].seed for _, home, seed in retracked)


@pytest.mark.parametrize("path, words, products, divisions", [
    pytest.param(BENCH_SEEDS / "a4p.json", [(k,) for k in range(4)], 6, 4,
                 id="a4p-first-mutations-6-4"),
    pytest.param(pathlib.Path(__file__).parent / "data" / "e6p.json", [tuple(range(6)) * 2],
                 26, 12, id="e6p-word-26-12"),
])
def test_a_mutation_without_a_store_divides_once(path, words, products, divisions,
                                                 monkeypatch):
    # with no store of the graph (apply_word, as qcluster expand runs it),
    # each mutation divides its relation once, and each exchange monomial
    # takes one product per unit of its unfrozen exponent
    seed = cli.load_seed(str(path))[0]
    units = 0
    for word in words:
        s = seed
        for k in word:
            units += sum(abs(s.B[i][s.col(k)]) for i in s.unfrozen)
            s = mutate_seed(s, k)
    calls = _counting(monkeypatch)
    for word in words:
        apply_word(initial_tracked(seed), word)
    assert len(calls["mutated"]) == len(calls["divided"]) == sum(map(len, words)) == divisions
    assert len(calls["products"]) == units == products
