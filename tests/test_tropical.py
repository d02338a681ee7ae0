import pathlib
import random
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    A2_B, A2_LAMBDA, A3_B, B2_B, B2_LAMBDA, B3_B, LADDER, a2_gold, forbid, principal_framings)
from oracles import Bidegree, normalize_deg
from qcluster import (
    cli, expansion, make_seed, mutate_seed, opposite_seed, pointed, principal_framing, qtorus)
from qcluster._linalg import mat_vec
from qcluster.expansion import ExchangeGraph, build_exchange_graph
from qcluster.pointed import codegree, degree, is_m_unitriangular
from qcluster.qtorus import QTElem, twisted_mul, unit_vec
from qcluster.tropical import (
    ShiftNotFound,
    _b_condition,
    _b_profile,
    check_compatibly_copointed,
    check_compatibly_pointed,
    check_swap,
    check_swap_order,
    check_trop_commute,
    detect_shift,
    i_vars,
    inj_element,
    p_vars,
    phi,
    phi_op,
    proj_element,
    psi_matrix,
    trop_codeg,
    trop_deg,
)


def rand_vec(rng, n, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_trop_deg_examples(a2_seed):
    assert trop_deg(a2_seed, 0, (1, 0)) == (-1, 1)
    assert trop_deg(a2_seed, 0, (0, 1)) == (0, 1)


def test_trop_codeg_examples(a2_seed, pa2_seed):
    assert trop_codeg(a2_seed, 0, (1, 0)) == (-1, 0)
    # zero at the mutating vertex fixes frozen-supported vectors
    assert trop_codeg(pa2_seed, 0, (0, 0, 2, -1)) == (0, 0, 2, -1)


def test_trop_involution(a2_seed, b2_seed, a3_seed):
    rng = random.Random(31)
    for s in (a2_seed, b2_seed, a3_seed):
        for _ in range(40):
            g = rand_vec(rng, s.n)
            k = rng.choice(s.unfrozen)
            s2 = mutate_seed(s, k)
            assert trop_deg(s2, k, trop_deg(s, k, g)) == g
            assert trop_codeg(s2, k, trop_codeg(s, k, g)) == g


def test_trop_codeg_is_conjugated_trop_deg(a2_seed, b2_seed, a3_seed):
    rng = random.Random(32)
    for s in (a2_seed, b2_seed, a3_seed):
        op = opposite_seed(s)
        for _ in range(40):
            g = rand_vec(rng, s.n)
            k = rng.choice(s.unfrozen)
            assert trop_codeg(s, k, g) == trop_deg(op, k, g)


@settings(max_examples=100, deadline=None)
@given(principal_framings(), st.data())
def test_trop_steps_at_k_and_back_at_k_compose_to_the_identity(seed, data):
    # what lets phi and phi_op turn at the lowest common ancestor of the
    # path tree rather than at the root
    k = data.draw(st.sampled_from(seed.unfrozen))
    g = data.draw(st.tuples(*[st.integers(-4, 4)] * seed.n))
    mutated = mutate_seed(seed, k)
    assert trop_deg(mutated, k, trop_deg(seed, k, g)) == g
    assert trop_codeg(mutated, k, trop_codeg(seed, k, g)) == g


@pytest.mark.parametrize("make", [
    LADDER["a3p-cap1"][0],
    lambda: principal_framing(B3_B),
    LADDER["g2-cap1"][0],
    LADDER["frozen-cap2-w1"][0],
], ids=["A3p", "B3p", "G2", "frozen"])
def test_phi_matches_the_transport_through_the_reference(make, monkeypatch):
    # on every ordered node pair and a few sample vectors each, phi and
    # phi_op walk the path tree and mutate no seed, and agree with the
    # transport along graph.route in the premutated seeds
    graph = build_exchange_graph(make())
    rng = random.Random(34)
    cases = [(a, b, rand_vec(rng, graph.reference.n))
             for a in graph.order for b in graph.order for _ in range(3)]
    want = [(oracles.route_transport(graph, a, b, g, trop_deg),
             oracles.route_transport(graph, a, b, g, trop_codeg)) for a, b, g in cases]
    forbid(monkeypatch, mutate_seed)
    for (a, b, g), (deg, codeg) in zip(cases, want):
        assert phi(graph, a, b, g) == deg, (a, b, g)
        assert phi_op(graph, a, b, g) == codeg, (a, b, g)


@settings(max_examples=100, deadline=None)
@given(principal_framings(), st.data())
def test_trop_codeg_matches_direct_formula(seed, data):
    k = data.draw(st.sampled_from(seed.unfrozen))
    g = data.draw(st.tuples(*[st.integers(-4, 4)] * seed.n))
    assert trop_codeg(seed, k, g) == oracles.direct_trop_codeg(seed, k, g)


def test_psi_identity_and_invertibility(a2_graph, b2_graph):
    from qcluster import _linalg

    for graph in (a2_graph, b2_graph):
        t0 = graph.order[0]
        assert psi_matrix(graph, t0, t0) == _linalg.identity(graph.reference.n)
        for b in graph.order:
            mat = psi_matrix(graph, t0, b)
            inv = _linalg.invert(mat)
            assert _linalg.mat_mul(inv, mat) == _linalg.identity(graph.reference.n)


def test_psi_adjacent_composition(a2_graph, b2_graph):
    # psi_{t,t'} . psi_{t',t} fixes f_i for i != k and sends f_k to
    # f_k + (column k of B); the pair is not mutually inverse
    for graph in (a2_graph, b2_graph):
        t0 = graph.order[0]
        s = graph.nodes[t0].seed
        for a, k, b in graph.edges:
            if a != t0:
                continue
            fwd = psi_matrix(graph, t0, b)
            back = psi_matrix(graph, b, t0)
            for i in range(s.n):
                got = mat_vec(back, mat_vec(fwd, unit_vec(s.n, i)))
                if i != k:
                    assert got == unit_vec(s.n, i)
                else:
                    want = tuple(
                        (1 if j == k else 0) + s.b(j, k) for j in range(s.n)
                    )
                    assert got == want


def test_detect_shift_a2(a2_graph):
    t0 = a2_graph.order[0]
    up = detect_shift(a2_graph, t0, 1)
    assert up.direction == 1
    # the shifted node's variables expand in t0 to the injective pair
    ref = a2_graph.reference
    ivs = [z.expand(ref) for z in i_vars(a2_graph, up)]
    assert ivs[0] == a2_gold("I1")
    assert ivs[1] == a2_gold("P1")  # I2
    for k in a2_graph.reference.unfrozen:
        d = degree(a2_graph.reference, ivs[k])
        assert d == tuple(-x for x in unit_vec(2, k))
    down = detect_shift(a2_graph, t0, -1)
    pvs = [z.expand(ref) for z in p_vars(a2_graph, down)]
    assert pvs[0] == a2_gold("P1")
    assert pvs[1] == a2_gold("P2")
    assert codegree(a2_graph.reference, pvs[1]) == (0, -1)


def test_detect_shift_b_condition(a2_graph):
    t0 = a2_graph.order[0]
    up = detect_shift(a2_graph, t0, 1)
    sa = a2_graph.nodes[t0].seed
    sb = a2_graph.nodes[up.target].seed
    for i in sa.unfrozen:
        for j in sa.unfrozen:
            assert sb.b(up.sigma[i], up.sigma[j]) == sa.b(i, j)


def test_detect_shift_every_node(a3_graph):
    for key in a3_graph.order:
        for direction in (1, -1):
            sd = detect_shift(a3_graph, key, direction)
            assert sd.base == key
            for k, u in sd.u.items():
                assert all(u[i] == 0 for i in a3_graph.reference.unfrozen)


ROOT = pathlib.Path(__file__).parent.parent
SEEDS = {
    "a2": lambda: make_seed(A2_B, A2_LAMBDA),
    "b2": lambda: make_seed(B2_B, B2_LAMBDA),
    "g2": lambda: make_seed(((0, -3), (1, 0))),
    "frozen": LADDER["frozen-cap2-w1"][0],
    "a3p": lambda: principal_framing(A3_B),
    "b3p": "tests/data/b3p.json",
    "a4p": "bench/seeds/a4p.json",
    "d4p": "tests/data/d4p.json",
    "c5p": "bench/seeds/c5p.json",
    "b5p": "tests/data/b5p.json",
    "d5p": "tests/data/d5p.json",
    "f4p": "tests/data/f4p.json",
}


def _fresh_graph(name):
    make = SEEDS[name]
    return build_exchange_graph(make() if callable(make) else cli.load_seed(str(ROOT / make))[0])


@lru_cache(maxsize=None)
def _graph(name):
    return _fresh_graph(name)


@pytest.mark.parametrize("name", ["a2", "b2", "g2", "frozen", "a3p", "b3p", "a4p", "d4p"])
def test_detect_shift_matches_the_full_scan_at_every_node(name):
    graph = _graph(name)
    for key in graph.order:
        for direction in (1, -1):
            want = oracles.scanning_detect_shift(graph, key, direction)
            assert detect_shift(graph, key, direction) == want, (key, direction)


@pytest.mark.parametrize("name", ["c5p", "b5p", "d5p", "f4p"])
def test_detect_shift_matches_the_full_scan_at_the_reference(name):
    graph = _graph(name)
    t0 = graph.order[0]
    for direction in (1, -1):
        want = oracles.scanning_detect_shift(graph, t0, direction)
        assert detect_shift(graph, t0, direction) == want, direction


@pytest.mark.parametrize("name, rejected_pairs", [
    ("g2", 32), ("frozen", 0), ("a3p", 138), ("b3p", 320), ("d4p", 2000)])
def test_a_rejected_profile_fails_the_b_condition_under_every_permutation(name, rejected_pairs):
    # the pruning's premise, exhaustively: a candidate whose B profile
    # differs from the base's matches it under no permutation sigma of
    # the unfrozen set, so the scan could never have accepted it (the
    # frozen instance's rank-2 A seeds all share one profile)
    graph = _graph(name)
    seeds = [graph.nodes[key].seed for key in graph.order]
    uf = seeds[0].unfrozen
    sigmas = [dict(zip(uf, p)) for p in permutations(uf)]
    rejected = 0
    for sa in seeds:
        for sb in seeds:
            if _b_profile(sa) != _b_profile(sb):
                rejected += 1
                assert not any(_b_condition(sa, sb, sigma) for sigma in sigmas)
    assert rejected == rejected_pairs


@pytest.mark.parametrize("name, scan, direction, calls, mutations", [
    ("c5p", detect_shift, -1, 6, 25),
    ("c5p", detect_shift, 1, 2, 0),
    ("a4p", detect_shift, -1, 7, 20),
    ("a4p", oracles.scanning_detect_shift, -1, 42, 120),
], ids=["c5p-minus", "c5p-plus", "a4p-minus", "a4p-minus-full-scan"])
def test_detect_shift_retracks_only_into_tori_whose_b_can_match(name, scan, direction, calls,
                                                                  mutations, monkeypatch):
    # direction -1 re-tracks the reference node into each candidate
    # torus; only those with the reference's B profile are entered (the
    # full scan, kept as the oracle, enters every torus up to the hit)
    graph = _fresh_graph(name)
    real_vars_in, real_mutate = ExchangeGraph.vars_in, expansion.mutate_tracked
    entered, mutated = [], []
    monkeypatch.setattr(ExchangeGraph, "vars_in",
                        lambda self, *a: entered.append(a) or real_vars_in(self, *a))
    monkeypatch.setattr(expansion, "mutate_tracked",
                        lambda *a: mutated.append(a[1]) or real_mutate(*a))
    scan(graph, graph.order[0], direction)
    assert (len(entered), len(mutated)) == (calls, mutations)


def test_detect_shift_truncated(a2_seed, monkeypatch):
    monkeypatch.setattr(expansion, "NODE_CAP", 2)
    g = build_exchange_graph(a2_seed)
    with pytest.raises(ShiftNotFound):
        detect_shift(g, g.order[0], 1)


def test_psi_sends_shift_units_to_negatives(a2_graph):
    t0 = a2_graph.order[0]
    up = detect_shift(a2_graph, t0, 1)
    psi = psi_matrix(a2_graph, up.target, t0)
    for k in a2_graph.reference.unfrozen:
        img = mat_vec(psi, unit_vec(2, up.sigma[k]))
        assert img == tuple(-x for x in unit_vec(2, k))


@pytest.fixture(scope="module")
def g2_graph():
    return build_exchange_graph(make_seed(((0, -3), (1, 0))))


@pytest.mark.parametrize("graph_name, gold", [
    ("a2_graph", {(-1, 0): a2_gold("I1"), (2, 0): QTElem.monomial((2, 0)),
                  (2, 1): QTElem.monomial((2, 1))}),
    ("b2_graph", {}),
    ("g2_graph", {}),
    ("a3_graph", {}),
], ids=["a2", "b2", "g2", "a3p"])
def test_inj_elements(graph_name, gold, request):
    # B2 and G2 have non-unit D, A3-principal frozen vertices
    graph = request.getfixturevalue(graph_name)
    t0 = graph.order[0]
    up = detect_shift(graph, t0, 1)
    s = graph.nodes[t0].seed
    for g, want in gold.items():
        assert inj_element(graph, up, g).expand(s) == want
    ivs = [z.expand(s) for z in i_vars(graph, up)]
    powers = {}  # the oracle's factor powers, formed once per negative part
    for g in product(range(-2, 3), repeat=s.n):
        z = inj_element(graph, up, g).expand(s)
        assert degree(s, z) == g
        assert z.terms[g].is_one()
        assert z == oracles.qtelem_distinguished(s, ivs, g, powers)


@pytest.mark.parametrize("graph_name, gold", [
    ("a2_graph", {(0, -1): a2_gold("P2"), (1, -1): a2_gold("{P2*X1}")}),
    ("b2_graph", {}),
    ("g2_graph", {}),
    ("a3_graph", {}),
], ids=["a2", "b2", "g2", "a3p"])
def test_proj_elements(graph_name, gold, request):
    graph = request.getfixturevalue(graph_name)
    t0 = graph.order[0]
    down = detect_shift(graph, t0, -1)
    s = graph.nodes[t0].seed
    for eta, want in gold.items():
        assert proj_element(graph, down, eta).expand(s) == want
    pvs = [z.expand(s) for z in p_vars(graph, down)]
    powers, op_powers = {}, {}  # each oracle's factor powers, formed once per negative part
    for eta in product(range(-2, 3), repeat=s.n):
        z = proj_element(graph, down, eta).expand(s)
        assert codegree(s, z) == eta
        assert z.terms[eta].is_one()
        assert z == oracles.direct_proj_element(s, pvs, eta, powers)
        assert z == oracles.qtelem_distinguished(opposite_seed(s), pvs, eta, op_powers)


@pytest.mark.parametrize("name", ["a2-cap3", "frozen-cap2-w1"])
def test_shift_elements_and_checks_measure_nothing(name, monkeypatch):
    # injectives, projectives, distinguished elements and the swap and
    # transport checks work in n-coordinates: no torus product, degree
    # or codegree scan runs, in whatever qcluster namespace holds it
    seed = LADDER[name][0]()
    graph = build_exchange_graph(seed)
    t0 = graph.order[0]
    up, down = detect_shift(graph, t0, 1), detect_shift(graph, t0, -1)
    ivs, pvs = i_vars(graph, up), p_vars(graph, down)
    keys = list(product(range(-1, 2), repeat=seed.n))
    inj = {g: oracles.qtelem_distinguished(seed, [z.expand(seed) for z in ivs], g)
           for g in keys}
    proj = {g: oracles.qtelem_distinguished(opposite_seed(seed), [z.expand(seed) for z in pvs], g)
            for g in keys}
    forbid(monkeypatch, qtorus.twisted_mul, pointed.degree, pointed.codegree)
    assert i_vars(graph, up) == ivs and p_vars(graph, down) == pvs
    for g in keys:
        assert inj_element(graph, up, g).expand(seed) == inj[g]
        assert proj_element(graph, down, g).expand(seed) == proj[g]
    for key in graph.order:
        for m in product(range(2), repeat=seed.n):
            assert check_swap(graph, down, key, m)
            assert check_compatibly_pointed(graph, key, m)
            assert check_compatibly_copointed(graph, key, m)


def test_distinguished_sets(a2_graph):
    t0 = a2_graph.order[0]
    s = a2_graph.nodes[t0].seed
    up = detect_shift(a2_graph, t0, 1)
    down = detect_shift(a2_graph, t0, -1)
    keys = list(product(range(-1, 2), repeat=2))
    inj = {g: inj_element(a2_graph, up, g).expand(s) for g in keys}
    proj = {eta: proj_element(a2_graph, down, eta).expand(s) for eta in keys}
    assert {degree(s, z) for z in inj.values()} == set(keys)
    assert {codegree(s, z) for z in proj.values()} == set(keys)
    assert inj[(-1, 0)] == a2_gold("I1")
    assert proj[(0, -1)] == a2_gold("P2")


def test_iota_swaps_proj_and_inj(a2_graph, a2_seed):
    down = detect_shift(a2_graph, a2_graph.order[0], -1)
    pvs = p_vars(a2_graph, down)
    gop = build_exchange_graph(opposite_seed(a2_seed))
    up_op = detect_shift(gop, gop.order[0], 1)
    ivs_op = i_vars(gop, up_op)
    assert ([p.expand(a2_graph.reference).terms for p in pvs]
            == [i.expand(gop.reference).terms for i in ivs_op])


def test_swap_proposition(a2_graph, b2_graph):
    rng = random.Random(33)
    for graph in (a2_graph, b2_graph):
        down = detect_shift(graph, graph.order[0], -1)
        keys = list(graph.order)
        for _ in range(50):
            home = rng.choice(keys)
            m = tuple(rng.randrange(3) for _ in range(graph.reference.n))
            assert check_swap(graph, down, home, m)
        for _ in range(50):
            eta = rand_vec(rng, graph.reference.n)
            g = rand_vec(rng, graph.reference.n)
            assert check_swap_order(graph, down, eta, g)


def test_swap_on_p2(a2_graph):
    down = detect_shift(a2_graph, a2_graph.order[0], -1)
    home = next(
        key
        for key in a2_graph.order
        if (0, -1) in a2_graph.nodes[key].degs
        and (1, -1) in a2_graph.nodes[key].degs
    )
    ts = a2_graph.nodes[home]
    pos = ts.degs.index((1, -1))
    assert check_swap(a2_graph, down, home, unit_vec(ts.seed.n, pos))


def test_trop_commute(a2_graph, a3_graph):
    rng = random.Random(34)
    n = a2_graph.reference.n
    samples = [unit_vec(n, i) for i in range(n)]
    samples += [tuple(-x for x in u) for u in samples]
    samples += [rand_vec(rng, n) for _ in range(20)]
    for a in a2_graph.order:
        for b in a2_graph.order:
            assert check_trop_commute(a2_graph, a, b, samples)
    n3 = a3_graph.reference.n
    samples3 = [unit_vec(n3, i) for i in range(n3)]
    samples3 += [tuple(-x for x in u) for u in samples3]
    samples3 += [rand_vec(rng, n3) for _ in range(20)]
    keys = list(a3_graph.order)
    for _ in range(10):
        assert check_trop_commute(a3_graph, rng.choice(keys), rng.choice(keys), samples3)


def test_compatibly_pointed_a2_cap2(a2_graph):
    for key in a2_graph.order:
        for m in product(range(3), repeat=2):
            assert check_compatibly_pointed(a2_graph, key, m)
            assert check_compatibly_copointed(a2_graph, key, m)


def test_phi_fixes_frozen_monomials(pa2_graph):
    # frozen-supported vectors never move
    g = (0, 0, 2, -1)
    for a in pa2_graph.order:
        for b in pa2_graph.order:
            assert phi(pa2_graph, a, b, g) == g


def test_substitution_smoke(a2_graph, b2_graph):
    # [X^d * I^d']: products of initial monomials with injective powers
    # decompose unitriangularly with coefficients below 1 in v-degree
    from qcluster.leclerc import CandidateBasis

    for graph, cap in ((a2_graph, 2), (b2_graph, 2)):
        t0 = graph.order[0]
        s = graph.nodes[t0].seed
        lam = s.Lambda
        up = detect_shift(graph, t0, 1)
        ivs = [z.expand(s) for z in i_vars(graph, up)]
        basis = CandidateBasis(graph, unfrozen_cap=cap)
        for d in product(range(2), repeat=s.n):
            for dp in product(range(2), repeat=len(s.unfrozen)):
                z = QTElem.monomial(d)
                for k, e in zip(s.unfrozen, dp):
                    for _ in range(e):
                        z = twisted_mul(z, ivs[s.col(k)], lam)
                z = normalize_deg(s, z)
                top = degree(s, z)
                bot = codegree(s, z)
                window = Bidegree(deg=top, codeg=bot)
                pset = basis.window_set(t0)
                dec = oracles.n_form_decompose(s, z, pset, window)
                assert dec.is_exact
                assert is_m_unitriangular(dec, top)
