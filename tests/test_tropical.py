import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import LADDER, a2_gold, forbid, principal_framings
from oracles import Bidegree, normalize_deg
from qcluster import make_seed, opposite_seed, pointed, qtorus
from qcluster._linalg import mat_vec
from qcluster.expansion import build_exchange_graph
from qcluster.pointed import codegree, degree, is_m_unitriangular
from qcluster.qtorus import QTElem, twisted_mul, unit_vec
from qcluster.tropical import (
    ShiftNotFound,
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
    from qcluster.seed import mutate_seed

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
    ivs = i_vars(a2_graph, up)
    assert ivs[0] == a2_gold("I1")
    assert ivs[1] == a2_gold("P1")  # I2
    for k in a2_graph.reference.unfrozen:
        d = degree(a2_graph.reference, ivs[k])
        assert d == tuple(-x for x in unit_vec(2, k))
    down = detect_shift(a2_graph, t0, -1)
    pvs = p_vars(a2_graph, down)
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


def test_detect_shift_truncated(a2_seed):
    g = build_exchange_graph(a2_seed, node_cap=2)
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
        assert inj_element(graph, up, g) == want
    ivs = i_vars(graph, up)
    for g in product(range(-2, 3), repeat=s.n):
        z = inj_element(graph, up, g)
        assert degree(s, z) == g
        assert z.terms[g].is_one()
        assert z == oracles.qtelem_distinguished(s, ivs, g)


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
        assert proj_element(graph, down, eta) == want
    pvs = p_vars(graph, down)
    for eta in product(range(-2, 3), repeat=s.n):
        z = proj_element(graph, down, eta)
        assert codegree(s, z) == eta
        assert z.terms[eta].is_one()
        assert z == oracles.direct_proj_element(graph, down, eta)
        assert z == oracles.qtelem_distinguished(opposite_seed(s), pvs, eta)


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
    inj = {g: oracles.qtelem_distinguished(seed, ivs, g) for g in keys}
    proj = {g: oracles.qtelem_distinguished(opposite_seed(seed), pvs, g) for g in keys}
    forbid(monkeypatch, qtorus.twisted_mul, pointed.degree, pointed.codegree)
    assert i_vars(graph, up) == ivs and p_vars(graph, down) == pvs
    for g in keys:
        assert inj_element(graph, up, g) == inj[g]
        assert proj_element(graph, down, g) == proj[g]
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
    inj = {g: inj_element(a2_graph, up, g) for g in keys}
    proj = {eta: proj_element(a2_graph, down, eta) for eta in keys}
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
    assert [p.terms for p in pvs] == [i.terms for i in ivs_op]


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
        ivs = i_vars(graph, up)
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
