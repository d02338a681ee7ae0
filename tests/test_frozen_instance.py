"""A two-vertex exchange pattern with one weighted frozen vertex.

Unlike the principal framings, the backward shift here carries nonzero
frozen corrections, so the frozen factors inside the distinguished
elements and the frozen window of the candidate basis actually bite.
"""
from itertools import product

import pytest

import oracles
from conftest import assert_matches_eager_enumeration
from qcluster import make_seed
from qcluster.expansion import build_exchange_graph
from qcluster._linalg import mat_vec
from qcluster.leclerc import CandidateBasis, default_r_specs, verify_pair, verify_theorem
from qcluster.pointed import codegree, degree
from qcluster.qtorus import QTElem, unit_vec
from qcluster.tropical import (
    check_compatibly_copointed,
    check_compatibly_pointed,
    check_swap,
    detect_shift,
    i_vars,
    inj_element,
    p_vars,
    phi,
    proj_element,
    psi_matrix,
)


@pytest.fixture(scope="module")
def seed():
    return make_seed(((0, -1), (1, 0), (1, 1)), unfrozen=(0, 1))


@pytest.fixture(scope="module")
def graph(seed):
    return build_exchange_graph(seed)


def test_graph_shape(graph):
    assert not graph.truncated
    assert len(graph.order) == 5
    assert len(graph.distinct_variables()) == 5
    for key in graph.order:
        ts = graph.nodes[key]
        assert ts.vars[2].expand(ts.ref) == QTElem.monomial(unit_vec(3, 2))


def test_recorded_degrees_match_a_fresh_scan(graph):
    assert oracles.recorded_degrees(graph) == oracles.fresh_degrees(graph)


def test_psi_fixes_frozen_units_at_shift(graph, seed):
    up = detect_shift(graph, graph.order[0], 1)
    psi = psi_matrix(graph, up.target, graph.order[0])
    for i in seed.frozen:
        assert mat_vec(psi, unit_vec(seed.n, i)) == unit_vec(seed.n, i)
    for k in seed.unfrozen:
        img = mat_vec(psi, unit_vec(seed.n, up.sigma[k]))
        assert img[k] == -1
        assert all(img[j] == 0 for j in seed.unfrozen if j != k)


def test_backward_shift_has_frozen_corrections(graph, seed):
    down = detect_shift(graph, graph.order[0], -1)
    assert any(any(x != 0 for x in u) for u in down.u.values())
    pvs = p_vars(graph, down)
    for k, z in zip(seed.unfrozen, pvs):
        eta = codegree(seed, z.expand(seed))
        assert eta[k] == -1
        assert all(eta[i] == 0 for i in seed.unfrozen if i != k)
        assert eta[2] != 0  # the frozen coordinate is genuinely corrected


def test_inj_and_proj_with_frozen_factor(graph, seed):
    up = detect_shift(graph, graph.order[0], 1)
    down = detect_shift(graph, graph.order[0], -1)
    pvs = [z.expand(seed) for z in p_vars(graph, down)]
    for g in product(range(-2, 2), range(-2, 2), range(-1, 2)):
        z = inj_element(graph, up, g).expand(seed)
        assert degree(seed, z) == g and z.terms[g].is_one()
        w = proj_element(graph, down, g).expand(seed)
        assert codegree(seed, w) == g and w.terms[g].is_one()
        assert w == oracles.direct_proj_element(seed, pvs, g)


def test_compatibility_with_frozen_exponents(graph):
    for key in graph.order:
        for m in ((1, 0, 1), (0, 2, -1), (1, 1, 0)):
            assert check_compatibly_pointed(graph, key, m)
            assert check_compatibly_copointed(graph, key, m)


def test_phi_fixes_frozen_support(graph):
    g = (0, 0, 3)
    for a in graph.order:
        for b in graph.order:
            assert phi(graph, a, b, g) == g


def test_swap_with_frozen_vertex(graph):
    down = detect_shift(graph, graph.order[0], -1)
    for key in graph.order:
        for m in ((1, 0, 0), (0, 1, -1), (2, 1, 1)):
            assert check_swap(graph, down, key, m)


def test_product_sweep_with_frozen_window(graph):
    basis = CandidateBasis(graph, unfrozen_cap=2, frozen_window=1)
    assert not basis.conflicts
    assert_matches_eager_enumeration(basis, frozen_window=1)
    # frozen exponents enlarge the basis beyond the coefficient-free count
    assert len(basis.by_degree) == 3 * len(
        CandidateBasis(graph, unfrozen_cap=2).by_degree
    )
    report = verify_theorem(basis)
    assert report.counts()["two_tail_fail"] == 0
    assert report.counts()["indeterminate"] == 0
    assert report.ok
    for v in report.verdicts:
        if v.case == "two_tail":
            assert v.s > v.h


def test_lookup_by_degree_returns_v(graph):
    basis = CandidateBasis(graph, unfrozen_cap=2, frozen_window=1)
    for r_home, r_m in default_r_specs(graph):
        for home, m in basis.by_degree.values():
            z = graph.monomial_in(home, m, r_home)
            g = mat_vec(psi_matrix(graph, home, r_home), m)
            assert basis.element_at_degree(r_home, g) == z
            v = verify_pair(basis, r_home, r_m, home, m)
            seed = graph.nodes[r_home].seed
            assert v.v_degree == degree(seed, z.expand(seed))
    assert not basis.conflicts
