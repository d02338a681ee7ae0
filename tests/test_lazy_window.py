"""The window_set lookup, resolved on demand, against the eager window
reference, and the integer inverse maps."""
import pytest

import oracles
from qcluster import _linalg, opposite_seed, pointed
from qcluster.leclerc import CandidateBasis, default_r_specs
from oracles import Bidegree
from qcluster.qtorus import QTElem, unit_vec, vec_add, vec_sub


def _sweep_windows(graph, basis):
    """(torus, window) of every verify_pair product of the default sweep."""
    windows = set()
    for r_home, r_m in default_r_specs(graph):
        t_seed = graph.nodes[r_home].seed
        for g_ref in basis.degree_keys():
            z_v = graph.monomial_in(*basis.by_degree[g_ref], r_home).expand(t_seed)
            gamma = pointed.degree(t_seed, z_v)
            eta = pointed.codegree(t_seed, z_v)
            windows.add((r_home, Bidegree(vec_add(r_m, gamma), vec_add(r_m, eta))))
    return sorted(windows, key=lambda w: (w[0], w[1].deg, w[1].codeg))


def _codegree_windows(graph, basis):
    """(torus, window) of every product check_triangular decomposes when co."""
    windows = set()
    for t_key in graph.order:
        t_seed = graph.nodes[t_key].seed
        for g_ref in basis.degree_keys():
            elem = graph.monomial_in(*basis.by_degree[g_ref], t_key).expand(t_seed)
            bid = oracles.bidegree(t_seed, elem)
            for i in range(t_seed.n):
                e_i = unit_vec(t_seed.n, i)
                windows.add((t_key, Bidegree(vec_add(bid.deg, e_i), vec_add(bid.codeg, e_i))))
    return sorted(windows, key=lambda w: (w[0], w[1].deg, w[1].codeg))


def _assert_escapes(seed, z, g, view, window, co):
    """z, whose first pivot is g, is refused before any lookup; when co,
    decompose runs in the opposite seed with the window's ends traded."""
    if co:
        seed, window = opposite_seed(seed), Bidegree(deg=window.codeg, codeg=window.deg)
    decomp = oracles.n_form_decompose(seed, z, view, window)
    assert decomp.terms == []
    assert decomp.reason == f"support degree {g} escapes the window"


def _assert_view_matches_eager(basis, windows, co):
    graph = basis.graph
    points = 0
    for torus_key, window in windows:
        seed = graph.nodes[torus_key].seed
        view = basis.window_set(torus_key, co=co)
        eager = oracles.eager_window(basis, torus_key, window, co=co)
        for g in pointed.interval(seed, window.codeg, window.deg):
            assert view(g) == eager.get(g), (torus_key, window, g)
            points += 1
        # decompose keeps the view inside the window: one step above the
        # top and one step below the bottom escape it
        for col in zip(*seed.B):
            for g in (vec_sub(window.deg, col), vec_add(window.codeg, col)):
                _assert_escapes(seed, QTElem.monomial(g), g, view, window, co)
    assert not basis.conflicts
    return points


@pytest.mark.parametrize("graph_name, cap", [
    ("a2_graph", 2), ("b2_graph", 2), ("a3_graph", 1),
])
def test_lazy_window_matches_eager_on_sweeps(request, graph_name, cap):
    graph = request.getfixturevalue(graph_name)
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    windows = _sweep_windows(graph, basis)
    assert _assert_view_matches_eager(basis, windows, co=False) > len(windows)


def test_lazy_codegree_window_matches_eager_a2(a2_graph):
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    windows = _codegree_windows(a2_graph, basis)
    assert _assert_view_matches_eager(basis, windows, co=True) > len(windows)


def test_outside_points_resolve_yet_stay_hidden(a2_graph):
    # the point above the window is a basis degree: decompose hides it
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    t0 = a2_graph.order[0]
    seed = a2_graph.nodes[t0].seed
    window = Bidegree(deg=(1, -1), codeg=(0, -1))
    above = vec_sub(window.deg, next(zip(*seed.B)))
    view = basis.window_set(t0)
    assert view(above) is not None
    _assert_escapes(seed, view(above).expand(seed), above, view, window, co=False)


def test_integer_inverse_maps_a3(a3_graph):
    basis = CandidateBasis(a3_graph, unfrozen_cap=0)
    n = a3_graph.reference.n
    for co, extremal in ((False, pointed.degree), (True, pointed.codegree)):
        for home in a3_graph.order:
            for torus in a3_graph.order:
                torus_seed = a3_graph.nodes[torus].seed
                cols = [extremal(torus_seed, z.expand(torus_seed))
                        for z in a3_graph.vars_in(home, torus)]
                inv = basis._inverse_map(home, torus, co)
                assert _linalg.mat_mul(inv, _linalg.transpose(cols)) == _linalg.identity(n)
