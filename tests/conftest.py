import sys

import pytest
from hypothesis import strategies as st

import oracles
from qcluster import build_exchange_graph, expansion, make_seed, mutate_seed, principal_framing
from qcluster.qtorus import QTElem, VCoeff

A2_B = ((0, -1), (1, 0))
A2_LAMBDA = ((0, -1), (1, 0))
B2_B = ((0, -2), (1, 0))
B2_LAMBDA = ((0, -1), (1, 0))
A3_B = ((0, -1, 0), (1, 0, -1), (0, 1, 0))
B3_B = ((0, -1, 0), (1, 0, -1), (0, 2, 0))
D4_B = ((0, -1, 0, 0), (1, 0, -1, -1), (0, 1, 0, 0), (0, 1, 0, 0))


def elem(dim, terms):
    """Build a torus element from {exponent: int | {v-exp: int}}."""
    built = {}
    for m, c in terms.items():
        built[m] = VCoeff(c if isinstance(c, dict) else {0: c})
    return QTElem(dim, built)


# the worked two-vertex example: variables and all eight normalized products
A2_GOLD = {
    "X1": {(1, 0): 1},
    "X2": {(0, 1): 1},
    "P2": {(1, -1): 1, (0, -1): 1},
    "P1": {(0, -1): 1, (-1, -1): 1, (-1, 0): 1},
    "I1": {(-1, 0): 1, (-1, 1): 1},
    "[X1*I1]": {(0, 0): 1, (0, 1): {-1: 1}},
    "[X1*I2]": {(1, -1): 1, (0, -1): 1, (0, 0): {-1: 1}},
    "[X2*I1]": {(-1, 1): 1, (-1, 2): 1},
    "[X2*I2]": {(0, 0): 1, (-1, 0): {-1: 1}, (-1, 1): {-1: 1}},
    "{P1*X1}": {(1, -1): {-1: 1}, (0, -1): {-1: 1}, (0, 0): 1},
    "{P1*X2}": {(0, 0): {-1: 1}, (-1, 0): 1, (-1, 1): 1},
    "{P2*X1}": {(2, -1): 1, (1, -1): 1},
    "{P2*X2}": {(1, 0): {-1: 1}, (0, 0): 1},
}


def a2_gold(name):
    return elem(2, A2_GOLD[name])


def forbid(monkeypatch, *fns):
    """Make every call of the functions fns fail, in whatever qcluster
    namespace holds them (names imported with from-imports too)."""
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "qcluster"]:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in fns):
                monkeypatch.setattr(module, attr, lambda *a, _n=attr, **k: pytest.fail(_n))


def assert_matches_eager_enumeration(basis, frozen_window=0):
    """The basis's keys, codegree keys and provenance are those of the
    eager reference enumeration, and so is the element each key looks up
    in the reference torus."""
    graph = basis.graph
    t0 = graph.order[0]
    by_degree, by_codegree, provenance = oracles.eager_enumeration(
        graph, basis.unfrozen_cap, frozen_window)
    assert list(basis.by_degree.items()) == list(provenance.items())
    assert basis.by_codegree.keys() == by_codegree.keys()
    for g, elem in by_degree.items():
        assert basis.element_at_degree(t0, g) == elem
    for eta, elem in by_codegree.items():
        assert basis.element_at_degree(t0, basis.by_codegree[eta]) == elem


def retracked(graph, home, torus):
    """home's labeled seed re-tracked into the torus, as vars_in caches
    it."""
    graph.vars_in(home, torus)
    return graph._cross[torus][home]


def assert_reference_retracked_again(graph, monkeypatch):
    """After forget(t0), re-entering the reference torus costs one
    mutate_tracked per node other than its own, as in any other torus;
    each node's variables there equal its own and are the torus's stored
    one-factor cluster monomials."""
    t0 = graph.order[0]
    assert t0 not in graph._cross and t0 not in graph._monomials
    calls, real = [], expansion.mutate_tracked
    monkeypatch.setattr(expansion, "mutate_tracked", lambda *a: calls.append(a) or real(*a))
    for home in graph.order:
        ts = graph.nodes[home]
        xs = graph.vars_in(home, t0)
        assert xs == ts.vars, home
        assert all(x is graph._monomials[t0][((d, 1),)] for d, x in zip(ts.degs, xs)), home
    assert len(calls) == len(graph.order) - 1
    monkeypatch.setattr(expansion, "mutate_tracked", real)


# the benchmark's ladder-small rungs: (seed maker, unfrozen cap, frozen window)
LADDER = {
    "a2-cap3": (lambda: make_seed(A2_B, A2_LAMBDA), 3, 0),
    "b2-cap2": (lambda: make_seed(B2_B, B2_LAMBDA), 2, 0),
    "g2-cap1": (lambda: make_seed(((0, -3), (1, 0))), 1, 0),
    "frozen-cap2-w1": (lambda: make_seed(((0, -1), (1, 0), (1, 1)), unfrozen=(0, 1)), 2, 1),
    "a3p-cap1": (lambda: principal_framing(A3_B), 1, 0),
}


@pytest.fixture(scope="session")
def a2_seed():
    return make_seed(A2_B, A2_LAMBDA)


@pytest.fixture(scope="session")
def b2_seed():
    return make_seed(B2_B, B2_LAMBDA)


@pytest.fixture(scope="session")
def pa2_seed():
    return principal_framing(A2_B)


@pytest.fixture(scope="session")
def a3_seed():
    return principal_framing(A3_B)


@pytest.fixture(scope="session")
def a2_graph(a2_seed):
    return build_exchange_graph(a2_seed)


@pytest.fixture(scope="session")
def b2_graph(b2_seed):
    return build_exchange_graph(b2_seed)


@pytest.fixture(scope="session")
def pa2_graph(pa2_seed):
    return build_exchange_graph(pa2_seed)


@pytest.fixture(scope="session")
def a3_graph(a3_seed):
    return build_exchange_graph(a3_seed)


@st.composite
def skew_symmetrizable_matrices(draw, nuf):
    """A nuf x nuf integer matrix B with D B skew-symmetric for a drawn
    positive diagonal D with entries up to 3."""
    d = draw(st.lists(st.integers(1, 3), min_size=nuf, max_size=nuf))
    principal = [[0] * nuf for _ in range(nuf)]
    for i in range(nuf):
        for j in range(i + 1, nuf):
            # (D B)_ij = s = -(D B)_ji, with s a multiple of lcm(d_i, d_j)
            s = draw(st.integers(-2, 2)) * d[i] * d[j]
            principal[i][j], principal[j][i] = s // d[i], -s // d[j]
    return principal


@st.composite
def principal_framings(draw, max_rank=3, max_word=2):
    """The principal framing of a random skew-symmetrizable matrix of
    rank 1..max_rank, mutated along a random word of length <= max_word."""
    seed = principal_framing(draw(skew_symmetrizable_matrices(draw(st.integers(1, max_rank)))))
    for k in draw(st.lists(st.sampled_from(seed.unfrozen), max_size=max_word)):
        seed = mutate_seed(seed, k)
    return seed
