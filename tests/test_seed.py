import pathlib
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    A2_B,
    A2_LAMBDA,
    A3_B,
    B2_B,
    B2_LAMBDA,
    principal_framings,
    skew_symmetrizable_matrices,
)
from qcluster import (
    QuantumSeed,
    _linalg,
    build_exchange_graph,
    check_compatible,
    find_compatible_lambda,
    make_seed,
    mutate_seed,
    opposite_seed,
    pointed,
    principal_framing,
)
from qcluster import seed as seed_module
from qcluster.cli import load_seed
from qcluster.leclerc import CandidateBasis, verify_theorem
from qcluster.qtorus import unit_vec
from qcluster.seed import IncompatiblePair, IncompatibleResult, NoCompatibleLambda

DATA = pathlib.Path(__file__).parent / "data"
BENCH_SEEDS = DATA.parent.parent / "bench" / "seeds"


def test_a2_compatible(a2_seed):
    ok, diag = check_compatible(a2_seed)
    assert ok and diag == ""
    assert a2_seed.D == (1, 1)


def test_zero_lambda_incompatible():
    s = QuantumSeed(2, (0, 1), A2_B, ((0, 0), (0, 0)), (1, 1))
    ok, diag = check_compatible(s)
    assert not ok
    assert "expected" in diag


def test_b2_compatible(b2_seed):
    ok, _ = check_compatible(b2_seed)
    assert ok
    assert b2_seed.D == (1, 2)


def test_mutate_a2(a2_seed):
    s1 = mutate_seed(a2_seed, 0)
    assert s1.B == ((0, 1), (-1, 0))
    assert s1.Lambda == ((0, 1), (-1, 0))
    assert s1.D == a2_seed.D
    assert mutate_seed(s1, 0) == a2_seed


def test_mutate_involution_everywhere(a2_seed, b2_seed, pa2_seed, a3_seed):
    for s in (a2_seed, b2_seed, pa2_seed, a3_seed):
        for k in s.unfrozen:
            assert mutate_seed(mutate_seed(s, k), k) == s


def test_mutate_frozen_rejected(pa2_seed):
    for _ in range(2):  # a refused call is not cached: it raises again
        with pytest.raises(ValueError):
            mutate_seed(pa2_seed, 2)


@pytest.mark.parametrize("b, lam, message", [
    # compatible with neither sign: both conjugations agree, the check fails
    (A2_B, ((0, 0), (0, 0)), "broke compatibility"),
    # B^T Lambda = (1 1 -2) is not (D 0), and the two conjugations differ
    (((0,), (1,), (1,)), ((0, -1, -1), (1, 0, -1), (1, 1, 0)), "sign conventions disagree"),
    # the mutated pair is bad at (1, 1), (1, 2), (1, 3), (2, 0) and (2, 2):
    # the first in row-major order is named, not (2, 0), the first by column
    (((0, 1, 0), (-1, 0, -1), (0, 1, 0), (1, 0, 0)),
     ((0, 1, 1, 0), (-1, 0, 1, 0), (-1, -1, 0, -1), (0, 0, 1, 0)),
     r"broke compatibility: \(B\^T Lambda\)\[1\]\[1\] = 0, expected 1$"),
])
def test_mutating_an_incompatible_seed_raises(b, lam, message, monkeypatch):
    # built directly, bypassing make_seed's compatibility check
    seed = QuantumSeed(len(b), tuple(range(len(b[0]))), b, lam, (1,) * len(b[0]))
    assert not check_compatible(seed)[0]
    checks, real = [], seed_module.check_compatible
    monkeypatch.setattr(seed_module, "check_compatible", lambda s: checks.append(s) or real(s))
    interned = seed_module._interned.cache_info().currsize
    for _ in range(2):  # a refused call is not cached: it raises again
        with pytest.raises(IncompatibleResult, match=message):
            mutate_seed(seed, 0)
    # nor is the refused seed interned: each call checks it again
    assert len(checks) == (2 if "compatibility" in message else 0)
    assert seed_module._interned.cache_info().currsize == interned


@pytest.mark.parametrize("lam", [((0, 1), (1, 0)), ((1, -1), (1, 0)), ((0, 2), (-1, 0))])
def test_a_lambda_that_is_not_skew_is_refused(lam):
    with pytest.raises(ValueError, match="Lambda must be skew-symmetric"):
        QuantumSeed(2, (0, 1), A2_B, lam, (1, 1))


def test_principal_mutation_keeps_rank_and_compat(pa2_seed):
    s1 = mutate_seed(pa2_seed, 0)
    ok, _ = check_compatible(s1)
    assert ok
    assert s1.D == pa2_seed.D


def test_compat_along_random_words(a2_seed, b2_seed, pa2_seed, a3_seed):
    rng = random.Random(9)
    for s in (a2_seed, b2_seed, pa2_seed, a3_seed):
        cur = s
        for _ in range(8):
            cur = mutate_seed(cur, rng.choice(cur.unfrozen))
            ok, diag = check_compatible(cur)
            assert ok, diag
            assert cur.D == s.D


def test_lambda_pairing_lemma(a2_seed, b2_seed, pa2_seed, a3_seed):
    # lam(f_i, B e_k) = -delta_ik * d_k
    for s in (a2_seed, b2_seed, pa2_seed, a3_seed):
        for i in range(s.n):
            for k in s.unfrozen:
                b_ek = tuple(row[s.col(k)] for row in s.B)
                val = s.lam(unit_vec(s.n, i), b_ek)
                want = -s.D[s.col(k)] if i == k else 0
                assert val == want


def test_opposite_seed(a2_seed):
    op = opposite_seed(a2_seed)
    assert op.B == ((0, 1), (-1, 0))
    assert op.Lambda == ((0, 1), (-1, 0))
    assert opposite_seed(op) == a2_seed
    assert check_compatible(op)[0]


def test_seeds_built_apart_from_equal_data_are_equal_and_share_caches():
    # every seed is the seed constructor's one object of its fields, and
    # every per-seed cache is keyed by the seed's value
    a, b = principal_framing(A3_B), principal_framing([list(row) for row in A3_B])
    assert a is b and hash(a) == hash(QuantumSeed(a.n, a.unfrozen, a.B, a.Lambda, a.D))
    assert opposite_seed(b) is opposite_seed(a)
    assert pointed._seed_data(b) is pointed._seed_data(a)
    assert a != (a.n, a.unfrozen, a.B, a.Lambda, a.D)
    assert a != mutate_seed(a, 0) and mutate_seed(mutate_seed(a, 0), 0) is a


def test_every_seed_is_the_constructors_one_checked_object(monkeypatch):
    # make_seed, mutate_seed and opposite_seed all return the seed
    # constructor's object (seed._interned), a refused pair is not kept,
    # and pointed's per-seed record has one entry per seed worked
    mutate_seed.cache_clear()
    seed_module._interned.cache_clear()
    pointed._seed_data.cache_clear()

    def constructed(s):
        return seed_module._interned(s.n, s.unfrozen, s.B, s.Lambda, s.D) is s

    a = make_seed(B2_B)
    assert make_seed([list(row) for row in B2_B]) is a and constructed(a)
    assert make_seed(a.B, a.Lambda) is a and make_seed(a.B, d=a.D) is a
    op = opposite_seed(a)
    assert op is not a and opposite_seed(op) is a and constructed(op)
    assert seed_module._interned.cache_info().currsize == 2
    for _ in range(2):  # a refused call is not cached: it raises again
        with pytest.raises(IncompatiblePair, match="expected 1"):
            make_seed(A2_B, ((0, 0), (0, 0)), d=(1, 1))
    assert seed_module._interned.cache_info().currsize == 2

    worked, real = [], pointed._seed_data
    monkeypatch.setattr(pointed, "_seed_data", lambda s: worked.append(s) or real(s))
    graph = build_exchange_graph(principal_framing(A3_B))
    retracked, forget = {}, graph.forget
    monkeypatch.setattr(graph, "forget", lambda torus: retracked.update(
        {torus: [ts.seed for ts in graph._cross[torus].values()]}) or forget(torus))
    assert verify_theorem(CandidateBasis(graph, unfrozen_cap=1)).ok
    seeds = [ts.seed for ts in graph.nodes.values()]
    assert len(seeds) == 14 and len(retracked) == 7  # the R homes, each read before forget
    assert all(len(held) == 14 and all(map(constructed, held)) for held in retracked.values())
    assert all(map(constructed, seeds))
    assert {id(s) for held in retracked.values() for s in held} == {id(s) for s in seeds}
    # the build's torus and the sweep's home tori: one record per seed
    homes = {id(graph.nodes[home].seed) for home in retracked}
    assert {id(s) for s in worked} == homes
    assert real.cache_info().currsize == len(homes) == 7


def test_a_labeled_seed_is_mutated_once_per_vertex(monkeypatch):
    # mutate_seed is cached per (seed, k): a repeat, on the seed or on an
    # equal one built apart, computes no conjugation (two per mutation
    # made, one per sign convention) and returns the first call's seed
    mutate_seed.cache_clear()
    conjugations, real = [], seed_module._conjugated_lambda
    monkeypatch.setattr(seed_module, "_conjugated_lambda",
                        lambda *a: conjugations.append(a) or real(*a))
    a = principal_framing(A3_B)
    first = [mutate_seed(a, k) for k in a.unfrozen]
    assert len(conjugations) == 2 * len(a.unfrozen)
    again = [mutate_seed(principal_framing(A3_B), k) for k in a.unfrozen]
    assert all(x is y for x, y in zip(first, again))
    assert len(conjugations) == 2 * len(a.unfrozen)
    assert mutate_seed(first[0], 0) == a and len(conjugations) == 2 * len(a.unfrozen) + 2


def test_opposite_commutes_with_mutation(a2_seed, b2_seed, a3_seed):
    for s in (a2_seed, b2_seed, a3_seed):
        for k in s.unfrozen:
            assert opposite_seed(mutate_seed(s, k)) == mutate_seed(opposite_seed(s), k)


class TestFindCompatibleLambda:
    def test_a2(self):
        lam, d = find_compatible_lambda(A2_B)
        assert lam == A2_LAMBDA
        assert d == (1, 1)

    def test_b2(self):
        lam, d = find_compatible_lambda(B2_B)
        assert lam == B2_LAMBDA
        assert d == (1, 2)

    def test_rank_deficient_rejected(self):
        # the coefficient-free three-vertex chain has rank 2 < 3
        with pytest.raises(ValueError):
            find_compatible_lambda(A3_B)

    def test_exhausted_search(self):
        # full rank, but a skew 1x1 form is always zero
        with pytest.raises(NoCompatibleLambda):
            find_compatible_lambda(((1,),))

    def test_principal_framing_always_solvable(self):
        rows = list(A3_B) + [unit_vec(3, i) for i in range(3)]
        lam, d = find_compatible_lambda(tuple(rows), unfrozen=(0, 1, 2))
        s = QuantumSeed(6, (0, 1, 2), tuple(rows), lam, d)
        assert check_compatible(s)[0]

    def test_make_seed_synthesizes(self):
        s = make_seed(B2_B)
        assert s.Lambda == B2_LAMBDA and s.D == (1, 2)

    def test_non_symmetrizable_rejected(self):
        # b_01 and b_10 share a sign, so no positive D makes D B skew
        with pytest.raises(NoCompatibleLambda):
            find_compatible_lambda(((0, 1), (1, 0), (1, 0), (0, 1)))

    def test_frozen_rows_force_a_multiple(self):
        # the minimal symmetrizer is (1,), but B^T Lambda = (D 0) needs D even
        lam, d = find_compatible_lambda(((0,), (2,)))
        assert d == (2,) and lam == ((0, -1), (1, 0))

    @pytest.mark.parametrize("m", [5, 6])
    def test_c_chain_principal_framing(self, m):
        b = [[0] * m for _ in range(m)]
        for i in range(m - 1):
            b[i + 1][i], b[i][i + 1] = 1, -1
        b[m - 1][m - 2] = 2
        t0 = time.perf_counter()
        s = principal_framing(b)
        assert time.perf_counter() - t0 < 5.0
        assert s.D == (2,) * (m - 1) + (1,)


class TestMakeSeed:
    def test_honors_given_d(self):
        s = make_seed(B2_B, d=(2, 4))
        assert s.D == (2, 4)
        assert s.Lambda == ((0, -2), (2, 0))

    def test_unsolvable_d(self):
        with pytest.raises(NoCompatibleLambda):
            make_seed(B2_B, d=(5, 5))

    def test_d_of_wrong_length(self):
        with pytest.raises(ValueError):
            make_seed(B2_B, d=(1,))

    def test_derives_d_from_lambda(self):
        assert make_seed(B2_B, B2_LAMBDA).D == (1, 2)

    def test_incompatible_pair(self):
        with pytest.raises(IncompatiblePair):
            make_seed(A2_B, ((0, 0), (0, 0)), d=(1, 1))

    @pytest.mark.parametrize("lam, entry", [
        (((0, 0), (0, 0)), 0), (tuple(tuple(-x for x in row) for row in A2_LAMBDA), -1)],
        ids=["zero", "negated"])
    def test_a_lambda_whose_diagonal_is_not_positive_is_incompatible(self, lam, entry):
        # with lam alone, D is read off B^T Lambda: a non-positive entry
        # there fails the pair, like a mismatch against a given D
        with pytest.raises(IncompatiblePair, match=re.escape(
                f"(B^T Lambda)[0][0] = {entry}, expected a positive entry")):
            make_seed(A2_B, lam)

    def test_a_malformed_lambda_is_refused_before_d_is_read(self):
        with pytest.raises(ValueError, match="Lambda must be n x n"):
            make_seed(A2_B, ((0,),))

    @pytest.mark.parametrize("unfrozen, b, message", [
        ((0, 2), A2_B, "unfrozen must be distinct vertex indices"),
        ((1, 1), A2_B, "unfrozen must be distinct vertex indices"),
        (None, ((0, -1), (1,)), "B must be n x |unfrozen|"),
    ])
    @pytest.mark.parametrize("lam, d", [(None, None), (None, (1, 1)), (A2_LAMBDA, None),
                                        (A2_LAMBDA, (1, 1))],
                             ids=["synthesized", "d-only", "lambda-only", "both"])
    def test_one_shape_check_names_a_malformed_exchange_matrix(self, unfrozen, b, message,
                                                                lam, d):
        # whether Lambda is given, solved for a given D or synthesized
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_seed(b, lam, unfrozen, d)


@st.composite
def exchange_matrices(draw):
    """(btilde, unfrozen) with at most three unfrozen vertices.

    The principal part is either skew-symmetrizable by a drawn D or
    arbitrary; the frozen rows are either a principal framing or
    arbitrary; the vertices are then shuffled.
    """
    nuf = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        principal = draw(skew_symmetrizable_matrices(nuf))
    else:
        principal = draw(st.lists(st.lists(small, min_size=nuf, max_size=nuf),
                                  min_size=nuf, max_size=nuf))
    if draw(st.booleans()):
        frozen = [list(unit_vec(nuf, i)) for i in range(nuf)]
    else:
        frozen = draw(st.lists(st.lists(small, min_size=nuf, max_size=nuf), max_size=2))
    rows = principal + frozen
    order = draw(st.permutations(range(len(rows))))
    btilde = [None] * len(rows)
    for old, new in enumerate(order):
        btilde[new] = tuple(rows[old])
    return tuple(btilde), tuple(order[:nuf])


@settings(max_examples=60, deadline=None)
@given(exchange_matrices())
def test_synthesis_matches_exhaustive_scan(case):
    btilde, unfrozen = case
    try:
        want = oracles.scan_compatible_lambda(btilde, unfrozen)
    except (ValueError, NoCompatibleLambda) as exc:
        with pytest.raises(type(exc)):
            find_compatible_lambda(btilde, unfrozen)
    else:
        assert find_compatible_lambda(btilde, unfrozen) == want


@settings(max_examples=60, deadline=None)
@given(principal_framings(), st.data())
def test_mutation_is_an_involution(seed, data):
    k = data.draw(st.sampled_from(seed.unfrozen))
    assert mutate_seed(mutate_seed(seed, k), k) == seed


@settings(max_examples=60, deadline=None)
@given(principal_framings(), st.data())
def test_mutated_lambda_matches_dense_conjugation(seed, data):
    # Lambda' = E^T Lambda E by two dense products under each sign
    # convention, B' by the matrix rule written apart, D unchanged
    for k in data.draw(st.lists(st.sampled_from(seed.unfrozen), min_size=1, max_size=4)):
        assert oracles.dense_mutation_mismatch(seed, k) is None
        seed = mutate_seed(seed, k)


@settings(max_examples=60, deadline=None)
@given(exchange_matrices(), st.data())
def test_mutation_with_arbitrary_frozen_rows_matches_the_dense_references(case, data):
    btilde, unfrozen = case
    try:
        seed = make_seed(btilde, unfrozen=unfrozen)
    except (ValueError, NoCompatibleLambda):
        assume(False)
    for k in data.draw(st.lists(st.sampled_from(unfrozen), min_size=1, max_size=4)):
        assert oracles.dense_mutation_mismatch(seed, k) is None
        seed = mutate_seed(seed, k)


@pytest.mark.parametrize("path, mutations", [
    pytest.param(BENCH_SEEDS / "c5p.json", 1260, id="c5p-1260"),
    pytest.param(DATA / "f4p.json", 420, id="f4p-420"),  # D = (1, 1, 2, 2)
])
def test_every_mutation_of_a_build_matches_the_dense_references(path, mutations):
    graph = build_exchange_graph(load_seed(str(path))[0])
    made = [(ts.seed, k) for ts in graph.nodes.values() for k in ts.seed.unfrozen]
    assert len(made) == mutations and not graph.truncated
    assert [(s, k) for s, k in made if oracles.dense_mutation_mismatch(s, k)] == []


@st.composite
def perturbed_pairs(draw):
    """A compatible seed with one entry of B, or one pair Lambda[i][j] =
    -Lambda[j][i], moved by a nonzero amount: (seed, perturbed)."""
    seed = draw(principal_framings(max_word=3))
    b, lam = [list(row) for row in seed.B], [list(row) for row in seed.Lambda]
    delta = draw(st.integers(-2, 2).filter(bool))
    if draw(st.booleans()):
        i, c = draw(st.integers(0, seed.n - 1)), draw(st.integers(0, len(seed.unfrozen) - 1))
        b[i][c] += delta
    else:
        i, j = draw(st.permutations(range(seed.n)))[:2]
        lam[i][j] += delta
        lam[j][i] -= delta
    return seed, QuantumSeed(seed.n, seed.unfrozen, tuple(map(tuple, b)),
                             tuple(map(tuple, lam)), seed.D)


@settings(max_examples=100, deadline=None)
@given(perturbed_pairs())
def test_check_compatible_names_the_first_bad_entry_of_the_dense_product(pair):
    seed, bad = pair
    assert check_compatible(seed) == (True, "")
    dense = _linalg.mat_mul(_linalg.transpose(bad.B), bad.Lambda)
    wrong = [(r, j, dense[r][j], d if j == k else 0)
             for r, (k, d) in enumerate(zip(bad.unfrozen, bad.D))
             for j in range(bad.n) if dense[r][j] != (d if j == k else 0)]
    if not wrong:
        assert check_compatible(bad) == (True, "")
    else:
        r, j, got, want = wrong[0]
        assert check_compatible(bad) == (False, f"(B^T Lambda)[{r}][{j}] = {got}, expected {want}")


@settings(max_examples=60, deadline=None)
@given(principal_framings(), st.data())
def test_mutation_commutes_with_opposite(seed, data):
    k = data.draw(st.sampled_from(seed.unfrozen))
    assert opposite_seed(mutate_seed(seed, k)) == mutate_seed(opposite_seed(seed), k)


@settings(max_examples=60, deadline=None)
@given(principal_framings())
def test_opposite_is_an_involution(seed):
    op = opposite_seed(seed)
    assert op != seed and opposite_seed(op) == seed
    assert check_compatible(op)[0]


@settings(max_examples=60, deadline=None)
@given(principal_framings(max_word=4))
def test_accepted_seeds_have_full_column_rank(seed):
    ok, diag = check_compatible(seed)
    assert ok, diag
    assert _linalg.rank(seed.B) == len(seed.unfrozen)


@st.composite
def rank_deficient_pairs(draw):
    """A seed whose B is a product (n x r)(r x nuf) with r < nuf, with any
    skew-symmetric Lambda and positive D."""
    nuf = draw(st.integers(1, 3))
    n = draw(st.integers(nuf, 4))
    r = draw(st.integers(0, nuf - 1))
    small = st.integers(-2, 2)
    left = draw(st.lists(st.lists(small, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(small, min_size=nuf, max_size=nuf), min_size=r, max_size=r))
    b = tuple(tuple(sum(left[i][j] * right[j][k] for j in range(r)) for k in range(nuf))
              for i in range(n))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i + 1, n)}
    lam = tuple(tuple(upper.get((i, j), -upper.get((j, i), 0)) for j in range(n))
                for i in range(n))
    unfrozen = tuple(sorted(draw(st.permutations(range(n)))[:nuf]))
    d = tuple(draw(st.lists(st.integers(1, 3), min_size=nuf, max_size=nuf)))
    return QuantumSeed(n, unfrozen, b, lam, d)


@settings(max_examples=100, deadline=None)
@given(rank_deficient_pairs())
def test_rank_deficient_b_is_rejected_at_an_entry(seed):
    assert _linalg.rank(seed.B) < len(seed.unfrozen)
    ok, diag = check_compatible(seed)
    assert not ok
    assert diag.startswith("(B^T Lambda)[") and "expected" in diag
