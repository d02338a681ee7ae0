"""Acceptance suite: one test per criterion, exact checks, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary
lines. Every assertion is exact equality; the budgets are wall-clock.
"""
import random
import time

import pytest

from conftest import a2_gold
from oracles import Bidegree, bidegree, normalize_deg
from qcluster import opposite_seed
from qcluster.expansion import mutate_tracked
from qcluster.leclerc import CandidateBasis, default_r_specs
from qcluster.pointed import codegree, degree, dominance_leq
from qcluster.qtorus import QTElem, VCoeff, exact_divide, twisted_mul, unit_vec
from qcluster.seed import mutate_seed
from qcluster.tropical import (
    check_compatibly_copointed,
    check_compatibly_pointed,
    check_swap,
    check_swap_order,
    check_trop_commute,
    detect_shift,
    i_vars,
    p_vars,
)

import oracles


def _report(num, name, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_a2_golden_suite():
    t0 = time.perf_counter()
    from qcluster import build_exchange_graph, make_seed

    a2_graph = build_exchange_graph(make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0))))
    ref = a2_graph.reference
    lam = ref.Lambda

    variables = {str(k): v.expand(ref) for k, v in a2_graph.distinct_variables().items()}
    assert len(variables) == 5
    expected_vars = {a2_gold(n) for n in ("X1", "X2", "P2", "P1", "I1")}
    assert set(variables.values()) == expected_vars

    up = detect_shift(a2_graph, a2_graph.order[0], 1)
    down = detect_shift(a2_graph, a2_graph.order[0], -1)
    i1, i2 = (z.expand(ref) for z in i_vars(a2_graph, up))
    p1, p2 = (z.expand(ref) for z in p_vars(a2_graph, down))
    assert (i1, i2, p1, p2) == (
        a2_gold("I1"), a2_gold("P1"), a2_gold("P1"), a2_gold("P2"),
    )

    assert bidegree(ref, p2) == Bidegree((1, -1), (0, -1))
    assert bidegree(ref, p1) == Bidegree((0, -1), (-1, 0))
    assert bidegree(ref, i1) == Bidegree((-1, 0), (-1, 1))

    x1, x2 = QTElem.monomial((1, 0)), QTElem.monomial((0, 1))
    op = opposite_seed(ref)
    golden = {
        "[X1*I1]": normalize_deg(ref, twisted_mul(x1, i1, lam)),
        "[X1*I2]": normalize_deg(ref, twisted_mul(x1, i2, lam)),
        "[X2*I1]": normalize_deg(ref, twisted_mul(x2, i1, lam)),
        "[X2*I2]": normalize_deg(ref, twisted_mul(x2, i2, lam)),
        "{P1*X1}": normalize_deg(op, twisted_mul(p1, x1, lam)),
        "{P1*X2}": normalize_deg(op, twisted_mul(p1, x2, lam)),
        "{P2*X1}": normalize_deg(op, twisted_mul(p2, x1, lam)),
        "{P2*X2}": normalize_deg(op, twisted_mul(p2, x2, lam)),
    }
    for name, got in golden.items():
        assert got == a2_gold(name), name
    _report(1, "A2 golden suite", t0, 1.0)


def test_criterion_2_graph_closures():
    t0 = time.perf_counter()
    from qcluster import build_exchange_graph, make_seed, principal_framing

    a2_graph = build_exchange_graph(make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0))))
    b2_graph = build_exchange_graph(make_seed(((0, -2), (1, 0)), ((0, -1), (1, 0))))
    a3_graph = build_exchange_graph(principal_framing(((0, -1, 0), (1, 0, -1), (0, 1, 0))))
    assert not a2_graph.truncated and len(a2_graph.order) == 5
    assert len(a2_graph.distinct_variables()) == 5
    assert not b2_graph.truncated and len(b2_graph.order) == 6
    assert len(b2_graph.distinct_variables()) == 6
    assert not a3_graph.truncated and len(a3_graph.order) == 14
    assert len(a3_graph.distinct_variables()) == 9
    _report(2, "exchange graph closures 5/6/14, variables 5/6/9", t0, 5.0)


def test_criterion_3_structural_suites(a2_graph, b2_graph, a3_graph, pa2_graph):
    t0 = time.perf_counter()
    for graph in (a2_graph, b2_graph, a3_graph, pa2_graph):
        ref = graph.reference
        lam0 = ref.Lambda
        for key in graph.order:
            ts = graph.nodes[key]
            s = ts.seed
            assert s.D == ref.D
            for k in s.unfrozen:
                twice = mutate_tracked(mutate_tracked(ts, k), k)
                assert twice.vars == ts.vars and twice.seed == s
                assert opposite_seed(mutate_seed(s, k)) == mutate_seed(
                    opposite_seed(s), k
                )
            xs = tuple(x.expand(ref) for x in ts.vars)
            for z in xs:
                bid = bidegree(ref, z)
                assert bid is not None
                assert z.terms[bid.deg].is_one() and z.terms[bid.codeg].is_one()
                assert z.bar() == z
            for i in range(s.n):
                for j in range(i + 1, s.n):
                    lhs = twisted_mul(xs[i], xs[j], lam0)
                    rhs = twisted_mul(xs[j], xs[i], lam0).vshift(
                        2 * s.Lambda[i][j]
                    )
                    assert lhs == rhs
    _report(3, "structural suites on A2/B2/A3/principal-A2", t0, 30.0)


def test_criterion_4_tropical_suites(a2_graph, b2_graph, a3_graph):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for graph in (a2_graph, b2_graph, a3_graph):
        for key, m in CandidateBasis(graph, unfrozen_cap=2).by_degree.values():
            assert check_compatibly_pointed(graph, key, m)
            assert check_compatibly_copointed(graph, key, m)
        down = detect_shift(graph, graph.order[0], -1)
        keys = list(graph.order)
        n = graph.reference.n
        for _ in range(50):
            home = rng.choice(keys)
            m = [0] * n
            for k in graph.reference.unfrozen:
                m[k] = rng.randrange(3)
            assert check_swap(graph, down, home, tuple(m))
            eta = tuple(rng.randint(-3, 3) for _ in range(n))
            g = tuple(rng.randint(-3, 3) for _ in range(n))
            assert check_swap_order(graph, down, eta, g)
    n = a2_graph.reference.n
    samples = [unit_vec(n, i) for i in range(n)]
    samples += [tuple(-x for x in u) for u in samples]
    samples += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
    for a in a2_graph.order:
        for b in a2_graph.order:
            assert check_trop_commute(a2_graph, a, b, samples)
    n3 = a3_graph.reference.n
    samples3 = [unit_vec(n3, i) for i in range(n3)]
    samples3 += [tuple(-x for x in u) for u in samples3]
    samples3 += [tuple(rng.randint(-3, 3) for _ in range(n3)) for _ in range(20)]
    keys3 = list(a3_graph.order)
    for _ in range(10):
        assert check_trop_commute(a3_graph, rng.choice(keys3), rng.choice(keys3), samples3)
    _report(4, "tropical suites: compatibility, swap, commuting diagram", t0, 60.0)


def _sweep(graph, cap):
    basis = CandidateBasis(graph, unfrozen_cap=cap)
    report, verdicts = oracles.sweep(basis)
    assert report.counts()["two_tail_fail"] == 0
    assert not report.conflicts
    for v in verdicts:
        if v.case == "two_tail":
            assert v.s > v.h
            assert v.checks["s_matches_lambda"] and v.checks["h_matches_lambda"]
            assert v.checks["deg_dominance"] and v.checks["codeg_dominance"]
            assert v.checks["coeff_window"] and v.checks["bar_consistency"]
        if "in_basis_iff_n_zero" in v.checks:
            assert v.checks["in_basis_iff_n_zero"]
    return basis, report, verdicts


def test_criterion_5_leclerc_verification(a2_graph, b2_graph, a3_graph):
    t0 = time.perf_counter()
    _, rep_a2, _ = _sweep(a2_graph, 3)
    assert rep_a2.counts()["indeterminate"] == 0
    _, rep_b2, _ = _sweep(b2_graph, 2)
    assert rep_b2.counts()["indeterminate"] == 0
    _, _, a3_verdicts = _sweep(a3_graph, 1)
    for v in a3_verdicts:
        assert v.case != "indeterminate", (v.r_spec, v.v_degree, v.reason)
    _report(5, "product structure on A2 cap3 / B2 cap2 / A3 cap1", t0, 120.0)


def test_criterion_6_oracle_cross_checks(a2_graph, b2_graph, a3_graph):
    t0 = time.perf_counter()
    rng = random.Random(606)
    # dominance against brute force, 200 pairs per instance
    for graph in (a2_graph, b2_graph, a3_graph):
        s = graph.reference
        for _ in range(200):
            g = tuple(rng.randint(-3, 3) for _ in range(s.n))
            gp = tuple(rng.randint(-3, 3) for _ in range(s.n))
            assert dominance_leq(s, gp, g) == oracles.brute_dominance_leq(
                s.B, s.unfrozen, gp, g
            )
    # exact division round-trips against the twisted product, 200 pairs
    lam = a2_graph.reference.Lambda

    def rand_elem(nterms):
        return QTElem(2, {
            tuple(rng.randint(-3, 3) for _ in range(2)):
            VCoeff({rng.randint(-2, 2): rng.randint(-3, 3)})
            for _ in range(nterms)
        })

    for _ in range(200):
        q, d = rand_elem(3), rand_elem(2)
        if not q or not d:
            continue
        assert exact_divide(twisted_mul(q, d, lam), d, lam) == q
    # every exact decomposition in the A2 and B2 sweeps recomposes to its
    # input, and so do the codegree-side expansions of the golden products
    checked = 0
    for graph, cap in ((a2_graph, 2), (b2_graph, 2)):
        basis = CandidateBasis(graph, unfrozen_cap=cap)
        n = graph.reference.n
        for r_home, r_m in default_r_specs(graph):
            t_seed = graph.nodes[r_home].seed
            for g_ref in basis.degree_keys():
                v_home, v_m = basis.by_degree[g_ref]
                z_v = graph.monomial_in(v_home, v_m, r_home).expand(t_seed)
                gamma = degree(t_seed, z_v)
                eta = codegree(t_seed, z_v)
                prod = twisted_mul(QTElem.monomial(r_m), z_v, t_seed.Lambda)
                window = Bidegree(
                    deg=tuple(a + b for a, b in zip(r_m, gamma)),
                    codeg=tuple(a + b for a, b in zip(r_m, eta)),
                )
                pset = basis.window_set(r_home)
                s_pow = t_seed.lam(r_m, gamma)
                dec = oracles.n_form_decompose(t_seed, prod.vshift(-s_pow), pset, window)
                assert dec.is_exact
                assert oracles.recompose(dec, pset, n, t_seed) == prod.vshift(-s_pow)
                checked += 1
    assert checked > 200
    basis = CandidateBasis(a2_graph, unfrozen_cap=2)
    t0_key = a2_graph.order[0]
    op = opposite_seed(a2_graph.reference)
    # co-decomposition: decompose in the opposite seed, window ends traded
    for name, window in (
        ("{P1*X1}", Bidegree(deg=(0, 0), codeg=(1, -1))),
        ("{P1*X2}", Bidegree(deg=(-1, 1), codeg=(0, 0))),
        ("{P2*X1}", Bidegree(deg=(1, -1), codeg=(2, -1))),
        ("{P2*X2}", Bidegree(deg=(0, 0), codeg=(1, 0))),
    ):
        z = a2_gold(name)
        pset = basis.window_set(t0_key, co=True)
        dec = oracles.n_form_decompose(op, z, pset, window)
        assert dec.is_exact
        assert oracles.recompose(dec, pset, op.n, op) == z
    _report(6, "oracle cross-checks: dominance, division, decomposition", t0, 30.0)
