"""The two-extremal-term structure of products with basis elements.

Multiplying a cluster monomial R onto a basis element V either lands in
v^Z times the basis, or expands with exactly one term at the top degree
(coefficient v^s), one at the bottom codegree (v^h, h < s), and middle
coefficients confined to v-exponents in [h+1, s-1]. The sweep checks
every claim on every pair and reports witnesses for any failure.
"""
from qcluster import CandidateBasis, build_exchange_graph, make_seed, verify_pair, verify_theorem

a2 = make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0)))
graph = build_exchange_graph(a2)
basis = CandidateBasis(graph, unfrozen_cap=3)
print("basis elements (cap 3):", len(basis.by_degree))

t0 = graph.order[0]
v_home, v_m = basis.by_degree[(0, -1)]
verdict = verify_pair(basis, t0, (1, 0), v_home, v_m)
print("x1 against the element of degree (0,-1):", verdict.case)
print("  s =", verdict.s, " h =", verdict.h, " S at", verdict.S, " H at", verdict.H)
print("  checks:", verdict.checks)
print()

report = verify_theorem(basis)
print("full sweep:", report.counts())
print("all two-tail checks green:", report.ok)
