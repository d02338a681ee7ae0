"""Dominance order, degrees, normalization, and unitriangular peeling.

The support of a well-behaved element has a unique dominance-maximal
exponent (the degree) and a unique minimal one (the codegree); an
element is pointed/copointed when the extremal coefficient is 1.
Decomposition peels a pointed element against degree-keyed basis
elements inside a finite window.
"""
from qcluster import (
    Bidegree,
    bidegree,
    build_exchange_graph,
    decompose,
    degree,
    detect_shift,
    dominance_leq,
    i_vars,
    make_seed,
    normalize_deg,
    twisted_mul,
)
from qcluster.qtorus import QTElem

a2 = make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0)))
print("(0,-1) below (1,-1):", dominance_leq(a2, (0, -1), (1, -1)))
print("(1,1) below (0,0):  ", dominance_leq(a2, (1, 1), (0, 0)))
print()

graph = build_exchange_graph(a2)
up = detect_shift(graph, graph.order[0], 1)
i1, i2 = i_vars(graph, up)
print("bidegree of", i2, "is", bidegree(a2, i2))
print()

x1 = QTElem.monomial((1, 0))
prod = normalize_deg(a2, twisted_mul(x1, i2, a2.Lambda))
print("normalized product [x1 * i2] =", prod)

basis = {
    (0, 0): QTElem.one(2),
    (1, -1): QTElem.monomial((1, -1)) + QTElem.monomial((0, -1)),
}
window = Bidegree(deg=degree(a2, prod), codeg=(-1, 0))
dec = decompose(a2, prod, basis, window)
print("decomposition terms:")
for g, c in dec.terms:
    print(f"  degree {g}: coefficient {c}")
