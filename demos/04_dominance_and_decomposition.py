"""Dominance order, degrees, normalization, and unitriangular peeling.

The support of a well-behaved element has a unique dominance-maximal
exponent (the degree) and a unique minimal one (the codegree); an
element is pointed/copointed when the extremal coefficient is 1.
A pointed element is X^g F(Y): its exponents are g + B n with n >= 0,
and in those n-coordinates (an NForm) twisted products need no
dominance test. Decomposition peels a pointed n-form against
degree-keyed basis elements inside a finite window, a box of n.
"""
from qcluster import (
    NForm,
    bidegree,
    build_exchange_graph,
    decompose,
    degree,
    detect_shift,
    dominance_leq,
    dominance_n,
    i_vars,
    make_seed,
    normalize_deg,
    pointed,
    to_nform,
    twisted_mul,
)
from qcluster._linalg import mat_vec
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
# the same product in n-coordinates: normalizing is one v-shift
n_i2 = to_nform(a2, i2, degree(a2, i2))
n_prod = pointed.mul(a2, NForm.monomial((1, 0), 2), n_i2, normalize=True)
# F's terms from the degree down, in the order of their exponents g + B n
down = sorted(n_prod.terms.items(), key=lambda t: mat_vec(a2.B, t[0]), reverse=True)
print("as X^g F(Y): g =", n_prod.g, "F =", dict(down))
assert n_prod.expand(a2) == prod

basis = {
    (0, 0): NForm.monomial((0, 0), 2),
    (1, -1): to_nform(a2, QTElem.monomial((1, -1)) + QTElem.monomial((0, -1)), (1, -1)),
}
dec = decompose(a2, n_prod, basis, dominance_n(a2, (-1, 0), n_prod.g))
print("decomposition terms:")
for g, c in dec.terms:
    print(f"  degree {g}: coefficient {c}")
