"""Dominance order, degrees, normalization, and unitriangular peeling.

The support of a well-behaved element has a unique dominance-maximal
exponent (the degree) and a unique minimal one (the codegree); an
element is pointed/copointed when the extremal coefficient is 1.
A pointed element is X^g F(Y): its exponents are g + B n with n >= 0,
and in those n-coordinates (an NForm) its degree is the base g, and
twisted products need no dominance test. The exchange graph keeps every
variable as an NForm. Decomposition peels a pointed n-form against
degree-keyed basis elements inside a finite window, a box of n.
"""
from qcluster import (
    NForm,
    build_exchange_graph,
    decompose,
    detect_shift,
    dominance_leq,
    dominance_n,
    make_seed,
    pointed,
)
from qcluster._linalg import mat_vec

a2 = make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0)))
print("(0,-1) below (1,-1):", dominance_leq(a2, (0, -1), (1, -1)))
print("(1,1) below (0,0):  ", dominance_leq(a2, (1, 1), (0, 0)))
print()

graph = build_exchange_graph(a2)
t0 = graph.order[0]
up = detect_shift(graph, t0, 1)
# the injectives are the shift node's variables, kept in t0's torus as n-forms
i2 = graph.vars_in(up.target, t0)[up.sigma[1]]
print("I2 =", i2.expand(a2), "has degree", i2.g, "and codegree", i2.opposite(a2).g)
print()

# a twisted product in n-coordinates: normalizing is one v-shift
prod = pointed.mul(a2, NForm.monomial((1, 0), 2), i2, normalize=True)
print("normalized product [x1 * i2] =", prod.expand(a2))
# F's terms from the degree down, in the order of their exponents g + B n
down = sorted(prod.terms.items(), key=lambda t: mat_vec(a2.B, t[0]), reverse=True)
print("as X^g F(Y): g =", prod.g, "F =", dict(down))

basis = {
    (0, 0): NForm.monomial((0, 0), 2),
    (1, -1): graph.distinct_variables()[(1, -1)],
}
dec = decompose(a2, prod, basis, dominance_n(a2, (-1, 0), prod.g))
print("decomposition terms:")
for g, c in dec.terms:
    print(f"  degree {g}: coefficient {c}")
