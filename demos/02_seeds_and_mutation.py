"""Seeds, compatible pairs, and matrix mutation.

A seed couples the exchange matrix B with a skew form Lambda so that
B^T Lambda = (D 0) for a positive diagonal D. Mutation rewrites both
matrices; D never changes. When only B is given, D is fixed by the
closed-form skew-symmetrizer of B's principal part and Lambda by one
integer lattice solve; a D given without Lambda is solved for as is.
"""
from qcluster import (
    check_compatible,
    find_compatible_lambda,
    make_seed,
    mutate_seed,
    opposite_seed,
    principal_framing,
)

a2 = make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0)))
print("A2 seed compatible:", check_compatible(a2), "D =", a2.D)

s1 = mutate_seed(a2, 0)
print("after mutation at vertex 1: B =", s1.B, " Lambda =", s1.Lambda)
print("mutating again returns the seed:", mutate_seed(s1, 0) == a2)
print("opposite seed:", opposite_seed(a2).B, "compatible:", check_compatible(opposite_seed(a2))[0])
print()

lam, d = find_compatible_lambda(((0, -2), (1, 0)))
print("B2 exchange matrix gets Lambda =", lam, "with D =", d)
b2 = make_seed(((0, -2), (1, 0)), d=(2, 4))
print("asking for D = (2, 4) instead gives Lambda =", b2.Lambda)

a3p = principal_framing(((0, -1, 0), (1, 0, -1), (0, 1, 0)))
print("principal three-vertex chain: n =", a3p.n, "frozen =", a3p.frozen, "D =", a3p.D)
