"""Laurent expansions and the exchange graph.

Every reachable seed carries each of its cluster variables in the torus
of the starting seed, in n-coordinates (expanded to print); the graph
closes for finite-type input. Shift detection finds the seed whose
variables are pointed at the negated unit vectors; its forward and
backward versions yield the injective and projective elements, n-forms
of the starting seed like every element the library hands out.
"""
from qcluster import (
    apply_word,
    build_exchange_graph,
    detect_shift,
    emit_dot,
    i_vars,
    initial_tracked,
    make_seed,
    p_vars,
)

a2 = make_seed(((0, -1), (1, 0)), ((0, -1), (1, 0)))
graph = build_exchange_graph(a2)
print(f"two-vertex graph: {len(graph.order)} nodes, "
      f"{len(graph.undirected_edges())} edges (a pentagon)")
for key in graph.order:
    print("  node", graph.order.index(key),
          [str(v.expand(a2)) for v in graph.nodes[key].vars])
print()

ts = apply_word(initial_tracked(a2), (1, 0, 1))
print("after the word 2,1,2 the labeled seed holds:")
for i, v in enumerate(ts.vars):
    print(f"  variable {i + 1} =", v.expand(a2))
print()

up = detect_shift(graph, graph.order[0], 1)
down = detect_shift(graph, graph.order[0], -1)
print("shift +1 found via word", [k + 1 for k in up.word], "sigma", up.sigma)
print("injective elements:", [str(z.expand(a2)) for z in i_vars(graph, up)])
print("projective elements:", [str(z.expand(a2)) for z in p_vars(graph, down)])
print()

b2 = make_seed(((0, -2), (1, 0)), ((0, -1), (1, 0)))
g2 = build_exchange_graph(b2)
print(f"doubled-arrow graph: {len(g2.order)} nodes, "
      f"{len(g2.distinct_variables())} distinct variables")
print()
print(emit_dot(graph))
