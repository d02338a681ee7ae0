"""Laurent-expansion tracking and the exchange graph.

A TrackedSeed carries, next to the mutated seed matrices, each of its
cluster variables inside the quantum torus of a fixed reference seed, in
n-coordinates there (pointed.NForm: X^g F(Y), exponents g + B n), based
at its degree. Mutating at k rewrites variable k through the exchange
relation: the two exchange monomials are normalized products of the
variables (pointed.mul), summed at the base that dominates the other
(sign-coherence of c-vectors: Derksen-Weyman-Zelevinsky,
arXiv:0904.0676), and divided exactly by the old variable
(pointed.divide). Exactness of that division is the Laurent phenomenon;
a failure is an internal error, not a user condition. The quotient is
pointed at its base, so the new variable's degree (its g-vector) is
that base; nothing measures it.

The exchange graph deduplicates tracked seeds by the unordered set of
variable degrees in the reference torus (a seed is determined by those
up to permutation). Whenever two routes meet at one node, the seeds
must match under the degree permutation, and the variables the store
(below), exactly. A node re-tracked into another node's torus is a
TrackedSeed too, so its degrees there come with it.

Each node's path extends the path of the node it was found from, so
the paths form a tree rooted at the reference. Every cross-torus object
is built one step from a stored neighbour: walk to the nearest one
stored, then build back one step per object, storing each. A node
re-tracked into a torus walks the path tree toward the torus's node
and is its neighbour's re-tracking mutated once (mutation is an
involution on labeled seeds, and an expansion does not depend on the
route). The torus's own node has the unit monomials as its variables
there.

Each torus keeps the cluster monomials made in it in one store, by
identity, the sorted (reference degree, exponent) pairs of their
factors. A torus's variables, frozen ones too, are its one-factor
cluster monomials, in the one store. The first variable seen at a
reference degree in a torus is stored as it is, once it is checked
pointed at its base (no negative n, coefficient 1 at n = 0). A variable
re-tracked into the torus, or met again in the build, is compared with
the stored one, which takes its place: an expansion does not depend on
the route, so a difference is an internal error (RuntimeError), and so
is a variable that is not pointed. So two nodes' re-trackings share one
object for each variable they hold in common. A new cluster monomial
peels unfrozen factors, the one with the fewest terms first, down to a
stored one (a variable at the latest) or to its frozen part, a plain
monomial. Each step back is one twisted product by a variable,
normalized at its degree by one v-shift (the factors quasi-commute, so
normalization makes the order irrelevant). Torus elements are made only
on request (NForm.expand).

The build refuses a seed that is not 2-finite, one with an unfrozen
pair b_ij b_ji < -3: its graph is infinite (Fomin-Zelevinsky, Cluster
algebras II, arXiv:math/0208229, Thm 1.8), so the search stops there,
truncated, with the seed's path and the pair as the witness.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import pointed
from .qtorus import QTElem, pos_part, unit_vec
from .seed import QuantumSeed, mutate_seed


@dataclass(frozen=True)
class TrackedSeed:
    """seed's variables in the torus of ref, in n-coordinates there
    (pointed.NForm, each based at its degree), reached from ref by path."""

    seed: QuantumSeed
    vars: tuple[pointed.NForm, ...]
    ref: QuantumSeed
    path: tuple[int, ...]

    @cached_property
    def degs(self):
        """degs[i] is the degree of vars[i] in ref's torus: its base."""
        return tuple(x.g for x in self.vars)


def initial_tracked(seed) -> TrackedSeed:
    rank = len(seed.unfrozen)
    xs = tuple(pointed.NForm.monomial(unit_vec(seed.n, i), rank) for i in range(seed.n))
    return TrackedSeed(seed=seed, vars=xs, ref=seed, path=())


def _image_monomial(ts: TrackedSeed, a) -> pointed.NForm:
    """The current seed's normalized monomial X^a in the reference torus:
    the product of the variables to the powers a, normalized at its
    degree by one v-shift per factor (the factors quasi-commute, so
    normalization makes the order irrelevant). Negative exponents are
    only allowed on frozen vertices, whose variables stay unit monomials,
    so the frozen part is a plain monomial.
    """
    s = ts.seed
    if any(a[i] < 0 for i in s.unfrozen):
        raise ValueError("unfrozen exponents must be nonnegative")
    acc = pointed.NForm.monomial(tuple(0 if i in s.unfrozen else x for i, x in enumerate(a)),
                                 len(s.unfrozen))
    for i in s.unfrozen:
        for _ in range(a[i]):
            acc = pointed.mul(ts.ref, acc, ts.vars[i], normalize=True)
    return acc


def mutate_tracked(ts: TrackedSeed, k) -> TrackedSeed:
    """Mutate at unfrozen k, keeping all variables in the reference torus.

    In the current seed, the new variable z satisfies
        z * X_k = v^lam(a-, f_k) X^(a-) + v^lam(a+, f_k) X^(a+),
    where a+/a- collect the positive/negative parts of column k. The two
    monomials are formed in reference n-coordinates and summed at the
    base that dominates the other (sign-coherence of c-vectors makes one
    do), and z is their sum divided exactly by X_k, pointed at its base:
    the base is z's degree, never measured.
    """
    s = ts.seed
    if k not in s.unfrozen:
        raise ValueError(f"vertex {k} is not unfrozen")
    ck = s.col(k)
    col = tuple(s.B[i][ck] for i in range(s.n))
    fk = unit_vec(s.n, k)
    aminus, aplus = pos_part(tuple(-x for x in col)), pos_part(col)
    num = pointed.add(ts.ref, _image_monomial(ts, aminus).vshift(s.lam(aminus, fk)),
                      _image_monomial(ts, aplus).vshift(s.lam(aplus, fk)))
    z = pointed.divide(ts.ref, num, ts.vars[k]).normalized()
    return TrackedSeed(
        seed=mutate_seed(s, k),
        vars=ts.vars[:k] + (z,) + ts.vars[k + 1:],
        ref=ts.ref,
        path=ts.path + (k,),
    )


def apply_word(ts: TrackedSeed, word) -> TrackedSeed:
    for k in word:
        ts = mutate_tracked(ts, k)
    return ts


def cluster_monomial(ts: TrackedSeed, m) -> QTElem:
    """Normalized localized cluster monomial X^m of the tracked seed,
    expanded in the reference torus; its degree is its n-form's base,
    sum m_i degs_i, and nothing is measured."""
    return _image_monomial(ts, m).expand(ts.ref)


def degree_key(ts: TrackedSeed):
    """Canonical node key: sorted tuple of reference-torus variable degrees."""
    if len(set(ts.degs)) != len(ts.degs):
        raise RuntimeError(f"repeated variable degrees in one seed: {list(ts.degs)}")
    return tuple(sorted(ts.degs))


def _assert_same_node(stored: TrackedSeed, other: TrackedSeed):
    """Two routes reached one degree class: the seeds must match under
    perm, with other's position i playing stored's position perm[i]."""
    perm = tuple(stored.degs.index(g) for g in other.degs)
    a, b = stored.seed, other.seed
    for i, row in enumerate(b.Lambda):
        arow = a.Lambda[perm[i]]
        if row != tuple(map(arow.__getitem__, perm)):
            j = next(j for j, x in enumerate(row) if x != arow[perm[j]])
            raise RuntimeError(f"path {other.path}: Lambda mismatch at ({i},{j}) under {perm}")
    cols = tuple(a.col(perm[k]) for k in b.unfrozen)
    for i, row in enumerate(b.B):
        arow = a.B[perm[i]]
        if row != tuple(map(arow.__getitem__, cols)):
            k = next(k for k, x, c in zip(b.unfrozen, row, cols) if x != arow[c])
            raise RuntimeError(f"path {other.path}: B mismatch at ({i},{k}) under {perm}")


class ExchangeGraph:
    """All seeds reachable from a reference seed, up to permutation.

    nodes maps a degree-set key to the first TrackedSeed that reached
    it; order lists keys in discovery order; edges holds directed
    (key, vertex, key) mutation triples. truncated is set when the
    node cap or a seed that is not 2-finite stopped the search; witness
    is (path, i, j, b_ij b_ji) for such a seed, else None. Cross-torus
    re-trackings are cached, one per (home, torus) pair, each variable
    the torus's stored one-factor cluster monomial; every cluster
    monomial made in a torus is kept there, by identity.
    """

    def __init__(self, reference: QuantumSeed, node_cap=10000):
        self.reference = reference
        self.node_cap = node_cap
        self.nodes: dict = {}
        self.order: list = []
        self.edges: list = []
        self.truncated = False
        self.witness = None
        self._cross: dict = {}
        self._by_path: dict = {}
        self._monomials: dict = {}
        self._build()

    def _build(self):
        ts0 = initial_tracked(self.reference)
        key0 = degree_key(ts0)
        ts0 = self._intern(ts0, key0, ts0.degs)
        self.nodes[key0] = ts0
        self.order.append(key0)
        self._by_path[ts0.path] = key0
        self._cross[(key0, key0)] = ts0
        frontier = [key0] if self._two_finite(ts0) else []
        while frontier:
            nxt = []
            for key in frontier:
                ts = self.nodes[key]
                for k in ts.seed.unfrozen:
                    ts2 = mutate_tracked(ts, k)
                    key2 = degree_key(ts2)
                    self.edges.append((key, k, key2))
                    if key2 in self.nodes:
                        self._intern(ts2, key0, ts2.degs)  # its variables must match the store
                        _assert_same_node(self.nodes[key2], ts2)
                        continue
                    if len(self.nodes) >= self.node_cap:
                        self.truncated = True
                        continue
                    ts2 = self._intern(ts2, key0, ts2.degs)
                    self.nodes[key2] = ts2
                    self.order.append(key2)
                    self._by_path[ts2.path] = key2
                    self._cross[(key2, key0)] = ts2  # what vars_in(key2, key0) would re-track
                    if not self._two_finite(ts2):
                        return
                    nxt.append(key2)
            frontier = nxt

    def _two_finite(self, ts: TrackedSeed):
        """False, with truncated set and witness recorded, when ts's seed
        has an unfrozen pair with b_ij b_ji < -3."""
        s = ts.seed
        self.witness = next(((ts.path, i, j, s.B[i][cj] * s.B[j][ci])
                             for ci, i in enumerate(s.unfrozen) for cj, j in enumerate(s.unfrozen)
                             if i < j and s.B[i][cj] * s.B[j][ci] < -3), None)
        if self.witness is not None:
            self.truncated = True
        return self.witness is None

    def route(self, a_key, b_key):
        """Mutation word turning node a's labeled seed into node b's."""
        return tuple(reversed(self.nodes[a_key].path)) + self.nodes[b_key].path

    def route_steps(self, a_key, b_key):
        """(seed, vertex) pairs along the route, each seed the one stored
        at a path-tree node the route passes: up from a, then down to b.
        A node's seed is its parent's mutated at its path's last vertex,
        and mutation is an involution on labeled seeds."""
        up, down = self.nodes[a_key].path, self.nodes[b_key].path
        steps = [(up[:i], up[i - 1]) for i in range(len(up), 0, -1)]
        steps += [(down[:i], down[i]) for i in range(len(down))]
        return tuple((self.nodes[self._by_path[path]].seed, k) for path, k in steps)

    def vars_in(self, home_key, torus_key):
        """home's variables in the torus of another node, in n-coordinates
        there (NForm.expand gives the torus elements).

        Every re-tracking happens here. Walk the path tree from home
        toward the torus's node, to the first node already re-tracked
        into the torus: a step goes to the tree parent, or, from an
        ancestor of the torus's node, to its child on the torus's path.
        Then build back, each node its neighbour mutated once, checked
        against its labeled seed, interned and cached; tracked_in reads
        it back through this method. A node's tracked seed is its
        re-tracking into the reference torus, so _build caches it.
        """
        key, path, way = home_key, self.nodes[home_key].path, []
        up = self.nodes[torus_key].path
        while (key, torus_key) not in self._cross:
            if key == torus_key:
                self._cross[(key, key)] = self._intern(
                    initial_tracked(self.nodes[key].seed), key, self.nodes[key].degs)
                break
            if up[:len(path)] == path:  # an ancestor of the torus's node
                k, path = up[len(path)], up[:len(path) + 1]
            else:
                k, path = path[-1], path[:-1]
            way.append((key, k))
            key = self._by_path[path]
        ts = self._cross[(key, torus_key)]
        for key, k in reversed(way):
            node = self.nodes[key]
            ts = mutate_tracked(ts, k)
            if ts.seed != node.seed:
                raise RuntimeError("re-tracking did not reproduce the labeled seed")
            # keep the node's seed object, not an equal copy, for every cached pair
            ts = self._cross[(key, torus_key)] = self._intern(
                replace(ts, seed=node.seed), torus_key, node.degs)
        return self._cross[(home_key, torus_key)].vars

    def _intern(self, ts: TrackedSeed, torus_key, ref_degs) -> TrackedSeed:
        """ts with each variable replaced by the torus's stored one-factor
        cluster monomial (reference degree d, exponent 1; ref_degs in ts's
        order). The first variable seen at d is stored once it is checked
        pointed at its base (no negative n, coefficient 1 at n = 0); a
        later one must equal the stored one. Either failure raises
        RuntimeError: a broken expansion, or two routes that disagree."""
        xs = []
        for d, x in zip(ref_degs, ts.vars):
            key = (torus_key, ((d, 1),))
            entry = self._monomials.get(key)
            if entry is None:
                if not x.is_pointed():
                    raise RuntimeError(f"path {ts.path}: variable at reference degree {d} is "
                                       f"not pointed at {x.g} in torus {torus_key}")
                entry = self._monomials[key] = x
            elif entry is not x and entry != x:
                raise RuntimeError(f"path {ts.path}: variable at reference degree {d} "
                                   f"disagrees with its entry in torus {torus_key}")
            xs.append(entry)
        return replace(ts, vars=tuple(xs))

    def tracked_in(self, home_key, torus_key) -> TrackedSeed:
        """home's labeled seed re-tracked into the torus of torus_key: its
        vars and degs are home's variables and their degrees there."""
        self.vars_in(home_key, torus_key)
        return self._cross[(home_key, torus_key)]

    def monomial_in(self, home_key, m, torus_key) -> pointed.NForm:
        """Expansion of home's normalized cluster monomial X^m in a torus,
        in n-coordinates there (NForm.expand gives the torus element).

        Kept by (torus, identity), the identity being the sorted
        (reference degree, exponent) pairs over the nonzero exponents.
        Peel one unit of the positive unfrozen factor with the fewest
        terms until the identity is kept (a variable always is) or only
        frozen exponents are left, whose monomial is the plain X^e
        (frozen variables are unit monomials in every torus). Then build
        back, one twisted product by the stored variable per step,
        normalized at its degree, and keep each step.
        """
        ts = self.tracked_in(home_key, torus_key)
        if any(m[i] < 0 for i in ts.seed.unfrozen):
            raise ValueError("unfrozen exponents must be nonnegative")
        degs, e, way = self.nodes[home_key].degs, list(m), []
        while True:
            identity = tuple(sorted((d, x) for d, x in zip(degs, e) if x))
            z = self._monomials.get((torus_key, identity))
            if z is not None:
                break
            peel = [j for j in ts.seed.unfrozen if e[j] > 0]
            if not peel:
                z = pointed.NForm.monomial(e, len(ts.seed.unfrozen))
                break
            j = min(peel, key=lambda j: (len(ts.vars[j].terms), j))
            way.append((identity, j))
            e[j] -= 1
        for identity, j in reversed(way):
            z = self._monomials[(torus_key, identity)] = pointed.mul(ts.ref, z, ts.vars[j],
                                                                     normalize=True)
        return z

    def distinct_variables(self):
        """Distinct unfrozen cluster variables over all nodes, in the
        reference torus's n-coordinates, keyed by degree."""
        return {ts.vars[i].g: ts.vars[i] for ts in self.nodes.values() for i in ts.seed.unfrozen}

    def undirected_edges(self):
        """One edge per node pair; the two endpoints may label the exchanged
        vertex differently, so keep the label seen from the smaller node."""
        pairs = {}
        for a, k, b in self.edges:
            key = (min(a, b), max(a, b))
            cand = (0 if a == key[0] else 1, k)
            cur = pairs.get(key)
            if cur is None or cand < cur:
                pairs[key] = cand
        return sorted((a, kk, b) for (a, b), (_, kk) in pairs.items())


def build_exchange_graph(seed, node_cap=10000) -> ExchangeGraph:
    return ExchangeGraph(seed, node_cap=node_cap)


def emit_dot(graph: ExchangeGraph) -> str:
    """DOT text: node labels are sorted degree vectors, edges the vertex."""
    ids = {key: i for i, key in enumerate(graph.order)}
    lines = ["graph exchange {"]
    for key in graph.order:
        label = "; ".join("(" + ",".join(map(str, g)) + ")" for g in key)
        lines.append(f'  n{ids[key]} [label="{label}"];')
    for a, k, b in graph.undirected_edges():
        if a in ids and b in ids:
            lines.append(f'  n{ids[a]} -- n{ids[b]} [label="{k + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
