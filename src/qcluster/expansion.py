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

The build mutates every node in every direction, and one exchange
relation recurs across many edges; so does re-tracking into one torus.
So a new variable has one way to be formed, _new_variable over one
torus's stores, and the graph passes each torus's stores (one partial
per torus) to mutate_tracked. Each exchange monomial is the torus's
cluster monomial by identity (_monomial, below), made at most once
there. Each relation is divided at most once there: the torus's
relation table keeps the new variable by the reference degrees of X_k
and of each exchange monomial's factors, with the monomial's v-power.
The build and re-tracking intern a node's variables (one object per
reference degree, below) before they mutate it, so the key fixes every
input of the division, and a repeat reads back the variable that the
first one made, the store's object. Every mutation still mutates and
checks the seed, and its variables are still interned. apply_word and
cluster_monomial pass stores of their own, which start empty: each
exchange monomial, and each monomial of cluster_monomial, is then one
twisted product per unit of unfrozen exponent.

The exchange graph deduplicates tracked seeds by the unordered set of
variable degrees in the reference torus (a seed is determined by those
up to permutation). Whenever two routes meet at one node, the seeds
must match under the degree permutation, and the variables the store
(below), exactly. A node re-tracked into another node's torus is a
TrackedSeed too, and each variable's degree there is its base.

Each node's path extends the path of the node it was found from, so
the paths form a tree rooted at the reference. A node's tracked seed is
its re-tracking into the reference torus; every other cross-torus
object is built one step from a stored neighbour by one walk
(ExchangeGraph.build_back), a re-tracked node being its neighbour's
re-tracking mutated once (mutation is an involution on labeled seeds,
and an expansion does not depend on the route), the torus's own node's
variables there the unit monomials. Every store is keyed by torus
first, so forget drops a torus, the reference too, with one pop each.

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

from collections import defaultdict
from functools import partial

from . import pointed
from .qtorus import QTElem, pos_part, unit_vec
from .seed import QuantumSeed, mutate_seed


class TrackedSeed:
    """seed's variables in the torus of ref, in n-coordinates there
    (pointed.NForm, each based at its degree), reached from ref by path.
    degs[i] is the degree of vars[i] in ref's torus, its base, formed
    once here. Compares by identity; immutable by convention, like
    NForm: a changed copy is a new TrackedSeed."""

    __slots__ = ("seed", "vars", "ref", "path", "degs")

    def __init__(self, seed: QuantumSeed, vars, ref: QuantumSeed, path):
        self.seed = seed
        self.vars = vars
        self.ref = ref
        self.path = path
        self.degs = tuple(x.g for x in vars)


def initial_tracked(seed) -> TrackedSeed:
    rank = len(seed.unfrozen)
    xs = tuple(pointed.NForm.monomial(unit_vec(seed.n, i), rank) for i in range(seed.n))
    return TrackedSeed(seed=seed, vars=xs, ref=seed, path=())


def mutate_tracked(ts: TrackedSeed, k, exchange=None) -> TrackedSeed:
    """Mutate at unfrozen k, keeping all variables in the reference torus.

    In the current seed, the new variable z satisfies
        z * X_k = v^lam(a-, f_k) X^(a-) + v^lam(a+, f_k) X^(a+),
    where a+/a- collect the positive/negative parts of column k. The two
    monomials are formed in reference n-coordinates and summed at the
    base that dominates the other (sign-coherence of c-vectors makes one
    do), and z is their sum divided exactly by X_k, pointed at its base:
    the base is z's degree, never measured.

    z is exchange(ts, k, relation), _new_variable over the stores of the
    torus ts is tracked in; with no exchange, over stores of this one
    mutation, which start empty. The seed is mutated and checked.
    """
    s = ts.seed
    if k not in s.unfrozen:
        raise ValueError(f"vertex {k} is not unfrozen")
    exchange = exchange or partial(_new_variable, ts.ref, {}, {}, ts.degs, None)
    z = exchange(ts, k, _exchange(ts, k))
    return TrackedSeed(
        seed=mutate_seed(s, k),
        vars=ts.vars[:k] + (z,) + ts.vars[k + 1:],
        ref=ts.ref,
        path=ts.path + (k,),
    )


def _exchange(ts: TrackedSeed, k):
    """(a-, lam(a-, f_k), a+, lam(a+, f_k)) of the exchange relation at k."""
    s = ts.seed
    ck = s.col(k)
    col = tuple(s.B[i][ck] for i in range(s.n))
    fk = unit_vec(s.n, k)
    aminus, aplus = pos_part(tuple(-x for x in col)), pos_part(col)
    return aminus, s.lam(aminus, fk), aplus, s.lam(aplus, fk)


def _identity(degs, m):
    """A cluster monomial's identity: the sorted (reference degree,
    exponent) pairs of its factors, degs[i] being factor i's."""
    return tuple(sorted((d, x) for d, x in zip(degs, m) if x))


def _monomial(seed, monomials, degs, xs, m) -> pointed.NForm:
    """X^m of a seed tracked in the torus of seed, xs its variables there
    at reference degrees degs; m must be nonnegative on the unfrozen
    vertices (ValueError). The one way to form a cluster monomial, for
    monomial_in, cluster_monomial and each exchange monomial
    (_new_variable).

    monomials is the torus's store, by identity (_identity). Peel one
    unit of the positive unfrozen factor with the fewest terms until the
    identity is kept (a stored variable is) or only frozen exponents are
    left, whose monomial is the plain X^e (frozen variables are unit
    monomials in every torus). Then build back, one twisted product by
    the variable per step, normalized at its degree, and keep each step.
    """
    unfrozen = seed.unfrozen
    if any(m[i] < 0 for i in unfrozen):
        raise ValueError("unfrozen exponents must be nonnegative")
    e, way = list(m), []
    while True:
        identity = _identity(degs, e)
        z = monomials.get(identity)
        if z is not None:
            break
        peel = [j for j in unfrozen if e[j] > 0]
        if not peel:
            z = pointed.NForm.monomial(e, len(unfrozen))
            break
        j = min(peel, key=lambda j: (len(xs[j].terms), j))
        way.append((identity, j))
        e[j] -= 1
    for identity, j in reversed(way):
        z = monomials[identity] = pointed.mul(seed, z, xs[j], normalize=True)
    return z


def _new_variable(seed, monomials, relations, degs, new_deg, ts, k, relation) -> pointed.NForm:
    """The new variable of ts mutated at k (mutate_tracked's exchange),
    ts being tracked in the torus of seed with variables at reference
    degrees degs. monomials and relations are the torus's stores: its
    cluster monomials (_monomial) and its relation table, which keeps
    the new variable by the relation's reference degrees: X_k's, and
    each exchange monomial's identity with its v-power. A relation not
    in the table is divided once, each exchange monomial being the
    torus's cluster monomial. new_deg is the new variable's reference
    degree, None in the reference torus, where that is its base; an
    equal copy of the variable stored there gives way to it, so the
    table holds the store's objects (_intern still checks each one)."""
    aminus, lminus, aplus, lplus = relation
    key = (degs[k], _identity(degs, aminus), lminus, _identity(degs, aplus), lplus)
    z = relations.get(key)
    if z is None:
        monomial = partial(_monomial, seed, monomials, degs, ts.vars)
        num = pointed.add(seed, monomial(aminus).vshift(lminus), monomial(aplus).vshift(lplus))
        z = pointed.divide(seed, num, ts.vars[k]).normalized()
        stored = monomials.get(((z.g if new_deg is None else new_deg, 1),))
        relations[key] = z = stored if stored == z else z
    return z


def apply_word(ts: TrackedSeed, word) -> TrackedSeed:
    for k in word:
        ts = mutate_tracked(ts, k)
    return ts


def cluster_monomial(ts: TrackedSeed, m) -> QTElem:
    """Normalized localized cluster monomial X^m of the tracked seed,
    expanded in the reference torus (_monomial over a store of this one
    call); its degree is its n-form's base, sum m_i degs_i, and nothing
    is measured."""
    return _monomial(ts.ref, {}, ts.degs, ts.vars, m).expand(ts.ref)


def degree_key(ts: TrackedSeed):
    """Canonical node key: sorted tuple of reference-torus variable degrees."""
    if len(set(ts.degs)) != len(ts.degs):
        raise RuntimeError(f"repeated variable degrees in one seed: {list(ts.degs)}")
    return tuple(sorted(ts.degs))


def _assert_same_node(stored: TrackedSeed, other: TrackedSeed):
    """Two routes reached one degree class: the seeds must match under
    perm, with other's position i playing stored's position perm[i].
    Under the identity (the degrees in one order), the matrices must be
    equal; the row loops below only name the first mismatch."""
    a, b = stored.seed, other.seed
    if stored.degs == other.degs and a.Lambda == b.Lambda and a.B == b.B:
        return
    perm = tuple(stored.degs.index(g) for g in other.degs)
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
    is (path, i, j, b_ij b_ji) for such a seed, else None. Every store
    is keyed by torus first and kept until forget drops the torus:
    _cross[torus][home] is home's re-tracking into a torus other than
    the reference, each variable the torus's stored one-factor cluster
    monomial; _monomials[torus][identity] every cluster monomial made
    there, exchange monomials too; _relations[torus] its relation table.
    """

    def __init__(self, reference: QuantumSeed, node_cap=10000):
        self.reference = reference
        self.node_cap = node_cap
        self.nodes: dict = {}
        self.order: list = []
        self.edges: list = []
        self.truncated = False
        self.witness = None
        self._by_path: dict = {}
        self._cross: dict = defaultdict(dict)
        self._monomials: dict = defaultdict(dict)
        self._relations: dict = defaultdict(dict)
        self._build()

    def _build(self):
        ts0 = initial_tracked(self.reference)
        key0 = degree_key(ts0)
        ts0 = self._intern(ts0, key0, ts0.degs)
        self.nodes[key0] = ts0
        self.order.append(key0)
        self._by_path[ts0.path] = key0
        in_ref = partial(_new_variable, self.reference, self._monomials[key0],
                         self._relations[key0])
        frontier = [key0] if self._two_finite(ts0) else []
        while frontier:
            nxt = []
            for key in frontier:
                ts = self.nodes[key]
                # in the reference torus, each variable's base is its reference degree
                exchange = partial(in_ref, ts.degs, None)
                for k in ts.seed.unfrozen:
                    ts2 = mutate_tracked(ts, k, exchange)
                    key2 = degree_key(ts2)
                    self.edges.append((key, k, key2))
                    if key2 not in self.nodes and len(self.nodes) >= self.node_cap:
                        self.truncated = True
                        continue
                    ts2 = self._intern(ts2, key0, ts2.degs)  # its variables must match the store
                    if key2 in self.nodes:
                        _assert_same_node(self.nodes[key2], ts2)
                        continue
                    self.nodes[key2] = ts2
                    self.order.append(key2)
                    self._by_path[ts2.path] = key2
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

    def step_toward(self, key, torus_key):
        """One step of the path tree from node key toward the torus's
        node, which key is not: (k, neighbour), key's labeled seed being
        the neighbour's mutated at k. The step goes to the tree parent,
        or, from an ancestor of the torus's node, to its child on the
        torus's path."""
        path, up = self.nodes[key].path, self.nodes[torus_key].path
        if up[:len(path)] == path:  # an ancestor of the torus's node
            k, path = up[len(path)], up[:len(path) + 1]
        else:
            k, path = path[-1], path[:-1]
        return k, self._by_path[path]

    def build_back(self, store, home_key, torus_key, first, step):
        """store[home_key], store holding the torus's objects by node:
        walk the path tree toward the torus's node (step_toward) to the
        nearest node held, the torus's node holding first(), then build
        back each node of the way as step(neighbour, node, k), node's
        labeled seed being the neighbour's mutated at k."""
        key, way = home_key, []
        while key not in store:
            if key == torus_key:
                store[key] = first()
                break
            k, nxt = self.step_toward(key, torus_key)
            way.append((key, k))
            key = nxt
        for node, k in reversed(way):
            store[node] = step(key, node, k)
            key = node
        return store[home_key]

    def vars_in(self, home_key, torus_key):
        """home's variables in the torus of another node, in n-coordinates
        there (NForm.expand gives the torus elements); a variable's degree
        in the torus is its base, x.g.

        In the reference torus they are home's tracked seed's, interned
        (stored again after forget). Elsewhere home is re-tracked once per
        (torus, home), built back from the torus's own node, whose
        variables there are the unit monomials (build_back), each node its
        neighbour mutated once (_retrack).
        """
        if torus_key == self.order[0]:
            return self._intern(self.nodes[home_key], torus_key, self.nodes[home_key].degs).vars
        torus = self.nodes[torus_key]
        exchange = partial(_new_variable, torus.seed, self._monomials[torus_key],
                           self._relations[torus_key])
        return self.build_back(
            self._cross[torus_key], home_key, torus_key,
            lambda: self._intern(initial_tracked(torus.seed), torus_key, torus.degs),
            partial(self._retrack, torus_key, exchange)).vars

    def _retrack(self, torus_key, exchange, near_key, key, k) -> TrackedSeed:
        """key re-tracked into the torus: near_key's re-tracking mutated at
        k, exchange being _new_variable over the torus's stores, checked
        against key's labeled seed, interned."""
        near, node = self.nodes[near_key], self.nodes[key]
        ts = mutate_tracked(self._cross[torus_key][near_key], k,
                            partial(exchange, near.degs, node.degs[k]))
        if ts.seed != node.seed:
            raise RuntimeError("re-tracking did not reproduce the labeled seed")
        # keep the node's seed object, not an equal copy, for every cached pair
        return self._intern(TrackedSeed(node.seed, ts.vars, ts.ref, ts.path), torus_key, node.degs)

    def _intern(self, ts: TrackedSeed, torus_key, ref_degs) -> TrackedSeed:
        """ts with each variable replaced by the torus's stored one-factor
        cluster monomial (reference degree d, exponent 1; ref_degs in ts's
        order). The first variable seen at d is stored once it is checked
        pointed at its base (no negative n, coefficient 1 at n = 0); a
        later one must equal the stored one. Either failure raises
        RuntimeError: a broken expansion, or two routes that disagree.
        ts itself when each of its variables already is the stored one."""
        xs, monomials = [], self._monomials[torus_key]
        for d, x in zip(ref_degs, ts.vars):
            entry = monomials.get(((d, 1),))
            if entry is None:
                if not x.is_pointed():
                    raise RuntimeError(f"path {ts.path}: variable at reference degree {d} is "
                                       f"not pointed at {x.g} in torus {torus_key}")
                entry = monomials[((d, 1),)] = x
            elif entry is not x and entry != x:
                raise RuntimeError(f"path {ts.path}: variable at reference degree {d} "
                                   f"disagrees with its entry in torus {torus_key}")
            xs.append(entry)
        if all(x is y for x, y in zip(xs, ts.vars)):
            return ts
        return TrackedSeed(ts.seed, tuple(xs), ts.ref, ts.path)

    def monomial_in(self, home_key, m, torus_key) -> pointed.NForm:
        """Expansion of home's normalized cluster monomial X^m in a torus,
        in n-coordinates there (NForm.expand gives the torus element):
        _monomial of home's re-tracked variables, over the torus's store."""
        return _monomial(self.nodes[torus_key].seed, self._monomials[torus_key],
                         self.nodes[home_key].degs, self.vars_in(home_key, torus_key), m)

    def forget(self, torus_key):
        """Drop everything kept for the torus: its re-trackings, its
        cluster monomials (variables and exchange monomials too) and its
        relation table; a later request there makes them again. The
        nodes stay."""
        for store in (self._cross, self._monomials, self._relations):
            store.pop(torus_key, None)

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
