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
per torus, the build's and every re-tracking's alike) to
mutate_tracked. Each exchange monomial is the torus's
cluster monomial by identity (_monomial, below), made at most once
there. Each relation is formed at most once there: the torus's
relation table keeps the new variable by the reference degrees of X_k
and of each exchange monomial's factors, with the monomial's v-power.
The build and re-tracking intern a node's variables (one object per
reference degree, below) before they mutate it, so the key fixes every
input of the division, and a repeat reads back the variable that the
first one made, the store's object. A relation met for the first time
is divided only when its variable is new to the torus; when the store
already holds a variable at the new reference degree, one normalized
product with X_k checks that it is the quotient (exact quotients are
unique), and it is kept, the division running only if the check fails.
A labeled seed is mutated once per vertex per process (mutate_seed is
cached), and every seed, the loaded one too, is the one object of its
fields (seed._interned), so a re-tracking step reads the seed the build
made, and costs one exchange, plus at most one division or product
check; its variables are still interned. apply_word and cluster_monomial
pass stores of their own, which start empty: each exchange monomial,
and each monomial of cluster_monomial, is then one twisted product per
unit of unfrozen exponent, and each relation one division.

The exchange graph deduplicates tracked seeds by the unordered set of
variable degrees in the reference torus (a seed is determined by those
up to permutation). Whenever two routes meet at one node, the seeds
must match under the degree permutation, and the variables the store
(below), exactly. A node re-tracked into another node's torus is a
TrackedSeed too, and each variable's degree there is its base.

Each node's path extends the path of the node it was found from, so
the paths form a tree rooted at the reference. The reference torus is
a torus like the others: a node's tracked seed is its re-tracking
into it, which the build enters in its store as it finds the node.
Any other re-tracking, and the reference torus's once forget has
dropped it, is built one step from a stored neighbour by one walk
(ExchangeGraph.build_back), a re-tracked node being its neighbour's
re-tracking mutated once (mutation is an involution on labeled seeds,
and an expansion does not depend on the route), the torus's own node's
variables there the unit monomials. Every store is keyed by torus
first, so forget drops a torus, the reference too, with one pop each;
the nodes stay.

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
from operator import mul as _times, sub

from . import pointed
from .qtorus import unit_vec, vec_sub
from .seed import QuantumSeed, mutate_seed

# Most nodes an exchange graph holds, read when a build runs: a safety
# bound, since the 2-finite test refuses a seed of infinite type at
# once; the largest graph the CI, the demos or the benchmark builds
# (E6-principal's) has 833 nodes.
NODE_CAP = 10_000


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
    torus ts is tracked in, which keeps a stored variable that passes
    the product check instead of dividing; with no exchange, over stores
    of this one mutation, which start empty. The seed is mutated first
    (mutate_seed, once per labeled seed and k in a process, each
    distinct result checked once), which refuses a k that is not
    unfrozen.
    """
    seed = mutate_seed(ts.seed, k)
    exchange = exchange or partial(_new_variable, {}, {}, ts.degs, None)
    z = exchange(ts, k, _exchange(ts, k))
    return TrackedSeed(
        seed=seed,
        vars=ts.vars[:k] + (z,) + ts.vars[k + 1:],
        ref=ts.ref,
        path=ts.path + (k,),
    )


def _exchange(ts: TrackedSeed, k):
    """(a-, lam(a-, f_k), a+, lam(a+, f_k)) of the exchange relation at k,
    each lam(a, f_k) one dot product of a with column k of Lambda, read
    as -Lambda[k] since Lambda is skew (checked on construction)."""
    s = ts.seed
    ck = s.col(k)
    lam_k = s.Lambda[k]
    aplus = tuple(row[ck] if row[ck] > 0 else 0 for row in s.B)
    aminus = tuple(-row[ck] if row[ck] < 0 else 0 for row in s.B)
    return aminus, -sum(map(_times, aminus, lam_k)), aplus, -sum(map(_times, aplus, lam_k))


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


def _new_variable(monomials, relations, degs, new_deg, ts, k, relation) -> pointed.NForm:
    """The new variable of ts mutated at k (mutate_tracked's exchange),
    ts being tracked in the torus of ts.ref with variables at reference
    degrees degs. monomials and relations are the torus's stores: its
    cluster monomials (_monomial) and its relation table, which keeps
    the new variable by the relation's reference degrees: X_k's, and
    the exchange monomials' factors, as one identity of a+ - a- (their
    supports are disjoint), with the monomials' v-powers.

    A relation not in the table is formed once, each exchange monomial
    being the torus's cluster monomial. When the store already holds a
    variable at the new reference degree (new_deg, or, when degs are
    ts's own degrees as in the build, the quotient's base num.g - X_k.g),
    that variable is the new one exactly when its normalized product with
    X_k is the sum's normalization (_is_quotient), and it is kept; else
    the sum is divided by X_k, and an equal copy of a stored variable
    gives way to it. So the table holds the store's objects, and a
    stored variable that disagrees still reaches _intern's check."""
    seed, (aminus, lminus, aplus, lplus) = ts.ref, relation
    key = (degs[k], _identity(degs, map(sub, aplus, aminus)), lminus, lplus)
    z = relations.get(key)
    if z is None:
        monomial = partial(_monomial, seed, monomials, degs, ts.vars)
        num = pointed.add(seed, monomial(aminus).vshift(lminus), monomial(aplus).vshift(lplus))
        x_k = ts.vars[k]
        z = monomials.get(((vec_sub(num.g, x_k.g) if new_deg is None else new_deg, 1),))
        if z is None or not _is_quotient(seed, z, num, x_k):
            quotient = pointed.divide(seed, num, x_k).normalized()
            z = z if z == quotient else quotient
        relations[key] = z
    return z


def _is_quotient(seed, z, num, d) -> bool:
    """Whether the pointed z is num / d normalized: the normalized product
    z d equals num normalized. An exact quotient in the torus is unique,
    so this holds exactly when pointed.divide would return z. False when
    either side cannot be normalized, so that the division runs and
    raises what it raises."""
    try:
        return pointed.mul(seed, z, d, normalize=True) == num.normalized()
    except (pointed.NonUnitLeading, pointed.CoefficientOverflow):
        return False


def apply_word(ts: TrackedSeed, word) -> TrackedSeed:
    for k in word:
        ts = mutate_tracked(ts, k)
    return ts


def cluster_monomial(ts: TrackedSeed, m) -> pointed.NForm:
    """Normalized localized cluster monomial X^m of the tracked seed, in
    the reference torus's n-coordinates (_monomial over a store of this
    one call); its degree is its base, sum m_i degs_i, and nothing is
    measured."""
    return _monomial(ts.ref, {}, ts.degs, ts.vars, m)


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
    (key, vertex, key) mutation triples. truncated is set when NODE_CAP
    or a seed that is not 2-finite stopped the search; witness
    is (path, i, j, b_ij b_ji) for such a seed, else None. Every store
    is keyed by torus first and kept until forget drops the torus, the
    reference's like any other: _cross[torus][home] is home's
    re-tracking into the torus, each variable the torus's stored
    one-factor cluster monomial (the build enters each node there, in
    the reference torus, as it finds it); _monomials[torus][identity]
    every cluster monomial made there, exchange monomials too;
    _relations[torus] its relation table.
    """

    def __init__(self, reference: QuantumSeed):
        self.reference = reference
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
        """Breadth first from the reference, self.order being the queue;
        each node found is interned in the reference torus and entered
        (_enter), and the first one that is not 2-finite stops the search."""
        ts0 = initial_tracked(self.reference)
        key0 = degree_key(ts0)
        exchange = partial(_new_variable, self._monomials[key0], self._relations[key0])
        if not self._enter(key0, key0, self._intern(ts0, key0, ts0.degs)):
            return
        for key in self.order:
            ts = self.nodes[key]
            # in the reference torus, each variable's base is its reference degree
            in_ref = partial(exchange, ts.degs, None)
            for k in ts.seed.unfrozen:
                ts2 = mutate_tracked(ts, k, in_ref)
                key2 = degree_key(ts2)
                self.edges.append((key, k, key2))
                if key2 not in self.nodes and len(self.nodes) >= NODE_CAP:
                    self.truncated = True
                    continue
                ts2 = self._intern(ts2, key0, ts2.degs)  # its variables must match the store
                if key2 in self.nodes:
                    _assert_same_node(self.nodes[key2], ts2)
                elif not self._enter(key0, key2, ts2):
                    return

    def _enter(self, key0, key, ts: TrackedSeed):
        """Add a node the build found: ts, its tracked seed with interned
        variables, is also its re-tracking into the reference torus,
        key0's; whether its seed is 2-finite (_two_finite)."""
        self.nodes[key] = self._cross[key0][key] = ts
        self.order.append(key)
        self._by_path[ts.path] = key
        return self._two_finite(ts)

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
        """home's variables in the torus of a node, in n-coordinates there
        (NForm.expand gives the torus elements); a variable's degree in
        the torus is its base, x.g.

        home is re-tracked once per (torus, home), the reference torus
        like any other (the build fills its store): a re-tracking held is
        returned before anything is built; else it is built back from the
        torus's own node, whose variables there are the unit monomials
        (build_back), each node its neighbour mutated once (_retrack).
        """
        held = self._cross[torus_key].get(home_key)
        if held is not None:
            return held.vars
        torus = self.nodes[torus_key]
        exchange = partial(_new_variable, self._monomials[torus_key], self._relations[torus_key])
        return self.build_back(
            self._cross[torus_key], home_key, torus_key,
            lambda: self._intern(initial_tracked(torus.seed), torus_key, torus.degs),
            partial(self._retrack, torus_key, exchange)).vars

    def degs_in(self, home_key, torus_key):
        """The degrees in the torus of home's variables, their bases, as
        the graph keeps them: its re-tracking's (TrackedSeed.degs), made
        first (vars_in)."""
        self.vars_in(home_key, torus_key)
        return self._cross[torus_key][home_key].degs

    def _retrack(self, torus_key, exchange, near_key, key, k) -> TrackedSeed:
        """key re-tracked into the torus: near_key's re-tracking mutated at
        k, exchange being _new_variable over the torus's stores, checked
        against key's labeled seed, interned. A closed graph's build has
        mutated near's labeled seed at k, so mutate_seed returns that seed,
        the very object (one object per checked seed, seed._interned)."""
        near, node = self.nodes[near_key], self.nodes[key]
        ts = mutate_tracked(self._cross[torus_key][near_key], k,
                            partial(exchange, near.degs, node.degs[k]))
        if ts.seed != node.seed:
            raise RuntimeError("re-tracking did not reproduce the labeled seed")
        return self._intern(ts, torus_key, node.degs)

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
        """Drop everything kept for the torus, the reference's like any
        other: its re-trackings, its cluster monomials (variables and
        exchange monomials too) and its relation table; a later request
        there re-tracks along the path tree. The nodes stay."""
        for store in (self._cross, self._monomials, self._relations):
            store.pop(torus_key, None)

    def distinct_variables(self):
        """Distinct unfrozen cluster variables over all nodes, in the
        reference torus's n-coordinates, keyed by degree."""
        return {ts.vars[i].g: ts.vars[i] for ts in self.nodes.values() for i in ts.seed.unfrozen}

    def undirected_edges(self):
        """One edge (a, k, b) per node pair, a < b, in sorted order; the two
        endpoints may label the exchanged vertex differently, so keep the
        label seen from the smaller node. The node keys are sorted once
        and compared by their ranks there, integers."""
        keys = sorted(set(self.order).union(b for _, _, b in self.edges))
        rank = {key: i for i, key in enumerate(keys)}
        pairs = {}
        for a, k, b in self.edges:
            ra, rb = rank[a], rank[b]
            pair, cand = ((ra, rb), (0, k)) if ra <= rb else ((rb, ra), (1, k))
            cur = pairs.get(pair)
            if cur is None or cand < cur:
                pairs[pair] = cand
        edges = sorted((a, k, b) for (a, b), (_, k) in pairs.items())
        return [(keys[a], k, keys[b]) for a, k, b in edges]


def build_exchange_graph(seed) -> ExchangeGraph:
    """The exchange graph of seed, built up to NODE_CAP nodes."""
    return ExchangeGraph(seed)


def emit_dot(graph: ExchangeGraph, edges=None) -> str:
    """DOT text: node labels are sorted degree vectors, edges the vertex.
    edges are graph.undirected_edges(), formed here unless the caller
    holds them."""
    ids = {key: i for i, key in enumerate(graph.order)}
    lines = ["graph exchange {"]
    for key in graph.order:
        label = "; ".join("(" + ",".join(map(str, g)) + ")" for g in key)
        lines.append(f'  n{ids[key]} [label="{label}"];')
    for a, k, b in graph.undirected_edges() if edges is None else edges:
        if a in ids and b in ids:
            lines.append(f'  n{ids[a]} -- n{ids[b]} [label="{k + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
