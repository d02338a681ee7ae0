"""Tropical degree maps, shift seeds, and distinguished elements.

trop_deg / trop_codeg are the piecewise-linear coordinate changes that
degrees and codegrees of well-behaved elements undergo across one
mutation; composing them along a route between two graph nodes gives
the general transformation. Codegrees are degrees in the opposite seed
(seed.opposite_seed), so trop_codeg is trop_deg there. psi_matrix is
the linear map sending each unit vector to the degree of the matching
variable expanded in the other node's torus, and so an exponent vector m
to the degree of the cluster monomial X^m there (g-vectors add over
factors). It is the matrix form the checkers below apply; leclerc forms
the same degrees without it, by _linalg.combine over the columns
(ExchangeGraph.degs_in).

A node t is shift-detectable in direction +1 when some node t' carries,
for every unfrozen k, a variable whose expansion in t's torus has
degree -f_k plus a frozen correction; direction -1 asks for the node
whose torus sees t's own variables that way. The scan reads those
degrees off a re-tracking (the candidate into t's torus, or t into the
candidate's), so it first skips every candidate whose unfrozen B has
another profile (sorted rows and columns per vertex) than t's. The
shift's permutation of the unfrozen set must carry one B onto the
other, and no permutation does there: a full scan would re-track each
skipped candidate only to reject it, so the first match is the same.
The resulting injective and projective elements index the
distinguished pointed and copointed products; a copointed product is
the pointed construction from the projectives, run in the opposite
seed.

All of it works in n-coordinates (pointed.NForm). The injectives and
projectives are the shift node's variables as the exchange graph keeps
them in the base torus, and a distinguished element is their product
with X^(g+) by pointed.mul, normalized by one v-shift per factor. A
degree is an NForm's base when it is pointed there, and a codegree is
g + B n_max (NForm.codegree); nothing is expanded or measured. The public
element functions return NForms of the base seed, each based at its
degree (NForm.expand gives the torus element).
"""
from __future__ import annotations

from collections import namedtuple

from . import _linalg, pointed
from .expansion import ExchangeGraph
from .qtorus import pos_part, unit_vec, vec_sub
from .seed import opposite_seed


class FrozenFactorNotFrozen(RuntimeError):
    """A forced frozen correction vector had unfrozen support."""


class ShiftNotFound(LookupError):
    """No shifted seed with the required degree pattern in the graph."""


def trop_deg(seed, k, g):
    """Degree tropical transformation across the mutation at k."""
    ck = seed.col(k)
    gk = g[k]
    out = []
    for i in range(seed.n):
        if i == k:
            out.append(-gk)
            continue
        bik = seed.B[i][ck]
        out.append(g[i] + bik * max(gk, 0) if bik >= 0 else g[i] + bik * max(-gk, 0))
    return tuple(out)


def trop_codeg(seed, k, g):
    """Codegree tropical transformation across the mutation at k: the
    degree transformation of the opposite seed."""
    return trop_deg(opposite_seed(seed), k, g)


def phi(graph: ExchangeGraph, a_key, b_key, g):
    """Composite degree tropical transformation from node a to node b."""
    return _along_path_tree(graph, a_key, b_key, g, trop_deg)


def phi_op(graph: ExchangeGraph, a_key, b_key, g):
    """Composite codegree tropical transformation from node a to node b."""
    return _along_path_tree(graph, a_key, b_key, g, trop_codeg)


def _along_path_tree(graph, a_key, b_key, g, trop):
    """g transformed by trop along the path tree (step_toward) from node a
    to node b, in the seed of the node each step leaves. The walk turns at
    the lowest common ancestor, not the root: a step at k and one back at
    k in the mutated seed compose to the identity."""
    while a_key != b_key:
        k, nxt = graph.step_toward(a_key, b_key)
        g = trop(graph.nodes[a_key].seed, k, g)
        a_key = nxt
    return g


def psi_matrix(graph: ExchangeGraph, a_key, b_key):
    """Linear map as columns: unit vector i of a to deg_b of a's variable i,
    so m to the degree of a's X^m in b's torus."""
    return _linalg.transpose(graph.degs_in(a_key, b_key))


class ShiftData(namedtuple("ShiftData", "base target direction word sigma u")):
    """Witness that target is the [direction]-shift of base.

    word turns base's labeled seed into target's. sigma maps each
    unfrozen k to the position whose variable is pointed at -f_k plus
    the frozen correction u[k]; the degrees are measured in the torus
    of base for direction +1 and of target for direction -1. A
    namedtuple: immutable, and compared by its six fields.
    """

    __slots__ = ()


def _shift_pattern(graph, home_key, torus_key):
    """Match degrees of home's variables in torus against -f_k + frozen."""
    s = graph.nodes[torus_key].seed
    uf = set(s.unfrozen)
    sigma = {}
    u = {}
    for j, d in enumerate(graph.degs_in(home_key, torus_key)):
        if j not in uf:
            if d != unit_vec(s.n, j):
                return None
            continue
        # unfrozen slice of the degree must be exactly -f_k for one k
        ks = [i for i in s.unfrozen if d[i] != 0]
        if len(ks) != 1 or d[ks[0]] != -1 or ks[0] in sigma:
            return None
        sigma[ks[0]] = j
        u[ks[0]] = tuple(x if i not in uf else 0 for i, x in enumerate(d))
    if len(sigma) != len(s.unfrozen):
        return None
    return sigma, u


def _b_condition(sa, sb, sigma):
    """b_{sigma i, sigma j} on the shifted side equals b_{ij} on the base."""
    for i in sa.unfrozen:
        for j in sa.unfrozen:
            if sb.b(sigma[i], sigma[j]) != sa.b(i, j):
                return False
    return True


def _b_profile(seed):
    """A permutation invariant of the unfrozen square of B: the sorted
    (sorted row, sorted column) pairs of its vertices. Two seeds whose
    unfrozen B agree under a simultaneous permutation have equal
    profiles."""
    uf = seed.unfrozen
    return sorted((tuple(sorted(seed.b(i, j) for j in uf)), tuple(sorted(seed.b(j, i) for j in uf)))
                  for i in uf)


def detect_shift(graph: ExchangeGraph, key, direction=1) -> ShiftData:
    """Scan nodes in discovery order for the shift of a node.

    A candidate whose unfrozen B has another profile (_b_profile) than
    the base's is skipped before anything is re-tracked: sigma permutes
    the unfrozen set, so _b_condition fails for every sigma there, and
    the first match is the one the full scan finds.

    Raises ShiftNotFound when no node matches (truncated graph, or the
    seed is not injective-reachable within the cap).
    """
    profile = _b_profile(graph.nodes[key].seed)
    for cand in graph.order:
        if _b_profile(graph.nodes[cand].seed) != profile:
            continue
        if direction == 1:
            home, torus = cand, key
        else:
            home, torus = key, cand
        hit = _shift_pattern(graph, home, torus)
        if hit is None:
            continue
        sigma, u = hit
        sa = graph.nodes[torus].seed
        sb = graph.nodes[home].seed
        if not _b_condition(sa, sb, sigma):
            continue
        return ShiftData(
            base=key,
            target=cand,
            direction=direction,
            word=graph.route(key, cand),
            sigma=sigma,
            u=u,
        )
    raise ShiftNotFound(
        f"no {direction:+d} shift for node in graph"
        + (" (graph truncated)" if graph.truncated else "")
    )


def i_vars(graph: ExchangeGraph, sd: ShiftData):
    """Injective elements of the base node, I_k pointed at -f_k + u_k: the
    +1 shift's variables as NForms of the base seed, in sigma's order."""
    if sd.direction != 1:
        raise ValueError("i_vars needs a +1 shift")
    cross = graph.vars_in(sd.target, sd.base)
    return [cross[sd.sigma[k]] for k in graph.nodes[sd.base].seed.unfrozen]


def p_vars(graph: ExchangeGraph, sd: ShiftData):
    """Projective elements of the base node, P_k copointed at -f_k +
    frozen: the -1 shift's variables as NForms of the base seed.

    Indexed by reading codegrees (NForm.codegree) rather than by
    permutation bookkeeping; the match must be a bijection onto the
    unfrozen set.
    """
    if sd.direction != -1:
        raise ValueError("p_vars needs a -1 shift")
    s = graph.nodes[sd.base].seed
    cross = graph.vars_in(sd.target, sd.base)
    by_k = {}
    for j in s.unfrozen:
        eta = cross[j].codegree(s)
        if eta is None:
            raise RuntimeError("projective element without a codegree")
        ks = [i for i in s.unfrozen if eta[i] != 0]
        if len(ks) != 1 or eta[ks[0]] != -1 or ks[0] in by_k:
            raise RuntimeError(f"projective codegree pattern violated: {eta}")
        by_k[ks[0]] = cross[j]
    return [by_k[k] for k in s.unfrozen]


def _distinguished(seed, factors, g) -> pointed.NForm:
    """The NForm pointed at g: frozen factor times cluster monomial
    X^(g+) times factors (pointed NForms) to the powers -g_k for g_k < 0,
    each product normalized by one v-shift.

    The frozen factor is pinned by forcing the total degree to g; if the
    forced correction is not frozen-supported something upstream broke.
    """
    rank = len(seed.unfrozen)
    body = pointed.NForm.monomial(pos_part(g), rank)
    for z, k in zip(factors, seed.unfrozen):
        for _ in range(max(-g[k], 0)):
            body = pointed.mul(seed, body, z, normalize=True)
    u = vec_sub(g, body.g)
    if any(u[i] != 0 for i in seed.unfrozen):
        raise FrozenFactorNotFrozen(f"forced correction {u} is not frozen")
    return pointed.mul(seed, pointed.NForm.monomial(u, rank), body, normalize=True)


def inj_element(graph: ExchangeGraph, sd: ShiftData, g) -> pointed.NForm:
    """Distinguished pointed element at g, built from the injectives, as
    an NForm of the base seed."""
    return _distinguished(graph.nodes[sd.base].seed, i_vars(graph, sd), g)


def proj_element(graph: ExchangeGraph, sd: ShiftData, eta) -> pointed.NForm:
    """Distinguished copointed element at eta: inj_element's construction
    from the projectives in the opposite seed, each read from its
    codegree there, where products run in the reverse order (for
    quasi-commuting factors, a unit it normalizes away). The result is
    read back in the base seed, based at its degree there."""
    base = graph.nodes[sd.base].seed
    op = opposite_seed(base)
    factors = [z.opposite(base) for z in p_vars(graph, sd)]
    return _distinguished(op, factors, eta).opposite(op)


def check_swap(graph: ExchangeGraph, sd: ShiftData, home_key, m) -> bool:
    """Copointedness in the base torus must match pointedness at the
    transported codegree in the -1 shift torus, for one cluster monomial."""
    if sd.direction != -1:
        raise ValueError("check_swap needs a -1 shift")
    z_t = graph.monomial_in(home_key, m, sd.base)
    z_s = graph.monomial_in(home_key, m, sd.target)
    top = z_t.co_n()
    if top is None or z_t.terms[top] != pointed.v_power(0):
        return not z_s.is_pointed()
    eta = z_t.codegree(graph.nodes[sd.base].seed)
    psi = psi_matrix(graph, sd.base, sd.target)
    return z_s.is_pointed() and z_s.g == _linalg.mat_vec(psi, eta)


def check_swap_order(graph: ExchangeGraph, sd: ShiftData, eta, g) -> bool:
    """Dominance between eta and g flips under the -1 shift transport."""
    if sd.direction != -1:
        raise ValueError("check_swap_order needs a -1 shift")
    t_seed = graph.nodes[sd.base].seed
    s_seed = graph.nodes[sd.target].seed
    psi = psi_matrix(graph, sd.base, sd.target)
    lhs = pointed.dominance_leq(t_seed, eta, g)
    rhs = pointed.dominance_leq(s_seed, _linalg.mat_vec(psi, g), _linalg.mat_vec(psi, eta))
    return lhs == rhs


def check_trop_commute(graph: ExchangeGraph, t_key, tp_key, samples) -> bool:
    """Degree route through t agrees with codegree route through the shifts.

    For every sample g in the shifted torus coordinates:
        phi_{t',t} . psi_{t,t[1]}  ==  psi_{t',t'[1]} . phi_op_{t'[1],t[1]}.
    """
    sd_t = detect_shift(graph, t_key, 1)
    sd_tp = detect_shift(graph, tp_key, 1)
    psi_t = psi_matrix(graph, sd_t.target, t_key)
    psi_tp = psi_matrix(graph, sd_tp.target, tp_key)
    for g in samples:
        lhs = phi(graph, t_key, tp_key, _linalg.mat_vec(psi_t, g))
        rhs = _linalg.mat_vec(psi_tp, phi_op(graph, sd_t.target, sd_tp.target, g))
        if lhs != rhs:
            return False
    return True


def check_compatibly_pointed(graph: ExchangeGraph, home_key, m) -> bool:
    """Degrees of one cluster monomial transform by phi between all nodes."""
    return _transforms_between_nodes(graph, home_key, m, _degree, phi)


def check_compatibly_copointed(graph: ExchangeGraph, home_key, m) -> bool:
    """Codegrees of one cluster monomial transform by phi_op between nodes."""
    return _transforms_between_nodes(graph, home_key, m, pointed.NForm.codegree, phi_op)


def _degree(z, seed):
    """The NForm z's degree, its base, when z is pointed there; else None."""
    return z.g if z.is_pointed() else None


def _transforms_between_nodes(graph, home_key, m, extremal, transport):
    ends = {}
    for key in graph.order:
        e = extremal(graph.monomial_in(home_key, m, key), graph.nodes[key].seed)
        if e is None:
            return False
        ends[key] = e
    return all(ends[b] == transport(graph, a, b, ends[a])
               for a in graph.order for b in graph.order)
