"""Tropical degree maps, shift seeds, and distinguished elements.

trop_deg / trop_codeg are the piecewise-linear coordinate changes that
degrees and codegrees of well-behaved elements undergo across one
mutation; composing them along a route between two graph nodes gives
the general transformation. Codegrees are degrees in the opposite seed
(seed.opposite_seed), so trop_codeg is trop_deg there. psi_matrix is
the linear map sending each unit vector to the degree of the matching
variable expanded in the other node's torus, and so an exponent vector m
to the degree of the cluster monomial X^m there (g-vectors add over
factors); it is the one degree map, and leclerc keys its lookups by it.

A node t is shift-detectable in direction +1 when some node t' carries,
for every unfrozen k, a variable whose expansion in t's torus has
degree -f_k plus a frozen correction; direction -1 asks for the node
whose torus sees t's own variables that way. The resulting injective
and projective elements index the distinguished pointed and copointed
products; a copointed product is the pointed construction from the
projectives, run in the opposite seed.

All of it works in n-coordinates (pointed.NForm). The injectives and
projectives are the shift node's variables as the exchange graph keeps
them in the base torus, and a distinguished element is their product
with X^(g+) by pointed.mul, normalized by one v-shift per factor. A
degree is an NForm's base when it is pointed there, and a codegree is
g + B n_max, read off co_n; nothing is expanded or measured. The public
element functions expand once, at the end, to return torus elements.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import _linalg, pointed
from .expansion import ExchangeGraph
from .qtorus import QTElem, pos_part, unit_vec, vec_add, vec_sub
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
    for seed, k in graph.route_steps(a_key, b_key):
        g = trop_deg(seed, k, g)
    return g


def phi_op(graph: ExchangeGraph, a_key, b_key, g):
    """Composite codegree tropical transformation from node a to node b."""
    for seed, k in graph.route_steps(a_key, b_key):
        g = trop_codeg(seed, k, g)
    return g


def psi_matrix(graph: ExchangeGraph, a_key, b_key):
    """Linear map as columns: unit vector i of a to deg_b of a's variable i,
    so m to the degree of a's X^m in b's torus."""
    return _linalg.transpose(graph.tracked_in(a_key, b_key).degs)


@dataclass(frozen=True)
class ShiftData:
    """Witness that target is the [direction]-shift of base.

    word turns base's labeled seed into target's. sigma maps each
    unfrozen k to the position whose variable is pointed at -f_k plus
    the frozen correction u[k]; the degrees are measured in the torus
    of base for direction +1 and of target for direction -1.
    """

    base: tuple
    target: tuple
    direction: int
    word: tuple
    sigma: dict
    u: dict


def _shift_pattern(graph, home_key, torus_key):
    """Match degrees of home's variables in torus against -f_k + frozen."""
    s = graph.nodes[torus_key].seed
    uf = set(s.unfrozen)
    sigma = {}
    u = {}
    for j, d in enumerate(graph.tracked_in(home_key, torus_key).degs):
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


def detect_shift(graph: ExchangeGraph, key, direction=1) -> ShiftData:
    """Scan nodes in discovery order for the shift of a node.

    Raises ShiftNotFound when no node matches (truncated graph, or the
    seed is not injective-reachable within the cap).
    """
    for cand in graph.order:
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


def _i_forms(graph, sd):
    """The injectives as NForms of the base seed: the +1 shift's variables
    in the base torus, in sigma's order."""
    if sd.direction != 1:
        raise ValueError("i_vars needs a +1 shift")
    cross = graph.vars_in(sd.target, sd.base)
    return [cross[sd.sigma[k]] for k in graph.nodes[sd.base].seed.unfrozen]


def _codegree(seed, z):
    """The NForm z's codegree g + B n_max, n_max its componentwise-largest
    n when that is a term; else None."""
    top = z.co_n()
    return None if top is None else vec_add(z.g, _linalg.mat_vec(seed.B, top))


def _p_forms(graph, sd):
    """The projectives as NForms of the base seed, matched to the unfrozen
    k by their codegrees -f_k + frozen, read off co_n."""
    if sd.direction != -1:
        raise ValueError("p_vars needs a -1 shift")
    s = graph.nodes[sd.base].seed
    cross = graph.vars_in(sd.target, sd.base)
    by_k = {}
    for j in s.unfrozen:
        eta = _codegree(s, cross[j])
        if eta is None:
            raise RuntimeError("projective element without a codegree")
        ks = [i for i in s.unfrozen if eta[i] != 0]
        if len(ks) != 1 or eta[ks[0]] != -1 or ks[0] in by_k:
            raise RuntimeError(f"projective codegree pattern violated: {eta}")
        by_k[ks[0]] = cross[j]
    return [by_k[k] for k in s.unfrozen]


def i_vars(graph: ExchangeGraph, sd: ShiftData):
    """Injective elements of the base node: I_k pointed at -f_k + u_k."""
    s = graph.nodes[sd.base].seed
    return [z.expand(s) for z in _i_forms(graph, sd)]


def p_vars(graph: ExchangeGraph, sd: ShiftData):
    """Projective elements of the base node: P_k copointed at -f_k + frozen.

    Indexed by reading codegrees rather than by permutation bookkeeping;
    the match must be a bijection onto the unfrozen set.
    """
    s = graph.nodes[sd.base].seed
    return [z.expand(s) for z in _p_forms(graph, sd)]


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


def inj_element(graph: ExchangeGraph, sd: ShiftData, g) -> QTElem:
    """Distinguished pointed element at g, built from the injectives."""
    s = graph.nodes[sd.base].seed
    return _distinguished(s, _i_forms(graph, sd), g).expand(s)


def proj_element(graph: ExchangeGraph, sd: ShiftData, eta) -> QTElem:
    """Distinguished copointed element at eta: inj_element's construction
    from the projectives in the opposite seed, each read from its
    codegree there, where products run in the reverse order (for
    quasi-commuting factors, a unit it normalizes away)."""
    base = graph.nodes[sd.base].seed
    op = opposite_seed(base)
    factors = [z.opposite(base) for z in _p_forms(graph, sd)]
    return _distinguished(op, factors, eta).expand(op)


def check_swap(graph: ExchangeGraph, sd: ShiftData, home_key, m) -> bool:
    """Copointedness in the base torus must match pointedness at the
    transported codegree in the -1 shift torus, for one cluster monomial."""
    if sd.direction != -1:
        raise ValueError("check_swap needs a -1 shift")
    z_t = graph.monomial_in(home_key, m, sd.base)
    z_s = graph.monomial_in(home_key, m, sd.target)
    top = z_t.co_n()
    if top is None or not z_t.terms[top].is_one():
        return not z_s.is_pointed()
    eta = _codegree(graph.nodes[sd.base].seed, z_t)
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
    return _transforms_between_nodes(graph, home_key, m, _codegree, phi_op)


def _degree(seed, z):
    """The NForm z's degree, its base, when z is pointed there; else None."""
    return z.g if z.is_pointed() else None


def _transforms_between_nodes(graph, home_key, m, extremal, transport):
    ends = {}
    for key in graph.order:
        e = extremal(graph.nodes[key].seed, graph.monomial_in(home_key, m, key))
        if e is None:
            return False
        ends[key] = e
    return all(ends[b] == transport(graph, a, b, ends[a])
               for a in graph.order for b in graph.order)
