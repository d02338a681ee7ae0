"""Exact computation in quantum cluster algebras.

Core layers, bottom to top: quantum torus arithmetic over integer
Laurent polynomials in v (qtorus), seed matrices and mutation (seed),
Laurent-expansion tracking and exchange graphs (expansion), dominance
order and unitriangular decomposition (pointed), tropical degree maps
and shift seeds (tropical), and the product-structure verifier
(leclerc). The cli module wraps everything behind a small command set.
"""

from .qtorus import NotDivisible, QTElem, VCoeff, exact_divide, twisted_mul
from .seed import (
    IncompatiblePair,
    IncompatibleResult,
    NoCompatibleLambda,
    QuantumSeed,
    check_compatible,
    find_compatible_lambda,
    make_seed,
    mutate_seed,
    opposite_seed,
    principal_framing,
)
from .expansion import (
    ExchangeGraph,
    TrackedSeed,
    apply_word,
    build_exchange_graph,
    cluster_monomial,
    emit_dot,
    initial_tracked,
    mutate_tracked,
)
from .pointed import (
    Decomposition,
    NForm,
    NonUnitLeading,
    codegree,
    decompose,
    degree,
    dominance_leq,
    dominance_n,
    interval,
    is_m_unitriangular,
)
from .tropical import (
    FrozenFactorNotFrozen,
    ShiftData,
    ShiftNotFound,
    check_compatibly_copointed,
    check_compatibly_pointed,
    check_swap,
    check_swap_order,
    check_trop_commute,
    detect_shift,
    i_vars,
    inj_element,
    p_vars,
    phi,
    phi_op,
    proj_element,
    psi_matrix,
    trop_codeg,
    trop_deg,
)
from .leclerc import (
    CandidateBasis,
    EnumerationTooLarge,
    LeclercReport,
    LeclercVerdict,
    check_codegree_triangular,
    check_degree_triangular,
    default_r_specs,
    verify_pair,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
