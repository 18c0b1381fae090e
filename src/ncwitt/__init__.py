"""Exact p-typical Witt vector computations over free non-commutative rings."""

from .freealg import (
    Alphabet,
    AlphabetMismatch,
    FreePoly,
    MINUS_INFINITY,
    commutator,
    phi_map,
)
from .cycquot import (
    AbelPoly,
    NotDivisible,
    abelianize,
    divide_exact,
    in_commutator_subgroup,
    least_rotation,
    sigma0,
)
from .ghost import (
    ContextMismatch,
    CoordinateTuple,
    GhostVector,
    WittContext,
    check_wagen_decomposition,
    ghost_map,
    w_add,
    w_equal,
    w_teichmuller,
    w_verschiebung,
    witt_polynomial,
)
from .cdwitt import (
    XVector,
    check_bracket_identity,
    check_component1_in_H,
    check_lemma_xyc,
    commutator_generator,
    f2_span_membership,
    h_membership,
    omega_map,
    x_abelianize,
    x_add,
    x_mul,
    x_teichmuller,
    x_verschiebung,
)
from .rmap import (
    CounterexampleReport,
    DegreeCapExceeded,
    EpsilonNotCommutator,
    RResult,
    check_ghost_vanishes,
    check_lemma_phi,
    counterexample_report,
    r_map,
)
from .parser import ParseError, UnknownGenerator, parse_poly

__version__ = "0.1.0"
