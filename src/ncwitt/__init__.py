"""Exact p-typical Witt vector computations over free non-commutative rings."""

from .freealg import (
    Alphabet,
    AlphabetMismatch,
    COEFF_BIT_BUDGET,
    FreePoly,
    InputError,
    LETTER_BUDGET,
    MINUS_INFINITY,
    ResourceLimit,
    TERM_BUDGET,
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
    necklace_count,
    sigma0,
    trace_power,
)
from .ghost import (
    ContextMismatch,
    CoordinateTuple,
    GhostVector,
    WittContext,
    check_wagen_decomposition,
    ghost_map,
    verschiebung,
    w_teichmuller,
    witt_polynomial,
)
from .cdwitt import (
    XVector,
    check_bracket_identity,
    check_lemma_xyc,
    commutator_generator,
    f2_span_membership,
    h_membership,
    omega_map,
    x_abelianize,
    x_teichmuller,
)
from .rmap import (
    CounterexampleReport,
    EpsilonNotCommutator,
    check_lemma_phi,
    counterexample_report,
    r_map,
)
from .parser import ParseError, UnknownGenerator, parse_poly

__version__ = "0.1.0"
