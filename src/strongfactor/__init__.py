"""Strong-factorization toolkit for sequence-space operators.

Decides, constructs and certifies factorizations of the form
T = M_g . S . M_h, where S is the trigonometric coefficient operator or the
running-averages (Cesàro) operator and M_g, M_h are pointwise multipliers.
"""

from .errors import (
    AllZeroMultiplier,
    DegenerateExponent,
    DomainMismatch,
    ExponentRange,
    IndexOutOfRange,
    LengthMismatch,
    ParseError,
    SizeMismatch,
    SpecError,
    StrongFactorError,
    ZeroDiagonal,
    ZeroPivot,
)
from .exponents import INF, Exponent, conjugate, multiplier_exponent
from .factorization import (
    Certificate,
    CertifierResult,
    SignPattern,
    Verdict,
    certify_inequality_cesaro,
    certify_inequality_fourier,
    cesaro_factor_check,
    cesaro_factor_check_j0,
    fourier_factor_check,
    matrix_factor_check,
    verify_representing,
)
from .grid_functions import (
    BasisFamily,
    BasisSpec,
    GridFunction,
    QuadRule,
    basis_element,
    composite_gauss_legendre,
    constant,
    default_rule,
    eval_basis,
    fourier_coeffs,
    from_callable,
    lp_function_norm,
    quad_integral,
    random_trig_poly,
    representing_setup,
)
from .operators import (
    CesaroOp,
    MatrixOp,
    apply,
    cesaro_matrix,
    diagonal_sandwich,
    factorable_matrix,
    identity_matrix,
    operator_norm_estimate,
    perturb_entry,
    random_lower_triangular,
)
from .seq_spaces import (
    IndexDomain,
    SeqSpaceSpec,
    SpaceKind,
    TruncatedSeq,
    dual_norm,
    kellogg_norm,
    lp_norm,
    lp_space,
    space_norm,
    weighted_lp_norm,
)

__version__ = "0.1.0"
