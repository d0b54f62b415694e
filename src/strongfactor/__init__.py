"""Strong-factorization toolkit for sequence-space operators.

Decides, constructs and certifies factorizations of the form
T = M_g . S . M_h, where S is the trigonometric coefficient operator or the
running-averages (Cesàro) operator and M_g, M_h are pointwise multipliers.

numpy is loaded with one OpenBLAS thread. OpenBLAS starts its worker pool as
it loads, which costs every process CPU time, and no kernel here is large
enough to use a second thread. One thread also makes long dot products, such
as the norm estimator's, independent of the CPU count. OPENBLAS_NUM_THREADS=1
is set only while the submodules load numpy, and only when numpy is not loaded
yet and the caller has set no OpenBLAS thread variable; the caller's setting
wins, and the environment that subprocesses inherit is left as it was.
"""

import os as _os
import sys as _sys

_PIN_BLAS = "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _PIN_BLAS:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    cesaro_matrix,
    diagonal_sandwich,
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

if _PIN_BLAS:
    del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
