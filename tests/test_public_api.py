"""The public API of ``strongfactor``: every name the package exports that is
neither a submodule nor underscored.  A change to the API edits this set, so
its size is read here rather than counted by hand; so is its knob count, the
parameters with a default over every exported callable."""

import enum
import inspect
import types

import strongfactor

PUBLIC_API = {
    # errors
    "AllZeroMultiplier", "DegenerateExponent", "DomainMismatch", "ExponentRange",
    "IndexOutOfRange", "LengthMismatch", "ParseError", "SizeMismatch", "SpecError",
    "StrongFactorError", "ZeroDiagonal", "ZeroPivot",
    # exponents
    "INF", "Exponent", "conjugate", "multiplier_exponent",
    # factorization
    "Certificate", "CertifierResult", "SignPattern", "Verdict",
    "certify_inequality_cesaro", "certify_inequality_fourier", "cesaro_factor_check",
    "cesaro_factor_check_j0", "fourier_factor_check", "matrix_factor_check",
    "verify_representing",
    # grid_functions
    "BasisFamily", "BasisSpec", "GridFunction", "QuadRule", "basis_element",
    "composite_gauss_legendre", "constant", "default_rule", "eval_basis",
    "fourier_coeffs", "from_callable", "lp_function_norm", "quad_integral",
    "random_trig_poly", "representing_setup",
    # operators
    "CesaroOp", "MatrixOp", "cesaro_matrix", "diagonal_sandwich", "identity_matrix",
    "operator_norm_estimate", "perturb_entry", "random_lower_triangular",
    # seq_spaces
    "IndexDomain", "SeqSpaceSpec", "SpaceKind", "TruncatedSeq", "dual_norm",
    "kellogg_norm", "lp_norm", "lp_space", "space_norm", "weighted_lp_norm",
}


def test_public_api_is_pinned():
    exported = {name for name, value in vars(strongfactor).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_API
    assert len(PUBLIC_API) == 60


def test_knob_count_is_pinned():
    # an Enum's signature is the enum machinery's; exceptions have none
    callables = [value for name, value in vars(strongfactor).items()
                 if name in PUBLIC_API and callable(value)
                 and not (isinstance(value, type)
                          and issubclass(value, (enum.Enum, BaseException)))]
    knobs = [param for value in callables
             for param in inspect.signature(value).parameters.values()
             if param.default is not inspect.Parameter.empty]
    assert len(knobs) == 30
