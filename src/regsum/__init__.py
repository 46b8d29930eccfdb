"""regsum: regularized trigonometric series, the zeta machinery behind
them, and a verification suite for the associated closed-form identities.

Values are carried as ``mpmath.mpf`` at a configurable working precision
(:class:`EvalConfig`); exact rational work (Bernoulli numbers/polynomials)
uses ``fractions.Fraction``.
"""

from .bernoulli import (bernoulli_number, bernoulli_poly_coeffs,
                        harmonic_number, poly_eval)
from .config import DEFAULT_CONFIG, EvalConfig, cache_stats, workprec, xreal
from .errors import (ArityError, CapabilityError, CapacityError,
                     ConvergenceError, DomainError, PoleError,
                     PrecisionLossWarning, RedirectError, RegsumError,
                     UnknownIdentityError)
from .gammafn import digamma, gamma_fn, loggamma
from .identities import (REGISTRY, IdentityReport, polylog_unimodular,
                         run_suite, verify_identity)
from .kernels import richardson_extrapolate, sum_oscillatory, sum_taylor
from .series import (RegularizedValue, SeriesSpec, abel_oracle,
                     closed_form_series, evaluate_series,
                     integer_cos_series, integer_sin_series,
                     log_cos_limit_series, regularized_limit)
from .zeta import (LaurentCoeffs, euler_gamma, eta, hurwitz_zeta_deriv,
                   laurent_coefficients, phi_ramanujan, riemann_zeta,
                   stieltjes_gamma1, stieltjes_gamma1_limit,
                   stieltjes_integral, zeta_prime_at_zero,
                   zeta_sderiv_at_negatives)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "CapabilityError", "CapacityError", "ConvergenceError",
    "DEFAULT_CONFIG", "DomainError", "EvalConfig", "IdentityReport",
    "LaurentCoeffs", "PoleError", "PrecisionLossWarning", "REGISTRY",
    "RedirectError", "RegsumError", "RegularizedValue", "SeriesSpec",
    "UnknownIdentityError", "abel_oracle", "bernoulli_number",
    "bernoulli_poly_coeffs", "cache_stats", "closed_form_series", "digamma",
    "eta", "euler_gamma", "evaluate_series", "gamma_fn",
    "harmonic_number", "hurwitz_zeta_deriv", "integer_cos_series",
    "integer_sin_series", "laurent_coefficients", "log_cos_limit_series",
    "loggamma", "phi_ramanujan", "poly_eval", "polylog_unimodular",
    "regularized_limit", "richardson_extrapolate", "riemann_zeta",
    "run_suite", "stieltjes_gamma1", "stieltjes_gamma1_limit",
    "stieltjes_integral", "sum_oscillatory", "sum_taylor",
    "verify_identity", "workprec", "xreal", "zeta_prime_at_zero",
    "zeta_sderiv_at_negatives",
]
