"""Construction and numerical verification of the polynomial factors in the
Whittaker-Bessel identity W_{n+1/2,ik}(2x) = x L(x) K_{1/2+ik}(x) + c.c."""

from .config import EvalConfig, default_config, load_config
from .core import gamma, laguerre, log_gamma, pochhammer
from .errors import (ConvergenceError, DegenerateParameterError, InputError,
                     InvariantViolationError, NearDegeneracyWarning,
                     PoleError, WbidentError)
from .kernels import (OrderParams, bessel_i, bessel_i_tilde, bessel_k_quad,
                      bessel_k_via_w, kummer_m, whittaker_m, whittaker_w)
from .lambda_poly import (CONVENTION_MINUS, CONVENTION_PLUS, CoeffVector,
                          boundary_coeffs, check_second_order,
                          coeffs_from_recurrence, collocation_oracle,
                          laguerre_closed_form, resolve_convention)
from .ode import (IndicialAnalysis, Ode4Coeffs, SolutionConstants,
                  constants_closed_form, constants_defining_system,
                  constants_printed_system, coupled_residual,
                  indicial_analysis, lambda_reconstruction, ode4_coeffs,
                  ode4_residual, product_solution_check, solution_constants,
                  trial_condition_check)
from .report import ResidualReport, VerificationSuiteResult, export
from .suite import run_suite, verify_identity

__version__ = "0.1.0"
