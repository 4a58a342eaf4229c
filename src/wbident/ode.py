"""The coupled second-order equation, the fourth-order ODE with its
product-form solution basis, the indicial exponents, and the connection
constants c2, c3, c4.

Lambda(x) = lambda(x)/x satisfies the coupled equation

    x L'' + (1-2ik) L' + (1+2n) L - 2x conj(L)' - conj(L) = 0,

and, after eliminating conj(L), a fourth-order linear ODE
a1 y'''' + a2 y''' + a3 y'' + a4 y' + a5 y = 0 whose general solution is
spanned by the four products

    I_{-1/2+ik}(x) M_{n+1/2,ik}(2x),   I_{-1/2+ik}(x) W_{n+1/2,ik}(2x),
    K_{-1/2+ik}(x) W_{n+1/2,ik}(2x),   K_{-1/2+ik}(x) M_{n+1/2,ik}(2x).

The basis check needs four derivatives of each product.  Each factor solves
a second-order equation y'' = p y' + q y: the modified Bessel equation
(DLMF 10.25.1) for I and K, the Whittaker equation (DLMF 13.14.1) for M and
W.  For I and K the exact (y, y') comes from value calls at orders nu and
nu+1 (DLMF 10.29.2; K_{1/2+ik} is the identity's own K), for M and W from
one derivative call; the equation gives y'' to y'''', and the Leibniz rule
gives the derivatives of the product.

The basis, trial and reconstruction checks take M and W on the whole grid
in one kernel call, at z = tuple(2 * x for x in grid), and I and K per
point; everything after the kernel calls runs per point, so each residual
equals the one-point check's bit for bit.  The trial check uses the basis
check's z tuple, so inside ``kernels.kernel_table()`` it reuses that check's
W and M_{n+1/2,ik} grids.  The reconstruction's W stays per point: the
suite's W realness check has already tabled those values.

Two variants of the ODE coefficients are provided.  The historically printed
a3 has constant term 2i(1-2k)(i+k)(i+4k); eliminating conj(L) symbolically
gives -2(1+2ik)(i+k)(i+4k) instead, and only the corrected variant annihilates
the product basis (and yields the indicial exponents {0, 1, 2ik, 1-2ik} that
the basis factors' small-x behaviour predicts).  The printed variant is kept
for the advisory comparison.

Statements with a known solution are checked by substituting it: the
indicial polynomial is evaluated at the predicted exponents, and the
defining system of the connection constants is solved by back-substitution.
Every relation whose terms must cancel (the ODE, the Whittaker operator, the
printed constant relations, the reconstruction of Lambda) is scored by
report.relative_residual, |sum of terms| / max |term|.

Lambda and a1..a5 are numpy.polynomial.Polynomial objects (default domain
and window, so p(x) is plain Horner evaluation); values taken from them are
converted to Python complex before they enter a ResidualReport.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import Polynomial

from .config import EvalConfig, default_config
from .core import SQRT_PI, gamma, gamma_ratio, laguerre
from .errors import InputError, InvariantViolationError
from .kernels import (OrderParams, bessel_i, bessel_k_quad, whittaker_m,
                      whittaker_w)
from .lambda_poly import CoeffVector, boundary_coeffs, coeffs_from_recurrence
from .report import ResidualReport, index_grid, relative_residual

ODE4_VARIANTS = ("corrected", "printed")


@dataclass(frozen=True)
class SolutionConstants:
    """Connection constants of Lambda = c2 I*W + c3 K*W + c4 K*M (c1 = 0)."""

    c2: complex
    c3: complex
    c4: complex

    def __post_init__(self):
        if not all(math.hypot(c.real, c.imag) < math.inf for c in self.as_tuple()):
            raise InputError("connection constants exceed the double range")

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.c2, self.c3, self.c4)


@dataclass(frozen=True)
class Ode4Coeffs:
    """Polynomial coefficient functions a1..a5 of the fourth-order ODE."""

    a1: Polynomial
    a2: Polynomial
    a3: Polynomial
    a4: Polynomial
    a5: Polynomial

    def as_list(self) -> list[Polynomial]:
        return [self.a1, self.a2, self.a3, self.a4, self.a5]


def ode4_coeffs(params: OrderParams, variant: str = "corrected") -> Ode4Coeffs:
    """Coefficient polynomials a1..a5, ascending coefficients in x.

    degrees (3, 2, 3, 2, 1); a1 has a double root at x = 0.
    """
    if variant not in ODE4_VARIANTS:
        raise InputError(f"unknown ode4 variant {variant!r}")
    n, k = params.n, params.k
    ik = 1j * k
    ipk = complex(k, 1)          # i + k
    ip4k = complex(4 * k, 1)     # i + 4k
    a1 = Polynomial([0, 0, 1 - 4 * ik, 4 * (1 + 2 * n)])
    a2 = Polynomial([0, 4 * (1 - 4 * ik), 12 * (1 + 2 * n)])
    if variant == "printed":
        a3_const = 2j * (1 - 2 * k) * ipk * ip4k
    else:
        a3_const = -2 * (1 + 2 * ik) * ipk * ip4k
    a3 = Polynomial([a3_const,
                     4 * (1 + 4 * k * k) * (1 + 2 * n),
                     4 * (1 + 4 * ik + 8 * n * (n + 1)),
                     -16 * (1 + 2 * n)])
    a4 = Polynomial([-4 * ipk * ip4k * (1 + 2 * n),
                     8 * (-1 + 2 * n * (n + 1) + 6 * ik),
                     -32 * (1 + 2 * n)])
    a5 = Polynomial([12 * n * (n + 1) * (1 - 4 * ik),
                     16 * n * (n + 1) * (1 + 2 * n)])
    coeffs = Ode4Coeffs(a1=a1, a2=a2, a3=a3, a4=a4, a5=a5)
    if not all(np.isfinite(p.coef).all() for p in coeffs.as_list()):
        raise InputError(f"ODE4 coefficients for k = {k} exceed the double range")
    return coeffs


# --- coupled second-order equation, exact in coefficient space --------------

def coupled_residual(cv: CoeffVector,
                     config: EvalConfig | None = None) -> ResidualReport:
    """Form x L'' + (1-2ik) L' + (1+2n) L - 2x conj(L)' - conj(L) exactly as a
    polynomial in the coefficients of L = lambda/x and report the coefficient
    magnitudes of the residual relative to the largest input coefficient."""
    config = config or default_config()
    n, k = cv.params.n, cv.params.k
    big_l = cv.big_lambda_poly()
    lc = Polynomial(big_l.coef.conj())
    x = Polynomial([0, 1])
    resid = (x * big_l.deriv(2) + (1 - 2j * k) * big_l.deriv()
             + (1 + 2 * n) * big_l - 2 * x * lc.deriv() - lc)
    scale = max(abs(c) for c in cv.a)
    coeffs = [complex(c) for c in resid.coef]
    # residual polynomial degree never exceeds n; pad for a stable report shape
    coeffs += [0j] * (n + 1 - len(coeffs))
    residuals = [abs(c) / scale for c in coeffs]
    return ResidualReport(
        check_name="coupled-equation",
        params=cv.params,
        grid=index_grid(0, len(residuals)),
        residuals=residuals,
        threshold=config.coupled_tol,
    )


# --- derivatives from the factors' second-order equations -----------------

BASIS = ("I*M", "I*W", "K*W", "K*M")


def bessel_ode_coeffs(nu, x: float):
    """(p, p', p''), (q, q', q'') at x of the modified Bessel equation
    y'' = p y' + q y, with p = -1/x and q = 1 + nu^2/x^2."""
    nu2 = complex(nu) ** 2
    return ((-1 / x, 1 / x ** 2, -2 / x ** 3),
            (1 + nu2 / x ** 2, -2 * nu2 / x ** 3, 6 * nu2 / x ** 4))


def whittaker_ode_coeffs(kappa, mu, x: float):
    """(p, p', p''), (q, q', q'') at x of the equation v'' = q v solved by
    v(x) = W_{kappa,mu}(2x) and M_{kappa,mu}(2x), with
    q = 1 - 2 kappa/x - (1/4 - mu^2)/x^2."""
    c = 0.25 - complex(mu) ** 2
    return ((0.0, 0.0, 0.0),
            (1 - 2 * kappa / x - c / x ** 2,
             2 * kappa / x ** 2 + 2 * c / x ** 3,
             -4 * kappa / x ** 3 - 6 * c / x ** 4))


def lift_derivatives(y, dy, p, q) -> list[complex]:
    """[y, y', y'', y''', y''''] of a solution of y'' = p y' + q y, given
    (y, y') and p, q each as (value, first, second derivative)."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    d2 = p0 * dy + q0 * y
    d3 = p1 * dy + p0 * d2 + q1 * y + q0 * dy
    d4 = p2 * dy + 2 * p1 * d2 + p0 * d3 + q2 * y + 2 * q1 * dy + q0 * d2
    return [y, dy, d2, d3, d4]


def product_derivatives(f, g) -> list[complex]:
    """Derivatives 0..4 of f*g by the Leibniz rule."""
    return [sum(comb(j, i) * f[i] * g[j - i] for i in range(j + 1))
            for j in range(5)]


def factor_derivatives(factor: str, params: OrderParams, x,
                       config: EvalConfig | None = None):
    """Derivatives 0..4 at x of one basis factor: "I" or "K" of order
    -1/2+ik at x, or "M" or "W" of indices (n+1/2, ik) at 2x.  The exact
    value and first derivative come from value calls at orders nu and nu+1
    for I and K, and from one derivative call for M and W; the factor's own
    equation gives the rest.  x is a float or a tuple of floats (then one
    list per point); M and W take the whole grid in one call."""
    config = config or default_config()
    n, k = params.n, params.k
    xs = tuple(x) if np.ndim(x) else (x,)
    if factor in ("I", "K"):
        nu = complex(-0.5, k)
        # DLMF 10.29.2: I' = I_{nu+1} + (nu/x) I, K' = -K_{nu+1} + (nu/x) K
        kernel, sign = (bessel_i, 1) if factor == "I" else (bessel_k_quad, -1)
        lifted = []
        for xi in xs:
            y = kernel(nu, xi, config)
            dy = sign * kernel(nu + 1, xi, config) + nu / xi * y
            lifted.append(lift_derivatives(y, dy, *bessel_ode_coeffs(nu, xi)))
    elif factor in ("M", "W"):
        kernel = whittaker_m if factor == "M" else whittaker_w
        y, dz, _ = kernel(n + 0.5, 1j * k, tuple(2 * xi for xi in xs), config,
                          deriv=True)
        # d/dx f(2x) = 2 f'(2x)
        lifted = [lift_derivatives(yi, 2 * di,
                                   *whittaker_ode_coeffs(n + 0.5, 1j * k, xi))
                  for xi, yi, di in zip(xs, y.tolist(), dz.tolist())]
    else:
        raise KeyError(factor)
    return lifted if np.ndim(x) else lifted[0]


def basis_products(params: OrderParams, x,
                   config: EvalConfig | None = None):
    """Derivatives 0..4 at x of the four product solutions, from one kernel
    call per factor; x is a float or a tuple of floats (then one dict per
    point)."""
    config = config or default_config()
    xs = tuple(x) if np.ndim(x) else (x,)
    factors = {f: factor_derivatives(f, params, xs, config) for f in "IKMW"}
    products = [{name: product_derivatives(factors[name[0]][i], factors[name[2]][i])
                 for name in BASIS} for i in range(len(xs))]
    return products if np.ndim(x) else products[0]


def _residual_from_derivs(coeffs: Ode4Coeffs, derivs, x: float) -> float:
    polys = coeffs.as_list()                      # a1..a5 multiply y''''..y
    return relative_residual([complex(polys[j](x)) * derivs[4 - j] for j in range(5)])


def ode4_residual(f, params: OrderParams, x: float,
                  variant: str = "corrected") -> float:
    """Normalized residual |a1 f'''' + ... + a5 f| / max_j |a_j f^(4-j)| at x.

    `f` is either the list [f, f', f'', f''', f''''] of values at x or a
    Polynomial (differentiated exactly).
    """
    if isinstance(f, Polynomial):
        f = [complex(f.deriv(j)(x)) for j in range(5)]
    return _residual_from_derivs(ode4_coeffs(params, variant), f, x)


def product_solution_check(params: OrderParams,
                           config: EvalConfig | None = None,
                           x_grid=(0.5, 1.0, 2.0, 4.0),
                           variant: str = "corrected") -> ResidualReport:
    """ODE residuals of all four basis products over the grid."""
    config = config or default_config()
    if not params.k > 0:
        raise InputError("product_solution_check requires k > 0")
    coeffs = ode4_coeffs(params, variant)
    at_x = list(zip(map(float, x_grid), basis_products(params, tuple(x_grid), config)))
    grid, residuals, notes = [], [], []
    for name in BASIS:
        for x, products in at_x:
            grid.append(x)
            residuals.append(_residual_from_derivs(coeffs, products[name], x))
        notes.append(f"{name}: x = {list(x_grid)}")
    suffix = "" if variant == "corrected" else "-printed"
    return ResidualReport(
        check_name=f"ode4-basis{suffix}",
        params=params,
        grid=grid,
        residuals=residuals,
        threshold=config.ode4_tol,
        notes=notes,
    )


def whittaker_operator_residual(y, d2y, n: int, k: float, x: float) -> float:
    """Normalized residual of L(y) = y'' + (-1 + (2n+1)/x + (1/4+k^2)/x^2) y
    at x, given y(x) and y''(x)."""
    potential = (-1.0 + (2 * n + 1) / x + (0.25 + k * k) / x ** 2) * y
    return relative_residual([d2y, potential])


def trial_condition_check(params: OrderParams, x_grid,
                          config: EvalConfig | None = None) -> list[ResidualReport]:
    """Check the conjugation structure and equation membership of the trial
    factors: W real (so iW is anti-self-conjugate), M_{+ik}+M_{-ik} real,
    M_{+ik}-M_{-ik} purely imaginary, and both W(2x) and the M-sum satisfy
    the Whittaker operator.  The operator check takes y'' from the kernels'
    term-by-term second derivative, never from the equation under test."""
    config = config or default_config()
    if not params.k > 0:
        raise InputError("trial_condition_check requires k > 0")
    n, k = params.n, params.k
    kap = n + 0.5
    mu = 1j * k

    # the ODE-basis check's z grid, so that in a kernel table W and M(+ik)
    # are that check's entries
    z = tuple(2 * x for x in x_grid)
    grids = []                                    # (value, second derivative)
    for kernel, order in ((whittaker_w, mu), (whittaker_m, mu), (whittaker_m, -mu)):
        f, _, f2 = kernel(kap, order, z, config, deriv=True)
        grids += [f.tolist(), f2.tolist()]
    w_real, sum_real, diff_imag, op_resid = [], [], [], []
    op_grid = []
    for x, w, w2, m_plus, m_plus2, m_minus, m_minus2 in zip(x_grid, *grids):
        w_real.append(abs(w.imag) / abs(w))
        s = m_plus + m_minus
        sum_real.append(abs(s.imag) / abs(s))
        d = m_plus - m_minus
        diff_imag.append(abs(d.real) / abs(d) if d != 0 else 0.0)
        op_grid.extend([float(x), float(x)])
        # d^2/dx^2 f(2x) = 4 f''(2x)
        op_resid.append(whittaker_operator_residual(w, 4 * w2, n, k, x))
        op_resid.append(whittaker_operator_residual(
            s, 4 * (m_plus2 + m_minus2), n, k, x))
    grid = [float(x) for x in x_grid]
    return [
        ResidualReport("trial-w-realness", params, grid, w_real,
                       config.realness_tol),
        ResidualReport("trial-m-sum-realness", params, grid, sum_real,
                       config.realness_tol),
        ResidualReport("trial-m-diff-imaginary", params, grid, diff_imag,
                       config.realness_tol),
        ResidualReport("trial-whittaker-equation", params, op_grid, op_resid,
                       config.whittaker_eq_tol,
                       notes=["residual pairs per x: W then M_{+}+M_{-}"]),
    ]


# --- indicial analysis -------------------------------------------------------

@dataclass(frozen=True)
class IndicialAnalysis:
    predicted: tuple[complex, ...]       # exponent sums of the basis factors
    defects: tuple[float, ...]           # leading balance at each predicted exponent
    printed_defects: tuple[float, ...]   # printed factorization at each of them
    match: bool                          # every defect within tolerance
    max_deviation: float
    printed_deviation: float


def _falling(s: complex, j: int) -> complex:
    """s (s-1) ... (s-j+1)."""
    return math.prod((s - i for i in range(j)), start=1 + 0j)


def indicial_analysis(params: OrderParams,
                      config: EvalConfig | None = None,
                      variant: str = "corrected") -> IndicialAnalysis:
    """Indicial polynomial at the regular singular point x = 0 from the ODE
    coefficients themselves (Frobenius leading balance), evaluated at the
    predicted exponents {0, 1, 2ik, 1-2ik}, and the printed factorization
    sigma(sigma-1)[sigma^2 - sigma - 4(1-k)(i+k)] evaluated there too.

    The leading coefficient of a1, 1-4ik, never vanishes, so the indicial
    polynomial has degree 4; vanishing at four distinct exponents fixes all
    of its roots, with no root finding."""
    config = config or default_config()
    if not params.k > 0:
        raise InputError("indicial_analysis requires k > 0")
    k = params.k
    # a_j's lowest term c x^i on y^(d), y ~ x^s: c s(s-1)...(s-d+1) x^(s+i-d)
    leading = []
    for j, p in enumerate(ode4_coeffs(params, variant).as_list()):
        lead = next(((i, c) for i, c in enumerate(p.coef) if c != 0), None)
        if lead is not None:
            leading.append((lead[0] - (4 - j), 4 - j, complex(lead[1])))
    shift = min(o for o, _, _ in leading)
    leading = [(d, c) for o, d, c in leading if o == shift]

    predicted = (0j, 1 + 0j, 2j * k, 1 - 2j * k)
    defects = tuple(relative_residual([c * _falling(s, d) for d, c in leading])
                    for s in predicted)
    q = -4 * (1 - k) * complex(k, 1)
    printed = tuple(relative_residual([_falling(s, 2) * t for t in (s * s, -s, q)])
                    for s in predicted)
    return IndicialAnalysis(
        predicted=predicted, defects=defects, printed_defects=printed,
        match=max(defects) <= config.indicial_tol,
        max_deviation=max(defects), printed_deviation=max(printed))


def indicial_reports(params: OrderParams,
                     config: EvalConfig | None = None) -> list[ResidualReport]:
    """Load-bearing report for the ODE's own leading balance, advisory one
    for the printed factorization, each at the predicted exponents."""
    config = config or default_config()
    ia = indicial_analysis(params, config)
    computed = ResidualReport(
        check_name="indicial-exponents",
        params=params,
        grid=index_grid(0, 4),
        residuals=list(ia.defects),
        threshold=config.indicial_tol,
        notes=[f"leading balance at predicted exponents {list(ia.predicted)}"])
    printed = ResidualReport(
        check_name="indicial-printed-quadratic",
        params=params,
        grid=index_grid(0, 4),
        residuals=list(ia.printed_defects),
        threshold=config.indicial_tol,
        notes=[f"printed factorization at predicted exponents "
               f"{list(ia.predicted)}; deviation {ia.printed_deviation:.3e}"])
    return [computed, printed]


# --- connection constants ----------------------------------------------------

def _constants_order(params: OrderParams) -> tuple[int, complex, float]:
    """(n, ik, cosh(pi k)); InputError unless k > 0 and cosh(pi k) is finite."""
    if not params.k > 0:
        raise InputError("constants require k > 0")
    try:
        return params.n, 1j * params.k, math.cosh(math.pi * params.k)
    except OverflowError as exc:
        raise InputError(f"constants: cosh(pi k) overflows at k = {params.k}") from exc


def constants_defining_system(params: OrderParams) -> SolutionConstants:
    """Solve the defining 3x3 linear system from asymptotic mode matching.

    Expanding each product at x -> 0 (I, K, M, W all have known leading
    powers) and matching against the polynomial Lambda gives three linear
    conditions on (c2, c3, c4):

      x^0 mode:      beta_IW c2                     = Lambda(0) = a_1
      x^{2ik} mode:  alpha_IW c2 + alpha_KW c3 + gamma_KM c4 = 0
      x^{1-2ik} mode:             delta_KW c3                = 0

    delta_KW = Gamma(-1/2+ik) Gamma(2ik) / (2 Gamma(-n+ik)) is a nonzero
    Gamma quotient, so back-substitution in row order gives c2 = a_1/beta_IW,
    exactly c3 = 0 and c4 = -alpha_IW c2/gamma_KM with gamma_KM =
    Gamma(1/2-ik).  That is c2 = 1 (by the gamma duplication formula) and
    c4 = -(2 cosh(pi k)/pi) Gamma(-2ik)/Gamma(-n-ik).
    """
    n, ik, _ = _constants_order(params)
    beta_iw = 2.0 ** (1 - 2 * ik) * gamma_ratio((2 * ik,), (0.5 + ik, -n + ik))
    alpha_iw = 2.0 * gamma_ratio((-2 * ik,), (-n - ik, 0.5 + ik))
    a1, _ = boundary_coeffs(params)
    c2 = a1 / beta_iw
    return SolutionConstants(c2=c2, c3=0j, c4=-alpha_iw * c2 / gamma(0.5 - ik))


def c4_closed_form(params: OrderParams) -> complex:
    """c4 = -(2 cosh(pi k)/pi) Gamma(-2ik)/Gamma(-n-ik)."""
    n, ik, ch = _constants_order(params)
    return -2 / math.pi * ch * gamma_ratio((-2 * ik,), (-n - ik,))


def solution_constants(params: OrderParams,
                       config: EvalConfig | None = None) -> SolutionConstants:
    """Production constants: the defining-system solution, cross-checked
    against the one printed relation that genuinely holds (see
    printed_relation_residuals, relation 2)."""
    config = config or default_config()
    consts = constants_defining_system(params)
    r2 = printed_relation_residuals(consts, params)[1]
    if r2 > config.constants_relation_tol:
        raise InvariantViolationError(
            f"defining-system constants violate the surviving linear relation "
            f"by {r2:.3e}")
    return consts


def _printed_relation_factors(params: OrderParams):
    """The factors of the printed relations: cosh(pi k), pi Gamma(1+2ik)/Gamma(-n+ik),
    Gamma(-n-ik)/Gamma(-2ik) and the right-hand side of relation 3."""
    n, ik, ch = _constants_order(params)
    return (ch,
            math.pi * gamma_ratio((1 + 2 * ik,), (-n + ik,)),
            gamma_ratio((-n - ik,), (-2 * ik,)),
            gamma_ratio((-ik, 0.5 + ik, -n + ik), (2 * ik, -n - ik)) / SQRT_PI)


def constants_printed_system(params: OrderParams) -> SolutionConstants:
    """Solve the three historically printed linear relations verbatim:

      c2 = 1 + c4 pi Gamma(1+2ik)/Gamma(-n+ik)
      c3 + (2/pi) c2 cosh(pi k) + c4 Gamma(-n-ik)/Gamma(-2ik) = 0
      2 c2 + pi c3/cosh(pi k) =
          Gamma(-ik)Gamma(1/2+ik)Gamma(-n+ik) / (sqrt(pi)Gamma(2ik)Gamma(-n-ik))
    """
    ch, g1, g2, rhs3 = _printed_relation_factors(params)
    mat = np.array([
        [1.0, 0.0, -g1],
        [2 * ch / math.pi, 1.0, g2],
        [2.0, math.pi / ch, 0.0],
    ], dtype=complex)
    rhs = np.array([1.0, 0.0, rhs3], dtype=complex)
    c2, c3, c4 = np.linalg.solve(mat, rhs)
    return SolutionConstants(c2=complex(c2), c3=complex(c3), c4=complex(c4))


def constants_closed_form(params: OrderParams) -> SolutionConstants:
    """The historically printed closed-form gamma expressions, verbatim."""
    n, ik, ch = _constants_order(params)
    pow2 = cmath.exp(2 * ik * math.log(2))          # 2^{2ik}
    sq = gamma_ratio((-ik, -ik), (2 * ik, -n - ik, -n - ik))
    c2 = 1 - ik * sq / pow2
    c3 = (-2 / math.pi * ch
          + 2 * ik * sq * ch / (pow2 * math.pi)
          + gamma_ratio((-ik, -n + ik), (2 * ik, 0.5 - ik, -n - ik)) / SQRT_PI)
    c4 = -gamma_ratio((-ik, -ik, -n + ik), (2 * ik, -n - ik, -n - ik)) / (2 * math.pi * pow2)
    return SolutionConstants(c2=c2, c3=c3, c4=c4)


def printed_relation_residuals(consts: SolutionConstants,
                               params: OrderParams) -> list[float]:
    """Relative residuals of the three printed relations for given constants."""
    ch, g1, g2, rhs3 = _printed_relation_factors(params)
    c2, c3, c4 = consts.as_tuple()
    relations = ([c2, -1.0, -c4 * g1],
                 [c3, 2 / math.pi * c2 * ch, c4 * g2],
                 [2 * c2, math.pi * c3 / ch, -rhs3])
    return [relative_residual(terms) for terms in relations]


def resolve_constants(params: OrderParams,
                      config: EvalConfig | None = None):
    """Evaluate the printed closed forms, test them against the printed
    relations, fall back to the printed-system solution on failure (a closed
    form that leaves the double range fails too), and report every
    discrepancy (including against the defining system)."""
    config = config or default_config()
    tol = config.constants_relation_tol
    notes = []
    try:
        chosen = constants_closed_form(params)
        closed_resid = printed_relation_residuals(chosen, params)
        failure = None
        if max(closed_resid) > tol:
            failure = (f"printed closed forms violate the printed relations "
                       f"(residuals {[f'{r:.2e}' for r in closed_resid]})")
    except InputError as exc:
        failure = f"printed closed forms fail ({exc})"
    source = "printed-closed-form"
    if failure:
        notes.append(f"{failure}; falling back to the printed-system solution")
        chosen = constants_printed_system(params)
        source = "printed-system"
    defining = constants_defining_system(params)
    dev = max(abs(a - b) / max(1.0, abs(b))
              for a, b in zip(chosen.as_tuple(), defining.as_tuple()))
    if dev > tol:
        notes.append(
            f"{source} constants deviate from the defining-system solution "
            f"by {dev:.3e} (relative); the defining system is the ground truth")
    return chosen, defining, notes


def lambda_reconstruction(params: OrderParams, x_grid,
                          config: EvalConfig | None = None,
                          constants: SolutionConstants | None = None,
                          c1: complex = 0j,
                          check_name: str = "lambda-reconstruction") -> ResidualReport:
    """Compare Lambda(x) evaluated from its recurrence coefficients against
    the kernel product combination c1 I*M + c2 I*W + c3 K*W + c4 K*M on the
    grid.

    At k = 0 the comparison is against the Laguerre form
    Lambda(x) = ((-1)^n n!/sqrt(pi)) L_n(2x) instead.
    """
    config = config or default_config()
    n, k = params.n, params.k
    x_grid = [float(x) for x in x_grid]
    if any(x < 0.5 or x > 6.0 for x in x_grid):
        raise InputError("reconstruction grid must lie in [0.5, 6]")

    lam = coeffs_from_recurrence(params, config).big_lambda_poly()(np.array(x_grid))
    if k == 0:
        lead = (-1) ** n * math.factorial(n) / SQRT_PI
        residuals = []
        for x, got in zip(x_grid, lam.tolist()):
            want = lead * laguerre(n, 2 * x)
            # L_n(2x) has real zeros; fall back to the coefficient scale there
            residuals.append(abs(got - want) / max(abs(want), abs(lead)))
        return ResidualReport(
            check_name="lambda-reconstruction-laguerre",
            params=params, grid=x_grid, residuals=residuals,
            threshold=config.reconstruction_tol)

    if constants is None:
        constants = solution_constants(params, config)
    nu = complex(-0.5, k)
    m = whittaker_m(n + 0.5, 1j * k, tuple(2 * x for x in x_grid), config)
    residuals = []
    # W per point: those values are already tabled by the suite's realness check
    for x, lam_x, m_x in zip(x_grid, lam.tolist(), m.tolist()):
        i_x = bessel_i(nu, x, config)
        w_x = whittaker_w(n + 0.5, 1j * k, 2 * x, config)
        k_x = bessel_k_quad(nu, x, config)
        residuals.append(relative_residual([c1 * i_x * m_x,
                                            constants.c2 * i_x * w_x,
                                            constants.c3 * k_x * w_x,
                                            constants.c4 * k_x * m_x,
                                            -lam_x]))
    return ResidualReport(
        check_name=check_name, params=params, grid=x_grid,
        residuals=residuals, threshold=config.reconstruction_tol)
