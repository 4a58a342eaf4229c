"""The coupled second-order equation, the fourth-order ODE with its
product-form solution basis, the indicial exponents, and the connection
constants c2, c3, c4.

Lambda(x) = lambda(x)/x satisfies the coupled equation

    x L'' + (1-2ik) L' + (1+2n) L - 2x conj(L)' - conj(L) = 0.
Its x^j coefficient, (j+1)(j+1-2ik) P_{j+1} + (2n+1) P_j - (2j+1) conj(P_j)
for L = sum P_j x^j, is the first-order recurrence at m = j+1 (j < n) and
(2n+1)(P_n - conj(P_n)) at j = n; coupled_residual checks it exactly on
Lambda's Gaussian integers (lambda_poly.coupled_equation_residuals).  After
eliminating conj(L), L satisfies a fourth-order linear ODE
a1 y'''' + a2 y''' + a3 y'' + a4 y' + a5 y = 0 whose general solution is
spanned by the four products

    I_{-1/2+ik}(x) M_{n+1/2,ik}(2x),   I_{-1/2+ik}(x) W_{n+1/2,ik}(2x),
    K_{-1/2+ik}(x) W_{n+1/2,ik}(2x),   K_{-1/2+ik}(x) M_{n+1/2,ik}(2x).

Each factor solves a second-order equation y'' = p y' + q y: the modified
Bessel equation (DLMF 10.25.1) at order -1/2+ik for I and K, the Whittaker
equation (DLMF 13.14.1) at kappa = n+1/2, mu = ik for M(2x) and W(2x).  The
basis check takes the canonical solutions u0, u1 and v0, v1 of both, with
(y, y') = (1, 0) and (0, 1) at x; I = I(x) u0 + I'(x) u1, and likewise K, M
and W, so their products span the same solutions.  The check calls no
kernel.  Every derivative of a canonical product is a Laurent polynomial in
x with coefficients rational in k (see _exact), so is each product's
residual a1 y'''' + ... + a5 y, and the identity checked is that this
residual is the zero polynomial for the corrected a3.  The printed a3 leaves
(2+2i)(k+i)(4k+i) (u_i v_j)'', which is 0 for u0*v1 alone.

The trial and reconstruction checks take M, and the trial check W, on the
whole grid in one kernel call per order (three in the trial check), at
z = tuple(2 * x for x in grid), and I and K per point; everything after the
kernel calls runs per point, so each residual equals the one-point check's
bit for bit.  The trial check's W comes from the two-term connection formula
(``kernels._whittaker_w_two_term``), because ``whittaker_w`` returns the
identity's W as the doubled real part of one term, real by construction.
The reconstruction's W stays per point: inside ``run_suite`` the kernel
table serves those values from the one-term W column (n = 0..n_max, one
call per k) of the suite's W realness check.

Two variants of the ODE coefficients are provided.  The historically printed
a3 has constant term 2i(1-2k)(i+k)(i+4k); eliminating conj(L) symbolically
gives -2(1+2ik)(i+k)(i+4k) instead, and only the corrected variant annihilates
the product basis (and yields the indicial exponents {0, 1, 2ik, 1-2ik} that
the basis factors' small-x behaviour predicts).  The printed variant is kept
for the advisory comparison.

Statements with a known solution are checked by substituting it: the
indicial polynomial at the predicted exponents.  The connection constants
are closed forms, c2 = 1, c3 = 0 and one Gamma quotient for c4, derived
from their defining system in solution_constants.  A relation whose terms must
cancel is scored by |sum of terms| / max |term|: exactly where they are
Gaussian integers (the coupled equation, the ODE per power of x, the
indicial polynomials), else in double by report.relative_residual.  The
exact checks pass only at 0.0 (report.EXACT), so they take no config.

Lambda is a numpy.polynomial.Polynomial (default domain and window, so p(x)
is plain Horner evaluation); values taken from it are converted to Python
complex before they enter a ResidualReport.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._exact import (add, aligned, deriv, gaussian_product, mul, poly, scale,
                     value)
from .config import EvalConfig, default_config
from .core import SQRT_PI, gamma_ratio, laguerre
from .errors import InputError
from .kernels import (OrderParams, _refuse_small_k, _whittaker_w_two_term,
                      bessel_i, bessel_k_quad, whittaker_m, whittaker_w)
from .lambda_poly import (EXACT_NOTES, coeffs_from_recurrence,
                          coupled_equation_residuals)
from .report import (EXACT, ResidualReport, exact_relative_residual,
                     float_grid, index_grid, relative_residual)

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
    """den a1, ..., den a5: exact polynomials in x (see _exact), with
    den = q^3 at k = p/q."""

    a1: dict
    a2: dict
    a3: dict
    a4: dict
    a5: dict
    den: int

    def as_list(self) -> list[dict]:
        return [self.a1, self.a2, self.a3, self.a4, self.a5]


def ode4_coeffs(params: OrderParams, variant: str = "corrected") -> Ode4Coeffs:
    """a1..a5 over the denominator q^3 at k = p/q, with a3(0) = c equal to
    -2(1+2ik)(i+k)(i+4k) (corrected) or 2i(1-2k)(i+k)(i+4k) (printed):
      a1 = (1-4ik) x^2 + 4(1+2n) x^3,   a2 = 4(1-4ik) x + 12(1+2n) x^2,
      a3 = c + 4(1+4k^2)(1+2n) x + 4(1+4ik+8n(n+1)) x^2 - 16(1+2n) x^3,
      a4 = -4(i+k)(i+4k)(1+2n) + 8(-1+2n(n+1)+6ik) x - 32(1+2n) x^2,
      a5 = 12n(n+1)(1-4ik) + 16n(n+1)(1+2n) x."""
    if variant not in ODE4_VARIANTS:
        raise InputError(f"unknown ode4 variant {variant!r}")
    n = params.n
    p, q = params.k.as_integer_ratio()
    m, nn, q2, q3 = 1 + 2 * n, n * (n + 1), q * q, q ** 3
    # q^2 (i+k)(i+4k), from q(i+k) = p + iq and q(i+4k) = 4p + iq
    quad = gaussian_product((p, q), (4 * p, q))
    a3_const = gaussian_product(
        (0, 2 * (q - 2 * p)) if variant == "printed" else (-2 * q, -4 * p), quad)
    return Ode4Coeffs(
        a1=poly([(0, 0), (0, 0), (q3, -4 * p * q2), (4 * m * q3, 0)]),
        a2=poly([(0, 0), (4 * q3, -16 * p * q2), (12 * m * q3, 0)]),
        a3=poly([a3_const, (4 * m * q * (q2 + 4 * p * p), 0),
                 (4 * (1 + 8 * nn) * q3, 16 * p * q2), (-16 * m * q3, 0)]),
        a4=poly([(-4 * m * q * quad[0], -4 * m * q * quad[1]),
                 (8 * (2 * nn - 1) * q3, 48 * p * q2), (-32 * m * q3, 0)]),
        a5=poly([(12 * nn * q3, -48 * nn * p * q2), (16 * nn * m * q3, 0)]),
        den=q3)


# --- coupled second-order equation, exact in coefficient space --------------

def coupled_residual(params: OrderParams) -> ResidualReport:
    """The coupled equation's coefficients x^0..x^n, scored exactly on
    Lambda's Gaussian integers by lambda_poly.coupled_equation_residuals."""
    return ResidualReport(
        check_name="coupled-equation",
        params=params,
        grid=index_grid(0, params.n + 1),
        residuals=coupled_equation_residuals(params),
        threshold=EXACT,
        notes=EXACT_NOTES,
    )


# --- the product basis, exact in x -----------------------------------------

BASIS = ("u0*v0", "u0*v1", "u1*v0", "u1*v1")


def _canonical(p_eq, q_eq, s: int) -> list[list[dict]]:
    """[u0, u1], derivatives 0..4 over s^4, for s y'' = p_eq y' + q_eq y
    and (y, y') = (1, 0), (0, 1) at x: y^(j) = A_j y + B_j y' gives
    A_{j+1} = A_j' + B_j q_eq/s, B_{j+1} = A_j + B_j' + B_j p_eq/s."""
    a, b = [poly([(1, 0)])], [{}]
    for _ in range(4):
        a_j, b_j = a[-1], b[-1]
        a.append(add(scale((s, 0), deriv(a_j)), mul(b_j, q_eq)))
        b.append(add(scale((s, 0), add(a_j, deriv(b_j))), mul(b_j, p_eq)))
    return [[scale((s ** (4 - j), 0), f[j]) for j in range(5)] for f in (a, b)]


def basis_products(params: OrderParams) -> dict[str, list[dict]]:
    """Derivatives 0..4 at x of the products u_i v_j, keyed by BASIS, exact
    over (4q^2)^8 at k = p/q, by the Leibniz rule.  u0, u1 solve
    y'' = -y'/x + (1 + nu^2/x^2) y at nu = -1/2+ik, and v0, v1 solve
    y'' = (1 - (2n+1)/x - (1/4+k^2)/x^2) y, each taken times 4q^2."""
    p, q = params.k.as_integer_ratio()
    s = 4 * q * q
    u = _canonical(poly([(-s, 0)], -1),
                   poly([(q * q - 4 * p * p, -4 * p * q), (0, 0), (s, 0)], -2), s)
    v = _canonical({}, poly([(-q * q - 4 * p * p, 0),
                             (-(2 * params.n + 1) * s, 0), (s, 0)], -2), s)
    return {f"u{i}*v{j}": [add(*(scale((math.comb(m, r), 0), mul(u[i][r], v[j][m - r]))
                                 for r in range(m + 1))) for m in range(5)]
            for i in range(2) for j in range(2)}


def ode4_scores(coeffs: Ode4Coeffs, derivs) -> list[tuple[int, float]]:
    """(power of x, exact_relative_residual of its five terms) for each
    coefficient of a1 y'''' + ... + a5 y, derivs = [y, ..., y''''] exact
    Laurent polynomials over one denominator."""
    terms = [mul(a, d) for a, d in zip(coeffs.as_list(), derivs[::-1])]
    return [(e, exact_relative_residual(cs)) for e, cs in aligned(terms)]


def ode4_residual(f, params: OrderParams, x: float,
                  variant: str = "corrected") -> float:
    """Normalized residual |a1 f'''' + ... + a5 f| / max_j |a_j f^(4-j)| at x
    for the values f = [f, f', ..., f''''] at x, a_j(x) from ode4_coeffs."""
    c = ode4_coeffs(params, variant)
    try:
        return relative_residual([value(a, c.den, x) * d
                                  for a, d in zip(c.as_list(), f[::-1])])
    except OverflowError as exc:
        raise InputError(f"ODE4 coefficients for k = {params.k} exceed the "
                         "double range") from exc


def product_solution_check(params: OrderParams,
                           variant: str = "corrected") -> ResidualReport:
    """ode4_scores of the four canonical products (basis_products), in
    BASIS order; the grid holds the power of x of each residual."""
    if not params.k > 0:
        raise InputError("product_solution_check requires k > 0")
    coeffs = ode4_coeffs(params, variant)
    scores = [ode4_scores(coeffs, d) for d in basis_products(params).values()]
    grid, notes = _basis_layout(tuple(tuple(e for e, _ in sc) for sc in scores))
    return ResidualReport(
        "ode4-basis" if variant == "corrected" else "ode4-basis-printed", params,
        grid, [r for sc in scores for _, r in sc], EXACT, notes=notes)


@functools.cache
def _basis_layout(powers: tuple) -> tuple[tuple, tuple]:
    """The grid and notes of an ode4-basis report whose four products leave
    these powers of x, one pair per layout (it repeats across n and k),
    shared by every report; each power's float is index_grid's."""
    grid = tuple(index_grid(e, e + 1)[0] for ps in powers for e in ps)
    return grid, ("u0, u1 (Bessel, order -1/2+ik) and v0, v1 (Whittaker, (n+1/2, ik)): "
                  "(y, y') = (1, 0), (0, 1) at x; grid: powers of x, scored exactly",
                  *(f"{name}: x^{list(ps)}" for name, ps in zip(BASIS, powers)))


# the Whittaker operator's scale is at least this share of the largest addend
# of y'': y'' carries a few ulps of that addend, which then stay near 1e-12 of
# the scale where y'' and y vanish together, at a zero of y
ADDEND_FLOOR = 1e-4


def whittaker_operator_residual(y, d2y_terms, n: int, k: float, x: float) -> float:
    """Normalized residual of L(y) = y'' + (-1 + (2n+1)/x + (1/4+k^2)/x^2) y
    at x, given y(x) and the addends of y''(x), scaled by max(|y''|, |qy|)
    and at least ADDEND_FLOOR of the largest addend; InputError where x**2
    underflows to 0."""
    if x ** 2 == 0:
        raise InputError(f"whittaker operator: x**2 underflows at x = {x}")
    potential = (-1.0 + (2 * n + 1) / x + (0.25 + k * k) / x ** 2) * y
    d2y = sum(d2y_terms)
    floor = ADDEND_FLOOR * max(abs(t) for t in d2y_terms)
    return relative_residual([d2y, potential],
                             scale=max(abs(d2y), abs(potential), floor))


# d_c of the downward relation z f'_c = (c - z/2) f_c + d_c f_{c-1}
# (DLMF 13.15(ii)) for f_c = W_{c,mu} and for f_c = M_{c,mu}
def w_lowering(kappa, mu):
    return (kappa - 0.5) ** 2 - mu * mu


def m_lowering(kappa, mu):
    return 0.5 + mu - kappa


def lowered_terms(f, d, kappa, z):
    """The three addends of f''_kappa(z) from f = (f_kappa, f_{kappa-1},
    f_{kappa-2}) at z and d = (d_kappa, d_{kappa-1}): the downward relation
    at kappa and kappa-1 gives f'_kappa and f'_{kappa-1}, and the one at
    kappa differentiated,
    z f''_kappa = -f_kappa/2 + (kappa - z/2 - 1) f'_kappa + d_kappa f'_{kappa-1}."""
    f0, f1, f2 = f
    d0, d1 = d
    df0 = ((kappa - z / 2) * f0 + d0 * f1) / z
    df1 = ((kappa - 1 - z / 2) * f1 + d1 * f2) / z
    return (-0.5 * f0 / z, (kappa - z / 2 - 1) * df0 / z, d0 * df1 / z)


def trial_condition_check(params: OrderParams, x_grid,
                          config: EvalConfig | None = None) -> list[ResidualReport]:
    """Check the conjugation structure and equation membership of the trial
    factors: W real (so iW is anti-self-conjugate), M_{+ik}+M_{-ik} real,
    M_{+ik}-M_{-ik} purely imaginary, and both W(2x) and the M-sum satisfy
    the Whittaker operator.  The operator check takes f'' of each factor
    (the two-term W, M_{+ik}, M_{-ik}) from its values at kappa = n+1/2,
    n-1/2 and n-3/2 as the addends of ``lowered_terms`` (never from the
    equation under test), whose size floors the residual's scale at a zero
    of the factor.  Both relations run downward: the downward one at kappa with
    the upward one at kappa-1 would need two orders only, but leaves a
    residual that vanishes for any values.  For W the residual is
    d_kappa / z^2 times that of DLMF 13.15.11 at kappa-1, so a W wrong by a
    kappa-dependent factor fails, where a term-by-term W'' would scale with
    W and pass.

    The three conjugation reports are code-consistency checks: the kernels
    return M_{kappa,-ik} = conj M_{kappa,ik} and the two-term W real bit for
    bit, so their residuals read 0.0 unless an edit breaks that symmetry.
    0 < k below k_refuse_threshold is refused, as in the identity check."""
    config = config or default_config()
    if not params.k > 0:
        raise InputError("trial_condition_check requires k > 0")
    n, k = params.n, params.k
    _refuse_small_k(k, config)
    x_grid = float_grid(x_grid)
    kap = n + 0.5
    mu = 1j * k

    # W from the two-term route, since whittaker_w's one-term value is real
    # by construction
    z = tuple(2 * x for x in x_grid)
    grids = []                          # (value, addends of its f'')
    for kernel, order, lowering in ((_whittaker_w_two_term, mu, w_lowering),
                                    (whittaker_m, mu, m_lowering),
                                    (whittaker_m, -mu, m_lowering)):
        f = [kernel(kap - j, order, z, config).tolist() for j in range(3)]
        d = (lowering(kap, order), lowering(kap - 1, order))
        # d^2/dx^2 f(2x) = 4 f''(2x)
        grids += [f[0], [[4 * t for t in lowered_terms(fz, d, kap, zz)]
                         for zz, *fz in zip(z, *f)]]
    w_real, sum_real, diff_imag, op_resid = [], [], [], []
    op_grid = []
    for x, w, w2, m_plus, m_plus2, m_minus, m_minus2 in zip(x_grid, *grids):
        w_real.append(abs(w.imag) / abs(w) if w != 0 else 0.0)
        s = m_plus + m_minus
        sum_real.append(abs(s.imag) / abs(s) if s != 0 else 0.0)
        d = m_plus - m_minus
        diff_imag.append(abs(d.real) / abs(d) if d != 0 else 0.0)
        op_grid.extend([x, x])
        op_resid.append(whittaker_operator_residual(w, w2, n, k, x))
        op_resid.append(whittaker_operator_residual(
            s, [a + b for a, b in zip(m_plus2, m_minus2)], n, k, x))
    consistency = ("code consistency: exact 0.0 when the kernels' conjugation "
                   "symmetry is intact",)
    return [
        ResidualReport("trial-w-realness", params, x_grid, w_real,
                       config.realness_tol, notes=consistency),
        ResidualReport("trial-m-sum-realness", params, x_grid, sum_real,
                       config.realness_tol, notes=consistency),
        ResidualReport("trial-m-diff-imaginary", params, x_grid, diff_imag,
                       config.realness_tol, notes=consistency),
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
    match: bool                          # every defect exactly 0.0
    max_deviation: float
    printed_deviation: float


def _falling(sigma, d: int, q: int) -> tuple[int, int]:
    """q^4 s (s-1) ... (s-d+1) for s = sigma/q, sigma a Gaussian integer."""
    out = (q ** (4 - d), 0)
    for i in range(d):
        out = gaussian_product(out, (sigma[0] - i * q, sigma[1]))
    return out


def indicial_analysis(params: OrderParams,
                      variant: str = "corrected") -> IndicialAnalysis:
    """Indicial polynomial at the regular singular point x = 0 from the ODE
    coefficients themselves (Frobenius leading balance), evaluated at the
    predicted exponents {0, 1, 2ik, 1-2ik}, and the printed factorization
    sigma(sigma-1)[sigma^2 - sigma - 4(1-k)(i+k)] evaluated there too.

    Both exactly: at k = p/q each exponent is sigma/q for a Gaussian integer
    sigma, so each term times q^4 (and the a_j's q^3) is one too.  The
    leading coefficient of a1, 1-4ik, never vanishes, so the indicial
    polynomial has degree 4; vanishing at four distinct exponents fixes all
    of its roots, with no root finding."""
    if not params.k > 0:
        raise InputError("indicial_analysis requires k > 0")
    k = params.k
    p, q = k.as_integer_ratio()
    # a_j's lowest term c x^i on y^(d), y ~ x^s: c s(s-1)...(s-d+1) x^(s+i-d)
    leading = []
    for j, a in enumerate(ode4_coeffs(params, variant).as_list()):
        if a:
            i, (c,) = aligned([a])[0]
            leading.append((i - (4 - j), 4 - j, c))
    shift = min(o for o, _, _ in leading)
    leading = [(d, c) for o, d, c in leading if o == shift]

    predicted = (0j, 1 + 0j, 2j * k, 1 - 2j * k)
    sigmas = ((0, 0), (q, 0), (0, 2 * p), (q, -2 * p))
    defects = tuple(exact_relative_residual(
        [gaussian_product(c, _falling(sigma, d, q)) for d, c in leading])
        for sigma in sigmas)
    # the printed s(s-1) times s^2, -s and -4(1-k)(i+k), times q^6
    const = (-4 * (q - p) * p, -4 * (q - p) * q)
    printed = tuple(exact_relative_residual(
        [gaussian_product(_falling(sigma, 2, q), t) for t in (
            gaussian_product(sigma, sigma), (-q * sigma[0], -q * sigma[1]), const)])
        for sigma in sigmas)
    return IndicialAnalysis(
        predicted=predicted, defects=defects, printed_defects=printed,
        match=max(defects) <= EXACT,
        max_deviation=max(defects), printed_deviation=max(printed))


def indicial_reports(params: OrderParams) -> list[ResidualReport]:
    """Load-bearing report for the ODE's own leading balance, advisory one
    for the printed factorization, each at the predicted exponents."""
    ia = indicial_analysis(params)
    computed = ResidualReport(
        check_name="indicial-exponents",
        params=params,
        grid=index_grid(0, 4),
        residuals=list(ia.defects),
        threshold=EXACT,
        notes=[f"leading balance at predicted exponents {list(ia.predicted)}"])
    printed = ResidualReport(
        check_name="indicial-printed-quadratic",
        params=params,
        grid=index_grid(0, 4),
        residuals=list(ia.printed_defects),
        threshold=EXACT,
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


def solution_constants(params: OrderParams) -> SolutionConstants:
    """c2 = 1, c3 = 0 and c4 = -(2 cosh(pi k)/pi) Gamma(-2ik)/Gamma(-n-ik).

    These solve the defining system from asymptotic mode matching.
    Expanding each product at x -> 0 (I, K, M, W all have known leading
    powers) and matching against the polynomial Lambda gives three linear
    conditions on (c2, c3, c4):

      x^0 mode:      beta_IW c2                                 = Lambda(0) = a_1
      x^{2ik} mode:  alpha_IW c2 + alpha_KW c3 + gamma_KM c4    = 0
      x^{1-2ik} mode:              delta_KW c3                  = 0

    with beta_IW = 2^{1-2ik} Gamma(2ik)/(Gamma(1/2+ik) Gamma(-n+ik)),
    alpha_IW = 2 Gamma(-2ik)/(Gamma(-n-ik) Gamma(1/2+ik)), gamma_KM =
    Gamma(1/2-ik) and delta_KW = Gamma(-1/2+ik) Gamma(2ik)/(2 Gamma(-n+ik)).
    delta_KW is a nonzero Gamma quotient, so c3 = 0.  The duplication
    formula (DLMF 5.5.5), Gamma(2ik) = 2^{2ik-1} Gamma(ik) Gamma(1/2+ik)/sqrt(pi),
    gives beta_IW = Gamma(ik)/(sqrt(pi) Gamma(-n+ik)) = (-1)^n (1-ik)_n/sqrt(pi),
    which is a_1 (lambda_poly's start), so c2 = 1.  Then c4 = -alpha_IW/gamma_KM,
    and the reflection Gamma(1/2+ik) Gamma(1/2-ik) = pi/cosh(pi k) (DLMF
    5.4.4) gives the closed form above, one gamma_ratio.
    """
    n, ik, ch = _constants_order(params)
    return SolutionConstants(
        c2=1 + 0j, c3=0j, c4=-2 / math.pi * ch * gamma_ratio((-2 * ik,), (-n - ik,)))


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
    """Relative residuals of the three printed relations for given constants.

    At solution_constants' (1, 0, c4) relation 2 holds, and relations 1 and
    3 leave closed-form defects (DLMF 5.5.3, 5.4.3, 5.4.4):
      c2 - 1 - c4 pi Gamma(1+2ik)/Gamma(-n+ik) = ik prod_{j=1}^n (j^2 + k^2),
      2 c2 + pi c3/cosh(pi k) - rhs3 = 2 - 2^{1-2ik} (-1)^n prod_{j=1}^n (k-ij)/(k+ij),
    so relation 1 reads min(1, k prod_j (j^2 + k^2)) and relation 3 half the
    modulus of its defect, which vanishes only on a discrete set of k (the
    second term has modulus 2; at n = 0 first near k = pi/ln 2)."""
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
    defining = solution_constants(params)
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
                          check_name: str = "lambda-reconstruction") -> ResidualReport:
    """Compare Lambda(x) evaluated from its recurrence coefficients against
    the kernel product combination c2 I*W + c3 K*W + c4 K*M on the grid
    (the fourth basis product, I*M, has coefficient c1 = 0).

    At k = 0 the comparison is against the Laguerre form
    Lambda(x) = ((-1)^n n!/sqrt(pi)) L_n(2x) instead; 0 < k below
    k_refuse_threshold is refused, as in the identity check.  M is one grid
    call and I, W and K are per point; inside ``run_suite`` the kernel table
    serves W from the points of ``kernel_cross_reports``' one-term column
    for n = 0..n_max.
    """
    config = config or default_config()
    n, k = params.n, params.k
    x_grid = float_grid(x_grid)
    if any(x < 0.5 or x > 6.0 for x in x_grid):
        raise InputError("reconstruction grid must lie in [0.5, 6]")
    _refuse_small_k(k, config)

    lam = coeffs_from_recurrence(params).big_lambda_poly()(np.array(x_grid))
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
        constants = solution_constants(params)
    nu = complex(-0.5, k)
    m = whittaker_m(n + 0.5, 1j * k, tuple(2 * x for x in x_grid), config)
    residuals = []
    # W per point: in run_suite, the points of the realness check's W column
    for x, lam_x, m_x in zip(x_grid, lam.tolist(), m.tolist()):
        i_x = bessel_i(nu, x, config)
        w_x = whittaker_w(n + 0.5, 1j * k, 2 * x, config)
        k_x = bessel_k_quad(nu, x, config)
        residuals.append(relative_residual([constants.c2 * i_x * w_x,
                                            constants.c3 * k_x * w_x,
                                            constants.c4 * k_x * m_x,
                                            -lam_x]))
    return ResidualReport(
        check_name=check_name, params=params, grid=x_grid,
        residuals=residuals, threshold=config.reconstruction_tol)
