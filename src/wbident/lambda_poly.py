"""Construction of the polynomial factors in the Whittaker-Bessel identity.

lambda(x) = sum_{m=1}^{n+1} a_m x^m is the degree-(n+1) polynomial with
a_0 = 0 such that

    W_{n+1/2, ik}(2x) = lambda(x) K_{1/2+ik}(x) + conj(lambda)(x) K_{1/2-ik}(x),

and Lambda(x) = lambda(x)/x is the degree-n factor quoted in the identity.

The coefficients obey the first-order recurrence

    m (m - 2ik) a_{m+1} + (1+2n) a_m + (1-2m) conj(a_m) = 0,   1 <= m <= n,

with conj(a_{n+1}) = a_{n+1}.  Two starting values a_1 are self-consistent
with the realness of a_{n+1} up to sign:

    (1-ik)_n convention:  a_1 = (-1)^n (1-ik)_n / sqrt(pi)   ->  a_{n+1} = +2^n/sqrt(pi)
    (1+ik)_n convention:  a_1 = (-1)^n (1+ik)_n / sqrt(pi)   ->  a_{n+1} = -2^n/sqrt(pi)

Only the (1-ik)_n convention satisfies the identity against the actual
Whittaker function (the collocation oracle arbitrates this); it is the
resolved convention used throughout.

The recurrence is iterated in exact Gaussian-rational arithmetic: every
float k is an exact rational, so a_m * sqrt(pi) stays in Q(i) and the only
rounding is the final conversion to complex128.  (A plain double-precision
upward iteration loses ~1e-6 by n = 20: the wanted solution decays by many
orders from a_1 to a_{n+1} while rounding noise does not.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import EvalConfig, default_config
from .core import SQRT_PI, PolyC
from .errors import IllConditionedError, InvariantViolationError
from .kernels import OrderParams, bessel_k_quad, whittaker_w

CONVENTION_MINUS = "(1-ik)_n"       # resolved convention
CONVENTION_PLUS = "(1+ik)_n"        # mirror convention (fails the identity)

COLLOCATION_RANGE = (0.25, 6.0)

_QC = tuple  # Gaussian rational (re: Fraction, im: Fraction)


def _qc(re=0, im=0) -> _QC:
    return (Fraction(re), Fraction(im))


def _qc_mul(a: _QC, b: _QC) -> _QC:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qc_div(a: _QC, b: _QC) -> _QC:
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _qc_to_complex(a: _QC, scale: float = 1.0) -> complex:
    return complex(float(a[0]) * scale, float(a[1]) * scale)


@dataclass(frozen=True)
class CoeffVector:
    """Coefficients a_1 ... a_{n+1} of lambda(x); a_0 = 0 is implicit."""

    params: OrderParams
    a: tuple[complex, ...]                  # a[m-1] is a_m
    convention: str = CONVENTION_MINUS

    def __post_init__(self):
        if len(self.a) != self.params.n + 1:
            raise ValueError("CoeffVector needs exactly n+1 coefficients")

    def a_m(self, m: int) -> complex:
        """a_m for 0 <= m <= n+1 (a_0 = 0)."""
        if m == 0:
            return 0j
        return self.a[m - 1]

    @property
    def a_top(self) -> complex:
        return self.a[-1]

    def lam_poly(self) -> PolyC:
        """lambda(x), degree n+1, zero constant term."""
        return PolyC.make((0j,) + self.a)

    def big_lambda_poly(self) -> PolyC:
        """Lambda(x) = lambda(x)/x, degree n."""
        return PolyC.make(self.a)

    def as_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "k": self.params.k,
            "convention": self.convention,
            "a": [[c.real, c.imag] for c in self.a],
        }


def boundary_coeffs(params: OrderParams,
                    convention: str = CONVENTION_MINUS) -> tuple[complex, complex]:
    """(a_1, a_{n+1}) from the asymptotic matching at x -> 0 and x -> inf:
    a_1 = (-1)^n (1 -/+ ik)_n / sqrt(pi), a_{n+1} = 2^n / sqrt(pi)."""
    n, k = params.n, params.k
    sign = -1.0 if convention == CONVENTION_MINUS else 1.0
    a1 = complex((-1) ** n)
    for j in range(n):
        a1 *= complex(1 + j, sign * k)
    return a1 / SQRT_PI, complex(2 ** n / SQRT_PI)


def _iterate_recurrence(n: int, k_exact: Fraction, a1: _QC) -> list[_QC]:
    """Upward iteration of m(m-2ik) a_{m+1} = -(1+2n) a_m - (1-2m) conj(a_m),
    in exact rationals, for the scaled coefficients a_m * sqrt(pi)."""
    a = [_qc(0)] * (n + 2)
    a[1] = a1
    for m in range(1, n + 1):
        re, im = a[m]
        num = ((1 + 2 * n) * re + (1 - 2 * m) * re,
               (1 + 2 * n) * im - (1 - 2 * m) * im)
        q = _qc_div(num, (Fraction(m * m), -2 * m * k_exact))
        a[m + 1] = (-q[0], -q[1])
    return a


def _exact_a1(n: int, k_exact: Fraction, convention: str) -> _QC:
    sign = Fraction(-1) if convention == CONVENTION_MINUS else Fraction(1)
    a1 = _qc((-1) ** n)
    for j in range(n):
        a1 = _qc_mul(a1, (Fraction(1 + j), sign * k_exact))
    return a1


def coeffs_from_recurrence(params: OrderParams,
                           config: EvalConfig | None = None,
                           convention: str = CONVENTION_MINUS) -> CoeffVector:
    """Full coefficient vector from the first-order recurrence.

    Works for every real k, including k = 0 (where m(m-2ik) = m^2 never
    vanishes and all coefficients come out real).  Raises
    InvariantViolationError if the top coefficient does not come out real and
    equal to 2^n/sqrt(pi) -- the signature of a convention mistake.
    """
    config = config or default_config()
    n = params.n
    k_exact = Fraction(params.k)
    scaled = _iterate_recurrence(n, k_exact, _exact_a1(n, k_exact, convention))

    top = scaled[n + 1]
    expected = Fraction(2 ** n)
    if top[1] != 0 or top[0] != expected:
        # exact equality is the norm; measure how far off for the message
        dev = abs(_qc_to_complex(top) - complex(expected)) / float(expected)
        if dev > config.top_coeff_tol:
            raise InvariantViolationError(
                f"a_{n + 1} = {_qc_to_complex(top, 1 / SQRT_PI)} deviates from "
                f"2^n/sqrt(pi) by {dev:.3e} (relative); convention "
                f"'{convention}' is inconsistent with the recurrence")
    coeffs = tuple(_qc_to_complex(scaled[m], 1 / SQRT_PI) for m in range(1, n + 2))
    return CoeffVector(params=params, a=coeffs, convention=convention)


def resolve_convention(n: int = 1, k: float = 1.0) -> str:
    """Decide the conjugation convention of a_1 by iterating the recurrence:
    the valid convention reproduces a_{n+1} = +2^n/sqrt(pi) exactly."""
    if k == 0:
        return CONVENTION_MINUS        # conventions coincide at k = 0
    k_exact = Fraction(k)
    for convention in (CONVENTION_MINUS, CONVENTION_PLUS):
        top = _iterate_recurrence(n, k_exact, _exact_a1(n, k_exact, convention))[n + 1]
        if top[1] == 0 and top[0] == Fraction(2 ** n):
            return convention
    raise InvariantViolationError("neither convention reproduces a real 2^n top coefficient")


def laguerre_closed_form(n: int) -> CoeffVector:
    """k = 0 closed form: lambda(x) = ((-1)^n n!/sqrt(pi)) x L_n(2x)."""
    lead = Fraction((-1) ** n * math.factorial(n))
    exact = []
    for j in range(n + 1):
        # [x^{j+1}] lambda = lead * [z^j]L_n * 2^j,  [z^j]L_n = (-1)^j C(n,j)/j!
        c = lead * Fraction((-1) ** j * math.comb(n, j), math.factorial(j)) * 2 ** j
        exact.append(_qc(c))
    coeffs = tuple(_qc_to_complex(e, 1 / SQRT_PI) for e in exact)
    return CoeffVector(params=OrderParams(n=n, k=0.0), a=coeffs,
                       convention=CONVENTION_MINUS)


def first_order_residuals(cv: CoeffVector) -> list[float]:
    """Relative residuals of the first-order recurrence at m = 1..n on the
    float-rounded coefficients (the exact path satisfies it identically)."""
    n, k = cv.params.n, cv.params.k
    out = []
    for m in range(1, n + 1):
        t1 = m * complex(m, -2 * k) * cv.a_m(m + 1)
        t2 = (1 + 2 * n) * cv.a_m(m)
        t3 = (1 - 2 * m) * cv.a_m(m).conjugate()
        scale = max(abs(t1), abs(t2), abs(t3))
        out.append(abs(t1 + t2 + t3) / scale if scale else 0.0)
    return out


# --- five-factor second-order recurrence (advisory) ------------------------
#
# Eliminating conj(a_m) from the first-order pair gives
#
#   m(m+1)(2m-1)(m+2ik)(m+1-2ik) a_{m+2}
#     + 4(1+2n) m (m^2 - ik) a_{m+1}
#     + 4(1+2m)(n+m)(1+n-m) a_m = 0,        1 <= m <= n-1.
#
# The "printed" variant below is the historically quoted form; it does not
# hold on the generated coefficients and is checked advisorily only.

def _second_order_terms(n: int, k: float, m: int, variant: str):
    ik = 1j * k
    lead = m * (m + 1) * (2 * m - 1)
    if variant == "printed":
        c2 = lead * (m + 2 * ik) * (m - 1 - 2 * ik)
        c1 = (1 + 2 * n) * m * (3 * m * m + m - 2 * ik)
        c0 = -4.0 * (1 + 2 * m) * (n + m) * (1 + n - m)
    elif variant == "derived":
        c2 = lead * (m + 2 * ik) * (m + 1 - 2 * ik)
        c1 = 4 * (1 + 2 * n) * m * (m * m - ik)
        c0 = 4.0 * (1 + 2 * m) * (n + m) * (1 + n - m)
    else:
        raise ValueError(f"unknown second-order variant {variant!r}")
    return c2, c1, c0


def second_order_residuals(cv: CoeffVector, variant: str = "printed") -> list[float]:
    """Per-m relative residuals of the five-factor recurrence, m = 1..n-1.
    Empty for n <= 2 (the check is nontrivial only from n = 3 on)."""
    n, k = cv.params.n, cv.params.k
    if n < 3:
        return []
    out = []
    for m in range(1, n):
        c2, c1, c0 = _second_order_terms(n, k, m, variant)
        t2 = c2 * cv.a_m(m + 2)
        t1 = c1 * cv.a_m(m + 1)
        t0 = c0 * cv.a_m(m)
        scale = max(abs(t2), abs(t1), abs(t0))
        out.append(abs(t2 + t1 + t0) / scale if scale else 0.0)
    return out


def check_second_order(cv: CoeffVector, variant: str = "printed"):
    """ResidualReport for the five-factor recurrence (advisory for the
    printed variant; the derived variant genuinely holds)."""
    from .report import ResidualReport
    res = second_order_residuals(cv, variant)
    grid = [float(m) for m in range(1, cv.params.n)] if cv.params.n >= 3 else []
    return ResidualReport(
        check_name=f"second-order-recurrence-{variant}",
        params=cv.params,
        grid=grid,
        residuals=res,
        threshold=1e-12,
    )


# --- collocation oracle -----------------------------------------------------

def default_collocation_points(n: int) -> list[float]:
    """Chebyshev-distributed points on the collocation range, 4(n+1) of them."""
    lo, hi = COLLOCATION_RANGE
    npts = max(4 * (n + 1), 8)
    return [lo + (hi - lo) * (1 - math.cos(math.pi * j / (npts - 1))) / 2
            for j in range(npts)]


def _collocation_double(params: OrderParams, xs, config: EvalConfig):
    """Design matrix and data in double precision; returns (fitted, cond, resid)."""
    n, k = params.n, params.k
    rows = np.zeros((len(xs), 2 * (n + 1)))
    rhs = np.zeros(len(xs))
    for i, x in enumerate(xs):
        kp = bessel_k_quad(complex(0.5, k), x, config)
        w = whittaker_w(n + 0.5, 1j * k, 2 * x, config).real
        xm = x
        for m in range(1, n + 2):
            rows[i, 2 * (m - 1)] = 2 * xm * kp.real
            rows[i, 2 * (m - 1) + 1] = -2 * xm * kp.imag
            xm *= x
        rhs[i] = w
    row_scale = np.abs(rhs)
    a_eq = rows / row_scale[:, None]
    b_eq = rhs / row_scale
    col_scale = np.linalg.norm(a_eq, axis=0)
    sol, _, _, sv = np.linalg.lstsq(a_eq / col_scale, b_eq, rcond=None)
    sol /= col_scale
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    resid = float(np.max(np.abs(rows @ sol - rhs) / np.abs(rhs)))
    fitted = tuple(complex(sol[2 * j], sol[2 * j + 1]) for j in range(n + 1))
    return fitted, cond, resid


def collocation_oracle(params: OrderParams, xs=None,
                       config: EvalConfig | None = None,
                       precision: str = "auto") -> CoeffVector:
    """Independent recovery of the coefficients by least-squares fit of the
    defining identity at sample points, using the kernel evaluators only
    (no recurrence information).

    precision:
      "double" -- production kernels; raises IllConditionedError when the
                  equilibrated design matrix condition exceeds the limit
                  (pick more / better points, or a smaller n);
      "high"   -- 50-digit oracle kernels and QR solve (slow path);
      "auto"   -- double, escalating to high when conditioning would cost
                  more digits than the fit tolerance allows.
    """
    config = config or default_config()
    n, k = params.n, params.k
    if abs(k) <= config.k_zero_threshold:
        raise ValueError("collocation oracle requires k != 0; "
                         "use laguerre_closed_form for k = 0")
    if xs is None:
        xs = default_collocation_points(n)
    xs = [float(x) for x in xs]
    lo, hi = COLLOCATION_RANGE
    if len(set(xs)) < 2 * (n + 1):
        raise ValueError(f"need at least {2 * (n + 1)} distinct points")
    if min(xs) < lo or max(xs) > hi:
        raise ValueError(f"collocation points must lie in [{lo}, {hi}]")

    if precision not in ("double", "high", "auto"):
        raise ValueError(f"unknown precision mode {precision!r}")

    fitted = cond = resid = None
    if precision in ("double", "auto"):
        fitted, cond, resid = _collocation_double(params, xs, config)
        if cond > config.collocation_cond_limit and precision == "double":
            raise IllConditionedError(
                f"collocation design matrix condition {cond:.2e} exceeds "
                f"{config.collocation_cond_limit:.0e}; choose better xs",
                cond=cond)
        if precision == "auto" and cond > config.collocation_escalate_cond:
            fitted = None
    if fitted is None:
        from . import oracle
        fitted, resid = oracle.collocation_fit(params, xs, config)

    if resid > config.collocation_resid_tol:
        raise InvariantViolationError(
            f"collocation fit residual {resid:.3e} exceeds "
            f"{config.collocation_resid_tol:.0e}")
    return CoeffVector(params=params, a=tuple(fitted), convention="collocation-fit")
