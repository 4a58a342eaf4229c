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

The recurrence is iterated exactly on Python integers: every float k is an
exact ratio p/q, so each a_m * sqrt(pi) is a Gaussian integer R_m + i I_m
over a positive integer d_m, and d_m divides d_{n+1}, one common denominator
for the whole vector.  The only rounding is the final correctly rounded
division R_m / d_m.  (A plain double-precision upward iteration loses ~1e-6
by n = 20: the wanted solution decays by many orders from a_1 to a_{n+1}
while rounding noise does not.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .config import EvalConfig, default_config
from .core import SQRT_PI, pochhammer
from .errors import InputError, InvariantViolationError
from .kernels import OrderParams, _tabled, bessel_k_quad, whittaker_w
from .report import ResidualReport, index_grid, relative_residual

CONVENTION_MINUS = "(1-ik)_n"       # resolved convention
CONVENTION_PLUS = "(1+ik)_n"        # mirror convention (fails the identity)

COLLOCATION_RANGE = (0.25, 6.0)

@dataclass(frozen=True)
class CoeffVector:
    """Coefficients a_1 ... a_{n+1} of lambda(x); a_0 = 0 is implicit."""

    params: OrderParams
    a: tuple[complex, ...]                  # a[m-1] is a_m
    convention: str = CONVENTION_MINUS

    def __post_init__(self):
        if len(self.a) != self.params.n + 1:
            raise InputError("CoeffVector needs exactly n+1 coefficients")

    def a_m(self, m: int) -> complex:
        """a_m for 0 <= m <= n+1 (a_0 = 0)."""
        if m == 0:
            return 0j
        return self.a[m - 1]

    @property
    def a_top(self) -> complex:
        return self.a[-1]

    def lam_poly(self) -> Polynomial:
        """lambda(x), degree n+1, zero constant term."""
        return Polynomial((0j,) + self.a)

    def big_lambda_poly(self) -> Polynomial:
        """Lambda(x) = lambda(x)/x, degree n."""
        return Polynomial(self.a)

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
    a1 = (-1) ** n * pochhammer(complex(1, sign * k), n)
    return a1 / SQRT_PI, complex(2 ** n / SQRT_PI)


def _scaled_coeffs(n: int, k: float, convention: str) -> list[tuple[int, int, int]]:
    """a_m * sqrt(pi) = (R_m + i I_m) / d_m for m = 1..n+1, as (R_m, I_m, d_m),
    by upward iteration of m(m-2ik) a_{m+1} = -(1+2n) a_m - (1-2m) conj(a_m).
    With k = p/q, 1/(m(m-2ik)) = (mq + 2ip) q / (m(m^2 q^2 + 4p^2)); no step
    reduces, so every d_m divides d_{n+1}."""
    p, q = k.as_integer_ratio()
    # a_1 * sqrt(pi) = (-1)^n prod_j ((1+j)q -/+ ip) / q^n
    ip = -p if convention == CONVENTION_MINUS else p
    re, im, d = (-1) ** n, 0, q ** n
    for j in range(1, n + 1):
        re, im = re * j * q - im * ip, re * ip + im * j * q
    out = [(re, im, d)]
    for m in range(1, n + 1):
        num_re, num_im = (2 + 2 * n - 2 * m) * re, (2 * n + 2 * m) * im
        u, v = m * q, 2 * p
        re, im = -q * (num_re * u - num_im * v), -q * (num_re * v + num_im * u)
        d *= m * (u * u + v * v)
        out.append((re, im, d))
    return out


def _to_complex(re: int, im: int, d: int) -> complex:
    return complex((re / d) * (1 / SQRT_PI), (im / d) * (1 / SQRT_PI))


def _top_is_exact(scaled, n: int) -> bool:
    re, im, d = scaled[-1]
    return im == 0 and re == 2 ** n * d


@_tabled
def coeffs_from_recurrence(params: OrderParams,
                           config: EvalConfig | None = None,
                           convention: str = CONVENTION_MINUS) -> CoeffVector:
    """Full coefficient vector from the first-order recurrence.

    Works for every real k, including k = 0 (where m(m-2ik) = m^2 never
    vanishes and all coefficients come out real).  Raises
    InvariantViolationError if the top coefficient does not come out real and
    equal to 2^n/sqrt(pi) -- the signature of a convention mistake -- and
    InputError if a coefficient exceeds the double range (|k|^n near 1e308).
    Inside ``kernels.kernel_table()`` each vector is built once.
    """
    config = config or default_config()
    n = params.n
    scaled = _scaled_coeffs(n, params.k, convention)
    if not _top_is_exact(scaled, n):
        # exact equality is the norm; measure how far off for the message
        re, im, d = scaled[-1]
        dev = abs(complex(re / d, im / d) - 2 ** n) / 2 ** n
        if dev > config.top_coeff_tol:
            raise InvariantViolationError(
                f"a_{n + 1} = {_to_complex(*scaled[-1])} deviates from "
                f"2^n/sqrt(pi) by {dev:.3e} (relative); convention "
                f"'{convention}' is inconsistent with the recurrence")
    try:
        coeffs = tuple(_to_complex(*c) for c in scaled)
    except OverflowError as exc:
        raise InputError(f"coefficients for n = {n}, k = {params.k} exceed the "
                         "double range") from exc
    return CoeffVector(params=params, a=coeffs, convention=convention)


def resolve_convention(n: int = 1, k: float = 1.0) -> str:
    """Decide the conjugation convention of a_1 by iterating the recurrence:
    the valid convention reproduces a_{n+1} = +2^n/sqrt(pi) exactly."""
    if k == 0:
        return CONVENTION_MINUS        # conventions coincide at k = 0
    for convention in (CONVENTION_MINUS, CONVENTION_PLUS):
        if _top_is_exact(_scaled_coeffs(n, k, convention), n):
            return convention
    raise InvariantViolationError("neither convention reproduces a real 2^n top coefficient")


def laguerre_closed_form(n: int) -> CoeffVector:
    """k = 0 closed form lambda(x) = ((-1)^n n!/sqrt(pi)) x L_n(2x): the
    reference that coeffs_from_recurrence(OrderParams(n, 0.0)) reproduces
    exactly (the library itself builds every k through the recurrence)."""
    # [x^{j+1}] lambda = (-1)^{n+j} C(n,j) 2^j n!/j!, an integer
    coeffs = tuple(_to_complex((-1) ** (n + j) * math.comb(n, j) * 2 ** j
                               * (math.factorial(n) // math.factorial(j)), 0, 1)
                   for j in range(n + 1))
    return CoeffVector(params=OrderParams(n=n, k=0.0), a=coeffs,
                       convention=CONVENTION_MINUS)


def first_order_residuals(cv: CoeffVector) -> list[float]:
    """Relative residuals of the first-order recurrence at m = 1..n on the
    float-rounded coefficients (the exact path satisfies it identically)."""
    n, k = cv.params.n, cv.params.k
    return [relative_residual([m * complex(m, -2 * k) * cv.a_m(m + 1),
                               (1 + 2 * n) * cv.a_m(m),
                               (1 - 2 * m) * cv.a_m(m).conjugate()])
            for m in range(1, n + 1)]


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
        raise InputError(f"unknown second-order variant {variant!r}")
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
        out.append(relative_residual(
            [c2 * cv.a_m(m + 2), c1 * cv.a_m(m + 1), c0 * cv.a_m(m)]))
    return out


def check_second_order(cv: CoeffVector, variant: str = "printed",
                       config: EvalConfig | None = None):
    """ResidualReport for the five-factor recurrence (advisory for the
    printed variant; the derived variant genuinely holds)."""
    config = config or default_config()
    res = second_order_residuals(cv, variant)
    grid = index_grid(1, cv.params.n) if cv.params.n >= 3 else []
    return ResidualReport(
        check_name=f"second-order-recurrence-{variant}",
        params=cv.params,
        grid=grid,
        residuals=res,
        threshold=config.second_order_tol,
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
    kp = np.array([bessel_k_quad(complex(0.5, k), x, config) for x in xs])
    rhs = whittaker_w(n + 0.5, 1j * k, tuple(2 * x for x in xs), config).real
    rows = np.zeros((len(xs), 2 * (n + 1)))
    x = np.array(xs)
    xm = x
    for m in range(1, n + 2):
        rows[:, 2 * (m - 1)] = 2 * xm * kp.real
        rows[:, 2 * (m - 1) + 1] = -2 * xm * kp.imag
        xm = xm * x
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
                       config: EvalConfig | None = None) -> CoeffVector:
    """Independent recovery of the coefficients by least-squares fit of the
    defining identity at sample points, using the kernel evaluators only
    (no recurrence information).

    The fit runs in double precision on the production kernels.  When the
    equilibrated design matrix condition exceeds collocation_escalate_cond
    (conditioning would cost more digits than the fit tolerance allows) it
    is redone with the 50-digit oracle kernels and QR solve.  The returned
    vector's convention names the path that served it.
    """
    config = config or default_config()
    n, k = params.n, params.k
    if k == 0:
        raise InputError("collocation oracle requires k != 0 (at k = 0 the "
                         "conjugate terms coincide and the fit is singular)")
    if xs is None:
        xs = default_collocation_points(n)
    xs = [float(x) for x in xs]
    lo, hi = COLLOCATION_RANGE
    if len(set(xs)) < 2 * (n + 1):
        raise InputError(f"need at least {2 * (n + 1)} distinct points")
    if min(xs) < lo or max(xs) > hi:
        raise InputError(f"collocation points must lie in [{lo}, {hi}]")

    fitted, cond, resid = _collocation_double(params, xs, config)
    path = "double"
    if cond > config.collocation_escalate_cond:
        from . import oracle
        fitted, resid = oracle.collocation_fit(params, xs, config)
        path = "oracle"
    if resid > config.collocation_resid_tol:
        raise InvariantViolationError(
            f"collocation fit residual {resid:.3e} exceeds "
            f"{config.collocation_resid_tol:.0e}")
    return CoeffVector(params=params, a=tuple(fitted),
                       convention=f"collocation-fit-{path}")
