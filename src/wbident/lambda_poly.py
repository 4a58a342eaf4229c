"""Construction of the polynomial factors in the Whittaker-Bessel identity.

lambda(x) = sum_{m=1}^{n+1} a_m x^m is the degree-(n+1) polynomial with
a_0 = 0 such that

    W_{n+1/2, ik}(2x) = lambda(x) K_{1/2+ik}(x) + conj(lambda)(x) K_{1/2-ik}(x),

and Lambda(x) = lambda(x)/x is the degree-n factor quoted in the identity.

The coefficients obey the first-order recurrence

    m (m - 2ik) a_{m+1} + (1+2n) a_m + (1-2m) conj(a_m) = 0,   1 <= m <= n,

with conj(a_{n+1}) = a_{n+1}.  It starts from

    a_1 = (-1)^n (1-ik)_n / sqrt(pi),   which gives   a_{n+1} = 2^n/sqrt(pi),

the x -> 0 matching of the identity (boundary_coeffs states both ends).
The mirror start (1+ik)_n fails: its a_{n+1} is not real in general (and
-2^n/sqrt(pi) at n = 3, k = 1), so coeffs_from_recurrence would refuse it.

The recurrence is iterated exactly on Python integers: every float k is an
exact ratio p/q, so each a_m * sqrt(pi) is a Gaussian integer R_m + i I_m
over a positive integer d_m, and d_m divides d_{n+1}, one common denominator
for the whole vector.  The only rounding is the final correctly rounded
division R_m / d_m.  (A plain double-precision upward iteration loses ~1e-6
by n = 20: the wanted solution decays by many orders from a_1 to a_{n+1}
while rounding noise does not.)
The coefficient relations are scored exactly on these integers, brought to
the common denominator (_lambda_integers), by report.exact_relative_residual,
so the ones that hold read 0.0 and their checks pass only there
(report.EXACT): the top coefficient (top_coeff_residuals), the coupled
equation (coupled_equation_residuals; its x^{m-1} coefficient is this
recurrence at m) and the five-factor recurrence (check_second_order).
coeffs_from_recurrence takes no tolerance either: it refuses a vector whose
top integer is not exactly 2^n d_{n+1}.

Two oracles build Lambda without the recurrence.  series_oracle reads only
Taylor coefficients at x = 0: with W as one connection-formula term and its
conjugate (DLMF 13.14.33, 13.14.2) and K as the I-difference (DLMF 10.27.4,
10.25.2, 5.5.3), the identity's x^{1/2+ik} terms read

    F := (-n-ik)_n e^{-x} M(-n+ik; 1+2ik; 2x) = P*(x) S(x) - P(x) S'(x)

for P = sqrt(pi) Lambda, P* its conjugate-coefficient polynomial and
S = 0F1(; 1/2+ik; x^2/4).  F solves Kummer's equation x y'' + (1+2ik) y' +
(2n+1-x) y = 0 (DLMF 13.2.1 at z = 2x), whose solution analytic at 0 is
unique up to scale for real k != 0, and that operator maps P*S - PS' onto
the coupled equation's residual: the coupled-equation certificate and a_1
prove the identity by this reduction, and series_oracle is the same argument
run as a construction, not a second one.  collocation_oracle, the 50-digit
fit of the identity at x > 0 (oracle.collocation_fit), is its numerical test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

from numpy.polynomial import Polynomial

from ._exact import gaussian_product
from .config import EvalConfig, default_config
from .core import SQRT_PI, pochhammer
from .errors import InputError, InvariantViolationError
from .kernels import OrderParams, _tabled
from .report import EXACT, ResidualReport, exact_relative_residual, index_grid

CONVENTION_MINUS = "(1-ik)_n"       # the start of the recurrence

COLLOCATION_RANGE = (0.25, 6.0)
# the largest n whose collocation points are drawn from the master set (the
# points of this n), and the n cap of ``run_suite(use_oracle=True)``
COLLOCATION_MASTER_N = 8
EXACT_NOTES = ("exact on the Gaussian integers sqrt(pi) d_{n+1} a_m; the "
               "double-rounded CoeffVector is not read",)

@dataclass(frozen=True, slots=True)
class CoeffVector:
    """Coefficients a_1 ... a_{n+1} of lambda(x); a_0 = 0 is implicit."""

    params: OrderParams
    a: tuple[complex, ...]                  # a[m-1] is a_m
    convention: str = CONVENTION_MINUS

    def __post_init__(self):
        if len(self.a) != self.params.n + 1:
            raise InputError("CoeffVector needs exactly n+1 coefficients")

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


def boundary_coeffs(params: OrderParams) -> tuple[complex, complex]:
    """(a_1, a_{n+1}) from the asymptotic matching at x -> 0 and x -> inf:
    a_1 = (-1)^n (1 - ik)_n / sqrt(pi), a_{n+1} = 2^n / sqrt(pi), in double
    by a Pochhammer product.  The paper's boundary formula, kept as a
    reference: the library reads a_1 from coeffs_from_recurrence, which
    rounds it once from the exact integers."""
    n, k = params.n, params.k
    a1 = (-1) ** n * pochhammer(complex(1, -k), n)
    return a1 / SQRT_PI, complex(2 ** n / SQRT_PI)


def _scaled_coeffs(n: int, k: float) -> list[tuple[int, int, int]]:
    """a_m * sqrt(pi) = (R_m + i I_m) / d_m for m = 1..n+1, as (R_m, I_m, d_m),
    by upward iteration of m(m-2ik) a_{m+1} = -(1+2n) a_m - (1-2m) conj(a_m).
    With k = p/q, 1/(m(m-2ik)) = (mq + 2ip) q / (m(m^2 q^2 + 4p^2)); no step
    reduces, so every d_m divides d_{n+1}."""
    p, q = k.as_integer_ratio()
    # a_1 * sqrt(pi) = (-1)^n prod_j (jq + i ip) / q^n, the (1-ik)_n start
    ip = -p
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
def _lambda_integers(params: OrderParams):
    """(P, D, p, q): P[j] = sqrt(pi) D a_{j+1}, j = 0..n, as Gaussian
    integers (re, im) over D = d_{n+1}, and k = p/q; tabled like
    coeffs_from_recurrence."""
    return (*_over_last(_scaled_coeffs(params.n, params.k)),
            *params.k.as_integer_ratio())


def _over_last(terms) -> tuple[tuple[tuple[int, int], ...], int]:
    """Gaussian rationals (re, im, d), each d dividing the last one, as the
    Gaussian integers over that last d, and the d."""
    top = terms[-1][2]
    return tuple((re * (top // d), im * (top // d)) for re, im, d in terms), top


def top_coeff_residuals(params: OrderParams) -> list[float]:
    """Exact residuals of sqrt(pi) a_{n+1} = 2^n: P_n against 2^n D, and
    Im P_n against P_n (the sum of P_n and -Re P_n)."""
    big, top, _, _ = _lambda_integers(params)
    re, im = big[-1]
    return [exact_relative_residual([(re, im), (-2 ** params.n * top, 0)]),
            exact_relative_residual([(re, im), (-re, 0)])]


def coupled_equation_residuals(params: OrderParams) -> list[float]:
    """Exact residuals of the coupled equation's coefficients x^0..x^n (see
    ode): with P_{n+1} = 0, q times coefficient j has the terms
    (j+1)((j+1)q - 2ip) P_{j+1}, q(2n+1) P_j and -q(2j+1) conj(P_j)."""
    big, _, p, q = _lambda_integers(params)
    a, up = q * (2 * params.n + 1), big[1:] + ((0, 0),)
    return [exact_relative_residual([
        gaussian_product(((j + 1) ** 2 * q, -2 * (j + 1) * p), up[j]),
        (a * re, a * im), (-q * (2 * j + 1) * re, q * (2 * j + 1) * im)])
        for j, (re, im) in enumerate(big)]


@_tabled
def coeffs_from_recurrence(params: OrderParams) -> CoeffVector:
    """Full coefficient vector from the first-order recurrence, started at
    a_1 = (-1)^n (1-ik)_n / sqrt(pi).

    Works for every real k, including k = 0 (where m(m-2ik) = m^2 never
    vanishes and all coefficients come out real).  Raises
    InvariantViolationError unless the top coefficient comes out exactly
    2^n/sqrt(pi) on the integers (_top_is_exact), and InputError if a
    coefficient exceeds the double range (|k|^n near 1e308).  Inside
    ``kernels.kernel_table()`` each vector is built once.
    """
    n = params.n
    scaled = _scaled_coeffs(n, params.k)
    if not _top_is_exact(scaled, n):
        re, im, d = scaled[-1]
        raise InvariantViolationError(
            f"sqrt(pi) a_{n + 1} = {complex(re / d, im / d)} is not exactly "
            f"2^n at k = {params.k}; the recurrence is inconsistent")
    try:
        coeffs = tuple(_to_complex(*c) for c in scaled)
    except OverflowError as exc:
        raise InputError(f"coefficients for n = {n}, k = {params.k} exceed the "
                         "double range") from exc
    return CoeffVector(params=params, a=coeffs)


def laguerre_closed_form(n: int) -> CoeffVector:
    """k = 0 closed form lambda(x) = ((-1)^n n!/sqrt(pi)) x L_n(2x): the
    reference that coeffs_from_recurrence(OrderParams(n, 0.0)) reproduces
    exactly (the library itself builds every k through the recurrence)."""
    # [x^{j+1}] lambda = (-1)^{n+j} C(n,j) 2^j n!/j!, an integer
    coeffs = tuple(_to_complex((-1) ** (n + j) * math.comb(n, j) * 2 ** j
                               * (math.factorial(n) // math.factorial(j)), 0, 1)
                   for j in range(n + 1))
    return CoeffVector(params=OrderParams(n=n, k=0.0), a=coeffs)


# --- five-factor second-order recurrence (advisory) ------------------------
#
# Eliminating conj(a_m) from the first-order pair gives the "derived" variant
#
#   m(m+1)(2m-1)(m+2ik)(m+1-2ik) a_{m+2}
#     + 4(1+2n) m (m^2 - ik) a_{m+1}
#     + 4(1+2m)(n+m)(1+n-m) a_m = 0,        1 <= m <= n-1.
#
# The historically quoted "printed" variant, checked advisorily only, does
# not hold on the generated coefficients:
#
#   m(m+1)(2m-1)(m+2ik)(m-1-2ik) a_{m+2}
#     + (1+2n) m (3m^2 + m - 2ik) a_{m+1}
#     - 4(1+2m)(n+m)(1+n-m) a_m = 0.

def _second_order_factors(n: int, p: int, q: int, m: int, variant: str):
    """q^2 times the variant's factors of a_{m+2}, a_{m+1} and a_m above, as
    Gaussian integers (re, im), for k = p/q."""
    lead = m * (m + 1) * (2 * m - 1)
    c0 = 4 * (1 + 2 * m) * (n + m) * (1 + n - m) * q * q
    if variant == "derived":
        return ((lead * (m * (m + 1) * q * q + 4 * p * p), 2 * lead * p * q),
                (4 * (1 + 2 * n) * m ** 3 * q * q, -4 * (1 + 2 * n) * m * p * q),
                (c0, 0))
    return ((lead * (m * (m - 1) * q * q + 4 * p * p), -2 * lead * p * q),
            ((1 + 2 * n) * m * (3 * m * m + m) * q * q, -2 * (1 + 2 * n) * m * p * q),
            (-c0, 0))


def check_second_order(params: OrderParams, variant: str = "printed"):
    """ResidualReport of the five-factor recurrence at m = 1..n-1 (empty for
    n <= 2), scored exactly on _lambda_integers: the derived variant reads
    0.0, the printed one its exact defect (advisory)."""
    if variant not in ("printed", "derived"):
        raise InputError(f"unknown second-order variant {variant!r}")
    n = params.n
    stop = n if n >= 3 else 1
    big, _, p, q = _lambda_integers(params)
    res = [exact_relative_residual(list(map(
        gaussian_product, _second_order_factors(n, p, q, m, variant),
        (big[m + 1], big[m], big[m - 1])))) for m in range(1, stop)]
    return ResidualReport(
        # one name string per variant, however many reports a caller keeps
        check_name=sys.intern(f"second-order-recurrence-{variant}"),
        params=params,
        grid=index_grid(1, stop),
        residuals=res,
        threshold=EXACT,
        notes=EXACT_NOTES,
    )


# --- series oracle ------------------------------------------------------------

SERIES_TAIL = 4         # the orders past n at which series_oracle must read 0


def _taylor(count: int, ratio) -> list[tuple[int, int, int]]:
    """c_0 = 1 .. c_{count-1} of a hypergeometric series, c_{m+1} =
    c_m u / (v w) for ratio(m) = (u, v, w), u and v Gaussian integers and w a
    positive int, as (re, im, d) with each d dividing the next."""
    re, im, d, out = 1, 0, 1, []
    for m in range(count):
        out.append((re, im, d))
        u, (v_re, v_im), w = ratio(m)
        re, im = gaussian_product(gaussian_product((re, im), u), (v_re, -v_im))
        d *= w * (v_re * v_re + v_im * v_im)
    return out


def series_oracle(params: OrderParams) -> tuple[list[tuple[int, int]], int]:
    """(P, D): P[j] = sqrt(pi) D a_{j+1} as a Gaussian integer for
    j = 0..n+SERIES_TAIL, from the Taylor coefficients of M, e^{-x} and 0F1
    alone (module docstring).  As S(0) = 1 and S'(0) = 0, the x^j
    coefficient of F = P* S - P S' gives conj(p_j) = f_j - sum_{m<j}
    (conj(p_m) s_{j-m} - p_m [x^{j-m}] S'), solved downwards.  D, the f_j's
    denominator, is a multiple of Lambda's; a p_j off the Gaussian integers
    over D (a remainder from S's denominator) is neither Lambda's nor 0, and
    P stops before it.  front is q^n (-n-ik)_n."""
    n, k = params.n, params.k
    if k == 0:
        raise InputError("the series oracle requires k != 0 (at k = 0 the "
                         "identity's two modes coincide)")
    p, q = k.as_integer_ratio()
    top = n + SERIES_TAIL
    # M(-n+ik; 1+2ik; 2x), e^{-x}, and 0F1(; 1/2+ik; t/4) in t = x^2
    kummer, d_m = _over_last(_taylor(top + 1, lambda m: (
        (2 * (m - n) * q, 2 * p), ((m + 1) * q, 2 * p), m + 1)))
    decay, d_e = _over_last(_taylor(top + 1, lambda m: ((-1, 0), (1, 0), m + 1)))
    bessel, d_s = _over_last(_taylor((top + 1) // 2 + 1, lambda m: (
        (q, 0), ((1 + 2 * m) * q, 2 * p), 2 * m + 2)))
    # [x^i] S at even i, -[x^i] S' = -(i+1) s_{i+1} at odd i (S is even)
    s = [bessel[i // 2] if i % 2 == 0 else
         tuple(-(i + 1) * c for c in bessel[i // 2 + 1]) for i in range(top + 1)]
    front = reduce(gaussian_product, [((t - n) * q, -p) for t in range(n)], (1, 0))
    out = []
    for j in range(top + 1):
        # sums of Gaussian integers, (0, 0) included for an empty sum
        f_re, f_im = gaussian_product(front, tuple(map(sum, zip((0, 0), *(
            (re * e, im * e) for (re, im), (e, _) in zip(kummer, decay[j::-1]))))))
        acc_re, acc_im = map(sum, zip((0, 0), *(
            gaussian_product((re, im if (j - m) % 2 else -im), s[j - m])
            for m, (re, im) in enumerate(out))))
        (c_re, r_re), (c_im, r_im) = divmod(acc_re, d_s), divmod(acc_im, d_s)
        if r_re or r_im:
            break
        out.append((f_re - c_re, c_im - f_im))
    return out, q ** n * d_m * d_e


def series_oracle_residuals(params: OrderParams) -> list[float]:
    """Exact residuals of series_oracle against the recurrence's integers:
    sqrt(pi) a_1 .. a_{n+1}, then the SERIES_TAIL orders past them against
    0; 1.0 from the first order the series oracle could not reach."""
    big, top, _, _ = _lambda_integers(params)
    series, den = series_oracle(params)
    want = big + ((0, 0),) * SERIES_TAIL
    return [exact_relative_residual([(s_re * top, s_im * top), (-re * den, -im * den)])
            for (s_re, s_im), (re, im) in zip(series, want)
            ] + [1.0] * (len(want) - len(series))


# --- collocation oracle -----------------------------------------------------

def _chebyshev_points(npts: int) -> tuple[float, ...]:
    """npts Chebyshev-Lobatto points on the collocation range, both ends
    included, in increasing order."""
    lo, hi = COLLOCATION_RANGE
    return tuple(lo + (hi - lo) * (1 - math.cos(math.pi * j / (npts - 1))) / 2
                 for j in range(npts))


COLLOCATION_MASTER = _chebyshev_points(4 * (COLLOCATION_MASTER_N + 1))


def default_collocation_points(n: int) -> list[float]:
    """max(4(n+1), 8) Chebyshev-Lobatto points on the collocation range.  Up
    to n = COLLOCATION_MASTER_N they are drawn from one master set, the
    points of that n, at indices round(j (M - 1) / (npts - 1)) for M master
    points, so the 50-digit fit evaluates their per-k factors once
    (``oracle._master_factors``); a larger n takes its own set."""
    npts = max(4 * (n + 1), 8)
    if n > COLLOCATION_MASTER_N:
        return list(_chebyshev_points(npts))
    last = len(COLLOCATION_MASTER) - 1
    return [COLLOCATION_MASTER[round(j * last / (npts - 1))] for j in range(npts)]


def collocation_oracle(params: OrderParams, xs=None,
                       config: EvalConfig | None = None) -> CoeffVector:
    """Independent recovery of the coefficients by least-squares fit of the
    defining identity at sample points x > 0, entirely at 50 digits
    (oracle.collocation_fit): it reads no production kernel and no
    recurrence, and is the numerical test of the mode reduction that
    series_oracle constructs Lambda from."""
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

    from . import oracle
    fitted, resid = oracle.collocation_fit(params, xs, config)
    if resid > config.collocation_resid_tol:
        raise InvariantViolationError(
            f"collocation fit residual {resid:.3e} exceeds "
            f"{config.collocation_resid_tol:.0e}")
    return CoeffVector(params=params, a=tuple(fitted), convention="collocation-fit")
