"""High-precision reference evaluators (the slow path).

Kummer M comes from mpmath's own ``mp.hyp1f1`` and Bessel I from its
``mp.hyp0f1``, run at 50-digit working precision, so they share no code with
the production kernels.  Whittaker W and Bessel K are built from them by
closed formulas (no quadrature): W for real kappa and imaginary mu as twice
the real part of one connection-formula term (DLMF 13.14.33), K as the
I-difference with I_{+-nu} = (x/2)^{+-nu} / Gamma(1 +- nu) 0F1(; 1 +- nu;
x^2/4) (DLMF 10.25.2).  Both take a list of points and then compute their
point-independent factors once.  The collocation fit solves its least-squares
system by Householder QR on Python integers in fixed point.  Values from this
module are the ground truth for derived expected values and for regimes
double precision cannot reach (large x in the connection formula,
ill-conditioned collocation fits at high degree).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import mpmath as mp
from mpmath.libmp import NoConvergence

from .config import EvalConfig, default_config
from .errors import ConvergenceError, InputError
from .kernels import OrderParams


@contextmanager
def _dps(config: EvalConfig):
    with mp.workdps(config.oracle_dps):
        yield


@contextmanager
def _converging(what: str):
    try:
        yield
    except NoConvergence as exc:
        raise ConvergenceError(f"oracle {what} did not converge: {exc}") from exc


def whittaker_w(kappa, mu, z, config: EvalConfig | None = None):
    """W_{kappa,mu}(z) at oracle precision for real kappa, nonzero imaginary
    mu and z > 0; returns mpmath mpf.  There the connection formula's two
    terms are complex conjugates, so W = 2 Re(Gamma(-2mu) / Gamma(1/2 - mu -
    kappa) M_{kappa,mu}(z)) with M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu}
    M(1/2 + mu - kappa, 1 + 2mu, z) (DLMF 13.14.2).  z is a number, or a list
    or tuple of numbers (then a list of values, with the gamma quotient
    computed once)."""
    config = config or default_config()
    if not isinstance(z, (list, tuple)):
        return whittaker_w(kappa, mu, [z], config)[0]
    with _dps(config), _converging("Kummer M"):
        kappa, mu = mp.mpc(kappa), mp.mpc(mu)
        if kappa.imag or mu.real or not mu.imag or any(zz <= 0 for zz in z):
            raise InputError("oracle W takes real kappa, nonzero imaginary "
                             "mu and z > 0")
        half = mp.mpf(1) / 2
        quot = mp.gamma(-2 * mu) / mp.gamma(half - mu - kappa)
        a, b = half + mu - kappa, 1 + 2 * mu
        out = []
        for zz in map(mp.mpf, z):
            m = mp.exp(-zz / 2) * zz ** (half + mu) * mp.hyp1f1(a, b, zz)
            out.append(2 * mp.re(quot * m))
        return out


def bessel_k(nu, x, config: EvalConfig | None = None):
    """K_nu = (pi/2) (I_{-nu} - I_nu) / sin(pi nu), independent of quadrature.
    x is a number, or a list or tuple of numbers (then a list of values, with
    the prefactor and both gamma factors computed once)."""
    config = config or default_config()
    if not isinstance(x, (list, tuple)):
        return bessel_k(nu, [x], config)[0]
    with _dps(config), _converging("Bessel I"):
        nu = mp.mpc(nu)
        pref = mp.pi / (2 * mp.sin(mp.pi * nu))
        rg_minus, rg_plus = mp.rgamma(1 - nu), mp.rgamma(1 + nu)
        out = []
        for xx in x:
            half_x = mp.mpf(xx) / 2
            quarter_x2 = half_x ** 2
            power = half_x ** nu
            i_minus = rg_minus * mp.hyp0f1(1 - nu, quarter_x2) / power
            i_plus = power * rg_plus * mp.hyp0f1(1 + nu, quarter_x2)
            out.append(pref * (i_minus - i_plus))
        return out


def large_x_w_ratio(params: OrderParams, x: float = 30.0,
                    config: EvalConfig | None = None) -> complex:
    """W_{n+1/2,ik}(2x) / ((2x)^{n+1/2} e^{-x}) at oracle precision."""
    config = config or default_config()
    n, k = params.n, params.k
    with _dps(config):
        xx = mp.mpf(x)
        w = whittaker_w(n + mp.mpf(1) / 2, mp.mpc(0, k), 2 * xx, config)
        return complex(w / ((2 * xx) ** (n + mp.mpf(1) / 2) * mp.e ** (-xx)))


def small_x_w_defect(params: OrderParams, x: float,
                     config: EvalConfig | None = None) -> float:
    """|W(2x) - leading two-term small-x form| / x^{1/2} at oracle precision;
    tends to 0 like x as x -> 0."""
    config = config or default_config()
    n, k = params.n, params.k
    with _dps(config):
        ik = mp.mpc(0, k)
        xx = mp.mpf(x)
        w = whittaker_w(n + mp.mpf(1) / 2, ik, 2 * xx, config)
        lead = mp.gamma(-2 * ik) / mp.gamma(-ik - n) * (2 * xx) ** (mp.mpf(1) / 2 + ik)
        lead = lead + mp.conj(lead)
        return float(abs(w - lead) / mp.sqrt(xx))


def _householder_lstsq(rows, rhs):
    """Least-squares solution of rows @ sol = rhs by Householder QR (Golub &
    Van Loan, Matrix Computations, sec. 5.3) on Python integers in fixed
    point: each column is equilibrated by a power of two and every entry
    scaled by 2**(working precision + 64), so the solve keeps 64 guard bits.
    rows is a list of equal-length lists of mpf; returns the solution as a
    list of mpf."""
    frac = mp.mp.prec + 64
    exps = [mp.frexp(max(abs(row[j]) for row in rows))[1]
            for j in range(len(rows[0]))]
    cols = [[int(mp.ldexp(row[j], frac - e)) for row in rows]
            for j, e in enumerate(exps)]
    b = [int(mp.ldexp(v, frac)) for v in rhs]
    p = len(cols)
    for j, col in enumerate(cols):
        # reflect col[j:] onto alpha e_1, with the sign of alpha chosen
        # against col[j] so that v[0] does not cancel
        alpha = math.isqrt(sum(c * c for c in col[j:]))
        if col[j] >= 0:
            alpha = -alpha
        v = col[j:]
        v[0] -= alpha
        vtv = sum(c * c for c in v)
        for other in cols[j + 1:] + [b]:
            t = 2 * sum(vi * oi for vi, oi in zip(v, other[j:]))
            for i, vi in enumerate(v, start=j):
                other[i] -= vi * t // vtv
        col[j] = alpha
    sol = [0] * p
    for j in reversed(range(p)):
        acc = (b[j] << frac) - sum(cols[i][j] * sol[i] for i in range(j + 1, p))
        sol[j] = acc // cols[j][j]
    return [mp.ldexp(s, -(frac + e)) for s, e in zip(sol, exps)]


def _design_system(params: OrderParams, xs, config: EvalConfig):
    """Rows and data of the collocation least-squares system at oracle
    precision, each row divided by |W| at its point; unknowns are the real
    and imaginary parts of a_1..a_{n+1} in turn."""
    n, k = params.n, params.k
    with _dps(config):
        ik = mp.mpc(0, k)
        half = mp.mpf(1) / 2
        xs = [mp.mpf(x) for x in xs]
        ws = whittaker_w(n + half, ik, [2 * x for x in xs], config)
        kps = bessel_k(half + ik, xs, config)
        rows, rhs = [], []
        for x, w, kp in zip(xs, ws, kps):
            scale = 1 / abs(w)
            re_k, im_k = 2 * mp.re(kp) * scale, -2 * mp.im(kp) * scale
            row, xm = [], x
            for _ in range(n + 1):
                row += [xm * re_k, xm * im_k]
                xm *= x
            rows.append(row)
            rhs.append(w * scale)
        return rows, rhs


def collocation_fit(params: OrderParams, xs,
                    config: EvalConfig | None = None):
    """Least-squares fit of the identity at the given points, entirely at
    oracle precision.  Returns (coefficients a_1..a_{n+1}, max relative
    misfit).  Conditioning that would sink a double-precision solve is
    harmless at 50 digits."""
    config = config or default_config()
    with _dps(config):
        rows, rhs = _design_system(params, xs, config)
        sol = _householder_lstsq(rows, rhs)
        fitted = [complex(float(sol[2 * j]), float(sol[2 * j + 1]))
                  for j in range(params.n + 1)]
        worst = max(abs(mp.fdot(row, sol) - r) / abs(r)
                    for row, r in zip(rows, rhs))
        return fitted, float(worst)
