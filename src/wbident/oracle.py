"""High-precision reference evaluators (the slow path).

Kummer M and Bessel I come from mpmath's own hypergeometric evaluators
(``mp.hyp1f1``, ``mp.besseli``), run at 50-digit working precision, so they
share no code with the production kernels.  Whittaker M and W and Bessel K
are built from them by the same closed formulas the kernels use (no
quadrature); ``whittaker_w`` also takes a list of z and then computes its
gamma quotients once.  Values from this module are the ground truth for
derived expected values and for regimes double precision cannot reach
(large x in the connection formula, ill-conditioned collocation fits at high
degree).
"""

from __future__ import annotations

from contextlib import contextmanager

import mpmath as mp
from mpmath.libmp import NoConvergence

from .config import EvalConfig, default_config
from .errors import ConvergenceError
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


def kummer_m(a, b, z, config: EvalConfig | None = None):
    """Kummer M(a, b, z) at oracle precision; returns mpmath mpc."""
    config = config or default_config()
    with _dps(config), _converging("Kummer M"):
        return mp.hyp1f1(mp.mpc(a), mp.mpc(b), mp.mpc(z))


def whittaker_m(kappa, mu, z, config: EvalConfig | None = None):
    config = config or default_config()
    with _dps(config):
        kappa = mp.mpc(kappa)
        mu = mp.mpc(mu)
        z = mp.mpf(z)
        half = mp.mpf(1) / 2
        return (mp.e ** (-z / 2) * z ** (half + mu)
                * kummer_m(half + mu - kappa, 1 + 2 * mu, z, config))


def whittaker_w(kappa, mu, z, config: EvalConfig | None = None):
    """Connection-formula W at oracle precision (generic 2*mu only).  z is a
    number, or a list or tuple of numbers (then a list of values, with the
    two gamma quotients computed once)."""
    config = config or default_config()
    if not isinstance(z, (list, tuple)):
        return whittaker_w(kappa, mu, [z], config)[0]
    with _dps(config):
        kappa = mp.mpc(kappa)
        mu = mp.mpc(mu)
        half = mp.mpf(1) / 2
        quot_a = mp.gamma(-2 * mu) / mp.gamma(half - mu - kappa)
        quot_b = mp.gamma(2 * mu) / mp.gamma(half + mu - kappa)
        return [quot_a * whittaker_m(kappa, mu, zz, config)
                + quot_b * whittaker_m(kappa, -mu, zz, config) for zz in z]


def bessel_i(nu, x, config: EvalConfig | None = None):
    """Bessel I_nu(x) at oracle precision; returns mpmath mpc."""
    config = config or default_config()
    with _dps(config), _converging("Bessel I"):
        return mp.besseli(mp.mpc(nu), mp.mpf(x))


def bessel_k(nu, x, config: EvalConfig | None = None):
    """K_nu = (pi/2) (I_{-nu} - I_nu) / sin(pi nu), independent of quadrature."""
    config = config or default_config()
    with _dps(config):
        nu = mp.mpc(nu)
        return (mp.pi / 2 * (bessel_i(-nu, x, config) - bessel_i(nu, x, config))
                / mp.sin(mp.pi * nu))


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


def collocation_fit(params: OrderParams, xs,
                    config: EvalConfig | None = None):
    """Least-squares fit of the identity at the given points, entirely at
    oracle precision.  Returns (coefficients a_1..a_{n+1}, max relative
    misfit).  Conditioning that would sink a double-precision solve is
    harmless at 50 digits."""
    config = config or default_config()
    n, k = params.n, params.k
    with _dps(config):
        ik = mp.mpc(0, k)
        half = mp.mpf(1) / 2
        rows = mp.matrix(len(xs), 2 * (n + 1))
        rhs = mp.matrix(len(xs), 1)
        ws = whittaker_w(n + half, ik, [2 * mp.mpf(x) for x in xs], config)
        for i, (x, w) in enumerate(zip(xs, ws)):
            xx = mp.mpf(x)
            kp = bessel_k(half + ik, xx, config)
            w = mp.re(w)
            scale = 1 / abs(w)
            xm = xx
            for m in range(1, n + 2):
                rows[i, 2 * (m - 1)] = 2 * xm * mp.re(kp) * scale
                rows[i, 2 * (m - 1) + 1] = -2 * xm * mp.im(kp) * scale
                xm *= xx
            rhs[i] = w * scale
        sol = mp.qr_solve(rows, rhs)[0]
        fitted = [complex(float(sol[2 * j]), float(sol[2 * j + 1]))
                  for j in range(n + 1)]
        worst = mp.mpf(0)
        for i in range(len(xs)):
            got = sum(rows[i, j] * sol[j] for j in range(2 * (n + 1)))
            worst = max(worst, abs(got - rhs[i]) / abs(rhs[i]))
        return fitted, float(worst)
