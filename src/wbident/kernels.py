"""Evaluators for Kummer's confluent hypergeometric function, Whittaker M/W,
and modified Bessel I, K, I-tilde at complex order.

Two independent routes exist for K: a direct trapezoid quadrature of the
integral representation, and the Whittaker-W connection route.  They are
cross-checked against each other in the verification suite.

The connection formula for W subtracts terms that grow like e^{+x} while W
itself decays like e^{-x}; the generic branch therefore runs its series and
prefactors in 80-bit precision (see _longdouble) before rounding the result
to complex128.  In double-precision mode the usable range is x <= 8.

With ``deriv=True`` the Whittaker, Bessel-I and quadrature Bessel-K
evaluators also return exact derivatives, summed in the same series or
quadrature loop as the value: term by term for the series (first and second
derivative for M and W, first for I) and by differentiating under the
integral for K (DLMF 10.32.9).  The value they return is the value-only
call's, bit for bit, except that K's halving test then covers both numbers.

Inside a ``with kernel_table():`` block (``run_suite`` runs in one) the five
public kernels ``whittaker_m``, ``whittaker_w``, ``bessel_i``,
``bessel_k_quad`` and ``bessel_k_via_w``, and the coefficient builder
``lambda_poly.coeffs_from_recurrence``, evaluate each distinct argument
tuple once: a repeated call with equal positional and keyword arguments
(``config`` and ``deriv`` included) returns the stored value.  Only returned
values are stored; a raising call stores nothing.  The table lives in a
``contextvars.ContextVar`` and is dropped when the block exits, so outside
it nothing is looked up or kept.  A repeated call does not re-issue the
``NearDegeneracyWarning`` of its first evaluation.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ._longdouble import CLD, LD, cexp, clog, log_gamma_ld
from .config import EvalConfig, default_config
from .core import laguerre
from .errors import (ConvergenceError, DegenerateParameterError, InputError,
                     NearDegeneracyWarning, PoleError)


_TABLE: ContextVar[dict | None] = ContextVar("wbident_kernel_table", default=None)
_MISSING = object()


@contextlib.contextmanager
def kernel_table():
    """Evaluate each kernel value once while the block runs (see the module
    docstring); the table is dropped on exit, also when the block raises."""
    token = _TABLE.set({})
    try:
        yield
    finally:
        _TABLE.reset(token)


def _tabled(fn):
    @functools.wraps(fn)
    def kernel(*args, **kwargs):
        table = _TABLE.get()
        if table is None:
            return fn(*args, **kwargs)
        key = (fn, args, tuple(kwargs.items()))
        value = table.get(key, _MISSING)
        if value is _MISSING:
            value = table[key] = fn(*args, **kwargs)
        return value
    return kernel


@dataclass(frozen=True)
class OrderParams:
    """Degree index n and imaginary-order parameter k of the identity
    W_{n+1/2, ik}(2x) = x L(x) K_{1/2+ik}(x) + x conj(L)(x) K_{1/2-ik}(x)."""

    n: int
    k: float

    def __post_init__(self):
        if self.n < 0:
            raise InputError("OrderParams.n must be a natural number")
        if self.n > 25:
            raise InputError("OrderParams.n capped at 25 (coefficients grow like 2^n)")
        if not math.isfinite(self.k):
            raise InputError("OrderParams.k must be finite")

    @property
    def kappa(self) -> float:
        return self.n + 0.5

    @property
    def mu(self) -> complex:
        return 1j * self.k


def _is_nonpositive_int(z: complex, tol: float = 0.0) -> bool:
    return (abs(z.imag) <= tol and z.real <= 0.5
            and abs(z.real - round(z.real)) <= tol and round(z.real) <= 0)


def _kummer_series_ld(a, b, z, config: EvalConfig, deriv: bool = False):
    """sum_m t_m with t_m = (a)_m / (b)_m z^m / m!, stopping after three
    consecutive terms below series_rel_tol * |partial sum| (complex-parameter
    series can have transiently tiny terms).  With deriv, returns
    (M, M', M'') from the term-by-term sums of m t_m / z and
    m (m-1) t_m / z^2."""
    a = CLD.from_complex(a)
    b = CLD.from_complex(b)
    z = CLD.from_complex(z)
    s = CLD(1)
    t = CLD(1)
    s1 = s2 = CLD(0)
    tol2 = LD(config.series_rel_tol) ** 2
    small = 0
    for m in range(config.series_max_terms):
        t = t * (a + CLD(m)) / (b + CLD(m)) * z / CLD(m + 1)
        s = s + t
        if deriv:
            s1 = s1 + CLD(m + 1) * t
            s2 = s2 + CLD(m * (m + 1)) * t
        if t.abs2() <= tol2 * s.abs2():
            small += 1
            if small >= 3:
                return (s, s1 / z, s2 / (z * z)) if deriv else s
        else:
            small = 0
    raise ConvergenceError(
        f"Kummer series did not converge within {config.series_max_terms} terms")


def kummer_m(a, b, z, config: EvalConfig | None = None) -> complex:
    """Kummer's confluent hypergeometric function M(a, b, z)."""
    config = config or default_config()
    b = complex(b)
    if _is_nonpositive_int(b):
        raise PoleError(f"kummer_m pole: b = {b} is a nonpositive integer")
    return _kummer_series_ld(a, b, z, config).to_complex()


def _times_prefactor(pref, c, z, f, f1, f2):
    """(P f, (P f)', (P f)'') for P(z) = e^{-z/2} z^c, given P, c, z and
    (f, f', f''); P' = g P and P'' = (g^2 - c/z^2) P with g = c/z - 1/2."""
    g = c / z - CLD(0.5)
    return (pref * f,
            pref * (g * f + f1),
            pref * ((g * g - c / (z * z)) * f + CLD(2) * g * f1 + f2))


def _whittaker_m_ld(kappa, mu, z: float, config: EvalConfig, deriv: bool = False):
    kappa = complex(kappa)
    mu = complex(mu)
    ser = _kummer_series_ld(0.5 + mu - kappa, 1 + 2 * mu, z, config, deriv)
    lz = clog(CLD(z))
    c = CLD(0.5) + CLD.from_complex(mu)
    pref = cexp(c * lz - CLD(z) / CLD(2))
    if deriv:
        return _times_prefactor(pref, c, CLD(z), *ser)
    return pref * ser


@_tabled
def whittaker_m(kappa, mu, z: float, config: EvalConfig | None = None, *,
                deriv: bool = False):
    """Whittaker M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu} M(1/2+mu-kappa, 1+2mu, z);
    with deriv, the tuple (M, dM/dz, d^2M/dz^2)."""
    config = config or default_config()
    if not z > 0:
        raise InputError("whittaker_m requires z > 0")
    if _is_nonpositive_int(complex(1 + 2 * complex(mu))):
        raise PoleError(f"whittaker_m: 1+2*mu = {1 + 2 * complex(mu)} is a nonpositive integer")
    if deriv:
        return tuple(v.to_complex() for v in _whittaker_m_ld(kappa, mu, z, config, True))
    return _whittaker_m_ld(kappa, mu, z, config).to_complex()


def _laguerre_whittaker_w(n: int, z: float) -> float:
    # W_{n+1/2,0}(z) = (-1)^n n! z^{1/2} e^{-z/2} L_n(z)
    return ((-1) ** n * math.factorial(n) * math.sqrt(z)
            * math.exp(-z / 2) * laguerre(n, z))


@_tabled
def whittaker_w(kappa, mu, z: float, config: EvalConfig | None = None, *,
                deriv: bool = False):
    """Whittaker W_{kappa,mu}(z); with deriv, the tuple
    (W, dW/dz, d^2W/dz^2), each term of the connection formula
    differentiated through its M factor (generic branch only).

    Generic branch (2*mu not an integer): the connection formula

        W = Gamma(-2mu)/Gamma(1/2-mu-kappa) M_{kappa,mu}
          + Gamma(2mu)/Gamma(1/2+mu-kappa) M_{kappa,-mu}.

    Special branch mu = 0 with kappa = n+1/2: the closed Laguerre form
    (-1)^n n! z^{1/2} e^{-z/2} L_n(z).  Any other integer 2*mu is refused:
    the gamma prefactors sit on poles there.
    """
    config = config or default_config()
    if not z > 0:
        raise InputError("whittaker_w requires z > 0")
    kappa = complex(kappa)
    mu = complex(mu)

    if abs(mu) <= config.k_zero_threshold:
        mu = 0j
    two_mu = 2 * mu
    nearest = complex(round(two_mu.real), 0.0)
    dist = abs(two_mu - nearest)
    if dist == 0.0:
        if two_mu == 0:
            if kappa.imag == 0.0:
                n_real = kappa.real - 0.5      # exact for kappa = n + 1/2
                n = round(n_real)
                if n >= 0 and n_real == n:
                    if deriv:
                        raise DegenerateParameterError(
                            "whittaker_w: derivatives are not provided on the "
                            "mu = 0 Laguerre branch")
                    return complex(_laguerre_whittaker_w(n, z))
            raise DegenerateParameterError(
                f"whittaker_w with mu = 0 requires kappa = n + 1/2, got {kappa}")
        raise DegenerateParameterError(
            f"whittaker_w: 2*mu = {two_mu} is a nonzero integer; "
            "the connection formula is invalid there")
    if dist < config.mu_degeneracy_tol:
        warnings.warn(
            f"whittaker_w: 2*mu = {two_mu} is within {config.mu_degeneracy_tol} "
            "of an integer; expect severe cancellation",
            NearDegeneracyWarning, stacklevel=2)

    lg_a = log_gamma_ld(CLD.from_complex(-two_mu)) \
        - log_gamma_ld(CLD.from_complex(0.5 - mu - kappa))
    lg_b = log_gamma_ld(CLD.from_complex(two_mu)) \
        - log_gamma_ld(CLD.from_complex(0.5 + mu - kappa))
    if deriv:
        pref_a, pref_b = cexp(lg_a), cexp(lg_b)
        return tuple((pref_a * ma + pref_b * mb).to_complex() for ma, mb in zip(
            _whittaker_m_ld(kappa, mu, z, config, True),
            _whittaker_m_ld(kappa, -mu, z, config, True)))
    term_a = cexp(lg_a) * _whittaker_m_ld(kappa, mu, z, config)
    term_b = cexp(lg_b) * _whittaker_m_ld(kappa, -mu, z, config)
    return (term_a + term_b).to_complex()


@_tabled
def bessel_k_quad(nu, x: float, config: EvalConfig | None = None, *,
                  deriv: bool = False):
    """K_nu(x) by trapezoid quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand decays double-exponentially, so the trapezoid rule is
    spectrally accurate; the step is halved until two successive values agree
    to quad_rel_tol.  With deriv, returns (K, K') with
    K' = -int_0^inf cosh t e^{-x cosh t} cosh(nu t) dt on the same nodes, and
    the halving test applies to both.
    """
    config = config or default_config()
    if not x > 0:
        raise InputError("bessel_k_quad requires x > 0")
    nu = complex(nu)
    if not abs(nu.real) < 1:
        raise InputError("bessel_k_quad requires |Re nu| < 1")

    if config.quad_cutoff is not None:
        cutoff = config.quad_cutoff
    else:
        a = abs(nu.real)
        cutoff = 1.0
        while x * math.cosh(cutoff) - a * cutoff <= 45.0:
            cutoff += 0.5

    def trapezoid(h: float) -> tuple[complex, ...]:
        ts = np.arange(int(math.ceil(cutoff / h)) + 1) * h
        cosh_t = np.cosh(ts)
        vals = np.exp(-x * cosh_t) * np.cosh(nu * ts)
        value = complex(h * (vals[0] / 2 + vals[1:].sum()))
        if not deriv:
            return (value,)
        dvals = -cosh_t * vals
        return value, complex(h * (dvals[0] / 2 + dvals[1:].sum()))

    h = config.quad_step
    prev = trapezoid(h)
    for _ in range(config.quad_max_halvings):
        h /= 2
        cur = trapezoid(h)
        if all(abs(c - p) <= config.quad_rel_tol * abs(c) for c, p in zip(cur, prev)):
            return cur if deriv else cur[0]
        prev = cur
    raise ConvergenceError(
        f"bessel_k_quad: no convergence after {config.quad_max_halvings} halvings")


@_tabled
def bessel_k_via_w(nu, x: float, config: EvalConfig | None = None) -> complex:
    """K_nu(x) = sqrt(pi/(2x)) W_{0,nu}(2x); requires 2*nu not an integer
    (use bessel_k_quad for half-integer and real-integer orders)."""
    config = config or default_config()
    if not x > 0:
        raise InputError("bessel_k_via_w requires x > 0")
    return math.sqrt(math.pi / (2 * x)) * whittaker_w(0.0, nu, 2 * x, config)


@_tabled
def bessel_i(nu, x: float, config: EvalConfig | None = None, *,
             deriv: bool = False):
    """I_nu(x) by the ascending series sum_m t_m with
    t_m = (x/2)^{2m+nu} / (m! Gamma(m+nu+1)), with the same three-small-terms
    stopping rule as the Kummer series.  With deriv, returns (I, I') with
    I' = sum_m (2m+nu)/x t_m."""
    config = config or default_config()
    if not x > 0:
        raise InputError("bessel_i requires x > 0")
    nu = complex(nu)
    if nu.imag == 0.0 and nu.real < 0 and nu.real == round(nu.real):
        nu = -nu                      # integer order: I_{-n} = I_n
    lx = np.log(LD(x) / 2)
    t = cexp(CLD.from_complex(nu) * CLD(lx)
             - log_gamma_ld(CLD.from_complex(nu + 1)))
    s = s1 = CLD(0)
    nu_ld = CLD.from_complex(nu)
    x2 = CLD((LD(x) / 2) ** 2)
    tol2 = LD(config.series_rel_tol) ** 2
    small = 0
    for m in range(config.series_max_terms):
        s = s + t
        if deriv:
            s1 = s1 + (CLD(2 * m) + nu_ld) * t
        if t.abs2() <= tol2 * s.abs2():
            small += 1
            if small >= 3:
                if deriv:
                    return s.to_complex(), (s1 / CLD(x)).to_complex()
                return s.to_complex()
        else:
            small = 0
        t = t * x2 / (CLD(m + 1) * (CLD(m + 1) + nu_ld))
    raise ConvergenceError(
        f"bessel_i series did not converge within {config.series_max_terms} terms")


def bessel_i_tilde(nu, x: float, config: EvalConfig | None = None) -> complex:
    """I-tilde_nu(x) = I_nu(x) + I_{-nu}(x); symmetric in nu <-> -nu and
    satisfies the same Bessel equation as K_nu."""
    config = config or default_config()
    return bessel_i(nu, x, config) + bessel_i(-complex(nu), x, config)
