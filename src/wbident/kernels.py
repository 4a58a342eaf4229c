"""Evaluators for Kummer's confluent hypergeometric function, Whittaker M/W,
and modified Bessel I, K, I-tilde at complex order.

Two independent routes exist for K: a direct trapezoid quadrature of the
integral representation, and the Whittaker-W connection route.  They are
cross-checked against each other in the verification suite.

The connection formula for W subtracts terms that grow like e^{+x} while W
itself decays like e^{-x}; the generic branch therefore runs its series and
prefactors on ``np.clongdouble`` (80-bit on x86, plain double where
longdouble is double) before rounding the result to complex128.  In
double-precision mode the usable range is x <= 8.  ``kummer_m``,
``whittaker_m`` and ``whittaker_w`` also take z as a tuple (a grid) and then
return read-only arrays equal bit for bit to the per-point calls, because
each point's series stops by its own rule; a scalar call is a one-element
grid.  A value that does not round to a finite complex128 raises
``ConvergenceError``, and so does a nonzero value that rounds to a modulus
below the smallest normal double: there the double holds noise or zero (W
reaches it near k = 470), and a residual divided by it means nothing.

With ``deriv=True`` the Whittaker evaluators also return the first and
second derivative, summed term by term in the same series loop as the value,
which is the value-only call's bit for bit.  The Bessel evaluators return
values only; their derivatives follow from values at order nu+1
(DLMF 10.29.2, see ``ode.factor_derivatives``).

Inside a ``with kernel_table():`` block (``run_suite`` runs in one) the five
public kernels ``whittaker_m``, ``whittaker_w``, ``bessel_i``,
``bessel_k_quad`` and ``bessel_k_via_w``, and the coefficient builder
``lambda_poly.coeffs_from_recurrence``, evaluate each distinct argument
tuple once: a repeated call with equal positional and keyword arguments
(``config`` and ``deriv`` included, a grid keyed by its tuple) returns the
stored value.  Only returned values are stored; a raising call stores
nothing.  The table lives in a ``contextvars.ContextVar`` and is dropped
when the block exits, so outside it nothing is looked up or kept.  A repeated call does not re-issue the
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

from .config import EvalConfig, default_config
from .core import C, LD, _TINY, _is_nonpositive_integer, laguerre, log_gamma_ld
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


@dataclass(frozen=True, slots=True)
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


# --- grid kernels ------------------------------------------------------------

def _grid(z, name: str) -> np.ndarray:
    """z (a float or a tuple of floats) as a 1-d longdouble array; z > 0."""
    zs = np.asarray(z, dtype=LD).reshape(-1)
    if not (zs > 0).all():
        raise InputError(f"{name} requires z > 0")
    return zs


def _finish(name: str, z, values):
    """Round each clongdouble array of `values` (the value, then any
    derivatives) to complex128: one complex per array for a scalar z, else
    read-only arrays; a single array is returned bare, several as a tuple."""
    with np.errstate(over="ignore"):
        out = [np.asarray(v).astype(complex) for v in values]
    if not all(np.isfinite(v).all() for v in out):
        raise ConvergenceError(f"{name}: value is not a finite complex128")
    if any(((abs(o) < _TINY) & (np.asarray(v) != 0)).any() for o, v in zip(out, values)):
        raise ConvergenceError(f"{name}: value underflows complex128")
    if np.ndim(z) == 0:
        out = [v.item() for v in out]
    else:
        for v in out:
            v.flags.writeable = False
    return tuple(out) if len(out) > 1 else out[0]


@np.errstate(over="ignore", invalid="ignore")
def _kummer_series(a, b, z: np.ndarray, config: EvalConfig, deriv: bool = False):
    """sum_m t_m with t_m = (a)_m / (b)_m z^m / m! at each point of the
    clongdouble grid z.  A point stops after three consecutive terms below
    series_rel_tol * |its partial sum| (complex-parameter series can have
    transiently tiny terms) and leaves the working arrays, so its sum does not
    depend on the rest of the grid.  Returns [M], or with deriv [M, M', M'']
    from the term-by-term sums of m t_m / z and m (m-1) t_m / z^2."""
    a, b = C(a), C(b)
    tol = LD(config.series_rel_tol)
    out = np.empty((3 if deriv else 1, z.size), C)
    if not z.size:
        return list(out)
    sums = [np.ones(z.size, C)] + [np.zeros(z.size, C) for _ in out[1:]]
    live = np.arange(z.size)
    zl, t, small = z, np.ones(z.size, C), np.zeros(z.size, int)
    for m in range(config.series_max_terms):
        t = t * ((a + m) / ((b + m) * (m + 1))) * zl
        sums[0] += t
        if deriv:
            sums[1] += (m + 1) * t
            sums[2] += (m * (m + 1)) * t
        if m % 32 == 31 and not all(np.isfinite(s).all() for s in sums):
            raise ConvergenceError(
                f"Kummer series partial sum is not finite after {m + 1} terms")
        small = np.where(np.abs(t) <= tol * np.abs(sums[0]), small + 1, 0)
        done = small >= 3
        if done.any():
            for row, s in zip(out, sums):
                row[live[done]] = s[done]
            keep = ~done
            live, zl, t, small = live[keep], zl[keep], t[keep], small[keep]
            sums = [s[keep] for s in sums]
            if not live.size:
                if deriv:
                    out[1] /= z
                    out[2] /= z * z
                return list(out)
    raise ConvergenceError(
        f"Kummer series did not converge within {config.series_max_terms} terms")


def kummer_m(a, b, z, config: EvalConfig | None = None):
    """Kummer's confluent hypergeometric function M(a, b, z); z a number or a
    tuple of numbers (then an array of values)."""
    config = config or default_config()
    b = complex(b)
    if _is_nonpositive_integer(b):
        raise PoleError(f"kummer_m pole: b = {b} is a nonpositive integer")
    zs = np.asarray(z, dtype=C).reshape(-1)
    return _finish("kummer_m", z, _kummer_series(a, b, zs, config))


def _times_prefactor(pref, c, z, f, f1, f2):
    """[P f, (P f)', (P f)''] for P(z) = e^{-z/2} z^c, given P, c, z and
    (f, f', f''); P' = g P and P'' = (g^2 - c/z^2) P with g = c/z - 1/2."""
    g = c / z - LD(0.5)
    return [pref * f,
            pref * (g * f + f1),
            pref * ((g * g - c / (z * z)) * f + 2 * g * f1 + f2)]


def _whittaker_m_ld(kappa, mu, z: np.ndarray, config: EvalConfig, deriv: bool = False):
    """[M_{kappa,mu}] (with deriv [M, M', M'']) on the longdouble grid z."""
    kappa = complex(kappa)
    mu = complex(mu)
    ser = _kummer_series(0.5 + mu - kappa, 1 + 2 * mu, z.astype(C), config, deriv)
    c = LD(0.5) + C(mu)
    pref = np.exp(c * np.log(z) - z / 2)
    if deriv:
        return _times_prefactor(pref, c, z, *ser)
    return [pref * ser[0]]


@_tabled
def whittaker_m(kappa, mu, z, config: EvalConfig | None = None, *,
                deriv: bool = False):
    """Whittaker M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu} M(1/2+mu-kappa, 1+2mu, z);
    with deriv, the tuple (M, dM/dz, d^2M/dz^2).  z is a float or a tuple of
    floats (then read-only arrays, one value per point)."""
    config = config or default_config()
    zs = _grid(z, "whittaker_m")
    if _is_nonpositive_integer(complex(1 + 2 * complex(mu))):
        raise PoleError(f"whittaker_m: 1+2*mu = {1 + 2 * complex(mu)} is a nonpositive integer")
    return _finish("whittaker_m", z, _whittaker_m_ld(kappa, mu, zs, config, deriv))


def _laguerre_whittaker_w(n: int, z: float) -> float:
    # W_{n+1/2,0}(z) = (-1)^n n! z^{1/2} e^{-z/2} L_n(z)
    return ((-1) ** n * math.factorial(n) * math.sqrt(z)
            * math.exp(-z / 2) * laguerre(n, z))


@_tabled
def whittaker_w(kappa, mu, z, config: EvalConfig | None = None, *,
                deriv: bool = False):
    """Whittaker W_{kappa,mu}(z); with deriv, the tuple
    (W, dW/dz, d^2W/dz^2), each term of the connection formula
    differentiated through its M factor (generic branch only).  z is a float
    or a tuple of floats (then read-only arrays, one value per point).

    Generic branch (2*mu not an integer): the connection formula

        W = Gamma(-2mu)/Gamma(1/2-mu-kappa) M_{kappa,mu}
          + Gamma(2mu)/Gamma(1/2+mu-kappa) M_{kappa,-mu}.

    Special branch mu = 0 with kappa = n+1/2: the closed Laguerre form
    (-1)^n n! z^{1/2} e^{-z/2} L_n(z).  Any other integer 2*mu is refused:
    the gamma prefactors sit on poles there.
    """
    config = config or default_config()
    zs = _grid(z, "whittaker_w")
    kappa = complex(kappa)
    mu = complex(mu)

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
                    return _finish("whittaker_w", z, [np.array(
                        [_laguerre_whittaker_w(n, float(x)) for x in zs])])
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

    # a non-finite prefactor raises in _finish; numpy's warnings only add noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pref_a = np.exp(log_gamma_ld(C(-two_mu)) - log_gamma_ld(C(0.5 - mu - kappa)))
        pref_b = np.exp(log_gamma_ld(C(two_mu)) - log_gamma_ld(C(0.5 + mu - kappa)))
    return _finish("whittaker_w", z, [pref_a * ma + pref_b * mb for ma, mb in zip(
        _whittaker_m_ld(kappa, mu, zs, config, deriv),
        _whittaker_m_ld(kappa, -mu, zs, config, deriv))])


@_tabled
def bessel_k_quad(nu, x: float, config: EvalConfig | None = None) -> complex:
    """K_nu(x) by trapezoid quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand decays double-exponentially, so the trapezoid rule is
    spectrally accurate; the step is halved until two successive values agree
    to quad_rel_tol.
    """
    config = config or default_config()
    if not x > 0:
        raise InputError("bessel_k_quad requires x > 0")
    nu = complex(nu)
    if not abs(nu.real) < 1:
        raise InputError("bessel_k_quad requires |Re nu| < 1")

    a = abs(nu.real)
    cutoff = 1.0
    while x * math.cosh(cutoff) - a * cutoff <= 45.0:
        cutoff += 0.5

    def trapezoid(h: float) -> complex:
        ts = np.arange(int(math.ceil(cutoff / h)) + 1) * h
        vals = np.exp(-x * np.cosh(ts)) * np.cosh(nu * ts)
        return complex(h * (vals[0] / 2 + vals[1:].sum()))

    h = config.quad_step
    prev = trapezoid(h)
    for _ in range(config.quad_max_halvings):
        h /= 2
        cur = trapezoid(h)
        if abs(cur - prev) <= config.quad_rel_tol * abs(cur):
            return cur
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
def bessel_i(nu, x: float, config: EvalConfig | None = None) -> complex:
    """I_nu(x) by the ascending series sum_m t_m with
    t_m = (x/2)^{2m+nu} / (m! Gamma(m+nu+1)), with the same three-small-terms
    stopping rule as the Kummer series."""
    config = config or default_config()
    if not x > 0:
        raise InputError("bessel_i requires x > 0")
    nu = complex(nu)
    if nu.imag == 0.0 and nu.real < 0 and nu.real == round(nu.real):
        nu = -nu                      # integer order: I_{-n} = I_n
    nu_ld = C(nu)
    half_x = LD(x) / 2
    x2 = half_x ** 2
    tol = LD(config.series_rel_tol)
    small = 0
    # a non-finite sum raises ConvergenceError; numpy's warnings only add noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.exp(nu_ld * np.log(half_x) - log_gamma_ld(C(nu + 1)))
        s = C(0)
        for m in range(config.series_max_terms):
            s = s + t
            if abs(t) <= tol * abs(s):
                small += 1
                if small >= 3:
                    return _finish("bessel_i", x, [s])
            else:
                small = 0
            t = t * x2 / ((m + 1) * (m + 1 + nu_ld))
    raise ConvergenceError(
        f"bessel_i series did not converge within {config.series_max_terms} terms")


def bessel_i_tilde(nu, x: float, config: EvalConfig | None = None) -> complex:
    """I-tilde_nu(x) = I_nu(x) + I_{-nu}(x); symmetric in nu <-> -nu and
    satisfies the same Bessel equation as K_nu."""
    config = config or default_config()
    return bessel_i(nu, x, config) + bessel_i(-complex(nu), x, config)
