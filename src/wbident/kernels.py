"""Evaluators for Kummer's confluent hypergeometric function, Whittaker M/W,
and modified Bessel I, K, I-tilde at complex order.

Two independent routes exist for K: a direct trapezoid quadrature of the
integral representation, and the Whittaker-W connection route.  They are
cross-checked against each other in the verification suite.

The connection formula for W subtracts terms that grow like e^{+x} while W
itself decays like e^{-x}; it therefore runs its series and prefactors on
``np.clongdouble`` (80-bit on x86, plain double where longdouble is double)
before rounding the result to complex128.  In double-precision mode the
usable range is x <= 8.  For real kappa and imaginary mu (the identity's
orders) the formula's two terms are complex conjugates, bit for bit in this
arithmetic, so ``whittaker_w`` sums only the first and returns twice its
real part: one Kummer series and two log gammas instead of two and four.
The two-term formula has one implementation, ``_whittaker_w_two_term``: it
is ``whittaker_w``'s branch for every other non-integer 2*mu, and the
realness checks (``whittaker-w-realness``, ``trial-w-realness``) read it.
Those are code-consistency checks: at these orders the two-term value equals
the one-term value bit for bit, so their residuals read exactly 0.0, and
they catch an edit that breaks one of the two code paths, not an error that
both share.

``kummer_m``, ``whittaker_m``, ``whittaker_w``, ``bessel_k_quad`` and
``bessel_k_via_w`` also take their argument as a tuple (a grid) and then
return read-only arrays equal bit for bit to the per-point calls, because
each point's series or step halving stops by its own rule; a scalar call is
a one-element grid.  ``whittaker_w`` and ``_whittaker_w_two_term`` also take
kappa as a tuple (a column, such as the identity's kappa = n + 1/2 for
n = 0..n_max): one Kummer series then sums every (kappa, z) pair, each pair
with its own a = 1/2 + mu - kappa, and the read-only result has one row per
kappa, equal bit for bit to the call at that kappa, since each row runs the
floating-point operations of that call.

The Kummer series advances the points still summing ``_BLOCK`` = 32 terms
per numpy step: the block's ratios (a+m)/((b+m)(m+1)) as one array (one row
per point when each point has its own a), the terms t <- (t r_m) z as one
running product, the partial sums as one sequential cumulative sum seeded
with the carried sum.  These are the
floating-point operations of a term-by-term loop in its order, so every sum
equals that loop's bit for bit.  The stopping rule is unchanged (three
consecutive terms below series_rel_tol * |partial sum|): it is applied to
the whole block, with the run of small terms carried in from the last
block, and each point keeps the sum at its own stop term, so a grid call
still equals the per-point calls.  The block is 32 terms because the series
checks its partial sums for non-finite values every 32 terms; a block ends
where that check runs.
A kernel value that does not round to a finite complex128 raises
``ConvergenceError``, and so does a nonzero value that rounds to a modulus
below the smallest normal double: there the double holds noise or zero (W
reaches it near k = 470, quadrature K near x = 740), and a residual divided
by it means nothing.  A quadrature K whose integrand underflows to 0 at
every node raises too.

Inside a ``with kernel_table():`` block (``run_suite`` runs in one) the five
public kernels ``whittaker_m``, ``whittaker_w``, ``bessel_i``,
``bessel_k_quad`` and ``bessel_k_via_w``, the private
``_whittaker_w_two_term``, the coefficient builder
``lambda_poly.coeffs_from_recurrence``, the integers of the coefficient
relations ``lambda_poly._lambda_integers`` and the 50-digit fit's per-k
factors on the collocation master set ``oracle._master_factors`` evaluate
each distinct argument tuple once: a repeated call with equal positional and
keyword arguments (``config`` included, a grid keyed by its tuple) returns
the stored value.
A grid call (its z or x a positional tuple) also stores each point's value
under the key of the per-point call at that point, so a later per-point call
is served from the grid; a column call stores each row under the key of the
grid call at its kappa and each of that row's points under its per-point
key.  A grid call whose every point the table already holds, from any grids
or columns, is served from those points as a read-only array, without
entering the kernel (a column call is always evaluated, so its refusals
hold).  This is sound because a grid or column call equals the calls it
holds bit for bit.  Only returned values are stored; a raising call, grid,
column or not, stores nothing.  The table
lives in a ``contextvars.ContextVar`` and is dropped when the block exits,
so outside it nothing is looked up or kept.  A repeated call does not
re-issue the ``NearDegeneracyWarning`` of its first evaluation; the warning
names the first caller outside this module, past the kernels and their
wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
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
    """fn evaluated once per distinct arguments inside ``kernel_table``; a
    grid or column call also tables the calls it holds (``_held``), and a
    grid call whose points are all held is served from them
    (``_from_points``)."""
    @functools.wraps(fn)
    def kernel(*args, **kwargs):
        table = _TABLE.get()
        if table is None:
            return fn(*args, **kwargs)
        kw = tuple(kwargs.items())
        key = (fn, args, kw)
        value = table.get(key, _MISSING)
        if value is _MISSING:
            value = _from_points(fn, args, kw, table)
            if value is _MISSING:
                value = fn(*args, **kwargs)
            table[key] = value
            for held, v in _held(args, value):
                table.setdefault((fn, held, kw), v)
        return value
    return kernel


def _from_points(fn, args, kw, table):
    """A grid call's value (a read-only array) rebuilt from the values the
    table holds for its points, or _MISSING unless it holds every point.  A
    grid call has one tuple argument, its points, after the order; a tuple
    first argument is a column of orders, which is not served this way."""
    grids = [i for i, arg in enumerate(args) if type(arg) is tuple]
    if len(grids) != 1 or grids[0] == 0 or not args[grids[0]]:
        return _MISSING
    i = grids[0]
    keys = [(fn, (*args[:i], point, *args[i + 1:]), kw) for point in args[i]]
    if not all(key in table for key in keys):
        return _MISSING
    out = np.array([table[key] for key in keys])
    out.flags.writeable = False
    return out


def _held(args, value):
    """(arguments, value) of each call that a call on tuple arguments holds:
    the first tuple's points with their rows of value (a column's per-kappa
    grids), then, in turn, the calls that each row holds (its points)."""
    for i, arg in enumerate(args):
        if type(arg) is tuple:
            rows = value.tolist() if value.ndim == 1 else value
            for point, row in zip(arg, rows):
                held = (*args[:i], point, *args[i + 1:])
                yield held, row
                yield from _held(held, row)
            return


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

def _grid(z, refusal: str, dtype=LD) -> tuple[np.ndarray, tuple]:
    """(z as a 1-d array of dtype, the shape of z) for z a float or a tuple of
    floats; z > 0, else InputError(refusal)."""
    zs = np.asarray(z, dtype=dtype)
    if not (zs > 0).all():
        raise InputError(refusal)
    return zs.reshape(-1), zs.shape


def _finish(name: str, shape: tuple, value):
    """Round the clongdouble array `value` to complex128 of the given shape:
    one complex for shape (), else a read-only array."""
    with np.errstate(over="ignore"):
        out = np.asarray(value).astype(complex)
    if not np.isfinite(out).all():
        raise ConvergenceError(f"{name}: value is not a finite complex128")
    if ((abs(out) < _TINY) & (np.asarray(value) != 0)).any():
        raise ConvergenceError(f"{name}: value underflows complex128")
    if not shape:
        return out.item()
    out = out.reshape(shape)
    out.flags.writeable = False
    return out


# terms per numpy step of the Kummer series: the cadence of its non-finite
# check, so a block ends exactly where the term-by-term loop checked
_BLOCK = 32


@np.errstate(over="ignore", invalid="ignore")
def _kummer_series(a, b, z: np.ndarray, config: EvalConfig) -> np.ndarray:
    """sum_m t_m with t_m = (a)_m / (b)_m z^m / m! at each point of the
    clongdouble grid z; a is one number, or an array with one a per point.
    A point stops after three consecutive terms below series_rel_tol * |its
    partial sum| (complex-parameter series can have transiently tiny terms)
    and leaves the working arrays, so its sum does not depend on the rest of
    the grid.

    The points still summing advance _BLOCK = 32 terms per step (the
    cadence of the non-finite check), with the floating-point operations of
    a term-by-term loop in its order: each point's row t, r_m, z, r_{m+1},
    z, ... multiplied up left to right forms t <- (t r_m) z (r_m from the
    point's own a: the operation of a series with that a alone), and np.cumsum,
    seeded with the carried sum, adds the terms one after the other.  The
    stopping rule runs on the whole block, its run of small terms carried in
    from the last block, and each point keeps the sum at its own stop term,
    so the result equals the term-by-term sum bit for bit.  The last block
    is clipped to series_max_terms, so that budget is exact; each full block
    ends with the non-finite check on the points still summing at its last
    term."""
    a, b = np.asarray(a, C), C(b)
    tol = LD(config.series_rel_tol)
    out = np.empty(z.size, C)
    live = np.arange(z.size)
    t, s, small = np.ones(z.size, C), np.ones(z.size, C), np.zeros(z.size, int)
    for m0 in range(0, config.series_max_terms, _BLOCK):
        ms = np.arange(m0, min(m0 + _BLOCK, config.series_max_terms))
        # a point's row t, r_m0, z, r_m0+1, z, ...: its running product is
        # t <- (t r_m) z, one term after the other
        chain = np.empty((live.size, 2 * ms.size + 1), C)
        chain[:, 0] = t
        a_live = a[live, None] if a.ndim else a      # one a per point, or one a
        chain[:, 1::2] = (a_live + ms) / ((b + ms) * (ms + 1))
        chain[:, 2::2] = z[live, None]
        terms = np.multiply.accumulate(chain, axis=1, out=chain)[:, 2::2]
        partial = np.cumsum(np.concatenate((s[:, None], terms), axis=1), axis=1)[:, 1:]
        # run[i, j]: the small terms in a row that end at point i's term j
        steps = np.arange(ms.size)
        last_big = np.maximum.accumulate(
            np.where(np.abs(terms) <= tol * np.abs(partial), -1, steps), axis=1)
        run = np.where(last_big < 0, steps + 1 + small[:, None], steps - last_big)
        hit = run >= 3
        done, stop = hit.any(axis=1), hit.argmax(axis=1)
        if ms.size == _BLOCK:
            summing = ~done | (stop == _BLOCK - 1)
            if not np.isfinite(partial[summing, -1]).all():
                raise ConvergenceError(
                    f"Kummer series partial sum is not finite after {m0 + _BLOCK} terms")
        out[live[done]] = partial[done, stop[done]]
        keep = ~done
        live, t, s, small = live[keep], terms[keep, -1], partial[keep, -1], run[keep, -1]
        if not live.size:
            return out
    raise ConvergenceError(
        f"Kummer series did not converge within {config.series_max_terms} terms")


def kummer_m(a, b, z, config: EvalConfig | None = None):
    """Kummer's confluent hypergeometric function M(a, b, z); z a number or a
    tuple of numbers (then an array of values)."""
    config = config or default_config()
    b = complex(b)
    if _is_nonpositive_integer(b):
        raise PoleError(f"kummer_m pole: b = {b} is a nonpositive integer")
    zs = np.asarray(z, dtype=C)
    return _finish("kummer_m", zs.shape, _kummer_series(a, b, zs.reshape(-1), config))


def _whittaker_m_ld(kappa, mu, z: np.ndarray, config: EvalConfig) -> np.ndarray:
    """M_{kappa,mu} on the longdouble grid z, in clongdouble; kappa a complex,
    or a (K, 1) column of them (``_column``), then one row per kappa from one
    Kummer series over every (kappa, z) pair."""
    mu = complex(mu)
    a, b = 0.5 + mu - kappa, 1 + 2 * mu
    if isinstance(a, np.ndarray):
        # a column: one series over every (kappa, z) pair, one a per pair
        ser = _kummer_series(np.repeat(a, z.size), b, np.tile(z, a.size).astype(C),
                             config).reshape(a.size, z.size)
    else:
        ser = _kummer_series(a, b, z.astype(C), config)
    return np.exp((LD(0.5) + C(mu)) * np.log(z) - z / 2) * ser


@_tabled
def whittaker_m(kappa, mu, z, config: EvalConfig | None = None):
    """Whittaker M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu} M(1/2+mu-kappa, 1+2mu, z).
    z is a float or a tuple of floats (then a read-only array, one value per
    point)."""
    config = config or default_config()
    zs, shape = _grid(z, "whittaker_m requires z > 0")
    if _is_nonpositive_integer(complex(1 + 2 * complex(mu))):
        raise PoleError(f"whittaker_m: 1+2*mu = {1 + 2 * complex(mu)} is a nonpositive integer")
    return _finish("whittaker_m", shape,
                   _whittaker_m_ld(complex(kappa), mu, zs, config))


def _laguerre_whittaker_w(n: int, z: float) -> float:
    # W_{n+1/2,0}(z) = (-1)^n n! z^{1/2} e^{-z/2} L_n(z)
    return ((-1) ** n * math.factorial(n) * math.sqrt(z)
            * math.exp(-z / 2) * laguerre(n, z))


def _gamma_quotient(a, b):
    """Gamma(a) / Gamma(b) in clongdouble, b a number or an array of them
    (then one quotient each); a non-finite quotient raises in _finish, so
    numpy's warnings only add noise.  No such quotient is 0, so one that
    rounds to 0 has left the longdouble range, and raises."""
    column = isinstance(b, np.ndarray)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_b = (np.reshape([log_gamma_ld(v) for v in b.astype(C).ravel()], b.shape)
                 if column else log_gamma_ld(C(b)))
        quotient = np.exp(log_gamma_ld(C(a)) - log_b)
    if (quotient == 0).any() if column else quotient == 0:
        raise ConvergenceError(
            f"whittaker_w: Gamma({a}) / Gamma({b}) underflows the longdouble range")
    return quotient


def _refuse_integer_two_mu(mu: complex, config: EvalConfig) -> None:
    """Refuse 2*mu an integer, where the connection formula's gamma factors
    sit on poles, and warn within mu_degeneracy_tol of one."""
    two_mu = 2 * mu
    dist = abs(two_mu - complex(round(two_mu.real), 0.0))
    if dist == 0.0:
        raise DegenerateParameterError(
            f"whittaker_w: 2*mu = {two_mu} is an integer; "
            "the connection formula is invalid there")
    if dist < config.mu_degeneracy_tol:
        # name the first caller outside this module, past the kernels and
        # their _tabled wrappers
        frame, level = sys._getframe(1), 2
        while frame.f_back is not None and frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"whittaker_w: 2*mu = {two_mu} is within {config.mu_degeneracy_tol} "
            "of an integer; expect severe cancellation",
            NearDegeneracyWarning, stacklevel=level)


def _refuse_small_k(k: float, config: EvalConfig) -> None:
    """InputError for 0 < k < config.k_refuse_threshold, where the connection
    formula's gamma prefactors cancel at mu = ik; every check that reads it
    refuses these k rather than score the cancellation."""
    if 0 < k < config.k_refuse_threshold:
        raise InputError(
            f"0 < k = {k} < {config.k_refuse_threshold} "
            "(EvalConfig.k_refuse_threshold) is refused: the connection "
            "formula cancels there and no check that reads it is meaningful")


def _column(kappa) -> tuple:
    """(kappa, rows): a number as (complex, ()), and a tuple of kappa, a
    column, as ((K, 1) complex array, (K,)): one row per kappa against the z
    grid."""
    if type(kappa) is tuple:
        return np.asarray(kappa, complex).reshape(-1, 1), (len(kappa),)
    return complex(kappa), ()


@_tabled
def whittaker_w(kappa, mu, z, config: EvalConfig | None = None):
    """Whittaker W_{kappa,mu}(z).  z is a float or a tuple of floats (then a
    read-only array, one value per point).  kappa is a number or a tuple of
    numbers, a column: then a read-only array with one row per kappa, each
    equal bit for bit to the call at that kappa (the same floating-point
    operations, one Kummer series for the whole column).

    Real kappa, imaginary mu != 0 (the identity's orders): the two terms of
    the connection formula are complex conjugates, so W = 2 Re(Gamma(-2mu) /
    Gamma(1/2-mu-kappa) M_{kappa,mu}), from one Kummer series and two log
    gammas; this equals ``_whittaker_w_two_term`` bit for bit, imaginary
    part +0.0 included.

    Any other order with 2*mu not an integer: ``_whittaker_w_two_term``.  A
    column takes one of these two branches for all its kappa, and one that
    mixes real and complex kappa is refused.

    mu = 0 with kappa = n+1/2: the closed Laguerre form
    (-1)^n n! z^{1/2} e^{-z/2} L_n(z); a column is refused there.  Any other
    integer 2*mu is refused: the gamma prefactors sit on poles there.
    """
    config = config or default_config()
    zs, shape = _grid(z, "whittaker_w requires z > 0")
    mu = complex(mu)
    if mu == 0:
        if type(kappa) is tuple:
            raise InputError("whittaker_w with mu = 0 takes one kappa, not a column")
        kappa = complex(kappa)
        if kappa.imag == 0.0:
            n_real = kappa.real - 0.5      # exact for kappa = n + 1/2
            n = round(n_real)
            if n >= 0 and n_real == n:
                return _finish("whittaker_w", shape, np.array(
                    [_laguerre_whittaker_w(n, float(x)) for x in zs]))
        raise DegenerateParameterError(
            f"whittaker_w with mu = 0 requires kappa = n + 1/2, got {kappa}")
    kappas = kappa if type(kappa) is tuple else (kappa,)
    real = {complex(x).imag == 0.0 for x in kappas}
    if mu.real != 0.0 or True not in real:
        return _whittaker_w_two_term(kappa, mu, z, config)
    if False in real:
        raise InputError("whittaker_w: a kappa column mixes real and complex kappa")
    _refuse_integer_two_mu(mu, config)
    kappa, rows = _column(kappa)
    pref = _gamma_quotient(-(2 * mu), 0.5 - mu - kappa)
    return _finish("whittaker_w", rows + shape,
                   2 * (pref * _whittaker_m_ld(kappa, mu, zs, config)).real)


@_tabled
def _whittaker_w_two_term(kappa, mu, z, config: EvalConfig | None = None):
    """W_{kappa,mu}(z) for 2*mu not an integer from both terms of the
    connection formula (DLMF 13.14.33)

        W = Gamma(-2mu)/Gamma(1/2-mu-kappa) M_{kappa,mu}
          + Gamma(2mu)/Gamma(1/2+mu-kappa) M_{kappa,-mu},

    with kappa (a number or a column) and z as in ``whittaker_w``, whose
    generic branch this is.  For real kappa and imaginary mu the realness
    checks compare it with ``whittaker_w``'s one-term value, which it equals
    bit for bit."""
    config = config or default_config()
    zs, shape = _grid(z, "whittaker_w requires z > 0")
    kappa, rows = _column(kappa)
    mu = complex(mu)
    _refuse_integer_two_mu(mu, config)
    two_mu = 2 * mu
    pref_a = _gamma_quotient(-two_mu, 0.5 - mu - kappa)
    pref_b = _gamma_quotient(two_mu, 0.5 + mu - kappa)
    return _finish("whittaker_w", rows + shape,
                   pref_a * _whittaker_m_ld(kappa, mu, zs, config)
                   + pref_b * _whittaker_m_ld(kappa, -mu, zs, config))


@_tabled
def bessel_k_quad(nu, x, config: EvalConfig | None = None):
    """K_nu(x) by trapezoid quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand decays double-exponentially, so the trapezoid rule is
    spectrally accurate; the step is halved until two successive values agree
    to quad_rel_tol.  x is a float or a tuple of floats (then a read-only
    array): the points that share a cutoff run one trapezoid per step, and
    each point stops halving by its own test, so a grid call equals the
    per-point calls bit for bit.
    """
    config = config or default_config()
    xs, shape = _grid(x, "bessel_k_quad requires x > 0", float)
    nu = complex(nu)
    if not abs(nu.real) < 1:
        raise InputError("bessel_k_quad requires |Re nu| < 1")

    a = abs(nu.real)
    groups: dict[float, list[int]] = {}
    for i, xx in enumerate(xs.tolist()):
        cutoff = 1.0
        try:
            while xx * math.cosh(cutoff) - a * cutoff <= 45.0:
                cutoff += 0.5
        except OverflowError as exc:
            raise InputError(f"bessel_k_quad: x = {xx} is too small for the "
                             "quadrature's cutoff") from exc
        groups.setdefault(cutoff, []).append(i)

    def trapezoid(live, cutoff: float, h: float) -> list[complex]:
        ts = np.arange(int(math.ceil(cutoff / h)) + 1) * h
        vals = np.exp(-xs[live, None] * np.cosh(ts)) * np.cosh(nu * ts)
        return (h * (vals[:, 0] / 2 + vals[:, 1:].sum(axis=1))).tolist()

    out = [0j] * xs.size
    for cutoff, live in groups.items():
        h = config.quad_step
        prev = trapezoid(live, cutoff, h)
        for _ in range(config.quad_max_halvings):
            h /= 2
            cur, pending = trapezoid(live, cutoff, h), []
            for i, c, p in zip(live, cur, prev):
                if abs(c - p) <= config.quad_rel_tol * abs(c):
                    out[i] = c
                else:
                    pending.append((i, c))
            if not pending:
                break
            live, prev = [i for i, _ in pending], [c for _, c in pending]
        else:
            raise ConvergenceError(
                f"bessel_k_quad: no convergence after {config.quad_max_halvings} halvings")
    if 0 in out:
        raise ConvergenceError("bessel_k_quad: the integrand underflows to 0")
    return _finish("bessel_k_quad", shape, np.array(out))


@_tabled
def bessel_k_via_w(nu, x, config: EvalConfig | None = None):
    """K_nu(x) = sqrt(pi/(2x)) W_{0,nu}(2x); requires 2*nu not an integer
    (use bessel_k_quad for half-integer and real-integer orders).  x is a
    float or a tuple of floats (then a read-only array, from one W grid
    call)."""
    config = config or default_config()
    xs, shape = _grid(x, "bessel_k_via_w requires x > 0", float)
    w = whittaker_w(0.0, nu, tuple((2 * xs).tolist()), config)
    return _finish("bessel_k_via_w", shape, np.sqrt(np.pi / (2 * xs)) * w)


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
                    return _finish("bessel_i", (), s)
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
