"""High-precision reference evaluators (the slow path).

Kummer M and Bessel I come from their power series (DLMF 13.2.2, 10.25.2),
summed at 50-digit working precision on a whole list of points at once, in
fixed point on Python integers, so they share no code with the production
kernels: the coefficients are formed once per list, and each point runs
Horner on them.  Whittaker W and Bessel K are built from them by closed
formulas (no quadrature): W for real kappa and imaginary mu as twice the
real part of one connection-formula term (DLMF 13.14.33), K as the
I-difference with I_{+-nu} = (x/2)^{+-nu} / Gamma(1 +- nu) 0F1(; 1 +- nu;
x^2/4) (DLMF 10.25.2).

Both take a list of points and compute their point-independent factors
once, 64 bits beyond the working precision; both end in terms of size e^x
that cancel to e^-x, about 2x/ln 2 bits, so where that would leave fewer
than 32 guard bits (x > 11) the guard grows by it.  At each point x the
powers x^{+-c} = x^{+-sigma} e^{+-i tau ln x} (c = sigma + i tau) come from
one real log, one root (a power when sigma != 1/2), one cos/sin pair and,
for W, one exponential; the constant powers of 2 of (2x)^{1/2+mu} and
(x/2)^{+-nu} sit in the gamma factors.  Series sums, prefactors and their
products stay Python integers, each value a Gaussian integer with a binary
exponent carrying the guard bits, and the public evaluators round once at
the end.
The collocation fit builds its least-squares rows from the same integers,
solves them by Householder QR on Python integers in fixed point and measures
its misfit on them.  Of a row's factors, K_{1/2+ik}(x), the powers
x^{+-(1/2+ik)}, e^{-x} and Gamma(-2ik) depend on k and x only.  A fit whose
points all lie in ``lambda_poly.COLLOCATION_MASTER`` reads them from one
evaluation on that whole set, ``_master_factors``, which
``kernels.kernel_table()`` tables (once per k in ``run_suite``); outside a
table it runs per fit, so a fit's bits do not depend on the table.
Every collocation fit runs here, on no production kernel: it is the
numerical test of the mode reduction from which ``lambda_poly.series_oracle``
builds Lambda exactly (``suite --oracle`` fits each of its cells; the
default suite reads the series oracle and never imports this module).
Values from this module are also the ground truth for derived expected
values and for large x in the connection formula.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from operator import mul

import mpmath as mp
import numpy as np
from mpmath.libmp import (fhalf, from_man_exp, mpf_cos_sin, mpf_exp, mpf_log,
                          mpf_mul, mpf_neg, mpf_sqrt, to_fixed)

from .config import EvalConfig, default_config
from .errors import ConvergenceError, InputError
from .kernels import OrderParams, _tabled
from .lambda_poly import COLLOCATION_MASTER

_GUARD = 64     # bits carried beyond the working precision
_MASTER_POINTS = frozenset(COLLOCATION_MASTER)


@contextmanager
def _dps(config: EvalConfig):
    with mp.workdps(config.oracle_dps):
        yield


# A Gaussian float is a tuple (re, im, e) of Python integers standing for
# (re + i im) 2**e.

def _gauss(v, bits):
    """The mpc v as a Gaussian float of `bits` bits."""
    e = mp.mag(v) - bits
    return to_fixed(v.real._mpf_, -e), to_fixed(v.imag._mpf_, -e), e


def _trim(re, im, e, bits):
    """(re + i im) 2**e cut to `bits` bits of its larger part."""
    shift = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if shift > 0:
        return re >> shift, im >> shift, e + shift
    return re, im, e


def _mul(a, b, bits):
    """The product of two Gaussian floats, cut to `bits` bits."""
    return _trim(a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0],
                 a[2] + b[2], bits)


def _to_mpc(g):
    """The Gaussian float g with each part rounded once to the working
    precision."""
    re, im, e = g
    return mp.make_mpc((from_man_exp(re, e, mp.mp.prec, "n"),
                        from_man_exp(im, e, mp.mp.prec, "n")))


def _hyp_series(a, b, zs, max_terms: int, guard: int = _GUARD):
    """1F1(a; b; z) = sum_m (a)_m / ((b)_m m!) z^m (DLMF 13.2.2), or
    0F1(; b; z) = sum_m z^m / ((b)_m m!) when a is None, at every z > 0 of
    the list zs; returns a list of Gaussian floats.

    The coefficients are computed once per call, as Gaussian integers in
    fixed point with `guard` bits beyond the working precision, pre-scaled
    by z_max^m; each point then runs Horner in u = z / z_max <= 1, so no
    coefficient's rounding is multiplied by z^m.  A point's error is bounded
    by its largest term, measured against the smallest coefficient before
    it (the rounding of a small coefficient grows with its successors); when
    that bound leaves fewer than 32 guard bits of the sum, by cancellation,
    the call repeats with enough guard bits to restore 64."""
    if not zs:
        return []
    frac = mp.mp.prec + guard
    one = 1 << frac
    zmax = max(zs)
    zfix = to_fixed(zmax._mpf_, frac)
    b = mp.mpc(b)
    bre, bim = to_fixed(b.real._mpf_, frac), to_fixed(b.imag._mpf_, frac)
    bc, zf = complex(b), float(zmax)
    if a is not None:
        a = mp.mpc(a)
        are, aim = to_fixed(a.real._mpf_, frac), to_fixed(a.imag._mpf_, frac)
        spread = abs(complex(a) - bc)
    cre, cim = one, 0
    coeffs, bits = [(cre, cim)], [frac + 1]
    for m in range(max_terms):
        # c_{m+1} = c_m (a + m) z_max / ((b + m)(m + 1)), rounded
        qre, qim = bre + m * one, bim
        den = (qre * qre + qim * qim) * (m + 1)
        if a is not None:
            pre, pim = are + m * one, aim
            cre, cim = cre * pre - cim * pim, cre * pim + cim * pre
            den <<= frac
        nre, nim = (cre * qre + cim * qim) * zfix, (cim * qre - cre * qim) * zfix
        cre, cim = (2 * nre + den) // (2 * den), (2 * nim + den) // (2 * den)
        coeffs.append((cre, cim))
        size = abs(cre) | abs(cim)
        bits.append(size.bit_length())
        # stop at a term below one unit once every later ratio is <= 1/2,
        # which bounds the whole tail by that unit
        lead = m + 1 + bc.real
        if size <= 1 and lead > 0:
            growth = 1 + spread / lead if a is not None else 1 / lead
            if growth * zf / (m + 2) <= 0.5:
                break
    else:
        raise ConvergenceError(
            f"oracle {'1F1' if a is not None else '0F1'} series at z = "
            f"{mp.nstr(zmax, 6)} did not converge in {max_terms} terms")

    # per point (row) and coefficient (column): log2 of the term in units
    # of 2**-frac, and of its error bound
    bits = np.array(bits, dtype=float)
    steps = np.arange(len(coeffs)) * np.log2([float(z / zmax) for z in zs])[:, None]
    err_bits = (bits - np.minimum.accumulate(bits) + steps).max(axis=1)
    # Horner starts at each point's last term of one unit or more
    tops = len(coeffs) - 1 - np.argmax((bits + steps >= 0)[:, ::-1], axis=1)
    sums, kept_min = [], math.inf
    for z, top, err in zip(zs, tops.tolist(), err_bits.tolist()):
        u = (to_fixed(z._mpf_, frac) << frac) // zfix
        sre, sim = coeffs[top]
        for cre, cim in reversed(coeffs[:top]):
            sre, sim = (sre * u >> frac) + cre, (sim * u >> frac) + cim
        kept_min = min(kept_min, (abs(sre) | abs(sim)).bit_length() - err)
        sums.append((sre, sim, -frac))
    if kept_min < mp.mp.prec + 32:
        return _hyp_series(a, b, zs, max_terms,
                           guard + math.ceil(mp.mp.prec + 64 - kept_min))
    return sums


def _guard(xs) -> int:
    """Guard bits for W(2x) and K(x) at the mpf points xs: both end as terms
    of size e^x that cancel to e^-x, which costs about 2x/ln 2 bits; _GUARD,
    raised by that estimate where it would leave fewer than 32."""
    lost = math.ceil(2 * float(max(xs, default=0)) / math.log(2))
    return _GUARD + lost if _GUARD - lost < 32 else _GUARD


def _powers(xs, c):
    """(x^c, x^-c) at each mpf x > 0 of xs, as Gaussian floats: x^{+-c} =
    x^{+-sigma} (cos +- i sin)(tau ln x) for c = sigma + i tau, with x^sigma
    a square root at sigma = 1/2 and x^-sigma its reciprocal."""
    bits = mp.mp.prec + _guard(xs)
    sigma, tau = c.real._mpf_, c.imag._mpf_
    out = []
    for x in xs:
        log_x = mpf_log(x._mpf_, bits + 16)
        amp = (mpf_sqrt(x._mpf_, bits) if sigma == fhalf
               else mpf_exp(mpf_mul(sigma, log_x), bits))
        cos, sin = (to_fixed(v, bits) for v in mpf_cos_sin(mpf_mul(tau, log_x), bits))
        _, man, exp, _ = amp
        inv = (1 << 2 * bits) // man
        out.append((_trim(man * cos, man * sin, exp - bits, bits),
                    _trim(inv * cos, -inv * sin, -exp - 3 * bits, bits)))
    return out


def _w_factors(mu, xs, powers):
    """The factors of W_{kappa,mu}(2x) that do not depend on kappa, at the
    mpf points xs, given powers[i][0] = x^{1/2+mu} from `_powers`:
    (2 Gamma(-2mu), 2^{1/2+mu}) as mpc at the guard precision, and
    e^{-x} x^{1/2+mu} at each x as an untrimmed Gaussian float."""
    bits = mp.mp.prec + _guard(xs)
    half = mp.mpf(1) / 2
    with mp.workprec(bits):
        gammas = 2 * mp.gamma(-2 * mu), 2 ** (half + mu)
    decays = []
    for x, (power, _) in zip(xs, powers):
        _, man, exp, _ = mpf_exp(mpf_neg(x._mpf_), bits)
        decays.append((man * power[0], man * power[1], exp + power[2]))
    return gammas, decays


def _w_terms(kappa, mu, xs, factors, config: EvalConfig):
    """W_{kappa,mu}(2x) at each x of xs as Gaussian floats with im = 0,
    given factors = `_w_factors`(mu, xs, powers):
    2 Re(Gamma(-2mu) 2^{1/2+mu} / Gamma(1/2 - mu - kappa) e^{-x} x^{1/2+mu}
    M(1/2 + mu - kappa, 1 + 2mu, 2x))."""
    guard = _guard(xs)
    bits = mp.mp.prec + guard
    half = mp.mpf(1) / 2
    (two_gamma, two_power), decays = factors
    with mp.workprec(bits):
        const = _gauss(two_gamma / mp.gamma(half - mu - kappa) * two_power, bits)
    kummer = _hyp_series(half + mu - kappa, 1 + 2 * mu, [2 * x for x in xs],
                         config.series_max_terms, guard)
    out = []
    for decay, m in zip(decays, kummer):
        re, _, e = _mul(_mul(const, decay, bits), m, bits)
        out.append((re, 0, e))
    return out


def _k_terms(nu, xs, powers, config: EvalConfig):
    """K_nu(x) at each x of xs as Gaussian floats, given powers[i] =
    (x^nu, x^-nu) from `_powers`: (Gamma(nu) 2^{nu-1} x^-nu 0F1(; 1 - nu;
    x^2/4) + Gamma(-nu) 2^{-nu-1} x^nu 0F1(; 1 + nu; x^2/4)), which is
    (pi/2) (I_{-nu} - I_nu) / sin(pi nu) by the reflection formula
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) (DLMF 5.5.3)."""
    guard = _guard(xs)
    bits = mp.mp.prec + guard
    with mp.workprec(bits):
        c_minus = _gauss(mp.gamma(nu) * 2 ** (nu - 1), bits)
        c_plus = _gauss(mp.gamma(-nu) * 2 ** (-nu - 1), bits)
    quarter_x2 = [x * x / 4 for x in xs]
    minus = _hyp_series(None, 1 - nu, quarter_x2, config.series_max_terms, guard)
    plus = _hyp_series(None, 1 + nu, quarter_x2, config.series_max_terms, guard)
    out = []
    for (power, inverse), f_minus, f_plus in zip(powers, minus, plus):
        re1, im1, e1 = _mul(_mul(c_minus, inverse, bits), f_minus, bits)
        re2, im2, e2 = _mul(_mul(c_plus, power, bits), f_plus, bits)
        e = min(e1, e2)
        out.append(_trim((re1 << (e1 - e)) + (re2 << (e2 - e)),
                         (im1 << (e1 - e)) + (im2 << (e2 - e)), e, bits))
    return out


def whittaker_w(kappa, mu, z, config: EvalConfig | None = None):
    """W_{kappa,mu}(z) at oracle precision for real kappa, nonzero imaginary
    mu and z > 0; returns mpmath mpf.  There the connection formula's two
    terms are complex conjugates, so W = 2 Re(Gamma(-2mu) / Gamma(1/2 - mu -
    kappa) M_{kappa,mu}(z)) with M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu}
    M(1/2 + mu - kappa, 1 + 2mu, z) (DLMF 13.14.2).  z is a number, or a list
    or tuple of numbers (then a list of values, with the gamma quotient and
    the series coefficients computed once; [] for an empty list)."""
    config = config or default_config()
    if not isinstance(z, (list, tuple)):
        return whittaker_w(kappa, mu, [z], config)[0]
    with _dps(config):
        kappa, mu = mp.mpc(kappa), mp.mpc(mu)
        if kappa.imag or mu.real or not mu.imag or not all(zz > 0 for zz in z):
            raise InputError("oracle W takes real kappa, nonzero imaginary "
                             "mu and z > 0")
        xs = [mp.mpf(zz) / 2 for zz in z]
        factors = _w_factors(mu, xs, _powers(xs, mp.mpf(1) / 2 + mu))
        return [mp.make_mpf(from_man_exp(re, e, mp.mp.prec, "n"))
                for re, _, e in _w_terms(kappa.real, mu, xs, factors, config)]


def bessel_k(nu, x, config: EvalConfig | None = None):
    """K_nu(x) = (pi/2) (I_{-nu} - I_nu) / sin(pi nu) at oracle precision,
    independent of quadrature, for non-integer nu and x > 0.  x is a number,
    or a list or tuple of numbers (then a list of values, with the prefactor,
    both gamma factors and both series' coefficients computed once; [] for an
    empty list)."""
    config = config or default_config()
    if not isinstance(x, (list, tuple)):
        return bessel_k(nu, [x], config)[0]
    with _dps(config):
        nu = mp.mpc(nu)
        if (not nu.imag and mp.isint(nu.real)) or not all(xx > 0 for xx in x):
            raise InputError("oracle K takes non-integer nu and x > 0")
        xs = [mp.mpf(xx) for xx in x]
        powers = _powers(xs, nu)
        return [_to_mpc(v) for v in _k_terms(nu, xs, powers, config)]


def _householder_lstsq(cols, rhs, frac: int):
    """Least-squares solution of the fixed-point system sum_j cols[j][i]
    sol_j / 2**frac = rhs[i] by Householder QR (Golub & Van Loan, Matrix
    Computations, sec. 5.3) on Python integers; with entries and data near
    2**frac the solve keeps frac bits.  Returns sol (integers, in units of
    2**-frac); the arguments are left as they are."""
    cols = [list(col) for col in cols] + [list(rhs)]
    p = len(cols) - 1
    for j, col in enumerate(cols[:p]):
        # reflect col[j:] onto alpha e_1, with the sign of alpha chosen
        # against col[j] so that v[0] does not cancel; each other column
        # takes one division, for its multiple 2 v.other / v.v of v
        v = col[j:]
        norm2 = sum(map(mul, v, v))
        alpha = math.isqrt(norm2)
        if v[0] >= 0:
            alpha = -alpha
        vtv = norm2 - 2 * alpha * v[0] + alpha * alpha
        v[0] -= alpha
        for other in cols[j + 1:]:
            t = (sum(map(mul, v, other[j:])) << (frac + 1)) // vtv
            other[j:] = [o - (vi * t >> frac) for o, vi in zip(other[j:], v)]
        col[j] = alpha
    b, sol = cols[p], [0] * p
    for j in reversed(range(p)):
        acc = (b[j] << frac) - sum(cols[i][j] * sol[i] for i in range(j + 1, p))
        sol[j] = acc // cols[j][j]
    return sol


def _row_factors(k, xs, config: EvalConfig):
    """The factors of the collocation rows at order k that do not depend on
    n: W's constants from `_w_factors`, and at each x of xs the triple
    (x as mpf, e^{-x} x^{1/2+ik}, K_{1/2+ik}(x)), from one `_powers` list
    that W and K share and K's two 0F1 series."""
    with _dps(config):
        xs = [mp.mpf(x) for x in xs]
        nu = mp.mpc(0.5, k)
        powers = _powers(xs, nu)
        gammas, decays = _w_factors(mp.mpc(0, k), xs, powers)
        return gammas, list(zip(xs, decays, _k_terms(nu, xs, powers, config)))


@_tabled
def _master_factors(k, config: EvalConfig):
    """`_row_factors` on the collocation master set, as (W's constants,
    {x: triple}); inside ``kernel_table`` once per (k, config), so every
    fit of a run at that k whose points are master points reads them."""
    gammas, points = _row_factors(k, COLLOCATION_MASTER, config)
    return gammas, dict(zip(COLLOCATION_MASTER, points))


def _design_system(params: OrderParams, xs, config: EvalConfig):
    """The collocation least-squares system at oracle precision, on
    integers.  Point x gives the row x^m (2 Re K, -2 Im K) / |W| for
    m = 1..n+1 (unknowns Re a_m, Im a_m in turn) and the datum sign W, with
    W = W_{n+1/2,ik}(2x) and K = K_{1/2+ik}(x).  The factors that depend on
    k and x only come from `_master_factors` when every point is a master
    point, else from `_row_factors` on xs; W's 1F1 series and
    Gamma(-n-ik) are formed per call.  Returns (cols, data, exps, frac):
    column j holds each entry times 2**(frac - exps[j]), rounded, with
    2**exps[j] bounding the column, and data[i] = sign W * 2**frac."""
    n, k = params.n, params.k
    if _MASTER_POINTS.issuperset(xs):
        gammas, by_x = _master_factors(k, config)
        points = [by_x[x] for x in xs]
    else:
        gammas, points = _row_factors(k, xs, config)
    with _dps(config):
        frac = mp.mp.prec + _GUARD
        xs = [x for x, _, _ in points]
        w_terms = _w_terms(n + 0.5, mp.mpc(0, k), xs,
                           (gammas, [decay for _, decay, _ in points]), config)
        rows, data = [], []
        for (x, _, (kre, kim, e)), (w, _, we) in zip(points, w_terms):
            inv = (1 << 2 * frac) // abs(w)
            kre, kim, e = _trim(kre * inv, -kim * inv, e + 1 - 2 * frac - we, frac)
            _, xman, xexp, _ = x._mpf_
            row = []
            for _ in range(n + 1):
                kre, kim, e = kre * xman, kim * xman, e + xexp
                row += [(kre, e), (kim, e)]
            rows.append(row)
            data.append(1 << frac if w > 0 else -1 << frac)
    cols, exps = [], []
    for col in zip(*rows):
        top = max(abs(man).bit_length() + e for man, e in col)
        cols.append([man << s if s >= 0 else man >> -s
                     for man, e in col for s in (frac + e - top,)])
        exps.append(top)
    return cols, data, exps, frac


def collocation_fit(params: OrderParams, xs,
                    config: EvalConfig | None = None):
    """Least-squares fit of the identity at the given points, entirely at
    oracle precision.  Returns (coefficients a_1..a_{n+1}, max relative
    misfit), the misfit measured exactly on the fixed-point system.
    Conditioning that would sink a double-precision solve is harmless at 50
    digits."""
    config = config or default_config()
    cols, data, exps, frac = _design_system(params, xs, config)
    sol = _householder_lstsq(cols, data, frac)
    a = [math.ldexp(float(s), -frac - e) for s, e in zip(sol, exps)]
    worst = max(abs(sum(map(mul, row, sol)) - (d << frac))
                for row, d in zip(zip(*cols), data))
    return ([complex(a[2 * j], a[2 * j + 1]) for j in range(params.n + 1)],
            worst / (1 << 2 * frac))
