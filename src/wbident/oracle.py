"""High-precision reference evaluators (the slow path).

Kummer M and Bessel I come from their power series (DLMF 13.2.2, 10.25.2),
summed at 50-digit working precision on a whole list of points at once, in
fixed point on Python integers, so they share no code with the production
kernels: the coefficients are formed once per list, and each point runs
Horner on them.  Whittaker W and Bessel K are built from them by closed
formulas (no quadrature): W for real kappa and imaginary mu as twice the
real part of one connection-formula term (DLMF 13.14.33), K as the
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
import numpy as np
from mpmath.libmp import from_man_exp, to_fixed

from .config import EvalConfig, default_config
from .errors import ConvergenceError, InputError
from .kernels import OrderParams


@contextmanager
def _dps(config: EvalConfig):
    with mp.workdps(config.oracle_dps):
        yield


def _round_complex(re: int, im: int, frac: int):
    """The fixed-point value (re + i im) / 2**frac as an mpc, rounded to
    the working precision relative to its larger part."""
    prec = mp.mp.prec
    shift = max(abs(re).bit_length(), abs(im).bit_length()) - prec
    if shift > 0:
        half = 1 << (shift - 1)
        re, im = (re + half) >> shift, (im + half) >> shift
        frac -= shift
    return mp.make_mpc((from_man_exp(re, -frac, prec, "n"),
                        from_man_exp(im, -frac, prec, "n")))


def _hyp_series(a, b, zs, max_terms: int, guard: int = 64):
    """1F1(a; b; z) = sum_m (a)_m / ((b)_m m!) z^m (DLMF 13.2.2), or
    0F1(; b; z) = sum_m z^m / ((b)_m m!) when a is None, at every z > 0 of
    the list zs; returns a list of mpc rounded to the working precision.

    The coefficients are computed once per call, as Gaussian integers in
    fixed point with `guard` bits beyond the working precision, pre-scaled
    by z_max^m; each point then runs Horner in u = z / z_max <= 1, so no
    coefficient's rounding is multiplied by z^m.  A point's error is bounded
    by its largest term, measured against the smallest coefficient before
    it (the rounding of a small coefficient grows with its successors); when
    that bound leaves fewer than 32 guard bits of the sum, by cancellation,
    the call repeats with enough guard bits to restore 64."""
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
        sums.append((sre, sim))
    if kept_min < mp.mp.prec + 32:
        return _hyp_series(a, b, zs, max_terms,
                           guard + math.ceil(mp.mp.prec + 64 - kept_min))
    return [_round_complex(re, im, frac) for re, im in sums]


def whittaker_w(kappa, mu, z, config: EvalConfig | None = None):
    """W_{kappa,mu}(z) at oracle precision for real kappa, nonzero imaginary
    mu and z > 0; returns mpmath mpf.  There the connection formula's two
    terms are complex conjugates, so W = 2 Re(Gamma(-2mu) / Gamma(1/2 - mu -
    kappa) M_{kappa,mu}(z)) with M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu}
    M(1/2 + mu - kappa, 1 + 2mu, z) (DLMF 13.14.2).  z is a number, or a list
    or tuple of numbers (then a list of values, with the gamma quotient and
    the series coefficients computed once)."""
    config = config or default_config()
    if not isinstance(z, (list, tuple)):
        return whittaker_w(kappa, mu, [z], config)[0]
    with _dps(config):
        kappa, mu = mp.mpc(kappa), mp.mpc(mu)
        if kappa.imag or mu.real or not mu.imag or any(zz <= 0 for zz in z):
            raise InputError("oracle W takes real kappa, nonzero imaginary "
                             "mu and z > 0")
        half = mp.mpf(1) / 2
        quot = mp.gamma(-2 * mu) / mp.gamma(half - mu - kappa)
        z = [mp.mpf(zz) for zz in z]
        kummer = _hyp_series(half + mu - kappa, 1 + 2 * mu, z,
                             config.series_max_terms)
        return [2 * mp.re(quot * (mp.exp(-zz / 2) * zz ** (half + mu) * m))
                for zz, m in zip(z, kummer)]


def bessel_k(nu, x, config: EvalConfig | None = None):
    """K_nu = (pi/2) (I_{-nu} - I_nu) / sin(pi nu), independent of quadrature.
    x is a number, or a list or tuple of numbers (then a list of values, with
    the prefactor, both gamma factors and both series' coefficients computed
    once)."""
    config = config or default_config()
    if not isinstance(x, (list, tuple)):
        return bessel_k(nu, [x], config)[0]
    with _dps(config):
        nu = mp.mpc(nu)
        pref = mp.pi / (2 * mp.sin(mp.pi * nu))
        rg_minus, rg_plus = mp.rgamma(1 - nu), mp.rgamma(1 + nu)
        half_x = [mp.mpf(xx) / 2 for xx in x]
        quarter_x2 = [h ** 2 for h in half_x]
        minus = _hyp_series(None, 1 - nu, quarter_x2, config.series_max_terms)
        plus = _hyp_series(None, 1 + nu, quarter_x2, config.series_max_terms)
        out = []
        for h, f_minus, f_plus in zip(half_x, minus, plus):
            power = h ** nu
            out.append(pref * (rg_minus * f_minus / power - power * rg_plus * f_plus))
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
