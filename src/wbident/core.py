"""Complex scalar utilities: log-gamma, gamma and gamma quotients, Pochhammer
symbols and Laguerre polynomials.

``log_gamma_ld`` is the one log-gamma (Stirling series on ``np.clongdouble``);
it and ``log_gamma`` equal log Gamma up to a multiple of 2*pi*i, not always
the principal branch.  ``gamma_ratio`` takes one ``exp`` of a longdouble sum
of its values.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InputError, PoleError

SQRT_PI = math.sqrt(math.pi)

# np.pi is only a double, so pi and log sqrt(2 pi) are parsed in longdouble.
C = np.clongdouble
LD = np.longdouble
_PI = LD("3.14159265358979323846264338327950288419716939937510")
_LOG_SQRT_2PI = LD("0.91893853320467274178032973640561763986139747363778")
_TINY = np.finfo(float).tiny

# Stirling coefficients B_{2j} / (2j (2j-1)) for the asymptotic log-gamma
# series; with |z| >= 13 the truncation error is below 1e-22.
_STIRLING = tuple(
    LD(p) / LD(q) / LD((2 * j + 2) * (2 * j + 1)) for j, (p, q) in enumerate((
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
        (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
        (-236364091, 2730), (8553103, 6))))


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def log_gamma_ld(z):
    """log Gamma of an np.clongdouble scalar; the imaginary part may differ
    from the principal branch by a multiple of 2*pi (irrelevant under exp)."""
    if z.real < 0.5:
        sin = np.sin(_PI * z)
        # sin overflows beyond |Im z| of about 3600 (in 80 bits); there
        # log(pi / sin(pi z)) = log(2 pi) + sign(Im z) i pi (z - 1/2) + O(e^{-2 pi |Im z|})
        log_ratio = (np.log(_PI / sin) if np.isfinite(sin) else
                     np.log(2 * _PI) + np.sign(z.imag) * C(1j) * _PI * (z - LD(0.5)))
        return log_ratio - log_gamma_ld(1 - z)
    acc = C(1)
    while abs(z) < 13:
        acc = acc * z
        z = z + 1
    out = (z - LD(0.5)) * np.log(z) - z + _LOG_SQRT_2PI
    inv2 = 1 / (z * z)
    t = 1 / z
    series = C(0)
    for c in _STIRLING:
        series = series + c * t
        t = t * inv2
    return out + series - np.log(acc)


def log_gamma(z) -> complex:
    """log Gamma(z) for complex z, up to a multiple of 2*pi*i (not always the
    principal branch).  Raises PoleError at the poles z = 0, -1, -2, ... and
    InputError where the value is not a finite complex128."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    with np.errstate(all="ignore"):
        out = complex(log_gamma_ld(C(z)))
    if not cmath.isfinite(out):
        raise InputError(f"log_gamma({z}) is not a finite complex128")
    return out


def gamma_ratio(num, den) -> complex:
    """prod Gamma(num) / prod Gamma(den) as one exp of the longdouble sum of
    log_gamma_ld values, rounded to complex128 once.  Raises PoleError if an
    argument is a pole, and InputError unless the modulus is a finite double
    of at least the smallest normal (the rule of the kernels' rounding)."""
    args = [complex(z) for z in (*num, *den)]
    if any(map(_is_nonpositive_integer, args)):
        raise PoleError(f"gamma_ratio({num}, {den}): an argument is a pole")
    with np.errstate(all="ignore"):
        logs = [log_gamma_ld(C(z)) for z in args]
        out = complex(np.exp(sum(logs[:len(num)]) - sum(logs[len(num):])))
    if not _TINY <= np.abs(out) < np.inf:
        raise InputError(f"gamma_ratio({num}, {den}) is not a finite normal complex128")
    return out


def gamma(z) -> complex:
    """Gamma(z), rounded once from exp(log_gamma_ld(z))."""
    return gamma_ratio((z,), ())


def pochhammer(z, n: int) -> complex:
    """Rising factorial (z)_n = z (z+1) ... (z+n-1); (z)_0 = 1."""
    if n < 0:
        raise InputError("pochhammer order must be a natural number")
    z = complex(z)
    out = 1.0 + 0.0j
    for j in range(n):
        out *= z + j
    return out


def laguerre(n: int, z: float) -> float:
    """Laguerre polynomial L_n(z) by the three-term recurrence
    (m+1) L_{m+1} = (2m+1-z) L_m - m L_{m-1}."""
    if n < 0:
        raise InputError("laguerre degree must be a natural number")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - z
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 - z) * cur - m * prev) / (m + 1)
    return cur
