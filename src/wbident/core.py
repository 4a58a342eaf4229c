"""Complex scalar utilities: log-gamma, gamma, Pochhammer symbols and
Laguerre polynomials.

Polynomials with complex coefficients (the Lambda factors and the
fourth-order ODE coefficients) are numpy.polynomial.Polynomial objects.
"""

from __future__ import annotations

import cmath
import math

from .errors import InputError, PoleError

SQRT_PI = math.sqrt(math.pi)

# Lanczos rational kernel, g = 607/128, 15 terms.  Relative accuracy is about
# 1e-14 over the arguments used here; the reflection formula covers Re z < 1/2,
# which the gamma ratios with negative real part (e.g. 1/Gamma(-n-ik)) need.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.9189385332046727418


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def log_gamma(z) -> complex:
    """Principal-branch log Gamma for complex z.

    Raises PoleError at the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        try:
            return cmath.log(cmath.pi / cmath.sin(cmath.pi * z)) - log_gamma(1.0 - z)
        except OverflowError as exc:
            raise InputError(f"log_gamma({z}): sin(pi z) exceeds the double range") from exc
    zz = z - 1.0
    s = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        s += _LANCZOS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(s)


def gamma(z) -> complex:
    """Gamma(z) = exp(log_gamma(z))."""
    return cmath.exp(log_gamma(z))


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
