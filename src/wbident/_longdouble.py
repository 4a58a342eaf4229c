"""Extended-precision complex arithmetic on numpy longdouble pairs.

The Whittaker connection formula subtracts two terms that can exceed the
result by many orders of magnitude for moderate arguments, so every input to
that subtraction (gamma prefactors, powers, series sums) is computed here in
80-bit precision and only the final value is rounded to complex128.  On
platforms where numpy's longdouble is an alias of double this degrades
gracefully to plain double precision.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

LD = np.longdouble

_PI = LD("3.14159265358979323846264338327950288419716939937510")
_LOG_SQRT_2PI = LD("0.91893853320467274178032973640561763986139747363778")


class CLD:
    """Complex number with longdouble real/imag parts; minimal operation set."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = LD(re)
        self.im = LD(im)

    @classmethod
    def from_complex(cls, z) -> "CLD":
        z = complex(z)
        return cls(z.real, z.imag)

    def __add__(self, o):
        return CLD(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return CLD(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return CLD(-self.re, -self.im)

    def __mul__(self, o):
        return CLD(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        return CLD((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def conj(self) -> "CLD":
        return CLD(self.re, -self.im)

    def abs2(self) -> np.longdouble:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


def cexp(z: CLD) -> CLD:
    er = np.exp(z.re)
    return CLD(er * np.cos(z.im), er * np.sin(z.im))


def clog(z: CLD) -> CLD:
    return CLD(LD(0.5) * np.log(z.abs2()), np.arctan2(z.im, z.re))


def csin(z: CLD) -> CLD:
    return CLD(np.sin(z.re) * np.cosh(z.im), np.cos(z.re) * np.sinh(z.im))


# Stirling coefficients B_{2j} / (2j (2j-1)) for the asymptotic log-gamma
# series; with |z| >= 13 the truncation error is below 1e-22.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
)
_STIRLING = tuple(
    LD(b.numerator) / LD(b.denominator) / LD((2 * j + 2) * (2 * j + 1))
    for j, b in enumerate(_BERNOULLI)
)


def log_gamma_ld(z: CLD) -> CLD:
    """log Gamma in longdouble; imaginary part may differ from the principal
    branch by a multiple of 2*pi (irrelevant under exp)."""
    if z.re < LD(0.5):
        lg = log_gamma_ld(CLD(1) - z)
        s = csin(CLD(_PI) * z)
        return clog(CLD(_PI) / s) - lg
    zz = CLD(z.re, z.im)
    acc = CLD(1)
    shifted = False
    while zz.abs2() < LD(169):            # shift until |z| >= 13
        acc = acc * zz
        zz = zz + CLD(1)
        shifted = True
    lz = clog(zz)
    out = (zz - CLD(0.5)) * lz - zz + CLD(_LOG_SQRT_2PI)
    inv2 = CLD(1) / (zz * zz)
    t = CLD(1) / zz
    series = CLD(0)
    for c in _STIRLING:
        series = series + CLD(c) * t
        t = t * inv2
    out = out + series
    if shifted:
        out = out - clog(acc)
    return out
