"""Exact Laurent polynomials in x with Gaussian-integer coefficients.

A Gaussian integer is a pair (re, im) of ints, and a Laurent polynomial a
dict {power of x: Gaussian integer} without zero coefficients, so {} is the
zero polynomial and only it is false.  The polynomials of one computation
share one integer denominator, kept by the caller: residuals scored on the
numerators are those of the values, and only ``value`` divides.  No other
module reads the coefficients.
"""

from __future__ import annotations


def gaussian_product(a, b) -> tuple[int, int]:
    """a b for Gaussian integers a, b given as (re, im)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def poly(coeffs, low: int = 0) -> dict:
    """sum_j coeffs[j] x^(low + j)."""
    return {low + j: c for j, c in enumerate(coeffs) if c != (0, 0)}


def add(*polys) -> dict:
    out = {}
    for a in polys:
        for e, (re, im) in a.items():
            s = out.get(e, (0, 0))
            out[e] = (s[0] + re, s[1] + im)
    return {e: c for e, c in out.items() if c != (0, 0)}


def mul(a, b) -> dict:
    out = {}
    for ea, (ar, ai) in a.items():
        for eb, (br, bi) in b.items():
            s = out.get(ea + eb, (0, 0))
            out[ea + eb] = (s[0] + ar * br - ai * bi, s[1] + ar * bi + ai * br)
    return {e: c for e, c in out.items() if c != (0, 0)}


def scale(c, a) -> dict:
    """a times the Gaussian integer c."""
    return mul({0: c}, a)


def deriv(a) -> dict:
    return {e - 1: (e * re, e * im) for e, (re, im) in a.items() if e}


def value(a, den: int, x: float) -> complex:
    """a(x) / den, each coefficient rounded once to complex (OverflowError
    where one leaves the double range)."""
    return sum((complex(re / den, im / den) * x ** e
                for e, (re, im) in a.items()), 0j)


def aligned(polys) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each power of x where one of the polynomials has a term, ascending,
    with every polynomial's coefficient there."""
    return [(e, [a.get(e, (0, 0)) for a in polys])
            for e in sorted(set().union(*polys))]
