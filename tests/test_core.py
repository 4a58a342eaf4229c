"""Tests for complex scalar utilities."""

import cmath
import math
import random

import pytest

from wbident.core import gamma, gamma_ratio, laguerre, log_gamma, pochhammer
from wbident.errors import InputError, PoleError

# 50-digit reference value for Gamma(-0.5 + 1.0i) (independent
# high-precision evaluation via the reflection formula)
GAMMA_M05_P1I = complex(-0.46025215045076137657, -0.07056854203527512793)


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_reflection_region_value(self):
        got = gamma(complex(-0.5, 1.0))
        assert abs(got - GAMMA_M05_P1I) / abs(GAMMA_M05_P1I) < 1e-13

    def test_factorial_ladder(self):
        for n in range(2, 15):
            assert abs(gamma(n) - math.factorial(n - 1)) / math.factorial(n - 1) < 1e-13

    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_pochhammer_gamma_ratio(self):
        # exp(log_gamma(z+n) - log_gamma(z)) == (z)_n for Re z > 0
        rng = random.Random(20240601)
        for _ in range(50):
            z = complex(rng.uniform(0.1, 5), rng.uniform(-3, 3))
            n = rng.randint(0, 10)
            lhs = cmath.exp(log_gamma(z + n) - log_gamma(z))
            rhs = pochhammer(z, n)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_reflection_far_from_real_axis(self):
        # sin(pi z) exceeds the double range here; log Gamma does not
        from mpmath import mp
        with mp.workdps(40):
            want = mp.loggamma(mp.mpc(0, -400))
            got = log_gamma(-400j)
            turns = mp.nint((got.imag - want.imag) / (2 * mp.pi))
            err = abs(mp.mpc(got.real, got.imag - 2 * mp.pi * turns) - want)
        assert float(err) <= 1e-15 * float(abs(want))

    @pytest.mark.parametrize("z", [-3700j, 0.3 - 5000j, 0.2 + 4000j, -2.5 + 3620j,
                                   0.49 - 1e6j, 0.1 + 3615.5j, 0.1 - 3616j])
    def test_reflection_where_sin_leaves_the_longdouble_range(self, z):
        # sin(pi z) overflows even in 80 bits beyond |Im z| of about 3600
        from mpmath import mp
        with mp.workdps(40):
            want = mp.loggamma(mp.mpc(z))
            got = log_gamma(z)
            turns = mp.nint((got.imag - want.imag) / (2 * mp.pi))
            err = abs(mp.mpc(got.real, got.imag - 2 * mp.pi * turns) - want)
        assert float(err) <= 1e-15 * float(abs(want))


class TestGammaRatio:
    def test_factors_beyond_double_range_cancel(self):
        # the numerator, about e^{-942}, underflows alone; the quotient does not
        from mpmath import mp
        num, den = (0.5 - 200j, -400j), (-2 - 200j,)
        with mp.workdps(40):
            want = complex(mp.gamma(mp.mpc(0.5, -200)) * mp.gamma(mp.mpc(0, -400))
                           / mp.gamma(mp.mpc(-2, -200)))
        assert abs(gamma_ratio(num, den) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("num,den", [((-500j,), ()), ((), (-500j,)),
                                         ((200.0,), ())])
    def test_out_of_range_is_input_error(self, num, den):
        with pytest.raises(InputError):
            gamma_ratio(num, den)

    def test_pole_in_denominator(self):
        with pytest.raises(PoleError):
            gamma_ratio((1.5,), (-3.0,))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7 + 2j, 0) == 1

    def test_hand_value(self):
        # (1+i)(2+i) = 1+3i
        assert pochhammer(1 + 1j, 2) == 1 + 3j

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_rising_factorial_of_one(self, n):
        assert pochhammer(1.0, n) == math.factorial(n)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 17.3) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 3.0) == -2.0

    def test_degree_two_hand(self):
        # L_2(z) = 1 - 2z + z^2/2 at z=2
        assert abs(laguerre(2, 2.0) - (-1.0)) < 1e-14

    def test_three_term_recurrence(self):
        for n in range(1, 21):
            for z in [0.0, 0.5, 1.0, 5.0, 12.5, 20.0]:
                lhs = (n + 1) * laguerre(n + 1, z)
                rhs = (2 * n + 1 - z) * laguerre(n, z) - n * laguerre(n - 1, z)
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) <= 1e-12 * scale
