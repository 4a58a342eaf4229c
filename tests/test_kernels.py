"""Tests for the special-function kernels."""

import cmath
import math

import pytest

from wbident.config import EvalConfig
from wbident.core import laguerre
from wbident.errors import (ConvergenceError, DegenerateParameterError,
                            NearDegeneracyWarning, PoleError)
from wbident.kernels import (OrderParams, bessel_i, bessel_i_tilde,
                             bessel_k_quad, bessel_k_via_w, kummer_m,
                             whittaker_m, whittaker_w)
from wbident.ode import fd_derivatives

# frozen 50-digit oracle values (brute-force series at dps=50)
WHIT_M_32_05I_2 = complex(-0.25463706273047551974, 0.76557064931177284005)
WHIT_W_32_1I_2 = complex(0.20297317720755834834, 0.0)
BES_I_M05P1I_2 = complex(3.185962277291771626, 0.92902831774060514964)
BES_K_05P2I_05 = complex(-0.052703995541430358947, 0.082623005308775250546)
BES_K_03I_1 = complex(0.40736963776655561391, 0.0)

GRID_K = (0.1, 0.5, 1.0, 2.0)
GRID_X = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


class TestOrderParams:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            OrderParams(n=-1, k=1.0)

    def test_rejects_n_above_cap(self):
        with pytest.raises(ValueError):
            OrderParams(n=26, k=1.0)

    def test_rejects_nonfinite_k(self):
        with pytest.raises(ValueError):
            OrderParams(n=0, k=math.inf)


class TestKummerM:
    def test_at_zero(self):
        assert kummer_m(1.5 + 2j, 0.5 - 1j, 0.0) == 1.0

    def test_zero_numerator(self):
        assert kummer_m(0.0, 2.5, 3.7) == 1.0

    def test_collapses_to_exp(self):
        for z in (0.5, 2.0, -1.5, 3j):
            got = kummer_m(1.7, 1.7, z)
            assert abs(got - cmath.exp(z)) <= 1e-14 * abs(cmath.exp(z))

    def test_pole_in_b(self):
        with pytest.raises(PoleError):
            kummer_m(1.0, -2.0, 1.0)

    def test_non_convergence_with_tiny_budget(self):
        cfg = EvalConfig(series_max_terms=10)
        with pytest.raises(ConvergenceError):
            kummer_m(-3 + 1j, 1 + 2j, 40.0, cfg)


class TestWhittakerM:
    @pytest.mark.parametrize("n", range(6))
    def test_laguerre_closed_form(self, n):
        # M_{n+1/2,0}(2x) = (2x)^{1/2} e^{-x} L_n(2x)
        for x in (0.3, 1.0, 2.5):
            want = math.sqrt(2 * x) * math.exp(-x) * laguerre(n, 2 * x)
            got = whittaker_m(n + 0.5, 0.0, 2 * x)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1e-3)
            assert abs(got.imag) <= 1e-15

    def test_small_z_scaling(self):
        # leading factor z^{1/2+mu}
        mu = 0.3j
        kap = 1.5
        z = 1e-6
        lead = cmath.exp((0.5 + mu) * cmath.log(z))
        assert abs(whittaker_m(kap, mu, z) - lead) <= 1e-5 * abs(lead)

    def test_oracle_value(self):
        got = whittaker_m(1.5, 0.5j, 2.0)
        assert abs(got - WHIT_M_32_05I_2) <= 1e-13 * abs(WHIT_M_32_05I_2)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            whittaker_m(1.5, 0.5j, -1.0)


class TestWhittakerW:
    def test_n0_closed_form(self):
        # W_{1/2,0}(2x) = sqrt(2x) e^{-x}
        for x in (0.25, 1.0, 3.0):
            want = math.sqrt(2 * x) * math.exp(-x)
            got = whittaker_w(0.5, 0.0, 2 * x)
            assert abs(got - want) <= 1e-13 * want

    def test_oracle_value(self):
        got = whittaker_w(1.5, 1.0j, 2.0)
        assert abs(got - WHIT_W_32_1I_2) <= 1e-12 * abs(WHIT_W_32_1I_2)

    def test_degenerate_two_mu_integer(self):
        with pytest.raises(DegenerateParameterError):
            whittaker_w(1.5, 0.5, 2.0)          # 2*mu = 1

    def test_mu_zero_requires_half_integer_kappa(self):
        with pytest.raises(DegenerateParameterError):
            whittaker_w(0.7, 0.0, 2.0)

    def test_near_degeneracy_warning(self):
        with pytest.warns(NearDegeneracyWarning):
            whittaker_w(1.5, 1e-8j, 2.0)

    def test_realness_on_grid(self):
        for n in range(9):
            for k in GRID_K:
                for x in GRID_X:
                    w = whittaker_w(n + 0.5, 1j * k, 2 * x)
                    assert abs(w.imag) <= 1e-10 * abs(w)


class TestBesselKQuad:
    def test_half_order_closed_form(self):
        want = math.sqrt(math.pi / 2) * math.exp(-1)
        assert abs(bessel_k_quad(0.5, 1.0) - want) <= 1e-12 * want

    def test_order_symmetry(self):
        for k in (0.3, 1.0):
            for x in (0.5, 2.0):
                a = bessel_k_quad(complex(0.5, k), x)
                b = bessel_k_quad(complex(-0.5, -k), x)
                assert abs(a - b) <= 1e-12 * abs(a)

    def test_oracle_value(self):
        got = bessel_k_quad(complex(0.5, 2.0), 0.5)
        assert abs(got - BES_K_05P2I_05) <= 1e-12 * abs(BES_K_05P2I_05)

    def test_purely_imaginary_order_real(self):
        got = bessel_k_quad(0.3j, 1.0)
        assert abs(got - BES_K_03I_1) <= 1e-12 * abs(BES_K_03I_1)

    def test_rejects_large_real_order(self):
        with pytest.raises(ValueError):
            bessel_k_quad(1.5, 1.0)

    def test_non_convergence_with_coarse_budget(self):
        cfg = EvalConfig(quad_max_halvings=1, quad_step=4.0)
        with pytest.raises(ConvergenceError):
            bessel_k_quad(0.5j, 0.25, cfg)


class TestBesselKViaW:
    def test_cross_evaluator_agreement(self):
        for k in GRID_K:
            nu = complex(0.5, k)
            for x in GRID_X:
                kq = bessel_k_quad(nu, x)
                kw = bessel_k_via_w(nu, x)
                assert abs(kq - kw) <= 1e-10 * abs(kq), (k, x)

    def test_agreement_at_oracle_point(self):
        got = bessel_k_via_w(complex(0.5, 2.0), 0.5)
        assert abs(got - BES_K_05P2I_05) <= 1e-10 * abs(BES_K_05P2I_05)

    def test_imaginary_order_cross(self):
        a = bessel_k_via_w(0.3j, 1.0)
        b = bessel_k_quad(0.3j, 1.0)
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_rejects_half_integer_order(self):
        # 2*nu integer: connection formula invalid, quadrature must be used
        with pytest.raises(DegenerateParameterError):
            bessel_k_via_w(0.5, 1.0)

    def test_conjugation_symmetry(self):
        nu = complex(0.5, 1.3)
        a = bessel_k_via_w(nu, 2.0)
        b = bessel_k_via_w(nu.conjugate(), 2.0)
        assert abs(a.conjugate() - b) <= 1e-12 * abs(a)


class TestBesselI:
    def test_minus_half_closed_form(self):
        want = math.sqrt(2 / math.pi) * math.cosh(1.0)
        assert abs(bessel_i(-0.5, 1.0) - want) <= 1e-13 * want

    def test_small_x_leading_term(self):
        nu = complex(-0.5, 0.7)
        x = 1e-8
        from wbident.core import gamma
        lead = cmath.exp(nu * cmath.log(x / 2)) / gamma(nu + 1)
        assert abs(bessel_i(nu, x) - lead) <= 1e-12 * abs(lead)

    def test_oracle_value(self):
        got = bessel_i(complex(-0.5, 1.0), 2.0)
        assert abs(got - BES_I_M05P1I_2) <= 1e-13 * abs(BES_I_M05P1I_2)

    def test_non_convergence(self):
        cfg = EvalConfig(series_max_terms=10)
        with pytest.raises(ConvergenceError):
            bessel_i(0.5j, 50.0, cfg)


class TestBesselITilde:
    def test_real_order_closed_form(self):
        # Itilde_{-1/2} = I_{-1/2} + I_{+1/2} = sqrt(2/(pi x)) (cosh x + sinh x)
        want = math.sqrt(2 / (math.pi * 1.5)) * math.exp(1.5)
        got = bessel_i_tilde(-0.5, 1.5)
        assert abs(got - want) <= 1e-13 * want

    def test_order_symmetry(self):
        # the sum itself is symmetric in nu <-> -nu
        nu = complex(-0.5, 0.8)
        a = bessel_i_tilde(nu, 1.2)
        b = bessel_i_tilde(-nu, 1.2)
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_conjugation_structure(self):
        # conj(Itilde_nu(x)) = Itilde_{conj(nu)}(x)
        for k in (0.4, 1.0, 2.0):
            nu = complex(-0.5, k)
            for x in (0.5, 2.0):
                a = bessel_i_tilde(nu, x).conjugate()
                b = bessel_i_tilde(nu.conjugate(), x)
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_first_order_recurrence(self):
        # x Itilde' - nu Itilde = x conj(Itilde), finite-difference derivative
        for k in (0.5, 1.0):
            nu = complex(-0.5, k)
            for x in (0.5, 1.0, 2.0):
                h = 0.01 * max(1.0, x)
                d = fd_derivatives(lambda t: bessel_i_tilde(nu, t), x, h)
                lhs = x * d[1] - nu * d[0]
                rhs = x * bessel_i_tilde(nu, x).conjugate()
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestBesselDerivativeIdentity:
    def test_k_lowering(self):
        # x K'_nu + nu K_nu = -x K_{nu-1}
        for k in (0.5, 1.0):
            nu = complex(0.5, k)
            for x in (0.5, 1.0, 2.0):
                h = 0.01 * max(1.0, x)
                d = fd_derivatives(lambda t: bessel_k_quad(nu, t), x, h)
                lhs = x * d[1] + nu * d[0]
                rhs = -x * bessel_k_quad(nu - 1, x)
                assert abs(lhs - rhs) <= 1e-7 * abs(rhs)


class TestAsymptotics:
    def test_large_x_ratio_in_oracle_precision(self):
        # W_{n+1/2,ik}(2x) / ((2x)^{n+1/2} e^{-x}) -> 1; the 1/x correction is
        # -(n^2+k^2)/(2x), so stay at small n for the +-10% window at x = 30
        from wbident import oracle
        for n in (0, 1, 2):
            for k in (0.5, 1.0):
                ratio = oracle.large_x_w_ratio(OrderParams(n=n, k=k), 30.0)
                assert 0.9 <= ratio.real <= 1.1
                assert abs(ratio.imag) <= 1e-10

    def test_small_x_two_term_defect_vanishes(self):
        # W(2x) minus its two-term small-x form is o(x^{1/2})
        from wbident import oracle
        params = OrderParams(n=1, k=1.0)
        d2 = oracle.small_x_w_defect(params, 1e-2)
        d4 = oracle.small_x_w_defect(params, 1e-4)
        d6 = oracle.small_x_w_defect(params, 1e-6)
        assert d2 < 0.05
        assert d4 < 5e-3
        assert d6 < 5e-5


class TestOracle:
    """The 50-digit oracle against mpmath's own whitw and besselk, whose
    formulas it does not share."""

    ORACLE_TOL = 1e-35

    @pytest.mark.parametrize("n", [0, 3, 8, 25])
    def test_whittaker_w_matches_mpmath_whitw(self, n):
        import mpmath as mp
        from wbident import oracle
        with mp.workdps(EvalConfig().oracle_dps):
            for k in (0.1, 1.0, 4.5):
                for x in (0.25, 2.0, 8.0):
                    got = oracle.whittaker_w(n + 0.5, 1j * k, 2 * x)
                    want = mp.whitw(mp.mpf(n) + 0.5, mp.mpc(0, k), 2 * mp.mpf(x))
                    assert abs(got - want) <= self.ORACLE_TOL * abs(want), (k, x)

    @pytest.mark.parametrize("k", [0.1, 1.0, 4.5])
    def test_bessel_k_matches_mpmath_besselk(self, k):
        import mpmath as mp
        from wbident import oracle
        with mp.workdps(EvalConfig().oracle_dps):
            for x in (0.25, 2.0, 8.0):
                got = oracle.bessel_k(complex(0.5, k), x)
                want = mp.besselk(mp.mpf(0.5) + mp.mpc(0, k), mp.mpf(x))
                assert abs(got - want) <= self.ORACLE_TOL * abs(want), x

    def test_mpmath_non_convergence_is_structured_error(self, monkeypatch):
        import mpmath as mp
        from mpmath.libmp import NoConvergence
        from wbident import oracle

        def stuck(*args, **kwargs):
            raise NoConvergence("stuck")
        monkeypatch.setattr(mp, "besseli", stuck)
        with pytest.raises(ConvergenceError):
            oracle.bessel_k(complex(0.5, 1.0), 2.0)
