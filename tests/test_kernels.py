"""Tests for the special-function kernels."""

import cmath
import math
import warnings

import numpy as np
import pytest

from wbident import kernels
from wbident.config import EvalConfig
from wbident.core import laguerre
from wbident.errors import (ConvergenceError, DegenerateParameterError,
                            InputError, NearDegeneracyWarning, PoleError)
from wbident.kernels import (OrderParams, bessel_i, bessel_i_tilde,
                             bessel_k_quad, bessel_k_via_w, kummer_m,
                             whittaker_m, whittaker_w)
from wbident.ode import factor_derivatives

# frozen 50-digit oracle values (brute-force series at dps=50)
WHIT_M_32_05I_2 = complex(-0.25463706273047551974, 0.76557064931177284005)
WHIT_W_32_1I_2 = complex(0.20297317720755834834, 0.0)
BES_I_M05P1I_2 = complex(3.185962277291771626, 0.92902831774060514964)
BES_K_05P2I_05 = complex(-0.052703995541430358947, 0.082623005308775250546)
BES_K_03I_1 = complex(0.40736963776655561391, 0.0)

GRID_K = (0.1, 0.5, 1.0, 2.0)
GRID_X = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def bessel_i_prime(nu, x):
    """I'_nu(x) = I_{nu+1}(x) + (nu/x) I_nu(x) (DLMF 10.29.2)."""
    return bessel_i(nu + 1, x) + nu / x * bessel_i(nu, x)


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


class TestLogGammaLd:
    @pytest.mark.parametrize("z", [
        # reflection branch; at -400i sin(pi z) exceeds double, not longdouble
        -2.5 + 0.3j, 0.2 + 1j, -10.3 + 5j, -400j,
        1 + 1j, 0.7 + 0.1j, 5 + 2j, 12.0,          # shift loop
        20 + 3j, 0.5 + 50j, 100.0, 3 + 1000j,      # Stirling series directly
    ])
    def test_matches_mpmath_modulo_2pi_i(self, z):
        from mpmath import mp
        with mp.workdps(40):
            got = kernels.log_gamma_ld(np.clongdouble(z))
            # the longdouble parts, exactly
            re, im = (mp.mpf(p) / q for p, q in (
                got.real.as_integer_ratio(), got.imag.as_integer_ratio()))
            want = mp.loggamma(mp.mpc(z.real, z.imag))
            turns = mp.nint((im - want.imag) / (2 * mp.pi))
            err = abs(mp.mpc(re, im - 2 * mp.pi * turns) - want)
            bound = 64 * np.finfo(np.longdouble).eps * max(1.0, float(abs(want)))
        assert float(err) <= bound


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

    def test_mu_zero_kappa_test_is_exact(self):
        # n + 1/2 is exact in binary; a kappa 1e-13 off it is not n + 1/2
        with pytest.raises(DegenerateParameterError):
            whittaker_w(2.5 + 1e-13, 0.0, 2.0)

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
        # x Itilde' - nu Itilde = x conj(Itilde), I' from DLMF 10.29.2
        for k in (0.5, 1.0):
            nu = complex(-0.5, k)
            for x in (0.5, 1.0, 2.0):
                i_plus, di_plus = bessel_i(nu, x), bessel_i_prime(nu, x)
                i_minus, di_minus = bessel_i(-nu, x), bessel_i_prime(-nu, x)
                lhs = x * (di_plus + di_minus) - nu * (i_plus + i_minus)
                rhs = x * bessel_i_tilde(nu, x).conjugate()
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestBesselDerivativeIdentity:
    def test_k_lowering(self):
        # x K'_nu + nu K_nu = -x K_{nu-1}, with K'_nu = -K_{nu+1} + (nu/x) K_nu
        # (DLMF 10.29.2) and K_{nu+1} from the W route (|Re nu+1| > 1)
        for k in (0.5, 1.0):
            nu = complex(0.5, k)
            for x in (0.5, 1.0, 2.0):
                kv = bessel_k_quad(nu, x)
                dk = -bessel_k_via_w(nu + 1, x) + nu / x * kv
                lhs = x * dk + nu * kv
                rhs = -x * bessel_k_quad(nu - 1, x)
                assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


class TestDerivatives:
    """The Whittaker kernels' derivatives and the I and K rows of
    factor_derivatives against mp.diff of mpmath's own whitw, whitm, besseli
    and besselk, whose formulas the kernels do not share."""

    DERIV_TOL = 1e-12

    def _check(self, got, fn, at, orders):
        import mpmath as mp
        for order, value in zip(orders, got):
            want = complex(mp.diff(fn, at, order))
            assert abs(value - want) <= self.DERIV_TOL * abs(want), (at, order)

    @pytest.mark.parametrize("n", [0, 3, 8])
    def test_against_mpmath(self, n):
        import mpmath as mp
        with mp.workdps(30):
            for k in (0.5, 1.0, 2.0):
                kappa, mu, nu = n + 0.5, 1j * k, complex(-0.5, k)
                for x in (0.5, 2.0, 4.0):
                    self._check(whittaker_w(kappa, mu, 2 * x, deriv=True),
                                lambda z: mp.whitw(kappa, mu, z), 2 * x, (0, 1, 2))
                    self._check(whittaker_m(kappa, mu, 2 * x, deriv=True),
                                lambda z: mp.whitm(kappa, mu, z), 2 * x, (0, 1, 2))
                    params = OrderParams(n=n, k=k)
                    self._check(factor_derivatives("I", params, x),
                                lambda t: mp.besseli(nu, t), x, (0, 1, 2))
                    self._check(factor_derivatives("K", params, x),
                                lambda t: mp.besselk(nu, t), x, (0, 1, 2))

    def test_no_derivatives_on_laguerre_branch(self):
        with pytest.raises(DegenerateParameterError):
            whittaker_w(1.5, 0.0, 2.0, deriv=True)

    def test_values_are_the_value_only_calls(self):
        assert whittaker_w(3.5, 1j, 3.0, deriv=True)[0] == whittaker_w(3.5, 1j, 3.0)
        assert whittaker_m(3.5, 1j, 3.0, deriv=True)[0] == whittaker_m(3.5, 1j, 3.0)

    # I as float.hex of (Re I, Im I), recorded with the Gamma(m+nu+1) factor
    # of each series term rebuilt from nu on every term
    BESSEL_I_BITS = {
        (complex(-0.5, 1.0), 0.5): ("0x1.bf5a93d70dce8p+1", "-0x1.d2e7e12d4e614p+0"),
        (complex(-0.5, 1.0), 1.5): ("0x1.6c027a9f9cf56p+1", "0x1.78e057ece51f2p-1"),
        (complex(-0.5, 1.0), 4.0): ("0x1.908d2f649902ep+3", "0x1.e78f8b127ae85p+0"),
        (complex(0.5, -2.0), 0.5): ("-0x1.0dbd37920cf0fp+1", "-0x1.b43cd02a67048p-1"),
        (complex(0.5, -2.0), 1.5): ("0x1.8dba3b363d375p-2", "0x1.1cb7146a8966cp+2"),
        (complex(0.5, -2.0), 4.0): ("0x1.2833afb6697ddp+4", "0x1.a4fc5121ff5a5p+2"),
    }

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="bits recorded with the x86 80-bit long double")
    def test_bessel_i_bits_unchanged(self):
        for (nu, x), bits in self.BESSEL_I_BITS.items():
            i = bessel_i(nu, x)
            assert (i.real.hex(), i.imag.hex()) == bits


class TestGrid:
    """A grid call sums one series per point, each stopped by its own rule,
    so it equals the per-point calls bit for bit."""

    XS = (0.5, 1.1, 2.0, 3.3, 4.0, 6.5, 8.0)

    @pytest.mark.parametrize("n", [0, 3, 8, 25])
    @pytest.mark.parametrize("k", [0.1, 2.526])
    @pytest.mark.parametrize("kernel", [whittaker_w, whittaker_m])
    def test_grid_equals_per_point_calls(self, kernel, n, k):
        zs = tuple(2 * x for x in self.XS)
        values = kernel(n + 0.5, 1j * k, zs)
        assert values.dtype == complex and values.shape == (len(zs),)
        assert values.tolist() == [kernel(n + 0.5, 1j * k, z) for z in zs]
        derivs = kernel(n + 0.5, 1j * k, zs, deriv=True)
        per_point = [kernel(n + 0.5, 1j * k, z, deriv=True) for z in zs]
        assert [d.tolist() for d in derivs] == [list(p) for p in zip(*per_point)]

    def test_laguerre_branch_and_kummer_on_a_grid(self):
        zs = (0.5, 2.0, 7.0)
        assert whittaker_w(2.5, 0.0, zs).tolist() == [whittaker_w(2.5, 0.0, z) for z in zs]
        assert kummer_m(0.5, 1.5j, zs).tolist() == [kummer_m(0.5, 1.5j, z) for z in zs]

    @pytest.mark.parametrize("call", [
        lambda: [kummer_m(1, 1, ())],
        lambda: [whittaker_w(2.5, 1j, ())],
        lambda: [whittaker_w(2.5, 0.0, ())],
        lambda: whittaker_m(2.5, 1j, (), deriv=True),
        lambda: whittaker_w(2.5, 1j, (), deriv=True),
    ])
    def test_empty_grid_gives_empty_read_only_arrays(self, call):
        # the Kummer series used to wait for a finished point and raise
        # ConvergenceError after series_max_terms
        for values in call():
            assert values.dtype == complex and values.shape == (0,)
            assert not values.flags.writeable

    def test_any_nonpositive_point_is_refused(self):
        with pytest.raises(ValueError):
            whittaker_w(1.5, 1j, (1.0, 0.0))

    @pytest.mark.parametrize("call", [
        lambda: whittaker_w(1.5, 1e300j, 2.0),
        lambda: bessel_i(0.5, 1e300),
        lambda: kummer_m(1, 1, 1e300),
    ])
    def test_non_finite_value_raises(self, call):
        # numpy's overflow warnings stay inside the library call
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError):
                call()

    @pytest.mark.parametrize("z, message", [
        (1e300, "partial sum is not finite after 32 terms"),
        ((1.0, 1e300), "partial sum is not finite after 32 terms"),
        (750.0, "value is not a finite complex128"),
    ])
    def test_kummer_overflow_stops_without_warnings(self, z, message):
        # a non-finite partial sum stops the series at the next check, not
        # after series_max_terms, and numpy's overflow warnings stay inside
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=message):
                kummer_m(1, 1, z)

    def test_underflowed_value_raises(self):
        # W_{5/2,500i}(2) is nonzero in 80-bit but below the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError, match="underflows complex128"):
                whittaker_w(2.5, 500j, 2.0)


class TestKernelTable:
    def test_equal_arguments_evaluated_once(self):
        calls = []

        def count(*args, **kwargs):
            calls.append((args, kwargs))
            return len(calls)

        counted = kernels._tabled(count)
        assert counted(1.0, 2.0) == 1 and counted(1.0, 2.0) == 2     # no table
        with kernels.kernel_table():
            assert counted(1.0, 2.0) == 3
            assert counted(1.0, 2.0) == 3
            assert counted(1.0, 2.0, deriv=True) == 4
            assert counted(1.0, 2.0, deriv=True) == 4
        assert counted(1.0, 2.0) == 5

    def test_raising_call_stores_nothing(self):
        cfg = EvalConfig(series_max_terms=10)
        with kernels.kernel_table():
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    bessel_i(0.5j, 50.0, cfg)
            assert kernels._TABLE.get() == {}
        with pytest.raises(ValueError):
            with kernels.kernel_table():
                raise ValueError
        assert kernels._TABLE.get() is None

    def test_grid_call_is_one_read_only_entry(self):
        zs = (1.0, 2.0, 4.0)
        with kernels.kernel_table():
            values = whittaker_w(3.5, 1j, zs)
            assert whittaker_w(3.5, 1j, zs) is values
            derivs = whittaker_m(3.5, 1j, zs, deriv=True)
            assert len(kernels._TABLE.get()) == 2
            for stored in (values, *derivs):
                with pytest.raises(ValueError):
                    stored[0] = 0j

    def test_values_match_untabled_calls(self):
        nu = complex(0.5, 1.0)
        plain = [whittaker_w(3.5, 1j, 3.0), whittaker_m(3.5, 1j, 3.0, deriv=True),
                 bessel_i(nu, 1.5), bessel_k_quad(nu, 1.5),
                 bessel_k_via_w(nu, 1.5)]
        with kernels.kernel_table():
            for _ in range(2):
                assert [whittaker_w(3.5, 1j, 3.0),
                        whittaker_m(3.5, 1j, 3.0, deriv=True),
                        bessel_i(nu, 1.5), bessel_k_quad(nu, 1.5),
                        bessel_k_via_w(nu, 1.5)] == plain


def large_x_w_ratio(params: OrderParams, x: float = 30.0) -> complex:
    """W_{n+1/2,ik}(2x) / ((2x)^{n+1/2} e^{-x}) from the 50-digit oracle."""
    import mpmath as mp
    from wbident import oracle
    n, k = params.n, params.k
    with mp.workdps(EvalConfig().oracle_dps):
        xx = mp.mpf(x)
        w = oracle.whittaker_w(n + mp.mpf(1) / 2, mp.mpc(0, k), 2 * xx)
        return complex(w / ((2 * xx) ** (n + mp.mpf(1) / 2) * mp.e ** (-xx)))


def small_x_w_defect(params: OrderParams, x: float) -> float:
    """|W(2x) - leading two-term small-x form| / x^{1/2} from the 50-digit
    oracle; tends to 0 like x as x -> 0."""
    import mpmath as mp
    from wbident import oracle
    n, k = params.n, params.k
    with mp.workdps(EvalConfig().oracle_dps):
        ik = mp.mpc(0, k)
        xx = mp.mpf(x)
        w = oracle.whittaker_w(n + mp.mpf(1) / 2, ik, 2 * xx)
        lead = mp.gamma(-2 * ik) / mp.gamma(-ik - n) * (2 * xx) ** (mp.mpf(1) / 2 + ik)
        lead = lead + mp.conj(lead)
        return float(abs(w - lead) / mp.sqrt(xx))


class TestAsymptotics:
    """The oracle's Kummer series at the largest and smallest arguments any
    caller passes, z = 60 and z = 2e-6."""

    def test_large_x_ratio_in_oracle_precision(self):
        # W_{n+1/2,ik}(2x) / ((2x)^{n+1/2} e^{-x}) -> 1; the 1/x correction is
        # -(n^2+k^2)/(2x), so stay at small n for the +-10% window at x = 30
        for n in (0, 1, 2):
            for k in (0.5, 1.0):
                ratio = large_x_w_ratio(OrderParams(n=n, k=k), 30.0)
                assert 0.9 <= ratio.real <= 1.1
                assert abs(ratio.imag) <= 1e-10

    def test_small_x_two_term_defect_vanishes(self):
        # W(2x) minus its two-term small-x form is o(x^{1/2})
        params = OrderParams(n=1, k=1.0)
        d2 = small_x_w_defect(params, 1e-2)
        d4 = small_x_w_defect(params, 1e-4)
        d6 = small_x_w_defect(params, 1e-6)
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

    def test_whittaker_w_on_a_list_equals_per_point_values(self):
        from wbident import oracle
        zs = [0.5, 2.0, 7.25]
        values = oracle.whittaker_w(3.5, 1.3j, zs)
        assert values == [oracle.whittaker_w(3.5, 1.3j, z) for z in zs]

    def test_bessel_k_on_a_list_equals_per_point_values(self):
        from wbident import oracle
        xs = [0.25, 2.0, 7.25]
        values = oracle.bessel_k(complex(0.5, 1.3), xs)
        assert values == [oracle.bessel_k(complex(0.5, 1.3), x) for x in xs]

    @pytest.mark.parametrize("kappa,mu", [(3.5 + 1j, 1.3j), (3.5, 0.2 + 1.3j),
                                          (3.5, 0.0)])
    def test_whittaker_w_outside_its_orders_is_input_error(self, kappa, mu):
        from wbident import oracle
        with pytest.raises(InputError):
            oracle.whittaker_w(kappa, mu, 2.0)

    @pytest.mark.parametrize("k", [0.1, 1.0, 4.5])
    def test_bessel_k_matches_mpmath_besselk(self, k):
        import mpmath as mp
        from wbident import oracle
        with mp.workdps(EvalConfig().oracle_dps):
            for x in (0.25, 2.0, 8.0):
                got = oracle.bessel_k(complex(0.5, k), x)
                want = mp.besselk(mp.mpf(0.5) + mp.mpc(0, k), mp.mpf(x))
                assert abs(got - want) <= self.ORACLE_TOL * abs(want), x

    @pytest.mark.parametrize("evaluator", ["hyp0f1", "hyp1f1"])
    def test_mpmath_non_convergence_is_structured_error(self, evaluator):
        # the 0F1 series serves I inside oracle.bessel_k, the 1F1 series M
        # inside oracle.whittaker_w; both run in every escalated collocation
        # fit, and neither converges in 10 terms at these arguments
        from wbident import lambda_poly, oracle
        config = EvalConfig(series_max_terms=10)
        with pytest.raises(ConvergenceError):
            if evaluator == "hyp0f1":
                oracle.bessel_k(complex(0.5, 1.0), 2.0, config)
            else:
                oracle.whittaker_w(3.5, 1j, 4.0, config)
        with pytest.raises(ConvergenceError):
            oracle.collocation_fit(OrderParams(n=3, k=0.5),
                                   lambda_poly.default_collocation_points(3),
                                   config)

    SERIES_Z = (2e-6, 1e-3, 0.5, 3.0, 12.0, 30.0, 60.0)

    @pytest.mark.parametrize("n", [0, 3, 8, 25])
    def test_kummer_series_matches_mpmath_hyp1f1(self, n, monkeypatch):
        # the parameters of W_{n+1/2,ik}; at n = 25 and small k the terms up
        # to m = n cancel by more than 32 bits at z = 60, which re-runs the
        # sum with more guard bits
        import mpmath as mp
        from wbident import oracle
        guards = []
        series = oracle._hyp_series

        def spy(*args):
            guards.append(args[4] if len(args) > 4 else 64)
            return series(*args)
        monkeypatch.setattr(oracle, "_hyp_series", spy)
        with mp.workdps(70):
            zs = [mp.mpf(z) for z in self.SERIES_Z]
            for k in (1e-3, 0.1, 1.0, 4.5):
                a, b = mp.mpc(-n, k), mp.mpc(1, 2 * k)
                for z, got in zip(zs, oracle._hyp_series(a, b, zs, 1000)):
                    want = mp.hyp1f1(a, b, z)
                    assert abs(got - want) <= 1e-45 * abs(want), (k, z)
        assert (max(guards) > 64) == (n == 25)

    def test_kummer_series_keeps_a_tail_grown_from_a_small_coefficient(self):
        # at a = -5 + 1e-60 i the coefficient of z^6 carries the factor a + 5
        # and holds few bits of the fixed point; Im 1F1 comes from the tail
        # that grows out of it, and only bounding the tail's error by that
        # coefficient re-runs the sum with the bits it needs
        import mpmath as mp
        from wbident import oracle
        a, b, z = mp.mpc(-5, 1e-60), mp.mpc(1, 2e-60), mp.mpf(150)
        with mp.workdps(100):
            want = mp.hyp1f1(a, b, z)
        with mp.workdps(50):
            got = oracle._hyp_series(a, b, [z], 1000)[0]
        assert abs(got - want) <= 1e-45 * abs(want)

    @pytest.mark.parametrize("k", [1e-3, 0.1, 1.0, 4.5])
    def test_bessel_series_matches_mpmath_hyp0f1(self, k):
        # 0F1(; 1 -+ nu; z) at nu = 1/2 + ik, the orders of oracle.bessel_k
        import mpmath as mp
        from wbident import oracle
        with mp.workdps(70):
            zs = [mp.mpf(z) for z in self.SERIES_Z]
            for b in (mp.mpc(0.5, -k), mp.mpc(1.5, k)):
                for z, got in zip(zs, oracle._hyp_series(None, b, zs, 1000)):
                    want = mp.hyp0f1(b, z)
                    assert abs(got - want) <= 1e-45 * abs(want), (b, z)

    @pytest.mark.parametrize("n,k", [(3, 0.5), (8, 0.5), (8, 2.0)])
    def test_integer_householder_matches_mpmath_qr_solve(self, n, k):
        # the escalated design matrices; at n = 8 the condition is ~1e16
        import mpmath as mp
        from wbident import lambda_poly, oracle
        config = EvalConfig()
        with mp.workdps(config.oracle_dps):
            rows, rhs = oracle._design_system(
                OrderParams(n=n, k=k), lambda_poly.default_collocation_points(n),
                config)
            self.assert_matches_qr_solve(rows, rhs, 1e-30)

    def test_integer_householder_on_a_well_conditioned_system(self):
        import random

        import mpmath as mp
        from wbident import oracle
        rng = random.Random(12)
        with mp.workdps(EvalConfig().oracle_dps):
            rows = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(6)]
                    for _ in range(12)]
            rhs = [mp.mpf(rng.uniform(-1, 1)) for _ in range(12)]
            self.assert_matches_qr_solve(rows, rhs, 1e-45)

    @staticmethod
    def assert_matches_qr_solve(rows, rhs, tol):
        """The integer solve agrees with mpmath's qr_solve to tol of the
        largest unknown."""
        import mpmath as mp
        from wbident import oracle
        got = oracle._householder_lstsq(rows, rhs)
        want = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))[0]
        big = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= tol * big
