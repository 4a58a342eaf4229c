"""Tests for the special-function kernels."""

import cmath
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbident import kernels
from wbident.config import EvalConfig
from wbident.core import laguerre
from wbident.errors import (ConvergenceError, DegenerateParameterError,
                            InputError, NearDegeneracyWarning, PoleError,
                            WbidentError)
from wbident.kernels import (OrderParams, bessel_i, bessel_i_tilde,
                             bessel_k_quad, bessel_k_via_w, kummer_m,
                             whittaker_m, whittaker_w)

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

    def test_term_budget_is_exact(self):
        # e = M(1, 1, 1) stops on term 20: 10 terms are too few, 25 enough
        with pytest.raises(ConvergenceError, match="did not converge within 10 terms"):
            kummer_m(1, 1, 1.0, EvalConfig(series_max_terms=10))
        assert kummer_m(1, 1, 1.0, EvalConfig(series_max_terms=25)) == math.e


@np.errstate(over="ignore", invalid="ignore")
def kummer_series_term_by_term(a, b, z, config):
    """The Kummer series one term per numpy step, as ``kernels._kummer_series``
    summed it before it advanced in blocks: the reference that the block loop
    must equal bit for bit.  Also returns the term at which each point
    stopped."""
    C, LD = np.clongdouble, np.longdouble
    a, b = C(a), C(b)
    tol = LD(config.series_rel_tol)
    out = np.empty(z.size, C)
    stops = np.zeros(z.size, int)
    if not z.size:
        return out, stops
    s = np.ones(z.size, C)
    live = np.arange(z.size)
    zl, t, small = z, np.ones(z.size, C), np.zeros(z.size, int)
    for m in range(config.series_max_terms):
        t = t * ((a + m) / ((b + m) * (m + 1))) * zl
        s += t
        if m % 32 == 31 and not np.isfinite(s).all():
            raise ConvergenceError(
                f"Kummer series partial sum is not finite after {m + 1} terms")
        small = np.where(np.abs(t) <= tol * np.abs(s), small + 1, 0)
        done = small >= 3
        if done.any():
            out[live[done]] = s[done]
            stops[live[done]] = m + 1
            keep = ~done
            live, zl, t, small, s = live[keep], zl[keep], t[keep], small[keep], s[keep]
            if not live.size:
                return out, stops
    raise ConvergenceError(
        f"Kummer series did not converge within {config.series_max_terms} terms")


def same_ld_bits(x, y) -> bool:
    """Equal clongdouble arrays, signs of zeros and NaNs included (their byte
    images hold padding, so the parts are compared)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and all(
        np.array_equal(p, q, equal_nan=True) and np.array_equal(np.signbit(p), np.signbit(q))
        for p, q in ((x.real, y.real), (x.imag, y.imag)))


def _series_table(rows: int = 300) -> list:
    """(a, b, z grid) from a fixed seed: every other row at the orders of
    W_{n+1/2,ik} (a = -n + ik, b = 1 + 2ik), the others at complex a and b
    off the poles; 1 to 13 points in (0, 16]."""
    rng = np.random.default_rng(20231019)
    table = []
    for i in range(rows):
        if i % 2:
            n, k = int(rng.integers(0, 26)), float(rng.uniform(0, 5))
            a, b = complex(-n, k), complex(1, 2 * k)
        else:
            a, b = complex(*rng.normal(0, 6, 2)), complex(*rng.normal(0, 6, 2))
        z = tuple((16 * (1 - rng.random(int(rng.integers(1, 14))))).tolist())
        table.append((a, b, z))
    return table


class TestBlockSeries:
    """``_kummer_series`` advances kernels._BLOCK terms per numpy step; the
    term-by-term loop above is its reference, on values and on errors."""

    EDGE_ORDERS = [(1, 1), (-3 + 1j, 1 + 2j), (0.5 + 2j, 1 + 4j), (-10 + 0.5j, 1 + 1j)]

    @staticmethod
    def outcome(series, a, b, z, config):
        """The series' values, or the message of its ConvergenceError."""
        try:
            values = series(a, b, np.asarray(z, np.clongdouble), config)
        except ConvergenceError as exc:
            return None, str(exc)
        return (values[0] if series is kummer_series_term_by_term else values), None

    def assert_equal_to_reference(self, a, b, z, config=None):
        config = config or EvalConfig()
        want, want_err = self.outcome(kummer_series_term_by_term, a, b, z, config)
        got, got_err = self.outcome(kernels._kummer_series, a, b, z, config)
        assert got_err == want_err, (a, b, z)
        if want is not None:
            assert same_ld_bits(got, want), (a, b, z)

    @pytest.mark.parametrize("k", [0.1, 2.526])
    def test_one_a_per_point_equals_each_a_alone(self, k):
        # a column's series: each point has its own a (here W's a = -n + ik,
        # n = 0..25, at three z each), and sums as the series with that a alone
        b = complex(1, 2 * k)
        pairs = [(complex(-n, k), z) for n in range(26) for z in (0.5, 4.0, 16.0)]
        a, z = (np.array(v, np.clongdouble) for v in zip(*pairs))
        got = kernels._kummer_series(a, b, z, EvalConfig())
        for (a_i, z_i), g in zip(pairs, got):
            want, _ = kummer_series_term_by_term(a_i, b, np.array([z_i], np.clongdouble),
                                                 EvalConfig())
            assert same_ld_bits([g], want), (a_i, z_i)

    def test_seeded_table(self):
        table = _series_table()
        stops = set()
        for a, b, z in table:
            self.assert_equal_to_reference(a, b, z)
            _, s = kummer_series_term_by_term(a, b, np.asarray(z, np.clongdouble),
                                              EvalConfig())
            stops.add(len({(t - 1) // 32 for t in s.tolist()}))
        # some grids have points that stop in different blocks
        assert max(stops) >= 2

    @pytest.mark.parametrize("stop", [31, 32, 33])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_third_small_term_at_block_edge(self, stop, reverse):
        # reverse: the same points in reverse order, which moves each point
        # to another row of the block arrays and must change no sum
        lattice = np.linspace(0.05, 16, 320).astype(np.clongdouble)
        for a, b in self.EDGE_ORDERS:
            _, stops = kummer_series_term_by_term(a, b, lattice, EvalConfig())
            zs = tuple(lattice[stops == stop].real.tolist())
            assert zs, (a, b, stop)
            if reverse:
                zs = zs[::-1]
            self.assert_equal_to_reference(a, b, zs)
            self.assert_equal_to_reference(a, b, zs[:1])
            # with the point that stops a block later or earlier
            self.assert_equal_to_reference(a, b, zs[:1] + (0.01, 16.0))

    @pytest.mark.parametrize("cap", [10, 20, 21, 22, 31, 32, 33, 40, 63, 64, 65, 100])
    def test_term_budget(self, cap):
        # the exp series stops on term 20 at z = 1 and on term 31 at z = 3.7
        config = EvalConfig(series_max_terms=cap)
        for z in [(1.0,), (3.7,), (1.0, 3.7, 9.0), (16.0,)]:
            self.assert_equal_to_reference(1, 1, z, config)
            self.assert_equal_to_reference(-3 + 1j, 1 + 2j, z, config)

    @pytest.mark.parametrize("z", [
        (1e300,), (1.0, 1e300), (1e150,), (1.0, 1e150, 2.0), (1e100,), (1e200,),
        (1e300j,), (-1e300,), (750.0,), (1e4,), (0.5, 1e4),
    ])
    @pytest.mark.parametrize("neighbour", [False, True])
    def test_overflow_and_divergence(self, z, neighbour):
        # the reference raises at the first check (term 32, 64, ...) that sees
        # a non-finite partial sum, or after series_max_terms; neighbour adds
        # a point that stops inside the first block, which leaves the error
        # to the points still summing
        if neighbour:
            z = (0.5,) + z
        for cap in (1000, 40):
            self.assert_equal_to_reference(1, 1, z, EvalConfig(series_max_terms=cap))
            self.assert_equal_to_reference(-3 + 1j, 1 + 2j, z,
                                           EvalConfig(series_max_terms=cap))

    def test_raises_past_the_first_block(self):
        # z^m / m! at z = 1e150 leaves the longdouble range after term 32
        with pytest.raises(ConvergenceError, match="not finite after 64 terms"):
            kummer_m(1, 1, 1e150)


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

    @pytest.mark.parametrize("call", [
        lambda: whittaker_w(0.5, 1e-7j, 1.0),
        lambda: whittaker_w(0.5, 1e-7j, (1.0, 2.0)),
        # whittaker_w's generic branch calls _whittaker_w_two_term
        lambda: whittaker_w(0.5, 0.5 + 1e-8j, 1.0),
        lambda: bessel_k_via_w(0.5 + 1e-8j, 1.0),
    ])
    @pytest.mark.parametrize("tabled", [False, True])
    def test_near_degeneracy_warning_names_the_caller(self, call, tabled):
        # the first frame outside kernels.py, past the _tabled wrappers
        with pytest.warns(NearDegeneracyWarning) as caught:
            if tabled:
                with kernels.kernel_table():
                    call()
            else:
                call()
        assert [w.filename for w in caught] == [__file__]

    def test_realness_on_grid(self):
        # the two-term route: whittaker_w's one-term value is real by
        # construction at these orders
        for n in range(9):
            for k in GRID_K:
                for x in GRID_X:
                    w = kernels._whittaker_w_two_term(n + 0.5, 1j * k, 2 * x)
                    assert abs(w.imag) <= 1e-10 * abs(w)


def ieee_bits(values) -> list[int]:
    """The bit patterns of a complex or a complex array, so that equality
    also compares the signs of zeros."""
    return np.asarray(values, dtype=complex).reshape(-1).view(np.int64).tolist()


SWEEP_POOL = json.loads((Path(__file__).resolve().parents[1] / "wbbench" / "reference"
                         / "sweep-pool.json").read_text())


def _stratum_ks(m: int = 5) -> list[float]:
    """The first k of each of the sweep pool's m equal-count strata."""
    ks = sorted(SWEEP_POOL["k_pool"])
    return [ks[j * len(ks) // m] for j in range(m)]


class TestOneTermW:
    """For real kappa and imaginary mu, whittaker_w returns twice the real
    part of the first connection term; the second term is its conjugate bit
    for bit, so the value equals the two-term route's exactly."""

    KS = _stratum_ks() + [1e-3, 0.1, 2.526, 4.9]
    ZS = tuple(2 * x for x in SWEEP_POOL["x_pool"])

    @pytest.mark.parametrize("n", [0, 5, 12, 25])
    @pytest.mark.parametrize("k", KS)
    def test_equals_two_term_route_on_the_pool(self, n, k):
        one = whittaker_w(n + 0.5, 1j * k, self.ZS)
        two = kernels._whittaker_w_two_term(n + 0.5, 1j * k, self.ZS)
        assert ieee_bits(one) == ieee_bits(two)
        # per point, at every eighth pool x
        for z in self.ZS[::8]:
            assert ieee_bits(whittaker_w(n + 0.5, 1j * k, z)) == ieee_bits(
                kernels._whittaker_w_two_term(n + 0.5, 1j * k, z))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(0, 25), k=st.floats(1e-3, 5.0), x=st.floats(0.25, 8.0))
    def test_equals_two_term_route_with_positive_zero_imaginary_part(self, n, k, x):
        value = whittaker_w(n + 0.5, 1j * k, 2 * x)
        assert ieee_bits(value) == ieee_bits(
            kernels._whittaker_w_two_term(n + 0.5, 1j * k, 2 * x))
        assert math.copysign(1.0, value.imag) == 1.0 and value.imag == 0.0

    @pytest.mark.parametrize("route", [whittaker_w, kernels._whittaker_w_two_term])
    def test_near_degeneracy_warns_on_both_routes(self, route):
        with pytest.warns(NearDegeneracyWarning):
            route(1.5, 1e-8j, 2.0)

    def test_extreme_k_fails_alike(self):
        errors = []
        for route in (whittaker_w, kernels._whittaker_w_two_term):
            with pytest.raises(ConvergenceError) as info:
                route(25.5, 600j, 2.0)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_other_orders_take_the_two_term_route(self):
        # complex kappa, and mu off the imaginary axis (bessel_k_via_w's
        # W_{0,1/2+ik}), have no conjugate pair
        for kappa, mu in ((1.5 + 0.5j, 1j), (0.0, 0.5 + 1j)):
            assert ieee_bits(whittaker_w(kappa, mu, (1.0, 3.0))) == ieee_bits(
                kernels._whittaker_w_two_term(kappa, mu, (1.0, 3.0)))


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

    @pytest.mark.parametrize("x", [740.0, 800.0, (1.0, 800.0)])
    def test_underflow_raises(self, x):
        # K below the smallest normal double (x = 740), or an integrand
        # that is 0 at every node (x = 800), as the Whittaker kernels do
        nu = complex(0.5, 1.0)
        with pytest.raises(ConvergenceError):
            bessel_k_quad(nu, x)
        assert abs(bessel_k_quad(nu, 700.0)) >= np.finfo(float).tiny


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
    """The Whittaker kernels' values against mpmath's own whitw and whitm,
    whose formulas the kernels do not share (their second derivatives by the
    contiguous relations are checked in test_ode.py), and Bessel I's bits."""

    @pytest.mark.parametrize("n", [0, 3, 8])
    def test_against_mpmath(self, n):
        import mpmath as mp
        with mp.workdps(30):
            for k in (0.5, 1.0, 2.0):
                kappa, mu = n + 0.5, 1j * k
                for x in (0.5, 2.0, 4.0):
                    for kernel, fn in ((whittaker_w, mp.whitw), (whittaker_m, mp.whitm)):
                        want = complex(fn(kappa, mu, 2 * x))
                        assert abs(kernel(kappa, mu, 2 * x) - want) <= 1e-12 * abs(want)

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

    @pytest.mark.parametrize("k", [0.1, 0.5, 2.526, 4.9])
    @pytest.mark.parametrize("kernel", [bessel_k_quad, bessel_k_via_w])
    def test_k_grid_equals_per_point_calls(self, kernel, k):
        # the n = 8 collocation points span several quadrature cutoffs, and
        # each point stops halving by its own test
        from wbident.lambda_poly import default_collocation_points
        xs = self.XS + tuple(default_collocation_points(8))
        nu = complex(0.5, k)
        values = kernel(nu, xs)
        assert values.dtype == complex and values.shape == (len(xs),)
        assert not values.flags.writeable
        assert values.tolist() == [kernel(nu, x) for x in xs]

    def test_k_grid_fails_when_one_point_fails(self):
        # with this budget x = 8 converges on its own and x = 16 does not
        cfg = EvalConfig(quad_max_halvings=3, quad_step=1.0)
        nu = complex(0.5, 2.0)
        bessel_k_quad(nu, 8.0, cfg)
        with pytest.raises(ConvergenceError):
            bessel_k_quad(nu, (8.0, 16.0), cfg)

    def test_laguerre_branch_and_kummer_on_a_grid(self):
        zs = (0.5, 2.0, 7.0)
        assert whittaker_w(2.5, 0.0, zs).tolist() == [whittaker_w(2.5, 0.0, z) for z in zs]
        assert kummer_m(0.5, 1.5j, zs).tolist() == [kummer_m(0.5, 1.5j, z) for z in zs]

    @pytest.mark.parametrize("call", [
        lambda: [kummer_m(1, 1, ())],
        lambda: [whittaker_w(2.5, 1j, ())],
        lambda: [whittaker_w(2.5, 0.0, ())],
        lambda: [whittaker_m(2.5, 1j, ())],
        lambda: [kernels._whittaker_w_two_term(2.5, 1j, ())],
        lambda: [bessel_k_quad(0.5 + 1j, ())],
        lambda: [bessel_k_via_w(0.5 + 1j, ())],
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
        lambda: bessel_k_quad(0.5 + 1j, (1.0, -2.0)),
        lambda: bessel_k_via_w(0.5 + 1j, (1.0, float("nan"))),
    ])
    def test_any_nonpositive_k_point_is_refused(self, call):
        with pytest.raises(InputError):
            call()

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

    def test_gamma_prefactor_below_the_longdouble_range_raises(self):
        # Gamma(-2i) / Gamma(5000.5 - i) rounds to 0 even in 80 bits, and so
        # would W; mu = 1e300 i reaches it too, now that log Gamma is finite
        for kappa, mu in ((-5000.0, 1j), (1.5, 1e300j)):
            with pytest.raises(ConvergenceError, match="underflows the longdouble range"):
                whittaker_w(kappa, mu, 2.0)

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
            assert counted(1.0, 2.0, config=None) == 4
            assert counted(1.0, 2.0, config=None) == 4
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
        # one grid entry per call, plus one point entry per grid point
        zs = (1.0, 2.0, 4.0)
        with kernels.kernel_table():
            values = whittaker_w(3.5, 1j, zs)
            assert whittaker_w(3.5, 1j, zs) is values
            m = whittaker_m(3.5, 1j, zs)
            table = kernels._TABLE.get()
            grids = {key for key in table if type(key[1][2]) is tuple}
            assert grids == {(fn.__wrapped__, (3.5, 1j, zs), ())
                             for fn in (whittaker_w, whittaker_m)}
            assert {key: value for key, value in table.items() if key not in grids} == {
                (fn.__wrapped__, (3.5, 1j, z), ()): v
                for fn, grid in ((whittaker_w, values), (whittaker_m, m))
                for z, v in zip(zs, grid.tolist())}
            for stored in (values, m):
                with pytest.raises(ValueError):
                    stored[0] = 0j

    GRIDDED = [
        (whittaker_m, (8.5, 2.526j)), (whittaker_w, (8.5, 2.526j)),
        (whittaker_w, (0.0, 0.5 + 1j)), (kernels._whittaker_w_two_term, (8.5, 2.526j)),
        (bessel_k_quad, (0.5 + 2j,)), (bessel_k_via_w, (0.5 + 2j,)),
    ]

    @staticmethod
    def entries(kernel, call) -> int:
        """How often call() enters the body of the tabled kernel."""
        code = kernel.__wrapped__.__code__
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and frame.f_code is code

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return count

    @pytest.mark.parametrize("kernel, orders", GRIDDED,
                             ids=[f"{fn.__name__}{orders}" for fn, orders in GRIDDED])
    def test_grid_serves_its_points(self, kernel, orders):
        # a per-point call after a grid call that holds the point does not
        # enter the kernel, and returns the bits of an untabled call
        xs = (0.5, 1.1, 2.0, 3.3, 6.5)
        bits = lambda v: (v.real.hex(), v.imag.hex())
        plain = [bits(kernel(*orders, x)) for x in xs]
        with kernels.kernel_table():
            assert self.entries(kernel, lambda: kernel(*orders, xs)) == 1
            served = []
            assert self.entries(kernel, lambda: served.extend(
                kernel(*orders, x) for x in xs)) == 0
            cfg = EvalConfig()
            assert self.entries(kernel, lambda: kernel(*orders, xs[0], cfg)) == 1
        assert all(type(v) is complex for v in served)
        assert [bits(v) for v in served] == plain

    def test_raising_grid_call_tables_no_points(self):
        # with this budget x = 8 converges on its own and x = 16 does not
        cfg = EvalConfig(quad_max_halvings=3, quad_step=1.0)
        nu = complex(0.5, 2.0)
        with kernels.kernel_table():
            with pytest.raises(ConvergenceError):
                bessel_k_quad(nu, (8.0, 16.0), cfg)
            assert kernels._TABLE.get() == {}
            assert self.entries(bessel_k_quad, lambda: bessel_k_quad(nu, 8.0, cfg)) == 1

    @pytest.mark.parametrize("kernel, orders", GRIDDED,
                             ids=[f"{fn.__name__}{orders}" for fn, orders in GRIDDED])
    def test_held_points_serve_a_grid(self, kernel, orders):
        # a grid call whose every point is held, here by two other grids,
        # does not enter the kernel and returns the bits of an untabled grid
        # call; one point not held and the grid is evaluated
        xs = (0.5, 1.1, 2.0, 3.3, 6.5)
        hexes = TestColumn.hexes
        plain = kernel(*orders, xs[::-1])
        with kernels.kernel_table():
            kernel(*orders, xs[:3])
            kernel(*orders, xs[2:])
            served = []
            assert self.entries(kernel, lambda: served.append(kernel(*orders, xs[::-1]))) == 0
            assert self.entries(kernel, lambda: kernel(*orders, xs + (7.0,))) == 1
        assert served[0].dtype == complex and not served[0].flags.writeable
        assert hexes(served[0]) == hexes(plain)

    def test_held_points_do_not_serve_a_column(self):
        # a tuple of orders is a column: it is evaluated whatever points the
        # table holds, so its refusals hold
        with kernels.kernel_table():
            for kappa in (0.5, 1.5):
                whittaker_w(kappa, 0.0, 2.0)
                whittaker_w(kappa + 2, 1j, 2.0)
            with pytest.raises(InputError, match="column"):
                whittaker_w((0.5, 1.5), 0.0, 2.0)
            assert self.entries(whittaker_w, lambda: whittaker_w((2.5, 3.5), 1j, 2.0)) == 1

    def test_values_match_untabled_calls(self):
        nu = complex(0.5, 1.0)
        plain = [whittaker_w(3.5, 1j, 3.0), whittaker_m(3.5, 1j, 3.0),
                 bessel_i(nu, 1.5), bessel_k_quad(nu, 1.5),
                 bessel_k_via_w(nu, 1.5)]
        with kernels.kernel_table():
            for _ in range(2):
                assert [whittaker_w(3.5, 1j, 3.0),
                        whittaker_m(3.5, 1j, 3.0),
                        bessel_i(nu, 1.5), bessel_k_quad(nu, 1.5),
                        bessel_k_via_w(nu, 1.5)] == plain


class TestColumn:
    """A tuple of kappa is a column: one Kummer series over every (kappa, z)
    pair, each with its own a, and one read-only row per kappa that equals
    the call at that kappa bit for bit."""

    KAPPAS = tuple(n + 0.5 for n in range(26))
    GRIDS = {"one point": (1.0,), "default": GRID_X,
             "twelve": tuple(np.linspace(0.25, 8.0, 12).tolist())}
    ROUTES = [whittaker_w, kernels._whittaker_w_two_term]

    @staticmethod
    def hexes(values) -> list[str]:
        return [h for v in np.ravel(values).tolist()
                for h in (v.real.hex(), v.imag.hex())]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("k", [1e-3, 0.1, 0.5, 2.526, 4.9])
    @pytest.mark.parametrize("kernel", ROUTES)
    def test_rows_equal_per_kappa_and_per_point_calls(self, kernel, k, grid):
        zs = tuple(2 * x for x in self.GRIDS[grid])
        column = kernel(self.KAPPAS, 1j * k, zs)
        assert column.dtype == complex and column.shape == (26, len(zs))
        assert not column.flags.writeable
        for kappa, row in zip(self.KAPPAS, column):
            assert self.hexes(row) == self.hexes(kernel(kappa, 1j * k, zs))
            assert self.hexes(row) == self.hexes([kernel(kappa, 1j * k, z) for z in zs])
        # at a scalar z, one value per kappa
        assert self.hexes(kernel(self.KAPPAS, 1j * k, zs[0])) == self.hexes(column[:, 0])

    @pytest.mark.parametrize("kappas, mu", [((0.0, 1.5, -2.0), 0.5 + 1j),
                                            ((1.5 + 0.5j, 3.5 - 2j), 1j)])
    def test_generic_orders_take_the_two_term_route(self, kappas, mu):
        zs = (1.0, 3.0, 9.0)
        column = whittaker_w(kappas, mu, zs)
        assert self.hexes(column) == self.hexes(kernels._whittaker_w_two_term(kappas, mu, zs))
        assert self.hexes(column) == self.hexes([whittaker_w(kappa, mu, zs) for kappa in kappas])

    @pytest.mark.parametrize("kernel", ROUTES)
    def test_column_serves_its_grids_and_points(self, kernel):
        # inside kernel_table, the per-n grid calls and the per-point calls
        # after a column call do not enter the kernel, and return its bits
        zs = tuple(2 * x for x in GRID_X)
        kappas, mu = self.KAPPAS[:9], 0.5j
        entries = TestKernelTable.entries
        with kernels.kernel_table():
            column = []
            assert entries(kernel, lambda: column.append(kernel(kappas, mu, zs))) == 1
            grids, points = [], []
            assert entries(kernel, lambda: grids.extend(
                kernel(kappa, mu, zs) for kappa in kappas)) == 0
            assert entries(kernel, lambda: points.extend(
                kernel(kappa, mu, z) for kappa in kappas for z in zs)) == 0
        assert all(not g.flags.writeable for g in grids)
        assert all(type(v) is complex for v in points)
        assert self.hexes(grids) == self.hexes(points) == self.hexes(column)

    @pytest.mark.parametrize("kernel", ROUTES)
    def test_raising_column_stores_nothing(self, kernel):
        with kernels.kernel_table():
            with pytest.raises(ConvergenceError):
                kernel((0.5, 1.5), 1j, (1.0, 2.0), EvalConfig(series_max_terms=10))
            assert kernels._TABLE.get() == {}

    @pytest.mark.parametrize("kappas, mu", [((0.5, 1.5), 0.0), ((1.5, 1.5 + 1j), 1j)])
    def test_column_off_its_branches_is_refused(self, kappas, mu):
        # mu = 0 (the Laguerre branch), and a column that mixes the one-term
        # and the two-term branch
        with pytest.raises(InputError):
            whittaker_w(kappas, mu, (1.0, 2.0))


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

    @pytest.mark.parametrize("nu", [complex(-0.5, 1.0), complex(0.3, -0.7), 0.5])
    def test_bessel_k_at_other_orders_matches_mpmath_besselk(self, nu):
        # Re nu = 1/2 takes x^{1/2} as a square root, any other Re nu as a
        # power
        import mpmath as mp
        from wbident import oracle
        with mp.workdps(EvalConfig().oracle_dps):
            for x in (0.25, 2.0, 8.0):
                got = oracle.bessel_k(nu, x)
                want = mp.besselk(mp.mpc(nu), mp.mpf(x))
                assert abs(got - want) <= self.ORACLE_TOL * abs(want), x

    @pytest.mark.parametrize("nu,x", [(0.5 + 1j, -1.0), (0.5 + 1j, 0.0),
                                      (0.5 + 1j, [2.0, -1.0]), (1.0, 1.0),
                                      (-2.0, 1.0), (0.5 + 1j, float("nan"))])
    def test_bessel_k_outside_its_domain_is_input_error(self, nu, x):
        # x <= 0 used to give a finite number or ZeroDivisionError, and so
        # did integer nu, where sin(pi nu) = 0
        from wbident import oracle
        with pytest.raises(InputError):
            oracle.bessel_k(nu, x)

    @pytest.mark.parametrize("kind", ["K", "W"])
    def test_large_x_raises_the_guard_by_the_cancellation(self, kind):
        # K_{1/2+i}(60) and W_{5/2,i}(120) end in terms near e^60 that cancel
        # to e^-60, about 173 bits, more than the 64 guard bits: they were off
        # by 1.7e-19 and 2.3e-29 when the guard stayed at 64
        import mpmath as mp
        from wbident import oracle
        with mp.workdps(120):
            want = (mp.besselk(mp.mpc(0.5, 1), 60) if kind == "K"
                    else mp.whitw(mp.mpf(2.5), mp.mpc(0, 1), 120))
        with mp.workdps(EvalConfig().oracle_dps):
            got = (oracle.bessel_k(complex(0.5, 1.0), 60.0) if kind == "K"
                   else oracle.whittaker_w(2.5, 1j, 120.0))
        with mp.workdps(120):
            assert abs(got - want) <= 1e-45 * abs(want)

    def test_guard_stays_where_the_fit_evaluates(self):
        # up to x = 11 the cancellation leaves at least 32 of the 64 guard
        # bits, so every collocation value (x <= 6) keeps its bits
        import mpmath as mp
        from wbident import oracle
        assert oracle._guard([mp.mpf(6), mp.mpf(11)]) == 64
        assert oracle._guard([mp.mpf(1), mp.mpf(12)]) == 64 + 35
        assert oracle._guard([]) == 64

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_master_batch_k_within_one_ulp_of_bessel_k(self, k):
        # the fit's K comes from one batch over the master set; each value,
        # rounded to the working precision, is within one unit in the last
        # place of the point's own oracle.bessel_k
        import mpmath as mp
        from wbident import oracle
        from wbident.lambda_poly import COLLOCATION_MASTER
        config = EvalConfig()
        _, by_x = oracle._master_factors(k, config)
        assert list(by_x) == list(COLLOCATION_MASTER)
        with mp.workdps(config.oracle_dps):
            for x, (_, _, kx) in by_x.items():
                got, want = oracle._to_mpc(kx), oracle.bessel_k(complex(0.5, k), x)
                for g, w in ((got.real, want.real), (got.imag, want.imag)):
                    assert abs(g - w) <= mp.ldexp(1, mp.mag(w) - mp.mp.prec), (x, g, w)

    @pytest.mark.parametrize("n", [2, 5, 7])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_master_batch_gives_the_system_of_the_fit_points(self, n, k, monkeypatch):
        # the default points of n < 8 hold both ends of the range, so a
        # batch on them shares the master batch's largest point, its series
        # coefficients and so its bits: the system is the one built on the
        # fit's own points
        from wbident import lambda_poly, oracle
        args = OrderParams(n=n, k=k), lambda_poly.default_collocation_points(n), EvalConfig()
        from_master = oracle._design_system(*args)
        monkeypatch.setattr(oracle, "_MASTER_POINTS", frozenset())
        assert oracle._design_system(*args) == from_master

    def test_fits_inside_and_outside_the_table_agree(self):
        # inside kernel_table the master factors are evaluated once per k
        # and serve every fit at that k; each fit equals the untabled one
        from wbident import lambda_poly, oracle
        cells = [(n, k) for n in (3, 5, 8) for k in (0.5, 2.0)]
        fit = lambda n, k: oracle.collocation_fit(
            OrderParams(n=n, k=k), lambda_poly.default_collocation_points(n))
        plain = [fit(n, k) for n, k in cells]
        with kernels.kernel_table():
            tabled = []
            assert TestKernelTable.entries(oracle._master_factors, lambda: tabled.extend(
                fit(n, k) for n, k in cells)) == 2
        assert tabled == plain

    def test_fit_off_the_master_set_evaluates_its_own_points(self):
        # n = 5's Chebyshev set of its own holds points outside the master
        # set; the fit evaluates its factors there and still recovers the
        # recurrence's coefficients
        import math
        from wbident import lambda_poly, oracle
        lo, hi = lambda_poly.COLLOCATION_RANGE
        xs = [lo + (hi - lo) * (1 - math.cos(math.pi * j / 23)) / 2 for j in range(24)]
        assert not set(xs) <= set(lambda_poly.COLLOCATION_MASTER)
        params = OrderParams(n=5, k=0.5)
        with kernels.kernel_table():
            fitted, misfit = oracle.collocation_fit(params, xs)
            assert kernels._TABLE.get() == {}
        config = EvalConfig()
        assert misfit <= config.collocation_resid_tol
        want = lambda_poly.coeffs_from_recurrence(params).a
        assert max(abs(f - w) / abs(w) for f, w in zip(fitted, want)) <= config.oracle_match_tol

    def test_empty_lists_give_empty_lists(self):
        from wbident import oracle
        assert oracle.bessel_k(0.5 + 1j, []) == []
        assert oracle.whittaker_w(3.5, 1j, ()) == []

    @pytest.mark.parametrize("evaluator", ["hyp0f1", "hyp1f1"])
    def test_mpmath_non_convergence_is_structured_error(self, evaluator):
        # the 0F1 series serves I inside oracle.bessel_k, the 1F1 series M
        # inside oracle.whittaker_w; both run in every collocation fit, and
        # neither converges in 10 terms at these arguments
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
                    got, want = oracle._to_mpc(got), mp.hyp1f1(a, b, z)
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
            got = oracle._to_mpc(oracle._hyp_series(a, b, [z], 1000)[0])
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
                    got, want = oracle._to_mpc(got), mp.hyp0f1(b, z)
                    assert abs(got - want) <= 1e-45 * abs(want), (b, z)

    @pytest.mark.parametrize("n,k", [(3, 0.5), (8, 0.5), (8, 2.0)])
    def test_integer_householder_matches_mpmath_qr_solve(self, n, k):
        # 50-digit design matrices, as the integer rows the fit solves;
        # at n = 8 the condition is ~1e16
        from wbident import lambda_poly, oracle
        cols, data, _, frac = oracle._design_system(
            OrderParams(n=n, k=k), lambda_poly.default_collocation_points(n),
            EvalConfig())
        self.assert_matches_qr_solve(cols, data, frac, 1e-30)

    def test_integer_householder_on_a_well_conditioned_system(self):
        import random
        rng = random.Random(12)
        frac = 233
        cols = [[rng.randrange(-1 << frac, 1 << frac) for _ in range(12)]
                for _ in range(6)]
        data = [rng.randrange(-1 << frac, 1 << frac) for _ in range(12)]
        self.assert_matches_qr_solve(cols, data, frac, 1e-45)

    @staticmethod
    def assert_matches_qr_solve(cols, data, frac, tol):
        """The integer solve of the fixed-point system (columns cols, data
        data, both in units of 2**-frac) agrees with mpmath's qr_solve of
        the same system to tol of the largest unknown."""
        import mpmath as mp
        from wbident import oracle
        got = oracle._householder_lstsq(cols, data, frac)
        with mp.workdps(EvalConfig().oracle_dps):
            rows = mp.matrix([[mp.ldexp(c[i], -frac) for c in cols]
                              for i in range(len(data))])
            want = mp.qr_solve(rows, mp.matrix([mp.ldexp(d, -frac) for d in data]))[0]
            big = max(abs(w) for w in want)
            assert max(abs(mp.ldexp(g, -frac) - w)
                       for g, w in zip(got, want)) <= tol * big


def mutant_oracle(old: str = "", new: str = ""):
    """A copy of wbident.oracle with the source text `old` (which must occur
    exactly once) replaced by `new`, loaded as a module of the package; an
    unchanged copy without arguments."""
    import importlib.util
    import inspect

    from wbident import oracle
    source = inspect.getsource(oracle)
    assert not old or source.count(old) == 1, old
    spec = importlib.util.spec_from_loader("wbident._oracle_mutant", loader=None)
    module = importlib.util.module_from_spec(spec)
    exec(compile(source.replace(old, new), oracle.__file__, "exec"), module.__dict__)
    return module


class TestOracleMutants:
    """Mutants of the fixed-point W and K pipeline that the 50-digit
    collocation fit shares with the public evaluators, each applied to a
    copy of the module source, and the guard that catches each.

    The fit cannot see a conjugated shared phase e^{ik ln x}: with both W and
    K conjugated, the identity holds for the conjugated coefficients of the
    other mode (the two modes x^{1/2 +- ik} are symmetric), which the fit then
    returns to within rounding.  Only the comparisons of the public
    evaluators with mpmath's whitw and besselk catch it, which is why those
    evaluators run through the same internals as the fit."""

    MUTANTS = {
        # name: (source text, mutated text, guard)
        "W without its sqrt(x)": (
            "_, man, exp, _ = mpf_exp(mpf_neg(x._mpf_), bits)",
            "_, man, exp, _ = (mp.exp(-x) / mp.sqrt(x))._mpf_",
            "misfit"),
        "K with its phase conjugated": (
            "in zip(powers, minus, plus):",
            "in zip([((p[0], -p[1], p[2]), (q[0], -q[1], q[2])) "
            "for p, q in powers], minus, plus):",
            "misfit"),
        "the shared phase conjugated in W and K": (
            "mpf_cos_sin(mpf_mul(tau, log_x), bits)",
            "mpf_cos_sin(mpf_neg(mpf_mul(tau, log_x)), bits)",
            "mpmath"),
    }
    CELLS = [(1, 0.5), (4, 1.0), (8, 2.0)]

    @staticmethod
    def fit_report(oracle, n, k):
        """(misfit, largest relative deviation from the recurrence)."""
        from wbident.lambda_poly import (coeffs_from_recurrence,
                                         default_collocation_points)
        params = OrderParams(n=n, k=k)
        fitted, misfit = oracle.collocation_fit(params, default_collocation_points(n))
        want = coeffs_from_recurrence(params).a
        return misfit, max(abs(f - w) / abs(w) for f, w in zip(fitted, want))

    def test_unmutated_copy_passes_every_guard(self):
        import mpmath as mp
        config = EvalConfig()
        oracle = mutant_oracle()
        for n, k in self.CELLS:
            misfit, dev = self.fit_report(oracle, n, k)
            assert misfit <= config.collocation_resid_tol
            assert dev <= config.oracle_match_tol
        with mp.workdps(config.oracle_dps):
            w = oracle.whittaker_w(4.5, 1j, 4.0)
            assert abs(w - mp.whitw(4.5, 1j, 4)) <= TestOracle.ORACLE_TOL * abs(w)

    @pytest.mark.parametrize("name", [n for n, m in MUTANTS.items() if m[2] == "misfit"])
    def test_misfit_guard_catches(self, name):
        old, new, _ = self.MUTANTS[name]
        oracle = mutant_oracle(old, new)
        for n, k in self.CELLS:
            misfit, _ = self.fit_report(oracle, n, k)
            assert misfit > EvalConfig().collocation_resid_tol, (n, k)

    @pytest.mark.parametrize("name", [n for n, m in MUTANTS.items() if m[2] == "mpmath"])
    def test_fit_is_blind_and_mpmath_comparison_catches(self, name):
        import mpmath as mp
        config = EvalConfig()
        old, new, _ = self.MUTANTS[name]
        oracle = mutant_oracle(old, new)
        for n, k in self.CELLS:
            misfit, dev = self.fit_report(oracle, n, k)
            assert misfit <= config.collocation_resid_tol
            assert dev <= config.oracle_match_tol
        with mp.workdps(config.oracle_dps):
            w = oracle.whittaker_w(4.5, 1j, 4.0)
            assert abs(w - mp.whitw(4.5, 1j, 4)) > TestOracle.ORACLE_TOL * abs(w)
            kv = oracle.bessel_k(0.5 + 1j, 2.0)
            want = mp.besselk(mp.mpc(0.5, 1), 2)
            assert abs(kv - want) > TestOracle.ORACLE_TOL * abs(want)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(0, 8), k=st.floats(0.05, 5.0))
def test_collocation_fit_matches_recurrence_or_raises_wbident_error(n, k):
    from wbident import oracle
    config = EvalConfig()
    try:
        misfit, dev = TestOracleMutants.fit_report(oracle, n, k)
    except WbidentError:
        return
    assert misfit <= config.collocation_resid_tol
    assert dev <= config.oracle_match_tol
