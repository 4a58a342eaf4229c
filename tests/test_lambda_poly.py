"""Tests for coefficient construction, its (1-ik)_n start, the series
oracle and the collocation oracle."""

import inspect
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbident.core import SQRT_PI
from wbident.errors import InputError, InvariantViolationError
from wbident import lambda_poly
from wbident.kernels import OrderParams
from wbident.lambda_poly import (COLLOCATION_MASTER, COLLOCATION_MASTER_N,
                                 COLLOCATION_RANGE, CONVENTION_MINUS, SERIES_TAIL,
                                 CoeffVector, boundary_coeffs, check_second_order,
                                 coeffs_from_recurrence, collocation_oracle,
                                 default_collocation_points,
                                 laguerre_closed_form, series_oracle,
                                 series_oracle_residuals, top_coeff_residuals)
from wbident.ode import coupled_residual
from wbident.report import relative_residual
from wbident.suite import coefficient_reports

K_SET = (0.1, 0.5, 1.0, 2.0, 5.0)


def fraction_coeffs(n, k, sign=-1):
    """Reference: a_m * sqrt(pi) iterated on Fraction pairs from
    a_1 = (-1)^n prod_j (1 + j + sign*ik), each rounded once at the end."""
    k = Fraction(k)
    re, im = Fraction((-1) ** n), Fraction(0)
    for j in range(n):
        re, im = re * (1 + j) - im * sign * k, re * sign * k + im * (1 + j)
    out = [(re, im)]
    for m in range(1, n + 1):
        nr, ni = (2 + 2 * n - 2 * m) * re, (2 * n + 2 * m) * im
        dr, di = Fraction(m * m), -2 * m * k          # m (m - 2ik)
        den = dr * dr + di * di
        re, im = -(nr * dr + ni * di) / den, -(ni * dr - nr * di) / den
        out.append((re, im))
    return out


def plus_start():
    """_scaled_coeffs started from (1+ik)_n, compiled from its source."""
    source = inspect.getsource(lambda_poly._scaled_coeffs)
    assert source.count("ip = -p") == 1
    namespace = dict(vars(lambda_poly))
    exec(source.replace("ip = -p", "ip = p"), namespace)
    return namespace["_scaled_coeffs"]


def rounded(exact):
    return tuple(complex(float(re) * (1 / SQRT_PI), float(im) * (1 / SQRT_PI))
                 for re, im in exact)


class TestBoundaryCoeffs:
    def test_n0_both_equal(self):
        a1, atop = boundary_coeffs(OrderParams(n=0, k=1.0))
        assert abs(a1 - 1 / SQRT_PI) < 1e-15
        assert abs(atop - 1 / SQRT_PI) < 1e-15

    def test_n1_k0_laguerre_values(self):
        a1, atop = boundary_coeffs(OrderParams(n=1, k=0.0))
        assert abs(a1 - (-1 / SQRT_PI)) < 1e-15
        assert abs(atop - 2 / SQRT_PI) < 1e-15

    def test_n1_k1_resolved_convention(self):
        a1, _ = boundary_coeffs(OrderParams(n=1, k=1.0))
        assert abs(a1 - (-(1 - 1j) / SQRT_PI)) < 1e-15


class TestRecurrence:
    def test_n1_k1_hand_iteration(self):
        cv = coeffs_from_recurrence(OrderParams(n=1, k=1.0))
        assert abs(cv.a[0] - (-(1 - 1j) / SQRT_PI)) < 1e-15
        assert abs(cv.a[1] - 2 / SQRT_PI) < 1e-15

    def test_n2_k0_matches_laguerre_expansion(self):
        # lambda = (2!/sqrt(pi)) x L_2(2x) = (2x - 8x^2 + 4x^3)/sqrt(pi)... wait,
        # expanded by hand: (1/sqrt(pi)) (2x - 8x^2 + 4x^3)
        cv = coeffs_from_recurrence(OrderParams(n=2, k=0.0))
        want = [2 / SQRT_PI, -8 / SQRT_PI, 4 / SQRT_PI]
        for m, w in enumerate(want, start=1):
            assert abs(cv.a[m - 1] - w) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_k0_coefficients_real(self, n):
        cv = coeffs_from_recurrence(OrderParams(n=n, k=0.0))
        assert all(c.imag == 0 for c in cv.a)

    @pytest.mark.parametrize("k", K_SET)
    def test_top_coefficient_all_n(self, k):
        for n in range(21):
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            expected = 2 ** n / SQRT_PI
            assert abs(cv.a[-1] - expected) <= 1e-12 * expected
            assert abs(cv.a[-1].imag) <= 1e-12 * expected

    @pytest.mark.parametrize("k", K_SET + (0.0, 600.0, 1e300))
    def test_top_coeff_residuals_vanish_exactly(self, k):
        for n in range(26):
            assert top_coeff_residuals(OrderParams(n=n, k=k)) == [0.0, 0.0]

    def test_top_coeff_residuals_read_a_rescale(self, monkeypatch):
        # every integer times 1 + 1e-11 (denominators times 10^11)
        original = lambda_poly._scaled_coeffs

        def rescaled(n, k):
            return [(re * (10 ** 11 + 1), im * (10 ** 11 + 1), d * 10 ** 11)
                    for re, im, d in original(n, k)]
        monkeypatch.setattr(lambda_poly, "_scaled_coeffs", rescaled)
        params = OrderParams(n=4, k=1.0)
        deviation, imag = top_coeff_residuals(params)
        assert deviation == pytest.approx(1e-11, rel=1e-9) and imag == 0.0
        # any nonzero defect fails the check and stops coeffs_from_recurrence
        (rep,) = coefficient_reports(params)
        assert not rep.passed
        with pytest.raises(InvariantViolationError, match="not exactly 2\\^n"):
            coeffs_from_recurrence(params)

    @pytest.mark.parametrize("k", K_SET)
    def test_first_order_recurrence_residuals(self, k):
        # the recurrence at m = 1..n is the coupled equation's x^{m-1}
        # coefficient, which vanishes exactly on the integers
        for n in (3, 8, 15, 20):
            rep = coupled_residual(OrderParams(n=n, k=k))
            assert tuple(rep.residuals[:n]) == (0.0,) * n

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(0, 25), k=st.floats(1e-3, 5.0))
    def test_negative_k_is_exact_conjugate(self, n, k):
        plus = coeffs_from_recurrence(OrderParams(n=n, k=k)).a
        minus = coeffs_from_recurrence(OrderParams(n=n, k=-k)).a
        assert minus == tuple(c.conjugate() for c in plus)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(0, 25),
           k=st.one_of(st.just(0.0), st.floats(1e-6, 5.0)))
    def test_bit_identical_to_fraction_iteration(self, n, k):
        exact = fraction_coeffs(n, k)
        assert coeffs_from_recurrence(OrderParams(n=n, k=k)).a == rounded(exact)
        if k == 0:
            assert laguerre_closed_form(n).a == rounded(exact)
        # the (1-ik)_n start reproduces a real 2^n top
        assert exact[-1] == (2 ** n, 0)

    def test_smallest_subnormal_k_builds(self):
        cv = coeffs_from_recurrence(OrderParams(n=25, k=5e-324))
        assert cv.a == rounded(fraction_coeffs(25, 5e-324))

    @pytest.mark.parametrize("n", [2, 25])
    def test_huge_k_exceeds_double_range(self, n):
        with pytest.raises(InputError, match="double range"):
            coeffs_from_recurrence(OrderParams(n=n, k=1e300))

    def test_degree_structure(self):
        cv = coeffs_from_recurrence(OrderParams(n=5, k=0.7))
        lam = cv.lam_poly()
        assert lam.degree() == 6
        assert lam.coef[0] == 0
        assert cv.big_lambda_poly().degree() == 5

    def test_polynomial_value_is_horner_loop(self):
        # the default domain and window make p(x) the plain Horner loop
        for n, k in [(3, 0.5), (8, 1.0), (25, 2.0)]:
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            for x in (0.25, 1.0, 3.7, 8.0):
                acc = 0j
                for c in reversed(cv.a):
                    acc = acc * x + c
                assert complex(cv.big_lambda_poly()(x)) == acc

    def test_wrong_convention_rejected(self, monkeypatch):
        # the (1+ik)_n start, a source mutant that the Fraction reference
        # confirms, drives a_{n+1} off 2^n/sqrt(pi) (to -2^n at n = 3, k = 1)
        mutant = plus_start()
        for n, k in [(1, 1.0), (3, 1.0), (8, 0.3)]:
            want = fraction_coeffs(n, k, sign=1)
            assert [(Fraction(re, d), Fraction(im, d))
                    for re, im, d in mutant(n, k)] == want
            assert want[-1] != (2 ** n, 0)
        assert fraction_coeffs(3, 1.0, sign=1)[-1] == (-8, 0)
        monkeypatch.setattr(lambda_poly, "_scaled_coeffs", mutant)
        for n in (1, 3, 8):
            with pytest.raises(InvariantViolationError):
                coeffs_from_recurrence(OrderParams(n=n, k=1.0))
        # and coeffs_from_recurrence takes no convention to pick it by
        with pytest.raises(TypeError):
            coeffs_from_recurrence(OrderParams(n=1, k=1.0), convention="bogus")

    def test_json_export_shape(self):
        cv = coeffs_from_recurrence(OrderParams(n=2, k=1.0))
        d = cv.as_json_dict()
        assert d["n"] == 2 and d["k"] == 1.0
        assert d["convention"] == CONVENTION_MINUS
        assert len(d["a"]) == 3 and all(len(pair) == 2 for pair in d["a"])


class TestLaguerreClosedForm:
    def test_n0(self):
        cv = laguerre_closed_form(0)
        assert abs(cv.a[0] - 1 / SQRT_PI) < 1e-15

    def test_n1(self):
        # lambda = (2x^2 - x)/sqrt(pi)
        cv = laguerre_closed_form(1)
        assert abs(cv.a[0] + 1 / SQRT_PI) < 1e-15
        assert abs(cv.a[1] - 2 / SQRT_PI) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 13, 20])
    def test_matches_recurrence_at_k0(self, n):
        # the library serves k = 0 from the recurrence, so this is exact
        assert coeffs_from_recurrence(OrderParams(n=n, k=0.0)) == laguerre_closed_form(n)

    def test_k_to_zero_continuity(self):
        # recurrence coefficients approach the Laguerre ones linearly in k
        for n in (2, 5):
            closed = laguerre_closed_form(n)
            dev = {}
            for k in (1e-3, 2e-3):
                cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
                dev[k] = max(abs(cv.a[m - 1] - closed.a[m - 1]) / abs(closed.a[m - 1])
                             for m in range(1, n + 2))
            assert dev[1e-3] <= 1e-2
            assert 1.5 <= dev[2e-3] / dev[1e-3] <= 2.5


def float_second_order(cv: CoeffVector, variant: str) -> list[float]:
    """Reference: the five-factor recurrence on the rounded coefficients, in
    complex double, m = 1..n-1."""
    n, ik = cv.params.n, 1j * cv.params.k
    out = []
    for m in range(1, n):
        lead = m * (m + 1) * (2 * m - 1)
        if variant == "printed":
            c = (lead * (m + 2 * ik) * (m - 1 - 2 * ik),
                 (1 + 2 * n) * m * (3 * m * m + m - 2 * ik),
                 -4.0 * (1 + 2 * m) * (n + m) * (1 + n - m))
        else:
            c = (lead * (m + 2 * ik) * (m + 1 - 2 * ik),
                 4 * (1 + 2 * n) * m * (m * m - ik),
                 4.0 * (1 + 2 * m) * (n + m) * (1 + n - m))
        out.append(relative_residual([c[0] * cv.a[m + 1], c[1] * cv.a[m],
                                      c[2] * cv.a[m - 1]]))
    return out


class TestSecondOrderRecurrence:
    def test_derived_variant_holds(self):
        # exactly, on the integers of the coefficients
        for n in range(3, 26):
            for k in (0.0, 0.1, 0.5, 1.0, 2.0, 2.526):
                rep = check_second_order(OrderParams(n=n, k=k), "derived")
                assert len(rep.grid) == n - 1
                assert rep.max_residual == 0.0, (n, k)

    def test_printed_variant_fails_and_is_advisory(self):
        rep = check_second_order(OrderParams(n=5, k=0.5), "printed")
        assert rep.advisory
        assert not rep.passed
        assert rep.max_residual > 0.1

    def test_printed_defect_matches_float(self):
        for n in range(3, 13):
            for k in K_SET:
                params = OrderParams(n=n, k=k)
                exact = check_second_order(params, "printed").residuals
                floats = float_second_order(coeffs_from_recurrence(params), "printed")
                for e, f in zip(exact, floats, strict=True):
                    assert abs(e - f) <= 1e-15 * e, (n, k)

    def test_small_n_empty_report(self):
        for n in (0, 1, 2):
            rep = check_second_order(OrderParams(n=n, k=1.0))
            assert rep.grid == () and rep.passed

    def test_unknown_variant(self):
        with pytest.raises(InputError):
            check_second_order(OrderParams(n=4, k=1.0), "bogus")

    def test_laguerre_comparison_at_k0(self):
        # at k = 0 the integers are the Laguerre ones (criterion 4)
        params = OrderParams(n=6, k=0.0)
        assert check_second_order(params, "derived").max_residual == 0.0
        assert check_second_order(params, "printed").max_residual > 0.1


class TestCollocationOracle:
    def test_n0_constant_lambda(self):
        cv = collocation_oracle(OrderParams(n=0, k=1.0))
        assert abs(cv.a[0] - 1 / SQRT_PI) <= 1e-10

    def test_n1_matches_recurrence(self):
        # the 50-digit fit, rounded once, against the recurrence's rounding
        params = OrderParams(n=1, k=1.0)
        fit = collocation_oracle(params)
        assert fit.convention == "collocation-fit"
        rec = coeffs_from_recurrence(params)
        for m in (1, 2):
            assert abs(fit.a[m - 1] - rec.a[m - 1]) <= 1e-15 * abs(rec.a[m - 1])

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            collocation_oracle(OrderParams(n=1, k=0.0))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            collocation_oracle(OrderParams(n=3, k=1.0), xs=[1.0, 2.0, 3.0])

    def test_rejects_points_outside_range(self):
        xs = [0.1 + 0.5 * j for j in range(12)]
        with pytest.raises(ValueError):
            collocation_oracle(OrderParams(n=1, k=1.0), xs=xs)

    def test_high_precision_matches_at_n8(self):
        # at n = 8 the monomial/phase system is intrinsically degenerate in
        # double precision, whatever the points; at 50 digits it is not
        params = OrderParams(n=8, k=1.0)
        fit = collocation_oracle(params)
        assert fit.convention == "collocation-fit"
        rec = coeffs_from_recurrence(params)
        for m in range(1, 10):
            assert abs(fit.a[m - 1] - rec.a[m - 1]) <= 1e-10 * abs(rec.a[m - 1])

    @pytest.mark.parametrize("n, k", [(1, 1.0), (6, 0.5)])
    def test_every_fit_runs_at_50_digits(self, n, k, monkeypatch):
        # one 50-digit fit per call, whether the design matrix is well
        # conditioned (n = 1) or not (n = 6, condition about 1e12), and its
        # coefficients are the ones returned
        from wbident import oracle
        fits = []

        def spy(*args):
            fits.append(oracle_fit(*args))
            return fits[-1]

        oracle_fit = oracle.collocation_fit
        monkeypatch.setattr(oracle, "collocation_fit", spy)
        params = OrderParams(n=n, k=k)
        fit = collocation_oracle(params)
        assert len(fits) == 1 and fit.a == tuple(fits[0][0])
        rec = coeffs_from_recurrence(params)
        for m in range(1, n + 2):
            assert abs(fit.a[m - 1] - rec.a[m - 1]) <= 1e-8 * abs(rec.a[m - 1])

    def test_enters_no_kernel(self):
        # the fit reads no production kernel and no recurrence: of
        # wbident.kernels only the kernel table's lookup runs (it computes
        # nothing, and outside a run it calls straight through)
        from wbident import kernels, oracle
        params = OrderParams(n=2, k=0.5)
        entered = entered_code(lambda: collocation_oracle(params))
        table = oracle._master_factors.__code__
        assert {c.co_name for c in entered
                if c.co_filename == kernels.__file__ and c is not table} == set()
        assert not {c.co_name for c in entered} & RECURRENCE

    @staticmethod
    def own_points(n):
        """n's own Chebyshev-Lobatto set, the rule for every n before the
        master set."""
        lo, hi = COLLOCATION_RANGE
        npts = max(4 * (n + 1), 8)
        return [lo + (hi - lo) * (1 - math.cos(math.pi * j / (npts - 1))) / 2
                for j in range(npts)]

    @pytest.mark.parametrize("n", range(26))
    def test_default_points_satisfy_preconditions(self, n):
        # distinct, sorted, both ends of the range, max(4(n+1), 8) of them;
        # drawn from the master set (the points of n = 8) up to n = 8, and
        # n's own set from n = 8 on
        xs = default_collocation_points(n)
        assert len(xs) == len(set(xs)) == max(4 * (n + 1), 8)
        assert xs == sorted(xs) and (xs[0], xs[-1]) == COLLOCATION_RANGE
        if n <= COLLOCATION_MASTER_N:
            assert set(xs) <= set(COLLOCATION_MASTER)
        if n >= COLLOCATION_MASTER_N:
            assert xs == self.own_points(n)
        assert list(COLLOCATION_MASTER) == default_collocation_points(COLLOCATION_MASTER_N)


# the recurrence's construction of Lambda, which the series oracle must not read
RECURRENCE = {"_scaled_coeffs", "coeffs_from_recurrence", "_lambda_integers"}


def entered_code(run) -> set:
    """The code objects of every Python function entered during run()."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


class TestSeriesOracle:
    @pytest.mark.parametrize("k", [1e-3, 0.1, 0.5, 2.526, 4.9])
    def test_equals_the_recurrence_integers_with_a_zero_tail(self, k):
        # p_0..p_n are the recurrence's sqrt(pi) a_{j+1} exactly, and the
        # SERIES_TAIL orders past them are exactly 0: the series solution of
        # the x^{1/2+ik} mode is Lambda, a polynomial of degree n
        for n in range(26):
            params = OrderParams(n=n, k=k)
            series, den = series_oracle(params)
            big, top, _, _ = lambda_poly._lambda_integers(params)
            assert len(series) == n + 1 + SERIES_TAIL
            assert [(re * top, im * top) for re, im in series[:n + 1]] == [
                (re * den, im * den) for re, im in big]
            assert series[n + 1:] == [(0, 0)] * SERIES_TAIL
            assert series_oracle_residuals(params) == [0.0] * (n + 1 + SERIES_TAIL)

    def test_negative_k(self):
        # the mode reduction holds for every real k != 0
        for n in (0, 3, 9):
            assert set(series_oracle_residuals(OrderParams(n=n, k=-1.5))) == {0.0}

    def test_refuses_k0(self):
        with pytest.raises(InputError, match="k != 0"):
            series_oracle(OrderParams(n=2, k=0.0))

    def test_reads_no_kernel_and_no_recurrence(self):
        # its construction reads only the Taylor coefficients of M, e^-x and
        # 0F1: no function of wbident.kernels runs, and none of the
        # recurrence's construction it is compared with
        from wbident import kernels
        for n, k in [(0, 1.0), (2, 0.5), (8, 2.526)]:
            params = OrderParams(n=n, k=k)
            entered = entered_code(lambda: series_oracle(params))
            assert not [c for c in entered if c.co_filename == kernels.__file__]
            assert not {c.co_name for c in entered} & RECURRENCE

    def test_a_coefficient_off_its_lattice_stops_the_construction(self, monkeypatch):
        # a p_j that is no Gaussian integer over D is neither Lambda's nor 0:
        # the construction stops there, and every order from it scores 1.0.
        # Here 0F1 takes 1/2 - ik for 1/2 + ik, which at n = 0, k = 2 leaves
        # a remainder at x^2
        taylor = lambda_poly._taylor

        def spoiled(count, ratio):
            def conjugated(m):
                u, (v_re, v_im), w = ratio(m)
                return u, (v_re, -v_im), w
            # the 0F1 series is the one of 3 terms at n = 0
            return taylor(count, conjugated if count == 3 else ratio)

        monkeypatch.setattr(lambda_poly, "_taylor", spoiled)
        params = OrderParams(n=0, k=2.0)
        series, _ = series_oracle(params)
        assert len(series) == 2
        assert series_oracle_residuals(params)[2:] == [1.0] * 3
