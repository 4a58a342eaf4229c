"""Tests for coefficient construction, conventions, and the collocation oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbident.core import SQRT_PI
from wbident.errors import InputError, InvariantViolationError
from wbident.kernels import OrderParams
from wbident.lambda_poly import (CONVENTION_MINUS, CONVENTION_PLUS,
                                 boundary_coeffs, check_second_order,
                                 coeffs_from_recurrence, collocation_oracle,
                                 default_collocation_points,
                                 first_order_residuals, laguerre_closed_form,
                                 resolve_convention, second_order_residuals)

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
        assert abs(cv.a_m(1) - (-(1 - 1j) / SQRT_PI)) < 1e-15
        assert abs(cv.a_m(2) - 2 / SQRT_PI) < 1e-15

    def test_n2_k0_matches_laguerre_expansion(self):
        # lambda = (2!/sqrt(pi)) x L_2(2x) = (2x - 8x^2 + 4x^3)/sqrt(pi)... wait,
        # expanded by hand: (1/sqrt(pi)) (2x - 8x^2 + 4x^3)
        cv = coeffs_from_recurrence(OrderParams(n=2, k=0.0))
        want = [2 / SQRT_PI, -8 / SQRT_PI, 4 / SQRT_PI]
        for m, w in enumerate(want, start=1):
            assert abs(cv.a_m(m) - w) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_k0_coefficients_real(self, n):
        cv = coeffs_from_recurrence(OrderParams(n=n, k=0.0))
        assert all(c.imag == 0 for c in cv.a)

    @pytest.mark.parametrize("k", K_SET)
    def test_top_coefficient_all_n(self, k):
        for n in range(21):
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            expected = 2 ** n / SQRT_PI
            assert abs(cv.a_top - expected) <= 1e-12 * expected
            assert abs(cv.a_top.imag) <= 1e-12 * expected

    @pytest.mark.parametrize("k", K_SET)
    def test_first_order_recurrence_residuals(self, k):
        for n in (3, 8, 15, 20):
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            assert max(first_order_residuals(cv), default=0.0) <= 1e-12

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
        # the (1-ik)_n start is tried first and reproduces a real 2^n top
        assert exact[-1] == (2 ** n, 0)
        assert resolve_convention(n, k) == CONVENTION_MINUS

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

    def test_wrong_convention_rejected(self):
        # the (1+ik)_n start drives a_{n+1} to -2^n/sqrt(pi)
        with pytest.raises(InvariantViolationError):
            coeffs_from_recurrence(OrderParams(n=1, k=1.0),
                                   convention=CONVENTION_PLUS)

    def test_json_export_shape(self):
        cv = coeffs_from_recurrence(OrderParams(n=2, k=1.0))
        d = cv.as_json_dict()
        assert d["n"] == 2 and d["k"] == 1.0
        assert d["convention"] == CONVENTION_MINUS
        assert len(d["a"]) == 3 and all(len(pair) == 2 for pair in d["a"])


class TestResolveConvention:
    def test_resolves_to_minus(self):
        assert resolve_convention(1, 1.0) == CONVENTION_MINUS
        assert resolve_convention(4, 0.3) == CONVENTION_MINUS

    def test_k0_degenerate(self):
        assert resolve_convention(3, 0.0) == CONVENTION_MINUS


class TestLaguerreClosedForm:
    def test_n0(self):
        cv = laguerre_closed_form(0)
        assert abs(cv.a_m(1) - 1 / SQRT_PI) < 1e-15

    def test_n1(self):
        # lambda = (2x^2 - x)/sqrt(pi)
        cv = laguerre_closed_form(1)
        assert abs(cv.a_m(1) + 1 / SQRT_PI) < 1e-15
        assert abs(cv.a_m(2) - 2 / SQRT_PI) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 13, 20])
    def test_matches_recurrence_at_k0(self, n):
        closed = laguerre_closed_form(n)
        rec = coeffs_from_recurrence(OrderParams(n=n, k=0.0))
        for m in range(1, n + 2):
            scale = max(abs(closed.a_m(m)), 1e-300)
            assert abs(closed.a_m(m) - rec.a_m(m)) <= 1e-12 * scale

    def test_k_to_zero_continuity(self):
        # recurrence coefficients approach the Laguerre ones linearly in k
        for n in (2, 5):
            closed = laguerre_closed_form(n)
            dev = {}
            for k in (1e-3, 2e-3):
                cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
                dev[k] = max(abs(cv.a_m(m) - closed.a_m(m)) / abs(closed.a_m(m))
                             for m in range(1, n + 2))
            assert dev[1e-3] <= 1e-2
            assert 1.5 <= dev[2e-3] / dev[1e-3] <= 2.5


class TestSecondOrderRecurrence:
    def test_derived_variant_holds(self):
        for (n, k) in [(5, 0.5), (8, 1.0), (4, 0.0), (10, 2.0)]:
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            assert max(second_order_residuals(cv, "derived")) <= 1e-12

    def test_printed_variant_fails_and_is_advisory(self):
        cv = coeffs_from_recurrence(OrderParams(n=5, k=0.5))
        rep = check_second_order(cv, "printed")
        assert rep.advisory
        assert not rep.passed
        assert rep.max_residual > 0.1

    def test_small_n_empty_report(self):
        for n in (0, 1, 2):
            cv = coeffs_from_recurrence(OrderParams(n=n, k=1.0))
            rep = check_second_order(cv)
            assert rep.grid == [] and rep.passed

    def test_laguerre_comparison_at_k0(self):
        cv = laguerre_closed_form(6)
        assert max(second_order_residuals(cv, "derived")) <= 1e-12
        assert max(second_order_residuals(cv, "printed")) > 0.1


class TestCollocationOracle:
    def test_n0_constant_lambda(self):
        cv = collocation_oracle(OrderParams(n=0, k=1.0))
        assert abs(cv.a_m(1) - 1 / SQRT_PI) <= 1e-10

    def test_n1_matches_recurrence(self):
        params = OrderParams(n=1, k=1.0)
        fit = collocation_oracle(params)
        assert fit.convention == "collocation-fit-double"
        rec = coeffs_from_recurrence(params)
        for m in (1, 2):
            assert abs(fit.a_m(m) - rec.a_m(m)) <= 1e-8 * abs(rec.a_m(m))

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
        # double precision, whatever the points, so the fit escalates
        params = OrderParams(n=8, k=1.0)
        fit = collocation_oracle(params)
        assert fit.convention == "collocation-fit-oracle"
        rec = coeffs_from_recurrence(params)
        for m in range(1, 10):
            assert abs(fit.a_m(m) - rec.a_m(m)) <= 1e-10 * abs(rec.a_m(m))

    def test_auto_mode_escalates(self):
        # the single path escalates at n = 6 (condition about 1e12)
        params = OrderParams(n=6, k=0.5)
        fit = collocation_oracle(params)
        assert fit.convention == "collocation-fit-oracle"
        rec = coeffs_from_recurrence(params)
        for m in range(1, 8):
            assert abs(fit.a_m(m) - rec.a_m(m)) <= 1e-8 * abs(rec.a_m(m))

    def test_default_points_satisfy_preconditions(self):
        xs = default_collocation_points(5)
        assert len(xs) >= 2 * 6
        assert min(xs) >= 0.25 and max(xs) <= 6.0
