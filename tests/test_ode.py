"""Tests for the coupled equation, fourth-order ODE, indicial exponents, and
connection constants."""

import cmath
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wbident.ode
from wbident import kernels
from wbident.config import EvalConfig
from wbident.core import SQRT_PI, laguerre
from wbident.errors import InvariantViolationError, WbidentError
from wbident.kernels import (OrderParams, bessel_i, bessel_k_quad, whittaker_m,
                             whittaker_w)
from wbident.lambda_poly import coeffs_from_recurrence, laguerre_closed_form
from wbident.ode import (BASIS, SolutionConstants, basis_products,
                         bessel_ode_coeffs,
                         c4_closed_form, constants_closed_form,
                         constants_defining_system, constants_printed_system,
                         coupled_residual, factor_derivatives,
                         indicial_analysis, indicial_reports,
                         lambda_reconstruction, lift_derivatives, ode4_coeffs,
                         ode4_residual, printed_relation_residuals,
                         product_derivatives, product_solution_check,
                         resolve_constants, solution_constants,
                         trial_condition_check, whittaker_ode_coeffs,
                         whittaker_operator_residual)

ODE4_TOL = EvalConfig().ode4_tol


class TestCoupledResidual:
    def test_n0_constant_lambda(self):
        cv = coeffs_from_recurrence(OrderParams(n=0, k=1.0))
        rep = coupled_residual(cv)
        assert rep.passed
        assert rep.max_residual <= 1e-15

    def test_n1_k1_hand_checked(self):
        # constant term a_2(1-2ik) + 3 a_1 - conj(a_1) vanishes
        cv = coeffs_from_recurrence(OrderParams(n=1, k=1.0))
        rep = coupled_residual(cv)
        assert rep.passed

    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0])
    def test_exact_for_all_generated_vectors(self, k):
        for n in range(21):
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            rep = coupled_residual(cv)
            assert rep.max_residual <= 1e-12, (n, k)

    def test_perturbation_sensitivity(self):
        cv = coeffs_from_recurrence(OrderParams(n=4, k=1.0))
        bad = list(cv.a)
        bad[2] *= 1 + 1e-3
        perturbed = type(cv)(params=cv.params, a=tuple(bad),
                             convention=cv.convention)
        rep = coupled_residual(perturbed)
        assert not rep.passed


class TestOde4Coeffs:
    def test_degrees(self):
        c = ode4_coeffs(OrderParams(n=2, k=0.7))
        assert [p.degree() for p in c.as_list()] == [3, 2, 3, 2, 1]

    def test_a1_double_root_at_zero(self):
        c = ode4_coeffs(OrderParams(n=3, k=1.0))
        assert c.a1.coef[0] == 0 and c.a1.coef[1] == 0
        assert c.a1.coef[2] != 0

    def test_a1_value(self):
        # a1(1) at n=0, k=0 is 1 + 4 = 5
        c = ode4_coeffs(OrderParams(n=0, k=0.0))
        assert c.a1(1.0) == 5

    def test_a5_vanishes_at_n0(self):
        c = ode4_coeffs(OrderParams(n=0, k=1.0))
        assert not c.a5.coef.any()

    def test_variants_differ_only_in_a3_constant(self):
        p = OrderParams(n=2, k=0.8)
        cor = ode4_coeffs(p, "corrected")
        pri = ode4_coeffs(p, "printed")
        assert cor.a1 == pri.a1 and cor.a2 == pri.a2
        assert cor.a4 == pri.a4 and cor.a5 == pri.a5
        assert (cor.a3.coef[1:] == pri.a3.coef[1:]).all()
        assert cor.a3.coef[0] != pri.a3.coef[0]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ode4_coeffs(OrderParams(n=1, k=1.0), "bogus")


class TestOde4Residual:
    def test_lambda_polynomial_analytic_derivatives(self):
        for (n, k) in [(1, 1.0), (3, 0.5), (4, 2.0)]:
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            poly = cv.big_lambda_poly()
            for x in (0.5, 1.0, 2.0, 4.0):
                r = ode4_residual(poly, OrderParams(n=n, k=k), x)
                assert r <= 1e-8, (n, k, x)

    def test_kw_product(self):
        params = OrderParams(n=1, k=1.0)
        derivs = basis_products(params, 2.0)["K*W"]
        assert ode4_residual(derivs, params, 2.0) <= ODE4_TOL

    def test_exponential_control(self):
        # y = e^x: every derivative is e^x
        params = OrderParams(n=1, k=1.0)
        r = ode4_residual([cmath.exp(1.5)] * 5, params, 1.5)
        assert r >= 1e-1


class TestDerivativeLift:
    def test_lift_matches_polynomial_solution(self):
        # y = x^3 solves y'' = (1/x) y' + (3/x^2) y
        x = 1.7
        p = (1 / x, -1 / x ** 2, 2 / x ** 3)
        q = (3 / x ** 2, -6 / x ** 3, 18 / x ** 4)
        got = lift_derivatives(x ** 3, 3 * x ** 2, p, q)
        want = [x ** 3, 3 * x ** 2, 6 * x, 6.0, 0.0]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w))

    def test_leibniz_rule(self):
        # (e^x * e^{2x})^{(j)} = 3^j e^{3x}
        x = 0.3
        f = [math.exp(x)] * 5
        g = [2 ** j * math.exp(2 * x) for j in range(5)]
        got = product_derivatives(f, g)
        for j in range(5):
            assert abs(got[j] - 3 ** j * math.exp(3 * x)) <= 1e-13 * 3 ** j

    def test_unknown_factor(self):
        with pytest.raises(KeyError):
            factor_derivatives("J", OrderParams(n=1, k=1.0), 1.0)


class TestProductSolutions:
    @pytest.mark.parametrize("k", [0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_four_products_solve(self, n, k):
        rep = product_solution_check(OrderParams(n=n, k=k))
        assert rep.passed, (n, k, rep.max_residual)

    def test_itilde_product_solves(self):
        # I-tilde = I_nu + I_{-nu} solves the same Bessel equation as I_nu
        params = OrderParams(n=1, k=1.0)
        nu = complex(-0.5, params.k)
        for x in (0.5, 1.0, 2.0, 4.0):
            # I'_{+-nu} = I_{1+-nu} +- (nu/x) I_{+-nu} (DLMF 10.29.2)
            i_plus, i_minus = bessel_i(nu, x), bessel_i(-nu, x)
            di = bessel_i(nu + 1, x) + bessel_i(1 - nu, x) + nu / x * (i_plus - i_minus)
            itilde = lift_derivatives(i_plus + i_minus, di, *bessel_ode_coeffs(nu, x))
            derivs = product_derivatives(
                itilde, factor_derivatives("M", params, x))
            assert ode4_residual(derivs, params, x) <= ODE4_TOL

    def test_control_non_solution_fails(self):
        # K times a Whittaker M with shifted first index is not in the basis
        params = OrderParams(n=1, k=1.0)
        shifted = OrderParams(n=params.n + 1, k=params.k)

        def control(x):
            return product_derivatives(factor_derivatives("K", params, x),
                                       factor_derivatives("M", shifted, x))

        worst = max(ode4_residual(control(x), params, x) for x in (0.5, 1.0, 2.0))
        assert worst >= 1e-1

    def test_one_kernel_evaluation_per_factor_and_point(self, monkeypatch):
        calls = []
        for name in ("bessel_i", "bessel_k_quad", "whittaker_m", "whittaker_w"):
            kernel = getattr(wbident.ode, name)

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(wbident.ode, name, counted)
        rep = product_solution_check(OrderParams(n=2, k=0.5))
        assert rep.passed
        # I and K at orders nu and nu+1 at each of the four default grid
        # points, M and W once each on the whole grid
        assert Counter(calls) == {"bessel_i": 8, "bessel_k_quad": 8,
                                  "whittaker_m": 1, "whittaker_w": 1}

    def test_printed_variant_fails_products(self):
        rep = product_solution_check(OrderParams(n=1, k=1.0), variant="printed")
        assert rep.advisory
        assert not rep.passed
        assert rep.max_residual > 1e-2


class TestTrialConditions:
    def test_all_parts_pass(self):
        reports = trial_condition_check(OrderParams(n=2, k=0.5), [0.5, 1.0, 2.0])
        assert len(reports) == 4
        for rep in reports:
            assert rep.passed, rep.check_name

    def test_whittaker_equation_residual_small(self):
        reports = trial_condition_check(OrderParams(n=3, k=1.0), [1.0, 2.0])
        eq = [r for r in reports if r.check_name == "trial-whittaker-equation"][0]
        assert eq.max_residual <= EvalConfig().whittaker_eq_tol

    def test_whittaker_equation_control_fails(self):
        # W with first index n+3/2 solves a different Whittaker equation;
        # its term-by-term second derivative must expose that
        n, k, x = 3, 1.0, 1.0
        w, _, w2 = whittaker_w(n + 1.5, 1j * k, 2 * x, deriv=True)
        assert whittaker_operator_residual(w, 4 * w2, n, k, x) >= 1e-1


    def test_trial_check_reuses_the_basis_check_grids(self):
        # at the basis check's grid, the trial check finds W and M_{+ik} in
        # the kernel table and evaluates only M_{-ik}
        params = OrderParams(n=2, k=0.5)
        with kernels.kernel_table():
            product_solution_check(params)
            before = set(kernels._TABLE.get())
            trial_condition_check(params, [0.5, 1.0, 2.0, 4.0])
            added = [key[0] for key in set(kernels._TABLE.get()) - before]
        assert added == [kernels.whittaker_m.__wrapped__]

    def test_empty_grid_gives_empty_reports(self):
        # an empty grid gives empty reports (run_suite never passes one)
        reports = trial_condition_check(OrderParams(n=2, k=0.5), [])
        assert [r.grid for r in reports] == [[]] * 4
        assert all(r.passed for r in reports)


def factor_at(factor, params, x):
    """factor_derivatives at one x from scalar kernel calls."""
    n, k = params.n, params.k
    if factor in ("I", "K"):
        nu = complex(-0.5, k)
        y = (bessel_i if factor == "I" else bessel_k_quad)(nu, x)
        dy = (bessel_i(nu + 1, x) if factor == "I" else -bessel_k_quad(nu + 1, x))
        return lift_derivatives(y, dy + nu / x * y, *bessel_ode_coeffs(nu, x))
    kernel = whittaker_m if factor == "M" else whittaker_w
    y, dz, _ = kernel(n + 0.5, 1j * k, 2 * x, deriv=True)
    return lift_derivatives(y, 2 * dz, *whittaker_ode_coeffs(n + 0.5, 1j * k, x))


def per_point_basis_residuals(params, x_grid, variant):
    residuals = []
    for name in BASIS:
        for x in x_grid:
            derivs = product_derivatives(factor_at(name[0], params, x),
                                         factor_at(name[2], params, x))
            residuals.append(ode4_residual(derivs, params, x, variant))
    return residuals


def per_point_trial_residuals(params, x_grid):
    n, k = params.n, params.k
    out = [[], [], [], []]
    for x in x_grid:
        w, _, w2 = whittaker_w(n + 0.5, 1j * k, 2 * x, deriv=True)
        mp, _, mp2 = whittaker_m(n + 0.5, 1j * k, 2 * x, deriv=True)
        mm, _, mm2 = whittaker_m(n + 0.5, -1j * k, 2 * x, deriv=True)
        s, d = mp + mm, mp - mm
        out[0].append(abs(w.imag) / abs(w))
        out[1].append(abs(s.imag) / abs(s))
        out[2].append(abs(d.real) / abs(d) if d != 0 else 0.0)
        out[3] += [whittaker_operator_residual(w, 4 * w2, n, k, x),
                   whittaker_operator_residual(s, 4 * (mp2 + mm2), n, k, x)]
    return out


def per_point_reconstruction_residuals(params, x_grid):
    n, k = params.n, params.k
    lam = coeffs_from_recurrence(params).big_lambda_poly()
    if k == 0:
        lead = (-1) ** n * math.factorial(n) / SQRT_PI
        return [abs(complex(lam(x)) - lead * laguerre(n, 2 * x))
                / max(abs(lead * laguerre(n, 2 * x)), abs(lead)) for x in x_grid]
    c = solution_constants(params)
    nu = complex(-0.5, k)
    out = []
    for x in x_grid:
        i_x, k_x = bessel_i(nu, x), bessel_k_quad(nu, x)
        m_x = whittaker_m(n + 0.5, 1j * k, 2 * x)
        w_x = whittaker_w(n + 0.5, 1j * k, 2 * x)
        out.append(wbident.ode.relative_residual(
            [0j * i_x * m_x, c.c2 * i_x * w_x, c.c3 * k_x * w_x,
             c.c4 * k_x * m_x, -complex(lam(x))]))
    return out


class TestGridEqualsPerPoint:
    """The checks take M and W on the whole grid in one call; the arithmetic
    after the kernel calls is per point, so every residual keeps its bits."""

    XS = (0.5, 1.0, 1.7, 2.0, 4.0, 5.3)
    ORDERS = [(0, 0.5), (2, 0.5), (4, 1.0), (7, 2.526), (12, 0.1)]

    @pytest.mark.parametrize("n, k", ORDERS)
    def test_factor_and_basis_derivatives(self, n, k):
        params = OrderParams(n=n, k=k)
        for f in "IKMW":
            want = [factor_at(f, params, x) for x in self.XS]
            assert factor_derivatives(f, params, self.XS) == want
            assert [factor_derivatives(f, params, x) for x in self.XS] == want
        products = basis_products(params, self.XS)
        assert products == [basis_products(params, x) for x in self.XS]
        assert products[2]["K*W"] == product_derivatives(
            factor_at("K", params, self.XS[2]), factor_at("W", params, self.XS[2]))

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("n, k", ORDERS)
    def test_basis_check(self, n, k, variant):
        params = OrderParams(n=n, k=k)
        rep = product_solution_check(params, x_grid=self.XS, variant=variant)
        assert rep.residuals == per_point_basis_residuals(params, self.XS, variant)

    @pytest.mark.parametrize("n, k", ORDERS)
    def test_trial_check(self, n, k):
        params = OrderParams(n=n, k=k)
        got = [r.residuals for r in trial_condition_check(params, self.XS)]
        assert got == per_point_trial_residuals(params, self.XS)

    @pytest.mark.parametrize("n, k", ORDERS + [(0, 0.0), (3, 0.0), (6, 2.0)])
    def test_reconstruction(self, n, k):
        params = OrderParams(n=n, k=k)
        rep = lambda_reconstruction(params, self.XS + (6.0,))
        assert rep.residuals == per_point_reconstruction_residuals(
            params, self.XS + (6.0,))


class TestIndicial:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_roots_match_predicted_set(self, k):
        ia = indicial_analysis(OrderParams(n=2, k=k))
        assert ia.match
        assert ia.max_deviation <= 1e-10

    def test_roots_always_include_zero_and_one(self):
        ia = indicial_analysis(OrderParams(n=3, k=0.7))
        assert ia.predicted[:2] == (0, 1)
        assert ia.defects[:2] == (0.0, 0.0)

    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0])
    def test_perturbed_a3_constant_fails(self, k, monkeypatch):
        # substituting the exponents is not vacuous: a 1e-9 relative change
        # of a3's constant term moves two of the four roots off them
        def mutant(params, variant="corrected"):
            c = ode4_coeffs(params, variant)
            a3 = c.a3.copy()
            a3.coef[0] *= 1 + 1e-9
            return type(c)(c.a1, c.a2, a3, c.a4, c.a5)

        assert indicial_analysis(OrderParams(n=2, k=k)).match
        monkeypatch.setattr(wbident.ode, "ode4_coeffs", mutant)
        assert not indicial_analysis(OrderParams(n=2, k=k)).match

    def test_predicted_set_k1(self):
        ia = indicial_analysis(OrderParams(n=1, k=1.0))
        want = {(0, 0), (1, 0), (0, 2), (1, -2)}
        got = {(round(r.real, 8), round(r.imag, 8)) for r in ia.predicted}
        assert got == want

    def test_printed_quadratic_disagrees(self):
        # recorded, not asserted: the printed factorization does not
        # reproduce the basis exponents
        ia = indicial_analysis(OrderParams(n=2, k=1.0))
        assert ia.printed_deviation > 1e-2

    def test_reports_split_advisory(self):
        reports = indicial_reports(OrderParams(n=2, k=1.0))
        load_bearing = [r for r in reports if r.check_name == "indicial-exponents"][0]
        advisory = [r for r in reports
                    if r.check_name == "indicial-printed-quadratic"][0]
        assert load_bearing.passed and not load_bearing.advisory
        assert advisory.advisory and not advisory.passed

    def test_printed_variant_ode_has_different_exponents(self):
        ia = indicial_analysis(OrderParams(n=2, k=1.0), variant="printed")
        assert not ia.match


class TestConstants:
    @pytest.mark.parametrize("n,k", [(0, 1.0), (1, 1.0), (2, 0.5), (3, 2.0),
                                     (2, 20.0), (2, 50.0), (2, 200.0)])
    def test_defining_system_structure(self, n, k):
        c = constants_defining_system(OrderParams(n=n, k=k))
        assert abs(c.c2 - 1) <= 1e-10
        assert c.c3 == 0
        assert abs(c.c4 - c4_closed_form(OrderParams(n=n, k=k))) <= 1e-10 * abs(c.c4)

    def test_second_printed_relation_holds(self):
        params = OrderParams(n=2, k=1.0)
        c = solution_constants(params)
        r = printed_relation_residuals(c, params)
        assert r[1] <= 1e-10

    def test_relation_violation_is_structured_error(self):
        cfg = EvalConfig(constants_relation_tol=1e-300)
        with pytest.raises(InvariantViolationError):
            solution_constants(OrderParams(n=2, k=1.0), cfg)

    def test_first_and_third_printed_relations_fail(self):
        params = OrderParams(n=2, k=1.0)
        c = solution_constants(params)
        r = printed_relation_residuals(c, params)
        assert r[0] > 1e-3 and r[2] > 1e-3

    def test_printed_closed_forms_inconsistent_with_printed_system(self):
        params = OrderParams(n=1, k=1.0)
        closed = constants_closed_form(params)
        r = printed_relation_residuals(closed, params)
        assert max(r) > 1e-6      # triggers the fallback path

    def test_resolve_constants_falls_back_and_notes(self):
        params = OrderParams(n=1, k=1.0)
        chosen, defining, notes = resolve_constants(params)
        assert len(notes) >= 1
        printed = constants_printed_system(params)
        assert abs(chosen.c4 - printed.c4) <= 1e-10 * abs(printed.c4)
        assert abs(defining.c2 - 1) <= 1e-10

    @pytest.mark.parametrize("n,k", [(0, 112.0), (2, 150.0), (25, 100.0)])
    def test_resolve_constants_notes_closed_forms_out_of_range(self, n, k):
        # the printed closed-form c3 grows like e^{2 pi k}: an advisory
        # failure that falls back to the printed system
        params = OrderParams(n=n, k=k)
        with pytest.raises(WbidentError):
            constants_closed_form(params)
        chosen, defining, notes = resolve_constants(params)
        assert "printed closed forms fail" in notes[0]
        assert chosen == constants_printed_system(params)
        assert defining == constants_defining_system(params)

    def test_k_limit_of_c4(self):
        for n in range(4):
            ref = (-1) ** (n + 1) * math.factorial(n) / math.pi
            d1 = abs(c4_closed_form(OrderParams(n=n, k=1e-3)) - ref) / abs(ref)
            d2 = abs(c4_closed_form(OrderParams(n=n, k=2e-3)) - ref) / abs(ref)
            assert d1 <= 1e-2
            assert 1.5 <= d2 / d1 <= 2.5      # deviation is O(k)

    @pytest.mark.parametrize("n", [0, 5, 13, 24])
    @pytest.mark.parametrize("k", [0.1, 2.0, 50.0, 150.0, 200.0])
    def test_c4_matches_mpmath(self, n, k):
        from mpmath import mp
        with mp.workdps(40):
            ik = mp.mpc(0, k)
            want = complex(-2 * mp.cosh(mp.pi * k) / mp.pi
                           * mp.gamma(-2 * ik) / mp.gamma(-n - ik))
        params = OrderParams(n=n, k=k)
        for got in (constants_defining_system(params).c4, c4_closed_form(params)):
            assert abs(got - want) <= 1e-12 * abs(want)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(0, 25), k=st.floats(1e-300, 1e4))
    @example(n=24, k=85.0)        # a gamma product underflowed to 0 here
    @example(n=0, k=230.0)        # cosh(pi k) overflows
    @example(n=2, k=216.5)        # finite terms whose modulus overflows
    def test_constants_finite_or_wbident_error(self, n, k):
        params = OrderParams(n=n, k=k)
        calls = [
            lambda: constants_defining_system(params).as_tuple(),
            lambda: [c4_closed_form(params)],
            lambda: constants_printed_system(params).as_tuple(),
            lambda: constants_closed_form(params).as_tuple(),
            lambda: printed_relation_residuals(constants_defining_system(params), params),
            lambda: [c for cs in resolve_constants(params)[:2] for c in cs.as_tuple()],
        ]
        for call in calls:
            try:
                values = call()
            except WbidentError:
                continue
            assert all(math.hypot(v.real, v.imag) < math.inf for v in values)


class TestReconstruction:
    @pytest.mark.parametrize("n,k", [(0, 1.0), (1, 1.0), (3, 0.5), (5, 2.0)])
    def test_passes_with_defining_constants(self, n, k):
        rep = lambda_reconstruction(OrderParams(n=n, k=k), [0.5, 1.0, 2.0, 4.0, 6.0])
        assert rep.passed, rep.max_residual
        assert rep.max_residual <= 1e-6

    def test_k0_laguerre_bypass(self):
        rep = lambda_reconstruction(OrderParams(n=3, k=0.0), [0.5, 1.0, 2.0])
        assert rep.check_name == "lambda-reconstruction-laguerre"
        assert rep.passed

    @pytest.mark.parametrize("n", [0, 3, 25])
    def test_k0_lambda_from_recurrence_equals_closed_form(self, n, monkeypatch):
        grid = [0.5, 1.0, 2.0, 4.0, 6.0]
        got = lambda_reconstruction(OrderParams(n=n, k=0.0), grid)
        monkeypatch.setattr(wbident.ode, "coeffs_from_recurrence",
                            lambda params, config: laguerre_closed_form(params.n))
        assert got == lambda_reconstruction(OrderParams(n=n, k=0.0), grid)

    def test_perturbed_constants_fail(self):
        params = OrderParams(n=1, k=1.0)
        c = solution_constants(params)
        bad = SolutionConstants(c2=c.c2 * (1 + 1e-3), c3=c.c3, c4=c.c4)
        rep = lambda_reconstruction(params, [0.5, 1.0, 2.0], constants=bad)
        assert not rep.passed

    def test_nonzero_c1_fails_at_x6(self):
        # any I*M admixture blows up downstream (it grows like e^{2x})
        params = OrderParams(n=1, k=1.0)
        rep = lambda_reconstruction(params, [6.0], c1=1e-6 + 0j)
        assert not rep.passed

    def test_printed_system_constants_fail_reconstruction(self):
        params = OrderParams(n=2, k=1.0)
        rep = lambda_reconstruction(
            params, [0.5, 1.0, 2.0],
            constants=constants_printed_system(params),
            check_name="reconstruction-printed-constants")
        assert rep.advisory
        assert not rep.passed

    def test_rejects_grid_outside_range(self):
        with pytest.raises(ValueError):
            lambda_reconstruction(OrderParams(n=1, k=1.0), [0.25, 1.0])


class TestPrintedSystemInternalConsistency:
    def test_printed_system_solution_satisfies_printed_relations(self):
        # "solved simultaneously": the solver reproduces its own equations
        params = OrderParams(n=2, k=1.0)
        c = constants_printed_system(params)
        assert max(printed_relation_residuals(c, params)) <= 1e-10
