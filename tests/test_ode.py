"""Tests for the coupled equation, fourth-order ODE, indicial exponents, and
connection constants."""

import cmath
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wbident.ode
from wbident import _exact, kernels, lambda_poly
from wbident.cli import main
from wbident.config import EvalConfig
from wbident.core import SQRT_PI, laguerre
from wbident.errors import InputError, InvariantViolationError, WbidentError
from wbident.kernels import (OrderParams, bessel_i, bessel_k_quad, whittaker_m,
                             whittaker_w)
from wbident.lambda_poly import coeffs_from_recurrence, laguerre_closed_form
from wbident.ode import (BASIS, SolutionConstants, basis_products,
                         constants_closed_form, constants_printed_system,
                         coupled_residual, indicial_analysis, indicial_reports,
                         lambda_reconstruction, lowered_terms, m_lowering,
                         ode4_coeffs, ode4_residual, ode4_scores,
                         printed_relation_residuals, product_solution_check,
                         resolve_constants, solution_constants,
                         trial_condition_check, w_lowering,
                         whittaker_operator_residual)

# bound on the float ode4_residual of a product that solves the ODE: a few
# roundings of terms of size 1 (the exact checks take none)
ODE4_TOL = 1e-10


# k = p/q with p, q from one digit to about a thousand bits
COUPLED_KS = (0.0, 1e-6, 0.1, 0.5, 1.0, 2.0, 2.526, 3.818, 600.0)


def mutant_source(fn, old: str, new: str):
    """fn with its source text `old` (which must occur exactly once) replaced
    by `new`, compiled in fn's module namespace."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    module = inspect.getmodule(fn)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[fn.__name__]


def one_integer_off(j: int, part: int, step: int):
    """_scaled_coeffs with `step` added to entry j's real (part 0) or
    imaginary (part 1) numerator."""
    original = lambda_poly._scaled_coeffs

    def mutant(n, k):
        out = original(n, k)
        if -len(out) <= j < len(out):
            entry = list(out[j])
            entry[part] += step
            out[j] = tuple(entry)
        return out
    return mutant


SCALED_MUTANTS = {
    **{f"{step:+d} in P[{j}] {('re', 'im')[part]}": (one_integer_off, (j, part, step))
       for j in (0, 1, -1) for part in (0, 1) for step in (1, -1)},
    # -(1-2m) conj(a_m) in place of (1-2m) conj(a_m): the step's two factors swap
    "(1-2m) sign": (mutant_source, (
        lambda_poly._scaled_coeffs, "(2 + 2 * n - 2 * m) * re, (2 * n + 2 * m) * im",
        "(2 * n + 2 * m) * re, (2 + 2 * n - 2 * m) * im")),
    # the mirror start, a_1 from (1+ik)_n
    "convention flip": (mutant_source, (lambda_poly._scaled_coeffs,
                                        "ip = -p", "ip = p")),
}


class TestCoupledResidual:
    def test_n0_constant_lambda(self):
        rep = coupled_residual(OrderParams(n=0, k=1.0))
        assert rep.passed
        assert tuple(rep.residuals) == (0.0,)

    def test_n1_k1_hand_checked(self):
        # constant term a_2(1-2ik) + 3 a_1 - conj(a_1) vanishes
        rep = coupled_residual(OrderParams(n=1, k=1.0))
        assert rep.passed and rep.grid == (0.0, 1.0)

    # a certificate: every coefficient x^0..x^n sums to exactly 0, also
    # where the rounded coefficients would leave the double range (1e300)
    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0, 0.0, 1e-6, 2.526, 3.818,
                                   600.0, -2.526, 1e300, 5e-324])
    def test_exact_for_all_generated_vectors(self, k):
        for n in range(26):
            rep = coupled_residual(OrderParams(n=n, k=k))
            assert len(rep.grid) == n + 1
            assert rep.max_residual == 0.0, (n, k)

    def test_perturbation_sensitivity(self, monkeypatch):
        # +1 in the real numerator of sqrt(pi) d_3 a_3 at n = 4, k = 1
        monkeypatch.setattr(lambda_poly, "_scaled_coeffs", one_integer_off(2, 0, 1))
        rep = coupled_residual(OrderParams(n=4, k=1.0))
        assert not rep.passed and rep.max_residual >= 1e-5

    @pytest.mark.parametrize("name", SCALED_MUTANTS)
    def test_any_change_to_the_integers_is_caught(self, name, monkeypatch):
        # the coupled equation is real-linear and homogeneous, so a mutant
        # that is another of its solutions passes it: a real multiple at
        # n = 0 (one real coefficient), and the other convention at n = 3,
        # k = 1, whose top comes out -2^n.  The top-coefficient invariant
        # refuses those; every other change reads > 0, however small
        original = lambda_poly._scaled_coeffs
        make, args = SCALED_MUTANTS[name]
        mutant = make(*args)
        changed = [(n, k) for n in range(26) for k in COUPLED_KS
                   if mutant(n, k) != original(n, k)]
        assert len(changed) >= 200
        monkeypatch.setattr(lambda_poly, "_scaled_coeffs", mutant)
        passed = {(n, k) for n, k in changed
                  if coupled_residual(OrderParams(n=n, k=k)).max_residual == 0.0}
        if name == "convention flip":
            assert passed == {(3, 1.0)}
        elif name.endswith("re") and "P[1]" not in name:
            assert passed == {(n, k) for n, k in changed if n == 0}
        else:
            assert not passed
        for n, k in passed:
            with pytest.raises(InvariantViolationError):
                coeffs_from_recurrence(OrderParams(n=n, k=k))


# --- float reference: the factor equations lifted at one x -------------------

def bessel_ode_coeffs(nu, x: float):
    """(p, p', p''), (q, q', q'') at x of the modified Bessel equation
    y'' = p y' + q y, with p = -1/x and q = 1 + nu^2/x^2."""
    nu2 = complex(nu) ** 2
    return ((-1 / x, 1 / x ** 2, -2 / x ** 3),
            (1 + nu2 / x ** 2, -2 * nu2 / x ** 3, 6 * nu2 / x ** 4))


def whittaker_ode_coeffs(kappa, mu, x: float):
    """(p, p', p''), (q, q', q'') at x of the equation v'' = q v solved by
    v(x) = W_{kappa,mu}(2x) and M_{kappa,mu}(2x), with
    q = 1 - 2 kappa/x - (1/4 - mu^2)/x^2."""
    c = 0.25 - complex(mu) ** 2
    return ((0.0, 0.0, 0.0),
            (1 - 2 * kappa / x - c / x ** 2,
             2 * kappa / x ** 2 + 2 * c / x ** 3,
             -4 * kappa / x ** 3 - 6 * c / x ** 4))


def lift_derivatives(y, dy, p, q) -> list[complex]:
    """[y, y', y'', y''', y''''] of a solution of y'' = p y' + q y, given
    (y, y') and p, q each as (value, first, second derivative)."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    d2 = p0 * dy + q0 * y
    d3 = p1 * dy + p0 * d2 + q1 * y + q0 * dy
    d4 = p2 * dy + 2 * p1 * d2 + p0 * d3 + q2 * y + 2 * q1 * dy + q0 * d2
    return [y, dy, d2, d3, d4]


def product_derivatives(f, g) -> list[complex]:
    """Derivatives 0..4 of f*g by the Leibniz rule."""
    return [sum(math.comb(j, i) * f[i] * g[j - i] for i in range(j + 1))
            for j in range(5)]


def basis_at(params, x):
    """The exact canonical products' derivatives 0..4 at x, keyed by BASIS
    (basis_products keeps them over (4q^2)^8)."""
    _, q = params.k.as_integer_ratio()
    den = (4 * q * q) ** 8
    return {name: [_exact.value(d, den, x) for d in derivs]
            for name, derivs in basis_products(params).items()}


def one_coefficient_off(name: str, power: int, step: int):
    """ode4_coeffs with `step` added to the real part of the x^power
    coefficient of a_j = `name` (an integer over the denominator q^3)."""
    def mutant(params, variant="corrected"):
        c = ode4_coeffs(params, variant)
        return dataclasses.replace(
            c, **{name: _exact.add(getattr(c, name), {power: (step, 0)})})
    return mutant


class TestOde4Coeffs:
    def test_degrees(self):
        c = ode4_coeffs(OrderParams(n=2, k=0.7))
        assert [max(a) for a in c.as_list()] == [3, 2, 3, 2, 1]

    def test_a1_double_root_at_zero(self):
        c = ode4_coeffs(OrderParams(n=3, k=1.0))
        assert min(c.a1) == 2

    def test_a1_value(self):
        # a1(1) at n=0, k=0 is 1 + 4 = 5
        c = ode4_coeffs(OrderParams(n=0, k=0.0))
        assert _exact.value(c.a1, c.den, 1.0) == 5

    def test_a5_vanishes_at_n0(self):
        c = ode4_coeffs(OrderParams(n=0, k=1.0))
        assert c.a5 == {}

    @pytest.mark.parametrize("k", [0.8, 0.1, 2.526, 1e300, 5e-324])
    def test_q_cubed_clears_every_coefficient(self, k):
        # also where k^3 or its denominator leaves the double range
        c = ode4_coeffs(OrderParams(n=2, k=k))
        assert c.den == k.as_integer_ratio()[1] ** 3
        assert all(type(part) is int for a in c.as_list()
                   for coeff in a.values() for part in coeff)

    @pytest.mark.parametrize("n, k", [(0, 1.0), (2, 0.8), (7, 2.526), (25, 0.1)])
    def test_values_match_the_formulas_in_double(self, n, k):
        m, nn, ik = 1 + 2 * n, n * (n + 1), 1j * k
        ipk, ip4k = complex(k, 1), complex(4 * k, 1)
        constants = {"corrected": -2 * (1 + 2 * ik) * ipk * ip4k,
                     "printed": 2j * (1 - 2 * k) * ipk * ip4k}
        for x in (0.5, 1.3):
            for variant, c3 in constants.items():
                want = [(1 - 4 * ik) * x ** 2 + 4 * m * x ** 3,
                        4 * (1 - 4 * ik) * x + 12 * m * x ** 2,
                        c3 + 4 * (1 + 4 * k * k) * m * x
                        + 4 * (1 + 4 * ik + 8 * nn) * x ** 2 - 16 * m * x ** 3,
                        -4 * ipk * ip4k * m + 8 * (-1 + 2 * nn + 6 * ik) * x
                        - 32 * m * x ** 2,
                        12 * nn * (1 - 4 * ik) + 16 * nn * m * x]
                c = ode4_coeffs(OrderParams(n=n, k=k), variant)
                for a, w in zip(c.as_list(), want):
                    assert abs(_exact.value(a, c.den, x) - w) <= 1e-13 * abs(w)

    def test_variants_differ_only_in_a3_constant(self):
        p = OrderParams(n=2, k=0.8)
        cor = ode4_coeffs(p, "corrected")
        pri = ode4_coeffs(p, "printed")
        assert cor.a1 == pri.a1 and cor.a2 == pri.a2
        assert cor.a4 == pri.a4 and cor.a5 == pri.a5
        assert {e: c for e, c in cor.a3.items() if e} == {e: c for e, c in pri.a3.items() if e}
        assert cor.a3[0] != pri.a3[0]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ode4_coeffs(OrderParams(n=1, k=1.0), "bogus")


class TestOde4Residual:
    def test_lambda_polynomial_analytic_derivatives(self):
        for (n, k) in [(1, 1.0), (3, 0.5), (4, 2.0)]:
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            poly = cv.big_lambda_poly()
            for x in (0.5, 1.0, 2.0, 4.0):
                derivs = [complex(poly.deriv(j)(x)) for j in range(5)]
                r = ode4_residual(derivs, OrderParams(n=n, k=k), x)
                assert r <= 1e-8, (n, k, x)

    def test_kw_product(self):
        # K*W from the kernels' values and slopes, lifted by the factor equations
        params = OrderParams(n=1, k=1.0)
        derivs = product_derivatives(factor_at("K", params, 2.0),
                                     factor_at("W", params, 2.0))
        assert ode4_residual(derivs, params, 2.0) <= ODE4_TOL

    def test_exponential_control(self):
        # y = e^x: every derivative is e^x
        params = OrderParams(n=1, k=1.0)
        r = ode4_residual([cmath.exp(1.5)] * 5, params, 1.5)
        assert r >= 1e-1

    def test_coefficients_outside_the_double_range_are_input_error(self):
        # a3's constant is of order k^3: 1e900 at k = 1e300
        with pytest.raises(InputError):
            ode4_residual([1.0] * 5, OrderParams(n=2, k=1e300), 1.0)


class TestDerivativeLift:
    """The float lift that factor_at and the kernel cross-checks use."""

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


class TestOde4OnLambda:
    """a1..a5 applied exactly to Lambda's Gaussian integers
    (lambda_poly._lambda_integers): one residual per power of x."""

    KS = (0.0, 1e-6, 0.1, 0.5, 1.0, 2.526, 600.0)

    @staticmethod
    def scores(params, variant="corrected") -> list[float]:
        big, _, _, _ = lambda_poly._lambda_integers(params)
        derivs = [_exact.poly(big)]
        for _ in range(4):
            derivs.append(_exact.deriv(derivs[-1]))
        return [r for _, r in ode4_scores(ode4_coeffs(params, variant), derivs)]

    @pytest.mark.parametrize("k", KS)
    def test_corrected_coefficients_annihilate_lambda(self, k):
        for n in range(26):
            assert max(self.scores(OrderParams(n=n, k=k)), default=0.0) == 0.0, n

    def test_printed_a3_leaves_a_defect_from_n2(self):
        # the printed a3 constant differs by a constant, a multiple of
        # Lambda'' in the ODE: nothing at n = 0 and 1, a defect from n = 2
        for k in (0.5, 1.0, 2.526):
            for n in range(26):
                worst = max(self.scores(OrderParams(n=n, k=k), "printed"), default=0.0)
                assert (worst == 0.0) if n < 2 else (worst > 0.0), (n, k)
        assert max(self.scores(OrderParams(n=2, k=1.0), "printed")) == pytest.approx(
            0.137, abs=1e-3)


class TestProductSolutions:
    @pytest.mark.parametrize("k", [0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_four_products_solve(self, n, k):
        rep = product_solution_check(OrderParams(n=n, k=k))
        assert rep.passed and rep.max_residual == 0.0, (n, k, rep.max_residual)

    @pytest.mark.parametrize("k", [1e-6, 0.1, 0.5, 1.0, 2.0, 2.526, 3.818, 600.0, 1e300])
    def test_exact_for_every_order(self, k):
        # a certificate: every coefficient of every product cancels exactly,
        # also where k^3 leaves the double range
        for n in range(26):
            rep = product_solution_check(OrderParams(n=n, k=k))
            assert rep.grid and rep.max_residual == 0.0, (n, k)

    def test_grid_holds_the_powers_of_x(self):
        # product by product in BASIS order, ascending powers, as the notes say
        params = OrderParams(n=2, k=0.5)
        rep = product_solution_check(params)
        powers = [[e for e, _ in ode4_scores(ode4_coeffs(params), derivs)]
                  for derivs in basis_products(params).values()]
        assert all(p == sorted(p) for p in powers)
        assert list(rep.grid) == [float(e) for p in powers for e in p]
        assert list(rep.notes[1:]) == [f"{name}: x^{p}" for name, p in zip(BASIS, powers)]

    def test_control_non_solution_fails(self):
        # the canonical products of the n+1 Whittaker equation are not in
        # the basis of n's ODE: an exact defect of 0.41
        params = OrderParams(n=1, k=1.0)
        shifted = OrderParams(n=params.n + 1, k=params.k)
        coeffs = ode4_coeffs(params)
        worst = max(r for derivs in basis_products(shifted).values()
                    for _, r in ode4_scores(coeffs, derivs))
        assert worst >= 1e-1

    def test_calls_no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("product_solution_check called a kernel")

        for name in ("bessel_i", "bessel_k_quad", "whittaker_m", "whittaker_w"):
            monkeypatch.setattr(wbident.ode, name, refuse)
        # the default suite's basis checks and their verdicts
        for n in range(5):
            for k in (0.5, 1.0):
                assert product_solution_check(OrderParams(n=n, k=k)).passed
        assert not product_solution_check(OrderParams(n=1, k=0.5),
                                          variant="printed").passed

    # (y, y') of I, K at x and of M(2x), W(2x) in x: any values will do
    RANDOM_FACTORS = {"I": (0.001 + 0.299j, -0.274 - 0.891j),
                      "K": (-0.455 - 0.992j, 0.06 + 1.34j),
                      "M": (-0.492 - 0.62j, 0.49 + 0.357j),
                      "W": (0.105 - 0.93j, -0.029 + 0.695j)}

    def test_factor_equations_make_any_values_a_solution(self):
        # the check is blind to the kernels: products of arbitrary (y, y')
        # lifted by the factor equations solve the corrected ODE to rounding
        # and fail the printed one as the kernels' products do
        corrected, printed = 0.0, 0.0
        for n in range(6):
            for k in (0.1, 0.5, 1.0, 2.0):
                params = OrderParams(n=n, k=k)
                worst_printed = 0.0
                for x in (0.5, 1.0, 2.0, 4.0):
                    eqs = {"I": bessel_ode_coeffs(complex(-0.5, k), x),
                           "M": whittaker_ode_coeffs(n + 0.5, 1j * k, x)}
                    eqs["K"], eqs["W"] = eqs["I"], eqs["M"]
                    f = {name: lift_derivatives(*yy, *eqs[name])
                         for name, yy in self.RANDOM_FACTORS.items()}
                    for a, b in ("IM", "IW", "KW", "KM"):
                        derivs = product_derivatives(f[a], f[b])
                        corrected = max(corrected, ode4_residual(derivs, params, x))
                        worst_printed = max(worst_printed, ode4_residual(
                            derivs, params, x, "printed"))
                assert worst_printed > ODE4_TOL, (n, k)
                printed = max(printed, worst_printed)
        assert corrected <= 1e-14
        assert printed >= 1e-1

    # +-1 in one integer of q^3 a_j: the real part of its top coefficient,
    # or of a3's constant (the term the printed variant changes)
    COEFF_MUTANTS = {"a1": ("a1", 3), "a2": ("a2", 2), "a3": ("a3", 3),
                     "a4": ("a4", 2), "a5": ("a5", 1), "a3 constant": ("a3", 0)}

    @pytest.mark.parametrize("mutant", COEFF_MUTANTS)
    def test_perturbed_coefficient_fails(self, mutant, monkeypatch):
        # any nonzero change reads > 0 in every cell, however large q is; at
        # k = 0.5 (q = 2) the change is a few percent and the check fails
        name, power = self.COEFF_MUTANTS[mutant]
        for step in (1, -1):
            monkeypatch.setattr(wbident.ode, "ode4_coeffs",
                                one_coefficient_off(name, power, step))
            assert not product_solution_check(OrderParams(n=4, k=0.5)).passed
            for n in (0, 1, 7, 25):
                for k in (1e-6, 0.1, 2.526, 600.0):
                    rep = product_solution_check(OrderParams(n=n, k=k))
                    assert rep.max_residual > 0.0, (n, k, step)

    # source edits of basis_products: a factor equation or the Leibniz rule
    FACTOR_MUTANTS = {
        "Bessel nu^2 with -k^2 -> +k^2": ("q * q - 4 * p * p, -4 * p * q",
                                          "q * q + 4 * p * p, -4 * p * q"),
        "Bessel nu with ik -> -ik": ("q * q - 4 * p * p, -4 * p * q",
                                     "q * q - 4 * p * p, 4 * p * q"),
        "Bessel p sign": ("poly([(-s, 0)], -1)", "poly([(s, 0)], -1)"),
        "Whittaker 1/4 + k^2 -> 1/4 - k^2": ("(-q * q - 4 * p * p, 0)",
                                             "(-q * q + 4 * p * p, 0)"),
        "Leibniz binomials dropped": ("math.comb(m, r)", "1"),
    }

    @pytest.mark.parametrize("mutant", FACTOR_MUTANTS)
    def test_factor_equation_mutant_fails(self, mutant, monkeypatch):
        # measured: each reads at least 0.035 in every cell below
        monkeypatch.setattr(wbident.ode, "basis_products", mutant_source(
            wbident.ode.basis_products, *self.FACTOR_MUTANTS[mutant]))
        for n in (0, 2, 7):
            for k in (0.1, 1.0, 2.526):
                assert not product_solution_check(OrderParams(n=n, k=k)).passed, (n, k)

    @pytest.mark.parametrize("n, k", [(1, 1e-6), (1, 1e-8), (0, 5.6e-9), (1, 1e-12)])
    def test_small_k_stays_at_rounding_level(self, n, k):
        # u0*v1's terms cancel to O(k) at n = 1, x = 1/2 (and others at
        # n = 0), where a float check needed the basis' largest term as its
        # scale; scored exactly they cancel to 0.0
        rep = product_solution_check(OrderParams(n=n, k=k))
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan, 1e-300, 1e100])
    def test_grid_outside_the_double_range_is_input_error(self, x, capsys):
        # the check is exact in x and takes no grid: verify refuses every
        # --x-grid, these among them
        assert main(["verify", "--check", "ode4-basis", f"--x-grid=1.0,{x!r}"]) == 2
        assert "takes no --x-grid" in capsys.readouterr().err

    def test_printed_variant_fails_products(self):
        # the printed defect is a constant times (u_i v_j)'', which is 0 for
        # u0*v1 alone
        rep = product_solution_check(OrderParams(n=1, k=1.0), variant="printed")
        assert rep.advisory
        assert not rep.passed
        assert rep.max_residual > 1e-2
        per_product = [max(r for _, r in ode4_scores(
            ode4_coeffs(OrderParams(n=1, k=1.0), "printed"), derivs))
            for derivs in basis_products(OrderParams(n=1, k=1.0)).values()]
        assert [r > 0.0 for r in per_product] == [True, False, True, True]


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
        # its second derivative from the contiguous relations must expose that
        # (0.18, 0.22 and 0.26 at these x, against whittaker_eq_tol = 1e-9)
        n, k = 3, 1.0
        for x in (0.5, 1.0, 2.0):
            w, w2 = lowered_values(whittaker_w, n + 1.5, 1j * k, 2 * x)
            assert whittaker_operator_residual(w, in_x(w2), n, k, x) >= 1e-1

    @pytest.mark.parametrize("n", range(9))
    def test_lowered_second_derivative_against_mpmath(self, n):
        import mpmath as mp
        kappa = n + 0.5
        with mp.workdps(30):
            for k in (0.1, 1.0, 2.526):
                for kernel, fn, mu in ((kernels._whittaker_w_two_term, mp.whitw, 1j * k),
                                       (whittaker_m, mp.whitm, 1j * k),
                                       (whittaker_m, mp.whitm, -1j * k)):
                    for z in (1.0, 4.0, 12.0):
                        want = complex(mp.diff(lambda t: fn(kappa, mu, t), z, 2))
                        got = sum(lowered_values(kernel, kappa, mu, z)[1])
                        assert abs(got - want) <= 1e-12 * abs(want), (k, kernel, mu, z)

    def test_passes_at_a_zero_of_w(self):
        # W_{5/2,i}(2x) vanishes near x = 1.890996428340178, and so do W''
        # and the potential term; the addends of W'', through
        # d_kappa W_{kappa-1} != 0, floor the scale (0.134 without the floor)
        params, x = OrderParams(n=2, k=1.0), 1.890996428340178
        w, _ = lowered_values(kernels._whittaker_w_two_term, 2.5, 1j, 2 * x)
        assert abs(w) <= 1e-15
        rep = next(r for r in trial_condition_check(params, (x,))
                   if r.check_name == "trial-whittaker-equation")
        assert rep.passed and rep.max_residual <= 1e-11

    def test_kappa_dependent_w_error_fails_at_every_x(self, monkeypatch):
        # the control mutant below fails at each x, the zero of W included
        params, xs = OrderParams(n=2, k=1.0), (0.5, 1.0, 2.0, 4.0, 1.890996428340178)
        two_term = kernels._whittaker_w_two_term
        monkeypatch.setattr(wbident.ode, "_whittaker_w_two_term",
                            lambda kappa, mu, z, config=None:
                            two_term(kappa, mu, z, config) * (1 + 1e-6 * kappa))
        rep = next(r for r in trial_condition_check(params, xs)
                   if r.check_name == "trial-whittaker-equation")
        assert min(rep.residuals[0::2]) >= 4e-7          # the W entries

    def test_kappa_dependent_w_error_fails(self, monkeypatch):
        # W_kappa x (1 + 1e-6 kappa): a term-by-term W'' scales with W, so
        # the equation holds for it; the relations mix three orders and fail
        params, xs = OrderParams(n=2, k=0.5), (0.5, 1.0, 2.0, 4.0)
        two_term = kernels._whittaker_w_two_term

        def scaled(kappa, mu, z, config=None):
            return two_term(kappa, mu, z, config) * (1 + 1e-6 * kappa)

        def equation(reports):
            return [r for r in reports if r.check_name == "trial-whittaker-equation"][0]

        assert equation(trial_condition_check(params, xs)).passed
        monkeypatch.setattr(wbident.ode, "_whittaker_w_two_term", scaled)
        rep = equation(trial_condition_check(params, xs))
        assert not rep.passed and rep.max_residual >= 1e-7

    # trial-whittaker-equation fails only at x = 8 in these cells, where the
    # connection formula's own error for W is up to 9e-10
    BOX_FAILURES = {(22, 1.0), (25, 0.01), (25, 0.1)}

    def test_box_verdicts(self):
        failing = set()
        for n in range(26):
            for k in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
                reports = trial_condition_check(OrderParams(n=n, k=k),
                                                (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0))
                for rep in reports:
                    if not rep.passed:
                        assert rep.check_name == "trial-whittaker-equation"
                        assert max(rep.residuals[-2:]) == rep.max_residual   # x = 8
                        failing.add((n, k))
        assert failing == self.BOX_FAILURES


    def test_trial_check_tables_three_grids(self):
        # the basis check adds nothing to the kernel table; the trial check
        # adds three grids of each factor, the two-term W and M at +ik and
        # -ik, at kappa = n+1/2, n-1/2 and n-3/2, and each grid's points
        params = OrderParams(n=2, k=0.5)
        zs = (1.0, 2.0, 4.0, 8.0)
        with kernels.kernel_table():
            product_solution_check(params)
            assert not kernels._TABLE.get()
            trial_condition_check(params, [0.5, 1.0, 2.0, 4.0])
            added = [(key[0], key[1][1], key[1][0], key[1][2])
                     for key in kernels._TABLE.get()]
        grids = [key for key in added if type(key[3]) is tuple]
        orders = {(fn.__wrapped__, mu, kappa) for fn, mu in (
            (kernels._whittaker_w_two_term, 0.5j), (kernels.whittaker_m, 0.5j),
            (kernels.whittaker_m, -0.5j)) for kappa in (2.5, 1.5, 0.5)}
        assert len(grids) == 9 and set(grids) == {(*o, zs) for o in orders}
        points = [key for key in added if type(key[3]) is not tuple]
        assert len(points) == 9 * 4 and set(points) == {
            (*o, z) for o in orders for z in zs}

    @pytest.mark.parametrize("factor, report", [
        ("_whittaker_w_two_term", "trial-w-realness"),
        ("whittaker_m", "trial-m-sum-realness"),
    ])
    def test_vanishing_factor_scores_zero(self, factor, report, monkeypatch):
        # a realness residual divides by |W| or |M_{+} + M_{-}|; where the
        # value is 0, its imaginary part is too, and the residual is 0
        monkeypatch.setattr(wbident.ode, factor,
                            lambda kappa, mu, z, config: np.zeros(len(z), complex))
        reports = trial_condition_check(OrderParams(n=2, k=0.5), (0.5, 1.0))
        rep = next(r for r in reports if r.check_name == report)
        assert tuple(rep.residuals) == (0.0, 0.0) and rep.passed

    def test_empty_grid_is_refused(self):
        # a check on no point would pass without testing anything
        with pytest.raises(InputError, match="empty"):
            trial_condition_check(OrderParams(n=2, k=0.5), [])


def factor_at(factor, params, x):
    """Derivatives 0..4 at x of a basis factor, I or K of order -1/2+ik at x
    or M or W of indices (n+1/2, ik) at 2x, from the kernels' value and first
    derivative (for I and K by DLMF 10.29.2) and the factor's equation."""
    n, k = params.n, params.k
    if factor in ("I", "K"):
        nu = complex(-0.5, k)
        y = (bessel_i if factor == "I" else bessel_k_quad)(nu, x)
        dy = (bessel_i(nu + 1, x) if factor == "I" else -bessel_k_quad(nu + 1, x))
        return lift_derivatives(y, dy + nu / x * y, *bessel_ode_coeffs(nu, x))
    kernel, lowering = (whittaker_m, m_lowering) if factor == "M" else (whittaker_w, w_lowering)
    kappa, mu, z = n + 0.5, 1j * k, 2 * x
    y = kernel(kappa, mu, z)
    # z f'_kappa = (kappa - z/2) f_kappa + d_kappa f_{kappa-1}
    dz = ((kappa - z / 2) * y + lowering(kappa, mu) * kernel(kappa - 1, mu, z)) / z
    return lift_derivatives(y, 2 * dz, *whittaker_ode_coeffs(kappa, mu, x))


def lowered_values(kernel, kappa, mu, z):
    """(f, the addends of f'') at the point z for f = kernel(kappa, mu, .),
    f'' from the kernel's values at kappa, kappa-1 and kappa-2 by the
    downward relations."""
    lowering = m_lowering if kernel is whittaker_m else w_lowering
    f = [kernel(kappa - j, mu, z) for j in range(3)]
    d = (lowering(kappa, mu), lowering(kappa - 1, mu))
    return f[0], lowered_terms(f, d, kappa, z)


def in_x(terms):
    """The addends of d^2/dx^2 f(2x) = 4 f''(2x)."""
    return [4 * t for t in terms]


def per_point_trial_residuals(params, x_grid):
    n, k = params.n, params.k
    out = [[], [], [], []]
    for x in x_grid:
        w, w2 = lowered_values(kernels._whittaker_w_two_term, n + 0.5, 1j * k, 2 * x)
        mp, mp2 = lowered_values(whittaker_m, n + 0.5, 1j * k, 2 * x)
        mm, mm2 = lowered_values(whittaker_m, n + 0.5, -1j * k, 2 * x)
        s, d = mp + mm, mp - mm
        out[0].append(abs(w.imag) / abs(w))
        out[1].append(abs(s.imag) / abs(s))
        out[2].append(abs(d.real) / abs(d) if d != 0 else 0.0)
        out[3] += [whittaker_operator_residual(w, in_x(w2), n, k, x),
                   whittaker_operator_residual(
                       s, [a + b for a, b in zip(in_x(mp2), in_x(mm2))], n, k, x)]
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
    """The trial and reconstruction checks take M and W on the whole grid in
    one call; the arithmetic after the kernel calls is per point, so every
    residual keeps its bits.  The basis check is exact in x; at each point
    its canonical products combine with the kernels' values, and the float
    residual there agrees with its verdict."""

    XS = (0.5, 1.0, 1.7, 2.0, 4.0, 5.3)
    ORDERS = [(0, 0.5), (2, 0.5), (4, 1.0), (7, 2.526), (12, 0.1)]

    @pytest.mark.parametrize("n, k", ORDERS)
    def test_factor_and_basis_derivatives(self, n, k):
        # the kernels' products are the canonical products combined with
        # the factors' values and slopes: I*M = sum I^(i) M^(j) u_i v_j
        params = OrderParams(n=n, k=k)
        for x in self.XS:
            canonical = basis_at(params, x)
            f = {name: factor_at(name, params, x) for name in "IKMW"}
            for a, b in ("IM", "IW", "KW", "KM"):
                terms = [[f[a][i] * f[b][j] * d for d in canonical[f"u{i}*v{j}"]]
                         for i in range(2) for j in range(2)]
                want = product_derivatives(f[a], f[b])
                for m in range(5):
                    scale = max(abs(t[m]) for t in terms)
                    assert abs(sum(t[m] for t in terms) - want[m]) <= 1e-13 * scale

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("n, k", ORDERS)
    def test_basis_check(self, n, k, variant):
        # a product whose coefficients cancel exactly reads rounding in double
        # at every x, and one with an exact defect fails at every x
        params = OrderParams(n=n, k=k)
        coeffs = ode4_coeffs(params, variant)
        exact = {name: max(r for _, r in ode4_scores(coeffs, derivs))
                 for name, derivs in basis_products(params).items()}
        rep = product_solution_check(params, variant=variant)
        assert rep.max_residual == max(exact.values())
        for x in self.XS:
            at_x = basis_at(params, x)
            for name in BASIS:
                r = ode4_residual(at_x[name], params, x, variant)
                assert (r <= 1e-12) if exact[name] == 0.0 else (r > ODE4_TOL), (x, name)

    @pytest.mark.parametrize("n, k", ORDERS)
    def test_trial_check(self, n, k):
        params = OrderParams(n=n, k=k)
        got = [tuple(r.residuals) for r in trial_condition_check(params, self.XS)]
        assert got == [tuple(r) for r in per_point_trial_residuals(params, self.XS)]

    @pytest.mark.parametrize("n, k", ORDERS + [(0, 0.0), (3, 0.0), (6, 2.0)])
    def test_reconstruction(self, n, k):
        params = OrderParams(n=n, k=k)
        rep = lambda_reconstruction(params, self.XS + (6.0,))
        assert tuple(rep.residuals) == tuple(per_point_reconstruction_residuals(
            params, self.XS + (6.0,)))


def indicial_polynomial(coeffs) -> dict:
    """q^3 I(sigma), I the indicial polynomial at x = 0, as an exact
    polynomial in sigma: a_j's lowest term c x^i on y^(d), y ~ x^sigma,
    gives c sigma(sigma-1)...(sigma-d+1) x^(sigma+i-d), and I sums the
    terms at the lowest power (those of a1, a2 and a3)."""
    leading = []
    for j, a in enumerate(coeffs.as_list()):
        if a:
            i, d = min(a), 4 - j
            falling = _exact.poly([(1, 0)])
            for r in range(d):
                falling = _exact.mul(falling, _exact.poly([(-r, 0), (1, 0)]))
            leading.append((i - d, _exact.scale(a[i], falling)))
    shift = min(o for o, _ in leading)
    return _exact.add(*(f for o, f in leading if o == shift))


class TestIndicial:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_roots_match_predicted_set(self, k):
        ia = indicial_analysis(OrderParams(n=2, k=k))
        assert ia.match
        assert ia.max_deviation == 0.0

    @pytest.mark.parametrize("k", [1e-6, 0.1, 0.5, 1.0, 2.0, 2.526, 600.0, 1e300, 5e-324])
    def test_exact_for_every_order(self, k):
        # a certificate: the leading balance vanishes exactly at all four
        # exponents, also where k^3 or q^4 leaves the double range
        for n in range(26):
            assert indicial_analysis(OrderParams(n=n, k=k)).defects == (0.0,) * 4, n

    def test_roots_always_include_zero_and_one(self):
        ia = indicial_analysis(OrderParams(n=3, k=0.7))
        assert ia.predicted[:2] == (0, 1)
        assert ia.defects[:2] == (0.0, 0.0)

    @pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0])
    def test_perturbed_a3_constant_fails(self, k, monkeypatch):
        # substituting the exponents is not vacuous: +-1 in the real part of
        # q^3 times a3's constant moves the roots 2ik and 1-2ik off, and their
        # defects read > 0, so the check fails.  At k = 0.1 (q = 2^55) that
        # is a change of 1e-50 relative, which any tolerance would let pass
        params = OrderParams(n=2, k=k)
        assert indicial_analysis(params).match
        for step in (1, -1):
            monkeypatch.setattr(wbident.ode, "ode4_coeffs",
                                one_coefficient_off("a3", 0, step))
            ia = indicial_analysis(params)
            assert ia.defects[:2] == (0.0, 0.0) and min(ia.defects[2:]) > 0.0
            assert not ia.match
            assert not indicial_reports(params)[0].passed

    @pytest.mark.parametrize("k", [0.1, 0.5, 2.526, 1e10])
    def test_indicial_polynomials_exactly(self, k):
        # I(sigma) = sigma(sigma-1)[(1-4ik)(sigma^2-sigma-2) + c] from a1..a3;
        # the corrected c factors it as (1-4ik) sigma(sigma-1)(sigma-2ik)
        # (sigma-1+2ik), the printed c adds (2+2i)(k+i)(4k+i) sigma(sigma-1).
        # Compared coefficient by coefficient in sigma, times q^3 at k = p/q
        params = OrderParams(n=2, k=k)
        p, q = k.as_integer_ratio()
        s01 = _exact.poly([(0, 0), (-1, 0), (1, 0)])               # sigma(sigma-1)
        corrected = _exact.mul(_exact.scale((q, -4 * p), s01), _exact.mul(
            _exact.poly([(0, -2 * p), (q, 0)]), _exact.poly([(-q, 2 * p), (q, 0)])))
        excess = _exact.scale(_exact.gaussian_product(
            (2 * q, 2 * q), _exact.gaussian_product((p, q), (4 * p, q))), s01)
        assert indicial_polynomial(ode4_coeffs(params)) == corrected
        assert indicial_polynomial(ode4_coeffs(params, "printed")) == _exact.add(
            corrected, excess)
        # +-1 in q^3 times a3's constant leaves sigma(sigma-1) behind
        for step in (1, -1):
            mutant = one_coefficient_off("a3", 0, step)(params)
            assert _exact.add(indicial_polynomial(mutant),
                              _exact.scale((-1, 0), corrected)) == _exact.scale(
                (step, 0), s01)

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

    @pytest.mark.parametrize("k", [1e10, 1.2e10, 1e100, 1e300])
    def test_printed_quadratic_fails_at_every_k(self, k, capsys):
        # the printed bracket at sigma = 2ik is -4k + i(2k - 4), nonzero for
        # every k > 0; its relative defect falls like 1/k (1.1e-10 at 1e10),
        # and the advisory check fails however small it gets
        ia = indicial_analysis(OrderParams(n=2, k=k))
        assert ia.match and 0.0 < ia.printed_deviation < 1e-9
        assert main(["verify", "--check", "indicial", "--n", "2", "--k", repr(k)]) == 0
        assert "ADVISORY-FAIL  indicial-printed-quadratic" in capsys.readouterr().out

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


# the k table of the 40-digit tests; 4.53 is near n = 0's first zero of
# printed relation 3's defect, k = pi/ln 2
CONSTANTS_KS = (1e-3, 0.1, 0.5, 2.526, 4.53, 50.0, 200.0)


class TestConstants:
    @pytest.mark.parametrize("k", CONSTANTS_KS)
    def test_beta_iw_is_a1(self, k):
        # c2 = a_1 / beta_IW = 1: by the duplication formula beta_IW =
        # 2^{1-2ik} Gamma(2ik)/(Gamma(1/2+ik) Gamma(-n+ik)) equals
        # (-1)^n (1-ik)_n / sqrt(pi) (at 40 digits), and that is Lambda's a_1
        # exactly: sqrt(pi) a_1 = P_0 / D on the integers, (1-ik)_n times
        # q^n at k = p/q.  So solution_constants returns c2 = 1 exactly
        from mpmath import mp
        for n in range(26):
            with mp.workdps(40):
                ik = mp.mpc(0, k)
                beta = (2 ** (1 - 2 * ik) * mp.gamma(2 * ik)
                        / (mp.gamma(mp.mpf(1) / 2 + ik) * mp.gamma(-n + ik)))
                a1 = (-1) ** n * mp.rf(1 - ik, n) / mp.sqrt(mp.pi)
                assert abs(beta - a1) <= mp.mpf(10) ** -38 * abs(a1), n
            (p0, *_), d, p, q = lambda_poly._lambda_integers(OrderParams(n=n, k=k))
            poch = ((-1) ** n, 0)
            for j in range(1, n + 1):
                poch = _exact.gaussian_product(poch, (j * q, -p))
            assert (p0[0] * q ** n, p0[1] * q ** n) == (d * poch[0], d * poch[1]), n
            assert solution_constants(OrderParams(n=n, k=k)).c2 == 1 + 0j

    @pytest.mark.parametrize("n,k", [(0, 1.0), (1, 1.0), (2, 0.5), (3, 2.0),
                                     (2, 20.0), (2, 50.0), (2, 200.0)])
    def test_defining_system_structure(self, n, k):
        # c2 = 1 and c3 = 0 are identities, not float solutions
        c = solution_constants(OrderParams(n=n, k=k))
        assert c.c2 == 1 + 0j and c.c3 == 0j
        assert math.isfinite(abs(c.c4)) and c.c4 != 0

    @pytest.mark.parametrize("k", CONSTANTS_KS[1:-1])
    def test_printed_relation_defects(self, k):
        # at (1, 0, c4) relation 1 leaves c2 - 1 - c4 pi Gamma(1+2ik)/Gamma(-n+ik)
        # = ik prod_j (j^2 + k^2), relation 2 holds, and relation 3 leaves
        # 2 - 2^{1-2ik} (-1)^n prod_j (k - ij)/(k + ij), whose second term has
        # modulus 2; printed_relation_residuals reads both closed forms
        from mpmath import mp
        for n in range(26):
            with mp.workdps(40):
                kk = mp.mpf(k)
                ik, ch = mp.mpc(0, kk), mp.cosh(mp.pi * kk)
                c4 = -2 * ch / mp.pi * mp.gamma(-2 * ik) / mp.gamma(-n - ik)
                g1 = mp.pi * mp.gamma(1 + 2 * ik) / mp.gamma(-n + ik)
                g2 = mp.gamma(-n - ik) / mp.gamma(-2 * ik)
                rhs3 = (mp.gamma(-ik) * mp.gamma(mp.mpf(1) / 2 + ik) * mp.gamma(-n + ik)
                        / (mp.sqrt(mp.pi) * mp.gamma(2 * ik) * mp.gamma(-n - ik)))
                defect1 = ik * mp.fprod(j * j + kk * kk for j in range(1, n + 1))
                defect3 = 2 - 2 ** (1 - 2 * ik) * (-1) ** n * mp.fprod(
                    (kk - 1j * j) / (kk + 1j * j) for j in range(1, n + 1))
                tiny = mp.mpf(10) ** -38
                assert abs(-c4 * g1 - defect1) <= tiny * abs(defect1), n
                assert abs(2 / mp.pi * ch + c4 * g2) <= tiny * ch, n
                assert abs(2 - rhs3 - defect3) <= tiny * 2, n
                want = (float(abs(defect1) / max(1, abs(defect1))), 0.0,
                        float(abs(defect3) / 2))
            params = OrderParams(n=n, k=k)
            got = printed_relation_residuals(solution_constants(params), params)
            assert got == pytest.approx(want, rel=0, abs=1e-15), n

    def test_second_printed_relation_holds(self):
        params = OrderParams(n=2, k=1.0)
        c = solution_constants(params)
        r = printed_relation_residuals(c, params)
        assert r[1] <= 1e-10

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
        assert defining == solution_constants(params)

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
        assert defining == solution_constants(params)

    def test_k_limit_of_c4(self):
        for n in range(4):
            ref = (-1) ** (n + 1) * math.factorial(n) / math.pi
            d1 = abs(solution_constants(OrderParams(n=n, k=1e-3)).c4 - ref) / abs(ref)
            d2 = abs(solution_constants(OrderParams(n=n, k=2e-3)).c4 - ref) / abs(ref)
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
        got = solution_constants(OrderParams(n=n, k=k)).c4
        assert abs(got - want) <= 1e-12 * abs(want)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(0, 25), k=st.floats(1e-300, 1e4))
    @example(n=24, k=85.0)        # a gamma product underflowed to 0 here
    @example(n=0, k=230.0)        # cosh(pi k) overflows
    @example(n=2, k=216.5)        # finite terms whose modulus overflows
    def test_constants_finite_or_wbident_error(self, n, k):
        params = OrderParams(n=n, k=k)
        calls = [
            lambda: solution_constants(params).as_tuple(),
            lambda: constants_printed_system(params).as_tuple(),
            lambda: constants_closed_form(params).as_tuple(),
            lambda: printed_relation_residuals(solution_constants(params), params),
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
                            lambda params: laguerre_closed_form(params.n))
        assert got == lambda_reconstruction(OrderParams(n=n, k=0.0), grid)

    @pytest.mark.parametrize("n,k", [(3, 0.5), (0, 2.0), (6, 0.1)])
    def test_rescaled_lambda_fails(self, n, k, monkeypatch):
        # c2 = 1 does not follow Lambda: a Lambda scaled by 1 + 1e-3 reads
        # about 1e-3, where c2 = a_1/beta_IW took the scale along and read
        # rounding
        params, grid = OrderParams(n=n, k=k), [0.5, 1.0, 2.0, 4.0]
        assert lambda_reconstruction(params, grid).max_residual <= 1e-13

        def scaled(p):
            cv = coeffs_from_recurrence(p)
            return dataclasses.replace(cv, a=tuple(a * (1 + 1e-3) for a in cv.a))
        monkeypatch.setattr(wbident.ode, "coeffs_from_recurrence", scaled)
        rep = lambda_reconstruction(params, grid)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1e-3, rel=0.05)

    def test_perturbed_constants_fail(self):
        params = OrderParams(n=1, k=1.0)
        c = solution_constants(params)
        bad = SolutionConstants(c2=c.c2 * (1 + 1e-3), c3=c.c3, c4=c.c4)
        rep = lambda_reconstruction(params, [0.5, 1.0, 2.0], constants=bad)
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
