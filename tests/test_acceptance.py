"""Acceptance suite: every criterion runs standalone at its stated tolerance
and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import math
import time

from wbident.config import EvalConfig
from wbident.core import SQRT_PI
from wbident.kernels import OrderParams, bessel_k_quad, bessel_k_via_w, whittaker_w
from wbident.lambda_poly import (coeffs_from_recurrence, collocation_oracle,
                                 laguerre_closed_form)
from wbident.ode import (coupled_residual, factor_derivatives,
                         indicial_analysis, lambda_reconstruction,
                         ode4_residual, product_derivatives,
                         product_solution_check, solution_constants)
from wbident.report import canonical_json
from wbident.suite import run_suite, verify_identity

K_SET = (0.1, 0.5, 1.0, 2.0)
X_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_central_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(9):
        for k in K_SET:
            rep = verify_identity(OrderParams(n=n, k=k), X_GRID)
            worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    report(1, "central identity, n<=8, k in {0.1,0.5,1,2}, x in [0.25,8]",
           worst <= 1e-6 and elapsed <= 10.0,
           f"max residual {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_coefficient_self_consistency():
    worst = 0.0
    for n in range(21):
        for k in K_SET:
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            expected = 2 ** n / SQRT_PI
            worst = max(worst,
                        abs(cv.a_top - expected) / expected,
                        abs(cv.a_top.imag) / expected)
    report(2, "recurrence from resolved a_1 gives a_{n+1} = 2^n/sqrt(pi), n<=20",
           worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(9):
        for k in (0.5, 1.0, 2.0):
            params = OrderParams(n=n, k=k)
            fit = collocation_oracle(params)
            rec = coeffs_from_recurrence(params)
            for f, a in zip(fit.a, rec.a):
                worst = max(worst, abs(f - a) / abs(a))
    elapsed = time.perf_counter() - t0
    report(3, "collocation oracle matches recurrence coefficients, n<=8",
           worst <= 1e-8, f"max coefficient deviation {worst:.3e}, {elapsed:.1f} s")


def test_criterion_4_laguerre_reduction():
    worst = 0.0
    for n in range(21):
        rec = coeffs_from_recurrence(OrderParams(n=n, k=0.0))
        closed = laguerre_closed_form(n)
        for m in range(1, n + 2):
            worst = max(worst,
                        abs(rec.a_m(m) - closed.a_m(m)) / abs(closed.a_m(m)))
    report(4, "k = 0 coefficients equal ((-1)^n n!/sqrt(pi)) x L_n(2x), n<=20",
           worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_5_coupled_equation_exactness():
    worst = 0.0
    for n in range(21):
        for k in K_SET + (0.0,):
            cv = coeffs_from_recurrence(OrderParams(n=n, k=k))
            worst = max(worst, coupled_residual(cv).max_residual)
    report(5, "coupled-equation residual polynomial vanishes to 1e-12",
           worst <= 1e-12, f"max coefficient residual {worst:.3e}")


def test_criterion_6_kernel_cross_checks():
    worst_cross = 0.0
    worst_imag = 0.0
    for k in K_SET:
        nu = complex(0.5, k)
        for x in X_GRID:
            kq = bessel_k_quad(nu, x)
            kw = bessel_k_via_w(nu, x)
            worst_cross = max(worst_cross, abs(kq - kw) / abs(kq))
    for n in range(9):
        for k in K_SET:
            for x in X_GRID:
                w = whittaker_w(n + 0.5, 1j * k, 2 * x)
                worst_imag = max(worst_imag, abs(w.imag) / abs(w))
    report(6, "Bessel-K evaluators agree to 1e-10; Im(W) <= 1e-10 |W|",
           worst_cross <= 1e-10 and worst_imag <= 1e-10,
           f"cross {worst_cross:.3e}, Im(W) {worst_imag:.3e}")


def test_criterion_7_fourth_order_basis():
    worst = 0.0
    for n in range(5):
        for k in (0.5, 1.0):
            rep = product_solution_check(OrderParams(n=n, k=k),
                                         x_grid=(0.5, 1.0, 2.0, 4.0))
            worst = max(worst, rep.max_residual)
    tol = EvalConfig().ode4_tol
    params = OrderParams(n=1, k=1.0)
    shifted = OrderParams(n=params.n + 1, k=params.k)

    def control(x):
        # K_{-1/2+ik}(x) M_{n+3/2,ik}(2x), checked against n's ODE
        return product_derivatives(factor_derivatives("K", params, x),
                                   factor_derivatives("M", shifted, x))

    control_res = max(ode4_residual(control(x), params, x) for x in (0.5, 1.0, 2.0))
    report(7, f"four product solutions give ODE residual <= {tol:.0e}; control >= 1e-1",
           worst <= tol and control_res >= 1e-1,
           f"basis max {worst:.3e}, control {control_res:.3e}")


def test_criterion_8_indicial_exponents():
    worst = 0.0
    printed_dev = 0.0
    for k in (0.5, 1.0, 2.0):
        ia = indicial_analysis(OrderParams(n=2, k=k))
        worst = max(worst, ia.max_deviation)
        printed_dev = max(printed_dev, ia.printed_deviation)
    print(f"[criterion  8] ledger note: printed indicial quadratic deviates "
          f"from the basis exponents by up to {printed_dev:.3e} (advisory)")
    report(8, "computed indicial roots equal {0, 1, 2ik, 1-2ik} to 1e-10",
           worst <= 1e-10, f"max root deviation {worst:.3e}")


def test_criterion_9_constants_and_limits():
    worst = 0.0
    for n in range(7):
        for k in (0.5, 1.0, 2.0):
            rep = lambda_reconstruction(OrderParams(n=n, k=k),
                                        [0.5, 1.0, 2.0, 4.0, 6.0])
            worst = max(worst, rep.max_residual)

    limit_ok = True
    detail_limits = []
    for n in range(4):
        c1m = solution_constants(OrderParams(n=n, k=1e-3))
        c2m = solution_constants(OrderParams(n=n, k=2e-3))
        ref4 = (-1) ** (n + 1) * math.factorial(n) / math.pi
        devs1 = (abs(c1m.c2 - 1), abs(c1m.c3), abs(c1m.c4 - ref4) / abs(ref4))
        devs2 = (abs(c2m.c2 - 1), abs(c2m.c3), abs(c2m.c4 - ref4) / abs(ref4))
        # c2 and c3 hit their limits identically; c4 approaches linearly in k
        limit_ok &= devs1[0] <= 1e-8 and devs1[1] <= 1e-8
        limit_ok &= devs1[2] <= 1e-2 and 1.5 <= devs2[2] / devs1[2] <= 2.5
        detail_limits.append(devs1[2])
    report(9, "linear-system constants reconstruct Lambda to 1e-6; k->0 limits",
           worst <= 1e-6 and limit_ok,
           f"max reconstruction residual {worst:.3e}, "
           f"c4 limit deviations at k=1e-3: {[f'{d:.1e}' for d in detail_limits]}")


def test_criterion_10_determinism():
    docs = []
    for _ in range(2):
        result = run_suite(n_max=2, k_set=(0.5, 1.0), x_grid=(0.5, 1.0, 2.0))
        docs.append(canonical_json(result.as_json_dict()))
    report(10, "two consecutive suite runs produce byte-identical JSON",
           docs[0] == docs[1],
           f"{len(docs[0])} bytes each")
