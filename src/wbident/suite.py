"""Grid verification of the central identity and orchestration of the full
check suite.

The central identity under test:

    W_{n+1/2, ik}(2x) = x Lambda(x) K_{1/2+ik}(x) + x conj(Lambda)(x) K_{1/2-ik}(x)

with Lambda built from the coefficient recurrence.  The left side is
evaluated through the Whittaker connection formula, the right side through
the quadrature Bessel-K evaluator, so the two sides share no code path.
"""

from __future__ import annotations

import math

import numpy as np

from .config import EvalConfig, default_config
from .core import SQRT_PI
from .errors import InputError
from .kernels import (OrderParams, bessel_k_quad, bessel_k_via_w, kernel_table,
                      whittaker_w)
from .lambda_poly import (CoeffVector, coeffs_from_recurrence,
                          collocation_oracle, check_second_order,
                          first_order_residuals)
from .ode import (coupled_residual, indicial_reports, lambda_reconstruction,
                  product_solution_check, resolve_constants,
                  constants_printed_system, trial_condition_check)
from .report import ResidualReport, VerificationSuiteResult, index_grid

DEFAULT_N_MAX = 8
DEFAULT_K_SET = (0.1, 0.5, 1.0, 2.0)
DEFAULT_X_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
IDENTITY_X_RANGE = (0.25, 8.0)


def verify_identity(params: OrderParams, x_grid,
                    config: EvalConfig | None = None) -> ResidualReport:
    """Relative residual |LHS - RHS| / max(|LHS|, |lambda(x) K(x)|) of the
    central identity at each grid point; 0 where both scales vanish (a common
    zero of W and Lambda on the k = 0 branch).  Lambda comes from the
    recurrence at every k, k = 0 included (there it is the Laguerre form);
    small nonzero k is refused in double-precision mode (gamma-prefactor
    cancellation makes the connection formula meaningless there)."""
    config = config or default_config()
    n, k = params.n, params.k
    x_grid = [float(x) for x in x_grid]
    lo, hi = IDENTITY_X_RANGE
    if any(x < lo or x > hi for x in x_grid):
        raise InputError(f"identity grid must lie in [{lo}, {hi}]")
    if k < 0:
        raise InputError("verify_identity requires k >= 0")
    if 0 < k < config.k_refuse_threshold:
        raise InputError(
            f"0 < k = {k} < {config.k_refuse_threshold} "
            "(EvalConfig.k_refuse_threshold) is refused: the connection "
            "formula cancels there and no route checks the identity")

    lam = coeffs_from_recurrence(params, config).lam_poly()(np.array(x_grid))
    residuals = []
    for x, lam_x in zip(x_grid, lam.tolist()):
        lam_k = lam_x * bessel_k_quad(complex(0.5, k), x, config)
        rhs = (lam_k + lam_k.conjugate()).real
        lhs = whittaker_w(n + 0.5, 1j * k, 2 * x, config)
        scale = max(abs(lhs), abs(lam_k))
        residuals.append(abs(lhs - rhs) / scale if scale else 0.0)
    return ResidualReport(
        check_name="identity",
        params=params,
        grid=x_grid,
        residuals=residuals,
        threshold=config.identity_tol,
    )


def kernel_cross_reports(k_set, x_grid, n_max,
                         config: EvalConfig) -> list[ResidualReport]:
    """Cross-check the two K evaluators and the realness of W on the grid."""
    reports = []
    for k in k_set:
        if k == 0:
            continue
        nu = complex(0.5, k)
        cross = []
        for x in x_grid:
            kq = bessel_k_quad(nu, x, config)
            kw = bessel_k_via_w(nu, x, config)
            cross.append(abs(kq - kw) / abs(kq))
        reports.append(ResidualReport(
            check_name="kernel-cross-bessel-k",
            params=OrderParams(n=0, k=k),
            grid=list(x_grid), residuals=cross,
            threshold=config.kernel_cross_tol))
        grid, realness = [], []
        for n in range(n_max + 1):
            for x in x_grid:
                w = whittaker_w(n + 0.5, 1j * k, 2 * x, config)
                grid.append(float(x))
                realness.append(abs(w.imag) / abs(w))
        reports.append(ResidualReport(
            check_name="whittaker-w-realness",
            params=OrderParams(n=n_max, k=k),
            grid=grid, residuals=realness,
            threshold=config.realness_tol,
            notes=[f"x grid repeated for n = 0..{n_max}"]))
    return reports


def coefficient_reports(params: OrderParams,
                        config: EvalConfig) -> tuple[CoeffVector, list[ResidualReport]]:
    """Construct the coefficients and report their defining invariants:
    top coefficient 2^n/sqrt(pi) real, first-order recurrence residuals,
    degree and zero-constant structure."""
    cv = coeffs_from_recurrence(params, config)
    n = params.n
    top = cv.a_top
    expected = 2 ** n / SQRT_PI
    residuals = [abs(top - expected) / expected,
                 abs(top.imag) / abs(top)]
    residuals += first_order_residuals(cv)
    grid = index_grid(0, len(residuals))
    rep = ResidualReport(
        check_name="coefficient-invariants",
        params=params, grid=grid, residuals=residuals,
        threshold=config.top_coeff_tol,
        notes=["entries: top-coeff deviation, top-coeff imaginary part, "
               "then first-order recurrence residuals m=1..n"])
    return cv, [rep]


def oracle_equivalence_report(params: OrderParams,
                              config: EvalConfig) -> ResidualReport:
    """Collocation-fitted coefficients vs recurrence-generated ones."""
    cv = coeffs_from_recurrence(params, config)
    fit = collocation_oracle(params, config=config)
    residuals = [abs(f - a) / abs(a) for f, a in zip(fit.a, cv.a)]
    return ResidualReport(
        check_name="oracle-equivalence",
        params=params,
        grid=index_grid(1, params.n + 2),
        residuals=residuals,
        threshold=config.oracle_match_tol,
        notes=[f"coefficients from {fit.convention}"])


def run_suite(config: EvalConfig | None = None,
              n_max: int = DEFAULT_N_MAX,
              k_set=DEFAULT_K_SET,
              x_grid=DEFAULT_X_GRID,
              use_oracle: bool = False) -> VerificationSuiteResult:
    """Execute, in order: kernel cross-checks, coefficient construction and
    invariants, oracle equivalence, coupled residual, identity grid, ODE4
    basis checks, indicial analysis, constants and reconstruction.

    Individual check failures are recorded and the suite continues; kernel
    non-convergence aborts (it poisons every downstream number).  Advisory
    failures land in the discrepancy ledger, not the exit status.  The checks
    run inside ``kernel_table()``, so each kernel value is evaluated once per
    call.
    """
    config = config or default_config()
    if not 0 <= n_max <= 25:
        raise InputError(f"n_max must lie in [0, 25], got {n_max}")
    k_set = tuple(float(k) for k in k_set)
    if not all(math.isfinite(k) and k >= 0 for k in k_set):
        raise InputError(f"run_suite requires finite k >= 0, got {list(k_set)}")
    x_grid = tuple(float(x) for x in x_grid)
    ks_pos = [k for k in k_set if k > 0]
    reports: list[ResidualReport] = []
    ledger: list[str] = []

    with kernel_table():
        # 1. kernel cross-checks
        reports += kernel_cross_reports(k_set, x_grid, n_max, config)

        # 2 + 4 + 5. coefficients, coupled equation, identity per (n, k) cell
        for n in range(n_max + 1):
            for k in ks_pos:
                params = OrderParams(n=n, k=k)
                cv, reps = coefficient_reports(params, config)
                reports += reps
                reports.append(coupled_residual(cv, config))
                reports.append(check_second_order(cv, "printed", config))
                reports.append(check_second_order(cv, "derived", config))
                reports.append(verify_identity(params, x_grid, config))
        if not ks_pos or 0.0 in k_set:
            for n in range(n_max + 1):
                params = OrderParams(n=n, k=0.0)
                reports.append(verify_identity(params, x_grid, config))

        # 3. oracle equivalence
        oracle_n = min(n_max, 8 if use_oracle else 2)
        oracle_ks = [k for k in ks_pos if k >= 0.5] or ks_pos
        for n in range(oracle_n + 1):
            for k in oracle_ks:
                reports.append(oracle_equivalence_report(
                    OrderParams(n=n, k=k), config))

        # stages 6 and 8 take the x inside [0.5, 6], or a fixed grid if none is
        inner_grid = [x for x in x_grid if 0.5 <= x <= 6] or [0.5, 1.0, 2.0, 4.0]

        # 6. fourth-order basis checks
        ode_ks = [k for k in ks_pos if 0.4 <= k <= 1.5][:2] or ks_pos[:1]
        for n in range(min(n_max, 4) + 1):
            for k in ode_ks:
                reports.append(product_solution_check(
                    OrderParams(n=n, k=k), config, inner_grid, variant="corrected"))
        if ode_ks:
            reports.append(product_solution_check(
                OrderParams(n=1, k=ode_ks[0]), config, inner_grid, variant="printed"))
            reports += trial_condition_check(
                OrderParams(n=2, k=ode_ks[0]), inner_grid, config)

        # 7. indicial analysis
        for k in ks_pos:
            reports += indicial_reports(OrderParams(n=2, k=k), config)

        # 8. constants and reconstruction
        for n in range(min(n_max, 6) + 1):
            for k in ks_pos:
                params = OrderParams(n=n, k=k)
                reports.append(lambda_reconstruction(params, inner_grid, config))
        if ks_pos:
            params = OrderParams(n=min(n_max, 2), k=ks_pos[-1])
            _, _, notes = resolve_constants(params, config)
            ledger += [f"constants n={params.n} k={params.k}: {note}" for note in notes]
            reports.append(lambda_reconstruction(
                params, inner_grid, config,
                constants=constants_printed_system(params),
                check_name="reconstruction-printed-constants"))
        reports.append(lambda_reconstruction(
            OrderParams(n=min(n_max, 2), k=0.0), inner_grid, config))

    for rep in reports:
        if rep.advisory and not rep.passed:
            ledger.append(
                f"advisory check {rep.check_name} "
                f"(n={rep.params.n if rep.params else '-'}, "
                f"k={rep.params.k if rep.params else '-'}): "
                f"max residual {rep.max_residual:.3e} over threshold "
                f"{rep.threshold:.1e}")
    return VerificationSuiteResult(reports=reports, ledger=sorted(ledger))
