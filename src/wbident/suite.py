"""The check table and the full check suite.

The central identity under test:

    W_{n+1/2, ik}(2x) = x Lambda(x) K_{1/2+ik}(x) + x conj(Lambda)(x) K_{1/2-ik}(x)

with Lambda built from the coefficient recurrence.  The left side is
evaluated through the Whittaker connection formula (one term, doubled real
part, at these orders), the right side through the quadrature Bessel-K
evaluator, so the two sides share no code path.  The oracle check builds
Lambda without the recurrence: by default (and in ``verify``) exactly, from
the Taylor coefficients at x = 0 of the identity's x^{1/2+ik} mode
(lambda_poly.series_oracle), the reduction that also proves the identity
from the exact coupled equation, so the two are one argument; with
use_oracle by the 50-digit collocation fit at x > 0, its numerical test.

``CHECKS`` names every check once: its runner, the threshold ``--tol``
sets, the default x grid of ``verify --check`` and the (n, k) cells that
``run_suite`` runs it on.  The coefficient relations, the fourth-order
ODE's basis check and the indicial balance are exact on Gaussian integers:
they pass only at 0.0 (report.EXACT), take no config and no x grid.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .config import EvalConfig, default_config
from .errors import InputError
from .kernels import (OrderParams, _refuse_small_k, _whittaker_w_two_term,
                      bessel_k_quad, bessel_k_via_w, kernel_table, whittaker_w)
from .lambda_poly import (COLLOCATION_MASTER_N, EXACT_NOTES, SERIES_TAIL,
                          check_second_order, coeffs_from_recurrence,
                          collocation_oracle, default_collocation_points,
                          series_oracle_residuals, top_coeff_residuals)
from .ode import (coupled_residual, indicial_reports, lambda_reconstruction,
                  product_solution_check, resolve_constants,
                  constants_printed_system, trial_condition_check)
from .report import (EXACT, ResidualReport, VerificationSuiteResult,
                     float_grid, index_grid, relative_difference)

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
    cancellation makes the connection formula meaningless there).  K is one
    grid call and W one call per point; inside ``run_suite`` the kernel
    table serves K from ``kernel_cross_reports``' grid and W from the points
    of its one-term column for n = 0..n_max."""
    config = config or default_config()
    n, k = params.n, params.k
    x_grid = float_grid(x_grid)
    lo, hi = IDENTITY_X_RANGE
    if any(x < lo or x > hi for x in x_grid):
        raise InputError(f"identity grid must lie in [{lo}, {hi}]")
    if k < 0:
        raise InputError("verify_identity requires k >= 0")
    _refuse_small_k(k, config)

    lam = coeffs_from_recurrence(params).lam_poly()(np.array(x_grid))
    kq = bessel_k_quad(complex(0.5, k), x_grid, config)
    residuals = []
    for x, lam_x, k_x in zip(x_grid, lam.tolist(), kq.tolist()):
        lam_k = lam_x * k_x
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


def kernel_cross_reports(params: OrderParams, x_grid,
                         config: EvalConfig) -> list[ResidualReport]:
    """Cross-check the two K evaluators at k = params.k, and compare
    whittaker_w's one-term W with the two-term connection formula on the grid
    for n = 0..params.n.  The second is a code-consistency check: at these
    orders both routes give the same bits, so its residuals read 0.0 unless
    an edit breaks one route.  Each route is one column call per k, the
    kappa = n + 1/2 for n = 0..params.n at once; inside ``run_suite`` the
    kernel table serves each n's grid and each point of the one-term column
    to the identity and the reconstruction."""
    n_max, k = params.n, params.k
    if not k > 0:
        raise InputError("kernel_cross_reports requires k > 0")
    _refuse_small_k(k, config)
    x_grid = float_grid(x_grid)
    z = tuple(2 * x for x in x_grid)
    nu = complex(0.5, k)
    kq = bessel_k_quad(nu, x_grid, config)
    kw = bessel_k_via_w(nu, x_grid, config)
    bessel = ResidualReport(
        check_name="kernel-cross-bessel-k",
        params=OrderParams(n=0, k=k),
        grid=x_grid,
        residuals=[relative_difference(w, q)
                   for q, w in zip(kq.tolist(), kw.tolist())],
        threshold=config.kernel_cross_tol)
    kappas = tuple(n + 0.5 for n in range(n_max + 1))
    w2 = _whittaker_w_two_term(kappas, 1j * k, z, config)
    w1 = whittaker_w(kappas, 1j * k, z, config)
    realness = []
    for one, two in zip(w1.ravel().tolist(), w2.ravel().tolist()):
        scale = max(abs(one), abs(two))
        realness.append(abs(two - one) / scale if scale else 0.0)
    grid, notes = _realness_layout(x_grid, n_max)
    return [bessel, ResidualReport(
        check_name="whittaker-w-realness", params=params, grid=grid,
        residuals=realness, threshold=config.realness_tol, notes=notes)]


@functools.lru_cache(maxsize=16)
def _realness_layout(x_grid: tuple, n_max: int) -> tuple[tuple, tuple]:
    """The grid and notes of a whittaker-w-realness report, one pair per
    (x grid, n_max), shared by the reports of every k and every run."""
    return x_grid * (n_max + 1), (
        f"x grid repeated for n = 0..{n_max}",
        "code consistency: one-term W against the two-term "
        "formula, equal bit for bit when the code is intact")


_COEFFICIENT_NOTES = ("entries: top-coeff deviation, top-coeff imaginary part",
                      *EXACT_NOTES)


def coefficient_reports(params: OrderParams) -> list[ResidualReport]:
    """sqrt(pi) a_{n+1} against 2^n and its imaginary part, exactly on the
    coefficients' Gaussian integers (the recurrence is coupled_residual's)."""
    return [ResidualReport(
        check_name="coefficient-invariants",
        params=params, grid=index_grid(0, 2),
        residuals=top_coeff_residuals(params),
        threshold=EXACT, notes=_COEFFICIENT_NOTES)]


_SERIES_NOTES = ("exact: lambda_poly.series_oracle (Taylor coefficients at x = 0) "
                 f"against the recurrence; the last {SERIES_TAIL} entries must be 0",)


def oracle_equivalence_report(params: OrderParams, config: EvalConfig,
                              xs=None) -> ResidualReport:
    """Coefficients built without the recurrence against the recurrence's:
    with no points the series oracle's, exactly; at collocation points xs
    the 50-digit fit's, by relative_difference (oracle_match_tol)."""
    _refuse_small_k(abs(params.k), config)
    if xs is None:
        residuals, threshold, notes = series_oracle_residuals(params), EXACT, _SERIES_NOTES
    else:
        want = coeffs_from_recurrence(params).a
        fit = collocation_oracle(params, xs, config)
        residuals = [relative_difference(f, a) for f, a in zip(fit.a, want)]
        threshold, notes = config.oracle_match_tol, ("50-digit collocation fit",)
    return ResidualReport(
        check_name="oracle-equivalence", params=params,
        grid=index_grid(1, len(residuals) + 1), residuals=residuals,
        threshold=threshold, notes=notes)


class Check(NamedTuple):
    """One check: a ``verify --check`` choice and a step of ``run_suite``."""
    run: Callable           # (params, x grid, config) -> [ResidualReport]
    tol_field: str | None   # the EvalConfig threshold --tol sets; None if exact
    x_grid: tuple | None    # verify's default grid; None for a check on none
    cells: Callable         # run_suite's plan -> [(params, x grid)] to run


def _cells(plan, ns, ks, grid=None) -> list:
    """[(params, grid)] for each n and k, with the run's one OrderParams per
    (n, k), shared by every row that runs the cell."""
    return [(plan.params(n, k), grid) for n in ns for k in ks]


# The checks, in run_suite's order.  Each runner looks its function up in
# this module when it runs, so a wrapper set on the module's name sees every
# call.  kernel-cross goes first: its K grid and W columns serve identity's
# and the reconstruction's reads from the kernel table.  run_suite's plan holds
# n_max, the positive ks, k0 ([0.0] when k = 0 is asked for), the x grid,
# the inner grid (its x in [0.5, 6]), oracle_n, oracle_ks, use_oracle (the
# oracle's route: the 50-digit fit at n's collocation points, or with no
# points the series oracle), ode_ks and params, one OrderParams per (n, k).
CHECKS = {
    "kernel-cross": Check(
        lambda p, grid, c: kernel_cross_reports(p, grid, c),
        "kernel_cross_tol", DEFAULT_X_GRID,
        lambda plan: _cells(plan, [plan.n_max], plan.ks, plan.x_grid)),
    "coefficients": Check(
        lambda p, grid, c: coefficient_reports(p), None, None,
        lambda plan: _cells(plan, range(plan.n_max + 1), plan.ks)),
    "coupled": Check(
        lambda p, grid, c: [coupled_residual(p)], None, None,
        lambda plan: _cells(plan, range(plan.n_max + 1), plan.ks)),
    "second-order": Check(
        lambda p, grid, c: [check_second_order(p, v) for v in ("printed", "derived")],
        None, None,
        lambda plan: _cells(plan, range(plan.n_max + 1), plan.ks)),
    "identity": Check(
        lambda p, grid, c: [verify_identity(p, grid, c)],
        "identity_tol", DEFAULT_X_GRID,
        lambda plan: _cells(plan, range(plan.n_max + 1), plan.ks + plan.k0, plan.x_grid)),
    "oracle": Check(
        lambda p, xs, c: [oracle_equivalence_report(p, c, xs)], None, None,
        lambda plan: [(plan.params(n, k), tuple(default_collocation_points(n))
                       if plan.use_oracle else None)
                      for n in range(plan.oracle_n + 1) for k in plan.oracle_ks]),
    "ode4-basis": Check(
        lambda p, grid, c: [product_solution_check(p)], None, None,
        lambda plan: _cells(plan, range(min(plan.n_max, 4) + 1), plan.ode_ks)),
    "ode4-basis-printed": Check(
        lambda p, grid, c: [product_solution_check(p, variant="printed")], None, None,
        lambda plan: _cells(plan, [min(plan.n_max, 1)], plan.ode_ks[:1])),
    "trial": Check(
        lambda p, grid, c: trial_condition_check(p, grid, c),
        "whittaker_eq_tol", (0.5, 1.0, 2.0),
        lambda plan: _cells(plan, [min(plan.n_max, 2)], plan.ode_ks[:1], plan.inner)),
    "indicial": Check(
        lambda p, grid, c: indicial_reports(p), None, None,
        lambda plan: _cells(plan, [min(plan.n_max, 2)], plan.ks)),
    # the k = 0 Laguerre cell runs whether or not k = 0 is asked for: it is
    # the default suite's only run of the reconstruction's k = 0 branch
    "reconstruction": Check(
        lambda p, grid, c: [lambda_reconstruction(p, grid, c)],
        "reconstruction_tol", (0.5, 1.0, 2.0, 4.0),
        lambda plan: (_cells(plan, range(min(plan.n_max, 6) + 1), plan.ks, plan.inner)
                      + _cells(plan, [min(plan.n_max, 2)], [0.0], plan.inner))),
    "reconstruction-printed-constants": Check(
        lambda p, grid, c: [lambda_reconstruction(
            p, grid, c, constants=constants_printed_system(p),
            check_name="reconstruction-printed-constants")],
        "reconstruction_tol", (0.5, 1.0, 2.0, 4.0),
        lambda plan: _cells(plan, [min(plan.n_max, 2)], plan.ks[-1:], plan.inner)),
}


def run_suite(config: EvalConfig | None = None,
              n_max: int = DEFAULT_N_MAX,
              k_set=DEFAULT_K_SET,
              x_grid=DEFAULT_X_GRID,
              use_oracle: bool = False) -> VerificationSuiteResult:
    """Run each check of CHECKS, in table order, on the cells its row lists
    for these inputs, then add the constants' notes to the ledger.

    A repeated k runs once; an empty k set is an InputError.  Individual
    check failures are recorded and the suite continues; kernel
    non-convergence aborts (it poisons every downstream number).  Advisory
    failures land in the discrepancy ledger, not the exit status.  The checks
    run inside ``kernel_table()``, so each kernel value is evaluated once per
    call.  The oracle check runs the exact series oracle at n <= 2;
    use_oracle runs the 50-digit collocation fit instead, up to
    n = COLLOCATION_MASTER_N.
    """
    config = config or default_config()
    if not 0 <= n_max <= 25:
        raise InputError(f"n_max must lie in [0, 25], got {n_max}")
    k_set = tuple(dict.fromkeys(float(k) for k in k_set))
    if not k_set:
        raise InputError("run_suite requires at least one k")
    if not all(math.isfinite(k) and k >= 0 for k in k_set):
        raise InputError(f"run_suite requires finite k >= 0, got {list(k_set)}")
    for k in k_set:
        _refuse_small_k(k, config)
    x_grid = float_grid(x_grid)
    ks = [k for k in k_set if k > 0]
    plan = SimpleNamespace(
        n_max=n_max, ks=ks, k0=[0.0] if 0.0 in k_set else [], x_grid=x_grid,
        # the trial check and the reconstruction take the x inside [0.5, 6]
        inner=tuple(x for x in x_grid if 0.5 <= x <= 6) or (0.5, 1.0, 2.0, 4.0),
        oracle_n=min(n_max, COLLOCATION_MASTER_N if use_oracle else 2),
        oracle_ks=[k for k in ks if k >= 0.5] or ks,
        use_oracle=use_oracle,
        ode_ks=[k for k in ks if 0.4 <= k <= 1.5][:2] or ks[:1],
        params=functools.cache(OrderParams))
    reports: list[ResidualReport] = []
    ledger: list[str] = []

    with kernel_table():
        for check in CHECKS.values():
            for params, grid in check.cells(plan):
                reports += check.run(params, grid, config)
        if ks:
            params = plan.params(min(n_max, 2), ks[-1])
            _, _, notes = resolve_constants(params, config)
            ledger += [f"constants n={params.n} k={params.k}: {note}" for note in notes]

    ledger += [f"advisory check {r.check_name} (n={r.params.n}, k={r.params.k}): "
               f"max residual {r.max_residual:.3e} over threshold {r.threshold:.1e}"
               for r in reports if r.advisory and not r.passed]
    return VerificationSuiteResult(reports=reports, ledger=sorted(ledger))
