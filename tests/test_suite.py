"""Tests for run_suite's kernel table: each kernel value is evaluated once
per run, the table ends with the run, and the reports do not change."""

import sys
from collections import Counter

import pytest

import wbident.suite
from wbident import kernels, lambda_poly
from wbident.config import EvalConfig
from wbident.ode import constants_printed_system, lambda_reconstruction
from wbident.suite import run_suite, verify_identity

SMALL = dict(n_max=2, k_set=(0.5, 1.0), x_grid=(0.5, 1.0, 2.0))
TABLED = (kernels.whittaker_m, kernels.whittaker_w, kernels.bessel_i,
          kernels.bessel_k_quad, kernels.bessel_k_via_w,
          lambda_poly.coeffs_from_recurrence)


def test_no_table_after_return_or_raise(monkeypatch):
    seen = []
    cross = wbident.suite.kernel_cross_reports

    def spy(*args):
        seen.append(kernels._TABLE.get())
        return cross(*args)

    monkeypatch.setattr(wbident.suite, "kernel_cross_reports", spy)
    run_suite(n_max=0, k_set=(1.0,), x_grid=(0.5,))
    assert seen[-1] is not None
    assert kernels._TABLE.get() is None
    with pytest.raises(ValueError, match="identity grid"):
        run_suite(n_max=0, k_set=(1.0,), x_grid=(0.5, 9.0))
    assert seen[-1] is not None
    assert kernels._TABLE.get() is None


def test_each_kernel_value_evaluated_once():
    # count entries into the undecorated functions' code, keyed by the
    # arguments they were entered with
    codes = {fn.__wrapped__.__code__ for fn in TABLED}
    evaluated = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            code = frame.f_code
            names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
            evaluated[code.co_name, tuple(frame.f_locals[v] for v in names)] += 1

    sys.setprofile(profile)
    try:
        run_suite(**SMALL)
    finally:
        sys.setprofile(None)
    assert {name for name, _ in evaluated} == {fn.__name__ for fn in TABLED}
    assert max(evaluated.values()) == 1


def test_reports_equal_checks_outside_the_run():
    config = EvalConfig()
    result = run_suite(config, **SMALL)
    checked = 0
    for rep in result.reports:
        if rep.check_name == "identity":
            outside = verify_identity(rep.params, rep.grid, config)
        elif rep.check_name == "reconstruction-printed-constants":
            outside = lambda_reconstruction(
                rep.params, rep.grid, config,
                constants=constants_printed_system(rep.params),
                check_name=rep.check_name)
        elif rep.check_name.startswith("lambda-reconstruction"):
            outside = lambda_reconstruction(rep.params, rep.grid, config)
        else:
            continue
        assert outside == rep
        checked += 1
    assert checked == 3 * 2 + 3 * 2 + 2


def per_point_identity_residuals(params, x_grid):
    """verify_identity's residuals with lambda evaluated one x at a time."""
    n, k = params.n, params.k
    if k == 0:
        lam = lambda_poly.laguerre_closed_form(n).lam_poly()
    else:
        lam = lambda_poly.coeffs_from_recurrence(params).lam_poly()
    out = []
    for x in x_grid:
        lam_k = complex(lam(x)) * kernels.bessel_k_quad(complex(0.5, k), x)
        rhs = (lam_k + lam_k.conjugate()).real
        lhs = kernels.whittaker_w(n + 0.5, 1j * k, 2 * x)
        scale = max(abs(lhs), abs(lam_k))
        out.append(abs(lhs - rhs) / scale if scale else 0.0)
    return out


@pytest.mark.parametrize("n, k", [(0, 0.0), (3, 0.0), (2, 0.5), (8, 2.526),
                                  (23, 2.526), (25, 4.9)])
def test_identity_residuals_equal_per_point_lambda(n, k):
    # lambda is evaluated on the whole grid in one call; numpy's Horner loop
    # runs element by element, so every residual keeps its bits
    params = kernels.OrderParams(n=n, k=k)
    xs = (0.25, 0.7, 1.3, 2.0, 3.9, 6.1, 7.805, 8.0)
    assert verify_identity(params, xs).residuals == per_point_identity_residuals(params, xs)


def test_trial_check_never_runs_on_an_empty_grid():
    # x = 8 lies outside [0.5, 6]; the trial and reconstruction checks both
    # fall back to [0.5, 1, 2, 4] instead of passing on no point
    result = run_suite(x_grid=(8.0,))
    trial = [r for r in result.reports if r.check_name.startswith("trial-")]
    assert len(trial) == 4
    assert all(r.grid for r in trial)


def test_ode4_basis_checks_follow_the_x_grid():
    # each report repeats the grid once per basis product
    result = run_suite(x_grid=(0.5, 3.0))
    basis = [r for r in result.reports if r.check_name.startswith("ode4-basis")]
    assert len(basis) == 11
    assert all(r.grid == [0.5, 3.0] * 4 for r in basis)
    assert all(r.passed for r in basis if not r.advisory)
