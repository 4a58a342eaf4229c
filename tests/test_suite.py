"""Tests for run_suite's kernel table: each kernel value is evaluated once
per run, the table ends with the run, and the reports do not change."""

import contextlib
import os
import subprocess
import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import wbident.suite
from wbident import kernels, lambda_poly
from wbident.config import EvalConfig
from wbident.errors import InputError
from wbident.ode import lambda_reconstruction, trial_condition_check
from wbident.report import canonical_json, reports_to_csv
from wbident.suite import CHECKS, run_suite, verify_identity

SMALL = dict(n_max=2, k_set=(0.5, 1.0), x_grid=(0.5, 1.0, 2.0))
TABLED = (kernels.whittaker_m, kernels.whittaker_w, kernels._whittaker_w_two_term,
          kernels.bessel_i, kernels.bessel_k_quad, kernels.bessel_k_via_w,
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


def kernel_entries(run, fns=TABLED) -> Counter:
    """Entries into the undecorated bodies of the tabled fns during run(),
    keyed by name and the arguments they were entered with."""
    codes = {fn.__wrapped__.__code__ for fn in fns}
    evaluated = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            code = frame.f_code
            names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
            evaluated[code.co_name, tuple(frame.f_locals[v] for v in names)] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return evaluated


def test_each_kernel_value_evaluated_once():
    evaluated = kernel_entries(lambda: run_suite(**SMALL))
    assert {name for name, _ in evaluated} == {fn.__name__ for fn in TABLED}
    assert max(evaluated.values()) == 1


def test_trial_grids_are_served_by_the_column_points():
    # the default run enters the two-term W for its 4 columns (one per k)
    # and the 4 grids of bessel_k_via_w; the trial check's 3 grids at
    # n = 2, k = 0.5 on z = (1, 2, 4, 8) are served by the k = 0.5 column's
    # points
    evaluated = kernel_entries(run_suite, [kernels._whittaker_w_two_term])
    assert sum(evaluated.values()) == 8
    assert sorted(type(args[0]) is tuple for _, args in evaluated) == [False] * 4 + [True] * 4


def test_oracle_run_sums_k_series_once_per_k(monkeypatch):
    # every one of the 27 fits (n <= 8, k = 0.5, 1, 2) runs at 50 digits:
    # K's two 0F1 series once per k, on the master set, and W's 1F1 series
    # once per fit
    from wbident import oracle
    series, sums = oracle._hyp_series, Counter()

    def spy(a, *args):
        sums["0F1" if a is None else "1F1"] += 1
        return series(a, *args)

    monkeypatch.setattr(oracle, "_hyp_series", spy)
    result = run_suite(use_oracle=True)
    assert sums == {"0F1": 6, "1F1": 27}
    fits = [r for r in result.reports if r.check_name == "oracle-equivalence"]
    assert len(fits) == 27
    assert all("50-digit collocation fit" in r.notes[0] for r in fits)
    assert max(r.params.n for r in fits) == lambda_poly.COLLOCATION_MASTER_N


def test_reports_equal_checks_outside_the_run(monkeypatch):
    # every report of the run is its row's runner on its cell, and equals
    # that runner called on the same cell outside the kernel table
    config = EvalConfig()
    calls = []
    for name, check in CHECKS.items():
        def run(params, grid, c, name=name, inner=check.run):
            reports = inner(params, grid, c)
            calls.append((name, params, grid, reports))
            return reports
        monkeypatch.setitem(CHECKS, name, check._replace(run=run))
    result = run_suite(config, **SMALL)
    monkeypatch.undo()
    assert [r for *_, reports in calls for r in reports] == result.reports
    assert {name for name, *_ in calls} == set(CHECKS)
    for name, params, grid, reports in calls:
        assert CHECKS[name].run(params, grid, config) == reports


def test_repeated_k_runs_once():
    once = run_suite(k_set=(0.5,), n_max=1)
    twice = run_suite(k_set=(0.5, 0.5), n_max=1)
    assert len(twice.reports) == len(once.reports) == 27
    assert canonical_json(twice.as_json_dict()) == canonical_json(once.as_json_dict())
    assert reports_to_csv(twice.reports) == reports_to_csv(once.reports)


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_n_max_caps_every_check(n_max):
    result = run_suite(n_max=n_max, k_set=(0.5,))
    assert max(r.params.n for r in result.reports) == n_max


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
    assert tuple(verify_identity(params, xs).residuals) == tuple(
        per_point_identity_residuals(params, xs))


def test_identity_grid_is_the_callers_tuple():
    params = kernels.OrderParams(n=2, k=0.5)
    xs = (0.5, 1.0, 2.0)
    assert verify_identity(params, xs).grid is xs
    assert verify_identity(params, [0.5, 1, 2]).grid == xs


def test_suite_reports_share_the_x_grid():
    xs = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    result = run_suite(x_grid=xs, n_max=2)
    shared = [r for r in result.reports
              if r.check_name in ("identity", "kernel-cross-bessel-k")]
    assert len(shared) == 3 * 4 + 4
    assert all(r.grid is xs for r in shared)
    inner = [r.grid for r in result.reports if r.check_name == "lambda-reconstruction"]
    assert inner and all(g is inner[0] for g in inner)
    assert inner[0] == (0.5, 1.0, 2.0, 4.0)


def test_trial_check_never_runs_on_an_empty_grid():
    # x = 8 lies outside [0.5, 6]; the trial and reconstruction checks both
    # fall back to [0.5, 1, 2, 4] instead of passing on no point
    result = run_suite(x_grid=(8.0,))
    trial = [r for r in result.reports if r.check_name.startswith("trial-")]
    assert len(trial) == 4
    assert all(r.grid for r in trial)


def test_ode4_basis_checks_ignore_the_x_grid():
    # the basis checks are exact in x: on any x grid the same 11 reports,
    # each over the powers of x of its coefficients
    def basis(result):
        return [r for r in result.reports if r.check_name.startswith("ode4-basis")]

    on_grid, default = basis(run_suite(x_grid=(0.5, 3.0))), basis(run_suite())
    assert len(on_grid) == 11 and on_grid == default
    assert all(r.max_residual == 0.0 for r in on_grid if not r.advisory)


def test_default_suite_tables_the_m_grid_once(monkeypatch):
    # the trial check at (2, 0.5) reads M_{+ik} at kappa = 5/2, 3/2 and 1/2
    # on z = (1, 2, 4, 8), the reconstruction's grids at n = 2, 1 and 0
    stored = []

    class Recording(dict):
        def __setitem__(self, key, value):
            stored.append(key)
            super().__setitem__(key, value)

    @contextlib.contextmanager
    def recording_table():
        token = kernels._TABLE.set(Recording())
        try:
            yield
        finally:
            kernels._TABLE.reset(token)

    monkeypatch.setattr(wbident.suite, "kernel_table", recording_table)
    run_suite()
    assert len(stored) == len(set(stored))
    m_grids = [key for key in stored if key[0] is kernels.whittaker_m.__wrapped__
               and key[1][:3] == (2.5, 0.5j, (1.0, 2.0, 4.0, 8.0))]
    assert len(m_grids) == 1


def one_term_w_entries(run) -> tuple[Counter, object]:
    """Entries into whittaker_w's body at the identity's orders (real kappa,
    imaginary mu) during run(), counted as "column" calls (a tuple of kappa)
    and "grid" calls on z = 2x of the default x grid, "other grid" calls and
    "point" calls; and run()'s value."""
    code = kernels.whittaker_w.__wrapped__.__code__
    suite_z = tuple(2 * x for x in wbident.suite.DEFAULT_X_GRID)
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            kappa, mu, z = (frame.f_locals[v] for v in ("kappa", "mu", "z"))
            if (np.asarray(kappa).imag == 0).all() and complex(mu).real == 0 and mu != 0:
                on_suite_z = "column" if type(kappa) is tuple else "grid"
                entered["point" if type(z) is not tuple
                        else on_suite_z if z == suite_z else "other grid"] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return entered, result


def test_default_suite_reads_one_term_w_as_grids():
    # one column per k, n = 0..8, for four k; verify_identity's and the
    # reconstruction's per-point W reads are served by the column's points,
    # and the oracle check reads no W: its series oracle sums M's Taylor
    # coefficients itself
    assert one_term_w_entries(run_suite)[0] == {"column": 4}


def test_point_tabling_changes_no_byte(monkeypatch):
    # a table that ignores setdefault keeps grid entries but no point
    # entries, so every per-point W is evaluated again
    ignored = []

    class NoPoints(dict):
        def setdefault(self, key, default=None):
            ignored.append(key)
            return default

    @contextlib.contextmanager
    def no_points_table():
        token = kernels._TABLE.set(NoPoints())
        try:
            yield
        finally:
            kernels._TABLE.reset(token)

    tabled = run_suite()
    monkeypatch.setattr(wbident.suite, "kernel_table", no_points_table)
    entered, untabled = one_term_w_entries(run_suite)
    # the 216 identity points, whose entries then serve the reconstruction
    assert ignored and entered["point"] == 216
    assert canonical_json(tabled.as_json_dict()) == canonical_json(untabled.as_json_dict())
    assert reports_to_csv(tabled.reports) == reports_to_csv(untabled.reports)


@pytest.mark.parametrize("via_w, want", [(0j, 0.0), (1e-3 + 0j, 1.0)])
def test_vanishing_k_scores_by_the_other_side(via_w, want, monkeypatch):
    # kernel-cross-bessel-k divides by |K|: 0 where both routes give 0, and
    # 1 where only the quadrature does
    monkeypatch.setattr(wbident.suite, "bessel_k_quad",
                        lambda nu, xs, config: np.zeros(len(xs), complex))
    monkeypatch.setattr(wbident.suite, "bessel_k_via_w",
                        lambda nu, xs, config: np.full(len(xs), via_w))
    reports = wbident.suite.kernel_cross_reports(
        kernels.OrderParams(n=0, k=1.0), (0.5, 1.0), EvalConfig())
    rep = next(r for r in reports if r.check_name == "kernel-cross-bessel-k")
    assert tuple(rep.residuals) == (want, want)


def test_vanishing_coefficient_scores_zero(monkeypatch):
    # on collocation points, oracle-equivalence divides by each recurrence
    # coefficient; a zero one matched by a zero fit scores 0
    coeffs = SimpleNamespace(a=(0j, 1 + 1j))
    xs = tuple(lambda_poly.default_collocation_points(1))
    monkeypatch.setattr(wbident.suite, "coeffs_from_recurrence", lambda p: coeffs)
    monkeypatch.setattr(wbident.suite, "collocation_oracle",
                        lambda p, points, config: SimpleNamespace(
                            a=(0j, 1 + 1j) if points == xs else ()))
    rep = wbident.suite.oracle_equivalence_report(
        kernels.OrderParams(n=1, k=1.0), EvalConfig(), xs)
    assert tuple(rep.residuals) == (0.0, 0.0) and rep.passed


def test_oracle_route_follows_the_plan():
    # the default suite's oracle cells carry no points and run the exact
    # series oracle; use_oracle's carry n's collocation points and run the
    # 50-digit fit, n <= 8.  verify takes the exact route
    for use_oracle, n_cap in ((False, 2), (True, lambda_poly.COLLOCATION_MASTER_N)):
        result = run_suite(use_oracle=use_oracle)
        reps = [r for r in result.reports if r.check_name == "oracle-equivalence"]
        assert [(r.params.n, r.params.k) for r in reps] == [
            (n, k) for n in range(n_cap + 1) for k in (0.5, 1.0, 2.0)]
        for r in reps:
            if use_oracle:
                assert len(r.grid) == r.params.n + 1
                assert r.threshold == EvalConfig().oracle_match_tol
            else:
                assert len(r.grid) == r.params.n + 1 + lambda_poly.SERIES_TAIL
                assert r.threshold == 0.0 and r.max_residual == 0.0
    check = CHECKS["oracle"]
    rep, = check.run(kernels.OrderParams(n=3, k=1.0), check.x_grid, EvalConfig())
    assert check.x_grid is None and rep.threshold == 0.0
    assert len(rep.grid) == 3 + 1 + lambda_poly.SERIES_TAIL


def test_default_suite_never_imports_mpmath():
    # the 50-digit oracle is the only user of mpmath, and only --oracle runs
    # it: the default suite's oracle check is the exact series oracle on
    # plain ints
    code = ("import sys, wbident; wbident.run_suite(); "
            "assert 'mpmath' not in sys.modules, 'mpmath imported'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_import_loads_no_heavy_module():
    # a fresh interpreter's import of wbident is what every command and the
    # benchmark's setup pay for: the exact checks use plain ints, the oracle
    # loads mpmath only when it runs, and sympy is no dependency
    code = ("import sys, wbident; "
            "loaded = {'fractions', 'mpmath', 'sympy'} & set(sys.modules); "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def mutant_copy(original, old: str = "", new: str = ""):
    """A copy of the wbident module `original` with the source text `old`
    (which must occur exactly once) replaced by `new`; its tabled functions
    use the kernel table of wbident.kernels, so run_suite's table serves
    them too."""
    import importlib.util
    import inspect
    source = inspect.getsource(original)
    assert not old or source.count(old) == 1, old
    spec = importlib.util.spec_from_loader(original.__name__ + "_mutant", loader=None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look the module up
    try:
        exec(compile(source.replace(old, new), original.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[spec.name]
    if original is kernels:
        module._TABLE = kernels._TABLE
    return module


ONE_TERM = "2 * (pref * _whittaker_m_ld(kappa, mu, zs, config)).real"
QUOTIENT = "pref = _gamma_quotient(-(2 * mu), 0.5 - mu - kappa)"
ONE_TERM_MUTANTS = {
    "the factor 2 dropped": (ONE_TERM, ONE_TERM.replace("2 * ", "")),
    "Re replaced by Im": (ONE_TERM, ONE_TERM.replace(".real", ".imag")),
    "the gamma quotient conjugated": (
        QUOTIENT, QUOTIENT.replace("pref = ", "pref = np.conj(") + ")"),
}


def failing_checks(whittaker_w, monkeypatch) -> set[str]:
    """The names of the failing reports of a small run_suite whose identity
    and realness checks read W from `whittaker_w`."""
    monkeypatch.setattr(wbident.suite, "whittaker_w", whittaker_w)
    return {r.check_name for r in run_suite(**SMALL).reports if not r.passed}


def test_unmutated_kernels_copy_passes(monkeypatch):
    failed = failing_checks(mutant_copy(kernels).whittaker_w, monkeypatch)
    assert not failed & {"whittaker-w-realness", "identity"}


@pytest.mark.parametrize("name", ONE_TERM_MUTANTS)
def test_one_term_mutant_fails_realness_and_identity(name, monkeypatch):
    # the realness check compares the one-term W with the two-term route,
    # so it reads exactly 0 on the real kernel and catches any change
    mutant = mutant_copy(kernels, *ONE_TERM_MUTANTS[name])
    failed = failing_checks(mutant.whittaker_w, monkeypatch)
    assert {"whittaker-w-realness", "identity"} <= failed


FRONT = "front = reduce(gaussian_product, [((t - n) * q, -p) for t in range(n)], (1, 0))"
SERIES_MUTANTS = {
    "(-n-ik)_n dropped": (FRONT, "front = (1, 0)"),
    "(-n-ik)_n conjugated": (FRONT, FRONT.replace("-p)", "p)")),
    "b = 1-2ik in M": ("((m + 1) * q, 2 * p)", "((m + 1) * q, -2 * p)"),
    "1/2-ik in 0F1": ("((1 + 2 * m) * q, 2 * p)", "((1 + 2 * m) * q, -2 * p)"),
}


def oracle_verdicts(series_oracle_residuals, monkeypatch) -> dict:
    """{(n, k): passed} of the default suite's oracle-equivalence reports
    when the row scores with `series_oracle_residuals`."""
    monkeypatch.setattr(wbident.suite, "series_oracle_residuals", series_oracle_residuals)
    return {(r.params.n, r.params.k): r.passed for r in run_suite().reports
            if r.check_name == "oracle-equivalence"}


def test_unmutated_lambda_poly_copy_passes(monkeypatch):
    verdicts = oracle_verdicts(mutant_copy(lambda_poly).series_oracle_residuals, monkeypatch)
    assert len(verdicts) == 9 and all(verdicts.values())


@pytest.mark.parametrize("name", SERIES_MUTANTS)
def test_series_oracle_mutant_fails_every_oracle_cell(name, monkeypatch):
    # each mutant of the series oracle's construction fails every default
    # oracle-equivalence cell.  (-n-ik)_n is the empty product 1 at n = 0,
    # so its two mutants are the unmutated program there and fail the cells
    # with n >= 1
    mutant = mutant_copy(lambda_poly, *SERIES_MUTANTS[name])
    verdicts = oracle_verdicts(mutant.series_oracle_residuals, monkeypatch)
    assert len(verdicts) == 9
    failed = {cell for cell, passed in verdicts.items() if not passed}
    n_min = 1 if name.startswith("(-n-ik)_n") else 0
    assert failed == {(n, k) for n, k in verdicts if n >= n_min}


def test_default_suite_certifies_the_coefficient_relations():
    # coupled-equation, the derived five-factor recurrence and the top
    # coefficient read exactly 0 at every cell; coefficient-invariants keeps
    # only its two top entries
    reports = run_suite().reports
    by_name = {}
    for rep in reports:
        by_name.setdefault(rep.check_name, []).append(rep)
    assert len(by_name["coupled-equation"]) == 36
    assert len(by_name["second-order-recurrence-derived"]) == 36
    for name in ("coupled-equation", "second-order-recurrence-derived",
                 "coefficient-invariants"):
        assert all(r.max_residual == 0.0 for r in by_name[name])
    assert {len(r.grid) for r in by_name["coefficient-invariants"]} == {2}


def test_small_k_is_refused_before_any_kernel_runs():
    # every check that reads the connection formula refuses 0 < k < 1e-3
    # (a false FAIL before: 3.2e-6 for the reconstruction at k = 1e-14, 1.6
    # for the trial check at 1e-300).  Of wbident.kernels only the refusal
    # runs, once per k tested, and so no NearDegeneracyWarning is issued
    small = {k: kernels.OrderParams(n=2, k=k) for k in (1e-7, 1e-14, 1e-300)}
    calls = [(lambda: run_suite(k_set=(1.0, 1e-7)), 2),
             (lambda: verify_identity(small[1e-7], [1.0]), 1),
             (lambda: lambda_reconstruction(small[1e-14], [1.0]), 1),
             (lambda: trial_condition_check(small[1e-300], [1.0]), 1)]
    for call, tested in calls:
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == kernels.__file__:
                entered.append(frame.f_code.co_name)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys.setprofile(profile)
            try:
                with pytest.raises(InputError, match="k_refuse_threshold"):
                    call()
            finally:
                sys.setprofile(None)
        assert entered == ["_refuse_small_k"] * tested
