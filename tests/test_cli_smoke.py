"""The CLI smoke block: every command of the former CI smoke step, run in
process through ``cli.main``, with its exit code and the files it writes.

Each distinct command runs once per session in one shared directory, so a
row that compares its output with another row's file reuses that run."""

import contextlib
import io
import json
import os
import warnings

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import wbident.suite
from wbident.cli import build_parser, main
from wbident.errors import NearDegeneracyWarning, WbidentError
from wbident.suite import IDENTITY_X_RANGE, run_suite


def trial_grids_are_nonempty(reports):
    assert all(r["grid"] for r in reports if r["check"].startswith("trial-"))


def ode4_basis_is_exact_in_x(reports):
    # the grids hold powers of x, whatever --x-grid says; only the printed
    # variant leaves a nonzero coefficient
    basis = [r for r in reports if r["check"].startswith("ode4-basis")]
    assert len(basis) == 11
    assert all(x == int(x) for r in basis for x in r["grid"])
    assert {r["check"] for r in basis if max(r["residuals"]) > 0} == {"ode4-basis-printed"}


# (command line, exit code, what its --out file must match: another row's
# file byte for byte, or a check of its reports; RuntimeWarning as an error)
ROWS = [
    ("suite --out suite.json", 0, None, False),
    ("suite --out suite-again.json", 0, "suite.json", False),
    ("suite --x-grid 8 --out suite-x8.json", 0, trial_grids_are_nonempty, False),
    ("verify --check ode4-basis --n 4 --k 0.5", 0, None, False),
    ("verify --check ode4-basis --n 0 --k 2", 0, None, False),
    ("verify --check trial --n 2 --k 0.5", 0, None, False),
    ("suite --oracle --out suite-oracle.json", 0, None, False),
    ("suite --oracle --out suite-oracle-again.json", 0, "suite-oracle.json", False),
    ("suite --oracle --k-set 1e-4 --n-max 2", 2, None, False),
    ("coeffs --n 25 --k 4.9 --out coeffs.json", 0, None, False),
    ("verify --check indicial --n 2 --k 1", 0, None, False),
    ("verify --check indicial --n 2 --k 1 --x-grid 99,-3", 2, None, False),
    ("verify --check indicial --n 2 --k 1e10", 0, None, False),
    ("verify --check indicial --n 2 --k 1e100", 0, None, False),
    ("verify --check indicial --n 2 --k 1e300", 0, None, False),
    ("suite --x-grid 0.5,3 --out suite-x3.json", 0, ode4_basis_is_exact_in_x, False),
    ("verify --check reconstruction --n 2 --k 1", 0, None, False),
    ("verify --check identity --n 2 --k 1 --x-grid 9", 2, None, False),
    ("eval whittaker-w 1.5 1e300j 2.0", 2, None, False),
    ("verify --check trial --n 2 --k 500", 2, None, False),
    ("verify --check reconstruction --n 2 --k 230", 2, None, False),
    ("verify --check trial --n 0 --k 1 --x-grid 1e-300", 2, None, False),
    ("verify --check kernel-cross --n 0 --k 1 --x-grid 5e-324", 2, None, False),
    ("verify --check oracle --n 2 --k 1e-9", 2, None, True),
    ("verify --check oracle --n 25 --k 2.526", 0, None, True),
    ("eval kummer-m 1 1 1e300", 2, None, False),
    ("--config old-config.json coeffs --n 1 --k 1", 2, None, False),
    ("eval whittaker-w 1.5 1e300j 2.0", 2, None, True),
    ("eval whittaker-w 25.5 600j 2.0", 2, None, False),
    ("eval bessel-k-quad 0.5+1j 740", 2, None, False),
    ("eval bessel-k-quad 0.5+1j 800", 2, None, False),
    ("eval bessel-i -- -0.5+1j 1.5", 0, None, False),
]


def out_file(argv: str):
    words = argv.split()
    return words[words.index("--out") + 1] if "--out" in words else None


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """run(argv, strict) runs a command once in the shared directory (with
    RuntimeWarning as an error when strict) and returns its exit code."""
    where = tmp_path_factory.mktemp("smoke")
    (where / "old-config.json").write_text('{"k_zero_threshold": 0.0}')
    codes = {}

    def run(argv: str, strict: bool) -> int:
        if (argv, strict) not in codes:
            cwd = os.getcwd()
            os.chdir(where)
            try:
                with warnings.catch_warnings():
                    if strict:
                        warnings.simplefilter("error", RuntimeWarning)
                    codes[argv, strict] = main(argv.split())
            finally:
                os.chdir(cwd)
        return codes[argv, strict]

    run.where = where
    return run


@pytest.mark.parametrize("argv,code,match,strict", ROWS,
                         ids=[f"{r[0]}{' -W error' if r[3] else ''}" for r in ROWS])
def test_smoke_command(smoke, argv, code, match, strict, capsys):
    assert smoke(argv, strict) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
    name = out_file(argv)
    if name is None:
        return
    written = smoke.where / name
    assert written.exists()
    if isinstance(match, str):
        producer = next(r for r in ROWS if out_file(r[0]) == match)
        assert smoke(producer[0], producer[3]) == producer[1]
        assert written.read_bytes() == (smoke.where / match).read_bytes()
    elif match is not None:
        match(json.loads(written.read_text())["reports"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(0, 25), k=st.floats(0.0, 6.0),
       xs=st.lists(st.floats(0.2, 8.05), min_size=1, max_size=5))
def test_verify_identity_exits_with_a_code(n, k, xs):
    # grids inside and just outside IDENTITY_X_RANGE; exit 2 always with an
    # error line, and nothing raised
    exit_code(["verify", "--check", "identity", "--n", str(n), "--k", repr(k),
               "--x-grid", ",".join(map(repr, xs))])


def exit_code(argv) -> int:
    """main(argv)'s exit code; exit 2 always with an error line, and
    nothing raised or warned: every check that reads W at mu = ik refuses
    the k where 2ik lies within mu_degeneracy_tol of 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearDegeneracyWarning)
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    assert not caught
    return code


@pytest.mark.parametrize("check", list(wbident.suite.CHECKS))
def test_verify_runs_every_check_at_its_defaults(check, tmp_path):
    # every load-bearing report passes at the defaults (exit 0), and every
    # advisory one with a residual still fails there.  The default n = 3 is
    # the first at which the five-factor recurrence has an m to score
    out = tmp_path / "out.json"
    assert exit_code(["verify", "--check", check, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for rep in doc.get("reports", [doc]):
        assert not (rep["advisory"] and rep["residuals"] and rep["pass"]), rep["check"]


def test_verify_choices_are_the_check_table():
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    check = next(a for a in verify._actions if a.dest == "check")
    assert set(check.choices) == set(wbident.suite.CHECKS)


# each check's valid box, and values just outside it.  A check with an x
# grid draws x from the box its runner accepts, edges included: kernel-cross
# and trial take any x > 0 and refuse those too small or too large for K's
# quadrature, the Kummer series or (trial) the Whittaker operator's x^2;
# identity and the reconstructions refuse x outside their ranges
VALID_N, VALID_K = st.integers(0, 25), st.floats(0.0, 6.0)
VALID_X = {
    "kernel-cross": st.floats(0.0, 1e3, exclude_min=True),
    "identity": st.floats(*IDENTITY_X_RANGE),
    "trial": st.floats(0.0, 1e3, exclude_min=True),
    "reconstruction": st.floats(0.5, 6.0),
    "reconstruction-printed-constants": st.floats(0.5, 6.0),
}
BAD_N = st.sampled_from([-1, 26])
BAD_K = st.sampled_from([-1.0, -2e-311, 1e-9, 230.0, 600.0])
BAD_X = st.sampled_from([-1.0, 0.0, 1e-300, 0.2, 6.5, 9.0])


def verify_argv(check, n, k, xs) -> list[str]:
    # "--k=" keeps a value such as -2e-311 from reading as an option
    argv = ["verify", "--check", check, f"--n={n}", f"--k={k!r}"]
    if xs is not None:
        argv.append("--x-grid=" + ",".join(map(repr, xs)))
    return argv


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), check=st.sampled_from(list(wbident.suite.CHECKS)), k=VALID_K)
def test_verify_checks_in_their_box_exit_with_a_code(data, check, k):
    n = data.draw(VALID_N)
    # a row with an x grid and no box in VALID_X fails here
    xs = (data.draw(st.lists(VALID_X[check], min_size=1, max_size=4))
          if wbident.suite.CHECKS[check].x_grid is not None else None)
    code = exit_code(verify_argv(check, n, k, xs))
    event(f"{check} exit {code}")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(check=st.sampled_from(list(wbident.suite.CHECKS)),
       spoil=st.sampled_from(["n", "k", "x"]), n=BAD_N, k=BAD_K, x=BAD_X)
def test_verify_checks_outside_their_box_exit_with_a_code(check, spoil, n, k, x):
    # one input outside the box; a check without an x grid refuses any
    # --x-grid
    k = k if spoil == "k" else 0.5
    argv = verify_argv(check, n if spoil == "n" else 2, k,
                       [0.5, 1.0, x] if spoil == "x" else None)
    event(f"{check} exit {exit_code(argv)}")


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n_max=st.integers(0, 6), ks=st.lists(VALID_K, max_size=3),
       xs=st.lists(st.floats(0.25, 8.0), min_size=1, max_size=4),
       spoil=st.sampled_from([None, None, "n", "k", "x"]),
       bad_n=BAD_N, bad_k=BAD_K, bad_x=BAD_X)
def test_run_suite_raises_only_wbident_errors(n_max, ks, xs, spoil, bad_n, bad_k, bad_x):
    # a bounded box around the defaults, with at most one input outside it:
    # any exception but WbidentError escapes
    try:
        result = run_suite(n_max=bad_n if spoil == "n" else n_max,
                           k_set=ks + [bad_k] if spoil == "k" else ks,
                           x_grid=xs + [bad_x] if spoil == "x" else xs)
    except WbidentError as exc:
        event(type(exc).__name__)
        return
    event("report")
    assert result.reports
