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
from hypothesis import given, settings
from hypothesis import strategies as st

from wbident.cli import main


def trial_grids_are_nonempty(reports):
    assert all(r["grid"] for r in reports if r["check"].startswith("trial-"))


def ode4_basis_runs_on_the_grid(reports):
    grids = [r["grid"] for r in reports if r["check"].startswith("ode4-basis")]
    assert grids and all(g == [0.5, 3.0] * 4 for g in grids)


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
    ("suite --x-grid 0.5,3 --out suite-x3.json", 0, ode4_basis_runs_on_the_grid, False),
    ("verify --check reconstruction --n 2 --k 1", 0, None, False),
    ("verify --check identity --n 2 --k 1 --x-grid 9", 2, None, False),
    ("eval whittaker-w 1.5 1e300j 2.0", 2, None, False),
    ("verify --check trial --n 2 --k 500", 2, None, False),
    ("verify --check reconstruction --n 2 --k 230", 2, None, False),
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
    # grids inside and just outside [0.25, 8]; exit 2 always with an error
    # line, and nothing raised
    argv = ["verify", "--check", "identity", "--n", str(n), "--k", repr(k),
            "--x-grid", ",".join(map(repr, xs))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
