"""Tests for report serialization, determinism, and the CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wbident
from wbident import lambda_poly
from wbident.cli import main
from wbident.config import EvalConfig, default_config, load_config
from wbident.errors import ConvergenceError, InputError
from wbident.kernels import OrderParams
from wbident.lambda_poly import check_second_order, laguerre_closed_form
from wbident.ode import coupled_residual
from wbident.report import (ADVISORY_CHECKS, ResidualReport,
                            VerificationSuiteResult, canonical_json, export,
                            exact_relative_residual, index_grid,
                            relative_difference, relative_residual)
from wbident.suite import run_suite, verify_identity


def small_report(name="identity", advisory=None, residuals=(1e-9, 2e-8)):
    return ResidualReport(
        check_name=name,
        params=OrderParams(n=1, k=1.0),
        grid=[0.5, 1.0][: len(residuals)],
        residuals=list(residuals),
        threshold=1e-6,
        advisory=advisory,
    )


class TestResidualReport:
    def test_pass_is_max_vs_threshold(self):
        rep = small_report()
        assert rep.passed and rep.max_residual == 2e-8
        rep2 = small_report(residuals=(1e-9, 2e-3))
        assert not rep2.passed

    def test_rejects_negative_residuals(self):
        with pytest.raises(ValueError):
            small_report(residuals=(-1e-9, 1e-9))

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError):
            ResidualReport("x", None, [1.0], [0.1, 0.2], 1e-6)

    def test_advisory_from_table(self):
        rep = small_report(name="indicial-printed-quadratic")
        assert rep.advisory
        assert "indicial-printed-quadratic" in ADVISORY_CHECKS

    def test_every_advisory_name_is_a_suite_report(self):
        names = {r.check_name for r in run_suite().reports}
        assert set(ADVISORY_CHECKS) <= names

    def test_fields_are_tuples(self):
        # grid and notes are tuples; residuals are a compact array('d') that
        # yields the Python floats passed in
        rep = ResidualReport("x", None, [1.0, 2.0], [0.1, 0.2], 1e-6, notes=["a"])
        assert (rep.grid, rep.notes) == ((1.0, 2.0), ("a",))
        assert rep.residuals.typecode == "d" and rep.residuals.itemsize == 8
        assert tuple(rep.residuals) == (0.1, 0.2)
        assert all(type(r) is float for r in rep.residuals)
        grid = (1.0, 2.0)
        assert ResidualReport("x", None, grid, (0.1, 0.2), 1e-6).grid is grid

    def test_residual_array_keeps_every_bit(self):
        values = (0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 1.7976931348623157e308)
        rep = ResidualReport("x", None, (1.0,) * 5, values, 1e-6)
        assert [r.hex() for r in rep.residuals] == [v.hex() for v in values]
        assert rep.as_json_dict()["residuals"] == list(values)

    def test_index_grid_is_shared(self):
        assert index_grid(0, 4) == (0.0, 1.0, 2.0, 3.0)
        assert index_grid(0, 4) is index_grid(0, 4)

    def test_json_fields(self):
        d = small_report().as_json_dict()
        assert set(d) == {"check", "params", "grid", "residuals", "threshold",
                          "pass", "advisory", "notes"}
        assert d["params"] == {"n": 1, "k": 1.0}


class TestRelativeDifference:
    def test_over_the_reference(self):
        assert relative_difference(3.0 + 4j, 3.0) == 4 / 3
        assert relative_difference(1.0, 1.0) == 0.0

    def test_zero_reference(self):
        assert relative_difference(0j, 0.0) == 0.0
        assert relative_difference(2j, 0.0) == 1.0


class TestRelativeResidual:
    def test_all_zero_terms_give_zero(self):
        assert relative_residual([0j, 0.0, 0j]) == 0.0

    def test_sum_over_largest_term(self):
        assert relative_residual([3.0, -4.0, 1 + 0j]) == 0.0
        assert relative_residual([2.0, -1.0]) == 0.5
        assert relative_residual([3 + 4j, 1.0]) == pytest.approx(abs(4 + 4j) / 5)

    def test_terms_near_double_max_do_not_overflow(self):
        r = relative_residual([1.5e308, 1.5e308j, -1.0e308])
        assert math.isfinite(r)
        assert r == pytest.approx(abs(0.5e308 + 1.5e308j) / 1.5e308)

    @pytest.mark.parametrize("bad", [math.inf, complex(0, -math.inf), math.nan])
    def test_non_finite_term_raises(self, bad):
        with pytest.raises(InputError):
            relative_residual([1.0, bad])


class TestExactRelativeResidual:
    def test_zero_sum_gives_exactly_zero(self):
        assert exact_relative_residual([(3, 4), (-3, -4)]) == 0.0
        assert exact_relative_residual([(0, 0), (0, 0)]) == 0.0

    def test_same_rule_as_the_float_residual(self):
        terms = [(3, 4), (1, 0), (-2, 7)]
        want = relative_residual([complex(*t) for t in terms])
        assert exact_relative_residual(terms) == pytest.approx(want, rel=1e-15)
        assert exact_relative_residual([(2, 0), (-1, 0)]) == 0.5

    def test_integers_beyond_the_double_range(self):
        big = 10 ** 400
        assert exact_relative_residual([(big, 0), (-big, big)]) == math.sqrt(0.5)
        assert exact_relative_residual([(big, 0), (0, -big)]) == math.sqrt(2)

    def test_a_nonzero_sum_never_reads_zero(self):
        # 1 against 10^200: the quotient 1e-400 is below the double range,
        # its root 1e-200 is not; against 10^400 even the root is not
        assert exact_relative_residual([(10 ** 200, 0), (1 - 10 ** 200, 0)]) \
            == pytest.approx(1e-200, rel=1e-15)
        assert exact_relative_residual([(10 ** 400, 0), (1 - 10 ** 400, 0)]) \
            == math.ulp(0.0)


class TestSuiteResult:
    def test_ok_ignores_advisory_failures(self):
        failing_advisory = small_report(name="indicial-printed-quadratic",
                                        residuals=(0.5,))
        result = VerificationSuiteResult(reports=[small_report(), failing_advisory])
        assert result.ok()
        assert result.n_failed == 1

    def test_ok_false_on_load_bearing_failure(self):
        result = VerificationSuiteResult(reports=[small_report(residuals=(0.5,))])
        assert not result.ok()


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": 1 / 3, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text

    def test_integral_floats_stable(self):
        assert canonical_json(1.0) == "1.0"
        assert canonical_json(0.5) == "0.5"

    def test_valid_json(self):
        rep = small_report()
        doc = json.loads(canonical_json(rep.as_json_dict()))
        assert doc["pass"] is True

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


class TestExport:
    def test_csv_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        export(small_report(), "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "check,n,k,x,residual,threshold,pass"
        assert len(lines) == 3
        assert lines[1].startswith("identity,1,1.0,0.5,")

    def test_empty_report_set_valid_document(self, tmp_path):
        path = tmp_path / "empty.json"
        export([], "json", str(path))
        assert json.loads(path.read_text()) == []
        path2 = tmp_path / "empty.csv"
        export([], "csv", str(path2))
        assert path2.read_text().strip() == "check,n,k,x,residual,threshold,pass"

    def test_io_error_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            export(small_report(), "json", str(tmp_path / "no/such/dir/x.json"))

    def test_suite_json_has_ledger_section(self, tmp_path):
        result = run_suite(n_max=1, k_set=(1.0,), x_grid=(0.5, 1.0))
        path = tmp_path / "suite.json"
        export(result, "json", str(path))
        doc = json.loads(path.read_text())
        assert "ledger" in doc and "reports" in doc and "summary" in doc
        assert doc["summary"]["ok"] is True


class TestDeterminism:
    def test_two_suite_runs_byte_identical(self, tmp_path):
        paths = []
        for i in range(2):
            result = run_suite(n_max=2, k_set=(0.5, 1.0), x_grid=(0.5, 1.0, 2.0))
            p = tmp_path / f"run{i}.json"
            export(result, "json", str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestConfig:
    def test_defaults_valid(self):
        cfg = EvalConfig()
        assert cfg.series_rel_tol == 1e-16
        assert cfg.series_max_terms == 1000
        assert cfg.quad_step == 1.0 / 64
        assert cfg.identity_tol == 1e-6
        assert cfg.realness_tol == 1e-10

    def test_every_field_is_read(self):
        # no dead knob: each field is read as `.name` somewhere in src
        # outside config.py
        src = Path(wbident.__file__).parent
        text = "".join(p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))
                       if p.name != "config.py")
        unread = [f.name for f in dataclasses.fields(EvalConfig)
                  if not re.search(rf"\.{f.name}\b", text)]
        assert unread == []

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            EvalConfig(series_max_terms=5)
        with pytest.raises(ValueError):
            EvalConfig(series_rel_tol=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EvalConfig)
                                      if f.type == "float"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_float_fields_must_be_positive(self, name, value):
        assert isinstance(getattr(EvalConfig(), name), float)
        with pytest.raises(InputError, match=f"EvalConfig.{name} must be positive"):
            EvalConfig(**{name: value})

    def test_load_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"identity_tol": 1e-5, "series_max_terms": 500}')
        cfg = load_config(str(p))
        assert cfg.identity_tol == 1e-5
        assert cfg.series_max_terms == 500

    @pytest.mark.parametrize("text", ['{"identity_tol": 1e-5', '[1e-5]',
                                      '{"identity_tol": "small"}'])
    def test_malformed_file_rejected(self, tmp_path, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        with pytest.raises(InputError):
            load_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"no_such_field": 1}')
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_removed_fields_rejected(self, tmp_path, capsys):
        # a config file naming a retired field exits 2, and the error names
        # it; five were the exact checks' tolerances, and the last set when
        # a double-precision collocation fit moved to 50 digits
        for field in ("fd_step", "fd_instability_floor",
                      "itilde_recurrence_tol", "bessel_derivative_tol",
                      "collocation_cond_limit", "k_zero_threshold",
                      "quad_cutoff", "top_coeff_tol", "coupled_tol",
                      "second_order_tol", "ode4_tol", "indicial_tol",
                      "collocation_escalate_cond"):
            p = tmp_path / "cfg.json"
            p.write_text(f'{{"{field}": 1e-2}}')
            with pytest.raises(InputError, match=field):
                load_config(str(p))
            assert main(["--config", str(p), "coeffs", "--n", "1", "--k", "1"]) == 2
            assert field in capsys.readouterr().err

    def test_env_var_is_ignored(self, tmp_path, monkeypatch):
        # a verdict depends only on a call's arguments: the former
        # WBIDENT_CONFIG override changes nothing, and --config still applies
        p = tmp_path / "cfg.json"
        p.write_text('{"identity_tol": 1e-30}')
        monkeypatch.setenv("WBIDENT_CONFIG", str(p))
        assert default_config() == EvalConfig()
        argv = ["verify", "--check", "identity", "--n", "1", "--k", "1.0",
                "--x-grid", "1.0"]
        assert main(argv) == 0
        assert main(["--config", str(p), *argv]) == 1

    def test_default_is_one_shared_instance(self):
        assert default_config() is default_config()
        assert default_config() == EvalConfig()

    def test_too_small_series_budget_surfaces_structured_error(self):
        # a valid but starved budget must fail loudly, not silently truncate
        cfg = EvalConfig(series_max_terms=10)
        with pytest.raises(ConvergenceError):
            verify_identity(OrderParams(n=3, k=1.0), [4.0], cfg)


class TestCli:
    def test_coeffs_json(self, capsys):
        assert main(["coeffs", "--n", "1", "--k", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 1 and len(doc["a"]) == 2

    def test_coeffs_k0(self, capsys):
        assert main(["coeffs", "--n", "2", "--k", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(im == 0 for _, im in doc["a"])

    @pytest.mark.parametrize("n", [0, 3, 25])
    def test_coeffs_k0_prints_laguerre_closed_form(self, n, capsys):
        assert main(["coeffs", "--n", str(n), "--k", "0"]) == 0
        want = canonical_json(laguerre_closed_form(n).as_json_dict())
        assert capsys.readouterr().out == want + "\n"

    def test_eval_kernel(self, capsys):
        assert main(["eval", "bessel-k-quad", "0.5", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        import math
        want = math.sqrt(math.pi / 2) * math.exp(-1)
        assert abs(doc["value"][0] - want) < 1e-10

    def test_eval_complex_argument(self, capsys):
        assert main(["eval", "whittaker-w", "1.5", "1j", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"][0] - 0.20297317720755835) < 1e-10

    def test_eval_wrong_arity(self):
        with pytest.raises(SystemExit):
            main(["eval", "bessel-i", "0.5"])

    def test_verify_identity_exit_zero(self, capsys):
        assert main(["verify", "--check", "identity", "--n", "2", "--k", "1.0",
                     "--x-grid", "0.5,1,2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_advisory_failure_exits_zero(self, capsys):
        assert main(["verify", "--check", "second-order", "--n", "5",
                     "--k", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "ADVISORY-FAIL" in out

    def test_verify_tol_override_can_fail(self, capsys):
        assert main(["verify", "--check", "identity", "--n", "1", "--k", "1.0",
                     "--x-grid", "1.0", "--tol", "1e-30"]) == 1

    @staticmethod
    def one_integer_off(monkeypatch):
        """+1 in the real numerator of sqrt(pi) d_2 a_2: the exact checks
        read 0.0 on the real integers and > 0 on the mutant."""
        original = lambda_poly._scaled_coeffs

        def mutant(n, k):
            out = original(n, k)
            re, im, d = out[1]
            out[1] = (re + 1, im, d)
            return out
        monkeypatch.setattr(lambda_poly, "_scaled_coeffs", mutant)

    @pytest.mark.parametrize("check", ["coupled", "second-order"])
    def test_exact_check_fails_one_integer_off(self, check, capsys, monkeypatch):
        # any nonzero defect, however small, fails an exact check
        params = OrderParams(n=5, k=0.5)
        run = {"coupled": coupled_residual,
               "second-order": lambda p: check_second_order(p, "derived")}[check]
        argv = ["verify", "--check", check, "--n", "5", "--k", "0.5"]
        assert run(params).max_residual == 0.0 and main(argv) == 0
        self.one_integer_off(monkeypatch)
        assert run(params).max_residual > 0.0 and main(argv) == 1

    @pytest.mark.parametrize("check", ["coupled", "second-order", "ode4-basis",
                                       "indicial"])
    def test_exact_checks_refuse_tol(self, check, capsys):
        # an exact check passes only at 0.0: there is no threshold to override
        assert main(["verify", "--check", check, "--tol", "1e-3"]) == 2
        assert "takes no --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["coupled", "second-order"])
    def test_exact_checks_say_what_they_certify(self, check, capsys):
        # at k = 1e300 the coefficients exceed the double range (coeffs exits
        # 2), yet their integers satisfy the relations; the notes say so
        assert main(["verify", "--check", check, "--n", "3", "--k", "1e300"]) == 0
        assert "double-rounded CoeffVector is not read" in capsys.readouterr().out

    def test_structured_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"series_max_terms": 10}')
        code = main(["--config", str(p), "verify", "--check", "identity",
                     "--n", "3", "--k", "1.0", "--x-grid", "4.0"])
        assert code == 2
        assert "ConvergenceError" in capsys.readouterr().err

    def test_suite_small_and_export(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        code = main(["suite", "--n-max", "1", "--k-set", "1.0",
                     "--x-grid", "0.5,1.0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["ok"] is True
        text = capsys.readouterr().out
        assert "checks passed" in text

    def test_suite_common_zero_of_both_sides(self, capsys):
        # at k = 0, n = 1 both W_{3/2,0}(2x) and Lambda vanish at x = 1/2
        assert main(["suite", "--n-max", "2", "--k-set", "0,1",
                     "--x-grid", "0.5,1,2"]) == 0

    @pytest.mark.parametrize("argv", [
        "coeffs --n 30 --k 1",
        "coeffs --n 2 --k 1e300",
        "verify --check identity --n 2 --k 1 --x-grid 9",
        "verify --check ode4-basis --n 2 --k 0",
        "eval whittaker-w 1.5 1j -2.0",
        "eval bessel-k-quad 1.5 2.0",
        "eval bessel-i 0.5 1+1j",
        "suite --x-grid 0",
        "suite --x-grid ,",
        "verify --check identity --x-grid ,",
        "verify --check trial --x-grid ,",
        "verify --check reconstruction --n 2 --k 1e-14",
        "verify --check trial --n 2 --k 1e-300",
        "suite --n-max 30",
        "suite --n-max -1",
        "suite --k-set -1",
        "suite --k-set nan",
        "suite --k-set ,",
        "verify --check kernel-cross --k 0",
        "verify --check kernel-cross --x-grid ,",
        "verify --check oracle --x-grid 1",
        "verify --check coefficients --tol 1e-3",
        "--config no/such/config.json suite",
        "suite --n-max 0 --k-set 1 --out no/such/dir/suite.json",
        "eval whittaker-w 1.5 1e300j 2.0",
        "eval bessel-i 0.5 1e300",
        "eval kummer-m 1 1 1e300",
        "verify --check trial --n 2 --k 1e300",
        "verify --check trial --n 2 --k 470",
        "verify --check trial --n 2 --k 500",
        "verify --check reconstruction --n 2 --k 1e300",
        "verify --check reconstruction --n 2 --k 200",
        "verify --check reconstruction --n 2 --k 230",
        "verify --check indicial --n 2 --k 1 --x-grid 99,-3",
        "verify --check ode4-basis --n 2 --k 1 --x-grid 0.5,1",
        "verify --check coupled --n 2 --k 1 --x-grid 99,-3",
        "verify --check second-order --n 2 --k 1 --x-grid 99,-3",
        # every report's grid empty: the five-factor recurrence scores n >= 3
        "verify --check second-order --n 1",
        "verify --check second-order --n 2",
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_input_exits_2_without_traceback(self, argv, capsys):
        # an exception escaping main() is what prints a traceback
        assert main(argv.split()) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_console_entry_point(self):
        # the child imports wbident from the same place this process does
        src = str(Path(wbident.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "wbident.cli", "coeffs", "--n", "0", "--k", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0
        assert json.loads(out.stdout)["n"] == 0


class TestIdentityValues:
    def test_n0_k0_both_sides_value(self):
        # both sides equal sqrt(2) e^{-1} at x = 1
        import math
        from wbident.core import SQRT_PI
        from wbident.kernels import whittaker_w, bessel_k_quad
        from wbident.lambda_poly import laguerre_closed_form
        want = math.sqrt(2) * math.exp(-1)
        lhs = whittaker_w(0.5, 0.0, 2.0)
        lam = complex(laguerre_closed_form(0).lam_poly()(1.0))
        kp = bessel_k_quad(0.5, 1.0)
        rhs = (lam * kp + (lam * kp).conjugate()).real
        assert abs(lhs - want) <= 1e-13 * want
        assert abs(rhs - want) <= 1e-12 * want

    def test_n1_k0_same_value(self):
        # W_{3/2,0}(2) = -sqrt(2) e^{-1} L_1(2) = sqrt(2) e^{-1}
        import math
        from wbident.suite import verify_identity
        rep = verify_identity(OrderParams(n=1, k=0.0), [1.0])
        assert rep.passed

    def test_small_nonzero_k_refused(self):
        from wbident.suite import verify_identity
        with pytest.raises(ValueError, match="refused"):
            verify_identity(OrderParams(n=1, k=1e-5), [1.0])

    def test_oracle_flag_suite(self):
        # the slow path: oracle-backed collocation up to the requested n_max
        from wbident.suite import run_suite
        result = run_suite(n_max=3, k_set=(1.0,), x_grid=(0.5, 1.0),
                           use_oracle=True)
        oracle_reports = [r for r in result.reports
                          if r.check_name == "oracle-equivalence"]
        assert max(r.params.n for r in oracle_reports) == 3
        assert all(r.passed for r in oracle_reports)
        assert result.ok()
