"""Command-line frontend.

Subcommands:
  coeffs  -- print the coefficient vector for (n, k) as JSON
  eval    -- evaluate a single kernel at given parameters
  verify  -- run one named check and report residuals
  suite   -- run the full verification suite

Exit code 0 iff every non-advisory check passed, 1 if one failed, and 2 on
invalid input (an ``error:`` line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import EvalConfig, default_config, load_config
from .errors import InputError, WbidentError
from .kernels import (OrderParams, bessel_i, bessel_i_tilde, bessel_k_quad,
                      bessel_k_via_w, kummer_m, whittaker_m, whittaker_w)
from .lambda_poly import (coeffs_from_recurrence, check_second_order,
                          laguerre_closed_form)
from .ode import (indicial_reports, lambda_reconstruction,
                  product_solution_check, trial_condition_check)
from .report import VerificationSuiteResult, canonical_json, export
from .suite import (DEFAULT_K_SET, DEFAULT_N_MAX, DEFAULT_X_GRID, run_suite,
                    verify_identity)

# kernel -> (callable, argument names, indices that must be real)
_EVAL_KERNELS = {
    "kummer-m": (kummer_m, ("a", "b", "z"), ()),
    "whittaker-m": (whittaker_m, ("kappa", "mu", "z"), (2,)),
    "whittaker-w": (whittaker_w, ("kappa", "mu", "z"), (2,)),
    "bessel-i": (bessel_i, ("nu", "x"), (1,)),
    "bessel-i-tilde": (bessel_i_tilde, ("nu", "x"), (1,)),
    "bessel-k-quad": (bessel_k_quad, ("nu", "x"), (1,)),
    "bessel-k-via-w": (bessel_k_via_w, ("nu", "x"), (1,)),
}

# verify --tol overrides the threshold the named check reads from EvalConfig
_CHECK_TOL_FIELD = {
    "identity": "identity_tol",
    "coupled": "coupled_tol",
    "ode4-basis": "ode4_tol",
    "indicial": "indicial_tol",
    "trial": "whittaker_eq_tol",
    "reconstruction": "reconstruction_tol",
    "second-order": "second_order_tol",
}


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbident",
        description="Construct the Whittaker-Bessel identity polynomials and "
                    "verify the identity and its supporting structures.")
    parser.add_argument("--config", help="path to an EvalConfig JSON file "
                                         "(or set WBIDENT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print the coefficient vector as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("eval", help="evaluate a kernel at given parameters")
    p.add_argument("kernel", choices=sorted(_EVAL_KERNELS))
    p.add_argument("args", nargs="+", type=complex,
                   help="kernel arguments as complex literals, e.g. 1.5 1j 2.0")

    p = sub.add_parser("verify", help="run a single check")
    p.add_argument("--check", required=True, choices=sorted(_CHECK_TOL_FIELD))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--x-grid", type=_csv_floats, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="override the check's threshold")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("suite", help="run the full verification suite")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p.add_argument("--k-set", type=_csv_floats, default=list(DEFAULT_K_SET))
    p.add_argument("--x-grid", type=_csv_floats, default=list(DEFAULT_X_GRID))
    p.add_argument("--oracle", action="store_true",
                   help="include the 50-digit oracle checks (slow path)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    return parser


def _cmd_coeffs(args, config: EvalConfig) -> int:
    params = OrderParams(n=args.n, k=args.k)
    if abs(args.k) <= config.k_zero_threshold:
        cv = laguerre_closed_form(args.n)
    else:
        cv = coeffs_from_recurrence(params, config)
    text = canonical_json(cv.as_json_dict())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_eval(args, config: EvalConfig) -> int:
    fn, names, real_idx = _EVAL_KERNELS[args.kernel]
    values = args.args
    if len(values) != len(names):
        build_parser().error(f"{args.kernel} expects {len(names)} arguments "
                             f"{names}, got {len(values)}")
    for i in real_idx:
        if values[i].imag != 0:
            raise InputError(f"{args.kernel}: {names[i]} must be real, "
                             f"got {values[i]}")
    call = [v.real if i in real_idx else v for i, v in enumerate(values)]
    result = fn(*call, config)
    print(canonical_json({
        "kernel": args.kernel,
        "args": [[v.real, v.imag] for v in values],
        "value": [result.real, result.imag],
    }))
    return 0


def _cmd_verify(args, config: EvalConfig) -> int:
    if args.tol is not None:
        config = config.replace(**{_CHECK_TOL_FIELD[args.check]: args.tol})
    params = OrderParams(n=args.n, k=args.k)
    grid = args.x_grid
    if args.check == "identity":
        reports = [verify_identity(params, grid or DEFAULT_X_GRID, config)]
    elif args.check == "coupled":
        from .ode import coupled_residual
        cv = coeffs_from_recurrence(params, config)
        reports = [coupled_residual(cv, config)]
    elif args.check == "second-order":
        cv = coeffs_from_recurrence(params, config)
        reports = [check_second_order(cv, "printed", config),
                   check_second_order(cv, "derived", config)]
    elif args.check == "ode4-basis":
        reports = [product_solution_check(params, config,
                                          x_grid=grid or (0.5, 1.0, 2.0, 4.0))]
    elif args.check == "indicial":
        reports = indicial_reports(params, config)
    elif args.check == "trial":
        reports = trial_condition_check(params, grid or (0.5, 1.0, 2.0), config)
    elif args.check == "reconstruction":
        reports = [lambda_reconstruction(params, grid or (0.5, 1.0, 2.0, 4.0),
                                         config)]
    else:
        raise SystemExit(f"unknown check {args.check}")

    result = VerificationSuiteResult(reports=reports)
    if args.out:
        export(result if len(reports) > 1 else reports[0], args.format, args.out)
    for rep in result.sorted_reports():
        status = "PASS" if rep.passed else ("ADVISORY-FAIL" if rep.advisory else "FAIL")
        print(f"{status:14s} {rep.check_name}: max residual "
              f"{rep.max_residual:.3e} (threshold {rep.threshold:.1e})")
    return 0 if result.ok() else 1


def _cmd_suite(args, config: EvalConfig) -> int:
    result = run_suite(config, n_max=args.n_max, k_set=args.k_set,
                       x_grid=args.x_grid, use_oracle=args.oracle)
    if args.out:
        export(result, args.format, args.out)
    for rep in result.sorted_reports():
        status = "PASS" if rep.passed else ("ADVISORY-FAIL" if rep.advisory else "FAIL")
        p = rep.params
        where = f"n={p.n} k={p.k}" if p else ""
        print(f"{status:14s} {rep.check_name} {where}: max residual "
              f"{rep.max_residual:.3e} (threshold {rep.threshold:.1e})")
    print(f"\n{result.n_passed}/{len(result.reports)} checks passed; "
          f"{len(result.ledger)} ledger entries")
    for entry in result.ledger:
        print(f"  ledger: {entry}")
    return 0 if result.ok() else 1


# a non-finite value raises an error; numpy's overflow warnings only add noise
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        if args.command == "coeffs":
            return _cmd_coeffs(args, config)
        if args.command == "eval":
            return _cmd_eval(args, config)
        if args.command == "verify":
            return _cmd_verify(args, config)
        if args.command == "suite":
            return _cmd_suite(args, config)
        raise SystemExit(f"unknown command {args.command}")
    except (WbidentError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
