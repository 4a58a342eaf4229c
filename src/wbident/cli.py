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

from .config import EvalConfig, default_config, load_config
from .errors import InputError, WbidentError
from .kernels import (OrderParams, bessel_i, bessel_i_tilde, bessel_k_quad,
                      bessel_k_via_w, kummer_m, whittaker_m, whittaker_w)
from .lambda_poly import coeffs_from_recurrence, check_second_order
from .ode import (coupled_residual, indicial_reports, lambda_reconstruction,
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


def _second_order(params, grid, config):
    cv = coeffs_from_recurrence(params, config)
    return [check_second_order(cv, variant, config)
            for variant in ("printed", "derived")]


# verify --check name -> (EvalConfig threshold that --tol overrides, default
# x grid, runner(params, x grid, config) returning the check's reports)
_CHECKS = {
    "identity": ("identity_tol", DEFAULT_X_GRID,
                 lambda p, grid, c: [verify_identity(p, grid, c)]),
    "coupled": ("coupled_tol", None,
                lambda p, grid, c: [coupled_residual(coeffs_from_recurrence(p, c), c)]),
    "second-order": ("second_order_tol", None, _second_order),
    "ode4-basis": ("ode4_tol", (0.5, 1.0, 2.0, 4.0),
                   lambda p, grid, c: [product_solution_check(p, c, x_grid=grid)]),
    "indicial": ("indicial_tol", None, lambda p, grid, c: indicial_reports(p, c)),
    "trial": ("whittaker_eq_tol", (0.5, 1.0, 2.0), trial_condition_check),
    "reconstruction": ("reconstruction_tol", (0.5, 1.0, 2.0, 4.0),
                       lambda p, grid, c: [lambda_reconstruction(p, grid, c)]),
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
    p.add_argument("--check", required=True, choices=sorted(_CHECKS))
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
    cv = coeffs_from_recurrence(OrderParams(n=args.n, k=args.k), config)
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


def _print_report(rep, label: str) -> None:
    status = "PASS" if rep.passed else ("ADVISORY-FAIL" if rep.advisory else "FAIL")
    print(f"{status:14s} {label}: max residual "
          f"{rep.max_residual:.3e} (threshold {rep.threshold:.1e})")


def _cmd_verify(args, config: EvalConfig) -> int:
    tol_field, default_grid, run = _CHECKS[args.check]
    if default_grid is None and args.x_grid is not None:
        raise InputError(f"verify --check {args.check} takes no --x-grid")
    if args.tol is not None:
        config = config.replace(**{tol_field: args.tol})
    params = OrderParams(n=args.n, k=args.k)
    reports = run(params, args.x_grid or default_grid, config)

    result = VerificationSuiteResult(reports=reports)
    if args.out:
        export(result if len(reports) > 1 else reports[0], args.format, args.out)
    for rep in result.sorted_reports():
        _print_report(rep, rep.check_name)
    return 0 if result.ok() else 1


def _cmd_suite(args, config: EvalConfig) -> int:
    result = run_suite(config, n_max=args.n_max, k_set=args.k_set,
                       x_grid=args.x_grid, use_oracle=args.oracle)
    if args.out:
        export(result, args.format, args.out)
    for rep in result.sorted_reports():
        p = rep.params
        where = f"n={p.n} k={p.k}" if p else ""
        _print_report(rep, f"{rep.check_name} {where}")
    print(f"\n{result.n_passed}/{len(result.reports)} checks passed; "
          f"{len(result.ledger)} ledger entries")
    for entry in result.ledger:
        print(f"  ledger: {entry}")
    return 0 if result.ok() else 1


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
