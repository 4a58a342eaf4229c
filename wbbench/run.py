"""wbident benchmark: one workload, run as a closed loop from this process.

    python3 wbbench/run.py --workload suite-default --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): suite-default, suite-oracle, identity-sweep.
The process starts no threads of its own and runs one pass of the workload
after another until --seconds have passed (at least one pass).  Every pass
is checked against the reference verdicts; the run is correct only if every
pass is.

--trace 0 prints the end-to-end metrics, all from untraced passes:
  wall_s, cpu_s         median wall and process CPU time of one pass
  setup_s               median time of a fresh interpreter to import wbident
                        and finish one warm-up call
  peak_rss_mb           peak resident memory of this process
  pass_frac             share of attempted operations (non-advisory reports,
                        or sweep cells) that passed; 1 - pass_frac is the
                        share that failed
  resid_margin_digits   mean over passing operations of
                        log10(threshold / max residual); the minimum is
                        printed beside it (it moves too much between sweep
                        seeds to carry a bound)
  cell_ms.p50, .p95     time per unit of work: one sweep cell, or one whole
                        pass on the suite workloads.  A tail percentile
                        needs at least ten units beyond it; with fewer
                        units (the suite workloads) .p95 reports the median
--trace 1 prints the per-layer metrics: fixed-point microbenchmarks, and
call counts, busy times and run_suite stage spans from traced passes, which
alternate with untraced ones to give the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  "attempted" counts
operations over all passes and "failed" those that raised or fail where the
reference passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import workloads as W
from micro import export_microbenchmarks, layer_microbenchmarks
from tracing import Tracer, pass_stats

SETUP_REPEATS = 5
SETUP_CODE = ("import wbident; "
              "wbident.verify_identity(wbident.OrderParams(n=2, k=1.0), [1.0])")

TAIL_UNITS = 200          # p95 leaves at least ten units beyond it
KERNELS = ("whittaker_w", "whittaker_m", "bessel_i", "bessel_k_quad", "bessel_k_via_w")
TRACED_BUSY = ("lambda_poly.collocation_oracle", "lambda_poly.coeffs_from_recurrence",
               "ode.product_solution_check", "ode.lambda_reconstruction",
               "ode.trial_condition_check")


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import wbident from the checkout
    and make one call; each is waited for before the next starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(W.ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=W.ROOT, env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


class Pass:
    """One timed pass and its judged outcome."""

    def __init__(self, wl, tracer: Tracer | None = None):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            self.result = tracer.run_pass(wl.run) if tracer else wl.run()
            self.error = None
        except Exception as exc:  # a raising pass is judged failed, not a crash
            self.result, self.error = None, f"{type(exc).__name__}: {exc}"
        self.wall = time.perf_counter() - t0
        self.cpu = time.process_time() - c0
        self.outcome = wl.outcome(self.result, self.wall)
        if self.error:
            self.outcome.problems.append(self.error)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    walls = [p.wall for p in passes]
    units = [u for p in passes for u in p.outcome.unit_s]
    margins = [m for p in passes for m in p.outcome.margins]
    attempted = sum(p.outcome.attempted for p in passes)
    passed = sum(p.outcome.passed for p in passes)
    np_ = f"median of {len(passes)} passes"
    if len(units) >= TAIL_UNITS:
        tail, tail_note = percentile(units, 95), f"p95 of {len(units)} units"
    else:
        tail, tail_note = statistics.median(units), f"median: {len(units)} units are too few for p95"
    return {
        "wall_s": (statistics.median(walls), "s", np_),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s", np_),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "process peak"),
        "pass_frac": (passed / attempted, "ratio", f"{passed} of {attempted} operations"),
        "resid_margin_digits": (statistics.fmean(margins) if margins else 0.0, "digits",
                                f"mean of {len(margins)} operations, min "
                                f"{min(margins, default=0.0):.4f}"),
        "cell_ms.p50": (1e3 * statistics.median(units), "ms", f"median of {len(units)} units"),
        "cell_ms.p95": (1e3 * tail, "ms", tail_note),
    }


def per_layer(micro: dict, plain: list[Pass], traced: list[Pass], tracer: Tracer) -> dict:
    stats = [pass_stats([s for s in tracer.spans if s[6] == i + 1])
             for i in range(len(traced))]

    def med(get):
        return statistics.median(get(s) for s in stats)

    nt = f"median of {len(traced)} traced passes"
    out = {name: (v, re.split(r"[._]", name)[-1], "fixed point") for name, v in micro.items()}
    for fn in KERNELS:
        name = f"kernels.{fn}"
        out[f"{name}.calls"] = (stats[0]["calls"].get(name, 0), "count", "per pass")
        out[f"{name}.busy_s"] = (med(lambda s: s["busy"].get(name, 0.0)), "s", nt)
    for name in TRACED_BUSY:
        out[f"{name}.busy_s"] = (med(lambda s: s["busy"].get(name, 0.0)), "s", nt)
    for stage in ("kernel_cross", "cells", "oracle_eq", "ode4", "indicial", "constants_recon"):
        out[f"suite.stage.{stage}_s"] = (med(lambda s: s["stages"].get(stage, 0.0)), "s", nt)
    out["suite.stage.cells_busy_s"] = (med(lambda s: s["stage_busy"].get("cells", 0.0)), "s", nt)
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in plain), "s",
                               f"traced minus untraced wall_s, {len(traced)} + {len(plain)} passes")
    return out


def print_self_times(tracer: Tracer, n_passes: int) -> None:
    stats = pass_stats(tracer.spans)
    top = sorted(stats["self"].items(), key=lambda kv: -kv[1])[:12]
    print(f"self time per traced pass (of {n_passes}):", file=sys.stderr)
    for name, t in top:
        print(f"  {name:40s} {t / n_passes:10.4f} s  {stats['calls'][name] // n_passes:8d} calls",
              file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wbident benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        wb = W.load_wbident()
        wl = W.make_workload(wb, args.workload, args.seed)
    except (W.CheckoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    W.OUT_DIR.mkdir(exist_ok=True)
    wb.suite.verify_identity(wb.OrderParams(n=2, k=1.0), [1.0])

    plain: list[Pass] = []
    traced: list[Pass] = []
    if args.trace:
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        micro = layer_microbenchmarks(wb)
        while True:
            plain.append(Pass(wl))
            with tracer:
                traced.append(Pass(wl, tracer))
            if time.perf_counter() >= deadline:
                break
        last = next((p.result for p in reversed(plain) if p.result is not None), None)
        if last is not None:
            micro.update(export_microbenchmarks(wl.suite_result(last), W.OUT_DIR))
        metrics = per_layer(micro, plain, traced, tracer)
        trace_path = W.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print_self_times(tracer, len(traced))
        for name in tracer.missing:
            print(f"missing traced name: {name}", file=sys.stderr)
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        setup = measure_setup()
        deadline = time.perf_counter() + args.seconds
        while True:
            plain.append(Pass(wl))
            if time.perf_counter() >= deadline:
                break
        metrics = end_to_end(plain, setup)

    passes = plain + traced
    problems = [p for ps in passes for p in ps.outcome.problems]
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed against the reference")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:7s} {note}")
    for problem in sorted(set(problems))[:20]:
        print(f"GUARD: {problem}")
    print("correct" if not problems else f"NOT correct: {len(set(problems))} distinct problems")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
