"""Run the benchmark over several seeds and report each metric's median and
spread (distance between the first and third quartile, as a share of the
median) against the bound in BENCHMARK.json.

    python3 wbbench/collect.py --workloads identity-sweep --seeds 1-5
    python3 wbbench/collect.py --seeds 1-10 --trace-seeds 1 --out wbbench/baseline.json

Untraced runs use --seeds, traced runs --trace-seeds.  Runs are sequential;
each is waited for before the next starts.  --out writes the machine info
and, per workload, every run's values with their median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import HERE, ROOT, WORKLOADS


def seed_list(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["seed"] = seed
    doc["elapsed_s"] = elapsed
    return doc


def summarise(docs: list[dict], bounds: dict) -> dict:
    out = {"seeds": [d["seed"] for d in docs],
           "correct": all(d["correct"] for d in docs),
           "attempted": [d["attempted"] for d in docs],
           "failed": [d["failed"] for d in docs],
           "elapsed_s": [round(d["elapsed_s"], 2) for d in docs],
           "metrics": {}}
    for name, first in docs[0]["metrics"].items():
        values = [d["metrics"][name]["value"] for d in docs]
        med = statistics.median(values)
        q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (med, med))
        entry = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / med if med else 0.0, "values": values}
        if name in bounds:
            entry["bound"] = bounds[name]
        out["metrics"][name] = entry
    return out


def print_summary(workload: str, trace: int, summary: dict) -> None:
    print(f"{workload} (trace {trace}): {len(summary['seeds'])} runs, "
          f"correct={summary['correct']}, failed={summary['failed']}")
    for name, m in summary["metrics"].items():
        flag = ""
        if "bound" in m:
            flag = f"bound {m['bound']}" + ("  OVER A THIRD" if m["spread"] > m["bound"] / 3 else "")
        print(f"  {name:42s} median {m['median']:12.6g}  spread {m['spread']:7.4f}  {flag}")


def machine_info() -> dict:
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "longdouble_eps": float(numpy.finfo(numpy.longdouble).eps)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"machine": machine_info(), "run_seconds": spec["run_seconds"],
           "untraced": {}, "traced": {}}
    for workload in args.workloads:
        for trace, seeds in ((0, seed_list(args.seeds)), (1, seed_list(args.trace_seeds))):
            if not seeds:
                continue
            docs = []
            for seed in seeds:
                docs.append(run_once(workload, seed, spec["run_seconds"], trace))
                print(f"{workload} seed {seed} trace {trace}: "
                      f"correct={docs[-1]['correct']} elapsed={docs[-1]['elapsed_s']:.1f}s",
                      flush=True)
            summary = summarise(docs, bounds)
            doc["traced" if trace else "untraced"][workload] = summary
            print_summary(workload, trace, summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
