"""Record the reference verdicts the guard compares against.

    python3 wbbench/record.py suite      # reference/suite-default.json, suite-oracle.json
    python3 wbbench/record.py sweep      # reference/sweep-pool.json (~6 min on one core)

Run it only on the commit whose verdicts are the reference; a later change
that alters verdicts must not re-record them to pass the guard.
"""

from __future__ import annotations

import argparse
import json
import random

from workloads import REF_DIR, SWEEP_N, load_wbident, verdicts_of

K_POOL_SIZE = 48
X_POOL_SIZE = 96
POOL_SEED = 20040412


def make_pools() -> tuple[list[float], list[float]]:
    rng = random.Random(POOL_SEED)
    k_pool = sorted(rng.uniform(1e-3, 5.0) for _ in range(K_POOL_SIZE))
    x_pool = sorted(rng.uniform(0.25, 8.0) for _ in range(X_POOL_SIZE))
    return k_pool, x_pool


def pool_residuals(wb, k_pool, x_pool):
    """Identity residual at every (n, k, x) of the pools, k = 0 included.
    Each x is evaluated independently inside verify_identity, so one call per
    (n, k) over the whole x pool gives the residual any sub-grid would get."""
    out = {}
    for n in SWEEP_N:
        for k in [0.0] + list(k_pool):
            rep = wb.verify_identity(wb.OrderParams(n=n, k=k), x_pool)
            out[(n, k)] = (rep.threshold, list(rep.residuals))
    return out


def record_sweep(wb) -> None:
    k_pool, x_pool = make_pools()
    table = pool_residuals(wb, k_pool, x_pool)
    failing = []
    for (n, k), (threshold, residuals) in table.items():
        failing += [[n, k, x, r] for x, r in zip(x_pool, residuals) if r > threshold]
    doc = {"k_pool": k_pool, "x_pool": x_pool, "n_max": 25,
           "identity_tol": wb.default_config().identity_tol, "failing": failing}
    _write("sweep-pool.json", doc)
    worst = max(failing, key=lambda row: row[3]) if failing else None
    print(f"{len(failing)} failing pool points; worst {worst}")


def record_suite(wb) -> None:
    for workload, use_oracle in (("suite-default", False), ("suite-oracle", True)):
        result = wb.run_suite(use_oracle=use_oracle)
        rows = [v.as_list() for v in verdicts_of(result.reports)]
        _write(f"{workload}.json", {"verdicts": rows, "ok": result.ok(),
                                    "ledger_entries": len(result.ledger)})
        print(f"{workload}: {len(rows)} reports, ok={result.ok()}, "
              f"{len(result.ledger)} ledger entries")


def _write(name: str, doc) -> None:
    REF_DIR.mkdir(exist_ok=True)
    with open(REF_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("suite", "sweep"))
    args = ap.parse_args()
    wb = load_wbident()
    if args.what == "suite":
        record_suite(wb)
    else:
        record_sweep(wb)


if __name__ == "__main__":
    main()
