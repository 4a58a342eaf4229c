"""Workload definitions, seeded sweep inputs and the correctness guard.

Three closed-loop workloads, each driven from this single process through
the public API of the checkout's ``src/wbident``:

* ``suite-default``   ``run_suite()`` with its defaults, then the JSON export
                      (what ``wbident suite --out FILE`` does);
* ``suite-oracle``    ``run_suite(use_oracle=True)``;
* ``identity-sweep``  every (n, k) cell with n = 0..25 and a seeded k set and
                      x grid; each cell calls ``coeffs_from_recurrence`` and
                      ``verify_identity``.

The guard compares every pass with verdicts recorded on the reference commit
(files under ``reference/``, written by ``record.py``).
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "reference"
OUT_DIR = HERE / "_out"
SQRT_PI = math.sqrt(math.pi)

WORKLOADS = ("suite-default", "suite-oracle", "identity-sweep")

SWEEP_N = tuple(range(26))
SWEEP_K_DRAWS = 5          # nonzero k per seed; k = 0 is always added
SWEEP_X_DRAWS = 12


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no usable wbident source."""


def load_wbident():
    """Import wbident from ``<checkout>/src`` and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "wbident" / "__init__.py").is_file():
        raise CheckoutError(f"no wbident source under {src}")
    sys.path.insert(0, str(src))
    wb = importlib.import_module("wbident")
    if Path(wb.__file__).resolve().parent != (src / "wbident").resolve():
        raise CheckoutError(f"imported wbident from {wb.__file__}, not {src}")
    return wb


# --- identity-sweep inputs ----------------------------------------------------
#
# k and x are drawn from fixed pools of values spread over k in [1e-3, 5] and
# x in [0.25, 8].  The reference file holds the verdict of every pool point,
# so every seed has reference verdicts without re-running the reference code.

def load_pool() -> dict:
    with open(REF_DIR / "sweep-pool.json", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_inputs(seed: int, pool: dict) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(k set, x grid) of one seed: k = 0 plus SWEEP_K_DRAWS pool values, and
    SWEEP_X_DRAWS pool x values, both sorted.  Each draw comes from its own
    equal-count stratum of the sorted pool, so every seed covers the whole
    range; seeds then differ little in work and in failing cells."""
    rng = random.Random(seed)
    ks = (0.0,) + _stratified(rng, pool["k_pool"], SWEEP_K_DRAWS)
    xs = _stratified(rng, pool["x_pool"], SWEEP_X_DRAWS)
    return ks, xs


def _stratified(rng: random.Random, values, m: int) -> tuple[float, ...]:
    v = sorted(values)
    return tuple(rng.choice(v[j * len(v) // m:(j + 1) * len(v) // m]) for j in range(m))


def sweep_cells(seed: int, pool: dict):
    ks, xs = sweep_inputs(seed, pool)
    return [(n, k) for n in SWEEP_N for k in ks], xs


# --- verdict records and the guard ------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One operation's outcome: report name, parameters, advisory flag, pass."""

    name: str
    n: int | None
    k: float | None
    advisory: bool
    passed: bool

    @property
    def key(self) -> tuple:
        return (self.name, self.n, self.k)

    def as_list(self) -> list:
        return [self.name, self.n, self.k, self.advisory, self.passed]


def verdicts_of(reports) -> list[Verdict]:
    out = []
    for r in reports:
        p = r.params
        out.append(Verdict(r.check_name, p.n if p else None,
                           float(p.k) if p else None, bool(r.advisory),
                           bool(r.passed)))
    return sorted(out, key=lambda v: (v.name, v.n if v.n is not None else -1,
                                      v.k if v.k is not None else 0.0))


def load_suite_reference(workload: str) -> list[Verdict]:
    with open(REF_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return [Verdict(*row) for row in json.load(fh)["verdicts"]]


def sweep_reference(seed: int, pool: dict) -> list[Verdict]:
    """Reference verdicts of one seed's sweep, from the per-point pool table."""
    cells, xs = sweep_cells(seed, pool)
    failing = {(n, k, x) for n, k, x, _ in pool["failing"]}
    return [Verdict("identity", n, k, False,
                    not any((n, k, x) in failing for x in xs))
            for n, k in cells]


def guard(reference: list[Verdict], observed: list[Verdict]) -> list[str]:
    """Violations of the reference verdicts; empty when the pass is correct.

    A pass is wrong when a report's name or parameters differ from the
    reference, when a non-advisory report that passed at the reference fails,
    or when the set of failing advisory checks changes."""
    problems = []
    ref = {v.key: v for v in reference}
    obs = {v.key: v for v in observed}
    if len(ref) != len(reference) or len(obs) != len(observed):
        problems.append("duplicate report keys")
    for key in sorted(ref.keys() - obs.keys(), key=repr):
        problems.append(f"missing report {key}")
    for key in sorted(obs.keys() - ref.keys(), key=repr):
        problems.append(f"unexpected report {key}")
    for key, v in ref.items():
        o = obs.get(key)
        if o is None:
            continue
        if o.advisory != v.advisory:
            problems.append(f"advisory flag changed for {key}")
        elif not v.advisory and v.passed and not o.passed:
            problems.append(f"non-advisory report {key} passed at the reference, fails now")
    ref_adv = {v.key for v in reference if v.advisory and not v.passed}
    obs_adv = {v.key for v in observed if v.advisory and not v.passed}
    if ref_adv != obs_adv:
        problems.append(f"failing advisory set changed: now {sorted(obs_adv ^ ref_adv, key=repr)} differ")
    return problems


def regressions(reference: list[Verdict], observed: list[Verdict]) -> int:
    """Non-advisory operations that failed against the reference: missing
    (raised) or turned from pass to fail."""
    obs = {v.key: v for v in observed}
    bad = 0
    for v in reference:
        if v.advisory:
            continue
        o = obs.get(v.key)
        if o is None or (v.passed and not o.passed):
            bad += 1
    return bad


def margin_digits(reports) -> list[float]:
    """log10(threshold / max residual) of each passing non-advisory report
    with a nonzero residual."""
    return [math.log10(r.threshold / r.max_residual) for r in reports
            if not r.advisory and r.passed and r.max_residual > 0]


# --- the workloads ------------------------------------------------------------

@dataclass
class Outcome:
    """What one pass did, judged against the reference."""

    problems: list[str]
    attempted: int          # non-advisory operations (reports or sweep cells)
    failed: int             # of those: raised, or passed at the reference and fail now
    passed: int             # of those: passed
    margins: list[float]    # margin_digits of the passing ones
    unit_s: list[float]     # time per unit of work: one cell, or one whole pass


class SuiteWorkload:
    """``run_suite`` with its defaults; ``suite-default`` also writes the JSON
    export.  The inputs are fixed, so the seed selects nothing."""

    def __init__(self, wb, name: str, seed: int):
        self.wb = wb
        self.use_oracle = name == "suite-oracle"
        self.export_path = OUT_DIR / "suite-default-export.json" if name == "suite-default" else None
        self.reference = load_suite_reference(name)

    def run(self):
        wb = self.wb
        result = wb.suite.run_suite(use_oracle=self.use_oracle)
        if self.export_path is not None:
            wb.report.export(result, "json", str(self.export_path))
        return result

    def suite_result(self, result):
        return result

    def outcome(self, result, wall: float) -> Outcome:
        if result is None:
            n = sum(not v.advisory for v in self.reference)
            return Outcome(["run_suite raised"], n, n, 0, [], [wall])
        verdicts = verdicts_of(result.reports)
        problems = guard(self.reference, verdicts)
        if self.export_path is not None:
            problems += self._check_export(result)
        nonadv = [r for r in result.reports if not r.advisory]
        return Outcome(problems, len(nonadv),
                       regressions(self.reference, verdicts),
                       sum(r.passed for r in nonadv), margin_digits(result.reports),
                       [wall])

    def _check_export(self, result) -> list[str]:
        with open(self.export_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        s = doc["summary"]
        want = (len(result.reports), result.n_passed, result.ok(), len(result.ledger))
        got = (s["total"], s["passed"], s["ok"], len(doc["ledger"]))
        bad = [] if got == want else [f"export summary {got} differs from the result {want}"]
        rows = [(r["check"], r["pass"]) for r in doc["reports"]]
        if rows != [(r.check_name, r.passed) for r in result.sorted_reports()]:
            bad.append("export reports differ from the result")
        return bad


@dataclass
class SweepPass:
    reports: list
    coeffs: dict
    cell_s: list[float]
    errors: dict


class SweepWorkload:
    """Every (n, k) cell of one seed's sweep: ``coeffs_from_recurrence`` and
    ``verify_identity`` over the seeded x grid.  Nothing from ``ode`` or
    ``oracle`` runs."""

    def __init__(self, wb, name: str, seed: int):
        self.wb = wb
        pool = load_pool()
        self.cells, self.xs = sweep_cells(seed, pool)
        self.reference = sweep_reference(seed, pool)
        self._want_coeffs: dict = {}

    def run(self) -> SweepPass:
        wb = self.wb
        reports, coeffs, cell_s, errors = [], {}, [], {}
        for n, k in self.cells:
            t = time.perf_counter()
            try:
                params = wb.OrderParams(n=n, k=k)
                coeffs[(n, k)] = wb.lambda_poly.coeffs_from_recurrence(params)
                reports.append(wb.suite.verify_identity(params, self.xs))
            except Exception as exc:  # a raising cell is a failed operation
                errors[(n, k)] = f"{type(exc).__name__}: {exc}"
                continue
            cell_s.append(time.perf_counter() - t)
        return SweepPass(reports, coeffs, cell_s, errors)

    def suite_result(self, sp: SweepPass):
        return self.wb.report.VerificationSuiteResult(reports=sp.reports)

    def outcome(self, sp: SweepPass | None, wall: float) -> Outcome:
        if sp is None:
            n = len(self.cells)
            return Outcome(["sweep pass raised"], n, n, 0, [], [])
        verdicts = verdicts_of(sp.reports)
        problems = guard(self.reference, verdicts)
        problems += [f"cell {key} raised {err}" for key, err in sp.errors.items()]
        problems += [f"report {r.check_name} n={r.params.n} k={r.params.k} has grid "
                     f"{r.grid}, not the seeded x grid"
                     for r in sp.reports if tuple(r.grid) != self.xs]
        problems += self._check_coeffs(sp.coeffs)
        return Outcome(problems, len(self.cells),
                       regressions(self.reference, verdicts),
                       sum(r.passed for r in sp.reports), margin_digits(sp.reports),
                       sp.cell_s)

    def _check_coeffs(self, coeffs: dict) -> list[str]:
        """Compare each coefficient vector with the benchmark's own exact
        iteration of the first-order recurrence."""
        bad = []
        for (n, k), cv in coeffs.items():
            want = self._want_coeffs.get((n, k))
            if want is None:
                want = self._want_coeffs[(n, k)] = reference_coeffs(n, k)
            got = list(cv.a)
            if len(got) != len(want) or any(
                    abs(g - w) > COEFF_RTOL * abs(w) for g, w in zip(got, want)):
                bad.append(f"coefficients of n={n} k={k} differ from the exact recurrence")
        return bad


COEFF_RTOL = 1e-13


def reference_coeffs(n: int, k: float) -> list[complex]:
    """a_1..a_{n+1} in exact Gaussian rationals (re, im): a_1 sqrt(pi) =
    (-1)^n (1-ik)_n and m (m - 2ik) a_{m+1} = -(1+2n) a_m - (1-2m) conj(a_m)."""
    kq = Fraction(k)
    re, im = Fraction((-1) ** n), Fraction(0)
    for j in range(n):                      # times (1 + j - ik)
        re, im = re * (1 + j) + im * kq, im * (1 + j) - re * kq
    out = [(re, im)]
    for m in range(1, n + 1):
        # numerator -((1+2n) a + (1-2m) conj(a)), denominator m^2 - 2ikm
        nr, ni = -(2 * n + 2 - 2 * m) * re, -(2 * n + 2 * m) * im
        dr, di = Fraction(m * m), -2 * kq * m
        d2 = dr * dr + di * di
        re, im = (nr * dr + ni * di) / d2, (ni * dr - nr * di) / d2
        out.append((re, im))
    return [complex(float(r), float(i)) / SQRT_PI for r, i in out]


def make_workload(wb, name: str, seed: int):
    cls = SweepWorkload if name == "identity-sweep" else SuiteWorkload
    return cls(wb, name, seed)
