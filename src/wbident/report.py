"""Residual reports, the residual rule, and deterministic JSON/CSV export.

A relation whose terms must cancel is checked by one rule,
`relative_residual`: |sum of the terms| / max |term|, with 0.0 when every
term vanishes.  Comparisons of two values and realness checks keep their own
scales.

All numbers are printed with 17 significant digits and all JSON keys are
sorted, so two runs over the same inputs produce byte-identical documents
(nothing time- or environment-dependent goes into the data section).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InputError
from .kernels import OrderParams

# Checks that verify a formula suspected of misprint: their failure is
# recorded in the discrepancy ledger instead of failing the suite.  This
# table is the single source of the advisory/load-bearing classification.
ADVISORY_CHECKS = {
    "second-order-recurrence-printed":
        "five-factor recurrence as historically printed; superseded by the "
        "re-derived form",
    "indicial-printed-quadratic":
        "printed quadratic factor of the indicial equation; conflicts with "
        "the exponent set implied by the solution basis",
    "ode4-basis-printed":
        "fourth-order ODE with the printed a3 constant term; superseded by "
        "the re-derived coefficient",
    "constants-printed-closed-form":
        "printed closed-form expressions for c2, c3, c4",
    "constants-printed-system":
        "printed trio of linear relations for c2, c3, c4; only the second holds",
    "reconstruction-printed-constants":
        "product-basis reconstruction using the printed-system constants",
}


def relative_residual(terms) -> float:
    """|sum(terms)| / max |t| of terms that must cancel; 0.0 when every term
    vanishes.  Each term is divided by the largest modulus before summing, so
    nothing overflows; InputError when that modulus is not finite."""
    terms = list(terms)
    mods = [math.hypot(t.real, t.imag) for t in terms]
    top = max(mods)
    if not all(m < math.inf for m in mods):
        raise InputError("residual terms exceed the double range")
    if top == 0.0:
        return 0.0
    return float(abs(sum(t / top for t in terms)))


# shared by the grids of reports over an index (a suite keeps hundreds of
# them); n <= 25 keeps every index below 32
_INDICES = tuple(map(float, range(32)))


def index_grid(start: int, stop: int) -> list[float]:
    """[start, ..., stop - 1] as floats, the grid of a report over an index."""
    return list(_INDICES[start:stop])


@dataclass(slots=True)
class ResidualReport:
    """Grid of evaluation points with per-point relative residuals.

    `passed` is derived: max(residuals) <= threshold (an empty grid counts
    as passing).  Advisory reports never fail a suite; their outcome goes to
    the discrepancy ledger instead.
    """

    check_name: str
    params: OrderParams | None
    grid: list[float]
    residuals: list[float]
    threshold: float
    advisory: bool | None = None
    notes: list[str] | tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.grid) != len(self.residuals):
            raise ValueError("grid and residuals must have equal length")
        if any(r < 0 or math.isnan(r) for r in self.residuals):
            raise ValueError("residuals must be nonnegative")
        if self.advisory is None:
            self.advisory = self.check_name in ADVISORY_CHECKS

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def sort_key(self) -> tuple:
        p = self.params
        return (self.check_name, p.n if p else -1, p.k if p else 0.0)

    def as_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "params": ({"n": self.params.n, "k": self.params.k}
                       if self.params else None),
            "grid": list(self.grid),
            "residuals": list(self.residuals),
            "threshold": self.threshold,
            "pass": self.passed,
            "advisory": self.advisory,
            "notes": list(self.notes),
        }


@dataclass
class VerificationSuiteResult:
    reports: list[ResidualReport]
    ledger: list[str] = field(default_factory=list)

    def sorted_reports(self) -> list[ResidualReport]:
        return sorted(self.reports, key=lambda r: r.sort_key())

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.reports if r.passed)

    @property
    def n_failed(self) -> int:
        return len(self.reports) - self.n_passed

    def ok(self) -> bool:
        """True iff every non-advisory report passed."""
        return all(r.passed for r in self.reports if not r.advisory)

    def as_json_dict(self) -> dict:
        failed_nonadvisory = [r.check_name for r in self.sorted_reports()
                              if not r.passed and not r.advisory]
        return {
            "reports": [r.as_json_dict() for r in self.sorted_reports()],
            "summary": {
                "total": len(self.reports),
                "passed": self.n_passed,
                "failed": self.n_failed,
                "failed_non_advisory": failed_nonadvisory,
                "ok": self.ok(),
            },
            "ledger": list(self.ledger),
        }


# --- canonical serialization -------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag])
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f'{canonical_json(str(k))}:{canonical_json(v)}'
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


CSV_HEADER = "check,n,k,x,residual,threshold,pass"


def reports_to_csv(reports: list[ResidualReport]) -> str:
    """One row per grid point: check,n,k,x,residual,threshold,pass."""
    lines = [CSV_HEADER]
    for r in sorted(reports, key=lambda r: r.sort_key()):
        n = r.params.n if r.params else ""
        k = _fmt_float(r.params.k) if r.params else ""
        for x, res in zip(r.grid, r.residuals):
            lines.append(
                f"{r.check_name},{n},{k},{_fmt_float(x)},"
                f"{_fmt_float(res)},{_fmt_float(r.threshold)},{r.passed}")
    return "\n".join(lines) + "\n"


def export(report_set, fmt: str, path: str) -> None:
    """Write a report, list of reports, or suite result to JSON or CSV."""
    if isinstance(report_set, ResidualReport):
        reports = [report_set]
        doc = report_set.as_json_dict()
    elif isinstance(report_set, VerificationSuiteResult):
        reports = report_set.reports
        doc = report_set.as_json_dict()
    else:
        reports = list(report_set)
        doc = [r.as_json_dict() for r in sorted(reports, key=lambda r: r.sort_key())]

    if fmt == "json":
        text = canonical_json(doc) + "\n"
    elif fmt == "csv":
        text = reports_to_csv(reports)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
