"""In-memory span tracing of wbident from outside its source.

The tracer replaces public names in the modules that look them up at call
time (``wbident.suite.verify_identity``, ``wbident.ode.whittaker_w``, ...)
with wrappers that record one span per call: id, name, start, end, parent
span id, thread id and benchmark pass.  Span names carry the module that
defines the function, so ``wbident.suite.bessel_k_quad`` and
``wbident.ode.bessel_k_quad`` both record ``kernels.bessel_k_quad``.

Names that no longer exist are listed in ``Tracer.missing`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# consumer module -> names it looks up at call time
TRACED = {
    "wbident.suite": (
        "kernel_cross_reports", "coefficient_reports", "coupled_residual",
        "check_second_order", "verify_identity", "oracle_equivalence_report",
        "product_solution_check", "trial_condition_check", "indicial_reports",
        "lambda_reconstruction", "resolve_constants", "constants_printed_system",
        "collocation_oracle", "coeffs_from_recurrence", "bessel_k_quad",
        "bessel_k_via_w", "whittaker_w"),
    "wbident.ode": (
        "bessel_k_quad", "bessel_i", "whittaker_w", "whittaker_m",
        "coeffs_from_recurrence", "solution_constants"),
    "wbident.lambda_poly": ("bessel_k_quad", "whittaker_w", "coeffs_from_recurrence"),
    "wbident.oracle": ("collocation_fit",),
}

# run_suite stages, by the top-level calls run_suite makes in each
STAGES = {
    "kernel_cross": ("suite.kernel_cross_reports",),
    "cells": ("suite.coefficient_reports", "ode.coupled_residual",
              "lambda_poly.check_second_order", "suite.verify_identity"),
    "oracle_eq": ("suite.oracle_equivalence_report",),
    "ode4": ("ode.product_solution_check", "ode.trial_condition_check"),
    "indicial": ("ode.indicial_reports",),
    "constants_recon": ("ode.lambda_reconstruction", "ode.resolve_constants",
                        "ode.constants_printed_system"),
}

PASS_SPAN = "bench.pass"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.pass_no = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident(), self.pass_no))
        return traced

    def __enter__(self):
        self.missing = []
        for modname, names in TRACED.items():
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, f"{layer}.{attr}"))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def run_pass(self, fn):
        """Run one benchmark pass under a root span."""
        self.pass_no += 1
        return self._wrap(fn, PASS_SPAN)()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "thread", "pass"), s))) + "\n")


def pass_stats(spans) -> dict:
    """Per-name call count, inclusive busy time and self time, plus the
    run_suite stage spans, of the spans of one pass."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    root = None
    for sid, name, t0, t1, parent, _, _ in spans:
        calls[name] += 1
        busy[name] += t1 - t0
        if parent is not None:
            child[parent] += t1 - t0
        if name == PASS_SPAN:
            root = sid
    selft: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, *_ in spans:
        selft[name] += (t1 - t0) - child[sid]

    stage_of = {name: stage for stage, names in STAGES.items() for name in names}
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    stage_busy: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, parent, _, _ in spans:
        stage = stage_of.get(name)
        # top level: called by the pass itself, or by a pool thread of run_suite
        if stage is None or (parent is not None and parent != root):
            continue
        first[stage] = min(first.get(stage, t0), t0)
        last[stage] = max(last.get(stage, t1), t1)
        stage_busy[stage] += t1 - t0
    stages = {s: last[s] - first[s] for s in first}
    return {"calls": dict(calls), "busy": dict(busy), "self": dict(selft),
            "stages": stages, "stage_busy": dict(stage_busy)}
