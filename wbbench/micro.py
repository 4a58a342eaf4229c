"""Fixed-point microbenchmarks: time per call of each layer's public
functions at fixed reference points, so that a layer a workload barely
touches still has a number.  Each function is warmed up, then timed in
batches; the result is the median over batches of time per call."""

from __future__ import annotations

import statistics
import time

# reference points: n = 4, k = 1 (x = 2, so the Whittaker argument 2x = 4)
N_REF, K_REF, X_REF = 4, 1.0, 2.0
K_COEFFS = 1.3      # a k whose exact rational has a full 52-bit denominator


def per_call(fn, budget: float = 0.25, batches: int = 5) -> float:
    """Median seconds per call of fn() over `batches` batches sized so that
    together they take about `budget` seconds."""
    t = time.perf_counter()
    fn()                                  # warm-up, also sizes the batches
    one = max(time.perf_counter() - t, 1e-7)
    size = max(1, int(budget / batches / one))
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(size):
            fn()
        samples.append((time.perf_counter() - t) / size)
    return statistics.median(samples)


def layer_microbenchmarks(wb) -> dict[str, float]:
    from wbident import core, kernels, lambda_poly, ode, oracle

    n, k, x = N_REF, K_REF, X_REF
    kappa, mu, nu = n + 0.5, 1j * k, complex(0.5, k)
    us, ms = 1e6, 1e3
    out = {
        "kernels.whittaker_w.us": us * per_call(lambda: kernels.whittaker_w(kappa, mu, 2 * x)),
        "kernels.whittaker_m.us": us * per_call(lambda: kernels.whittaker_m(kappa, mu, 2 * x)),
        "kernels.kummer_m.us": us * per_call(
            lambda: kernels.kummer_m(0.5 + mu - kappa, 1 + 2 * mu, 2 * x)),
        "kernels.bessel_i.us": us * per_call(lambda: kernels.bessel_i(complex(-0.5, k), x)),
        "kernels.bessel_k_quad.us": us * per_call(lambda: kernels.bessel_k_quad(nu, x)),
        "kernels.bessel_k_via_w.us": us * per_call(lambda: kernels.bessel_k_via_w(nu, x)),
        "core.log_gamma.us": us * per_call(lambda: core.log_gamma(nu), budget=0.1),
        "lambda_poly.coeffs_n8.us": us * per_call(
            lambda: lambda_poly.coeffs_from_recurrence(wb.OrderParams(n=8, k=K_COEFFS))),
        "lambda_poly.coeffs_n25.us": us * per_call(
            lambda: lambda_poly.coeffs_from_recurrence(wb.OrderParams(n=25, k=K_COEFFS))),
        "oracle.bessel_k.ms": ms * per_call(lambda: oracle.bessel_k(nu, x), budget=0.3),
        "oracle.whittaker_w.ms": ms * per_call(lambda: oracle.whittaker_w(kappa, mu, 2 * x),
                                               budget=0.3),
        "ode.product_solution_check.ms": ms * per_call(
            lambda: ode.product_solution_check(wb.OrderParams(n=n, k=k)), budget=0.5,
            batches=3),
    }
    params8 = wb.OrderParams(n=8, k=k)
    xs8 = lambda_poly.default_collocation_points(8)
    out["oracle.collocation_fit_n8.s"] = per_call(
        lambda: oracle.collocation_fit(params8, xs8), budget=0.0, batches=3)
    return out


def export_microbenchmarks(result, out_dir) -> dict[str, float]:
    """Time the JSON and CSV export of a suite result."""
    from wbident import report

    return {
        f"report.export_{fmt}_ms": 1e3 * per_call(
            lambda fmt=fmt: report.export(result, fmt, str(out_dir / f"export.{fmt}")),
            budget=0.2)
        for fmt in ("json", "csv")
    }
