"""Telemetry perf harness: disabled-hook overhead and tracing costs.

The tracing hook (:func:`repro.telemetry.span`) sits permanently inside
the simulator's per-iteration loop, the planner's per-layer loop and the
fleet worker -- every production run pays for it whether or not a tracer
is armed.  This harness prices that tax and the armed paths:

* **span (disabled)** -- ns per ``with span(...)`` with no tracer armed,
  the cost every untraced run pays in its inner loops;
* **span (enabled)** -- ns per completed span with a tracer writing
  flushed JSONL events (the cost of recording a trace);
* **counter inc** -- ns per :meth:`Counter.inc` on the metrics registry
  (the cost of the absorbed subsystem counters);
* **histogram observe** -- ns per :meth:`Histogram.observe`;
* **render** -- ms to render the process-global registry as Prometheus
  text (the ``GET /metrics`` response cost).

Records to ``BENCH_telemetry.json`` at the repository root and asserts
one gate: the disabled span under ``DISABLED_NS_CEILING`` ns/call.

Usage::

    python benchmarks/bench_telemetry.py             # full record
    python benchmarks/bench_telemetry.py --quick     # CI smoke

Exits non-zero when the gate is missed.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from _harness import Gate, run

import repro.cli  # noqa: F401  (imports every instrumented subsystem, so
#                                the registry holds the full series
#                                catalogue the render measurement prices)
from repro.telemetry.metrics import REGISTRY, Counter, Histogram
from repro.telemetry.trace import Tracer, install, span, uninstall

#: The disabled hook is one global load plus a no-op context manager;
#: anything over ~2 microseconds would tax the simulator's inner loop.
DISABLED_NS_CEILING = 2_000.0


def measure_span_disabled(calls: int) -> float:
    """ns per ``with span(...)`` with no tracer armed (production cost)."""
    uninstall()
    start = time.perf_counter()
    for _ in range(calls):
        with span("sim.decide"):
            pass
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / calls


def measure_span_enabled(calls: int) -> float:
    """ns per completed span with a tracer flushing JSONL events."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-telemetry-"))
    install(Tracer(workdir, scope="bench"))
    try:
        start = time.perf_counter()
        for _ in range(calls):
            with span("sim.decide"):
                pass
        elapsed = time.perf_counter() - start
    finally:
        uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed * 1e9 / calls


def measure_counter_inc(calls: int) -> float:
    """ns per Counter.inc on an unlabeled series."""
    metric = Counter("bench_total")
    start = time.perf_counter()
    for _ in range(calls):
        metric.inc()
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / calls


def measure_histogram_observe(calls: int) -> float:
    """ns per Histogram.observe with the default bucket layout."""
    metric = Histogram("bench_seconds")
    start = time.perf_counter()
    for _ in range(calls):
        metric.observe(0.003)
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / calls


def measure_render(repeats: int) -> float:
    """ms per Prometheus render of the process-global registry."""
    start = time.perf_counter()
    for _ in range(repeats):
        REGISTRY.render_prometheus()
    elapsed = time.perf_counter() - start
    return elapsed * 1e3 / repeats


def measure(quick: bool):
    hook_calls = 200_000 if quick else 1_000_000
    traced_calls = 20_000 if quick else 100_000
    render_repeats = 200 if quick else 1_000
    config = {"hook_calls": hook_calls, "traced_calls": traced_calls,
              "render_repeats": render_repeats}
    metrics = {
        "span_disabled_ns": measure_span_disabled(hook_calls),
        "span_enabled_ns": measure_span_enabled(traced_calls),
        "counter_inc_ns": measure_counter_inc(hook_calls),
        "histogram_observe_ns": measure_histogram_observe(traced_calls),
        "render_prometheus_ms": measure_render(render_repeats),
        "registered_series": len(REGISTRY.names()),
    }
    return config, metrics, [
        Gate("span_disabled_ns", "<=", DISABLED_NS_CEILING)]


if __name__ == "__main__":
    raise SystemExit(run("telemetry", measure))
