"""Chaos-subsystem perf harness: injection overhead and plan wall time.

The fault-injection hooks in :func:`repro.chaos.inject` sit on the store,
queue, and worker hot paths permanently -- production runs pay for them on
every journal append and lease claim whether or not a plan is armed.  This
harness prices that tax and the chaos plans themselves:

* **inject (disarmed)** -- ns/call of the module-level hook with no
  injector installed, the cost every non-chaos run pays;
* **inject (armed, miss)** -- ns/call with a plan installed whose faults
  target a *different* point, the cost of running under an armed injector;
* **retry (success)** -- overhead of routing a call through
  :meth:`repro.chaos.RetryPolicy.call` when the first attempt succeeds;
* **worker-crash plan** -- wall time of the full ``worker-crash`` chaos
  plan (fleet + SIGKILL + invariant sweep), plus the kill and invariant
  outcome it graded.

Records to ``BENCH_chaos.json`` at the repository root and asserts two
gates: the disarmed hook under ``DISARMED_NS_CEILING`` ns/call, and the
worker-crash plan passing its own invariants with at least
``repro.chaos.plans.MIN_KILLED_POINTS`` distinct kill points.

Usage::

    python benchmarks/bench_chaos.py             # full record
    python benchmarks/bench_chaos.py --quick     # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from _harness import Gate, run

from repro.chaos import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    inject,
    install,
    run_chaos,
    uninstall,
)

#: The disarmed hook is one global load and a truthiness test; anything
#: over a microsecond would mean the instrumentation taxes real runs.
DISARMED_NS_CEILING = 1_000.0


def measure_inject_disarmed(calls: int) -> float:
    """ns/call of the hook with no injector installed (production cost)."""
    uninstall()
    start = time.perf_counter()
    for _ in range(calls):
        inject("store.pre-run-file")
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / calls


def measure_inject_armed_miss(calls: int) -> float:
    """ns/call with an armed injector whose faults target another point."""
    plan = FaultPlan(name="bench", seed=0, faults=(
        FaultSpec(point="serve.client-request", kind="drop", at=10 ** 9),))
    install(FaultInjector(plan))
    try:
        start = time.perf_counter()
        for _ in range(calls):
            inject("store.pre-run-file")
        elapsed = time.perf_counter() - start
    finally:
        uninstall()
    return elapsed * 1e9 / calls


def measure_retry_success(calls: int) -> float:
    """ns/call overhead of RetryPolicy.call around an instant success."""
    policy = RetryPolicy(retries=3, base_delay_s=0.01, seed=0)
    start = time.perf_counter()
    for _ in range(calls):
        policy.call(lambda: None)
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / calls


def measure_worker_crash(quick: bool) -> dict:
    """Wall time and grading of the full worker-crash chaos plan."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-chaos-"))
    try:
        report = run_chaos("worker-crash", workdir / "store", seed=0,
                           quick=quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    killed = sorted({round_["point"] for round_ in report.rounds
                     if round_.get("kills")})
    return {
        "wall_s": round(report.elapsed_s, 3),
        "rounds": len(report.rounds),
        "killed_points": len(killed),
        "invariants_ok": report.invariants.ok,
        "ok": report.ok,
        "checks": len(report.invariants.checks),
        "digest": report.digest,
    }


def measure(quick: bool):
    hook_calls = 200_000 if quick else 1_000_000
    retry_calls = 20_000 if quick else 100_000
    config = {"hook_calls": hook_calls, "retry_calls": retry_calls}
    metrics = {
        "inject_disarmed_ns": measure_inject_disarmed(hook_calls),
        "inject_armed_miss_ns": measure_inject_armed_miss(hook_calls),
        "retry_success_ns": measure_retry_success(retry_calls),
        "worker_crash": measure_worker_crash(quick),
    }
    return config, metrics, [
        Gate("inject_disarmed_ns", "<=", DISARMED_NS_CEILING),
        Gate("worker_crash.ok", "==", True)]


if __name__ == "__main__":
    raise SystemExit(run("chaos", measure))
