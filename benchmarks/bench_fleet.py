"""Fleet perf harness: sequential study execution vs a multi-process fleet.

Runs the same >= 8-cell study twice into fresh stores -- once through the
in-process :class:`repro.study.StudyRunner` forced sequential, once through
:func:`repro.fleet.launch_fleet` with ``WORKERS`` worker processes -- and
records both wall-clocks plus the speedup to ``BENCH_fleet.json`` at the
repository root.  The two stores must agree run-for-run (same content-hashed
run ids, identical stored metrics), which the harness asserts: the fleet is
a faster transport for the *same* results, never a different experiment.

The wall-clock floor (fleet must beat sequential) is only asserted on hosts
with at least 4 usable CPUs: on 1-2 CPU runners the worker processes share
one core and the comparison measures the scheduler, not the fleet.

Usage::

    python benchmarks/bench_fleet.py             # 8 cells, 2 workers
    python benchmarks/bench_fleet.py --quick     # CI smoke (4 cells)

Exits non-zero when the stores disagree, or when the fleet loses on a
capable host.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from _harness import Gate, host, run

from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.fleet import launch_fleet
from repro.store import ResultStore
from repro.study import StudyAxes, StudyRunner, StudySpec

#: Below this many usable CPUs the wall-clock floor is informational only.
MIN_CPUS_FOR_FLOOR = 4
#: Worker processes in the fleet arm.
WORKERS = 2


def fleet_study(quick: bool) -> StudySpec:
    """systems x cluster-sizes grid: 8 one-system cells (4 when quick).

    Cells are deliberately heavy enough (multi-node clusters, 4 trace
    layers, tens of iterations) that worker-process startup is amortized --
    a fleet of near-instant cells measures ``fork``/``spawn``, not the
    queue.
    """
    base = ExperimentSpec(
        name="bench",
        cluster=ClusterSpec(num_nodes=2, devices_per_node=8),
        workload=WorkloadSpec(tokens_per_device=8192, layers=4,
                              iterations=16 if quick else 32, warmup=2,
                              seed=23),
        systems=("laer",),
        reference="laer",
    )
    systems = ((("fsdp_ep",), ("laer",)) if quick
               else (("fsdp_ep",), ("laer",), ("fastermoe",), ("smartmoe",)))
    return StudySpec(name="bench-fleet", base=base,
                     axes=StudyAxes(systems=systems, cluster_sizes=(2, 4)))


def run_sequential(study: StudySpec, root: Path) -> float:
    store = ResultStore(root)
    start = time.perf_counter()
    report = StudyRunner(store, parallel=False).run(study)
    elapsed = time.perf_counter() - start
    assert len(report.executed) == study.num_cells
    return elapsed


def run_fleet(study: StudySpec, root: Path, workers: int) -> float:
    store = ResultStore(root)
    start = time.perf_counter()
    report = launch_fleet(study, store, workers=workers, poll_interval=0.05)
    elapsed = time.perf_counter() - start
    assert len(report.executed) == study.num_cells
    return elapsed


def stores_agree(root_a: Path, root_b: Path) -> bool:
    """Same run ids, and bit-identical stored results for each."""
    store_a, store_b = ResultStore(root_a), ResultStore(root_b)
    if store_a.run_ids() != store_b.run_ids():
        return False
    for run_id in store_a.run_ids():
        if store_a.get_result(run_id).to_dict() \
                != store_b.get_result(run_id).to_dict():
            return False
    return True


def measure(quick: bool):
    study = fleet_study(quick)
    workdir = Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    try:
        sequential_s = run_sequential(study, workdir / "sequential")
        fleet_s = run_fleet(study, workdir / "fleet", WORKERS)
        agree = stores_agree(workdir / "sequential", workdir / "fleet")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    config = {"cells": study.num_cells, "workers": WORKERS}
    metrics = {
        "sequential_s": sequential_s,
        "fleet_s": fleet_s,
        "speedup": sequential_s / fleet_s if fleet_s > 0 else float("inf"),
        "stores_agree": agree,
    }
    capable = host()["usable_cpus"] >= MIN_CPUS_FOR_FLOOR
    return config, metrics, [
        Gate("stores_agree", "==", True),
        Gate("speedup", ">", 1.0, asserted=capable)]


if __name__ == "__main__":
    raise SystemExit(run("fleet", measure))
