"""Scenario execution benchmark: sequential vs parallel multi-system runs.

Times an 8-system comparison (every paper system plus the oracle) over one
streaming scenario source, executed sequentially and then in parallel worker
processes, and records the wall-clocks to ``BENCH_scenarios.json`` at the
repository root -- the baseline for tracking the comparison engine's
throughput across PRs.  The parallel path must reproduce the sequential
numbers exactly (each system consumes its own deterministic source fork),
graded as the record's one gate; the speedup itself depends on the host's
core count, so it is recorded but not asserted.
"""

from __future__ import annotations

import os
import time

from repro.analysis.reporting import format_table, print_report
from repro.sim.engine import compare_systems_detailed
from repro.sim.systems import make_system
from repro.workloads.model_configs import get_model_config
from repro.workloads.scenarios import ScenarioContext, make_scenario

from _harness import Gate, failed_gates, write_record
from conftest import BENCH_WARMUP, TOKENS_PER_DEVICE

#: All eight systems of the paper's comparison (baselines + LAER + oracle).
SYSTEMS = ("megatron", "fsdp_ep", "fastermoe", "smartmoe", "prophet",
           "flexmoe", "laer", "oracle")
SCENARIO = "bursty-churn"
ITERATIONS = 6


def _build(paper_cluster):
    config = get_model_config("mixtral-8x7b-e8k2")
    context = ScenarioContext(
        num_devices=paper_cluster.num_devices,
        num_experts=config.num_experts,
        num_layers=2,
        tokens_per_device=TOKENS_PER_DEVICE,
        top_k=config.top_k,
        iterations=ITERATIONS + BENCH_WARMUP,
        seed=303,
    )
    source = make_scenario(SCENARIO, context)
    systems = [make_system(name, config, paper_cluster, TOKENS_PER_DEVICE)
               for name in SYSTEMS]
    return systems, source


def _timed_compare(paper_cluster, parallel):
    systems, source = _build(paper_cluster)
    start = time.perf_counter()
    runs, mode = compare_systems_detailed(systems, source, warmup=BENCH_WARMUP,
                                          parallel=parallel)
    elapsed = time.perf_counter() - start
    return elapsed, {name: runs[name].throughput for name in SYSTEMS}, mode


def test_bench_scenarios_sequential_vs_parallel(benchmark, paper_cluster):
    sequential_s, sequential, _ = benchmark.pedantic(
        _timed_compare, args=(paper_cluster, False), rounds=1, iterations=1)
    parallel_s, parallel, parallel_mode = _timed_compare(paper_cluster, True)

    config = {"scenario": SCENARIO, "systems": list(SYSTEMS),
              "iterations": ITERATIONS, "warmup": BENCH_WARMUP,
              "num_devices": paper_cluster.num_devices}
    metrics = {
        "sequential_s": sequential_s,
        "parallel_s": parallel_s,
        "parallel_speedup": sequential_s / parallel_s,
        # On small hosts the engine demotes the parallel request
        # (sequential-auto), in which case the "parallel" wall-clock above
        # is really a second sequential run -- record what actually ran.
        "parallel_mode": parallel_mode,
        # Parallel execution must not change a single reported number.
        "parallel_equals_sequential": parallel == sequential,
    }
    record = write_record("scenarios", False, config, metrics, [
        Gate("parallel_equals_sequential", "==", True)])
    assert not failed_gates(record)

    rows = [{"mode": "sequential", "wall_clock_s": sequential_s},
            {"mode": "parallel", "wall_clock_s": parallel_s}]
    print_report(
        format_table(rows, title=f"8-system comparison wall-clock "
                                 f"({SCENARIO}, {os.cpu_count()} CPUs)"),
        f"parallel speedup {metrics['parallel_speedup']:.3f}x, "
        f"mode {parallel_mode}")

    # Sanity: the comparison itself produced meaningful results.
    assert all(value > 0 for value in sequential.values())
    assert sequential["laer"] > sequential["fsdp_ep"]
