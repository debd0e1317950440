"""Kernel perf-regression harness: scalar vs vectorized simulation kernels.

Times the simulator's hot kernels -- trace generation, ``all_to_all``, lite
routing, the layout tuner's batched candidate evaluation and a full
single-system ``run_experiment`` on the profiled configuration (64 devices,
8 MoE layers, 10 iterations) -- against verbatim ports of the
pre-vectorization scalar loops, and records the wall-clocks and speedups to
``BENCH_perf.json`` at the repository root so future changes have a perf
trajectory to compare against.

The scalar "before" numbers are measured in the same process by temporarily
patching the scalar kernels back in everywhere they are bound, so before and
after always come from the same host and the speedups are honest.  The
``run_experiment`` row keeps the vectorized routing draw in both arms, so
both simulate the same trace and must report identical results; the
``trace_generation`` row times the scalar draw on its own.

``tuner_batch_eval`` times candidate evaluation -- batched
(``lite_route_batch`` + ``MoECostModel.evaluate_batch``) against the
per-candidate loop of ``lite_route`` + ``evaluate`` calls -- on the shape
the batched path is built for (a small cluster with a large candidate set,
where Python loop overhead rather than the argsort kernel dominates).  The
batched results must be *bit-identical* to the ``repro.scalar_reference``
oracles (``scalar_lite_route`` + ``scalar_evaluate``).

``lite_route_batch`` records the absolute seconds of one node-blocked
``lite_route_batch`` call at Fig. 11's largest shape (N=1024, C=8, the
tuner's default candidate layouts), after asserting it equals the stacked
``scalar_lite_route`` calls; its ceiling is recorded but not asserted.

``baselines_run_experiment`` records the absolute seconds (best of
``repeats``) of one ``run_experiment`` of the six baseline systems on the
profiled configuration: the frame-step dispatch and simulator path, which
the LAER row barely exercises.

Usage::

    python benchmarks/bench_perf.py            # full config, asserts floors
    python benchmarks/bench_perf.py --quick    # CI smoke (smaller, faster)

Exits non-zero when a speedup floor regresses.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import List

from _harness import Gate, best_of, run

import numpy as np

import repro.core.relocation as relocation_mod
import repro.workloads.routing_traces as traces_mod
from repro.api.runner import run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout import static_ep_layout
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import lite_route, lite_route_batch
from repro.core.relocation import relocate_experts
from repro.scalar_reference import (
    scalar_all_to_all,
    scalar_draw_routing_frame,
    scalar_evaluate,
    scalar_lite_route,
    scalar_select_device,
)
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import (
    RoutingTraceConfig,
    SyntheticRoutingTraceGenerator,
)

#: The profiled configuration from the issue: 64 devices, 8 layers, 10 iters.
NUM_NODES = 8
DEVICES_PER_NODE = 8
NUM_LAYERS = 8
ITERATIONS = 10
TOKENS_PER_DEVICE = 16384

#: Acceptance floors: >=5x end-to-end, >=10x all_to_all at n=64, and >=2x
#: for batched over per-candidate tuner evaluation.
END_TO_END_FLOOR = 5.0
ALL_TO_ALL_FLOOR = 10.0
TUNER_BATCH_FLOOR = 2.0

#: The batched-tuner shape: few devices (argsort stays cheap) and a large
#: candidate set (the per-candidate Python overhead being amortised).
TUNER_NUM_NODES = 2
TUNER_DEVICES_PER_NODE = 4
TUNER_CANDIDATES = 16

#: The systems of the ``baselines_run_experiment`` row.
BASELINE_SYSTEMS = ("megatron", "fsdp_ep", "fastermoe", "smartmoe", "prophet",
                    "flexmoe")

#: Fig. 11's largest planner shape for the absolute-seconds
#: ``lite_route_batch`` row (the tuner's default candidates), and its
#: unasserted ceiling.
BATCH_NUM_DEVICES = 1024
BATCH_CAPACITY = 8
BATCH_CEILING_S = 0.1


# ----------------------------------------------------------------------
# Patch the scalar kernels back in, everywhere each name is bound
# ----------------------------------------------------------------------
@contextmanager
def swapped(*swaps):
    """Rebind each ``(name, original, replacement)`` wherever ``original``
    is bound (every imported module, and ``CollectiveCostModel``), then
    restore."""
    holders = [*sys.modules.values(), CollectiveCostModel]
    rebound = []
    for name, original, replacement in swaps:
        for holder in holders:
            if holder is not None and getattr(holder, name, None) is original:
                setattr(holder, name, replacement)
                rebound.append((holder, name, original))
    try:
        yield
    finally:
        for holder, name, original in rebound:
            setattr(holder, name, original)


def stacked_scalar_lite_route(routing, layouts, topology) -> np.ndarray:
    """``lite_route_batch`` as a stack of per-layout scalar oracle calls:
    row ``m`` of an ``(M, N, E)`` routing (or the shared ``(N, E)`` routing)
    under ``layouts[m]``."""
    routing = np.asarray(routing)
    rows = routing if routing.ndim == 3 else [routing] * len(layouts)
    return np.stack([scalar_lite_route(row, layout, topology)
                     for row, layout in zip(rows, layouts)])


def scalar_planner_kernels():
    """Every planner and simulator kernel swapped for its scalar reference.

    The routing draw is left vectorized, so a run under this context
    simulates the same trace as a run without it.
    """
    return swapped(
        ("all_to_all", CollectiveCostModel.all_to_all, scalar_all_to_all),
        ("lite_route", lite_route, scalar_lite_route),
        ("lite_route_batch", lite_route_batch, stacked_scalar_lite_route),
        ("_select_device", relocation_mod._select_device,
         scalar_select_device))


# ----------------------------------------------------------------------
# Timed workloads
# ----------------------------------------------------------------------
def bench_all_to_all(topology: ClusterTopology, repeats: int) -> dict:
    model = CollectiveCostModel(topology)
    n = topology.num_devices
    rng = np.random.default_rng(7)
    traffic = rng.uniform(0.0, 1e8, size=(n, n))
    np.fill_diagonal(traffic, 0.0)
    vec = model.all_to_all(traffic)
    ref = scalar_all_to_all(model, traffic, list(range(n)))
    assert abs(vec - ref) <= 1e-9 * max(abs(vec), abs(ref)), \
        "vectorized all_to_all diverged from the scalar reference"
    vectorized_s = best_of(lambda: model.all_to_all(traffic), repeats * 20)
    scalar_s = best_of(
        lambda: scalar_all_to_all(model, traffic, list(range(n))), repeats)
    return {"n": n, "scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s}


def bench_trace_generation(iterations: int, repeats: int) -> dict:
    config = RoutingTraceConfig(
        num_devices=NUM_NODES * DEVICES_PER_NODE, num_experts=8,
        num_layers=NUM_LAYERS, tokens_per_device=TOKENS_PER_DEVICE,
        top_k=2, seed=17)

    def generate():
        return SyntheticRoutingTraceGenerator(config).generate(iterations)

    vectorized_s = best_of(generate, repeats * 3)
    with swapped(("draw_routing_frame", traces_mod.draw_routing_frame,
                  scalar_draw_routing_frame)):
        scalar_s = best_of(generate, repeats)
    return {"iterations": iterations, "scalar_s": scalar_s,
            "vectorized_s": vectorized_s, "speedup": scalar_s / vectorized_s}


def bench_lite_route(topology: ClusterTopology, repeats: int) -> dict:
    n = topology.num_devices
    rng = np.random.default_rng(23)
    routing = rng.integers(0, 2 * TOKENS_PER_DEVICE // 8, size=(n, 8))
    layout = static_ep_layout(n, 8, 2)
    assert np.array_equal(lite_route(routing, layout, topology),
                          scalar_lite_route(routing, layout, topology))
    vectorized_s = best_of(
        lambda: lite_route(routing, layout, topology), repeats * 10)
    scalar_s = best_of(
        lambda: scalar_lite_route(routing, layout, topology), repeats)
    return {"n": n, "scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s}


def bench_lite_route_batch(repeats: int) -> dict:
    """Absolute seconds of one tuner-sized ``lite_route_batch`` call at
    Fig. 11's largest shape, against the stacked scalar oracle."""
    topology = ClusterTopology.homogeneous(BATCH_NUM_DEVICES, DEVICES_PER_NODE)
    model_config = get_model_config("mixtral-8x7b-e8k2")
    tuner = ExpertLayoutTuner(
        topology, MoECostModel.from_model_config(model_config, topology),
        capacity=BATCH_CAPACITY)
    num_experts = model_config.num_experts
    routing = np.random.default_rng(29).integers(
        0, 2 * TOKENS_PER_DEVICE // num_experts,
        size=(BATCH_NUM_DEVICES, num_experts))
    loads = routing.sum(axis=0)
    layouts = [relocate_experts(replicas, loads, topology, BATCH_CAPACITY)
               for replicas in tuner.candidate_replica_schemes(
                   loads, num_experts)]
    assert np.array_equal(
        lite_route_batch(routing, layouts, topology),
        stacked_scalar_lite_route(routing, layouts, topology)), \
        "node-blocked lite_route_batch diverged from the scalar reference"
    batched_s = best_of(
        lambda: lite_route_batch(routing, layouts, topology), repeats * 5)
    scalar_s = best_of(
        lambda: stacked_scalar_lite_route(routing, layouts, topology),
        repeats)
    return {"n": BATCH_NUM_DEVICES, "capacity": BATCH_CAPACITY,
            "candidates": len(layouts), "scalar_s": scalar_s,
            "batched_s": batched_s, "speedup": scalar_s / batched_s}


def profiled_spec(iterations: int, systems=("laer",)) -> ExperimentSpec:
    """The profiled configuration, simulating ``systems``."""
    return ExperimentSpec(
        name="bench-perf",
        cluster=ClusterSpec(num_nodes=NUM_NODES,
                            devices_per_node=DEVICES_PER_NODE),
        workload=WorkloadSpec(model="mixtral-8x7b-e8k2", layers=NUM_LAYERS,
                              tokens_per_device=TOKENS_PER_DEVICE,
                              iterations=iterations),
        systems=tuple(SystemSpec(name=name) for name in systems),
    )


def bench_end_to_end(iterations: int) -> dict:
    spec = profiled_spec(iterations)

    def simulate():
        return run_experiment(spec, parallel=False)

    simulate()  # warm caches/imports before timing either path
    start = time.perf_counter()
    vectorized = simulate()
    vectorized_s = time.perf_counter() - start
    with scalar_planner_kernels():
        start = time.perf_counter()
        scalar = simulate()
        scalar_s = time.perf_counter() - start
    # Both arms simulate the same trace: the scalar kernels are oracles of
    # the vectorized ones, so every reported number must match exactly.
    assert scalar.to_dict()["systems"] == vectorized.to_dict()["systems"], \
        "scalar and vectorized run_experiment results diverged"
    return {"num_devices": NUM_NODES * DEVICES_PER_NODE,
            "layers": NUM_LAYERS, "iterations": iterations,
            "scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s,
            "throughput_tokens_per_s": vectorized.systems["laer"].throughput}


def bench_baselines_end_to_end(iterations: int, repeats: int) -> dict:
    spec = profiled_spec(iterations, BASELINE_SYSTEMS)
    run_experiment(spec, parallel=False)  # warm caches/imports
    seconds = best_of(lambda: run_experiment(spec, parallel=False), repeats)
    return {"systems": list(BASELINE_SYSTEMS), "iterations": iterations,
            "vectorized_s": seconds}


def bench_tuner_batch_eval(quick: bool) -> dict:
    topology = ClusterTopology(num_nodes=TUNER_NUM_NODES,
                               devices_per_node=TUNER_DEVICES_PER_NODE)
    model_config = get_model_config("mixtral-8x7b-e8k2")
    cost_model = MoECostModel.from_model_config(model_config, topology)
    candidates = 8 if quick else TUNER_CANDIDATES
    tuner = ExpertLayoutTuner(
        topology, cost_model, capacity=4,
        config=TunerConfig(num_candidates=candidates, perturbation_seed=7))

    rng = np.random.default_rng(7)
    n = topology.num_devices
    num_experts = model_config.num_experts
    routing = rng.integers(
        0, 2 * TOKENS_PER_DEVICE // num_experts, size=(n, num_experts))
    expert_loads = routing.sum(axis=0)
    layouts = [relocate_experts(replicas, expert_loads, topology,
                                tuner.capacity)
               for replicas in tuner.candidate_replica_schemes(
                   expert_loads, num_experts)]

    def scalar_eval() -> List[float]:
        return [cost_model.evaluate(lite_route(routing, layout, topology))
                .total for layout in layouts]

    def batched_eval() -> List[float]:
        plans = lite_route_batch(routing, layouts, topology)
        return [cost.total for cost in cost_model.evaluate_batch(plans)]

    # Bit-identity first, against the scalar oracles (``lite_route`` and
    # ``evaluate`` are batches of one of the same kernels, so comparing with
    # them would compare the kernel with itself): the batched path must not
    # be a fast approximation.
    scalar_plans = [scalar_lite_route(routing, layout, topology)
                    for layout in layouts]
    batched_plans = lite_route_batch(routing, layouts, topology)
    assert all(np.array_equal(scalar_plans[i], batched_plans[i])
               for i in range(len(layouts))), \
        "batched lite routing diverged from the scalar reference"
    assert [scalar_evaluate(cost_model, plan).total
            for plan in scalar_plans] == batched_eval(), \
        "batched cost evaluation diverged from the scalar reference"

    repeats = 20 if quick else 100
    scalar_s = best_of(scalar_eval, repeats)
    vectorized_s = best_of(batched_eval, repeats)
    return {"n": n, "candidates": len(layouts), "scalar_s": scalar_s,
            "vectorized_s": vectorized_s, "speedup": scalar_s / vectorized_s}


def measure(quick: bool):
    iterations = 3 if quick else ITERATIONS
    repeats = 1 if quick else 3
    topology = ClusterTopology(num_nodes=NUM_NODES,
                               devices_per_node=DEVICES_PER_NODE)
    config = {"num_nodes": NUM_NODES, "devices_per_node": DEVICES_PER_NODE,
              "layers": NUM_LAYERS, "iterations": iterations,
              "tokens_per_device": TOKENS_PER_DEVICE, "system": "laer"}
    metrics = {
        "all_to_all": bench_all_to_all(topology, repeats),
        "trace_generation": bench_trace_generation(iterations, repeats),
        "lite_route": bench_lite_route(topology, repeats),
        "tuner_batch_eval": bench_tuner_batch_eval(quick),
        "lite_route_batch": bench_lite_route_batch(repeats),
        "run_experiment": bench_end_to_end(iterations),
        "baselines_run_experiment": bench_baselines_end_to_end(iterations,
                                                               repeats),
    }
    return config, metrics, [
        Gate("run_experiment.speedup", ">=", END_TO_END_FLOOR),
        Gate("all_to_all.speedup", ">=", ALL_TO_ALL_FLOOR),
        Gate("tuner_batch_eval.speedup", ">=", TUNER_BATCH_FLOOR),
        Gate("lite_route_batch.batched_s", "<=", BATCH_CEILING_S,
             asserted=False)]


if __name__ == "__main__":
    raise SystemExit(run("perf", measure))
