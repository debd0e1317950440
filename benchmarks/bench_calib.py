"""Calibration quality + batched-tuner perf harness.

Two graded sections, recorded to ``BENCH_calib.json`` at the repository
root (``BENCH_calib_quick.json`` with ``--quick`` so CI smoke runs never
clobber the checked-in baseline):

``fit_recovery``
    Runs the seeded microbenchmark schedule against a hidden
    :class:`~repro.calib.GroundTruthMachine` and fits a
    :class:`~repro.calib.CalibrationProfile` from the observations alone.
    Noise-free observations must recover every hidden parameter to within
    ``FIT_TOLERANCE`` relative error with per-term R² >= ``FIT_R2_FLOOR``;
    a second leg re-fits (robust) under 5% multiplicative noise and
    records the degraded R² for trend tracking.

``tuner_batch_eval``
    Times the layout tuner's candidate-evaluation stage -- batched
    (``lite_route_batch`` + ``MoECostModel.evaluate_batch``) against the
    per-candidate loop of ``lite_route`` + ``evaluate`` calls -- on the
    shape the batched path is built for (a small cluster with a large
    candidate set, where Python loop overhead rather than the argsort
    kernel dominates).  The batched results must be *bit-identical* to
    the ``repro.scalar_reference`` oracles (``scalar_lite_route`` +
    ``scalar_evaluate``) and at least ``TUNER_BATCH_FLOOR`` times faster
    than the per-candidate loop.

Usage::

    python benchmarks/bench_calib.py            # full mode, asserts floors
    python benchmarks/bench_calib.py --quick    # CI smoke (smaller, faster)

Exits non-zero when recovery or the speedup floor regresses
(``--no-check`` to disable).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.calib import (
    GroundTruthMachine,
    MeasureConfig,
    fit_calibration,
    run_microbenchmarks,
)
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import lite_route, lite_route_batch
from repro.core.relocation import relocate_experts
from repro.scalar_reference import scalar_evaluate, scalar_lite_route
from repro.workloads.model_configs import get_model_config

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_calib.json"
QUICK_RESULT_PATH = RESULT_PATH.with_name("BENCH_calib_quick.json")

#: Noise-free fits must recover the hidden machine essentially exactly
#: (observed worst case is ~1e-14; the slack covers BLAS variation).
FIT_TOLERANCE = 1e-6
FIT_R2_FLOOR = 0.99

#: The batched candidate evaluation must beat the scalar loop by at least
#: this factor on the benchmarked shape (small cluster, many candidates).
TUNER_BATCH_FLOOR = 2.0

#: The batched-tuner shape: few devices (argsort stays cheap) and a large
#: candidate set (the per-candidate Python overhead being amortised).
TUNER_NUM_NODES = 2
TUNER_DEVICES_PER_NODE = 4
TUNER_CANDIDATES = 16
TOKENS_PER_DEVICE = 16384


def best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# fit recovery
# ----------------------------------------------------------------------
def bench_fit_recovery(quick: bool, seed: int) -> dict:
    topology = ClusterTopology(num_nodes=2, devices_per_node=4)
    machine = GroundTruthMachine.draw(seed)
    config = MeasureConfig.tiny() if quick else MeasureConfig()

    observations = run_microbenchmarks(topology, machine,
                                       config=config, seed=seed)
    fit = fit_calibration(observations)
    truth = machine.as_profile().to_dict()
    recovered = fit.profile.to_dict()
    errors: Dict[str, float] = {}
    for key, expected in truth.items():
        if key == "source" or not isinstance(expected, (int, float)):
            continue
        actual = recovered.get(key, 0.0)
        errors[key] = abs(actual - expected) / abs(expected)
    max_error = max(errors.values())

    noisy = run_microbenchmarks(
        topology, machine,
        config=MeasureConfig(
            transfer_sizes=config.transfer_sizes,
            compute_flops=config.compute_flops,
            all_to_all_tokens=config.all_to_all_tokens,
            pairs_per_link_type=config.pairs_per_link_type,
            noise=0.05, model=config.model),
        seed=seed)
    robust = fit_calibration(noisy, robust=True)

    return {
        "machine_seed": seed,
        "observations": observations.counts(),
        "r2_min": fit.r2_min,
        "mape_max": fit.mape_max,
        "max_param_rel_error": max_error,
        "param_rel_errors": errors,
        "noisy_robust_r2_min": robust.r2_min,
        "profile_id": fit.profile.profile_id,
    }


# ----------------------------------------------------------------------
# batched tuner evaluation
# ----------------------------------------------------------------------
def bench_tuner_batch_eval(quick: bool, seed: int) -> dict:
    topology = ClusterTopology(num_nodes=TUNER_NUM_NODES,
                               devices_per_node=TUNER_DEVICES_PER_NODE)
    model_config = get_model_config("mixtral-8x7b-e8k2")
    cost_model = MoECostModel.from_model_config(model_config, topology)
    candidates = 8 if quick else TUNER_CANDIDATES
    tuner = ExpertLayoutTuner(
        topology, cost_model, capacity=4,
        config=TunerConfig(num_candidates=candidates,
                           perturbation_seed=seed))

    rng = np.random.default_rng(seed)
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
    batched_s = best_of(batched_eval, repeats)
    return {
        "num_devices": n,
        "candidates": len(layouts),
        "tokens_per_device": TOKENS_PER_DEVICE,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
        "bit_identical": True,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny schedule, fewer repeats")
    parser.add_argument("--no-check", action="store_true",
                        help="record numbers without asserting the floors")
    parser.add_argument("--seed", type=int, default=7,
                        help="hidden-machine and workload seed")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"result path (default: {RESULT_PATH}, or "
                             f"{QUICK_RESULT_PATH} with --quick)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_RESULT_PATH if args.quick else RESULT_PATH

    print(f"benchmarking calibration fit + batched tuner "
          f"({'quick' if args.quick else 'full'} mode) ...")
    fit = bench_fit_recovery(args.quick, args.seed)
    print(f"  fit_recovery      r2_min {fit['r2_min']:.6f}   "
          f"max param error {fit['max_param_rel_error']:.2e}   "
          f"noisy robust r2 {fit['noisy_robust_r2_min']:.4f}")
    tuner = bench_tuner_batch_eval(args.quick, args.seed)
    print(f"  tuner_batch_eval  scalar {tuner['scalar_s'] * 1e3:8.2f} ms   "
          f"batched {tuner['batched_s'] * 1e3:8.2f} ms   "
          f"speedup {tuner['speedup']:5.1f}x "
          f"({tuner['candidates']} candidates, "
          f"{tuner['num_devices']} devices)")

    record = {
        "benchmark": "bench_calib",
        "mode": "quick" if args.quick else "full",
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "fit_recovery": {key: (round(value, 12)
                               if isinstance(value, float) else value)
                         for key, value in fit.items()},
        "tuner_batch_eval": {key: (round(value, 6)
                                   if isinstance(value, float) else value)
                             for key, value in tuner.items()},
        "floors": {"fit_r2_min": FIT_R2_FLOOR,
                   "fit_max_param_rel_error": FIT_TOLERANCE,
                   "tuner_batch_eval_speedup": TUNER_BATCH_FLOOR},
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"recorded to {args.output}")

    if not args.no_check:
        failures = []
        if fit["r2_min"] < FIT_R2_FLOOR:
            failures.append(f"fit r2_min {fit['r2_min']:.4f} "
                            f"< {FIT_R2_FLOOR} floor")
        if fit["max_param_rel_error"] > FIT_TOLERANCE:
            failures.append(
                f"fit max param error {fit['max_param_rel_error']:.2e} "
                f"> {FIT_TOLERANCE:.0e} tolerance")
        if tuner["speedup"] < TUNER_BATCH_FLOOR:
            failures.append(
                f"tuner batch-eval speedup {tuner['speedup']:.1f}x "
                f"< {TUNER_BATCH_FLOOR}x floor")
        if failures:
            print("CALIB REGRESSION: " + "; ".join(failures),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
