"""Calibration quality harness: fit recovery against a hidden machine.

Runs the seeded microbenchmark schedule against a hidden
:class:`~repro.calib.GroundTruthMachine` and fits a
:class:`~repro.calib.CalibrationProfile` from the observations alone.
Noise-free observations must recover every hidden parameter to within
``FIT_TOLERANCE`` relative error with per-term R² >= ``FIT_R2_FLOOR``; a
second leg re-fits (robust) under 5% multiplicative noise and records the
degraded R² for trend tracking.  Records to ``BENCH_calib.json`` at the
repository root.  (The batched layout-tuner row lives in ``bench_perf.py``.)

Usage::

    python benchmarks/bench_calib.py            # full mode, asserts floors
    python benchmarks/bench_calib.py --quick    # CI smoke (smaller, faster)

Exits non-zero when recovery regresses.
"""

from __future__ import annotations

from typing import Dict

from _harness import Gate, run

from repro.calib import (
    GroundTruthMachine,
    MeasureConfig,
    fit_calibration,
    run_microbenchmarks,
)
from repro.cluster.topology import ClusterTopology

#: Noise-free fits must recover the hidden machine essentially exactly
#: (observed worst case is ~1e-14; the slack covers BLAS variation).
FIT_TOLERANCE = 1e-6
FIT_R2_FLOOR = 0.99

#: Hidden-machine and measurement-noise seed.
SEED = 7


def measure(quick: bool):
    topology = ClusterTopology(num_nodes=2, devices_per_node=4)
    machine = GroundTruthMachine.draw(SEED)
    schedule = MeasureConfig.tiny() if quick else MeasureConfig()

    observations = run_microbenchmarks(topology, machine,
                                       config=schedule, seed=SEED)
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
            transfer_sizes=schedule.transfer_sizes,
            compute_flops=schedule.compute_flops,
            all_to_all_tokens=schedule.all_to_all_tokens,
            pairs_per_link_type=schedule.pairs_per_link_type,
            noise=0.05, model=schedule.model),
        seed=SEED)
    robust = fit_calibration(noisy, robust=True)

    config = {"machine_seed": SEED, "observations": observations.counts()}
    metrics = {
        "r2_min": fit.r2_min,
        "mape_max": fit.mape_max,
        "max_param_rel_error": max_error,
        "param_rel_errors": errors,
        "noisy_robust_r2_min": robust.r2_min,
        "profile_id": fit.profile.profile_id,
    }
    return config, metrics, [
        Gate("r2_min", ">=", FIT_R2_FLOOR),
        Gate("max_param_rel_error", "<=", FIT_TOLERANCE)]


if __name__ == "__main__":
    raise SystemExit(run("calib", measure))
