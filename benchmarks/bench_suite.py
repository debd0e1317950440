"""Suite-tier perf harness: characterization rate and search resume speedup.

Measures the two costs the suite subsystem adds on top of the engine:

* **characterize** -- members/s streaming the default suite's workloads
  through the metric pipeline (imbalance spectrum, churn, burstiness,
  drift, concentration) at the default 8-device envelope;
* **search cold** -- evaluations/s of an adversarial search into a fresh
  :class:`~repro.store.ResultStore` (every candidate simulated);
* **search resume** -- the same search re-run against the populated store.
  Content-hashed run ids mean the rerun simulates nothing, so the
  cold/resume time ratio is the price resumability saves.

Records to ``BENCH_suite.json`` at the repository root and asserts the
resume floor: a fully cached search must be at least
``RESUME_SPEEDUP_FLOOR`` x faster than the cold one.

Usage::

    python benchmarks/bench_suite.py             # full record
    python benchmarks/bench_suite.py --quick     # CI smoke

Exits non-zero when the floor is missed.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from _harness import Gate, run

from repro.api.specs import ClusterSpec
from repro.store import ResultStore
from repro.suite import adversarial_search, characterize_suite, default_suite

#: A fully cached search rerun must beat the cold search by this factor.
RESUME_SPEEDUP_FLOOR = 3.0


def measure(quick: bool):
    suite = default_suite()
    budget = 10 if quick else 24
    cluster = ClusterSpec(num_nodes=1, devices_per_node=8)

    start = time.perf_counter()
    characterization = characterize_suite(suite, num_devices=8)
    characterize_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "store")
        start = time.perf_counter()
        cold = adversarial_search(suite, "static_ep", store, budget=budget,
                                  seed=0, cluster=cluster)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        resumed = adversarial_search(suite, "static_ep", store, budget=budget,
                                     seed=0, cluster=cluster)
        resume_s = time.perf_counter() - start

    assert cold.simulated == budget and resumed.simulated == 0
    assert resumed.winner.run_id == cold.winner.run_id

    config = {"suite_id": suite.suite_id, "budget": budget}
    metrics = {
        "characterize_members_per_s":
            len(characterization.profiles) / characterize_s,
        "search_cold_evals_per_s": budget / cold_s,
        "search_resume_evals_per_s": budget / resume_s,
        "resume_speedup": cold_s / max(resume_s, 1e-9),
        "winner_regret": cold.winner.regret,
    }
    return config, metrics, [
        Gate("resume_speedup", ">=", RESUME_SPEEDUP_FLOOR)]


if __name__ == "__main__":
    raise SystemExit(run("suite", measure))
