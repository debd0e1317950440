"""Serving-tier perf harness: cache-hit vs cache-miss throughput.

Starts a real :class:`repro.serve.ReproServer` (loopback TCP, in-process
pool executor) on a fresh store and measures three things through the
daemon's actual HTTP surface:

* **cold** -- requests/s when every submission is a distinct spec, i.e.
  every request simulates (the price the cache saves us from paying);
* **hot** -- requests/s re-submitting one spec over a keep-alive
  connection, answered O(1) from the content-addressed result cache;
* **coalescing** -- N threads submitting one *fresh* spec concurrently:
  amplification = requests served per simulation actually executed
  (N requests riding one execution -> amplification N).

Records to ``BENCH_serve.json`` at the repository root and asserts the
serving floor: hot throughput at least ``HOT_OVER_COLD_FLOOR`` x cold, and
coalescing amplification equal to the thread count (exactly one execution).

Usage::

    python benchmarks/bench_serve.py             # full record
    python benchmarks/bench_serve.py --quick     # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path

from _harness import Gate, run

from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.serve import ReproServer, ServeClient

#: The serving tier's reason to exist: answering from the cache must beat
#: re-simulating by at least this factor.
HOT_OVER_COLD_FLOOR = 20.0


def bench_spec(seed: int, quick: bool) -> ExperimentSpec:
    """One benchmark cell; ``seed`` differentiates the cold submissions.

    Heavy enough (multi-node, tens of iterations) that a cold request
    measures simulation, not HTTP framing -- the same reason the fleet
    benchmark avoids near-instant cells.
    """
    return ExperimentSpec(
        name="bench-serve",
        cluster=ClusterSpec(num_nodes=2, devices_per_node=8),
        workload=WorkloadSpec(tokens_per_device=8192, layers=2,
                              iterations=8 if quick else 24, warmup=2,
                              seed=seed),
        systems=("laer",),
        reference="laer",
    )


def measure_cold(client: ServeClient, quick: bool, count: int) -> float:
    """Requests/s over ``count`` distinct specs (every one simulates)."""
    start = time.perf_counter()
    for seed in range(count):
        reply = client.submit(bench_spec(100 + seed, quick))
        assert reply.done and reply.cache == "miss", reply
    return count / (time.perf_counter() - start)


def measure_hot(client: ServeClient, quick: bool, count: int) -> float:
    """Requests/s re-submitting one already-stored spec ``count`` times."""
    spec = bench_spec(100, quick)  # stored by the cold phase
    start = time.perf_counter()
    for _ in range(count):
        reply = client.submit(spec)
        assert reply.done and reply.cache == "hit", reply
    return count / (time.perf_counter() - start)


def measure_coalescing(address: str, quick: bool, threads: int) -> dict:
    """N concurrent submissions of one fresh spec: executions + served."""
    spec = bench_spec(999, quick)  # never seen by the cold/hot phases
    control = ServeClient(address, client="bench-control")
    executed_before = control.status()["executor"]["executed"]
    barrier = threading.Barrier(threads)
    caches = [None] * threads

    def submit(index: int) -> None:
        worker = ServeClient(address, client=f"bench-{index}")
        barrier.wait(timeout=30)
        caches[index] = worker.submit(spec).cache
        worker.close()

    pool = [threading.Thread(target=submit, args=(i,))
            for i in range(threads)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - start
    executed = control.status()["executor"]["executed"] - executed_before
    control.close()
    assert all(cache is not None for cache in caches)
    return {
        "threads": threads,
        "executions": executed,
        "caches": {cache: caches.count(cache) for cache in set(caches)},
        "amplification": threads / executed if executed else float("inf"),
        "wall_s": round(elapsed, 4),
    }


def measure(quick: bool):
    cold_count = 2 if quick else 4
    hot_count = 100 if quick else 500
    threads = 4 if quick else 8

    workdir = Path(tempfile.mkdtemp(prefix="bench-serve-"))
    try:
        with ReproServer(workdir / "store", port=0) as server:
            client = ServeClient(server.address, client="bench")
            client.wait_ready()
            cold_rps = measure_cold(client, quick, cold_count)
            hot_rps = measure_hot(client, quick, hot_count)
            coalescing = measure_coalescing(server.address, quick, threads)
            client.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    config = {"cold_requests": cold_count, "hot_requests": hot_count}
    metrics = {
        "cold_rps": cold_rps,
        "hot_rps": hot_rps,
        "hot_over_cold": hot_rps / cold_rps if cold_rps > 0 else float("inf"),
        "hot_latency_ms": 1000.0 / hot_rps if hot_rps else None,
        "coalescing": coalescing,
    }
    return config, metrics, [
        Gate("hot_over_cold", ">=", HOT_OVER_COLD_FLOOR),
        Gate("coalescing.executions", "==", 1)]


if __name__ == "__main__":
    raise SystemExit(run("serve", measure))
