"""The four benchmark workloads.

Each workload builds its inputs from the run seed in :meth:`setup`, runs
operations in :meth:`measure` (one experiment, one layer plan or one request
each), checks every output as it goes, and turns a measured pass into the
end-to-end metrics.  A pass can be replayed: ``measure(ops=n)`` repeats the
first ``n`` operations of the previous pass on the same inputs, which is how
the traced run is compared with the untraced one.

Host time is what this machine takes to run the reproduction; simulated
figures are what the modelled A100 cluster would take.  Simulated figures
come from a fixed set of inputs per seed, so they repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import shutil
import statistics
import threading
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.runner import ExperimentRunner, run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import MoECostModel
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.planner import LoadBalancingPlanner, PlannerConfig
from repro.scalar_reference import scalar_lite_route, scalar_select_device
from repro.serve.client import ServeClient, ServeUnavailable
from repro.serve.daemon import ReproServer
from repro.store import ResultStore, run_id_for
from repro.workloads.model_configs import get_model_config
from repro.workloads.routing_traces import (
    RoutingTraceConfig,
    SyntheticRoutingTraceGenerator,
)

from perfbench.tracer import Patcher

MODEL = "mixtral-8x7b-e8k2"
TOKENS_PER_DEVICE = 16384
BASELINES = ("megatron", "fsdp_ep", "fastermoe", "smartmoe", "prophet",
             "flexmoe")

#: ``span(name)`` opens a traced span, or nothing in an untraced pass.
SpanFactory = Callable[[str], AbstractContextManager]


@dataclass
class Pass:
    """One measured pass: per-operation host times, checks and digests.

    Besides seconds, host times are kept in *refs*: divided by the time of
    :func:`reference_s` measured right beside them.  A shared host's speed
    can drift by tens of percent within a minute; the ratio cancels most
    of it.
    """

    #: Seconds spent running operations (not checks or reference runs).
    wall_s: float = 0.0
    #: The same time in refs, summed window by window.
    busy_refs: float = 0.0
    op_s: List[float] = field(default_factory=list)
    #: Refs of the operations ``op_ref_p50`` summarises (serve: hot ones).
    op_refs: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Serve only: host seconds of hot and cold requests, and the
    #: ``(kind, spec, pool slot, reply)`` of each request until settled.
    hot_s: List[float] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    pending: List[Tuple[str, Any, int, Any]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.op_s)


def reference_s() -> float:
    """Seconds this host takes for a fixed piece of work, the unit of refs.

    The work mirrors what the program spends its time on: a masked argmin
    per step over small and over 1024-long arrays in the interpreter (the
    relocation loop), and fresh 32 MB arrays written end to end (lite
    routing's and the cost model's batched arrays).  Host slowdowns that
    hit the program hit it too.  It is part of the benchmark: changing it
    changes every ref-valued metric.
    """
    start = time.perf_counter()
    for size, rounds in ((64, 1500), (1024, 300)):
        loads = np.zeros(size)
        slots = np.zeros(size, dtype=np.int64)
        for step in range(rounds):
            device = int(np.argmin(np.where(slots < 8, loads, np.inf)))
            loads[device] += (step * 7919) % 101
            slots[device] = (slots[device] + 1) % 8
    big = np.repeat(np.arange(1 << 20, dtype=np.float64), 4)
    np.cumsum(big)
    return time.perf_counter() - start


def sub_seeds(seed: int, count: int, *key: int) -> List[int]:
    """``count`` independent seeds derived from the run seed."""
    state = np.random.SeedSequence([seed, *key]).generate_state(count)
    return [int(value) for value in state]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile_ms(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile in ms, or None without ten samples beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    ordered = sorted(samples)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _digest(*parts: Any) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.tobytes() if isinstance(part, np.ndarray)
                      else repr(part).encode())
    return hasher.hexdigest()


class Workload:
    """A workload that runs one operation at a time.

    Subclasses provide :meth:`call`, the timed call into the program, and
    :meth:`verify`, which checks its output outside the timed region.
    """

    #: Least operations a pass runs, whatever its time budget.
    min_ops = 1

    def call(self, index: int) -> Any:
        raise NotImplementedError

    def verify(self, index: int, output: Any) -> Tuple[Optional[str], str]:
        """``(problem or None, digest)`` of the ``index``-th output."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Reset state so that every pass runs the same operations."""

    def measure(self, seconds: float, span: SpanFactory,
                ops: Optional[int] = None) -> Pass:
        """Run operations for ``seconds`` (and at least :attr:`min_ops`), or
        exactly ``ops`` operations when replaying a pass.  A reference run
        follows every operation; each operation is measured against the
        mean of the reference runs before and after it."""
        self.begin_pass()
        result = Pass()
        deadline = time.perf_counter() + seconds
        refs = [reference_s()]
        while (result.ops < ops if ops is not None else
               result.ops < self.min_ops or time.perf_counter() < deadline):
            index = result.ops
            began = time.perf_counter()
            with span("bench.op"):
                output = self.call(index)
            op_s = time.perf_counter() - began
            problem, digest = self.verify(index, output)
            result.digests.append(digest)
            if problem:
                result.failures.append(problem)
            refs.append(reference_s())
            op_refs = op_s / ((refs[-2] + refs[-1]) / 2)
            result.op_s.append(op_s)
            result.op_refs.append(op_refs)
            result.wall_s += op_s
            result.busy_refs += op_refs
        return result

    def timing(self, measured: Pass) -> Dict[str, float]:
        """The host-time end-to-end metrics of a pass, in refs."""
        return {"op_ref_p50": statistics.median(measured.op_refs),
                "ops_per_ref": measured.ops / measured.busy_refs}

    def details(self, measured: Pass) -> Dict[str, Any]:
        """Figures recorded beside the metrics: the same timings in plain
        seconds, and the reference time they were divided by."""
        return {"op_ms_p50": 1000.0 * statistics.median(measured.op_s),
                "ops_per_s": measured.ops / measured.wall_s,
                "ref_ms": 1000.0 * measured.wall_s / measured.busy_refs,
                "ops": measured.ops}

    def settle(self, measured: Pass) -> None:
        """Check the outputs of a pass that need untraced program calls."""

    def check(self) -> List[str]:
        """End-of-run checks; returns one message per mismatch."""
        return []

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""


# ----------------------------------------------------------------------
# laer-train / baselines-train
# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    """``run_experiment`` on the 64-device drifting config, sequentially.

    A run cycles through ``specs`` experiments whose routing seeds derive
    from the run seed; the simulated metrics are geometric means over all of
    them (and over the systems), so they do not depend on host speed.
    """

    def __init__(self, name: str, systems: Sequence[str], seed: int,
                 num_nodes: int = 8, layers: int = 8, iterations: int = 10,
                 specs: int = 8):
        self.name = name
        self.systems = tuple(systems)
        self.seed = seed
        self.shape = dict(num_nodes=num_nodes, devices_per_node=8,
                          layers=layers, iterations=iterations, specs=specs)
        self.specs: List[ExperimentSpec] = []
        self.first: Dict[int, Tuple[str, Any]] = {}

    def config(self) -> Dict[str, Any]:
        return {"model": MODEL, "scenario": "drifting",
                "tokens_per_device": TOKENS_PER_DEVICE,
                "systems": list(self.systems), **self.shape}

    def setup(self) -> None:
        shape = self.shape
        self.specs = [ExperimentSpec(
            name=f"perfbench-{self.name}",
            cluster=ClusterSpec(num_nodes=shape["num_nodes"],
                                devices_per_node=shape["devices_per_node"]),
            workload=WorkloadSpec(model=MODEL, layers=shape["layers"],
                                  tokens_per_device=TOKENS_PER_DEVICE,
                                  iterations=shape["iterations"],
                                  scenario="drifting", seed=trace_seed),
            systems=tuple(SystemSpec(name=system) for system in self.systems),
            reference=self.systems[0],
        ) for trace_seed in sub_seeds(self.seed, shape["specs"])]
        self.min_ops = len(self.specs)
        self.verify(0, self.call(0))  # warm-up: first-call costs and caches

    def call(self, index: int) -> Any:
        runner = ExperimentRunner(parallel=False)
        return runner.run(self.specs[index % len(self.specs)]), runner.last_runs

    def verify(self, index: int, output: Any) -> Tuple[Optional[str], str]:
        slot = index % len(self.specs)
        result, runs = output
        layer_stats = [[(layer.max_tokens, layer.total_time)
                        for iteration in run.iterations
                        for layer in iteration.layers]
                       for run in runs.values()]
        digest = _digest(json.dumps(result.to_dict(), sort_keys=True),
                         layer_stats)
        first_digest, _ = self.first.setdefault(slot, (digest, result))
        problem = None
        for key, system in result.systems.items():
            if not (math.isfinite(system.throughput) and system.throughput > 0
                    and system.mean_relative_max_tokens >= 1.0):
                problem = f"{key}: implausible result on spec {slot}"
        if digest != first_digest:
            problem = f"spec {slot}: result differs from its first run"
        return problem, digest

    def end_to_end(self, measured: Pass) -> Dict[str, float]:
        systems = [system for _, result in self.first.values()
                   for system in result.systems.values()]
        return {
            **self.timing(measured),
            "sim_tokens_per_s": geomean([s.throughput for s in systems]),
            "sim_rel_max_tokens": geomean(
                [s.mean_relative_max_tokens for s in systems]),
        }

    def details(self, measured: Pass) -> Dict[str, Any]:
        iterations = self.specs[0].workload.iterations \
            + self.specs[0].workload.warmup
        return {
            **super().details(measured),
            "sim_iters_per_s": (measured.ops * len(self.systems) * iterations
                                / measured.wall_s),
            "sim_tokens_per_s_by_system": {
                key: geomean([result.systems[key].throughput
                              for _, result in self.first.values()])
                for key in self.systems},
        }


# ----------------------------------------------------------------------
# planner-scale
# ----------------------------------------------------------------------
def fig11_budget_s() -> float:
    """The Fig. 11 per-layer time budget: LAER's mean iteration time on the
    paper cluster divided by the model's layer count (the wikitext trace
    configuration of ``benchmarks/bench_fig11_planner.py``)."""
    topology = ClusterTopology.paper_cluster()
    spec = ExperimentSpec(
        name="fig11-budget", cluster=ClusterSpec.from_topology(topology),
        workload=WorkloadSpec(model=MODEL, tokens_per_device=TOKENS_PER_DEVICE,
                              layers=4, iterations=8, warmup=2, skew=0.45,
                              drift=0.08, churn_prob=0.0, seed=101),
        systems=(SystemSpec(name="laer"),), reference="laer")
    laer = run_experiment(spec, parallel=False).systems["laer"]
    return laer.mean_iteration_s / get_model_config(MODEL).num_layers


class PlannerWorkload(Workload):
    """``LoadBalancingPlanner.plan_iteration`` on distinct one-layer frames
    at Fig. 11's largest scale (N devices, capacity C, E = 8 experts)."""

    #: Plans whose modelled cost gives the simulated metrics: the first plan
    #: after a reset uses the untuned fallback layout, so it is skipped.
    SIM_PLANS = range(1, 5)
    min_ops = max(SIM_PLANS) + 1

    name = "planner-scale"

    def __init__(self, seed: int, num_devices: int = 1024, capacity: int = 8,
                 frames: int = 32):
        self.seed = seed
        self.shape = dict(num_devices=num_devices, capacity=capacity,
                          frames=frames)
        self.planner: Optional[LoadBalancingPlanner] = None
        self.frames: List[np.ndarray] = []
        self.budget_s = 0.0
        self.sim: Dict[int, Tuple[float, float]] = {}

    def config(self) -> Dict[str, Any]:
        return {"model": MODEL, "tokens_per_device": TOKENS_PER_DEVICE,
                "experts": 8, "layers_per_frame": 1, **self.shape}

    def setup(self) -> None:
        n = self.shape["num_devices"]
        topology = ClusterTopology.homogeneous(n, devices_per_node=8)
        config = get_model_config(MODEL)
        cost_model = MoECostModel.from_model_config(config, topology)
        self.planner = LoadBalancingPlanner(
            topology, cost_model, config.num_experts,
            PlannerConfig(capacity=self.shape["capacity"]))
        generator = SyntheticRoutingTraceGenerator(RoutingTraceConfig(
            num_devices=n, num_experts=config.num_experts, num_layers=1,
            tokens_per_device=TOKENS_PER_DEVICE, top_k=config.top_k,
            skew=0.5, seed=self.seed))
        self.frames = [generator.next_iteration()
                       for _ in range(self.shape["frames"])]
        self.budget_s = fig11_budget_s()
        self.verify(0, self.call(0))  # warm-up

    def begin_pass(self) -> None:
        self.planner.reset()

    def call(self, index: int) -> Any:
        return self.planner.plan_iteration(
            self.frames[index % len(self.frames)])[0]

    def verify(self, index: int, plan: Any) -> Tuple[Optional[str], str]:
        routing = self.frames[index % len(self.frames)][0]
        assignment = plan.layout.assignment
        served = plan.routing_plan.sum(axis=0)  # (E, N) tokens per expert/device
        problem = None
        if np.any(assignment.sum(axis=0) < 1):
            problem = f"plan {index}: an expert has no replica"
        elif not np.array_equal(plan.routing_plan.sum(axis=2), routing):
            problem = f"plan {index}: routing plan loses tokens"
        elif np.any((served > 0) & (assignment.T == 0)):
            problem = f"plan {index}: tokens sent to a device without the expert"
        elif not plan.cost.total > 0:
            problem = f"plan {index}: non-positive modelled cost"
        if index in self.SIM_PLANS:
            ideal = routing.sum() / routing.shape[0]
            self.sim[index] = (routing.shape[0] * TOKENS_PER_DEVICE
                               / plan.cost.total,
                               plan.cost.max_tokens / ideal)
        return problem, _digest(assignment, plan.routing_plan,
                                plan.cost.total)

    def end_to_end(self, measured: Pass) -> Dict[str, float]:
        sims = [self.sim[index] for index in self.SIM_PLANS]
        return {
            **self.timing(measured),
            "sim_tokens_per_s": geomean([tokens for tokens, _ in sims]),
            "sim_rel_max_tokens": geomean([rel for _, rel in sims]),
        }

    def details(self, measured: Pass) -> Dict[str, Any]:
        solve_s = statistics.median(measured.op_s)
        return {**super().details(measured),
                "fig11_budget_ms": 1000.0 * self.budget_s,
                "solve_over_budget": solve_s / self.budget_s}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class _Slices:
    """Lock-step between the measuring thread and the client threads: the
    clients run requests until :attr:`end`, then all wait at a barrier."""

    def __init__(self, clients: int):
        self._barrier = threading.Barrier(clients + 1, timeout=120.0)
        self.end = 0.0
        self.number = -1
        self._stopped = False

    def start(self) -> bool:
        """Client side: wait for the next slice; False once stopped."""
        self._barrier.wait()
        return not self._stopped

    def finish(self) -> None:
        """Client side: the slice's last request is done."""
        self._barrier.wait()

    def release(self, seconds: float) -> float:
        """Start a slice of ``seconds``; returns its start time."""
        self.number += 1
        self.end = time.perf_counter() + seconds
        self._barrier.wait()
        return self.end - seconds

    def collect(self) -> None:
        """Wait for every client to finish the slice."""
        self._barrier.wait()

    def stop(self) -> None:
        self._stopped = True
        self._barrier.wait()

    def abort(self) -> None:
        self._barrier.abort()


class ServeWorkload(Workload):
    """A closed loop of client threads against an in-process ``ReproServer``.

    Each client holds one keep-alive connection and waits for every reply.
    In every block of ``cold_every`` requests of a client exactly one, at a
    seeded position, submits a fresh spec (simulated, then stored); the rest
    re-submit one of ``pool`` specs stored during set-up.
    """

    #: Seconds of requests between two reference runs.
    SLICE_S = 1.0

    name = "serve-mixed"

    def __init__(self, seed: int, out_dir: Path, pool: int = 8,
                 cold_every: int = 20):
        self.seed = seed
        self.shape = dict(clients=2, pool=pool, cold_every=cold_every,
                          layers=2)
        self.server: Optional[ReproServer] = None
        self.store_dir = out_dir / f"serve-store-{os.getpid()}"
        self.pool_ids: List[str] = []
        self.pool_payloads: List[Dict[str, Any]] = []
        self.sim: Dict[str, float] = {}
        self.next_request: List[int] = []
        self._blocks: Dict[int, Tuple[int, int, int, np.ndarray]] = {}
        self.sample: Optional[Tuple[ExperimentSpec, str]] = None

    def config(self) -> Dict[str, Any]:
        return {"model": MODEL, "num_nodes": 1, "devices_per_node": 8,
                "systems": ["laer", "fsdp_ep"], "loop": "closed",
                **self.shape}

    def _spec(self, trace_seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            name="perfbench-serve",
            cluster=ClusterSpec(num_nodes=1, devices_per_node=8),
            workload=WorkloadSpec(model=MODEL, layers=self.shape["layers"],
                                  seed=trace_seed),
            systems=(SystemSpec(name="laer"), SystemSpec(name="fsdp_ep")),
            reference="fsdp_ep")

    def setup(self) -> None:
        self.close()
        store = ResultStore(self.store_dir)
        pool = [self._spec(s) for s in sub_seeds(self.seed, self.shape["pool"])]
        results = [run_experiment(spec, parallel=False) for spec in pool]
        for result in results:
            store.put(result)
        self.pool_ids = [run_id_for(spec) for spec in pool]
        self.pool_payloads = [spec.to_dict() for spec in pool]
        laer = [result.systems["laer"] for result in results]
        self.sim = {"sim_tokens_per_s": geomean([s.throughput for s in laer]),
                    "sim_rel_max_tokens": geomean(
                        [s.mean_relative_max_tokens for s in laer])}
        self.server = ReproServer(store, port=0).start()
        client = ServeClient(self.server.address)
        try:
            for payload in self.pool_payloads:  # warm the hot path
                client.submit(payload)
        finally:
            client.close()
        self.next_request = [0] * self.shape["clients"]
        self._blocks = {}
        self.sample = None

    def _request(self, client: int, n: int
                 ) -> Tuple[str, Optional[ExperimentSpec], Dict[str, Any], int]:
        """The ``n``-th request of ``client``: kind, fresh spec (cold only),
        payload and pool slot (hot only)."""
        every = self.shape["cold_every"]
        block, position = divmod(n, every)
        cached = self._blocks.get(client)
        if cached is None or cached[0] != block:
            cold_seed, pick_seed = sub_seeds(self.seed, 2, client, block)
            rng = np.random.default_rng(pick_seed)
            cached = (block, cold_seed, int(rng.integers(every)),
                      rng.integers(self.shape["pool"], size=every))
            self._blocks[client] = cached
        _, cold_seed, cold_position, picks = cached
        if position == cold_position:
            spec = self._spec(cold_seed)
            return "cold", spec, spec.to_dict(), -1
        slot = int(picks[position])
        return "hot", None, self.pool_payloads[slot], slot

    def _client(self, index: int, slices: _Slices, span: SpanFactory,
                out: List[Tuple[int, str, float, Any]]) -> None:
        client = ServeClient(self.server.address)
        try:
            while slices.start():
                while time.perf_counter() < slices.end:
                    kind, spec, payload, slot = self._request(
                        index, self.next_request[index])
                    self.next_request[index] += 1
                    began = time.perf_counter()
                    try:
                        with span("bench.op"):
                            reply = client.submit(payload)
                    except (ServeUnavailable, OSError,
                            http.client.HTTPException) as error:
                        reply = error
                    out.append((slices.number, kind,
                                time.perf_counter() - began,
                                (spec, slot, reply)))
                slices.finish()
        except threading.BrokenBarrierError:
            pass
        except BaseException:
            slices.abort()  # wake the measuring thread instead of timing out
            raise
        finally:
            client.close()

    def measure(self, seconds: float, span: SpanFactory,
                ops: Optional[int] = None) -> Pass:
        """Run the clients for ``seconds`` in slices of :attr:`SLICE_S`.

        Between slices every client waits while the reference work runs
        alone; a slice's requests are measured against the mean of the
        reference runs before and after it.  A replay (``ops`` set) runs
        for ``seconds`` too and continues each client's schedule: the
        earlier cold specs are stored by then, so repeating them would only
        hit."""
        clients = self.shape["clients"]
        outs: List[List[Tuple[int, str, float, Any]]] = [
            [] for _ in range(clients)]
        slices = _Slices(clients)
        threads = [threading.Thread(
            target=self._client, name=f"perfbench-client-{index}",
            args=(index, slices, span, outs[index]))
            for index in range(clients)]
        for thread in threads:
            thread.start()
        result = Pass()
        refs = [reference_s()]
        durations: List[float] = []
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                began = slices.release(self.SLICE_S)
                slices.collect()
                durations.append(time.perf_counter() - began)
                refs.append(reference_s())
            slices.stop()
        except threading.BrokenBarrierError:
            result.failures.append("a client thread stopped answering")
        for thread in threads:
            thread.join(timeout=120.0)
        if any(thread.is_alive() for thread in threads):
            result.failures.append("a client thread did not finish")
        slice_refs = [(before + after) / 2
                      for before, after in zip(refs, refs[1:])]
        result.wall_s = sum(durations)
        result.busy_refs = sum(d / r for d, r in zip(durations, slice_refs))
        for out in outs:
            for number, kind, latency, request in out:
                result.op_s.append(latency)
                if kind == "hot":
                    result.hot_s.append(latency)
                    result.op_refs.append(latency / slice_refs[number])
                else:
                    result.cold_s.append(latency)
                result.pending.append((kind, *request))
        return result

    def settle(self, measured: Pass) -> None:
        """Check every reply: HTTP 200, done, the spec's own run id, and a
        cache hit for pool specs."""
        for kind, spec, slot, reply in measured.pending:
            problem = self._reply_problem(kind, spec, slot, reply)
            if problem:
                measured.failures.append(problem)
            elif kind == "cold" and self.sample is None:
                self.sample = (spec, reply.run_id)
        measured.pending = []

    def _reply_problem(self, kind: str, spec: Optional[ExperimentSpec],
                       slot: int, reply: Any) -> Optional[str]:
        if isinstance(reply, Exception):
            return f"{kind} request: {type(reply).__name__}: {reply}"
        if reply.http_status != 200 or reply.status != "done":
            return (f"{kind} request: HTTP {reply.http_status} "
                    f"{reply.status} {reply.error}")
        expected = self.pool_ids[slot] if kind == "hot" else run_id_for(spec)
        if reply.run_id != expected:
            return f"{kind} request: run id {reply.run_id} != {expected}"
        if kind == "hot" and reply.cache != "hit":
            return f"hot request answered as {reply.cache!r}"
        return None

    def end_to_end(self, measured: Pass) -> Dict[str, float]:
        return {**self.timing(measured), **self.sim}

    def details(self, measured: Pass) -> Dict[str, Any]:
        return {
            **super().details(measured),
            "serve_hot_ms_p50": 1000.0 * statistics.median(measured.hot_s),
            "serve_hot_ms_p99": percentile_ms(measured.hot_s, 0.99),
            "serve_cold_ms_p50": (1000.0 * statistics.median(measured.cold_s)
                                  if measured.cold_s else None),
            "hot_requests": len(measured.hot_s),
            "cold_requests": len(measured.cold_s),
        }

    def check(self) -> List[str]:
        """One stored cold result must equal a direct run of its spec."""
        if self.sample is None:
            return ["no cold request completed, nothing to compare"]
        spec, run_id = self.sample
        stored = self.server.store.get_result(run_id).to_dict()
        direct = run_experiment(spec, parallel=False).to_dict()
        if json.dumps(stored, sort_keys=True) != json.dumps(direct,
                                                             sort_keys=True):
            return [f"stored result {run_id} differs from a direct run"]
        return []

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        shutil.rmtree(self.store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
def scalar_reference_check(seed: int, num_devices: int = 16,
                           capacity: int = 2) -> Optional[str]:
    """Solve one small layout with the production kernels and again with the
    ``repro.scalar_reference`` loops; layouts, plans and costs must match."""
    topology = ClusterTopology.homogeneous(num_devices, devices_per_node=8)
    config = get_model_config(MODEL)
    cost_model = MoECostModel.from_model_config(config, topology)
    routing = SyntheticRoutingTraceGenerator(RoutingTraceConfig(
        num_devices=num_devices, num_experts=config.num_experts, num_layers=1,
        tokens_per_device=TOKENS_PER_DEVICE, top_k=config.top_k, skew=0.5,
        seed=seed)).next_iteration()[0]
    fast = ExpertLayoutTuner(topology, cost_model, capacity,
                             TunerConfig(num_candidates=4)).solve(routing)
    with Patcher() as patcher:
        patcher.patch("repro.core.relocation:_select_device",
                      lambda original: scalar_select_device)
        patcher.patch("repro.core.lite_routing:lite_route",
                      lambda original: scalar_lite_route)
        slow = ExpertLayoutTuner(
            topology, cost_model, capacity,
            TunerConfig(num_candidates=4, batch_eval=False)).solve(routing)
    if not (np.array_equal(fast.layout.assignment, slow.layout.assignment)
            and np.array_equal(fast.routing_plan, slow.routing_plan)
            and fast.candidate_costs == slow.candidate_costs):
        return "layout solve differs from the scalar reference kernels"
    return None


def make_workload(name: str, seed: int, out_dir: Path):
    """The workload called ``name``, with its inputs drawn from ``seed``."""
    if name == "laer-train":
        return TrainWorkload(name, ("laer",), seed)
    if name == "baselines-train":
        return TrainWorkload(name, BASELINES, seed)
    if name == "planner-scale":
        return PlannerWorkload(seed)
    if name == "serve-mixed":
        return ServeWorkload(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
