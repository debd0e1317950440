"""Run training systems over routing workloads and aggregate the results.

The engine consumes any :class:`~repro.workloads.scenarios.TraceSource`
(fully-materialized :class:`~repro.workloads.routing_traces.RoutingTrace`
objects included) one iteration at a time, folding every simulated iteration
into the :class:`RunResult` aggregates as it goes -- memory stays O(1) in the
number of iterations when ``keep_iterations=False``, and the statistics are
identical either way because both modes share the same accumulation.

:func:`compare_systems` runs several systems over the same workload.  Each
system consumes its own ``source.fork()`` -- an independent, deterministic
replay of the workload -- so the systems can execute in parallel worker
processes (``parallel=True``) and still produce results bit-identical to the
sequential order.
"""

from __future__ import annotations

import itertools
import os
import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.sim.iteration import IterationResult
from repro.sim.systems import SystemSpec
from repro.telemetry.trace import span as _span
from repro.workloads.routing_traces import RoutingTrace
from repro.workloads.scenarios import TraceSource

#: Workloads the engine accepts: a streaming source or a materialized trace.
Workload = Union[TraceSource, RoutingTrace]


@dataclass
class RunResult:
    """Aggregated outcome of simulating a system over a routing workload.

    Statistics are accumulated incrementally via :meth:`add`, so a streaming
    run never needs the whole iteration list in memory; the per-iteration
    results are retained only when ``keep_iterations`` is true (the default,
    for callers that want per-iteration detail).

    Attributes:
        system: Name of the simulated system.
        iterations: Per-iteration simulation results (empty when
            ``keep_iterations`` is false, even though the aggregates cover
            every added iteration).
        tokens_per_iteration: Global tokens processed per iteration.
        keep_iterations: Whether :meth:`add` retains the raw
            :class:`IterationResult` objects.
    """

    system: str
    iterations: List[IterationResult] = field(default_factory=list)
    tokens_per_iteration: int = 0
    keep_iterations: bool = True

    def __post_init__(self) -> None:
        seeded = list(self.iterations)
        self.iterations = []
        self._count = 0
        self._time_sum = 0.0
        self._breakdown_sums: Dict[str, float] = {}
        self._rel_max_sum = 0.0
        self._layer_rel_sums: List[float] = []
        for iteration in seeded:
            self.add(iteration)

    # ------------------------------------------------------------------
    def add(self, result: IterationResult) -> None:
        """Fold one simulated iteration into the aggregates."""
        self._count += 1
        self._time_sum += result.total_time
        for key, value in result.breakdown.items():
            self._breakdown_sums[key] = self._breakdown_sums.get(key, 0.0) + value
        self._rel_max_sum += result.max_relative_tokens
        if not self._layer_rel_sums:
            self._layer_rel_sums = [0.0] * len(result.layers)
        for index, layer in enumerate(result.layers[:len(self._layer_rel_sums)]):
            self._layer_rel_sums[index] += layer.relative_max_tokens
        if self.keep_iterations:
            self.iterations.append(result)

    @property
    def num_iterations(self) -> int:
        """Number of iterations aggregated so far."""
        return self._count

    # ------------------------------------------------------------------
    @property
    def mean_iteration_time(self) -> float:
        """Average iteration time in seconds."""
        if self._count == 0:
            return 0.0
        return self._time_sum / self._count

    @property
    def throughput(self) -> float:
        """Average training throughput in tokens per second.

        Degenerate runs (no iterations, or a zero/negative modelled
        iteration time) report ``0.0`` rather than ``inf`` so downstream
        ratios and serialized results stay finite.
        """
        time = self.mean_iteration_time
        if time <= 0:
            return 0.0
        return self.tokens_per_iteration / time

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio of this run over another run.

        Two degenerate (zero-throughput) runs compare as ``1.0``; a real run
        against a degenerate reference is ``inf``.
        """
        if other.throughput == 0:
            return 1.0 if self.throughput == 0 else float("inf")
        return self.throughput / other.throughput

    # ------------------------------------------------------------------
    def mean_breakdown(self) -> Dict[str, float]:
        """Average per-iteration time of every breakdown component."""
        if self._count == 0:
            return {}
        return {key: value / self._count
                for key, value in self._breakdown_sums.items()}

    def breakdown_fractions(self) -> Dict[str, float]:
        """Breakdown components as fractions of the mean iteration time."""
        breakdown = self.mean_breakdown()
        total = self.mean_iteration_time
        if total <= 0:
            return {key: 0.0 for key in breakdown}
        return {key: value / total for key, value in breakdown.items()}

    def all_to_all_fraction(self) -> float:
        """Fraction of iteration time spent in (exposed) All-to-All traffic."""
        fractions = self.breakdown_fractions()
        return (fractions.get("all_to_all", 0.0)
                + fractions.get("exposed_comm", 0.0)
                + fractions.get("relayout", 0.0))

    def mean_relative_max_tokens(self) -> float:
        """Mean over iterations of the worst relative max token count."""
        if self._count == 0:
            return 1.0
        return self._rel_max_sum / self._count

    def per_layer_relative_max_tokens(self) -> List[float]:
        """Mean relative max token count per MoE layer (Fig. 10b series)."""
        if self._count == 0:
            return []
        return [total / self._count for total in self._layer_rel_sums]


def _fork_workload(workload: Workload) -> Workload:
    """Independent replay of a workload (sources fork, traces are immutable)."""
    fork = getattr(workload, "fork", None)
    if callable(fork):
        return fork()
    return workload


class TrainingRunSimulator:
    """Drive a :class:`SystemSpec` over a routing workload."""

    def __init__(self, system: SystemSpec):
        self.system = system

    def run(self, workload: Workload, max_iterations: int | None = None,
            warmup: int = 0, keep_iterations: bool = True) -> RunResult:
        """Simulate the system over a trace source.

        The source is consumed strictly in order, one iteration at a time;
        nothing beyond the current frame and the running aggregates is kept,
        so arbitrarily long workloads stream in O(1) memory (pass
        ``keep_iterations=False`` to drop the per-iteration detail too).

        Args:
            workload: Trace source (or materialized trace) to replay.
            max_iterations: Optional cap on the measured iterations.
            warmup: Iterations at the start that are simulated (so adaptive
                policies build their history) but excluded from the result.
            keep_iterations: Retain per-iteration results on the
                :class:`RunResult` (disable for constant-memory streaming).

        Returns:
            A :class:`RunResult` aggregating the post-warmup iterations.
        """
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        total = int(workload.num_iterations)
        if max_iterations is not None:
            total = min(total, max_iterations + warmup)
        if warmup >= total:
            raise ValueError("warmup leaves no iterations to measure")

        self.system.reset()
        global_tokens = int(workload.tokens_per_device) * int(workload.num_devices)
        result = RunResult(system=self.system.name,
                           tokens_per_iteration=global_tokens,
                           keep_iterations=keep_iterations)
        frames = iter(itertools.islice(workload.iter_iterations(), total))
        for iteration in range(total):
            # Telemetry phases (no-op spans unless a tracer is armed):
            # drawing the routing frame, the policy decision (which is
            # where the planner's lite-route / layout-tune sub-phases
            # nest), and the cost simulation itself.
            with _span("sim.routing-draw", system=self.system.name,
                       iteration=iteration):
                routing = next(frames, None)
            if routing is None:
                break  # source ended early; matches the old for-loop
            with _span("sim.decide", system=self.system.name,
                       iteration=iteration):
                decisions = self.system.policy.decide_iteration(routing)
            with _span("sim.simulate", system=self.system.name,
                       iteration=iteration):
                sim_result = self.system.simulator.simulate_iteration(
                    iteration, decisions)
            if iteration >= warmup:
                result.add(sim_result)
        return result


def _run_one_system(system: SystemSpec, workload: Workload,
                    max_iterations: Optional[int], warmup: int,
                    keep_iterations: bool) -> RunResult:
    """Module-level worker so parallel executors can pickle the call."""
    return TrainingRunSimulator(system).run(
        workload, max_iterations=max_iterations, warmup=warmup,
        keep_iterations=keep_iterations)


def _usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores even when the process is
    pinned to a subset (cgroups, CI runners, ``taskset``); the scheduler
    affinity mask reflects the cores worker processes would really share.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # platforms without affinity support
        return os.cpu_count() or 1


def resolve_execution_mode(parallel: bool, num_systems: int) -> str:
    """Decide how :func:`compare_systems` should execute a comparison.

    Worker processes only pay off when there are both enough independent
    systems and enough cores: ``BENCH_scenarios.json`` measured the parallel
    path at 0.897x (a slowdown) on a 1-CPU runner, so a parallel request is
    demoted to ``"sequential-auto"`` when the process may use 2 or fewer
    CPUs or the comparison covers 2 or fewer systems.

    Returns one of ``"parallel"``, ``"sequential"`` (explicitly requested)
    or ``"sequential-auto"`` (parallel requested but not worthwhile).
    """
    if not parallel:
        return "sequential"
    if num_systems <= 2 or _usable_cpus() <= 2:
        return "sequential-auto"
    return "parallel"


def compare_systems_detailed(
        systems: List[SystemSpec], workload: Workload,
        max_iterations: int | None = None,
        warmup: int = 0,
        parallel: bool = False,
        max_workers: int | None = None,
        keep_iterations: bool = True) -> Tuple[Dict[str, RunResult], str]:
    """:func:`compare_systems` plus the execution mode actually used.

    The second element of the returned tuple is ``"parallel"``,
    ``"sequential"``, ``"sequential-auto"`` (parallel requested, demoted by
    :func:`resolve_execution_mode`) or ``"sequential-fallback"`` (parallel
    attempted but the worker-pool infrastructure failed).
    """
    jobs = [(system, _fork_workload(workload)) for system in systems]
    mode = resolve_execution_mode(parallel, len(jobs))
    if mode == "parallel":
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(_run_one_system, system, source,
                                max_iterations, warmup, keep_iterations)
                    for system, source in jobs
                ]
                runs = [future.result() for future in futures]
            return ({system.name: run
                     for (system, _), run in zip(jobs, runs)}, mode)
        # Pickling failures surface as PickleError, but also as raw
        # AttributeError ("Can't pickle local object") or TypeError ("cannot
        # pickle '_thread.lock'"); simulation errors (ValueError & friends)
        # are deliberately NOT caught and propagate to the caller unchanged.
        except (pickle.PickleError, AttributeError, TypeError,
                BrokenExecutor, OSError) as error:
            warnings.warn(
                f"parallel comparison unavailable "
                f"({type(error).__name__}: {error}); "
                f"falling back to sequential execution", RuntimeWarning)
            mode = "sequential-fallback"
    results: Dict[str, RunResult] = {}
    for system, source in jobs:
        results[system.name] = _run_one_system(
            system, source, max_iterations, warmup, keep_iterations)
    return results, mode


def compare_systems(systems: List[SystemSpec], workload: Workload,
                    max_iterations: int | None = None,
                    warmup: int = 0,
                    parallel: bool = False,
                    max_workers: int | None = None,
                    keep_iterations: bool = True) -> Dict[str, RunResult]:
    """Run several systems over the same workload and return results by name.

    Every system consumes its own ``workload.fork()``, so all systems see
    bit-identical routing matrices regardless of execution order.  With
    ``parallel=True`` the (independent) systems run in worker processes via
    :mod:`concurrent.futures`; results are identical to the sequential path
    by construction.  Parallel execution is demoted to sequential when it
    cannot win (see :func:`resolve_execution_mode`); parallel-infrastructure
    failures (an unpicklable user system, a broken pool, process-spawn
    limits) fall back to sequential execution with a warning; exceptions
    raised by the simulation itself propagate unchanged.
    """
    runs, _ = compare_systems_detailed(
        systems, workload, max_iterations=max_iterations, warmup=warmup,
        parallel=parallel, max_workers=max_workers,
        keep_iterations=keep_iterations)
    return runs
