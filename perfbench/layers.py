"""The traced layers: which entry points get a span, and the per-layer metrics.

Every entry of :data:`LAYERS` names a public function or method of the
program and the metric prefix its span reports under.  A traced run wraps
each of them (see :func:`install`) and :func:`per_layer_metrics` turns the
recorded spans into ``<layer>.calls``, ``<layer>.self_s`` and
``<layer>.errors`` plus the counters listed in :data:`EXTRA_METRICS`.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from perfbench.tracer import Patcher, Tracer, self_times

#: Systems whose ``decide_iteration`` is reported separately.
SYSTEMS = ("laer", "megatron", "fsdp_ep", "fastermoe", "smartmoe", "prophet",
           "flexmoe")

#: The benchmark's own span around one operation (experiment, plan, request).
ROOT = "bench.op"

Counts = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    Attributes:
        name: Metric prefix, or ``(tracer, args) -> prefix``.
        target: ``"module:function"`` or ``"module:Class.method"``.
        counts: ``(args, kwargs, result) -> {accumulator: value}`` added to
            the tracer after each successful call.
        attrs: ``args -> {key: value}`` stored on the span, readable by
            nested calls through :meth:`Tracer.open_attr`.
    """

    name: Union[str, Callable[[Tracer, tuple], str]]
    target: str
    counts: Optional[Counts] = None
    attrs: Optional[Callable[[tuple], Dict[str, Any]]] = None


def _decide_name(tracer: Tracer, args: tuple) -> str:
    # megatron and fsdp_ep share one policy class, so the system comes from
    # the enclosing sim.engine.run span.
    system = tracer.open_attr("system") or type(args[0]).__name__
    return f"baselines.decide_iteration.{system}"


def _replicas(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    replicas = args[0] if args else kwargs["expert_replicas"]
    return {"core.relocation.replicas": float(sum(replicas))}


LAYERS: Tuple[Layer, ...] = (
    Layer("workloads.draw_routing_frame",
          "repro.workloads.routing_traces:draw_routing_frame"),
    Layer("core.replica_allocation.allocate",
          "repro.core.replica_allocation:allocate_replicas_priority_queue"),
    Layer("core.replica_allocation.allocate",
          "repro.core.replica_allocation:even_replicas"),
    Layer("core.relocation.relocate_experts",
          "repro.core.relocation:relocate_experts", counts=_replicas),
    Layer("core.lite_routing.lite_route",
          "repro.core.lite_routing:lite_route"),
    Layer("core.lite_routing.lite_route_batch",
          "repro.core.lite_routing:lite_route_batch"),
    Layer("core.cost_model.evaluate",
          "repro.core.cost_model:MoECostModel.evaluate"),
    Layer("core.cost_model.evaluate_batch",
          "repro.core.cost_model:MoECostModel.evaluate_batch"),
    Layer("core.layout_tuner.solve",
          "repro.core.layout_tuner:ExpertLayoutTuner.solve",
          counts=lambda a, k, r: {
              "core.layout_tuner.candidates": r.candidates_evaluated}),
    Layer("core.planner.dispatch",
          "repro.core.planner:LoadBalancingPlanner.dispatch"),
    Layer("core.planner.tune_layout",
          "repro.core.planner:LoadBalancingPlanner.tune_layout"),
    Layer("core.planner.plan_iteration",
          "repro.core.planner:LoadBalancingPlanner.plan_iteration"),
    Layer(_decide_name,
          "repro.baselines.base:LoadBalancingPolicy.decide_iteration"),
    Layer("sim.engine.run", "repro.sim.engine:TrainingRunSimulator.run",
          attrs=lambda a: {"system": a[0].system.name}),
    Layer("sim.iteration.simulate_iteration",
          "repro.sim.iteration:IterationSimulator.simulate_iteration"),
    Layer("cluster.collectives.all_to_all",
          "repro.cluster.collectives:CollectiveCostModel.all_to_all"),
    Layer("api.runner.run", "repro.api.runner:ExperimentRunner.run"),
    Layer("store.canonicalize.canonical_spec_json",
          "repro.store.result_store:canonical_spec_json"),
    Layer("store.canonicalize.spec_fingerprint",
          "repro.store.result_store:spec_fingerprint"),
    Layer("store.canonicalize.run_id_for",
          "repro.store.result_store:run_id_for"),
    Layer("store.lookup", "repro.serve.daemon:ServeApp.lookup",
          counts=lambda a, k, r: {"store.lookup.hits": float(r is not None)}),
    Layer("store.put", "repro.store.result_store:ResultStore.put"),
    Layer("serve.submit_spec", "repro.serve.daemon:ServeApp.submit_spec",
          counts=lambda a, k, r: {
              "serve.coalesced": float(r[1].get("cache") == "coalesced")}),
)

#: Span names in report order (the root first, one row per system).
SPAN_NAMES: Tuple[str, ...] = (ROOT,) + tuple(dict.fromkeys(
    name for layer in LAYERS for name in (
        [f"baselines.decide_iteration.{s}" for s in SYSTEMS]
        if callable(layer.name) else [layer.name])))

#: Per-layer metrics that are not per-span rows.
EXTRA_METRICS: Tuple[str, ...] = (
    f"{ROOT}.total_s",
    "core.relocation.replicas",
    "core.layout_tuner.candidates",
    "store.canonicalize.per_request",
    "store.hit_ratio",
    "serve.transport_s",
    "serve.executor.queue_wait_s",
    "serve.coalesced",
    "trace.overhead_s",
)


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    rows = [f"{name}.{field}" for name in SPAN_NAMES
            for field in ("calls", "self_s", "errors")]
    return rows + list(EXTRA_METRICS)


# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, layer: Layer, original: Callable) -> Callable:
    name_of = layer.name if callable(layer.name) else (lambda t, a: layer.name)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        attrs = layer.attrs(args) if layer.attrs else {}
        with tracer.span(name_of(tracer, args), **attrs):
            result = original(*args, **kwargs)
        if layer.counts is not None:
            for key, value in layer.counts(args, kwargs, result).items():
                tracer.add(key, value)
        return result

    return traced


def _queue_wait(tracer: Tracer, patcher: Patcher) -> None:
    """Time each serve miss from executor submit to the start of its run."""
    enqueued: Dict[int, float] = {}
    lock = threading.Lock()

    def make_submit(original: Callable) -> Callable:
        @functools.wraps(original)
        def submit(self: Any, spec: Any, tags: Any = ()) -> Any:
            with lock:
                enqueued[id(spec)] = time.perf_counter()
            return original(self, spec, tags)
        return submit

    def make_run(original: Callable) -> Callable:
        @functools.wraps(original)
        def run(self: Any, spec: Any, tags: Any) -> Any:
            with lock:
                start = enqueued.pop(id(spec), None)
            if start is not None:
                tracer.add("serve.executor.queue_wait_s",
                           time.perf_counter() - start)
            return original(self, spec, tags)
        return run

    patcher.patch("repro.serve.executor:PoolExecutor.submit", make_submit)
    patcher.patch("repro.serve.executor:PoolExecutor._run", make_run)


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer entry point; restore with the returned patcher."""
    patcher = Patcher()
    try:
        for layer in LAYERS:
            patcher.patch(layer.target,
                          functools.partial(_wrap, tracer, layer))
        _queue_wait(tracer, patcher)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> Dict[str, float]:
    """Flatten a traced pass into the per-layer metric values."""
    metrics = {name: 0.0 for name in metric_names()}
    selves = self_times(tracer.spans)
    root_total = 0.0
    for span in tracer.spans:
        if span.name not in SPAN_NAMES:
            continue
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += selves[span.id]
        metrics[f"{span.name}.errors"] += span.error
        if span.name == ROOT:
            root_total += span.duration
    totals = tracer.totals
    requests = metrics["serve.submit_spec.calls"]
    lookups = metrics["store.lookup.calls"]
    submit_s = sum(span.duration for span in tracer.spans
                   if span.name == "serve.submit_spec")
    metrics.update({
        f"{ROOT}.total_s": root_total,
        "core.relocation.replicas": totals["core.relocation.replicas"],
        "core.layout_tuner.candidates": totals["core.layout_tuner.candidates"],
        "store.canonicalize.per_request": (
            metrics["store.canonicalize.canonical_spec_json.calls"] / requests
            if requests else 0.0),
        "store.hit_ratio": (totals["store.lookup.hits"] / lookups
                            if lookups else 0.0),
        # Client-side latency not spent inside submit_spec: HTTP, request
        # parsing and reply encoding.
        "serve.transport_s": root_total - submit_s if requests else 0.0,
        "serve.executor.queue_wait_s": totals["serve.executor.queue_wait_s"],
        "serve.coalesced": totals["serve.coalesced"],
        "trace.overhead_s": overhead_s,
    })
    return metrics
