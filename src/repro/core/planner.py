"""The load-balancing planner: asynchronous layout tuning + synchronous dispatch.

The planner (Fig. 3 / Fig. 7) keeps the newest observed routing matrix of each
layer.  While the GPU computes iteration ``t``, the (conceptually CPU-side)
expert layout tuner solves the re-layout strategy for iteration ``t + 1`` from
it -- so layouts are always one step behind the routing they react to, exactly
as in the paper.  At execution time the synchronous token dispatcher (lite
routing) maps the *actual* routing of the iteration onto the planned layout.

:meth:`LoadBalancingPlanner.step` is the one planner step.  Its unit of work
is an iteration's ``(L, N, E)`` routing frame: one dispatch routes every layer
onto its current layout in a single lite-routing batch, then each layer's
routing is observed and its next layout tuned, layer by layer (so the tuner's
random stream is consumed in layer order).  :meth:`plan_iteration` and the
LAER policy both run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.cost_model import CostBreakdown, MoECostModel
from repro.core.layout import ExpertLayout, round_robin_layout, static_ep_layout
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig
from repro.core.lite_routing import lite_route_batch
from repro.telemetry.trace import span as _span


def _check_frame(routing_by_layer: np.ndarray) -> np.ndarray:
    frame = np.asarray(routing_by_layer, dtype=np.int64)
    if frame.ndim != 3:
        raise ValueError("routing_by_layer must have shape (layers, N, E)")
    return frame


@dataclass(frozen=True)
class PlannerConfig:
    """Configuration of the load-balancing planner.

    Attributes:
        capacity: Expert capacity per device ``C``.
        tuner: Configuration of the embedded expert layout tuner.
    """

    capacity: int
    tuner: TunerConfig = field(default_factory=TunerConfig)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")


@dataclass
class IterationPlan:
    """The planner's output for one MoE layer in one iteration.

    Attributes:
        layout: Expert re-layout strategy ``A`` used by the unshard.
        routing_plan: Token routing plan ``S`` produced by the dispatcher for
            the iteration's actual routing.
        cost: Cost-model breakdown of ``(A, S)``.
        planned_from_history: Whether the layout came from the tuner (True) or
            is the fallback used before any routing was observed (False).
    """

    layout: ExpertLayout
    routing_plan: np.ndarray
    cost: CostBreakdown
    planned_from_history: bool


class LoadBalancingPlanner:
    """Per-layer planner combining the layout tuner and the token dispatcher."""

    def __init__(self, topology: ClusterTopology, cost_model: MoECostModel,
                 num_experts: int, config: PlannerConfig):
        self.topology = topology
        self.cost_model = cost_model
        self.num_experts = num_experts
        self.config = config
        self.tuner = ExpertLayoutTuner(topology, cost_model, config.capacity,
                                       config.tuner)
        self._latest: Dict[int, np.ndarray] = {}
        self._pending_layouts: Dict[int, ExpertLayout] = {}
        self._fallback_layout = self._build_fallback_layout()

    # ------------------------------------------------------------------
    def _build_fallback_layout(self) -> ExpertLayout:
        """Layout used before any routing has been observed.

        When the classic EP layout is expressible (``E`` divisible by ``C`` and
        ``N`` divisible by ``E / C``) we start from it; otherwise we fall back
        to a round-robin assignment that fills every device's capacity.
        """
        n = self.topology.num_devices
        capacity = self.config.capacity
        try:
            return static_ep_layout(n, self.num_experts, capacity)
        except ValueError:
            return round_robin_layout(n, self.num_experts, capacity)

    # ------------------------------------------------------------------
    # Observation (asynchronous layout tuner input)
    # ------------------------------------------------------------------
    def observe(self, layer: int, routing: np.ndarray) -> None:
        """Record the observed routing ``R`` of ``layer`` for the current iteration."""
        routing = np.asarray(routing, dtype=np.int64)
        if routing.shape != (self.topology.num_devices, self.num_experts):
            raise ValueError("routing matrix has the wrong shape")
        self._latest[layer] = routing.copy()

    # ------------------------------------------------------------------
    # Asynchronous layout tuning
    # ------------------------------------------------------------------
    def tune_layout(self, layer: int) -> ExpertLayout:
        """Run the layout tuner for ``layer`` on its newest observed routing.

        This models the CPU-side solve that happens while the GPU computes the
        current iteration; the returned layout is cached and used by the next
        :meth:`step` for this layer.  Before any observation it is the
        fallback layout.
        """
        routing = self._latest.get(layer)
        if routing is None:
            layout = self._fallback_layout.copy()
        else:
            layout = self.tuner.solve(routing).layout
        self._pending_layouts[layer] = layout
        return layout

    def current_layout(self, layer: int) -> ExpertLayout:
        """The layout that will be used for the next iteration of ``layer``."""
        return self._pending_layouts.get(layer, self._fallback_layout).copy()

    # ------------------------------------------------------------------
    # Synchronous dispatch (token dispatcher)
    # ------------------------------------------------------------------
    def dispatch(self, frame: np.ndarray,
                 layouts: List[ExpertLayout]) -> np.ndarray:
        """Run the synchronous token dispatcher (lite routing) on a frame.

        Routes layer ``l`` of the ``(L, N, E)`` frame onto ``layouts[l]`` in
        one batch and returns the ``(L, N, E, N)`` plans.
        """
        return lite_route_batch(frame, layouts, self.topology)

    # ------------------------------------------------------------------
    # The planner step and full per-iteration planning
    # ------------------------------------------------------------------
    def step(self, frame: np.ndarray
             ) -> Tuple[List[ExpertLayout], np.ndarray]:
        """Plan one iteration's ``(L, N, E)`` frame: ``(layouts, plans)``.

        Each layer's layout is the one tuned from earlier observations
        (asynchronous adaptation); one dispatch routes the iteration's
        actual routing of every layer onto them, giving ``(L, N, E, N)``
        plans.  Afterwards each layer's routing is observed and the layout
        for its next iteration is tuned, in layer order.
        """
        frame = _check_frame(frame)
        layouts = [self.current_layout(layer) for layer in range(len(frame))]
        # Telemetry phases (no-op spans while no tracer is armed).
        with _span("planner.lite-route", layers=len(frame)):
            plans = self.dispatch(frame, layouts)
        for layer, routing in enumerate(frame):
            with _span("planner.layout-tune", layer=layer):
                self.observe(layer, routing)
                self.tune_layout(layer)
        return layouts, plans

    def plan_iteration(self, routing_by_layer: np.ndarray) -> List[IterationPlan]:
        """Plan one training iteration for every MoE layer.

        Args:
            routing_by_layer: ``(layers, N, E)`` actual routing of the current
                iteration (what the gate just produced).

        Returns:
            One :class:`IterationPlan` per layer: the :meth:`step` of that
            layer plus the cost-model breakdown of its ``(A, S)``.
        """
        frame = _check_frame(routing_by_layer)
        planned = [layer in self._pending_layouts for layer in range(len(frame))]
        layouts, plans = self.step(frame)
        results: List[IterationPlan] = []
        for layer, (layout, plan) in enumerate(zip(layouts, plans)):
            with _span("planner.cost-eval", layer=layer):
                cost = self.cost_model.evaluate(plan)
            results.append(IterationPlan(
                layout=layout, routing_plan=plan, cost=cost,
                planned_from_history=planned[layer]))
        return results

    def reset(self) -> None:
        """Forget observed routing and pending layouts; re-seed the tuner."""
        self._latest.clear()
        self._pending_layouts.clear()
        self.tuner.reset()
