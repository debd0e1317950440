"""Common interface of the load-balancing policies.

A policy is driven one iteration at a time by the simulator (or the trainer).
For every MoE layer of the iteration it must produce a
:class:`PolicyDecision`: the expert layout ``A``, the token routing plan ``S``
for the iteration's actual routing ``R``, and the extra communication the
policy's re-layout mechanism costs in that iteration.

The unit of work is the iteration's ``(L, N, E)`` routing frame.  A policy
only chooses each layer's layout and extra bytes (:meth:`choose_layer`);
:meth:`LoadBalancingPolicy.decide_iteration` then routes the whole frame in
one batched :meth:`~LoadBalancingPolicy.dispatch` -- lite routing by
default, EP group routing for the static-placement systems.  LAER instead
runs the planner's frame step, which dispatches and then tunes.

The extra communication is split into two buckets because the simulator charges
them differently:

* ``relayout_bytes_exposed`` -- parameter / optimizer-state migration or
  shadow-expert broadcast traffic that happens on the critical path (none of
  the baselines can hide it; FSEP hides it by construction, so LAER reports 0);
* ``grad_sync_extra_bytes`` -- additional gradient synchronisation caused by
  replicated experts living on multiple devices outside a fully-sharded
  scheme (FasterMoE / Prophet / FlexMoE on top of EP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.core.lite_routing import lite_route_batch


@dataclass
class LayerChoice:
    """What a policy chose for one MoE layer, before the frame is dispatched.

    Attributes:
        layout: Expert layout ``A`` used during the iteration.
        relayout_bytes_exposed: See :class:`PolicyDecision`.
        grad_sync_extra_bytes: See :class:`PolicyDecision`.
        metadata: Free-form diagnostics.
    """

    layout: ExpertLayout
    relayout_bytes_exposed: float = 0.0
    grad_sync_extra_bytes: float = 0.0
    metadata: dict = field(default_factory=dict)


@dataclass
class PolicyDecision:
    """What a policy decided for one MoE layer in one iteration.

    Attributes:
        layout: Expert layout ``A`` used during the iteration.
        routing_plan: Token routing plan ``S`` of shape ``(N, E, N)``.
        relayout_bytes_exposed: Per-device bytes of re-layout traffic that sit
            on the critical path of this iteration (0 when nothing changed or
            the system hides re-layout entirely).
        grad_sync_extra_bytes: Per-device bytes of extra gradient reduction due
            to replicated experts.
        metadata: Free-form diagnostics (e.g. number of replicas changed).
    """

    layout: ExpertLayout
    routing_plan: np.ndarray
    relayout_bytes_exposed: float = 0.0
    grad_sync_extra_bytes: float = 0.0
    metadata: dict = field(default_factory=dict)


class LoadBalancingPolicy:
    """Base class for the expert placement / routing policies.

    Subclasses implement :meth:`choose_layer`; they may override
    :meth:`dispatch` (how a frame is routed onto the chosen layouts) or,
    like LAER, :meth:`plan_frame` (choose and dispatch in one step).
    """

    #: Human-readable system name used in reports.
    name: str = "base"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if num_experts <= 0:
            raise ValueError("num_experts must be positive")
        if expert_param_bytes < 0:
            raise ValueError("expert_param_bytes must be non-negative")
        self.topology = topology
        self.num_experts = num_experts
        self.capacity = capacity
        self.expert_param_bytes = expert_param_bytes
        self._iteration = 0

    # ------------------------------------------------------------------
    def choose_layer(self, layer: int, routing: np.ndarray) -> LayerChoice:
        """Choose the layout (and extra bytes) of one layer of the current
        iteration; ``routing`` is that layer's ``(N, E)`` routing."""
        raise NotImplementedError

    def dispatch(self, frame: np.ndarray,
                 layouts: List[ExpertLayout]) -> np.ndarray:
        """Route the ``(L, N, E)`` frame onto one layout per layer: the
        ``(L, N, E, N)`` plans, by lite routing (Algorithm 3) in one batch."""
        return lite_route_batch(frame, layouts, self.topology)

    def plan_frame(self, frame: np.ndarray
                   ) -> Tuple[List[LayerChoice], np.ndarray]:
        """Choose every layer's layout in order, then dispatch the frame."""
        choices = [self.choose_layer(layer, routing)
                   for layer, routing in enumerate(frame)]
        return choices, self.dispatch(frame, [c.layout for c in choices])

    def decide_iteration(self, routing_by_layer: np.ndarray) -> List[PolicyDecision]:
        """Decide every layer of an iteration, then advance the iteration counter."""
        frame = np.asarray(routing_by_layer, dtype=np.int64)
        if frame.ndim != 3:
            raise ValueError("routing_by_layer must have shape (layers, N, E)")
        choices, plans = self.plan_frame(frame)
        self._iteration += 1
        return [PolicyDecision(layout=choice.layout, routing_plan=plan,
                               relayout_bytes_exposed=choice.relayout_bytes_exposed,
                               grad_sync_extra_bytes=choice.grad_sync_extra_bytes,
                               metadata=choice.metadata)
                for choice, plan in zip(choices, plans)]

    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        """Number of iterations decided so far."""
        return self._iteration

    def reset(self) -> None:
        """Reset all adaptive state (history, cached layouts, counters)."""
        self._iteration = 0

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def migration_bytes(self, old_layout: Optional[ExpertLayout],
                        new_layout: ExpertLayout,
                        state_multiplier: float = 6.0) -> float:
        """Bytes moved when the expert layout changes between iterations.

        Relocating an expert replica moves its parameters plus optimizer state;
        the paper quotes a typical multiplier of 6x the bf16 parameter size
        (fp32 master weights + two Adam moments).
        """
        if old_layout is None:
            return 0.0
        changed = new_layout.difference(old_layout)
        return changed * self.expert_param_bytes * state_multiplier
