"""Static expert parallelism (GShard / Megatron / FSDP+EP layout).

Expert placement is fixed for the whole run: the devices form ``P_ep = E / C``
expert-parallel groups and EP rank ``r`` always hosts experts
``[r * C, (r + 1) * C)``.  Each data-parallel replica routes its tokens to the
owner inside its own EP group, so a hot expert overloads every device that
hosts it -- this is exactly the imbalance Fig. 1 and Fig. 6(a) illustrate.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import LayerChoice, LoadBalancingPolicy
from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout, static_ep_layout


def ep_group_route(routing: np.ndarray, capacity: int,
                   local: Optional[np.ndarray] = None) -> np.ndarray:
    """Classic EP routing: tokens go to the expert owner inside the sender's group.

    The devices are organised in rows of ``P_ep = E / C`` consecutive ranks;
    sender ``i`` sends tokens for expert ``j`` to the device of its own row
    whose EP rank is ``j // C``.  Loop-free: every ``(sender, expert)``
    count lands in one cell of the plan, written by one fancy-index
    assignment.  The per-pair loop lives on as the oracle
    ``repro.scalar_reference.scalar_ep_group_route``.

    Args:
        routing: ``(N, E)`` routing matrix ``R``, or an ``(L, N, E)`` frame.
        capacity: Experts per device ``C``.
        local: Optional boolean mask, broadcastable to ``routing``: the
            ``(sender, expert)`` pairs whose tokens the sender computes
            itself.  Under the static placement a sender hosts exactly the
            experts it owns in its row, so passing the layout's hosting
            mask changes nothing there; FasterMoE's shadow experts, hosted
            on every device, stay local.

    Returns:
        ``(N, E, N)`` plan ``S`` (``(L, N, E, N)`` plans for a frame).
    """
    routing = np.asarray(routing, dtype=np.int64)
    num_devices, num_experts = routing.shape[-2:]
    if num_experts % capacity != 0:
        raise ValueError("num_experts must be a multiple of capacity")
    p_ep = num_experts // capacity
    if num_devices % p_ep != 0:
        raise ValueError("num_devices must be a multiple of E/C")
    senders = np.arange(num_devices)[:, None]
    owner = (senders // p_ep) * p_ep + np.arange(num_experts) // capacity
    if local is not None:
        owner = np.where(local, senders, owner)
    plan = np.zeros(routing.shape + (num_devices,), dtype=np.int64)
    np.put_along_axis(plan, np.broadcast_to(owner, routing.shape)[..., None],
                      routing[..., None], axis=-1)
    return plan


class StaticEPPolicy(LoadBalancingPolicy):
    """Fixed expert placement with no replication or relocation."""

    name = "static-ep"

    def __init__(self, topology: ClusterTopology, num_experts: int,
                 capacity: int, expert_param_bytes: float):
        super().__init__(topology, num_experts, capacity, expert_param_bytes)
        self._layout = static_ep_layout(topology.num_devices, num_experts, capacity)

    @property
    def layout(self) -> ExpertLayout:
        """The fixed layout used in every iteration."""
        return self._layout.copy()

    def choose_layer(self, layer: int, routing: np.ndarray) -> LayerChoice:
        return LayerChoice(layout=self._layout.copy(),
                           metadata={"static": True})

    def dispatch(self, frame: np.ndarray,
                 layouts: List[ExpertLayout]) -> np.ndarray:
        """EP group routing of the whole frame; tokens for an expert the
        sender hosts (its own, or a shadow) stay on the sender."""
        hosted = np.stack([layout.assignment for layout in layouts]) > 0
        return ep_group_route(frame, self.capacity, local=hosted)
