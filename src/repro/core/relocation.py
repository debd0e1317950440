"""Expert relocation (Algorithm 1): place replicas on devices.

Given the replica count of every expert (from Algorithm 4 or the even scheme)
and the expert loads, the greedy relocation places replicas one by one, largest
per-replica load first.  For each replica it prefers the node(s) currently
holding the fewest replicas of that expert (so lite routing's intra-node
splitting stays balanced) and, within those nodes, the device with the smallest
accumulated load and free capacity.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout


#: Replica count read for a full device in :func:`_select_device`.
_FULL = np.iinfo(np.int64).max


def relocate_experts(expert_replicas: np.ndarray, expert_loads: np.ndarray,
                     topology: ClusterTopology, capacity: int) -> ExpertLayout:
    """Algorithm 1: greedy topology-aware placement of expert replicas.

    Args:
        expert_replicas: ``(E,)`` replica counts per expert, summing to at most
            ``N * C`` (the layout tuner always passes exactly ``N * C``).
        expert_loads: ``(E,)`` total token load of each expert.
        topology: Cluster topology (for node awareness).
        capacity: Expert capacity per device ``C``.

    Returns:
        An :class:`ExpertLayout` with every replica placed and no device
        exceeding its capacity.
    """
    expert_replicas = np.asarray(expert_replicas, dtype=np.int64)
    expert_loads = np.asarray(expert_loads, dtype=np.float64)
    num_experts = expert_replicas.shape[0]
    num_devices = topology.num_devices
    if expert_loads.shape != (num_experts,):
        raise ValueError("expert_loads and expert_replicas must align")
    if np.any(expert_replicas < 1):
        raise ValueError("every expert needs at least one replica")
    if np.any(expert_loads < 0):
        raise ValueError("expert loads must be non-negative")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    total_replicas = int(expert_replicas.sum())
    if total_replicas > num_devices * capacity:
        raise ValueError(
            f"{total_replicas} replicas exceed the cluster capacity "
            f"{num_devices * capacity}")

    # Build the replica list: one entry per replica, carrying the average load
    # a replica of that expert will serve (Line 3-4), sorted descending by
    # load with ties broken by expert id for determinism (Line 5).
    replica_experts = np.repeat(np.arange(num_experts), expert_replicas)
    replica_loads = np.repeat(expert_loads / expert_replicas, expert_replicas)
    order = np.lexsort((replica_experts, -replica_loads))
    replica_list: List[Tuple[int, float]] = list(
        zip(replica_experts[order].tolist(), replica_loads[order].tolist()))

    assignment = np.zeros((num_devices, num_experts), dtype=np.int64)
    device_slots = np.zeros(num_devices, dtype=np.int64)
    device_loads = np.zeros(num_devices, dtype=np.float64)
    node_of = topology.device_nodes()
    # Replica count of every expert on every node, maintained incrementally so
    # the per-replica work stays O(nodes + devices) instead of O(nodes * devices).
    # One contiguous (G,) row per expert.
    expert_node_counts = np.zeros((num_experts, topology.num_nodes), dtype=np.int64)

    for expert, load in replica_list:
        device = _select_device(expert_node_counts[expert], node_of,
                                device_slots, device_loads, capacity)
        assignment[device, expert] += 1
        expert_node_counts[expert, node_of[device]] += 1
        device_loads[device] += load
        device_slots[device] += 1

    return ExpertLayout(assignment, capacity)


def _select_device(node_counts: np.ndarray, node_of: np.ndarray,
                   device_slots: np.ndarray, device_loads: np.ndarray,
                   capacity: int) -> int:
    """Pick the device for the next replica (Lines 8-10 of Algorithm 1).

    Prefer nodes holding the fewest replicas of the expert, restricted to
    devices with spare capacity; among candidates take the device with the
    smallest accumulated load.  If every device on the preferred nodes is full,
    progressively relax to nodes with the next-fewest replicas.
    """
    # The node-preference scan is a lexicographic argmin over the devices
    # with spare capacity: minimise (replicas of the expert already on the
    # device's node, accumulated device load, device index).  Full devices
    # read the sentinel; when the minimum is the sentinel, all are full.
    per_device_count = node_counts[node_of]
    per_device_count[device_slots >= capacity] = _FULL
    fewest = per_device_count.min()
    if fewest == _FULL:
        raise ValueError("no device has spare capacity for the replica")
    # Candidates ascend, so argmin's first minimum is the lowest index.
    candidates = (per_device_count == fewest).nonzero()[0]
    return int(candidates[device_loads[candidates].argmin()])
