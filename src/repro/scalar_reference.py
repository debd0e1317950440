"""Scalar reference kernels: the one oracle for the vectorized kernels.

The vectorized kernels (matrix-form ``all_to_all``, batched routing draws,
batched lite routing and cost evaluation, loop-free EP group routing,
lexicographic replica placement) replaced per-pair / per-device / per-plan
Python code.  This module keeps
the original semantics in one canonical place so that

* the tests can assert equivalence against the true original behaviour on
  the same inputs, and
* the benchmarks can patch or call the scalar kernels and measure an
  honest before/after on the same host

without maintaining two drifting copies of the reference code.  Nothing in
the production pipeline imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import CostBreakdown


def scalar_all_to_all(model, traffic, group=None):
    """Original O(n^2) per-pair loop of ``CollectiveCostModel.all_to_all``.

    Signature-compatible with the method (``model`` binds as ``self`` when
    patched onto the class).
    """
    members = list(model._resolve_group(group))
    traffic = np.asarray(traffic, dtype=np.float64)
    if traffic.shape != (len(members), len(members)):
        raise ValueError("traffic matrix shape mismatch")
    if np.any(traffic < 0):
        raise ValueError("traffic entries must be non-negative")
    n = len(members)
    if n == 1:
        return 0.0
    send_time = np.zeros(n)
    recv_time = np.zeros(n)
    latency = np.zeros(n)
    for a in range(n):
        for b in range(n):
            if a == b or traffic[a, b] == 0:
                continue
            bw = model.topology.bandwidth(members[a], members[b]) * model.efficiency
            t = traffic[a, b] / bw
            send_time[a] += t
            recv_time[b] += t
            latency[a] = max(latency[a],
                             model.topology.latency(members[a], members[b]))
    return float((np.maximum(send_time, recv_time) + latency).max())


def scalar_draw_routing_frame(rng, probs_by_layer, config):
    """Original per-(layer, device) loop of ``draw_routing_frame``."""
    assignments = config.tokens_per_device * config.top_k
    out = np.zeros((config.num_layers, config.num_devices, config.num_experts),
                   dtype=np.int64)
    for layer in range(config.num_layers):
        probs = probs_by_layer[layer]
        for dev in range(config.num_devices):
            if config.device_noise > 0:
                noisy = probs * rng.lognormal(
                    0.0, config.device_noise, size=config.num_experts)
                noisy = noisy / noisy.sum()
            else:
                noisy = probs
            out[layer, dev] = rng.multinomial(assignments, noisy)
    return out


def scalar_split_evenly(total, weights):
    """Original single-row ``_split_evenly`` (floor + stable-argsort ties)."""
    weights = np.asarray(weights, dtype=np.float64)
    raw = total * weights / weights.sum()
    base = np.floor(raw).astype(np.int64)
    remainder = int(total - base.sum())
    if remainder > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:remainder]] += 1
    return base


def scalar_lite_route(routing, layout, topology):
    """Original per-rank, per-expert lite-routing loop (Algorithm 3)."""
    routing = np.asarray(routing, dtype=np.int64)
    n = layout.num_devices
    plan = np.zeros((n, layout.num_experts, n), dtype=np.int64)
    for rank in range(n):
        node_devices = np.asarray(
            topology.devices_on_node(topology.node(rank)))
        for expert in range(layout.num_experts):
            tokens = int(routing[rank, expert])
            if tokens == 0:
                continue
            replica_counts = layout.assignment[:, expert]
            intra = np.zeros(n, dtype=np.int64)
            intra[node_devices] = replica_counts[node_devices]
            targets = intra if intra.sum() > 0 else replica_counts
            if targets.sum() == 0:
                raise ValueError(f"expert {expert} has no replica")
            plan[rank, expert] = scalar_split_evenly(tokens, targets)
    return plan


def scalar_ep_group_route(routing, capacity):
    """Original per-sender, per-expert loop of ``ep_group_route``."""
    routing = np.asarray(routing, dtype=np.int64)
    num_devices, num_experts = routing.shape
    if num_experts % capacity != 0:
        raise ValueError("num_experts must be a multiple of capacity")
    p_ep = num_experts // capacity
    if num_devices % p_ep != 0:
        raise ValueError("num_devices must be a multiple of E/C")
    plan = np.zeros((num_devices, num_experts, num_devices), dtype=np.int64)
    for sender in range(num_devices):
        row_start = (sender // p_ep) * p_ep
        for expert in range(num_experts):
            owner = row_start + expert // capacity
            plan[sender, expert, owner] = routing[sender, expert]
    return plan


def scalar_evaluate(cost_model, plan):
    """Original single-plan ``MoECostModel.evaluate`` arithmetic: pairwise
    traffic over ``1/bw``, then the slowest device's compute."""
    plan = np.asarray(plan, dtype=np.float64)
    pairwise = plan.sum(axis=1)
    seconds = float(np.sum(pairwise
                           * (1.0 / cost_model.topology.bandwidth_matrix())))
    comm = cost_model.num_all_to_all * cost_model.comm_bytes_per_token * seconds
    tokens = plan.sum(axis=(0, 1))
    factor = 4.0 if cost_model.activation_checkpointing else 3.0
    comp = float(factor * tokens.max() * cost_model.compute_flops_per_token
                 / cost_model.device_flops)
    return CostBreakdown(comm + comp, comm, comp, tokens, int(tokens.max()))


def scalar_select_device(node_counts, node_of, device_slots, device_loads,
                         capacity):
    """Original node-preference scan of relocation's ``_select_device``."""
    has_capacity = device_slots < capacity
    if not np.any(has_capacity):
        raise ValueError("no device has spare capacity for the replica")
    for count in np.sort(np.unique(node_counts)):
        candidate_nodes = np.nonzero(node_counts == count)[0]
        mask = has_capacity & np.isin(node_of, candidate_nodes)
        candidates = np.nonzero(mask)[0]
        if candidates.size == 0:
            continue
        return int(candidates[int(np.argmin(device_loads[candidates]))])
    candidates = np.nonzero(has_capacity)[0]
    return int(candidates[int(np.argmin(device_loads[candidates]))])
