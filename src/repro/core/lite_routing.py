"""Lite routing (Algorithm 3): the synchronous token dispatcher.

Given the routing matrix ``R`` (tokens per device per expert) and the expert
layout ``A``, lite routing decides which replica of an expert each token goes
to.  The algorithm is topology-aware and requires no global coordination:

* if replicas of the expert exist **within the sender's node**, tokens are
  split evenly among those intra-node replicas (keeping traffic on NVLink);
* otherwise tokens are split evenly among **all** replicas across the cluster.

The result is the routing plan ``S[i, j, k]`` consumed by the cost model, the
All-to-All dispatcher and the iteration simulator.

:func:`lite_route_batch` is the one kernel: it routes ``M`` (routing, layout)
rows at once.  The rows are an iteration's ``(L, N, E)`` routing frame, one
layout per layer, when the planner or a baseline policy dispatches a whole
iteration; or one shared routing matrix under ``M`` candidate layouts, when
the layout tuner scores its candidates.  :func:`lite_route` -- one routing
matrix under one layout -- is a batch of one.  The per-rank, per-expert loop
the kernel replaced lives on as the oracle
``repro.scalar_reference.scalar_lite_route``.

Nodes are contiguous blocks of ``devices_per_node`` (``D``) ranks, so almost
every row only splits over its own node's ``D`` devices: the kernel splits
those rows over ``D`` columns, not all ``N``, and writes them into the
node-diagonal blocks of the plan.  Only rows whose node lacks the expert
split across the cluster, over that expert's hosting devices.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout


def _split_evenly_batched(totals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Split each ``totals[m]`` integer tokens proportionally to ``weights[m]``.

    Args:
        totals: ``(M,)`` non-negative token counts.
        weights: ``(M, K)`` non-negative weights; every row whose total is
            positive must have a positive weight sum (rows with a zero total
            yield all zeros and their weights are ignored).

    Returns:
        ``(M, K)`` int64 splits, each row exactly equal to the single-row
        oracle ``repro.scalar_reference.scalar_split_evenly``: floor of the
        proportional share first, leftovers to the largest fractional shares
        with ties broken by index.  The split is deterministic, so all
        devices running the algorithm independently agree on the result.
    """
    totals = np.asarray(totals, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(totals < 0):
        raise ValueError("total must be non-negative")
    weight_sums = weights.sum(axis=1)
    active = totals > 0
    if np.any(active & (weight_sums <= 0)):
        raise ValueError("weights must sum to a positive value")
    safe_sums = np.where(weight_sums > 0, weight_sums, 1.0)
    raw = totals[:, None] * weights / safe_sums[:, None]
    base = np.floor(raw).astype(np.int64)
    remainder = totals - base.sum(axis=1)
    frac = raw - base
    # Rank the fractional shares per row (stable => ties broken by index)
    # and hand each row's leftover tokens to its top-`remainder` ranks.
    order = np.argsort(-frac, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(order.shape[0])[:, None]
    ranks[rows, order] = np.arange(order.shape[1])[None, :]
    base += ranks < remainder[:, None]
    return base


def lite_route(routing: np.ndarray, layout: ExpertLayout,
               topology: ClusterTopology) -> np.ndarray:
    """Route ``(N, E)`` routing ``R`` under one layout: the ``(N, E, N)``
    plan ``S``, with ``S.sum(axis=2) == R`` and tokens only on devices that
    restore their expert.  A batch of one of :func:`lite_route_batch`."""
    return lite_route_batch(routing, [layout], topology)[0]


def lite_route_batch(routing: np.ndarray, layouts: "list[ExpertLayout]",
                     topology: ClusterTopology) -> np.ndarray:
    """Run lite routing for ``M`` (routing, layout) rows of one cluster at once.

    Each row routes its own ``(N, E)`` routing matrix onto its own layout:
    the base policy routes an iteration's ``(L, N, E)`` frame onto one
    layout per layer.  A 2-D routing matrix is the shared case -- the
    layout tuner scores every candidate layout on the *same* routing -- and
    is routed as ``M`` identical rows.  Since :func:`_split_evenly_batched`
    is purely row-wise, ``plans[m]`` depends only on row ``m``.

    The kernel is node-blocked and loop-free.  Replicas are viewed as
    ``(M, G, E, D)`` node blocks; every row whose node hosts the expert is
    split over that node's ``D`` devices in one call and written into the
    node-diagonal blocks of the ``(M, G, D, E, G, D)`` plan view.  Only the
    rows whose node lacks the expert take a second call, over the ``K``
    devices across the cluster that host their expert.  Dropping
    zero-weight columns changes no split (they never receive a leftover
    token) and both calls keep the column order, so ties break by device
    index and the plans equal ``scalar_lite_route`` exactly.

    Args:
        routing: ``(M, N, E)`` routing matrices, one per layout, or one
            ``(N, E)`` routing matrix ``R`` shared by all layouts.
        layouts: Expert layouts (all for the same cluster).
        topology: Cluster topology.

    Returns:
        ``(M, N, E, N)`` integer plans, ``plans[m]`` routing row ``m`` under
        ``layouts[m]``.
    """
    routing = np.asarray(routing, dtype=np.int64)
    if not layouts:
        raise ValueError("need at least one candidate layout")
    n = layouts[0].num_devices
    num_experts = layouts[0].num_experts
    for layout in layouts:
        if layout.num_devices != n or layout.num_experts != num_experts:
            raise ValueError("candidate layouts must share one cluster shape")
    m, g, d = len(layouts), topology.num_nodes, topology.devices_per_node
    if routing.shape == (n, num_experts):
        # ndarray.repeat, not np.broadcast_to, so a batch of one stays cheap.
        routing = routing[None].repeat(m, axis=0)
    elif routing.shape != (m, n, num_experts):
        raise ValueError(
            f"routing must have shape ({n}, {num_experts}) or "
            f"({m}, {n}, {num_experts}), got {routing.shape}")
    if topology.num_devices != n:
        raise ValueError("topology size does not match the layouts")
    if np.any(routing < 0):
        raise ValueError("token counts must be non-negative")
    replica = np.stack([layout.assignment.T for layout in layouts]
                       ).astype(np.float64)                      # (M, E, N)
    blocks = replica.reshape(m, num_experts, g, d).transpose(0, 2, 1, 3)
    has_intra = blocks.sum(axis=3) > 0                           # (M, G, E)
    totals = routing.reshape(m, g, d, num_experts)
    # The first node (then expert) with demand for an expert that its
    # row's layout hosts nowhere.
    missing = ((totals.sum(axis=2) > 0)
               & (replica.sum(axis=2) <= 0)[:, None]).any(axis=0)  # (G, E)
    if missing.any():
        expert = int(np.argmax(missing[np.argmax(missing.any(axis=1))]))
        raise ValueError(f"expert {expert} has no replica in the layout")
    # One row per (layout, sender, expert), in (M, G, D, E) order.
    intra = has_intra[:, :, None]                                # (M, G, 1, E)
    # Rows whose node hosts the expert split over that node's D devices
    # (keeping traffic on NVLink).
    local = _split_evenly_batched(
        np.where(intra, totals, 0).reshape(-1),
        blocks[:, :, None].repeat(d, axis=2).reshape(-1, d),
    ).reshape(m, g, d, num_experts, d)
    plans = np.zeros((m, g, d, num_experts, g, d), dtype=np.int64)
    nodes = np.arange(g)
    plans[:, nodes, :, :, nodes] = local.transpose(1, 0, 2, 3, 4)
    # The rest split over the expert's replicas across the whole cluster.
    # Their weights depend only on (layout, expert), so each row splits
    # over the devices hosting its expert (padded to the most any fallback
    # expert has, K) in index order, not all N.
    cands, g_idx, d_idx, experts = np.nonzero(~intra & (totals > 0))
    plans = plans.reshape(m, n, num_experts, n)
    if cands.size:
        k = int((replica > 0).sum(axis=2)[cands, experts].max())
        hosts = np.argsort(replica <= 0, axis=2, kind="stable")[:, :, :k]
        senders = g_idx * d + d_idx
        plans[cands[:, None], senders[:, None], experts[:, None],
              hosts[cands, experts]] = _split_evenly_batched(
            routing[cands, senders, experts],
            np.take_along_axis(replica, hosts, axis=2)[cands, experts])
    return plans
