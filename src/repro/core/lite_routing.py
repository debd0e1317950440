"""Lite routing (Algorithm 3): the synchronous token dispatcher.

Given the routing matrix ``R`` (tokens per device per expert) and the expert
layout ``A``, lite routing decides which replica of an expert each token goes
to.  The algorithm is topology-aware and requires no global coordination:

* if replicas of the expert exist **within the sender's node**, tokens are
  split evenly among those intra-node replicas (keeping traffic on NVLink);
* otherwise tokens are split evenly among **all** replicas across the cluster.

The result is the routing plan ``S[i, j, k]`` consumed by the cost model, the
All-to-All dispatcher and the iteration simulator.

:func:`lite_route_batch` is the one kernel: it routes one routing matrix under
``M`` layouts at once, which is how the layout tuner scores its candidates.
:func:`lite_route` -- the dispatcher's call for the layout actually in use --
is a batch of one.  The per-rank, per-expert loop it replaced lives on as the
oracle ``repro.scalar_reference.scalar_lite_route``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout


def _split_evenly_batched(totals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_split_evenly`: split ``totals[m]`` along ``weights[m]``.

    Args:
        totals: ``(M,)`` non-negative token counts.
        weights: ``(M, K)`` non-negative weights; every row whose total is
            positive must have a positive weight sum (rows with a zero total
            yield all zeros and their weights are ignored).

    Returns:
        ``(M, K)`` int64 splits, each row exactly equal to
        ``_split_evenly(totals[m], weights[m])``: floor of the proportional
        share first, leftovers to the largest fractional shares with ties
        broken by index.
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


def _split_evenly(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` integer tokens proportionally to ``weights``.

    The split is deterministic: the integer floor of the proportional share is
    assigned first and the remaining tokens are handed out one-by-one in index
    order, so tests (and all devices running the algorithm independently)
    agree on the result.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if total < 0:
        raise ValueError("total must be non-negative")
    if weights.sum() <= 0:
        raise ValueError("weights must sum to a positive value")
    return _split_evenly_batched(np.asarray([total]), weights)[0]


def lite_route(routing: np.ndarray, layout: ExpertLayout,
               topology: ClusterTopology) -> np.ndarray:
    """Route ``(N, E)`` routing ``R`` under one layout: the ``(N, E, N)``
    plan ``S``, with ``S.sum(axis=2) == R`` and tokens only on devices that
    restore their expert.  A batch of one of :func:`lite_route_batch`."""
    return lite_route_batch(routing, [layout], topology)[0]


def lite_route_batch(routing: np.ndarray, layouts: "list[ExpertLayout]",
                     topology: ClusterTopology) -> np.ndarray:
    """Run lite routing under ``M`` layouts of one cluster in one batch.

    The layout tuner scores every candidate layout on the *same* routing
    matrix; since :func:`_split_evenly_batched` is purely row-wise, the
    ``(candidate, sender, expert)`` rows of all candidates stack into a
    single call, and ``plans[m]`` does not depend on the other candidates.

    Args:
        routing: ``(N, E)`` routing matrix ``R`` shared by all candidates.
        layouts: Candidate expert layouts (all for the same cluster).
        topology: Cluster topology.

    Returns:
        ``(M, N, E, N)`` integer plans, ``plans[m]`` routing ``R`` under
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
    if routing.shape != (n, num_experts):
        raise ValueError(
            f"routing must have shape ({n}, {num_experts}), "
            f"got {routing.shape}")
    if topology.num_devices != n:
        raise ValueError("topology size does not match the layouts")
    if np.any(routing < 0):
        raise ValueError("token counts must be non-negative")
    m = len(layouts)
    replica = np.stack([layout.assignment.T for layout in layouts]
                       ).astype(np.float64)                      # (M, E, N)
    plans = np.zeros((m, n, num_experts, n), dtype=np.int64)
    for node in range(topology.num_nodes):
        ranks = np.asarray(topology.devices_on_node(node))
        node_routing = routing[ranks]                            # (R, E)
        # Per-candidate node target weights, shared by every sender on the
        # node: intra-node replicas when the node hosts any (keeping traffic
        # on NVLink), global replicas otherwise.
        intra = np.zeros_like(replica)
        intra[:, :, ranks] = replica[:, :, ranks]
        has_intra = intra.sum(axis=2) > 0                        # (M, E)
        weights = np.where(has_intra[:, :, None], intra, replica)
        missing = (node_routing.sum(axis=0) > 0) & (weights.sum(axis=2) <= 0)
        if missing.any():
            expert = int(np.argmax(missing.any(axis=0)))
            raise ValueError(f"expert {expert} has no replica in the layout")
        # One row per (candidate, sender, expert).  ndarray.repeat, not
        # np.tile/np.broadcast_to, so a batch of one costs no more than the
        # single-layout loop it replaced.
        num_ranks = len(ranks)
        totals = node_routing.reshape(1, -1).repeat(m, axis=0)   # (M, R*E)
        tiled = weights[:, None].repeat(num_ranks, axis=1)       # (M, R, E, N)
        plans[:, ranks] = _split_evenly_batched(
            totals.reshape(-1), tiled.reshape(-1, n)
        ).reshape(m, num_ranks, num_experts, n)
    return plans
