"""Joint communication + computation cost model of the planner (Sec. 3.2).

Given an expert re-layout strategy ``A`` and a token routing strategy ``S``
(``S[i, j, k]`` = tokens on device ``i`` routed to expert ``j`` that are sent
to device ``k``), the planner minimises

``T = T_comm + T_comp``

where ``T_comm = 4 * V_comm * sum_{i,j,k} S[i,j,k] / bw(i, k)`` accounts for
the four All-to-All operations per MoE layer (dispatch + combine, forward and
backward) and ``T_comp = (3 + F_ckpt) * max_i V_comp * tokens_i / B_comp``
takes the slowest device's expert computation, counting backward as twice the
forward cost and one extra forward when activation checkpointing is enabled.

Both terms come out of one kernel, :meth:`MoECostModel.evaluate_batch`, which
scores ``M`` candidate plans at once; :meth:`MoECostModel.evaluate` is a batch
of one.  The same class also validates the constraints (3)-(4): every device
restores at most ``C`` distinct experts and every routed token reaches a device
that hosts its expert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.layout import ExpertLayout
from repro.workloads.model_configs import MoEModelConfig


@dataclass(frozen=True)
class CostBreakdown:
    """Planner cost-model output for one candidate ``(A, S)`` pair.

    Attributes:
        total: ``T_comm + T_comp`` in seconds.
        comm_time: All-to-All dispatch/combine time (forward + backward).
        comp_time: Expert computation time of the most loaded device
            (forward + backward, + recompute when checkpointing).
        tokens_per_device: ``(N,)`` token-expert assignments computed on each
            device under the routing ``S``.
        max_tokens: Maximum of ``tokens_per_device``.
    """

    total: float
    comm_time: float
    comp_time: float
    tokens_per_device: np.ndarray
    max_tokens: int


@dataclass
class MoECostModel:
    """Analytic cost model used by the expert layout tuner.

    Attributes:
        topology: Cluster topology providing ``bw(i, k)``.
        comm_bytes_per_token: ``V_comm`` -- bytes moved per routed token per
            All-to-All (one hidden vector in bf16).
        compute_flops_per_token: ``V_comp`` -- expert FLOPs per token-expert
            assignment (``6 * H * H'`` for SwiGLU).
        device_flops: ``B_comp`` -- sustained FLOP/s of each device.
        activation_checkpointing: ``F_ckpt`` -- whether expert recomputation is
            enabled (adds one forward pass to the compute term).
        num_all_to_all: Number of All-to-All operations per layer per
            iteration (4: forward dispatch/combine + backward dispatch/combine).
    """

    topology: ClusterTopology
    comm_bytes_per_token: float
    compute_flops_per_token: float
    device_flops: float
    activation_checkpointing: bool = False
    num_all_to_all: int = 4

    def __post_init__(self) -> None:
        if self.comm_bytes_per_token < 0:
            raise ValueError("comm_bytes_per_token must be non-negative")
        if self.compute_flops_per_token <= 0:
            raise ValueError("compute_flops_per_token must be positive")
        if self.device_flops <= 0:
            raise ValueError("device_flops must be positive")
        if self.num_all_to_all <= 0:
            raise ValueError("num_all_to_all must be positive")
        self._inv_bw = 1.0 / self.topology.bandwidth_matrix()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_model_config(cls, config: MoEModelConfig, topology: ClusterTopology,
                          activation_checkpointing: bool = False,
                          bytes_per_element: int = 2,
                          comm_bytes_scale: float = 1.0) -> "MoECostModel":
        """Build the cost model for a Table 2 configuration on a topology.

        ``comm_bytes_scale`` is the calibrated per-token byte overhead
        (:class:`repro.calib.profile.CalibrationProfile.comm_bytes_scale`);
        bandwidth/latency/FLOPs calibration lives in the topology itself.
        """
        if comm_bytes_scale <= 0:
            raise ValueError("comm_bytes_scale must be positive")
        return cls(
            topology=topology,
            comm_bytes_per_token=(config.hidden_size * bytes_per_element
                                  * comm_bytes_scale),
            compute_flops_per_token=config.expert_flops_per_token,
            device_flops=topology.device_spec.effective_flops,
            activation_checkpointing=activation_checkpointing,
        )

    # ------------------------------------------------------------------
    # Cost evaluation
    # ------------------------------------------------------------------
    def evaluate(self, routing_plan: np.ndarray) -> CostBreakdown:
        """Evaluate the full objective ``T = T_comm + T_comp`` for one plan.

        A batch of one through :meth:`evaluate_batch`, the single kernel.
        """
        return self.evaluate_batch(self._check_plan(routing_plan)[None])[0]

    def evaluate_batch(self, routing_plans: np.ndarray) -> list:
        """Evaluate ``M`` candidate plans at once (shape ``(M, N, E, N)``).

        The heavy elementwise work (summing the plans down to pairwise
        traffic and per-device token counts) is vectorized across
        candidates, while the order-sensitive float reductions --
        ``sum(pairwise * 1/bw)`` and the final scalar arithmetic -- run per
        candidate on contiguous slices.  Each result is therefore
        bit-identical to the single-plan arithmetic kept as the oracle
        ``repro.scalar_reference.scalar_evaluate``.

        Returns:
            ``[CostBreakdown, ...]`` in candidate order.
        """
        plans = np.asarray(routing_plans)
        n = self.topology.num_devices
        if plans.ndim != 4 or plans.shape[1] != n or plans.shape[3] != n:
            raise ValueError(
                f"routing plans must have shape (M, N, E, N) with N={n}, "
                f"got {plans.shape}")
        if np.any(plans < 0):
            raise ValueError("routing plan entries must be non-negative")
        # Token counts are integers, so these sums are exact in any order:
        # summing (int64) plans before the float64 cast, and tokens from the
        # pairwise sums, avoids copying or re-reading the whole plan.
        pairwise = plans.sum(axis=2)                             # (M, N, N)
        tokens = pairwise.sum(axis=1).astype(np.float64)         # (M, N)
        max_tokens = tokens.max(axis=1)                          # (M,)
        # Elementwise, so each weighted[m] is the same contiguous array the
        # single-plan arithmetic sums.
        weighted = pairwise.astype(np.float64)                   # (M, N, N)
        weighted *= self._inv_bw
        forward_factor = 3.0 + (1.0 if self.activation_checkpointing else 0.0)
        results = []
        for m in range(plans.shape[0]):
            seconds = float(weighted[m].sum())
            comm = self.num_all_to_all * self.comm_bytes_per_token * seconds
            comp = float(forward_factor * max_tokens[m]
                         * self.compute_flops_per_token / self.device_flops)
            results.append(CostBreakdown(
                total=comm + comp,
                comm_time=comm,
                comp_time=comp,
                tokens_per_device=tokens[m],
                max_tokens=int(max_tokens[m]),
            ))
        return results

    # ------------------------------------------------------------------
    # Constraint checking (Eq. 3-4)
    # ------------------------------------------------------------------
    def check_constraints(self, layout: ExpertLayout, routing_plan: np.ndarray,
                          routing: np.ndarray) -> None:
        """Validate the planner constraints for ``(A, S)`` against ``R``.

        Raises ``ValueError`` when any constraint is violated:

        * capacity: each device restores at most ``C`` distinct experts;
        * completeness: every expert is restored somewhere;
        * conservation (Eq. 4): ``sum_k S[i, j, k] == R[i, j]``;
        * placement: ``S[i, j, k] > 0`` only if device ``k`` restores expert
          ``j`` (``A[k, j] > 0``).
        """
        plan = self._check_plan(routing_plan)
        routing = np.asarray(routing)
        n, e = routing.shape
        if plan.shape != (n, e, n):
            raise ValueError("routing plan shape does not match routing matrix")
        layout.validate()
        if np.any(layout.experts_used_per_device() > layout.capacity):
            raise ValueError("a device restores more distinct experts than C")
        sums = plan.sum(axis=2)
        if not np.array_equal(sums, routing):
            raise ValueError("routing plan does not conserve token counts (Eq. 4)")
        hosted = layout.assignment.T > 0  # (E, N)
        violations = plan.sum(axis=0) * (~hosted)
        if np.any(violations > 0):
            raise ValueError("tokens routed to a device that does not host the expert")

    # ------------------------------------------------------------------
    def _check_plan(self, routing_plan: np.ndarray) -> np.ndarray:
        plan = np.asarray(routing_plan)
        n = self.topology.num_devices
        if plan.ndim != 3 or plan.shape[0] != n or plan.shape[2] != n:
            raise ValueError(
                f"routing plan must have shape (N, E, N) with N={n}, "
                f"got {plan.shape}")
        if np.any(plan < 0):
            raise ValueError("routing plan entries must be non-negative")
        return plan
