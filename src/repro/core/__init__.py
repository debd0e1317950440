"""The paper's core contribution: FSEP and the load-balancing planner.

(For running whole experiments on top of these primitives, use the
declarative :mod:`repro.api` package -- spec, runner and serializable
results.)

Modules:

* :mod:`repro.core.layout` -- the :class:`ExpertLayout` abstraction (which
  device restores which experts, ``A`` in the paper).
* :mod:`repro.core.fsep` -- Fully Sharded Expert Parallelism: shard / unshard /
  reshard of flattened expert parameters with arbitrary layouts (Fig. 4).
* :mod:`repro.core.comm_analysis` -- the communication / memory / overlap
  analysis of Sec. 3.1 (V_fsep, V_fsdp, Eq. 1).
* :mod:`repro.core.cost_model` -- the joint communication + computation cost
  model of Sec. 3.2 (Eq. 2-4).
* :mod:`repro.core.lite_routing` -- Algorithm 3 (token dispatcher).
* :mod:`repro.core.replica_allocation` -- Algorithm 4 (priority-queue replica
  allocation).
* :mod:`repro.core.relocation` -- Algorithm 1 (greedy topology-aware expert
  relocation).
* :mod:`repro.core.layout_tuner` -- Algorithm 2 (candidate replica schemes +
  selection by the cost model).
* :mod:`repro.core.planner` -- the load-balancing planner combining the
  asynchronous layout tuner with the synchronous token dispatcher (Fig. 3/7).
* :mod:`repro.core.comm_schedule` -- the fine-grained communication scheduling
  optimisations of Fig. 5.
* :mod:`repro.core.executor` -- an FSEP executor that runs real (numpy) MoE
  computation under a plan and matches the single-device reference bit-for-bit
  up to floating point reordering.
"""

from repro.core.layout import ExpertLayout, static_ep_layout, replicate_all_layout
from repro.core.fsep import FSEPShardedExperts, UnshardResult, ReshardResult
from repro.core.comm_analysis import (
    fsep_unshard_volume,
    fsdp_allgather_volume,
    fsep_to_fsdp_volume_ratio,
    overlap_token_threshold,
    fsep_extra_memory_bytes,
)
from repro.core.cost_model import MoECostModel, CostBreakdown
from repro.core.lite_routing import lite_route, lite_route_batch
from repro.core.replica_allocation import allocate_replicas_priority_queue, even_replicas
from repro.core.relocation import relocate_experts
from repro.core.layout_tuner import ExpertLayoutTuner, TunerConfig, TunerResult
from repro.core.planner import LoadBalancingPlanner, PlannerConfig, IterationPlan
from repro.core.comm_schedule import (
    CommScheduleConfig,
    LayerTimings,
    ScheduleResult,
    schedule_layer,
    schedule_iteration,
)
from repro.core.executor import FSEPExecutor, DistributedMoEOutput
from repro.core.reference_solver import ReferenceSolution, solve_reference, enumerate_layouts

__all__ = [
    "ExpertLayout",
    "static_ep_layout",
    "replicate_all_layout",
    "FSEPShardedExperts",
    "UnshardResult",
    "ReshardResult",
    "fsep_unshard_volume",
    "fsdp_allgather_volume",
    "fsep_to_fsdp_volume_ratio",
    "overlap_token_threshold",
    "fsep_extra_memory_bytes",
    "MoECostModel",
    "CostBreakdown",
    "lite_route",
    "lite_route_batch",
    "allocate_replicas_priority_queue",
    "even_replicas",
    "relocate_experts",
    "ExpertLayoutTuner",
    "TunerConfig",
    "TunerResult",
    "LoadBalancingPlanner",
    "PlannerConfig",
    "IterationPlan",
    "CommScheduleConfig",
    "LayerTimings",
    "ScheduleResult",
    "schedule_layer",
    "schedule_iteration",
    "FSEPExecutor",
    "DistributedMoEOutput",
    "ReferenceSolution",
    "solve_reference",
    "enumerate_layouts",
]
