"""Load-balancing policies of the systems LAER-MoE is compared against.

Every policy implements the :class:`~repro.baselines.base.LoadBalancingPolicy`
interface: given the routing frame of an iteration it chooses the expert layout
of each MoE layer and reports the extra communication its re-layout mechanism
costs (parameter migration, shadow-expert broadcast, replicated-gradient
synchronisation); the base class routes the whole frame onto those layouts in
one dispatch.  The iteration simulator turns the decisions into time.

Implemented policies:

* :class:`StaticEPPolicy` -- GShard-style expert parallelism (also the layout
  used by Megatron and the FSDP+EP baseline): fixed placement, no replication.
* :class:`FasterMoEPolicy` -- shadow (broadcast) replication of the hottest
  experts each iteration.
* :class:`SmartMoEPolicy` -- periodic expert relocation (no replication),
  paying parameter + optimizer-state migration.
* :class:`ProphetPolicy` -- resource-constrained replication of hot experts
  planned from a load forecast.
* :class:`FlexMoEPolicy` -- dynamic replica count and placement adjustment with
  a penalty on expensive adjustments (bounded changes per step).
* :class:`LAERPolicy` -- the paper's planner on top of FSEP (per-iteration
  re-layout at zero extra cost).
* :class:`OracleBalancedPolicy` -- re-layout computed from the *current*
  iteration's routing; a lower bound no real system can achieve.
"""

from repro.baselines.base import LayerChoice, LoadBalancingPolicy, PolicyDecision
from repro.baselines.static_ep import StaticEPPolicy
from repro.baselines.fastermoe import FasterMoEPolicy
from repro.baselines.smartmoe import SmartMoEPolicy
from repro.baselines.prophet import ProphetPolicy
from repro.baselines.flexmoe import FlexMoEPolicy
from repro.baselines.laer import LAERPolicy
from repro.baselines.oracle import OracleBalancedPolicy

__all__ = [
    "LayerChoice",
    "LoadBalancingPolicy",
    "PolicyDecision",
    "StaticEPPolicy",
    "FasterMoEPolicy",
    "SmartMoEPolicy",
    "ProphetPolicy",
    "FlexMoEPolicy",
    "LAERPolicy",
    "OracleBalancedPolicy",
]
