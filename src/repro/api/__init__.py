"""Declarative experiment API: spec -> registry -> runner -> results.

This package is the single front door to the reproduction.  Describe an
experiment as data (:class:`ExperimentSpec`), execute it with
:class:`ExperimentRunner`, and get back a serializable
:class:`ExperimentResult`::

    from repro.api import ExperimentSpec, WorkloadSpec, run_experiment

    spec = ExperimentSpec(
        name="quick-comparison",
        workload=WorkloadSpec(model="mixtral-8x7b-e8k2", iterations=8),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    result = run_experiment(spec)
    print(result.format_speedups())
    result.save("result.json")

Specs round-trip losslessly through JSON (``spec.save("exp.json")`` /
``ExperimentSpec.load("exp.json")``), which is what ``repro run --spec``
consumes.  Systems and scenarios are resolved through the registries in
:mod:`repro.sim.systems` and :mod:`repro.workloads.scenarios` (both
:class:`repro.registry.Registry` instances); register your own with
:func:`repro.sim.systems.register_system` and reference it from a spec by
name -- no edits to this package required.
"""

from repro.api.specs import (
    ClusterSpec,
    ExperimentSpec,
    SystemSpec,
    WorkloadSpec,
)
from repro.api.runner import (
    ExperimentResult,
    ExperimentRunner,
    PlannerIterationStats,
    SystemResult,
    run_experiment,
    run_planner_study,
)

__all__ = [
    "ClusterSpec",
    "ExperimentSpec",
    "SystemSpec",
    "WorkloadSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "PlannerIterationStats",
    "SystemResult",
    "run_experiment",
    "run_planner_study",
]
