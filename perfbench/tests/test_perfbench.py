"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib
import json
import re
import sys

import pytest

from perfbench import layers, run as bench
from perfbench.tracer import Patcher, Span, self_time_tree
from perfbench.workloads import (
    PlannerWorkload,
    ServeWorkload,
    TrainWorkload,
    scalar_reference_check,
)
from repro.chaos.injection import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    install,
    uninstall,
)

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Patched besides the layer entry points (the serve queue-wait probe).
EXTRA_TARGETS = ("repro.serve.executor:PoolExecutor.submit",
                 "repro.serve.executor:PoolExecutor._run")


def tiny_train(seed: int = 3) -> TrainWorkload:
    return TrainWorkload("laer-train", ("laer", "fsdp_ep"), seed,
                         num_nodes=1, layers=2, iterations=2, specs=2)


def tiny_serve(tmp_path, seed: int = 3) -> ServeWorkload:
    return ServeWorkload(seed, tmp_path, pool=2, cold_every=4)


def patchable_objects():
    """Every (holder, attribute) a traced run may patch -> current object."""
    snapshot = {}
    for target in [layer.target for layer in layers.LAYERS] + list(EXTRA_TARGETS):
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            snapshot[(id(owner), attr)] = owner.__dict__[attr]
            continue
        for holder in list(sys.modules.values()):
            if holder is not None and path in vars(holder):
                snapshot[(id(holder), path)] = vars(holder)[path]
    return snapshot


def test_traced_runs_restore_every_patched_attribute(tmp_path):
    before = patchable_objects()
    for workload in (tiny_train(), tiny_serve(tmp_path),
                     PlannerWorkload(3, num_devices=16, capacity=2, frames=4)):
        record = bench.measure_run(workload, 3, 1.0, trace=True, import_s=0.0)
        assert record["failed"] == 0, record["failures"]
    after = patchable_objects()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert not changed


def test_patcher_wraps_every_holder_of_a_function():
    import repro.store as store_pkg
    import repro.store.result_store as result_store

    original = result_store.run_id_for
    with Patcher() as patcher:
        patcher.patch("repro.store.result_store:run_id_for",
                      lambda orig: (lambda *a, **k: "patched"))
        assert store_pkg.run_id_for() == "patched"
        assert result_store.run_id_for() == "patched"
    assert store_pkg.run_id_for is original
    assert result_store.run_id_for is original


def test_metric_names_are_well_formed_and_all_reported(tmp_path):
    names = ([m["name"] for m in DECLARED["end_to_end"]]
             + [m["name"] for m in DECLARED["per_layer"]]
             + [w["name"] for w in DECLARED["workloads"]])
    assert all(METRIC_NAME.fullmatch(name) and len(name) <= 64
               for name in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in DECLARED["per_layer"]] == layers.metric_names()
    for trace in (False, True):
        record = bench.measure_run(tiny_train(), 3, 1.0, trace=trace,
                                   import_s=0.0)
        section = DECLARED["per_layer" if trace else "end_to_end"]
        metrics = bench.metric_block(section, record["values"])
        assert all(METRIC_NAME.fullmatch(name) for name in metrics)


def test_traced_run_splits_layers_and_sums_self_time(tmp_path):
    record = bench.measure_run(tiny_serve(tmp_path), 3, 1.5, trace=True,
                               import_s=0.0)
    values = record["values"]
    assert record["failed"] == 0, record["failures"]
    assert record["tree_error"] < 0.01
    assert values["serve.submit_spec.calls"] > 0
    assert values["store.canonicalize.per_request"] > 0
    assert values["core.planner.plan_iteration.calls"] == 0
    assert any(row["path"].endswith("/(unattributed)")
               for row in record["tree"])


def test_planner_scale_runs_no_simulator():
    workload = PlannerWorkload(5, num_devices=16, capacity=2, frames=4)
    record = bench.measure_run(workload, 5, 1.0, trace=True, import_s=0.0)
    values = record["values"]
    assert record["failed"] == 0, record["failures"]
    assert values["sim.iteration.simulate_iteration.calls"] == 0
    assert values["core.planner.plan_iteration.calls"] >= workload.min_ops


def test_armed_pre_execute_fault_counts_as_failure(tmp_path):
    install(FaultInjector(FaultPlan(name="perfbench", faults=(
        FaultSpec(point="serve.pre-execute", kind="enospc"),))))
    try:
        record = bench.measure_run(tiny_serve(tmp_path), 3, 1.0, trace=False,
                                   import_s=0.0)
    finally:
        uninstall()
    assert record["failed"] == 1
    assert record["values"]["ok_ratio"] < 1.0
    assert any("HTTP 500" in failure for failure in record["failures"])


def test_self_time_tree_adds_up_and_flags_overlap():
    def span(id, parent, start, end, name="x"):
        return Span(id=id, parent=parent, name=name, thread=1, start=start,
                    end=end)

    nested = [span(1, 0, 0, 10, "root"), span(2, 1, 1, 4, "a"),
              span(3, 1, 5, 9, "b"), span(4, 3, 6, 7, "c")]
    rows, error = self_time_tree(nested)
    by_path = {row["path"]: row for row in rows}
    assert error == 0.0
    assert by_path["root/(unattributed)"]["self_s"] == pytest.approx(3.0)
    assert by_path["root/b/(unattributed)"]["self_s"] == pytest.approx(3.0)
    overlapping = [span(1, 0, 0, 10), span(2, 1, 1, 6), span(3, 1, 4, 9)]
    assert self_time_tree(overlapping)[1] > 0.01


def test_scalar_reference_check_passes_on_a_held_out_seed():
    assert scalar_reference_check(4242) is None
