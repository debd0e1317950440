"""Tests for the shared name -> factory registry (:mod:`repro.registry`)."""

from __future__ import annotations

import inspect

import pytest

from repro.api import ExperimentSpec, SystemSpec, WorkloadSpec
from repro.cluster.topology import ClusterTopology
from repro.registry import Registry
from repro.sim.systems import SYSTEMS, make_system
from repro.study.registry import STUDIES, make_study
from repro.suite.spec import SuiteMember
from repro.workloads.model_configs import get_model_config
from repro.workloads.scenarios import (
    SCENARIO_WRAPPERS,
    SCENARIOS,
    ScenarioContext,
    make_scenario,
)

CTX = ScenarioContext(num_devices=4, num_experts=8, num_layers=1,
                      tokens_per_device=256, top_k=2, iterations=2, seed=3)
CONFIG = get_model_config("mixtral-8x7b-e8k2")
TOPOLOGY = ClusterTopology(num_nodes=1, devices_per_node=4)
NAME = "registry-test-entry"


def _unreached(*_args, **_kwargs):
    raise AssertionError("factory must not run when validation fails")


def _system(ctx, knob):
    _unreached()


def _scenario(ctx, knob):
    _unreached()


def _wrapper(inner, ctx, knob):
    _unreached()


def _study(knob):
    _unreached()


# kind -> (registry, factory with one required ``knob``, public build path)
CASES = {
    "system": (SYSTEMS, _system,
               lambda name, **kw: make_system(name, CONFIG, TOPOLOGY, 256,
                                              **kw)),
    "scenario": (SCENARIOS, _scenario,
                 lambda name, **kw: make_scenario(name, CTX, **kw)),
    "scenario wrapper": (SCENARIO_WRAPPERS, _wrapper,
                         lambda name, **kw: make_scenario(
                             "compose", CTX, base="steady",
                             wrappers=[{"name": name, "params": kw}])),
    "study": (STUDIES, _study, lambda name, **kw: make_study(name, **kw)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    registry, factory, build = CASES[request.param]
    registry.register(NAME, description="test entry")(factory)
    yield request.param, registry, factory, build
    registry.unregister(NAME)


class TestEveryRegistry:
    def test_kind_matches(self, case):
        kind, registry, _, _ = case
        assert registry.kind == kind
        assert NAME in registry.names()
        assert registry.descriptions()[NAME] == "test entry"

    def test_unknown_name_error_names_the_kind(self, case):
        kind, _, _, build = case
        with pytest.raises(ValueError, match=f"unknown {kind} 'no-such"):
            build("no-such-entry")

    def test_duplicate_name_rejected(self, case):
        _, registry, factory, _ = case
        with pytest.raises(ValueError, match="already registered"):
            registry.register(NAME.upper())(factory)

    def test_unknown_parameter_rejected(self, case):
        kind, _, _, build = case
        with pytest.raises(ValueError,
                           match=f"{kind} '{NAME}' does not accept "
                                 r"parameter\(s\) \['bogus'\]"):
            build(NAME, knob=1, bogus=2)

    def test_missing_required_parameter_rejected(self, case):
        kind, _, _, build = case
        with pytest.raises(ValueError,
                           match=f"{kind} '{NAME}' requires "
                                 r"parameter\(s\) \['knob'\]"):
            build(NAME)

    def test_unknown_default_rejected_at_registration(self, case):
        _, registry, factory, _ = case
        with pytest.raises(ValueError, match="does not accept"):
            registry.register("registry-test-other", bogus=1)(factory)
        assert "registry-test-other" not in registry.names()


class TestRegistry:
    def test_variant_merges_params_over_base(self):
        registry = Registry("widget", skip=0)

        @registry.register("base", size=1, description="base widget")
        def _build(size: int = 0, color: str = "red"):
            return size, color

        entry = registry.variant("big", "base", color="blue")
        assert entry.params == {"size": 1, "color": "blue"}
        assert entry.description == "base widget"
        assert registry.build("BIG") == (1, "blue")
        assert registry.build("big", size=3) == (3, "blue")
        assert registry.names() == ["base", "big"]

    def test_kwargs_factory_accepts_any_parameter(self):
        registry = Registry("widget", skip=1)
        registry.register("any")(lambda ctx, **kw: (ctx, kw))
        assert registry.get("any").accepted is None
        assert registry.build("any", "ctx", x=1) == ("ctx", {"x": 1})

    def test_param_details(self):
        registry = Registry("widget", skip=1)

        @registry.register("w", size=4)
        def _build(ctx, path: str, size: int = 1, flag=False):
            return None

        assert registry.param_details("w") == [
            {"param": "path", "type": "str", "default": "(required)"},
            {"param": "size", "type": "int", "default": "4"},
            {"param": "flag", "type": "bool", "default": "False"},
        ]


def test_validation_never_reads_signatures(monkeypatch):
    """Signatures are read once at registration, not per spec or build."""
    spec_data = ExperimentSpec(
        workload=WorkloadSpec(tokens_per_device=256, layers=1, iterations=2,
                              warmup=0, scenario="bursty-churn",
                              params={"period": 4}),
        systems=(SystemSpec("laer", options={"comm_opt": False}),
                 "fsdp_ep"),
        reference="fsdp_ep",
    ).to_dict()

    def _fail(*_args, **_kwargs):
        raise AssertionError("inspect.signature called after registration")

    monkeypatch.setattr(inspect, "signature", _fail)
    spec = ExperimentSpec.from_dict(spec_data)
    assert spec.to_dict() == spec_data
    SuiteMember(name="m", scenario="diurnal", params={"period": 8})
    make_system("laer", CONFIG, TOPOLOGY, 256, comm_opt=False)
    make_scenario("compose", CTX, base="steady", wrappers=["straggler"])
    make_study("sweep-cluster-sizes", sizes=[1])
