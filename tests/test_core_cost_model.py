"""Tests for the planner's joint cost model (Sec. 3.2)."""

import numpy as np
import pytest

from repro.core.cost_model import MoECostModel
from repro.core.layout import static_ep_layout
from repro.core.lite_routing import lite_route
from repro.scalar_reference import scalar_evaluate
from repro.workloads.model_configs import get_model_config, tiny_test_config


@pytest.fixture
def cost_model(small_topology):
    return MoECostModel.from_model_config(tiny_test_config(), small_topology)


def balanced_plan(n=8, e=8, tokens=64):
    """Every device keeps its tokens locally, evenly over experts."""
    plan = np.zeros((n, e, n), dtype=np.int64)
    for device in range(n):
        plan[device, :, device] = tokens // e
    return plan


class TestCostTerms:
    def test_local_plan_has_zero_comm(self, cost_model):
        plan = balanced_plan()
        assert cost_model.evaluate(plan).comm_time == 0.0

    def test_remote_plan_has_positive_comm(self, cost_model):
        plan = balanced_plan()
        plan[0, 0, 0] = 0
        plan[0, 0, 7] = 8
        assert cost_model.evaluate(plan).comm_time > 0.0

    def test_inter_node_costs_more_than_intra(self, cost_model):
        intra = np.zeros((8, 8, 8), dtype=np.int64)
        intra[0, 0, 1] = 100
        inter = np.zeros((8, 8, 8), dtype=np.int64)
        inter[0, 0, 4] = 100
        assert (cost_model.evaluate(inter).comm_time
                > cost_model.evaluate(intra).comm_time)

    def test_comp_time_uses_max_device(self, cost_model):
        plan = balanced_plan()
        base = cost_model.evaluate(plan).comp_time
        plan[0, 0, 0] += 1000
        assert cost_model.evaluate(plan).comp_time > base

    def test_comp_time_checkpointing_factor(self, small_topology):
        config = tiny_test_config()
        plain = MoECostModel.from_model_config(config, small_topology)
        ckpt = MoECostModel.from_model_config(config, small_topology,
                                              activation_checkpointing=True)
        plan = balanced_plan()
        assert ckpt.evaluate(plan).comp_time == pytest.approx(
            4 / 3 * plain.evaluate(plan).comp_time)

    def test_tokens_per_device(self, cost_model):
        plan = balanced_plan(tokens=64)
        assert np.all(cost_model.evaluate(plan).tokens_per_device == 64)

    def test_evaluate_consistency(self, cost_model):
        plan = balanced_plan()
        breakdown = cost_model.evaluate(plan)
        assert breakdown.total == pytest.approx(
            breakdown.comm_time + breakdown.comp_time)
        assert breakdown.max_tokens == 64

    def test_plan_validation(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.evaluate(np.zeros((3, 3, 3)))
        bad = balanced_plan().astype(float)
        bad[0, 0, 0] = -1
        with pytest.raises(ValueError):
            cost_model.evaluate(bad)


class TestConstraints:
    def test_valid_plan_passes(self, small_topology, cost_model):
        routing = np.random.default_rng(0).integers(
            0, 50, size=(8, 8)).astype(np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology)
        cost_model.check_constraints(layout, plan, routing)

    def test_conservation_violation_detected(self, small_topology, cost_model):
        routing = np.full((8, 8), 10, dtype=np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology)
        plan[0, 0, :] = 0
        with pytest.raises(ValueError, match="conserve"):
            cost_model.check_constraints(layout, plan, routing)

    def test_placement_violation_detected(self, small_topology, cost_model):
        routing = np.full((8, 8), 10, dtype=np.int64)
        layout = static_ep_layout(8, 8, 2)
        plan = lite_route(routing, layout, small_topology)
        # Send expert 0 tokens to a device that does not host expert 0.
        bad_device = [d for d in range(8) if layout.assignment[d, 0] == 0][0]
        plan[0, 0, :] = 0
        plan[0, 0, bad_device] = 10
        with pytest.raises(ValueError, match="does not host"):
            cost_model.check_constraints(layout, plan, routing)


class TestConstruction:
    def test_from_model_config_fields(self, paper_topology):
        config = get_model_config("mixtral-8x7b-e8k2")
        model = MoECostModel.from_model_config(config, paper_topology)
        assert model.comm_bytes_per_token == config.hidden_size * 2
        assert model.compute_flops_per_token == config.expert_flops_per_token

    def test_validation(self, small_topology):
        with pytest.raises(ValueError):
            MoECostModel(small_topology, comm_bytes_per_token=-1,
                         compute_flops_per_token=1, device_flops=1)
        with pytest.raises(ValueError):
            MoECostModel(small_topology, comm_bytes_per_token=1,
                         compute_flops_per_token=0, device_flops=1)


class TestEvaluateBatch:
    def test_batch_matches_scalar_bitwise(self, small_topology,
                                          small_cost_model):
        rng = np.random.default_rng(17)
        plans = rng.integers(0, 300, size=(5, 8, 8, 8)).astype(np.int64)
        batched = small_cost_model.evaluate_batch(plans)
        for index in range(plans.shape[0]):
            scalar = scalar_evaluate(small_cost_model, plans[index])
            assert batched[index].comm_time == scalar.comm_time
            assert batched[index].comp_time == scalar.comp_time
            assert batched[index].total == scalar.total
            assert batched[index].max_tokens == scalar.max_tokens
            assert np.array_equal(batched[index].tokens_per_device,
                                  scalar.tokens_per_device)
            single = small_cost_model.evaluate(plans[index])
            assert (single.comm_time, single.comp_time, single.total) == \
                (scalar.comm_time, scalar.comp_time, scalar.total)

    def test_batch_shape_validation(self, small_cost_model):
        with pytest.raises(ValueError):
            small_cost_model.evaluate_batch(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            small_cost_model.evaluate_batch(np.zeros((2, 8, 8, 7)))

    @staticmethod
    def assert_same_costs(left, right):
        assert (left.total, left.comm_time, left.comp_time, left.max_tokens) \
            == (right.total, right.comm_time, right.comp_time,
                right.max_tokens)
        assert left.tokens_per_device.dtype == right.tokens_per_device.dtype
        assert np.array_equal(left.tokens_per_device, right.tokens_per_device)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_int64_plans_sum_before_the_cast(self, small_topology,
                                             small_cost_model, seed):
        """int64 plans score bit-identically to the scalar oracle and to the
        same plans passed as float64."""
        from repro.core.lite_routing import lite_route_batch
        from repro.core.relocation import relocate_experts
        from repro.core.replica_allocation import (
            even_replicas,
            perturb_replicas,
        )
        rng = np.random.default_rng(seed)
        schemes = [even_replicas(8, 8, 2)]
        schemes += [perturb_replicas(schemes[0], rng, 2) for _ in range(3)]
        loads = rng.integers(1, 1000, size=8)
        layouts = [relocate_experts(s, loads, small_topology, 2)
                   for s in schemes]
        routing = rng.integers(0, 10**6, size=(8, 8))
        plans = lite_route_batch(routing, layouts, small_topology)
        assert plans.dtype == np.int64
        as_int = small_cost_model.evaluate_batch(plans)
        as_float = small_cost_model.evaluate_batch(plans.astype(np.float64))
        for index, plan in enumerate(plans):
            self.assert_same_costs(as_int[index],
                                   scalar_evaluate(small_cost_model, plan))
            self.assert_same_costs(as_int[index], as_float[index])
            self.assert_same_costs(as_int[index],
                                   small_cost_model.evaluate(plan))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_negative_entry_rejected(self, small_cost_model, dtype):
        plans = np.zeros((2, 8, 8, 8), dtype=dtype)
        plans[1, 3, 2, 5] = -1
        with pytest.raises(ValueError, match="non-negative"):
            small_cost_model.evaluate_batch(plans)
        with pytest.raises(ValueError, match="non-negative"):
            small_cost_model.evaluate(plans[1])
