"""Deployment-optimiser tests: enumeration, greedy, target search, Pareto."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safety import (
    enumerate_plans,
    greedy_plan,
    pareto_front,
    search_for_target,
)
from repro.safety.fmea import FmeaResult, FmeaRow
from repro.safety.mechanisms import MechanismSpec, SafetyMechanismModel
from repro.safety.optimizer import evaluate


def make_fmea(rows):
    result = FmeaResult(system="t", method="manual")
    result.rows.extend(rows)
    return result


def row(component, fit, mode, dist, related=True, klass=None):
    return FmeaRow(
        component=component,
        component_class=klass or component,
        fit=fit,
        failure_mode=mode,
        nature="open",
        distribution=dist,
        safety_related=related,
    )


@pytest.fixture
def fmea():
    return make_fmea(
        [
            row("A", 100, "Open", 1.0, klass="KA"),
            row("B", 50, "Open", 1.0, klass="KB"),
        ]
    )


@pytest.fixture
def catalogue():
    return SafetyMechanismModel(
        [
            MechanismSpec("KA", "Open", "cheapA", 0.80, 1.0),
            MechanismSpec("KA", "Open", "goodA", 0.99, 5.0),
            MechanismSpec("KB", "Open", "onlyB", 0.90, 2.0),
        ]
    )


class TestEnumeration:
    def test_plan_count_is_product_of_options(self, fmea, catalogue):
        # A has {none, cheapA, goodA}, B has {none, onlyB}: 3 * 2 = 6.
        assert len(enumerate_plans(fmea, catalogue)) == 6

    def test_space_limit_enforced(self, fmea, catalogue):
        with pytest.raises(ValueError, match="use search_for_target"):
            enumerate_plans(fmea, catalogue, max_plans=3)

    def test_empty_catalogue_yields_bare_plan(self, fmea):
        plans = enumerate_plans(fmea, SafetyMechanismModel())
        assert len(plans) == 1
        assert plans[0].deployments == ()

    def test_evaluate_consistency(self, fmea, catalogue):
        for plan in enumerate_plans(fmea, catalogue):
            again = evaluate(fmea, plan.deployments)
            assert again.spfm == pytest.approx(plan.spfm)
            assert again.cost == plan.cost


class TestTargetSearch:
    def test_optimal_plan_found(self, fmea, catalogue):
        # SPFM target 0.90 needs high coverage on both components.
        plan = search_for_target(fmea, catalogue, "ASIL-B")
        assert plan is not None
        assert plan.meets("ASIL-B")
        # Verify optimality: no enumerated feasible plan is cheaper.
        cheaper = [
            p
            for p in enumerate_plans(fmea, catalogue)
            if p.meets("ASIL-B") and p.cost < plan.cost
        ]
        assert not cheaper

    def test_unreachable_target_returns_none(self, fmea):
        weak = SafetyMechanismModel(
            [MechanismSpec("KA", "Open", "weak", 0.10, 1.0)]
        )
        assert search_for_target(fmea, weak, "ASIL-D") is None

    def test_trivially_met_target_needs_nothing(self, fmea, catalogue):
        plan = search_for_target(fmea, catalogue, "ASIL-A")
        assert plan is not None
        assert plan.cost == 0.0


class TestGreedy:
    def test_greedy_reaches_target(self, fmea, catalogue):
        plan = greedy_plan(fmea, catalogue, "ASIL-B")
        assert plan is not None and plan.meets("ASIL-B")

    def test_greedy_returns_none_when_stuck(self, fmea):
        weak = SafetyMechanismModel(
            [MechanismSpec("KA", "Open", "weak", 0.10, 1.0)]
        )
        assert greedy_plan(fmea, weak, "ASIL-D") is None

    def test_greedy_can_upgrade_a_mechanism(self):
        fmea = make_fmea([row("A", 100, "Open", 1.0, klass="KA")])
        catalogue = SafetyMechanismModel(
            [
                MechanismSpec("KA", "Open", "cheap", 0.80, 1.0),
                MechanismSpec("KA", "Open", "good", 0.995, 10.0),
            ]
        )
        plan = greedy_plan(fmea, catalogue, "ASIL-D")
        assert plan is not None
        assert plan.deployments[-1].mechanism == "good"


class TestParetoFront:
    def test_front_is_nondominated_and_sorted(self, fmea, catalogue):
        front = pareto_front(fmea, catalogue)
        costs = [plan.cost for plan in front]
        spfms = [plan.spfm for plan in front]
        assert costs == sorted(costs)
        assert spfms == sorted(spfms)
        # No member dominates another.
        for i, a in enumerate(front):
            for b in front[i + 1 :]:
                assert not (b.cost <= a.cost and b.spfm >= a.spfm)

    def test_front_contains_extremes(self, fmea, catalogue):
        front = pareto_front(fmea, catalogue)
        all_plans = enumerate_plans(fmea, catalogue)
        assert front[0].cost == min(plan.cost for plan in all_plans)
        assert front[-1].spfm == pytest.approx(
            max(plan.spfm for plan in all_plans)
        )


@settings(max_examples=25, deadline=None)
@given(
    coverages=st.lists(
        st.floats(min_value=0.1, max_value=0.999, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    costs=st.lists(
        st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
)
def test_property_pareto_front_dominates_everything(coverages, costs):
    """Every enumerated plan is dominated by (or equal to) a front member."""
    n = min(len(coverages), len(costs))
    fmea = make_fmea([row("A", 100, "Open", 1.0, klass="KA")])
    catalogue = SafetyMechanismModel(
        [
            MechanismSpec("KA", "Open", f"m{i}", coverages[i], costs[i])
            for i in range(n)
        ]
    )
    front = pareto_front(fmea, catalogue)
    for plan in enumerate_plans(fmea, catalogue):
        assert any(
            member.cost <= plan.cost and member.spfm >= plan.spfm - 1e-12
            for member in front
        )
