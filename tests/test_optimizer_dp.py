"""Separable Pareto DP: exactness, search bounds, state cap, signatures.

The DP is the only search engine: :func:`search_for_target` and
:func:`pareto_front` must be *bit-equal* to exhaustive enumeration
wherever enumeration is feasible — same optimal cost and same SPFM for the
target search, and a plan-for-plan identical Pareto front — while scaling
to spaces where enumeration raises.  The bounded target search must return exactly the
plan the unbounded fold's cost-ascending scan returns.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.safety import optimizer
from repro.safety.fmea import FmeaResult, FmeaRow
from repro.safety.mechanisms import MechanismSpec, SafetyMechanismModel
from repro.safety.optimizer import (
    _dp_frontier,
    _dp_scan,
    _incumbent_limit,
    _options_per_row,
    _SpfmEvaluator,
    enumerate_plans,
    greedy_plan,
    pareto_front,
    search_for_target,
)

TARGETS = ("ASIL-B", "ASIL-C", "ASIL-D")
ALL_TARGETS = ("QM", "ASIL-A") + TARGETS


def synth_case(rng, rows, max_specs=3):
    fmea = FmeaResult(system="dp", method="manual")
    specs = []
    for index in range(rows):
        fmea.rows.append(
            FmeaRow(
                component=f"C{index}",
                component_class=f"K{index}",
                fit=rng.choice((10.0, 25.0, 50.0, 100.0, 200.0)),
                failure_mode="Open",
                nature="open",
                distribution=1.0,
                safety_related=True,
            )
        )
        for option in range(rng.randint(0, max_specs)):
            specs.append(
                MechanismSpec(
                    f"K{index}",
                    "Open",
                    f"m{index}_{option}",
                    rng.choice((0.6, 0.9, 0.97, 0.99)),
                    rng.choice((0.5, 1.0, 2.0, 3.0, 5.0)),
                )
            )
    return fmea, SafetyMechanismModel(specs)


def exhaustive_optimum(fmea, catalogue, target):
    plans = enumerate_plans(fmea, catalogue, max_plans=50_000)
    feasible = [plan for plan in plans if plan.meets(target)]
    if not feasible:
        return None
    return min(feasible, key=lambda plan: (plan.cost, -plan.spfm))


def enumerated_front(fmea, catalogue):
    """The Pareto front of every enumerated plan: cost ascending, each
    plan strictly above the best SPFM of the cheaper ones."""
    plans = enumerate_plans(fmea, catalogue, max_plans=50_000)
    plans.sort(key=lambda plan: (plan.cost, -plan.spfm))
    front = []
    for plan in plans:
        if not front or plan.spfm > front[-1].spfm + 1e-12:
            front.append(plan)
    return front


class TestExactness:
    @pytest.mark.parametrize("seed", range(30))
    def test_dp_bit_equal_to_enumeration(self, seed):
        rng = random.Random(seed)
        fmea, catalogue = synth_case(rng, rng.randint(1, 7))
        for target in TARGETS:
            best = exhaustive_optimum(fmea, catalogue, target)
            plan = search_for_target(fmea, catalogue, target)
            assert (plan is None) == (best is None), (seed, target)
            if best is not None:
                assert plan.cost == best.cost, (seed, target)
                assert plan.spfm == best.spfm, (seed, target)

    @pytest.mark.parametrize("seed", range(30))
    def test_dp_pareto_equals_enumerated_front(self, seed):
        rng = random.Random(100 + seed)
        fmea, catalogue = synth_case(rng, rng.randint(1, 7))
        dp_front = pareto_front(fmea, catalogue)
        enum_front = enumerated_front(fmea, catalogue)
        assert [(p.cost, p.spfm) for p in dp_front] == [
            (p.cost, p.spfm) for p in enum_front
        ], seed

    @pytest.mark.parametrize("seed", range(20))
    def test_dp_never_costlier_than_greedy(self, seed):
        rng = random.Random(200 + seed)
        fmea, catalogue = synth_case(rng, rng.randint(1, 8))
        for target in TARGETS:
            greedy = greedy_plan(fmea, catalogue, target)
            if greedy is None:
                continue
            plan = search_for_target(fmea, catalogue, target)
            assert plan is not None, (seed, target)
            assert plan.cost <= greedy.cost + 1e-9, (seed, target)


def _plan_key(plan):
    if plan is None:
        return None
    return plan.cost, plan.spfm, plan.deployments


def unbounded_search(fmea, catalogue, target):
    """The whole-frontier fold plus the cost-ascending scan."""
    states, _ = _dp_frontier(_options_per_row(fmea, catalogue))
    return _dp_scan(states, _SpfmEvaluator(fmea), target)


#: Two-decimal costs like perfbench's ``round(uniform(0.5, 8), 2)``: most
#: are not exact in binary, so row-order and choice-order sums can differ
#: in the last bit.
_costs = st.integers(50, 800).map(lambda cents: cents / 100)
_coverages = st.one_of(
    st.sampled_from((0.6, 0.9, 0.97, 0.99, 0.999)),
    st.integers(600, 999).map(lambda milli: milli / 1000),
)


@st.composite
def search_cases(draw):
    """A small FMEA plus catalogue (space <= 4^6, enumerable).

    A component may carry a latent, non-safety-related mode beside its
    safety-related one, so the unmitigated SPFM ranges from 0 to near 1.
    """
    fmea = FmeaResult(system="dp", method="manual")
    specs = []
    for index in range(draw(st.integers(1, 6))):
        fit = draw(st.sampled_from((10.0, 25.0, 50.0, 100.0, 200.0, 33.3)))
        share = draw(st.sampled_from((1.0, 1.0, 0.6, 0.35, 0.05)))
        fmea.rows.append(
            FmeaRow(
                component=f"C{index}",
                component_class=f"K{index}",
                fit=fit,
                failure_mode="Open",
                nature="open",
                distribution=share,
                safety_related=True,
            )
        )
        if share < 1.0:
            fmea.rows.append(
                FmeaRow(
                    component=f"C{index}",
                    component_class=f"K{index}",
                    fit=fit,
                    failure_mode="Drift",
                    nature="drift",
                    distribution=1.0 - share,
                    safety_related=False,
                )
            )
        for option in range(draw(st.integers(0, 3))):
            specs.append(
                MechanismSpec(
                    f"K{index}",
                    "Open",
                    f"m{index}_{option}",
                    draw(_coverages),
                    draw(_costs),
                )
            )
    return fmea, SafetyMechanismModel(specs)


class TestBoundedOracle:
    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_bounded_equals_unbounded_and_enumeration(self, case):
        fmea, catalogue = case
        for target in ALL_TARGETS:
            with mock.patch.object(
                optimizer, "_dp_frontier", wraps=optimizer._dp_frontier
            ) as fold:
                plan = search_for_target(fmea, catalogue, target)
            # One bounded fold (none for an unreachable target): the
            # fallback to the whole fold is never what answers.
            assert fold.call_count <= 1, target
            reference = unbounded_search(fmea, catalogue, target)
            assert _plan_key(plan) == _plan_key(reference), target
            best = exhaustive_optimum(fmea, catalogue, target)
            assert (plan is None) == (best is None), target
            if best is not None:
                assert plan.cost == best.cost, target
                assert plan.spfm == best.spfm, target

    def test_already_met_target_costs_nothing(self):
        fmea, catalogue = synth_case(random.Random(14), 5)
        for target in ("QM", "ASIL-A"):
            plan = search_for_target(fmea, catalogue, target)
            assert plan.deployments == () and plan.cost == 0
            assert _plan_key(plan) == _plan_key(
                unbounded_search(fmea, catalogue, target)
            )

    def test_unreachable_target_exits_before_the_fold(self, monkeypatch):
        fmea, catalogue = synth_case(random.Random(15), 5)
        # A row without mechanisms that carries most of the failure rate
        # caps the SPFM far below ASIL-B's 90%.
        fmea.rows.append(
            FmeaRow(
                component="Bare",
                component_class="Bare",
                fit=1000.0,
                failure_mode="Open",
                nature="open",
                distribution=1.0,
                safety_related=True,
            )
        )
        assert unbounded_search(fmea, catalogue, "ASIL-B") is None

        def no_fold(*args, **kwargs):
            raise AssertionError("unreachable target must not fold")

        monkeypatch.setattr(optimizer, "_dp_frontier", no_fold)
        monkeypatch.setattr(optimizer, "_greedy", no_fold)
        assert search_for_target(fmea, catalogue, "ASIL-B") is None

    def test_greedy_choice_order_cost_below_row_order_cost(self):
        # Every row is needed for ASIL-D, so the optimum deploys all three.
        # Greedy ranks by gain per cost and picks C2, C1, C0: its cost sums
        # 0.3 + 0.2 + 0.1 = 0.6 while the DP sums 0.1 + 0.2 + 0.3 =
        # 0.6000000000000001 for the same plan.  A strict incumbent bound
        # would drop the optimum.
        fmea = FmeaResult(system="tie", method="manual")
        specs = []
        for index, (fit, cost) in enumerate(
            ((10.0, 0.1), (30.0, 0.2), (100.0, 0.3))
        ):
            fmea.rows.append(
                FmeaRow(
                    component=f"C{index}",
                    component_class=f"K{index}",
                    fit=fit,
                    failure_mode="Open",
                    nature="open",
                    distribution=1.0,
                    safety_related=True,
                )
            )
            specs.append(
                MechanismSpec(f"K{index}", "Open", f"m{index}", 0.999, cost)
            )
        catalogue = SafetyMechanismModel(specs)
        greedy = greedy_plan(fmea, catalogue, "ASIL-D")
        plan = search_for_target(fmea, catalogue, "ASIL-D")
        assert [d.component for d in greedy.deployments] == ["C2", "C1", "C0"]
        assert greedy.cost < plan.cost
        assert sorted(greedy.deployments, key=lambda d: d.component) == list(
            plan.deployments
        )
        assert _plan_key(plan) == _plan_key(
            unbounded_search(fmea, catalogue, "ASIL-D")
        )
        per_row = _options_per_row(fmea, catalogue)
        strict, _ = _dp_frontier(per_row, cost_limit=greedy.cost)
        assert all(state.cost != plan.cost for state in strict)
        tolerant, _ = _dp_frontier(
            per_row, cost_limit=_incumbent_limit(greedy.cost)
        )
        assert plan.cost in [state.cost for state in tolerant]

    def test_underpriced_incumbent_falls_back_to_the_whole_fold(
        self, monkeypatch
    ):
        # An incumbent the DP cannot reach (evaluator and DP disagreeing
        # at the target boundary) must not turn a reachable target into
        # None.
        fmea, catalogue = synth_case(random.Random(18), 6)
        reference = unbounded_search(fmea, catalogue, "ASIL-B")
        assert reference is not None and reference.cost > 0
        real_greedy = optimizer._greedy

        def cheap_greedy(*args):
            plan = real_greedy(*args)
            return optimizer.DeploymentPlan(plan.deployments, plan.spfm, 0.0)

        monkeypatch.setattr(optimizer, "_greedy", cheap_greedy)
        plan = search_for_target(fmea, catalogue, "ASIL-B")
        assert _plan_key(plan) == _plan_key(reference)


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _dp_span():
    (record,) = [
        r for r in obs.tracer().records() if r.name == "optimizer.search"
    ]
    return record.attrs


class TestSearchTelemetry:
    def test_bounded_search_explains_itself(self, traced):
        fmea, catalogue = synth_case(random.Random(18), 6)
        greedy = greedy_plan(fmea, catalogue, "ASIL-B")
        obs.reset()
        plan = search_for_target(fmea, catalogue, "ASIL-B")
        attrs = _dp_span()
        assert attrs["incumbent_cost"] == greedy.cost
        assert attrs["bound_pruned"] > 0
        assert attrs["candidates"] >= attrs["pruned"] + attrs["bound_pruned"]
        assert "unreachable" not in attrs
        assert attrs["met"] is True and attrs["cost"] == plan.cost

    def test_unreachable_search_is_flagged(self, traced):
        fmea, catalogue = synth_case(random.Random(18), 6)
        assert search_for_target(fmea, catalogue, "ASIL-D") is None
        attrs = _dp_span()
        assert attrs["unreachable"] is True and attrs["met"] is False
        assert "candidates" not in attrs

    def test_pareto_fold_is_unbounded(self, traced):
        fmea, catalogue = synth_case(random.Random(18), 6)
        pareto_front(fmea, catalogue)
        (record,) = [
            r for r in obs.tracer().records() if r.name == "optimizer.pareto"
        ]
        assert record.attrs["bound_pruned"] == 0
        assert "incumbent_cost" not in record.attrs


class TestScale:
    def test_pareto_succeeds_beyond_enumeration_cap(self):
        rng = random.Random(7)
        fmea, catalogue = synth_case(rng, 30, max_specs=3)
        # Force a space comfortably past the enumeration cap.
        with pytest.raises(ValueError):
            enumerate_plans(fmea, catalogue)
        front = pareto_front(fmea, catalogue)
        assert front
        costs = [plan.cost for plan in front]
        spfms = [plan.spfm for plan in front]
        assert costs == sorted(costs)
        assert spfms == sorted(spfms)

    def test_search_succeeds_beyond_enumeration_cap(self):
        rng = random.Random(8)
        fmea, catalogue = synth_case(rng, 30, max_specs=3)
        plan = search_for_target(fmea, catalogue, "ASIL-B")
        greedy = greedy_plan(fmea, catalogue, "ASIL-B")
        if plan is None:
            assert greedy is None
        elif greedy is not None:
            assert plan.cost <= greedy.cost + 1e-9


class TestStateCap:
    def test_fold_past_the_state_cap_raises(self):
        # Near-continuous costs and coverages: the exact frontier grows
        # with every row, so a tiny cap trips.  The search is exact or it
        # refuses, like enumeration past its cap.
        rng = random.Random(10)
        fmea = FmeaResult(system="dp", method="manual")
        specs = []
        for index in range(12):
            fmea.rows.append(
                FmeaRow(
                    component=f"C{index}",
                    component_class=f"K{index}",
                    fit=50.0 + index,
                    failure_mode="Open",
                    nature="open",
                    distribution=1.0,
                    safety_related=True,
                )
            )
            for option in range(2):
                specs.append(
                    MechanismSpec(
                        f"K{index}",
                        "Open",
                        f"m{index}_{option}",
                        0.9 + rng.random() * 0.099,
                        rng.random() * 10.0,
                    )
                )
        catalogue = SafetyMechanismModel(specs)
        with pytest.raises(ValueError, match="DP frontier has"):
            _dp_frontier(_options_per_row(fmea, catalogue), max_states=16)
        with pytest.raises(ValueError, match="DP frontier has"):
            pareto_front(fmea, catalogue, max_states=16)
        # The bounds keep a target search's frontier far smaller, but it
        # refuses the same way once that frontier passes the cap.
        with pytest.raises(ValueError, match="DP frontier has"):
            search_for_target(fmea, catalogue, "ASIL-B", max_states=2)
        # The default cap is far above either frontier.
        assert pareto_front(fmea, catalogue)
        assert search_for_target(fmea, catalogue, "ASIL-B") is not None


class TestDispatch:
    def test_unknown_strategy_rejected(self):
        """No engine is selectable: the DP is the only search."""
        rng = random.Random(11)
        fmea, catalogue = synth_case(rng, 2)
        with pytest.raises(TypeError, match="strategy"):
            search_for_target(fmea, catalogue, "ASIL-B", strategy="dp")
        with pytest.raises(TypeError, match="strategy"):
            pareto_front(fmea, catalogue, strategy="dp")

    def test_bad_asil_rejected_up_front(self):
        rng = random.Random(12)
        fmea, catalogue = synth_case(rng, 2)
        with pytest.raises(Exception):
            search_for_target(fmea, catalogue, "ASIL-Z")

    def test_strategies_agree_on_feasibility(self):
        """The DP, enumeration and the greedy heuristic agree on whether a
        target is reachable, and the DP's plan is the enumerated optimum."""
        rng = random.Random(13)
        fmea, catalogue = synth_case(rng, 4)
        for target in TARGETS:
            plan = search_for_target(fmea, catalogue, target)
            best = exhaustive_optimum(fmea, catalogue, target)
            greedy = greedy_plan(fmea, catalogue, target)
            assert (plan is None) == (best is None) == (greedy is None)
            if plan is not None:
                assert plan.cost == best.cost
