"""Automated safety-mechanism deployment search (DECISIVE Step 4b).

Given an FMEA result and a safety-mechanism catalogue, the optimiser answers
the questions the paper automates: *which mechanisms, on which components,
reach the target ASIL at the lowest cost?* (:func:`search_for_target`) and
*what is the Pareto front of viable (cost, SPFM) trade-offs?*
(:func:`pareto_front`).

Both answers come out of one **exact** separable Pareto dynamic program.
SPFM (Eq. 1) is additive over per-failure-mode residual rates, so the
search space separates by row: fold rows one at a time, keeping only
(cost, residual-rate) states that survive dominance pruning (and, for a
target search, that can still finish under the target at no more than the
greedy plan's cost).  Polynomial in rows × options × frontier instead of
exponential in rows.

Two helpers stay public without being a search engine of their own:

- :func:`enumerate_plans` — exhaustive enumeration over per-failure-mode
  options (bounded; raises when the space is too large), the reference the
  DP's exactness is checked against;
- :func:`greedy_plan` — iteratively deploy the mechanism with the best
  SPFM-gain-per-cost until the target is met; the target search's
  incumbent cost bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.safety.fmea import FmeaError, FmeaResult, FmeaRow
from repro.safety.mechanisms import Deployment, SafetyMechanismModel
from repro.safety.metrics import (
    ASIL_SPFM_TARGETS,
    _coverage_map,
    asil_from_spfm,
    spfm,
    spfm_meets,
)

#: Exhaustive enumeration cap (number of candidate plans).
_MAX_ENUMERATION = 200_000

#: DP frontier cap: a row fold whose non-dominated state count exceeds this
#: raises, like enumeration past its cap.  System B searches peak at a few
#: thousand states (see docs/performance.md).
_MAX_DP_STATES = 200_000

class _SpfmEvaluator:
    """Incremental SPFM scoring over a fixed FMEA.

    The searches below score thousands of candidate plans against
    the *same* FMEA; calling :func:`repro.safety.metrics.spfm` each time
    re-derives the safety-related component set, re-scans every row and
    re-sums ``component_fit`` per component.  This evaluator precomputes all
    of that once and scores a candidate in O(safety-related rows), memoising
    per-component contributions so that near-identical candidates (greedy
    trials differ in a single failure mode) only recompute the component
    that changed.

    Scores are bit-identical to ``metrics.spfm``: each component's residual
    rate accumulates over its rows in FMEA row order, components sum in
    first-appearance order — the exact float-operation order of
    ``single_point_rates`` + ``sum(rates.values())``.
    """

    def __init__(self, fmea: FmeaResult) -> None:
        self._components: List[str] = []
        self._rows_of: Dict[str, List[Tuple[Tuple[str, str], float]]] = {}
        for row in fmea.rows:
            if not row.safety_related:
                continue
            if row.component not in self._rows_of:
                self._components.append(row.component)
                self._rows_of[row.component] = []
            self._rows_of[row.component].append(
                ((row.component, row.failure_mode), row.mode_rate)
            )
        self._vacuous = not self._components
        self._lambda_total = 0.0
        if not self._vacuous:
            self._lambda_total = sum(
                fmea.component_fit(c) for c in self._components
            )
            if self._lambda_total <= 0:
                raise FmeaError(
                    "total failure rate of safety-related components is "
                    "zero; did the FMEA rows carry FIT data?"
                )
        self._cache: Dict[str, Dict[Tuple[float, ...], float]] = {
            component: {} for component in self._components
        }

    @property
    def vacuous(self) -> bool:
        return self._vacuous

    @property
    def lambda_total(self) -> float:
        return self._lambda_total

    @property
    def components(self) -> List[str]:
        return list(self._components)

    def component_contribution(
        self, component: str, coverage: Dict[Tuple[str, str], float]
    ) -> float:
        """One component's residual single-point rate under ``coverage``."""
        rows = self._rows_of[component]
        signature = tuple(coverage.get(key, 0.0) for key, _ in rows)
        contribution = self._cache[component].get(signature)
        if contribution is None:
            contribution = 0.0
            for (_, mode_rate), covered in zip(rows, signature):
                contribution = contribution + mode_rate * (1.0 - covered)
            self._cache[component][signature] = contribution
        elif obs.enabled():
            obs.counter("optimizer_spfm_cache_hits").inc()
        return contribution

    def spfm(self, deployments: Sequence[Deployment]) -> float:
        if obs.enabled():
            obs.counter("optimizer_spfm_evaluations").inc()
        if self._vacuous:
            return 1.0
        coverage = _coverage_map(deployments)
        lambda_spf = 0.0
        for component in self._components:
            lambda_spf += self.component_contribution(component, coverage)
        return 1.0 - lambda_spf / self._lambda_total

    def plan(self, deployments: Sequence[Deployment]) -> DeploymentPlan:
        return DeploymentPlan(
            deployments=tuple(deployments),
            spfm=self.spfm(deployments),
            cost=sum(d.cost for d in deployments),
        )


@dataclass(frozen=True)
class DeploymentPlan:
    """An evaluated set of deployments."""

    deployments: Tuple[Deployment, ...]
    spfm: float
    cost: float

    @property
    def asil(self) -> str:
        return asil_from_spfm(self.spfm)

    def meets(self, target_asil: str) -> bool:
        return spfm_meets(self.spfm, target_asil)


def _options_per_row(
    fmea: FmeaResult, catalogue: SafetyMechanismModel
) -> List[Tuple[FmeaRow, List[Optional[Deployment]]]]:
    """For each safety-related row: [None (no mechanism), option1, ...]."""
    out: List[Tuple[FmeaRow, List[Optional[Deployment]]]] = []
    for row in fmea.safety_related_rows():
        options: List[Optional[Deployment]] = [None]
        for spec in catalogue.options_for(row.component_class, row.failure_mode):
            options.append(
                Deployment(
                    component=row.component,
                    failure_mode=row.failure_mode,
                    mechanism=spec.name,
                    coverage=spec.coverage,
                    cost=spec.cost,
                )
            )
        out.append((row, options))
    return out


def evaluate(fmea: FmeaResult, deployments: Sequence[Deployment]) -> DeploymentPlan:
    """Score one deployment set."""
    return DeploymentPlan(
        deployments=tuple(deployments),
        spfm=spfm(fmea, deployments),
        cost=sum(d.cost for d in deployments),
    )


def enumerate_plans(
    fmea: FmeaResult,
    catalogue: SafetyMechanismModel,
    max_plans: int = _MAX_ENUMERATION,
) -> List[DeploymentPlan]:
    """All plans over the per-failure-mode option sets (bounded)."""
    per_row = _options_per_row(fmea, catalogue)
    space = 1
    for _, options in per_row:
        space *= len(options)
    if space > max_plans:
        raise ValueError(
            f"deployment space has {space} plans (> {max_plans}); "
            f"use search_for_target or pareto_front instead"
        )
    evaluator = _SpfmEvaluator(fmea)
    plans: List[DeploymentPlan] = []
    skipped = 0
    option_lists = [options for _, options in per_row]
    with obs.span("optimizer.enumerate", space=space) as sp:
        for combo in itertools.product(*option_lists):
            chosen = [d for d in combo if d is not None]
            try:
                plans.append(evaluator.plan(chosen))
            except (FmeaError, ArithmeticError) as exc:
                # One pathological candidate (e.g. degenerate coverage data)
                # must not void the other 199 999 — skip it and count it.
                skipped += 1
                if obs.enabled():
                    obs.counter("optimizer_trial_failures").inc()
                if skipped == 1:
                    sp.set(first_skip=f"{type(exc).__name__}: {exc}")
        sp.set(plans=len(plans), skipped=skipped)
    return plans


# -- the separable Pareto DP -------------------------------------------------


class _DpState:
    """One surviving (cost, residual-rate) point of the row-fold frontier.

    ``parent``/``deployment`` chain back through the folds, so any state
    reconstructs its deployment list in row order without storing it.
    """

    __slots__ = ("cost", "residual", "parent", "deployment")

    def __init__(
        self,
        cost: float,
        residual: float,
        parent: Optional["_DpState"],
        deployment: Optional[Deployment],
    ) -> None:
        self.cost = cost
        self.residual = residual
        self.parent = parent
        self.deployment = deployment


def _dp_deployments(state: _DpState) -> List[Deployment]:
    """Reconstruct a state's deployments in FMEA row order."""
    chosen: List[Deployment] = []
    while state is not None:
        if state.deployment is not None:
            chosen.append(state.deployment)
        state = state.parent
    chosen.reverse()
    return chosen


def _option_residual(mode_rate: float, option: Optional[Deployment]) -> float:
    return mode_rate if option is None else mode_rate * (1.0 - option.coverage)


def _min_residual_suffix(
    per_row: List[Tuple[FmeaRow, List[Optional[Deployment]]]],
) -> List[float]:
    """``suffix[i]``: the least residual rate rows ``i..`` can still add.

    Each row contributes at least its best option's residual, so a state
    folded through row ``i - 1`` cannot finish below ``residual +
    suffix[i]``.  ``suffix[len(per_row)]`` is ``0.0``.
    """
    suffix = [0.0] * (len(per_row) + 1)
    for index in range(len(per_row) - 1, -1, -1):
        row, options = per_row[index]
        suffix[index] = suffix[index + 1] + min(
            _option_residual(row.mode_rate, option) for option in options
        )
    return suffix


def _dp_frontier(
    per_row: List[Tuple[FmeaRow, List[Optional[Deployment]]]],
    max_states: int = _MAX_DP_STATES,
    residual_room: Optional[List[float]] = None,
    cost_limit: float = math.inf,
) -> Tuple[List[_DpState], Dict[str, float]]:
    """Fold rows one at a time, keeping non-dominated (cost, residual) states.

    SPFM is ``1 - residual / lambda_total`` with ``residual`` additive over
    rows (each row contributes ``mode_rate * (1 - coverage)`` for the chosen
    option, ``mode_rate`` for none), and cost is additive too — so a partial
    assignment is summarised exactly by its (cost, residual) pair, and any
    state that is >=-cost and >=-residual of another can never lead to a
    better completion (every completion adds the same deltas to both).

    Two optional bounds let a target search drop states early (both only
    ever drop a state together with everything it dominates, so the
    surviving part of the frontier is unchanged):

    - ``residual_room[i]`` — the largest residual a state folded through
      row ``i`` may carry and still finish under the target;
    - ``cost_limit`` — states costing more than a known feasible plan
      cannot be the cheapest.

    Without bounds the final frontier is the exact Pareto front.  A fold
    whose frontier exceeds ``max_states`` raises :class:`ValueError`.

    Cost and residual accumulate in FMEA row order, matching the float-op
    order of ``sum(d.cost for d in deployments)`` over row-ordered plans,
    so surviving states carry bit-identical costs to their enumerated
    counterparts.
    """
    stats: Dict[str, float] = {
        "candidates": 0,
        "pruned": 0,
        "bound_pruned": 0,
        "max_frontier": 1,
    }
    states: List[_DpState] = [_DpState(0.0, 0.0, None, None)]
    for index, (row, options) in enumerate(per_row):
        scored = [
            (option, _option_residual(row.mode_rate, option))
            for option in options
        ]
        room = math.inf if residual_room is None else residual_room[index]
        candidates: List[_DpState] = []
        for state in states:
            for option, delta in scored:
                residual = state.residual + delta
                cost = state.cost if option is None else state.cost + option.cost
                if residual <= room and cost <= cost_limit:
                    candidates.append(_DpState(cost, residual, state, option))
        generated = len(states) * len(scored)
        stats["candidates"] += generated
        stats["bound_pruned"] += generated - len(candidates)
        candidates.sort(key=lambda s: (s.cost, s.residual))
        frontier: List[_DpState] = []
        best = math.inf
        for state in candidates:
            if state.residual < best:
                frontier.append(state)
                best = state.residual
        stats["pruned"] += len(candidates) - len(frontier)
        if len(frontier) > max_states:
            raise ValueError(
                f"DP frontier has {len(frontier)} states after row "
                f"{index + 1} of {len(per_row)} (> {max_states})"
            )
        states = frontier
        stats["max_frontier"] = max(stats["max_frontier"], len(states))
    return states, stats


def _publish_dp(sp, stats: Dict[str, float], final_states: int) -> None:
    candidates = int(stats["candidates"])
    dropped = int(stats["pruned"] + stats["bound_pruned"])
    sp.set(
        states=final_states,
        candidates=candidates,
        pruned=int(stats["pruned"]),
        bound_pruned=int(stats["bound_pruned"]),
        max_frontier=int(stats["max_frontier"]),
        prune_ratio=round(dropped / candidates, 4) if candidates else 0.0,
    )
    if obs.enabled():
        obs.counter("optimizer_dp_states").inc(final_states)
        obs.counter("optimizer_dp_pruned").inc(dropped)


def _residual_threshold(target_asil: str, lambda_total: float) -> float:
    """The largest DP residual whose plan may meet ``target_asil``.

    The target slack in residual-rate units; the tiny tolerance covers
    summation-order float noise between the DP's row-order residual and
    the evaluator's per-component grouping.
    """
    slack = (1.0 - ASIL_SPFM_TARGETS[target_asil]) * lambda_total
    return slack * (1.0 + 1e-9) + 1e-12


def _incumbent_limit(cost: float) -> float:
    """The largest DP cost a state may carry against a plan of ``cost``.

    Greedy sums its cost in choice order and the DP in row order, so the
    same plan can differ in the last bit (``128.85999999999996`` against
    ``128.85999999999999``); a strict bound would drop the optimum.
    """
    return cost * (1.0 + 1e-9) + 1e-12


def _dp_scan(
    states: List[_DpState], evaluator: _SpfmEvaluator, target_asil: str
) -> Optional[DeploymentPlan]:
    """The cheapest state of a cost-ascending frontier that meets the target."""
    threshold = _residual_threshold(target_asil, evaluator.lambda_total)
    for state in states:
        if state.residual > threshold:
            continue
        plan = evaluator.plan(_dp_deployments(state))
        if plan.meets(target_asil):
            return plan
    return None


def search_for_target(
    fmea: FmeaResult,
    catalogue: SafetyMechanismModel,
    target_asil: str,
    max_states: int = _MAX_DP_STATES,
) -> Optional[DeploymentPlan]:
    """Exact minimal-cost plan meeting ``target_asil`` via the Pareto DP.

    Equivalent to enumerating every plan and taking the cheapest feasible
    one (bit-equal cost), but polynomial: O(rows x options x frontier).
    The fold is bounded by the target (see :func:`_dp_frontier`):

    - **completability** — a state whose residual plus the least residual
      the remaining rows can add is over the target slack cannot finish
      under it; when even the empty prefix fails this check the target is
      unreachable and the search returns before any fold;
    - **incumbent** — :func:`greedy_plan` gives a feasible plan; a state
      costing more than it cannot be the cheapest (up to
      :func:`_incumbent_limit`'s tolerance).

    Both bounds drop a state only together with every state it dominates,
    so the bounded frontier's cheapest feasible state is the unbounded
    one's.  Returns ``None`` when no plan in the catalogue reaches the
    target.
    """
    spfm_meets(1.0, target_asil)  # validate the ASIL name up front
    per_row = _options_per_row(fmea, catalogue)
    evaluator = _SpfmEvaluator(fmea)
    with obs.span(
        "optimizer.search", target=target_asil, rows=len(per_row)
    ) as sp:
        # The prune bound adds a margin far above the float noise between
        # a prefix-plus-suffix sum and the full row-order sum.
        limit = (
            _residual_threshold(target_asil, evaluator.lambda_total)
            + 1e-9 * evaluator.lambda_total
        )
        suffix = _min_residual_suffix(per_row)
        if suffix[0] > limit:
            sp.set(unreachable=True, met=False)
            return None
        incumbent = _greedy(per_row, evaluator, target_asil)
        cost_limit = math.inf
        if incumbent is not None:
            cost_limit = _incumbent_limit(incumbent.cost)
            sp.set(incumbent_cost=incumbent.cost)
        states, stats = _dp_frontier(
            per_row,
            max_states,
            residual_room=[limit - rest for rest in suffix[1:]],
            cost_limit=cost_limit,
        )
        plan = _dp_scan(states, evaluator, target_asil)
        if plan is None and incumbent is not None:
            # Only reachable when the evaluator and the DP disagree on a
            # plan within float noise of the target: answer exactly as
            # the unbounded fold would.
            states, stats = _dp_frontier(per_row, max_states)
            plan = _dp_scan(states, evaluator, target_asil)
        _publish_dp(sp, stats, len(states))
        if plan is None:
            sp.set(met=False)
        else:
            sp.set(met=True, cost=plan.cost)
    return plan


def pareto_front(
    fmea: FmeaResult,
    catalogue: SafetyMechanismModel,
    max_states: int = _MAX_DP_STATES,
) -> List[DeploymentPlan]:
    """Non-dominated plans: no other plan has lower cost *and* higher SPFM.

    The Pareto DP's final frontier *is* the front — no enumeration, no
    plan-count cap.  Sorted by increasing cost (hence increasing SPFM).
    """
    per_row = _options_per_row(fmea, catalogue)
    evaluator = _SpfmEvaluator(fmea)
    with obs.span("optimizer.pareto", rows=len(per_row)) as sp:
        states, stats = _dp_frontier(per_row, max_states)
        _publish_dp(sp, stats, len(states))
        plans = [evaluator.plan(_dp_deployments(state)) for state in states]
        plans.sort(key=lambda plan: (plan.cost, -plan.spfm))
        front: List[DeploymentPlan] = []
        best_spfm = -1.0
        for plan in plans:
            if plan.spfm > best_spfm + 1e-12:
                front.append(plan)
                best_spfm = plan.spfm
        sp.set(front=len(front))
    return front


# -- greedy ------------------------------------------------------------------


def greedy_plan(
    fmea: FmeaResult,
    catalogue: SafetyMechanismModel,
    target_asil: str,
) -> Optional[DeploymentPlan]:
    """Deploy best SPFM-gain-per-cost mechanisms until the target is met.

    Returns ``None`` when the catalogue cannot reach the target.
    """
    return _greedy(
        _options_per_row(fmea, catalogue), _SpfmEvaluator(fmea), target_asil
    )


def _greedy(per_row, evaluator, target_asil) -> Optional[DeploymentPlan]:
    chosen: Dict[Tuple[str, str], Deployment] = {}

    def current_plan() -> DeploymentPlan:
        return evaluator.plan(list(chosen.values()))

    plan = current_plan()
    with obs.span("optimizer.greedy", target=target_asil) as greedy_span:
        plan = _greedy_loop(
            per_row, evaluator, chosen, plan, target_asil, current_plan
        )
        greedy_span.set(deployments=len(chosen), met=plan is not None)
    return plan


def _greedy_loop(
    per_row, evaluator, chosen, plan, target_asil, current_plan
) -> Optional[DeploymentPlan]:
    # Each accepted move strictly raises one slot's coverage, so the loop
    # terminates in at most sum(len(options)) iterations.  The explicit
    # bound is a backstop against a future invariant break turning the
    # optimiser into an infinite loop mid-campaign.
    #
    # Trials are scored through a per-component delta: deploying on one row
    # changes only that component's residual contribution, so the trial
    # SPFM is lambda_SPF minus the component's old contribution plus its
    # re-derived one — O(component rows) per candidate instead of a full
    # deployment-dict rebuild and rescore.  A trial's contribution depends
    # only on its component's coverage, so it is kept until a move lands on
    # that component; each round then re-scores only the moved component.
    #
    # Ranking: a move must improve SPFM by > 1e-12.  Paid moves
    # (extra_cost > 0) rank by gain per unit cost; free moves
    # (extra_cost <= 0, e.g. a zero-cost upgrade) always outrank paid ones
    # and rank among themselves by raw gain.  The key is the tuple
    # (1, gain) for free moves and (0, gain / extra_cost) for paid ones —
    # a documented total order (free-move class first, then the scale
    # value) replacing the old `gain * 1e9` magic factor.
    max_iterations = sum(len(options) for _, options in per_row) + 1
    iterations = 0
    coverage: Dict[Tuple[str, str], float] = {}
    contributions: Dict[str, float] = {
        component: evaluator.component_contribution(component, coverage)
        for component in evaluator.components
    }
    lambda_spf = sum(contributions.values())
    lambda_total = evaluator.lambda_total
    trials: Dict[str, Dict[Tuple[int, int], float]] = {
        component: {} for component in evaluator.components
    }
    while not plan.meets(target_asil):
        iterations += 1
        if iterations > max_iterations:
            if obs.enabled():
                obs.counter("optimizer_greedy_bailouts").inc()
            return None
        best_key: Optional[Tuple[int, float]] = None
        best_deployment: Optional[Deployment] = None
        for row_index, (row, options) in enumerate(per_row):
            key = (row.component, row.failure_mode)
            incumbent = chosen.get(key)
            base_contribution = contributions[row.component]
            scored = trials[row.component]
            for option_index, option in enumerate(options):
                if option is None:
                    continue
                if incumbent is not None and option.coverage <= incumbent.coverage:
                    continue
                trial_contribution = scored.get((row_index, option_index))
                if trial_contribution is None:
                    had_previous = key in coverage
                    previous = coverage.get(key, 0.0)
                    coverage[key] = option.coverage
                    try:
                        trial_contribution = evaluator.component_contribution(
                            row.component, coverage
                        )
                    except (FmeaError, ArithmeticError):
                        # A single unscorable trial must not abort the
                        # search; skip the candidate and keep looking for
                        # a valid move.
                        if obs.enabled():
                            obs.counter("optimizer_trial_failures").inc()
                        continue
                    finally:
                        if had_previous:
                            coverage[key] = previous
                        else:
                            del coverage[key]
                    scored[(row_index, option_index)] = trial_contribution
                if obs.enabled():
                    obs.counter("optimizer_greedy_delta_evals").inc()
                trial_spfm = 1.0 - (
                    lambda_spf - base_contribution + trial_contribution
                ) / lambda_total
                gain = trial_spfm - plan.spfm
                if gain <= 1e-12:
                    continue
                extra_cost = option.cost - (incumbent.cost if incumbent else 0.0)
                rank = (1, gain) if extra_cost <= 0 else (0, gain / extra_cost)
                if best_key is None or rank > best_key:
                    best_key = rank
                    best_deployment = option
        if best_deployment is None:
            return None  # no improving move left
        slot = (best_deployment.component, best_deployment.failure_mode)
        chosen[slot] = best_deployment
        coverage[slot] = best_deployment.coverage
        contributions[best_deployment.component] = (
            evaluator.component_contribution(best_deployment.component, coverage)
        )
        trials[best_deployment.component].clear()
        lambda_spf = sum(contributions.values())
        plan = current_plan()
    return plan
