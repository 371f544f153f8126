"""BENCH optimizer — separable Pareto DP vs exhaustive enumeration vs greedy.

Times the mechanism search of :mod:`repro.safety.optimizer` (the exact
Pareto DP behind ``search_for_target`` and ``pareto_front``) against
``enumerate_plans`` and ``greedy_plan`` on synthetic catalogues of growing
size, cross-checks the DP against the enumerated optimum on every feasible
case (bit-equal cost *and* SPFM), and writes the measurements to
``BENCH_optimizer.json`` at the repo root.

A System B-scale case (96 rows, two options each, two-decimal costs) times
the bounded target search against the whole-frontier fold plus scan on an
already-met, a reachable and an unreachable target.

Acceptance (full mode):

- on the ``near_cap`` case — a deployment space just under the historical
  200k enumeration cap — the DP is >= 10x faster than exhaustive
  enumeration;
- on every case where enumeration is feasible, ``search_for_target`` is
  bit-equal to the enumerated optimum and ``pareto_front`` equals the
  enumeration-based front plan for plan;
- on the ``beyond_cap`` case ``enumerate_plans`` raises while the DP still
  returns the exact front;
- on the ``system_b_scale`` case the bounded search returns the same plan
  (cost, SPFM and deployments) as the unbounded fold on every target, and
  is >= 3x faster on the reachable one.

Smoke mode (``BENCH_OPTIMIZER_SMOKE=1``): shrinks ``near_cap``, runs one
repeat and skips the speedup assertions, so CI exercises the whole path in
seconds.

Provenance (``BENCH_OPTIMIZER_LEDGER=/path/to/ledger.jsonl``): records the
``near_cap`` DP plan as an analysis-ledger optimizer entry, so the nightly
CI job can gate on ``same watch-regressions`` (SPFM drops against the
previous night's entries).

``BENCH_optimizer.json`` keeps a bounded ``trajectory`` of past runs.
"""

import json
import math
import os
import random
import time
from pathlib import Path

from _harness import format_rows, report_table
from repro.safety.fmea import FmeaResult, FmeaRow
from repro.safety.mechanisms import MechanismSpec, SafetyMechanismModel
from repro.safety.optimizer import (
    _dp_frontier,
    _dp_scan,
    _options_per_row,
    _SpfmEvaluator,
    enumerate_plans,
    greedy_plan,
    pareto_front,
    search_for_target,
)

SMOKE = os.environ.get("BENCH_OPTIMIZER_SMOKE") == "1"
LEDGER_PATH = os.environ.get("BENCH_OPTIMIZER_LEDGER") or None
#: How many trajectory points BENCH_optimizer.json retains.
TRAJECTORY_KEEP = 120
#: Best-of-N wall-clock per (case, arm); 1 repeat in smoke mode.
REPEATS = 1 if SMOKE else 3
SPEEDUP_TARGET = 10.0
TARGET_ASIL = "ASIL-C"
#: System B-scale search: rows, the bounded-vs-unbounded speedup asked of
#: the reachable target, and one target of each kind.
SCALE_ROWS = 96
BOUNDED_SPEEDUP_TARGET = 3.0
SCALE_TARGETS = {"met": "ASIL-A", "reachable": "ASIL-B", "unreachable": "ASIL-D"}

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_optimizer.json"

#: The enumeration cases quote a handful of distinct costs/coverages, so
#: partial cost sums collide and the DP frontier stays small; the
#: two-decimal costs of ``system_b_scale_case`` do not collide (see
#: docs/performance.md).
_COSTS = (1.0, 2.0, 3.0, 5.0, 8.0)
_COVERAGES = (0.60, 0.90, 0.99)


def synth_case(rows, specs_per_row, seed):
    """A ``rows``-row FMEA and a catalogue giving each row
    ``specs_per_row`` mechanism options (deployment space
    ``(specs_per_row + 1) ** rows``).

    Every row's first option covers 0.99, so the ``TARGET_ASIL`` search is
    always feasible — the target cases exercise the optimum, not the
    infeasible early-out (and the nightly ledger entry is always written).
    """
    rng = random.Random(seed)
    fmea = FmeaResult(system=f"synth_{rows}x{specs_per_row}", method="manual")
    specs = []
    for index in range(rows):
        fmea.rows.append(
            FmeaRow(
                component=f"C{index}",
                component_class=f"K{index}",
                fit=rng.choice((25.0, 50.0, 100.0, 200.0)),
                failure_mode="Open",
                nature="open",
                distribution=1.0,
                safety_related=True,
            )
        )
        for option in range(specs_per_row):
            specs.append(
                MechanismSpec(
                    f"K{index}",
                    "Open",
                    f"m{index}_{option}",
                    0.99 if option == 0 else rng.choice(_COVERAGES),
                    rng.choice(_COSTS),
                )
            )
    return fmea, SafetyMechanismModel(specs)


def system_b_scale_case(seed):
    """``SCALE_ROWS`` rows with two options each, costs and coverages drawn
    like the service benchmark's catalogues (``round(uniform(0.5, 8), 2)``,
    ``round(uniform(0.6, 0.99), 3)``).  Most components also carry a latent,
    non-safety-related mode, so ``ASIL-B`` is reachable and ``ASIL-D`` is
    not."""
    rng = random.Random(seed)
    fmea = FmeaResult(system=f"synth_b_{SCALE_ROWS}x2", method="manual")
    specs = []
    for index in range(SCALE_ROWS):
        fit = rng.choice((5.0, 10.0, 20.0, 50.0, 100.0))
        share = rng.choice((1.0, 0.6, 0.4, 0.3))
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
        for option in range(2):
            specs.append(
                MechanismSpec(
                    f"K{index}",
                    "Open",
                    f"m{index}_{option}",
                    round(rng.uniform(0.6, 0.99), 3),
                    round(rng.uniform(0.5, 8.0), 2),
                )
            )
    return fmea, SafetyMechanismModel(specs)


def unbounded_search(fmea, catalogue, target):
    """The whole (cost, residual) frontier, then the cost-ascending scan."""
    states, _ = _dp_frontier(_options_per_row(fmea, catalogue))
    return _dp_scan(states, _SpfmEvaluator(fmea), target)


def plan_key(plan):
    return None if plan is None else (plan.cost, plan.spfm, plan.deployments)


def bench_system_b_scale():
    """Bounded vs unbounded search per target kind; asserts equal plans."""
    fmea, catalogue = system_b_scale_case(0)
    entry = {"rows": SCALE_ROWS, "options_per_row": 2, "targets": {}}
    for kind, target in SCALE_TARGETS.items():
        unbounded_s, reference = timed(unbounded_search, fmea, catalogue, target)
        bounded_s, plan = timed(search_for_target, fmea, catalogue, target)
        assert plan_key(plan) == plan_key(reference), (kind, target)
        assert (plan is None) == (kind == "unreachable"), (kind, target)
        if kind == "met":
            assert plan.deployments == (), target
        entry["targets"][kind] = {
            "target": target,
            "unbounded_s": round(unbounded_s, 6),
            "bounded_s": round(bounded_s, 6),
            "speedup": round(unbounded_s / bounded_s, 2),
            "cost": None if plan is None else plan.cost,
        }
    states, _ = _dp_frontier(_options_per_row(fmea, catalogue))
    entry["front_size"] = len(states)
    return entry


def timed(fn, *args, **kwargs):
    """Best-of-REPEATS wall time; returns (seconds, result)."""
    best, result = math.inf, None
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, outcome
    return best, result


def exhaustive_optimum(fmea, catalogue, space):
    """The enumerated minimal-cost feasible plan (None when infeasible)."""
    plans = enumerate_plans(fmea, catalogue, max_plans=space)
    feasible = [plan for plan in plans if plan.meets(TARGET_ASIL)]
    if not feasible:
        return None
    return min(feasible, key=lambda plan: (plan.cost, -plan.spfm))


def enumerated_front(fmea, catalogue, space):
    """The Pareto front of every enumerated plan, cost ascending."""
    plans = enumerate_plans(fmea, catalogue, max_plans=space)
    plans.sort(key=lambda plan: (plan.cost, -plan.spfm))
    front = []
    for plan in plans:
        if not front or plan.spfm > front[-1].spfm + 1e-12:
            front.append(plan)
    return front


def fronts_identical(dp_front, enum_front):
    if len(dp_front) != len(enum_front):
        return False
    return all(
        a.cost == b.cost and a.spfm == b.spfm
        for a, b in zip(dp_front, enum_front)
    )


def _extended_trajectory(payload):
    """Prior trajectory plus a point for this run, bounded."""
    trajectory = []
    try:
        previous = json.loads(JSON_PATH.read_text(encoding="utf-8"))
        trajectory = list(previous.get("trajectory", []))
    except (OSError, ValueError):
        pass
    point = {"timestamp": time.time(), "mode": payload["mode"]}
    try:
        from repro.obs.ledger import git_describe

        point["git"] = git_describe()
    except Exception:  # noqa: BLE001 — provenance decoration only
        point["git"] = ""
    for case, entry in payload["cases"].items():
        if case == "system_b_scale":
            point[case] = {
                kind: {
                    "bounded_s": timing["bounded_s"],
                    "unbounded_s": timing["unbounded_s"],
                }
                for kind, timing in entry["targets"].items()
            }
            continue
        point[case] = {
            "space": entry["space"],
            "dp_s": entry["dp_s"],
            "exhaustive_s": entry["exhaustive_s"],
            "speedup": entry.get("speedup"),
        }
    trajectory.append(point)
    return trajectory[-TRAJECTORY_KEEP:]


def _ledger_record(case, fmea, plan):
    """Record the DP plan in the provenance ledger for the nightly gate."""
    from repro.obs.ledger import AnalysisLedger, record_optimizer

    record_optimizer(
        AnalysisLedger(LEDGER_PATH),
        plan,
        system=fmea.system,
        # "strategy" keeps the nightly entries' ids comparable across runs.
        config={"bench": case, "target": TARGET_ASIL, "strategy": "dp"},
        meta={"bench": "optimizer", "mode": "smoke" if SMOKE else "full"},
    )


def build_cases():
    """(name, rows, specs_per_row, seed) — spaces are (specs+1)**rows."""
    near_cap_rows = 6 if SMOKE else 11
    return [
        ("small", 5, 2, 11),  # 3^5 = 243
        ("medium", 9, 2, 23),  # 3^9 = 19 683
        ("near_cap", near_cap_rows, 2, 37),  # 3^11 = 177 147 (< 200k cap)
    ]


def test_bench_optimizer():
    payload = {
        "mode": "smoke" if SMOKE else "full",
        "repeats": REPEATS,
        "target_asil": TARGET_ASIL,
        "speedup_target": SPEEDUP_TARGET,
        "cases": {},
    }
    table = []
    for case, rows, specs_per_row, seed in build_cases():
        fmea, catalogue = synth_case(rows, specs_per_row, seed)
        space = (specs_per_row + 1) ** rows
        exhaustive_s, optimum = timed(
            exhaustive_optimum, fmea, catalogue, space
        )
        dp_s, dp_plan = timed(search_for_target, fmea, catalogue, TARGET_ASIL)
        greedy_s, greedy = timed(greedy_plan, fmea, catalogue, TARGET_ASIL)
        dp_front_s, dp_front = timed(pareto_front, fmea, catalogue)
        enum_front = enumerated_front(fmea, catalogue, space)

        # Correctness cross-checks: DP bit-equal to the enumerated optimum,
        # front plan for plan, greedy never cheaper than the optimum.
        assert optimum is not None, f"{case}: synth cases must be feasible"
        assert dp_plan is not None, case
        assert dp_plan.cost == optimum.cost, case
        assert dp_plan.spfm == optimum.spfm, case
        if greedy is not None and optimum is not None:
            assert greedy.cost >= optimum.cost - 1e-9, case
        assert fronts_identical(dp_front, enum_front), case

        if case == "near_cap" and LEDGER_PATH and dp_plan is not None:
            _ledger_record(case, fmea, dp_plan)

        entry = {
            "rows": rows,
            "space": space,
            "exhaustive_s": round(exhaustive_s, 6),
            "dp_s": round(dp_s, 6),
            "greedy_s": round(greedy_s, 6),
            "dp_front_s": round(dp_front_s, 6),
            "speedup": round(exhaustive_s / dp_s, 3) if dp_s else math.inf,
            "front_size": len(dp_front),
            "optimum_cost": None if optimum is None else optimum.cost,
            "greedy_cost": None if greedy is None else greedy.cost,
        }
        payload["cases"][case] = entry
        table.append(
            {
                "Case": case,
                "Space": space,
                "Exh(s)": f"{exhaustive_s:.3f}",
                "DP(s)": f"{dp_s:.4f}",
                "Greedy(s)": f"{greedy_s:.4f}",
                "Speedup": f"{exhaustive_s / dp_s:.1f}x" if dp_s else "inf",
                "Front": len(dp_front),
            }
        )

    # Beyond the cap: enumeration must raise, the DP must still deliver
    # the exact front (the pareto_front acceptance case).
    fmea, catalogue = synth_case(16, 2, 53)  # 3^16 ≈ 43e6 plans
    raised = False
    try:
        enumerate_plans(fmea, catalogue)
    except ValueError:
        raised = True
    assert raised, "enumeration should refuse the 3^16 space"
    beyond_s, beyond_front = timed(pareto_front, fmea, catalogue)
    assert beyond_front, "DP front must succeed beyond the enumeration cap"
    payload["cases"]["beyond_cap"] = {
        "rows": 16,
        "space": 3**16,
        "exhaustive_s": None,
        "exhaustive_raises": True,
        "dp_s": round(beyond_s, 6),
        "front_size": len(beyond_front),
    }
    table.append(
        {
            "Case": "beyond_cap",
            "Space": 3**16,
            "Exh(s)": "raises",
            "DP(s)": f"{beyond_s:.4f}",
            "Greedy(s)": "-",
            "Speedup": "-",
            "Front": len(beyond_front),
        }
    )

    scale = bench_system_b_scale()
    payload["cases"]["system_b_scale"] = scale
    for kind, timing in scale["targets"].items():
        table.append(
            {
                "Case": f"b_scale/{kind}",
                "Space": f"3^{SCALE_ROWS}",
                "Exh(s)": f"unbounded {timing['unbounded_s']:.3f}",
                "DP(s)": f"{timing['bounded_s']:.4f}",
                "Greedy(s)": "-",
                "Speedup": f"{timing['speedup']:.1f}x",
                "Front": scale["front_size"],
            }
        )

    near_cap = payload["cases"]["near_cap"]
    reachable = scale["targets"]["reachable"]
    payload["bounded_speedup_target"] = BOUNDED_SPEEDUP_TARGET
    payload["accepted"] = bool(
        SMOKE
        or (
            near_cap["speedup"] >= SPEEDUP_TARGET
            and reachable["speedup"] >= BOUNDED_SPEEDUP_TARGET
        )
    )
    payload["trajectory"] = _extended_trajectory(payload)
    JSON_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report_table(
        "BENCH optimizer",
        "separable Pareto DP vs exhaustive enumeration vs greedy",
        format_rows(table),
    )

    if not SMOKE:
        assert near_cap["speedup"] >= SPEEDUP_TARGET, (
            "DP must beat exhaustive enumeration by "
            f">= {SPEEDUP_TARGET}x near the cap, got {near_cap['speedup']}x"
        )
        assert reachable["speedup"] >= BOUNDED_SPEEDUP_TARGET, (
            "the bounded search must beat the unbounded fold by "
            f">= {BOUNDED_SPEEDUP_TARGET}x on the reachable System B-scale "
            f"target, got {reachable['speedup']}x"
        )
