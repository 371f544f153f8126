"""BENCH injection — batched fault-injection engine: naive vs incremental
campaigns.

Times the two execution strategies of
:class:`repro.safety.campaign.FaultInjectionCampaign` on the paper's
power-supply case study (Section V) and the synthetic System A/B power
networks (Section VI scale), checks the strategies produce row-for-row
identical FMEA tables while timing them, and writes the measurements to
``BENCH_injection.json`` at the repo root.

An incremental campaign solves every fault by Woodbury updates of one
factorization of the constant matrix; the system's size picks only that
factorization's backend (:func:`repro.circuit.backends.resolve_backend`:
dense LAPACK LU below ``SPARSE_AUTO_MIN_SIZE`` unknowns, SuperLU at or
above).  A fourth tier times the parameterized distribution-grid case
study (:func:`~repro.casestudies.build_power_grid_simulink`, ~5k blocks /
~2.5k MNA unknowns) incremental vs naive over a seeded injection sample.
Every incremental run must agree row for row with naive re-assembly.

A primed-reuse probe times what the analysis service saves by keeping one
:class:`~repro.circuit.PrimedSystem` per cached model: cold grid samples
run on a freshly primed system against the same samples on one shared
primed system, alternating which runs first, with rows asserted equal.
Both walls go to ``BENCH_injection.json``, and ``meta.scaling.primed_reuse``
(shared over fresh, budget 1) lets ``watch-regressions`` flag a reuse path
that stops winning.  Beside it, ``meta.scaling.smw_base_solves`` counts
the base solves (``factorization_reuses``) one SMW fault solve costs on a
grid sample over a shared primed system (budget 3): Newton runs in each
fault's Woodbury basis and solves full length only to verify, so a fault
pays its own column and the refinement passes of its verifying step.  A
solver that went back to full-length solves every iteration would read
~5.

Acceptance (full mode):

- the incremental engine beats naive per-fault re-assembly by >= 3x wall
  clock on the largest classic case (System B, ~230 injection jobs over
  ~107 MNA unknowns);
- incremental runs at least as fast as naive on *every* classic case
  (speedup >= 1.0 per case, not just the largest);
- a grid sample on the shared primed system beats one that primes its own;
- an SMW fault solve costs at most 3 base solves (smoke mode too).

Smoke mode (``BENCH_INJECTION_SMOKE=1``): shrinks System B and the grid,
runs one repeat per strategy and skips the speedup assertions, so CI
exercises the whole code path in seconds.

Tracing (``BENCH_INJECTION_TRACE=/path/to/trace.jsonl``): enables the
``repro.obs`` layer for the whole benchmark and exports the combined
span/metric log (Chrome trace JSON instead when the path ends in
``.json``) — the artifact CI uploads next to ``BENCH_injection.json``.

Provenance (``BENCH_INJECTION_LEDGER=/path/to/ledger.jsonl``): records
each case's incremental campaign as an analysis-ledger entry, so the
nightly CI job can gate on ``same watch-regressions`` — SPFM drops, new
single-point faults, wall-time regressions and incremental-slower-than-naive
strategy inversions against the previous night's entries.

``BENCH_injection.json`` keeps a bounded ``trajectory`` of past runs
(per-case wall times and speedups) in addition to the latest full
measurement, so the performance story is a curve, not a point.
"""

import json
import math
import os
import statistics
import time
from pathlib import Path

from _harness import format_rows, report_table
from repro.casestudies import (
    SYSTEM_A_ASSUMED_STABLE,
    SYSTEM_B_ASSUMED_STABLE,
    build_power_grid_simulink,
    build_power_supply_simulink,
    build_system_a_simulink,
    build_system_b_simulink,
    power_grid_injection_sample,
    power_network_reliability,
    power_supply_reliability,
)
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.circuit import PrimedSystem
from repro.obs.ledger import fmea_rows_payload
from repro.safety.campaign import FaultInjectionCampaign
from repro.simulink import to_netlist

SMOKE = os.environ.get("BENCH_INJECTION_SMOKE") == "1"
TRACE_PATH = os.environ.get("BENCH_INJECTION_TRACE") or None
LEDGER_PATH = os.environ.get("BENCH_INJECTION_LEDGER") or None
#: How many trajectory points BENCH_injection.json retains.
TRAJECTORY_KEEP = 120
#: Best-of-N wall-clock per (case, strategy); 1 repeat in smoke mode.
#: Five repeats because the per-case ``speedup >= 1.0`` gates on the
#: millisecond-scale cases need minima, not single noisy samples.
REPEATS = 1 if SMOKE else 5
#: The grid tier runs seconds per strategy; a single repeat is stable.
GRID_REPEATS = 1
#: Smoke mode shrinks the scaling subjects so CI stays fast.
SYSTEM_B_BENCH_RAILS = 4 if SMOKE else 14
GRID_FEEDERS = 2 if SMOKE else 8
GRID_SECTIONS = 12 if SMOKE else 300
GRID_SAMPLE_K = 8 if SMOKE else 24
#: Alternating fresh/shared rounds of the primed-reuse probe, one new
#: grid sample each; each arm reports its median.
REUSE_ROUNDS = 2 if SMOKE else 9
#: The reuse probe's scaling budget: shared wall over fresh wall.
REUSE_BUDGET = 1.0
#: Budget of base solves (``factorization_reuses``) per SMW fault solve
#: on one grid sample over a shared primed system: a fault's own column
#: plus the refinement passes of its full-length steps.  A fault that
#: again solved full-length every Newton iteration reads ~5.
SMW_BASE_SOLVES_BUDGET = 3.0
SPEEDUP_TARGET = 3.0

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_injection.json"

STRATEGIES = (
    ("naive", {"incremental": False}),
    ("incremental", {}),
)


def build_cases():
    return [
        (
            "power_supply",
            build_power_supply_simulink(),
            power_supply_reliability(),
            ASSUMED_STABLE,
        ),
        (
            "system_a",
            build_system_a_simulink(),
            power_network_reliability(),
            SYSTEM_A_ASSUMED_STABLE,
        ),
        (
            "system_b",
            build_system_b_simulink(rails=SYSTEM_B_BENCH_RAILS),
            power_network_reliability(),
            SYSTEM_B_ASSUMED_STABLE,
        ),
    ]


def time_campaign(model, reliability, stable, kwargs, repeats=None):
    """Best-of-N wall time; returns (seconds, FmeaResult)."""
    best, result = math.inf, None
    for _ in range(REPEATS if repeats is None else repeats):
        campaign = FaultInjectionCampaign(
            model, reliability, assume_stable=stable, **kwargs
        )
        start = time.perf_counter()
        outcome = campaign.run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, outcome
    return best, result


def rows_identical(reference, other, tol=1e-9):
    if len(reference.rows) != len(other.rows):
        return False
    for expected, actual in zip(reference.rows, other.rows):
        if (
            expected.component,
            expected.failure_mode,
            expected.safety_related,
            expected.impact,
            expected.effect,
            expected.warning,
        ) != (
            actual.component,
            actual.failure_mode,
            actual.safety_related,
            actual.impact,
            actual.effect,
            actual.warning,
        ):
            return False
        for sensor, delta in expected.sensor_deltas.items():
            if not math.isclose(
                delta,
                actual.sensor_deltas.get(sensor, math.nan),
                rel_tol=tol,
                abs_tol=tol,
            ):
                return False
    return True


#: Per-case keys copied into each trajectory point (when present).
_TRAJECTORY_KEYS = (
    "jobs",
    "naive_s",
    "incremental_s",
    "speedup",
    "incremental_speedup",
    "fresh_s",
    "shared_s",
    "reuse_speedup",
    "smw_base_solves",
)


def _extended_trajectory(payload):
    """Prior trajectory (from the existing JSON, if readable) plus a point
    for this run, bounded to the most recent TRAJECTORY_KEEP entries."""
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
        point[case] = {
            key: entry[key] for key in _TRAJECTORY_KEYS if key in entry
        }
    trajectory.append(point)
    return trajectory[-TRAJECTORY_KEEP:]


def _ledger_record(
    case, model, reliability, result, timings=None, scaling=None
):
    """Record one case's campaign in the provenance ledger."""
    from repro.obs.ledger import AnalysisLedger, record_fmea
    from repro.safety.metrics import asil_from_spfm, spfm

    value = spfm(result, ())
    meta = {"bench": "injection", "mode": "smoke" if SMOKE else "full"}
    if timings:
        meta["timings"] = timings
    if scaling:
        meta["scaling"] = scaling
    record_fmea(
        AnalysisLedger(LEDGER_PATH),
        result,
        model=model,
        reliability=reliability,
        spfm=value,
        asil=asil_from_spfm(value),
        config={"bench": case},
        meta=meta,
    )


#: Extra measurement rounds folded in (per case) when incremental
#: measures slower than naive — the small cases run in ~1.5 ms, where a
#: single descheduling blip flips the ratio; more minima de-noise it.
REMEASURE_ROUNDS = 0 if SMOKE else 2


def _classic_cases(payload, table):
    """Time the three classic cases over both execution strategies."""
    for case, model, reliability, stable in build_cases():
        runs = {label: (math.inf, None) for label, _ in STRATEGIES}
        for round_ in range(1 + REMEASURE_ROUNDS):
            if round_ and runs["incremental"][0] <= runs["naive"][0]:
                break
            for label, kwargs in STRATEGIES:
                seconds, result = time_campaign(
                    model, reliability, stable, kwargs
                )
                if seconds < runs[label][0]:
                    runs[label] = (seconds, result)
        naive_s = runs["naive"][0]
        incremental_s = runs["incremental"][0]
        identical = rows_identical(runs["naive"][1], runs["incremental"][1])
        assert identical, f"{case}: strategies disagree on FMEA rows"
        stats = runs["incremental"][1].stats
        entry = {
            "jobs": stats.jobs,
            "naive_s": round(naive_s, 6),
            "incremental_s": round(incremental_s, 6),
            "speedup": round(naive_s / incremental_s, 3),
            "incremental_speedup": round(naive_s / incremental_s, 3),
            "rows_identical": identical,
            "incremental_stats": stats.as_dict(),
        }
        payload["cases"][case] = entry
        if LEDGER_PATH:
            _ledger_record(
                case,
                model,
                reliability,
                runs["incremental"][1],
                timings={
                    label: round(runs[label][0], 6) for label in runs
                },
            )
        table.append(
            {
                "Case": case,
                "Jobs": stats.jobs,
                "Naive(s)": f"{naive_s:.3f}",
                "Incr(s)": f"{incremental_s:.3f}",
                "Speedup": f"{naive_s / incremental_s:.2f}x",
                "Backend": stats.solver_backend,
                "SMW": stats.smw_solves,
                "Rebuilds": stats.full_rebuilds,
            }
        )


def _grid_case(payload):
    """Time the distribution grid incremental (on the size-picked
    factorization) vs naive over a seeded injection sample; both must agree
    row for row."""
    model = build_power_grid_simulink(
        feeders=GRID_FEEDERS, sections_per_feeder=GRID_SECTIONS
    )
    reliability = power_network_reliability()
    stable = power_grid_injection_sample(model, k=GRID_SAMPLE_K, seed=0)
    runs = {
        label: time_campaign(
            model, reliability, stable, kwargs, repeats=GRID_REPEATS
        )
        for label, kwargs in STRATEGIES
    }
    identical = rows_identical(runs["naive"][1], runs["incremental"][1])
    assert identical, "power_grid: strategies disagree on FMEA rows"
    stats = runs["incremental"][1].stats
    entry = {
        "jobs": stats.jobs,
        "feeders": GRID_FEEDERS,
        "sections_per_feeder": GRID_SECTIONS,
        "sample_k": GRID_SAMPLE_K,
        "incremental_s": round(runs["incremental"][0], 6),
        "naive_s": round(runs["naive"][0], 6),
        "speedup": round(runs["naive"][0] / runs["incremental"][0], 3),
        "rows_identical": identical,
        "incremental_stats": stats.as_dict(),
    }
    payload["cases"]["power_grid"] = entry
    if LEDGER_PATH:
        _ledger_record(
            "power_grid",
            model,
            reliability,
            runs["incremental"][1],
            timings={label: round(runs[label][0], 6) for label in runs},
        )
    report_table(
        "BENCH injection grid",
        "incremental vs naive on the distribution grid",
        format_rows(
            [
                {
                    "Case": "power_grid",
                    "Jobs": stats.jobs,
                    "Backend": stats.solver_backend,
                    "Incr(s)": f"{runs['incremental'][0]:.3f}",
                    "Naive(s)": f"{runs['naive'][0]:.3f}",
                    "Speedup": f"{entry['speedup']:.2f}x",
                    "Batched": stats.batched_columns,
                    "Rebuilds": stats.full_rebuilds,
                }
            ]
        ),
    )


def _smw_base_solves(model, reliability, conversion):
    """Base solves per SMW fault solve (``factorization_reuses`` over
    ``smw_solves``) of one grid sample on a shared primed system."""
    stable = power_grid_injection_sample(model, k=GRID_SAMPLE_K, seed=0)
    primed = PrimedSystem(conversion.netlist)
    stats = FaultInjectionCampaign(
        model, reliability, assume_stable=stable
    ).run(conversion=conversion, primed=primed).stats
    assert stats.smw_solves > 0
    return stats.factorization_reuses / stats.smw_solves


def _primed_reuse_case(payload):
    """Time cold grid samples on a freshly primed system against the same
    samples on one shared primed system, alternating which arm runs
    first; rows must be identical.

    Both arms get the model's one conversion, so they differ only in
    priming: index maps, constant matrix, factorization and baseline.  The
    model is named apart from the grid tier's, so the ledger pairs each
    night's reuse entry with the previous night's."""
    model = build_power_grid_simulink(
        name="power_grid_reuse",
        feeders=GRID_FEEDERS,
        sections_per_feeder=GRID_SECTIONS,
    )
    reliability = power_network_reliability()
    conversion = to_netlist(model)
    primed = PrimedSystem(conversion.netlist)
    walls = {"fresh": [], "shared": []}
    for round_ in range(REUSE_ROUNDS):
        stable = power_grid_injection_sample(
            model, k=GRID_SAMPLE_K, seed=100 + round_
        )
        arms = (("fresh", None), ("shared", primed))
        rows = {}
        for label, shared in arms if round_ % 2 == 0 else arms[::-1]:
            campaign = FaultInjectionCampaign(
                model, reliability, assume_stable=stable
            )
            start = time.perf_counter()
            run = campaign.run(conversion=conversion, primed=shared)
            walls[label].append(time.perf_counter() - start)
            rows[label] = fmea_rows_payload(run)
            if shared is not None:
                result = run  # the ledger records the shared arm
        assert rows["fresh"] == rows["shared"], (
            f"power_grid_reuse: sample {round_} rows differ on the shared "
            "primed system"
        )
    fresh_s = statistics.median(walls["fresh"])
    shared_s = statistics.median(walls["shared"])
    base_solves = _smw_base_solves(model, reliability, conversion)
    scaling = {
        "primed_reuse": {
            "ratio": round(shared_s / fresh_s, 3),
            "budget": REUSE_BUDGET,
        },
        "smw_base_solves": {
            "ratio": round(base_solves, 3),
            "budget": SMW_BASE_SOLVES_BUDGET,
        },
    }
    entry = {
        "jobs": result.stats.jobs,
        "sample_k": GRID_SAMPLE_K,
        "rounds": REUSE_ROUNDS,
        "solver_backend": primed.backend,
        "fresh_s": round(fresh_s, 6),
        "shared_s": round(shared_s, 6),
        "reuse_speedup": round(fresh_s / shared_s, 3),
        "smw_base_solves": scaling["smw_base_solves"]["ratio"],
        "rows_identical": True,
    }
    payload["cases"]["power_grid_reuse"] = entry
    payload["meta"] = {"scaling": scaling}
    if LEDGER_PATH:
        _ledger_record(
            "power_grid_reuse",
            model,
            reliability,
            result,
            timings={"fresh": entry["fresh_s"], "shared": entry["shared_s"]},
            scaling=scaling,
        )
    report_table(
        "BENCH injection reuse",
        "cold grid samples: fresh priming vs the shared primed system",
        format_rows(
            [
                {
                    "Case": "power_grid_reuse",
                    "Jobs": result.stats.jobs,
                    "Backend": primed.backend,
                    "Rounds": REUSE_ROUNDS,
                    "Fresh(s)": f"{fresh_s:.3f}",
                    "Shared(s)": f"{shared_s:.3f}",
                    "Fresh/Shared": f"{entry['reuse_speedup']:.2f}x",
                    "Base solves/SMW": f"{base_solves:.2f}",
                }
            ]
        ),
    )
    return entry


def test_bench_injection():
    if TRACE_PATH:
        from repro import obs

        obs.enable()
        obs.reset()

    # Warm-up: import costs, first-touch numpy/scipy paths.
    warm_model = build_power_supply_simulink()
    FaultInjectionCampaign(
        warm_model, power_supply_reliability(), assume_stable=ASSUMED_STABLE
    ).run()

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "repeats": REPEATS,
        "system_b_rails": SYSTEM_B_BENCH_RAILS,
        "speedup_target": SPEEDUP_TARGET,
        "cases": {},
    }
    table = []
    _classic_cases(payload, table)
    _grid_case(payload)
    reuse = _primed_reuse_case(payload)
    base_solves = payload["meta"]["scaling"]["smw_base_solves"]

    largest = payload["cases"]["system_b"]
    classic = {
        case: payload["cases"][case]
        for case in ("power_supply", "system_a", "system_b")
    }
    within_budget = base_solves["ratio"] <= base_solves["budget"]
    payload["accepted"] = within_budget and bool(
        SMOKE
        or (
            largest["speedup"] >= SPEEDUP_TARGET
            and reuse["shared_s"] < reuse["fresh_s"]
            and all(
                entry["incremental_speedup"] >= 1.0
                for entry in classic.values()
            )
        )
    )
    payload["trajectory"] = _extended_trajectory(payload)
    JSON_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report_table(
        "BENCH injection",
        "naive vs incremental fault-injection campaigns",
        format_rows(table),
    )

    if TRACE_PATH:
        from repro import obs

        if TRACE_PATH.endswith(".json"):
            trace_file = obs.export_chrome_trace(TRACE_PATH)
        else:
            trace_file = obs.export_jsonl(TRACE_PATH)
        print(f"\nobservability trace written to {trace_file}")

    assert within_budget, (
        "an SMW fault solve must cost at most "
        f"{base_solves['budget']} base solves, got {base_solves['ratio']}"
    )
    if not SMOKE:
        assert largest["speedup"] >= SPEEDUP_TARGET, (
            "batched engine must beat naive re-assembly by "
            f">= {SPEEDUP_TARGET}x on System B, got {largest['speedup']}x"
        )
        assert reuse["shared_s"] < reuse["fresh_s"], (
            "a grid sample on the shared primed system must beat one that "
            f"primes its own, got {reuse['reuse_speedup']}x"
        )
        for case, entry in classic.items():
            assert entry["incremental_speedup"] >= 1.0, (
                f"{case}: incremental slower than naive "
                f"({entry['incremental_speedup']}x)"
            )
