"""Ablation A2 — safety-mechanism deployment strategies.

Step 4b's automation searches exactly (the Pareto DP: optimal) or returns
the whole Pareto front for the analyst to choose from (the paper's "pareto
front of viable solutions"); the greedy heuristic is the baseline.  On
System B's catalogue the optimum and the greedy plan must both reach
ASIL-B, with greedy paying at most a modest cost premium; the front must
bracket both.
"""

import pytest

from _harness import format_rows, report_table
from repro.casestudies.systems import build_system_b, system_mechanisms
from repro.reliability import standard_reliability_model
from repro.safety import (
    greedy_plan,
    pareto_front,
    run_ssam_fmea,
    search_for_target,
)


@pytest.fixture(scope="module")
def fmea():
    model = build_system_b()
    return run_ssam_fmea(
        model.top_components()[0], standard_reliability_model()
    )


@pytest.fixture(scope="module")
def catalogue():
    return system_mechanisms()


def test_a2_exhaustive_search(benchmark, fmea, catalogue):
    plan = benchmark(search_for_target, fmea, catalogue, "ASIL-B")
    assert plan is not None and plan.meets("ASIL-B")


def test_a2_greedy_search(benchmark, fmea, catalogue):
    plan = benchmark(greedy_plan, fmea, catalogue, "ASIL-B")
    assert plan is not None and plan.meets("ASIL-B")


def test_a2_pareto_front(benchmark, fmea, catalogue):
    front = benchmark(pareto_front, fmea, catalogue)

    optimal = search_for_target(fmea, catalogue, "ASIL-B")
    greedy = greedy_plan(fmea, catalogue, "ASIL-B")

    rows = [
        {
            "Strategy": "Pareto DP (optimal)",
            "Cost(h)": f"{optimal.cost:g}",
            "SPFM": f"{optimal.spfm * 100:.2f}%",
            "ASIL": optimal.asil,
        },
        {
            "Strategy": "greedy",
            "Cost(h)": f"{greedy.cost:g}",
            "SPFM": f"{greedy.spfm * 100:.2f}%",
            "ASIL": greedy.asil,
        },
        {
            "Strategy": f"pareto front ({len(front)} plans)",
            "Cost(h)": f"{front[0].cost:g} .. {front[-1].cost:g}",
            "SPFM": f"{front[0].spfm * 100:.2f}% .. {front[-1].spfm * 100:.2f}%",
            "ASIL": f"{front[0].asil} .. {front[-1].asil}",
        },
    ]
    report_table(
        "Ablation A2", "mechanism deployment strategies (System B)",
        format_rows(rows),
    )

    # Greedy is never cheaper than the optimum, and not absurdly pricier.
    assert greedy.cost >= optimal.cost - 1e-9
    assert greedy.cost <= optimal.cost * 3 + 5
    # The front brackets every feasible strategy.
    assert front[0].cost <= optimal.cost <= front[-1].cost + 1e-9
    assert front[-1].spfm >= optimal.spfm - 1e-12
