"""Measure the campaign fan-out crossover: serial incremental vs a fresh
2-worker process pool, in alternating pairs, on every injection-bench case.

Each row times one campaign ``--pairs`` times per arm, alternating
serial/pool so machine drift hits both arms alike, and reports the
medians, how many pairs the pool won, the work estimate
``pending_jobs × system_size`` and the arm the fan-out rule
(:data:`repro.safety.campaign.PARALLEL_MIN_WORK`) picks.  The pool arm
forces fan-out by lowering the crossover for its run only.  The output
is the markdown table quoted in docs/performance.md.  Run as::

    PYTHONPATH=src python benchmarks/fanout_crossover.py [--pairs 7]
"""

import argparse
import statistics
import sys
import time

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
from repro.circuit import system_size
from repro.safety import campaign as campaign_mod
from repro.simulink import to_netlist

POOL_WORKERS = 2


def cases():
    """(label, model, reliability, assume_stable) for every row."""
    network = power_network_reliability()
    yield "power supply", build_power_supply_simulink(), (
        power_supply_reliability()
    ), ASSUMED_STABLE
    yield "System A", build_system_a_simulink(), network, (
        SYSTEM_A_ASSUMED_STABLE
    )
    for rails in (4, 8, 14):
        yield f"System B, {rails} rails", build_system_b_simulink(
            rails=rails
        ), network, SYSTEM_B_ASSUMED_STABLE
    grid = build_power_grid_simulink(feeders=8, sections_per_feeder=300)
    for k in (24, 48, 96):
        yield f"grid, k={k}", grid, network, power_grid_injection_sample(
            grid, k=k, seed=0
        )


def timed(model, reliability, stable, workers):
    campaign = campaign_mod.FaultInjectionCampaign(
        model, reliability, assume_stable=stable, workers=workers
    )
    started = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - started, result.stats


def pool_timed(model, reliability, stable):
    rule = campaign_mod.PARALLEL_MIN_WORK
    campaign_mod.PARALLEL_MIN_WORK = 0
    try:
        seconds, stats = timed(model, reliability, stable, POOL_WORKERS)
    finally:
        campaign_mod.PARALLEL_MIN_WORK = rule
    if stats.workers != POOL_WORKERS or stats.parallel_fallback:
        sys.exit("the pool arm did not fan out on this machine")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=7)
    args = parser.parse_args(argv)
    print(
        "| campaign | jobs | unknowns | jobs × unknowns | serial (s) "
        "| pool (s) | pool wins | rule picks | majority |"
    )
    print("|---|---|---|---|---|---|---|---|---|")
    for label, model, reliability, stable in cases():
        size = system_size(to_netlist(model).netlist)
        # One untimed run per arm: imports, first-touch and page cache.
        _, stats = timed(model, reliability, stable, 1)
        pool_timed(model, reliability, stable)
        serial, pool = [], []
        for _ in range(args.pairs):
            serial.append(timed(model, reliability, stable, 1)[0])
            pool.append(pool_timed(model, reliability, stable))
        wins = sum(p < s for s, p in zip(serial, pool))
        work = stats.jobs * size
        picks = "pool" if work >= campaign_mod.PARALLEL_MIN_WORK else "serial"
        majority = "pool" if 2 * wins > args.pairs else "serial"
        print(
            f"| {label} | {stats.jobs} | {size} | {work:,} "
            f"| {statistics.median(serial):.3f} "
            f"| {statistics.median(pool):.3f} | {wins}/{args.pairs} "
            f"| {picks} | {majority} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
