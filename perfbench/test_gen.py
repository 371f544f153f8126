"""Self-test of the benchmark's request generator and tail selection.

Run from the repository root::

    python -m pytest -q perfbench/test_gen.py
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SECONDS = 6.0


@pytest.fixture(scope="module", params=gen.WORKLOADS)
def plans(request):
    workload = request.param
    return (
        gen.build(workload, 7, SECONDS),
        gen.build(workload, 7, SECONDS),
        gen.build(workload, 8, SECONDS),
    )


def test_same_seed_gives_identical_sequence(plans):
    first, again, _ = plans
    assert first.digest() == again.digest()
    assert [r.body for r in first.timed()] == [r.body for r in again.timed()]


def test_other_seed_changes_variants_not_the_mix(plans):
    first, _, other = plans
    assert first.digest() != other.digest()
    # The same number of requests per case, kind and role.
    assert gen.case_mix(first) == gen.case_mix(other)
    new = {r.key for r in first.timed() if r.role == "cold"}
    new_other = {r.key for r in other.timed() if r.role == "cold"}
    assert new and not new & new_other


def test_open_loop_offers_the_same_load_for_every_seed():
    plans = [gen.build("tenants", seed, SECONDS) for seed in (1, 2, 3)]
    for plan in plans:
        assert plan.steps == plans[0].steps
        for name, rate, start, end in plan.steps:
            sent = [due for due, _, step in plan.schedule if step == name]
            assert all(start <= due < end for due in sent)
            every = gen.TENANT_BURST_EVERY
            bursts = len([
                k for k in range(1000) if start + every * (k + 0.5) < end
            ])
            assert len(sent) == round(rate * (end - start)) + bursts * (
                gen.TENANT_BURST_SIZE
            )


def test_hits_revisit_questions_asked_before():
    for workload in gen.WORKLOADS:
        plan = gen.build(workload, 3, SECONDS)
        asked = {r.key for r in plan.warmup}
        for request in plan.timed():
            if request.role == "hit":
                assert request.key in asked
            asked.add(request.key)


def test_tail_keeps_ten_samples_beyond():
    for count in range(1, 5000):
        pct = gen.percentile_rank(count)
        if pct is None:
            # No percentile above p50 leaves ten samples beyond.
            assert count - math.ceil(51 * count / 100) < 10
            continue
        assert 50 < pct <= 99
        assert count - math.ceil(pct * count / 100) >= 10
        if pct < 99:
            assert count - math.ceil((pct + 1) * count / 100) < 10


def test_nearest_rank():
    values = list(range(1, 101))
    assert gen.nearest_rank(values, 50) == 50
    assert gen.nearest_rank(values, 99) == 99
    assert gen.nearest_rank([5.0], 99) == 5.0
