"""Chaos drill for the campaign engine.

Two drills, each judged against a clean run of the System B campaign:

- **kill and resume**: the campaign runs with a checkpoint in a child
  process, which is ``SIGKILL``-ed after its first checkpoint flush.
  Resuming with ``resume=True`` must give the clean rows, with
  ``resumed_jobs > 0``;
- **flaky jobs**: ``_execute_job`` raises seeded random
  ``TRANSIENT_ERRORS`` and plain exceptions.  Every job that got through
  on a retry must equal the clean row, and every job that did not must
  become a conservative ``failed`` row.

``test_kill_after_first_flush_then_resume`` is one deterministic kill and
runs in tier-1.  The seeded sweeps rerun the campaign many times, so they
are gated behind ``CAMPAIGN_CHAOS=1`` (the nightly CI job).
"""

import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.safety import campaign as campaign_mod
from repro.safety.campaign import _CHECKPOINT_EVERY, FaultInjectionCampaign
from repro.safety.resilience import TRANSIENT_ERRORS

chaos = pytest.mark.skipif(
    os.environ.get("CAMPAIGN_CHAOS") != "1",
    reason="chaos drill; set CAMPAIGN_CHAOS=1 to run",
)
posix_kill = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
)

#: System B sizes: the tier-1 case (70 jobs) and the nightly one (134).
SMOKE_RAILS = 4
DRILL_RAILS = 8
SEEDS = (0, 1, 2, 3, 4)

#: Flaky-job drill: per call, the chance of a transient error and of a
#: plain exception, and the retry budget.
TRANSIENT_PROBABILITY = 0.25
PLAIN_PROBABILITY = 0.05
MAX_RETRIES = 2

#: The child: run the campaign with a checkpoint and ``SIGKILL`` itself
#: as job ``kill_after`` (counted from the first flush) starts.  Job
#: ``poisoned`` raises, so it ends as a failure, which is never persisted.
_CHILD = r"""
import os, signal, sys
from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE, build_system_b_simulink,
    power_network_reliability,
)
from repro.safety import campaign as campaign_mod
from repro.safety.resilience import CampaignCheckpoint

rails, path, kill_after, poisoned = (
    int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
)
state = {"flushed": False, "since_flush": 0}
real_flush = CampaignCheckpoint.flush


def flush(self):
    written = real_flush(self)
    state["flushed"] = state["flushed"] or written > 0
    return written


real_execute = campaign_mod._execute_job


def execute(conversion, compiled, job, *args):
    if state["flushed"]:
        if state["since_flush"] == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        state["since_flush"] += 1
    if job.index == poisoned:
        raise RuntimeError("poisoned")
    return real_execute(conversion, compiled, job, *args)


CampaignCheckpoint.flush = flush
campaign_mod._execute_job = execute
campaign_mod.FaultInjectionCampaign(
    build_system_b_simulink(rails=rails), power_network_reliability(),
    assume_stable=SYSTEM_B_ASSUMED_STABLE, checkpoint=path,
).run()
"""


def _system_b(rails):
    return build_system_b_simulink(rails=rails), power_network_reliability()


def _run(case, **kwargs):
    model, reliability = case
    return FaultInjectionCampaign(
        model, reliability, assume_stable=SYSTEM_B_ASSUMED_STABLE, **kwargs
    ).run()


def _rows(result, skip=frozenset()):
    """Discrete fields of each row, minus the ``skip`` job keys."""
    return [
        (
            row.component, row.failure_mode, row.safety_related,
            row.impact, row.effect, row.warning,
        )
        for row in result.rows
        if (row.component, row.failure_mode) not in skip
    ]


def assert_rows_identical(reference, other, skip=frozenset()):
    assert _rows(reference, skip) == _rows(other, skip)
    for expected, actual in zip(reference.rows, other.rows):
        if (actual.component, actual.failure_mode) in skip:
            continue
        assert set(expected.sensor_deltas) == set(actual.sensor_deltas)
        for sensor, delta in expected.sensor_deltas.items():
            assert math.isclose(
                delta, actual.sensor_deltas[sensor],
                rel_tol=1e-9, abs_tol=1e-9,
            )


def _killed_child(rails, path, kill_after, poisoned):
    """Run the campaign in a child that ``SIGKILL``s itself mid-run."""
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [
            sys.executable, "-c", _CHILD,
            str(rails), str(path), str(kill_after), str(poisoned),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr


@pytest.fixture(scope="module")
def smoke_clean():
    return _run(_system_b(SMOKE_RAILS))


@pytest.fixture(scope="module")
def drill_clean():
    return _run(_system_b(DRILL_RAILS))


# -- kill and resume ----------------------------------------------------------


@posix_kill
def test_kill_after_first_flush_then_resume(smoke_clean, tmp_path):
    """A killed campaign with a poisoned job resumes to the clean rows.

    The child dies as the first job after its first flush starts.  The
    flush held the first ``_CHECKPOINT_EVERY`` outcomes less the poisoned
    job 0, whose failure is not persisted; the resumed run re-executes
    job 0 (now healthy) and everything after the kill."""
    path = tmp_path / "campaign.ckpt.jsonl"
    _killed_child(SMOKE_RAILS, path, kill_after=0, poisoned=0)
    resumed = _run(
        _system_b(SMOKE_RAILS), checkpoint=path, resume=True
    )
    assert resumed.stats.resumed_jobs == _CHECKPOINT_EVERY - 1
    assert resumed.failures == []
    assert_rows_identical(smoke_clean, resumed)
    # The resumed run completed the checkpoint: a second resume runs
    # nothing.
    again = _run(_system_b(SMOKE_RAILS), checkpoint=path, resume=True)
    assert again.stats.resumed_jobs == again.stats.jobs
    assert again.stats.solves == 0


@chaos
@posix_kill
@pytest.mark.parametrize("seed", SEEDS)
def test_random_kill_then_resume(drill_clean, tmp_path, seed):
    """Kill at a seeded job after the first flush, sometimes leaving a
    torn line as a write cut short would, then resume."""
    rng = np.random.default_rng(seed)
    jobs = drill_clean.stats.jobs
    path = tmp_path / "campaign.ckpt.jsonl"
    kill_after = int(rng.integers(0, jobs - _CHECKPOINT_EVERY))
    poisoned = int(rng.integers(0, jobs))
    _killed_child(DRILL_RAILS, path, kill_after, poisoned)
    if rng.random() < 0.5:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "fp": "')
    resumed = _run(_system_b(DRILL_RAILS), checkpoint=path, resume=True)
    assert 0 < resumed.stats.resumed_jobs < jobs
    assert resumed.failures == []
    assert_rows_identical(drill_clean, resumed)


# -- flaky jobs ---------------------------------------------------------------


@chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_random_job_errors_retry_or_fail_conservatively(
    drill_clean, monkeypatch, seed
):
    rng = np.random.default_rng(seed)
    real = campaign_mod._execute_job
    raised = {}  # job index -> kinds raised, in order
    succeeded = set()

    def flaky(conversion, compiled, job, analysis, t_stop, dt):
        draw = rng.random()
        if draw < PLAIN_PROBABILITY:
            raised.setdefault(job.index, []).append("plain")
            raise RuntimeError("chaos")
        if draw < PLAIN_PROBABILITY + TRANSIENT_PROBABILITY:
            raised.setdefault(job.index, []).append("transient")
            raise TRANSIENT_ERRORS[rng.integers(len(TRANSIENT_ERRORS))](
                "chaos"
            )
        succeeded.add(job.index)
        return real(conversion, compiled, job, analysis, t_stop, dt)

    monkeypatch.setattr(campaign_mod, "_execute_job", flaky)
    result = _run(
        _system_b(DRILL_RAILS), max_retries=MAX_RETRIES, retry_backoff=0.0
    )
    failed = set(raised) - succeeded
    exhausted = {i for i in failed if raised[i][-1] == "transient"}
    assert all(len(raised[i]) == MAX_RETRIES + 1 for i in exhausted)
    assert {f.index for f in result.failures} == failed
    assert result.stats.job_failures == len(failed)
    transients = sum(kinds.count("transient") for kinds in raised.values())
    assert result.stats.retries == transients - len(exhausted)
    assert set(raised) & succeeded, "no job got through on a retry"

    skip = {(f.component, f.failure_mode) for f in result.failures}
    assert_rows_identical(drill_clean, result, skip)
    for row in result.failed_rows():
        assert row.safety_related is True
        assert row.impact == "DVF"
        assert "harness failure" in row.warning
