"""Fault-tolerant campaign execution: the acceptance gate for per-job
isolation and checkpoint–resume.

The contract under test: each job runs once; a campaign with poisoned
jobs still completes, produces row-for-row identical rows for every
*healthy* job versus a clean run, records each harness failure as exactly
one structured ``JobFailure`` on its first attempt, and a resumed run
re-executes zero completed jobs.  Killing the campaign's process and resuming is drilled in
``test_campaign_chaos.py``.
"""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_simulink,
    power_supply_reliability,
)
from repro.safety import campaign as campaign_mod
from repro.safety.campaign import FaultInjectionCampaign
from repro.safety.fmea import FmeaRow
from repro.safety.report import campaign_failures_sheet, save_fmea_workbook
from repro.safety.resilience import (
    CampaignCheckpoint,
    JobFailure,
    campaign_fingerprint,
)

#: Sensor deltas agree to numerical noise between solver paths.
_DELTA_TOL = 1e-9


def assert_rows_identical(reference, other):
    assert len(reference.rows) == len(other.rows)
    for expected, actual in zip(reference.rows, other.rows):
        assert (
            expected.component,
            expected.failure_mode,
            expected.safety_related,
            expected.impact,
            expected.effect,
            expected.warning,
        ) == (
            actual.component,
            actual.failure_mode,
            actual.safety_related,
            actual.impact,
            actual.effect,
            actual.warning,
        )
        assert set(expected.sensor_deltas) == set(actual.sensor_deltas)
        for sensor, delta in expected.sensor_deltas.items():
            assert math.isclose(
                delta,
                actual.sensor_deltas[sensor],
                rel_tol=_DELTA_TOL,
                abs_tol=_DELTA_TOL,
            ), (expected.component, expected.failure_mode, sensor)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def case():
    return build_power_supply_simulink(), power_supply_reliability()


@pytest.fixture(scope="module")
def clean_serial(case):
    model, reliability = case
    return FaultInjectionCampaign(
        model, reliability, assume_stable=ASSUMED_STABLE
    ).run()


def _campaign(case, **kwargs):
    model, reliability = case
    kwargs.setdefault("assume_stable", ASSUMED_STABLE)
    return FaultInjectionCampaign(model, reliability, **kwargs)


def _poison(monkeypatch, should_fail, exc_factory):
    """Route ``_execute_job`` through a predicate-gated failure injector."""
    real = campaign_mod._execute_job

    def flaky(conversion, compiled, job, analysis, t_stop, dt):
        if should_fail(job):
            raise exc_factory(job)
        return real(conversion, compiled, job, analysis, t_stop, dt)

    monkeypatch.setattr(campaign_mod, "_execute_job", flaky)


def assert_healthy_rows_match(reference, other):
    """Rows not touched by a harness failure must match the clean run."""
    failed = {(f.component, f.failure_mode) for f in other.failures}
    assert len(reference.rows) == len(other.rows)
    for expected, actual in zip(reference.rows, other.rows):
        key = (actual.component, actual.failure_mode)
        if key in failed:
            continue
        assert (
            expected.component,
            expected.failure_mode,
            expected.safety_related,
            expected.impact,
            expected.effect,
        ) == (
            actual.component,
            actual.failure_mode,
            actual.safety_related,
            actual.impact,
            actual.effect,
        )


# -- per-job isolation -------------------------------------------------------


def test_poisoned_job_is_isolated_not_fatal(case, clean_serial, monkeypatch):
    _poison(
        monkeypatch,
        lambda job: job.index == 0,
        lambda job: RuntimeError("synthetic solver crash"),
    )
    result = _campaign(case).run()
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.exception == "RuntimeError"
    assert "synthetic solver crash" in failure.message
    assert result.stats.job_failures == 1
    assert_healthy_rows_match(clean_serial, result)
    # The failed injection is classified conservatively: unknown effect
    # is assumed dangerous and flagged in the row's warning.
    failed_rows = result.failed_rows()
    assert len(failed_rows) == 1
    assert failed_rows[0].safety_related is True
    assert failed_rows[0].impact == "DVF"
    assert failed_rows[0].warning == (
        "harness failure; effect assumed dangerous"
    )


def test_raised_error_fails_on_the_first_attempt(
    case, clean_serial, monkeypatch
):
    """A job is deterministic, so it runs once: a ``LinAlgError`` (which
    a retry used to rerun) becomes the conservative failed row after one
    ``_execute_job`` call."""
    real = campaign_mod._execute_job
    calls = []

    def singular(conversion, compiled, job, analysis, t_stop, dt):
        calls.append(job.index)
        if job.index == 1:
            raise np.linalg.LinAlgError("always singular")
        return real(conversion, compiled, job, analysis, t_stop, dt)

    monkeypatch.setattr(campaign_mod, "_execute_job", singular)
    result = _campaign(case).run()
    assert calls.count(1) == 1
    assert calls == list(range(result.stats.jobs))
    assert [(f.index, f.exception) for f in result.failures] == [
        (1, "LinAlgError")
    ]
    assert result.stats.job_failures == 1
    (row,) = result.failed_rows()
    assert (row.safety_related, row.impact) == (True, "DVF")
    assert row.effect == "injection failed (LinAlgError): always singular"
    assert_healthy_rows_match(clean_serial, result)


def test_circuit_level_errors_are_not_failures(case, clean_serial):
    # Non-convergent injected circuits stay ('error', …) safety evidence;
    # the resilience layer must not reclassify them as harness failures.
    result = _campaign(case).run()
    assert result.failures == []
    assert_rows_identical(clean_serial, result)


# -- checkpoint / resume -----------------------------------------------------


def test_resume_skips_all_completed_jobs(case, clean_serial, tmp_path):
    path = tmp_path / "campaign.ckpt.jsonl"
    first = _campaign(case, checkpoint=path).run()
    assert path.exists()
    assert first.stats.resumed_jobs == 0

    obs.enable()
    resumed = _campaign(case, checkpoint=path, resume=True).run()
    assert resumed.stats.resumed_jobs == resumed.stats.jobs
    assert resumed.stats.solves == 0  # zero completed jobs re-executed
    assert obs.counter("campaign_resumed_jobs").value == resumed.stats.jobs
    assert_rows_identical(clean_serial, resumed)


def test_resume_reruns_only_missing_jobs(case, clean_serial, tmp_path):
    path = tmp_path / "campaign.ckpt.jsonl"
    _campaign(case, checkpoint=path).run()
    # Drop the last few records: a crash mid-campaign leaves a prefix.
    lines = path.read_text().strip().splitlines()
    kept = lines[:-3]
    path.write_text("\n".join(kept) + "\n")

    resumed = _campaign(case, checkpoint=path, resume=True).run()
    assert resumed.stats.resumed_jobs == len(kept)
    assert resumed.stats.resumed_jobs < resumed.stats.jobs
    assert_rows_identical(clean_serial, resumed)


def test_resume_tolerates_corrupt_checkpoint_lines(
    case, clean_serial, tmp_path
):
    path = tmp_path / "campaign.ckpt.jsonl"
    _campaign(case, checkpoint=path).run()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{truncated json ...\n")
        handle.write(json.dumps({"fp": "someone-else", "index": 0}) + "\n")
    resumed = _campaign(case, checkpoint=path, resume=True).run()
    assert resumed.stats.resumed_jobs == resumed.stats.jobs
    assert_rows_identical(clean_serial, resumed)


def test_failed_jobs_are_not_persisted_and_retry_on_resume(
    case, clean_serial, tmp_path, monkeypatch
):
    path = tmp_path / "campaign.ckpt.jsonl"
    _poison(
        monkeypatch,
        lambda job: job.index == 0,
        lambda job: RuntimeError("poisoned"),
    )
    first = _campaign(case, checkpoint=path).run()
    assert len(first.failures) == 1

    # The fault is gone on the next invocation: resume re-executes only
    # the previously failed job and completes it.
    monkeypatch.undo()
    resumed = _campaign(case, checkpoint=path, resume=True).run()
    assert resumed.stats.resumed_jobs == resumed.stats.jobs - 1
    assert resumed.failures == []
    assert_rows_identical(clean_serial, resumed)


def test_checkpoint_invalidated_by_model_change(case, tmp_path):
    model, reliability = case
    path = tmp_path / "campaign.ckpt.jsonl"
    _campaign(case, checkpoint=path).run()

    from repro.casestudies import (
        SYSTEM_A_ASSUMED_STABLE,
        build_system_a_simulink,
        power_network_reliability,
    )

    other = FaultInjectionCampaign(
        build_system_a_simulink(),
        power_network_reliability(),
        assume_stable=SYSTEM_A_ASSUMED_STABLE,
        checkpoint=path,
        resume=True,
    ).run()
    # Different model → different fingerprint → nothing resumed.
    assert other.stats.resumed_jobs == 0


class TestFingerprintStaleness:
    """Regression: the campaign fingerprint used to be cached forever on
    the campaign object, so mutating the model between ``run()`` calls
    (the DECISIVE / service-tenant workflow) kept matching the OLD model's
    checkpoint key."""

    def test_fingerprint_recomputed_per_run(self):
        model = build_power_supply_simulink()
        campaign = FaultInjectionCampaign(
            model, power_supply_reliability(),
            assume_stable=ASSUMED_STABLE,
        )
        campaign.run()
        first = campaign._campaign_token()
        model.block("DC1").set_param("voltage", 6.0)
        campaign.run()
        second = campaign._campaign_token()
        assert first != second

    def test_unmutated_rerun_keeps_the_token(self):
        campaign = FaultInjectionCampaign(
            build_power_supply_simulink(), power_supply_reliability(),
            assume_stable=ASSUMED_STABLE,
        )
        campaign.run()
        first = campaign._campaign_token()
        campaign.run()
        assert campaign._campaign_token() == first

    def test_mutated_model_does_not_resume_the_stale_checkpoint(
        self, tmp_path
    ):
        path = tmp_path / "campaign.ckpt.jsonl"
        model = build_power_supply_simulink()
        campaign = FaultInjectionCampaign(
            model, power_supply_reliability(),
            assume_stable=ASSUMED_STABLE, checkpoint=path, resume=True,
        )
        first = campaign.run()
        assert first.stats.resumed_jobs == 0
        assert campaign.run().stats.resumed_jobs == first.stats.jobs

        model.block("DC1").set_param("voltage", 6.0)
        mutated = campaign.run()
        assert mutated.stats.resumed_jobs == 0
        fresh = FaultInjectionCampaign(
            model, power_supply_reliability(),
            assume_stable=ASSUMED_STABLE,
        ).run()
        assert_rows_identical(fresh, mutated)


def test_resume_without_checkpoint_is_an_error(case):
    model, reliability = case
    from repro.safety.fmea import FmeaError

    with pytest.raises(FmeaError):
        FaultInjectionCampaign(model, reliability, resume=True)


def test_resume_reruns_a_recorded_worker_lost_failure(
    case, clean_serial, tmp_path
):
    """A checkpoint holding a ``worker_lost`` failure (a kind the deleted
    process pool used to produce) still resumes: failures are never
    taken from a checkpoint, so that job simply runs again."""
    path = tmp_path / "campaign.ckpt.jsonl"
    _campaign(case, checkpoint=path).run()
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["outcome"] = [
        "failed",
        {
            "index": record["index"],
            "component": record["component"],
            "failure_mode": record["failure_mode"],
            "exception": "BrokenProcessPool",
            "message": "worker process died repeatedly while executing "
            "this job",
            "kind": "worker_lost",
            "retries": 2,
        },
    ]
    path.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    resumed = _campaign(case, checkpoint=path, resume=True).run()
    assert resumed.stats.resumed_jobs == resumed.stats.jobs - 1
    assert resumed.failures == []
    assert_rows_identical(clean_serial, resumed)


# -- classification of unreadable sensors --------------------------------------


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
def test_non_finite_reading_gets_the_conservative_call(case, bad):
    """Whichever sensor reads ``bad``, the row gets the call a failed
    solve gets, and its effect names that sensor.  A NaN used to be
    classified safe, with a verdict that depended on the sensor order."""
    campaign = _campaign(case)
    calls = []
    for readings, sensor in (
        ({"top/a": bad, "top/b": 1.0}, "a"),
        ({"top/a": 1.0, "top/b": bad}, "b"),
    ):
        row = FmeaRow(
            component="R1", component_class="Resistor", fit=1.0,
            failure_mode="Open", nature="", distribution=1.0,
        )
        campaign._classify(
            row, ("ok", readings), {"top/a": 1.0, "top/b": 1.0},
            ["top/a", "top/b"],
        )
        calls.append((row.safety_related, row.impact))
        assert row.effect.startswith(f"reading at {sensor} is not finite")
    assert calls == [(True, "DVF"), (True, "DVF")]


# -- options that no longer exist ---------------------------------------------


@pytest.mark.parametrize(
    "option",
    ["workers", "strategy", "max_retries", "retry_backoff", "job_timeout"],
)
def test_removed_campaign_options_are_rejected(case, option, capsys):
    """Campaigns run serially and run each job once: no layer takes a
    worker count (or the older ``strategy``), a retry budget, a backoff or
    a per-job deadline, so a caller that still passes one fails loudly
    instead of being silently ignored."""
    from repro.cli import main
    from repro.same import SAME
    from repro.safety.fmea import run_simulink_fmea

    model, reliability = case
    with pytest.raises(TypeError, match=option):
        FaultInjectionCampaign(model, reliability, **{option: 2})
    with pytest.raises(TypeError, match=option):
        run_simulink_fmea(model, reliability, **{option: 2})
    same = SAME()
    same.open_simulink(model)
    same.load_reliability(reliability)
    with pytest.raises(TypeError, match=option):
        same.run_fmea_simulink(**{option: 2})
    flag = "--" + option.replace("_", "-")
    for command in (
        ["fmea", "--model", "m.json", "--reliability", "r.json"],
        ["fmeda", "--model", "m.json", "--reliability", "r.json",
         "--mechanisms", "s.json"],
        ["demo"],
    ):
        with pytest.raises(SystemExit):
            main(command + [flag, "2"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# -- satellites: primitives, reporting, counters -----------------------------


def test_job_failure_round_trip():
    failure = JobFailure(
        index=7,
        component="MC1",
        failure_mode="RAM Failure",
        exception="LinAlgError",
        message="singular",
    )
    assert JobFailure.from_dict(failure.to_dict()) == failure
    # A record written while jobs were retried and timed reads back too.
    old = dict(failure.to_dict(), kind="timeout", retries=2)
    assert JobFailure.from_dict(old) == failure


def test_campaign_fingerprint_is_stable_and_content_sensitive(case):
    model, reliability = case
    a = campaign_fingerprint(model, reliability, "dc", 5e-3, 5e-5, None)
    b = campaign_fingerprint(model, reliability, "dc", 5e-3, 5e-5, None)
    assert a == b
    c = campaign_fingerprint(model, reliability, "transient", 5e-3, 5e-5, None)
    assert a != c


def test_checkpoint_ignores_foreign_fingerprints(tmp_path):
    path = tmp_path / "shared.jsonl"
    job = JobFailure(  # shape-compatible stand-in for an InjectionJob
        index=0, component="C", failure_mode="M", exception="", message=""
    )
    first = CampaignCheckpoint(path, "fp-one")
    first.record(job, ("ok", {"s": 1.0}))
    first.flush()
    other = CampaignCheckpoint(path, "fp-two", resume=True)
    assert other.load() == {}
    same = CampaignCheckpoint(path, "fp-one", resume=True)
    assert same.load() == {0: ("ok", {"s": 1.0})}


def test_uncovered_components_carry_reasons(case):
    from repro.reliability import ReliabilityModel

    model, reliability = case
    entries = [
        e
        for e in reliability.entries()
        if e.component_class not in ("MC", "MCU")
    ]
    partial = ReliabilityModel(entries)
    result = FaultInjectionCampaign(
        model, partial, assume_stable=ASSUMED_STABLE
    ).run()
    assert "MC1" in result.uncovered
    assert "MCU" in result.uncovered_reasons["MC1"]
    # The historical list-of-names shape is preserved.
    assert all(isinstance(name, str) for name in result.uncovered)


def test_failures_sheet_in_workbook(case, tmp_path, monkeypatch):
    _poison(
        monkeypatch,
        lambda job: job.index == 0,
        lambda job: RuntimeError("poisoned"),
    )
    result = _campaign(case).run()
    sheet = campaign_failures_sheet(result)
    assert sheet is not None
    assert sheet.rows == [{
        "Job": 0,
        "Component": result.failures[0].component,
        "Failure_Mode": result.failures[0].failure_mode,
        "Exception": "RuntimeError",
        "Message": "poisoned",
    }]

    out = save_fmea_workbook(result, tmp_path / "wb")
    names = {p.stem for p in out.glob("*.csv")}
    assert "Campaign_Failures" in names

    clean = _campaign(case)  # no failures → no sheet
    monkeypatch.undo()
    assert campaign_failures_sheet(clean.run()) is None


def test_mna_lu_failure_counter(case, monkeypatch):
    from repro.circuit import backends
    from repro.circuit import mna as mna_mod
    from repro.simulink import to_netlist

    model, _ = case
    conversion = to_netlist(model)
    def broken_factor(matrix, backend):
        raise backends.FactorizationError("singular")

    monkeypatch.setattr(backends, "factorize", broken_factor)
    obs.enable()
    # Priming factors the constant matrix once; the failure is latched on
    # the primed system, which owns the factorization.
    primed = mna_mod.PrimedSystem(conversion.netlist)
    with pytest.raises(mna_mod._SmwFallback):
        primed._factorization()
    assert obs.counter("mna_lu_failures").value == 1
    # Latched: subsequent calls fall back without re-counting.
    with pytest.raises(mna_mod._SmwFallback):
        primed._factorization()
    assert obs.counter("mna_lu_failures").value == 1


def test_retry_and_failure_metrics_published(case, monkeypatch):
    _poison(
        monkeypatch,
        lambda job: job.index == 0,
        lambda job: RuntimeError("poisoned"),
    )
    obs.enable()
    result = _campaign(case).run()
    assert obs.counter("campaign_job_failures").value == 1
    published = {metric.name for metric in obs.registry().metrics()}
    assert not {"campaign_retries", "campaign_timeouts"} & published
    assert obs.histogram("campaign_job_seconds").count == result.stats.jobs
    jobs = [r for r in obs.tracer().records() if r.name == "campaign.job"]
    assert len(jobs) == result.stats.jobs
    assert [r.attrs["outcome"] for r in jobs].count("failed") == 1
    assert result.stats.job_failures == 1
