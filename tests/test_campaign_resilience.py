"""Fault-tolerant campaign execution: the acceptance gate for per-job
isolation, retry/backoff, chunk-granular pool recovery and
checkpoint–resume.

The contract under test: a campaign with poisoned jobs, killed worker
chunks or a dead pool still completes, produces row-for-row identical
rows for every *healthy* job versus a clean serial run, records each
harness failure as exactly one structured ``JobFailure``, and a resumed
run re-executes zero completed jobs.
"""

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

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
from repro.safety.report import campaign_failures_sheet, save_fmea_workbook
from repro.safety.resilience import (
    CampaignCheckpoint,
    JobFailure,
    RetryPolicy,
    campaign_fingerprint,
)

#: Sensor deltas agree to numerical noise between solver paths.
_DELTA_TOL = 1e-9


def assert_rows_identical(reference, other):
    import math

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
    kwargs.setdefault("retry_backoff", 0.001)
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
    assert failure.kind == "exception"
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
    assert "harness failure" in failed_rows[0].warning


def test_transient_failure_is_retried_to_success(case, clean_serial, monkeypatch):
    calls = {"left": 2}

    def should_fail(job):
        if job.index == 1 and calls["left"] > 0:
            calls["left"] -= 1
            return True
        return False

    _poison(
        monkeypatch, should_fail, lambda job: np.linalg.LinAlgError("blip")
    )
    result = _campaign(case, max_retries=2).run()
    assert result.failures == []
    assert result.stats.retries == 2
    assert_rows_identical(clean_serial, result)


def test_transient_retry_budget_exhaustion_records_failure(
    case, clean_serial, monkeypatch
):
    _poison(
        monkeypatch,
        lambda job: job.index == 0,
        lambda job: np.linalg.LinAlgError("always singular"),
    )
    result = _campaign(case, max_retries=1).run()
    assert len(result.failures) == 1
    assert result.failures[0].exception == "LinAlgError"
    assert result.failures[0].retries == 1
    assert result.stats.retries == 1
    assert_healthy_rows_match(clean_serial, result)


def test_job_timeout_cuts_off_runaway_solve(case, clean_serial, monkeypatch):
    import time as time_mod

    real = campaign_mod._execute_job

    def runaway(conversion, compiled, job, analysis, t_stop, dt):
        if job.index == 0:
            time_mod.sleep(5.0)
        return real(conversion, compiled, job, analysis, t_stop, dt)

    monkeypatch.setattr(campaign_mod, "_execute_job", runaway)
    result = _campaign(case, job_timeout=0.2).run()
    assert len(result.failures) == 1
    assert result.failures[0].kind == "timeout"
    assert result.stats.timeouts == 1
    assert_healthy_rows_match(clean_serial, result)


def test_circuit_level_errors_are_not_failures(case, clean_serial):
    # Non-convergent injected circuits stay ('error', …) safety evidence;
    # the resilience layer must not reclassify them as harness failures.
    result = _campaign(case).run()
    assert result.failures == []
    assert_rows_identical(clean_serial, result)


# -- chunk-granular pool recovery --------------------------------------------


class _InlinePool:
    """Pool double that runs chunks in-process and kills chosen submissions
    with ``BrokenProcessPool`` — the shape of a dying worker as seen from
    the parent."""

    def __init__(self, kill_when):
        self._kill_when = kill_when
        self.submissions = 0

    def submit(self, fn, chunk):
        index = self.submissions
        self.submissions += 1
        future = Future()
        if self._kill_when(index, chunk):
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            try:
                future.set_result(fn(chunk))
            except BaseException as exc:  # pragma: no cover - defensive
                future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _install_inline_pool(monkeypatch, kill_when):
    """Replace the process pool with an in-process double, and force every
    ``workers > 1`` campaign to fan out (the power supply sits far below
    the crossover).  ``state["inits"]`` counts the pools built.

    The worker initializer runs inline (trace disabled: the double shares
    the parent's obs registry, so a worker-side reset would wipe it).
    """
    monkeypatch.setattr(campaign_mod, "PARALLEL_MIN_WORK", 0)
    state = {"pool": None, "inits": 0, "prime_solves": 0}

    def fake_new_pool(self, conversion, size):
        campaign_mod._campaign_worker_init(
            conversion,
            self.analysis,
            self.t_stop,
            self.dt,
            self.incremental,
            False,
            self.retry_policy,
            self.job_timeout,
        )
        state["inits"] += 1
        compiled = campaign_mod._WORKER_STATE.get("compiled")
        if compiled is not None:
            # Each pool (re)creation primes a fresh compiled system; track
            # those baseline solves so per-job solve counts can be compared
            # against the serial run exactly.
            state["prime_solves"] += compiled.stats.solves
        pool = _InlinePool(kill_when)
        state["pool"] = pool
        return pool

    monkeypatch.setattr(FaultInjectionCampaign, "_new_pool", fake_new_pool)
    return state


def test_killed_chunk_is_resubmitted_not_rerun_serially(
    case, clean_serial, monkeypatch
):
    killed = {"done": False}

    def kill_first(index, chunk):
        if not killed["done"]:
            killed["done"] = True
            return True
        return False

    state = _install_inline_pool(monkeypatch, kill_first)
    result = _campaign(case, workers=2).run()
    assert state["inits"] == 2  # the first pool, then one after the kill
    assert killed["done"]
    assert result.failures == []
    assert result.stats.retries > 0
    assert result.stats.parallel_fallback is False
    assert_rows_identical(clean_serial, result)
    # The killed chunk never executed, so aside from the per-pool baseline
    # priming solves, per-job solver work must equal the clean serial
    # run's (one priming solve) — nothing double-counted on resubmission.
    assert (
        result.stats.solves - state["prime_solves"]
        == clean_serial.stats.solves - 1
    )
    assert result.stats.jobs == clean_serial.stats.jobs


def test_repeatedly_dying_worker_bisects_out_poisoned_job(
    case, clean_serial, monkeypatch
):
    # Any chunk containing job 0 kills its worker: retries are spent, the
    # chunk is bisected, and finally job 0 alone is failed out while every
    # other job completes in the pool.
    state = _install_inline_pool(
        monkeypatch,
        lambda index, chunk: any(job.index == 0 for job in chunk),
    )
    result = _campaign(case, workers=2, max_retries=1).run()
    assert state["inits"] > 1
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.index == 0
    assert failure.kind == "worker_lost"
    assert failure.exception == "BrokenProcessPool"
    assert result.stats.parallel_fallback is False
    assert result.stats.retries > 0
    assert_healthy_rows_match(clean_serial, result)


def test_dead_pool_degrades_to_serial_with_requested_workers(
    case, clean_serial, monkeypatch
):
    state = _install_inline_pool(monkeypatch, lambda index, chunk: True)
    result = _campaign(case, workers=3).run()
    assert state["inits"] > 0
    assert result.stats.parallel_fallback is True
    assert result.stats.workers == 1
    assert result.stats.requested_workers == 3
    assert result.failures == []
    assert_rows_identical(clean_serial, result)
    assert result.stats.solves == clean_serial.stats.solves


def test_unavailable_pool_keeps_requested_workers_field(
    case, clean_serial, monkeypatch
):
    sizes = []

    def no_pool(self, conversion, size):
        sizes.append(size)
        raise OSError("no process pools in this environment")

    monkeypatch.setattr(campaign_mod, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(FaultInjectionCampaign, "_new_pool", no_pool)
    result = _campaign(case, workers=4).run()
    assert sizes == [4]
    assert result.stats.parallel_fallback is True
    assert result.stats.workers == 1
    assert result.stats.requested_workers == 4
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


# -- the ISSUE's combined acceptance scenario --------------------------------


def test_acceptance_poisoned_job_plus_killed_chunk_plus_resume(
    case, clean_serial, tmp_path, monkeypatch
):
    path = tmp_path / "campaign.ckpt.jsonl"
    killed = {"done": False}

    def kill_one_chunk(index, chunk):
        # Kill one healthy chunk once (transient worker death) — chosen as
        # the first chunk not containing the poisoned job.
        if not killed["done"] and all(job.index != 0 for job in chunk):
            killed["done"] = True
            return True
        return False

    _poison(
        monkeypatch,
        lambda job: job.index == 0,
        lambda job: RuntimeError("forced solver exception"),
    )
    state = _install_inline_pool(monkeypatch, kill_one_chunk)
    result = _campaign(
        case, workers=2, max_retries=2, checkpoint=path
    ).run()
    assert state["inits"] > 0
    assert killed["done"]
    # ... the campaign completes with exactly one structured JobFailure,
    assert len(result.failures) == 1
    assert result.failures[0].index == 0
    assert result.stats.retries > 0
    # ... healthy jobs row-for-row identical to the clean serial run,
    assert_healthy_rows_match(clean_serial, result)
    # ... and a --resume invocation re-executes zero completed jobs.
    monkeypatch.undo()
    obs.enable()
    resumed = FaultInjectionCampaign(
        build_power_supply_simulink(),
        power_supply_reliability(),
        assume_stable=ASSUMED_STABLE,
        checkpoint=path,
        resume=True,
    ).run()
    assert resumed.stats.resumed_jobs == resumed.stats.jobs - 1
    assert obs.counter("campaign_resumed_jobs").value == (
        resumed.stats.jobs - 1
    )
    assert resumed.failures == []
    assert_rows_identical(clean_serial, resumed)


# -- satellites: primitives, reporting, counters -----------------------------


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(max_retries=3, backoff=0.1, max_delay=0.3)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.3)  # capped
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)


def test_job_failure_round_trip():
    failure = JobFailure(
        index=7,
        component="MC1",
        failure_mode="RAM Failure",
        exception="LinAlgError",
        message="singular",
        kind="exception",
        retries=2,
    )
    assert JobFailure.from_dict(failure.to_dict()) == failure


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
    assert len(sheet.rows) == 1
    assert sheet.rows[0]["Kind"] == "exception"

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
    # Only sparse systems factor their constant matrix; pin this one sparse.
    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)

    def broken_factor(matrix, backend):
        raise backends.FactorizationError("singular")

    monkeypatch.setattr(backends, "factorize", broken_factor)
    obs.enable()
    # Priming factors the constant matrix once; the failure is latched on
    # the primed system, which owns the factorization.
    primed = mna_mod.PrimedSystem(conversion.netlist)
    with pytest.raises(mna_mod._SmwFallback):
        primed._ensure_sparse()
    assert obs.counter("mna_lu_failures").value == 1
    # Latched: subsequent calls fall back without re-counting.
    with pytest.raises(mna_mod._SmwFallback):
        primed._ensure_sparse()
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
    assert obs.gauge("campaign_requested_workers").value == 1
    names = {record.name for record in obs.tracer().records()}
    assert "campaign.job" in names
    assert result.stats.job_failures == 1
