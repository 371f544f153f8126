"""Batched fault-injection campaign engine (DECISIVE Step 4a at scale).

:func:`repro.safety.fmea.run_simulink_fmea` used to rebuild and re-solve
the full MNA system from scratch for every (component, failure mode) pair.
This module turns that loop into a campaign:

1. the model is flattened and the healthy baseline solved **once**;
2. every injection is enumerated up front as an :class:`InjectionJob`;
3. jobs execute against a single :class:`~repro.circuit.CompiledSystem`
   (cached LU factorization + Sherman–Morrison–Woodbury low-rank updates,
   with exact full-assembly fallback), serially or — past a measured
   crossover — fanned out over a process pool, with deterministic row
   ordering;
4. rows are classified in enumeration order, so the resulting
   :class:`~repro.safety.fmea.FmeaResult` is row-for-row identical to the
   historical per-mode re-solve, whatever the execution path.

Per-campaign instrumentation (job counts, solve mix, factorization reuses,
wall time) is attached to the result as :class:`CampaignStats` — the raw
material for the paper's Table V/VI efficiency story.

Execution is fault tolerant (see :mod:`repro.safety.resilience`): a job
that raises records a structured :class:`~repro.safety.resilience.JobFailure`
row instead of aborting the campaign, transient failures are retried with
exponential backoff, a dead pool worker costs only its chunk (resubmitted
to a fresh pool, with the offending job bisected out after ``max_retries``),
and a ``checkpoint`` file lets ``resume`` skip already-completed jobs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.circuit import (
    BACKENDS,
    CircuitError,
    CompiledSystem,
    SolveStats,
    default_backend,
    set_default_backend,
    system_size,
)
from repro.circuit.netlist import Netlist
from repro.reliability import ReliabilityModel
from repro.safety.fmea import (
    DEFAULT_MIN_ABSOLUTE_DELTA,
    DEFAULT_THRESHOLD,
    FmeaError,
    FmeaResult,
    FmeaRow,
    _apply_behavior,
    _behavior_replacement,
    _relative_delta,
    _select_sensors,
    _solve_readings,
    _solve_readings_transient,
)
from repro.safety.resilience import (
    TRANSIENT_ERRORS,
    CampaignCheckpoint,
    JobFailure,
    JobTimeoutError,
    RetryPolicy,
    campaign_fingerprint,
    job_deadline,
)
from repro.simulink import FailureBehavior, SimulinkError, SimulinkModel, to_netlist
from repro.simulink.electrical import ElectricalConversion

#: Serial campaigns flush the checkpoint every this many completed jobs.
_CHECKPOINT_EVERY = 25

#: A campaign with ``workers > 1`` fans out only when its estimated work,
#: ``pending_jobs × system_size`` (MNA unknowns), reaches this.  Below it a
#: fresh process pool (fork, per-worker priming, teardown) costs more than
#: it saves.  Measured on a 2-vCPU VM, serial incremental vs a 2-worker
#: pool in alternating pairs: serial wins every campaign up to System B
#: with 8 rails (134 jobs × 65 unknowns = 8.7k); System B with 14 rails
#: (24.6k) and the 62-job grid sample (152k) are near ties that the pool
#: edges on pair wins; the pool wins the 120- and 240-job grid samples
#: clearly.  The table is in docs/performance.md ("When a campaign fans
#: out"); ``benchmarks/fanout_crossover.py`` re-measures it.
PARALLEL_MIN_WORK = 2e4


@dataclass(frozen=True)
class InjectionJob:
    """One planned fault injection: which element, which failure physics."""

    index: int
    component: str
    failure_mode: str
    element_name: str
    behavior: FailureBehavior
    block_params: Mapping[str, object]


@dataclass
class CampaignStats:
    """Execution instrumentation for one fault-injection campaign."""

    jobs: int = 0  # injection simulations requested
    rows: int = 0  # FMEA rows produced (jobs + uninjectable warnings)
    workers: int = 1  # workers used (1 when serial or after a fallback)
    requested_workers: int = 1  # the caller's worker cap
    mode: str = "incremental"  # 'incremental' | 'naive'
    analysis: str = "dc"
    solver_backend: str = "auto"  # requested backend spec ('auto' if unset)
    wall_time: float = 0.0  # whole campaign, seconds
    baseline_time: float = 0.0  # healthy solve, seconds
    solves: int = 0
    newton_iterations: int = 0
    factorization_reuses: int = 0
    smw_solves: int = 0
    full_rebuilds: int = 0
    baseline_reuses: int = 0
    direct_solves: int = 0  # small-system dense-direct fault solves
    batched_columns: int = 0  # SMW columns solved as multi-RHS blocks
    parallel_fallback: bool = False  # pool unavailable; ran serially
    retries: int = 0  # transient-failure retries (job- and chunk-level)
    timeouts: int = 0  # jobs killed by the per-job wall-clock budget
    job_failures: int = 0  # jobs that ended as structured JobFailure rows
    resumed_jobs: int = 0  # jobs skipped because a checkpoint had them
    # Per-job wall-time distribution (all attempts + backoff, seconds);
    # 0.0 when no job executed this run (e.g. fully resumed).
    job_wall_p50: float = 0.0
    job_wall_p95: float = 0.0
    job_wall_p99: float = 0.0

    #: Counter fields published to the ``repro.obs`` metrics registry.
    _COUNTER_FIELDS = (
        "jobs", "rows", "solves", "newton_iterations",
        "factorization_reuses", "smw_solves", "full_rebuilds",
        "baseline_reuses", "retries", "timeouts", "job_failures",
        "resumed_jobs", "direct_solves", "batched_columns",
    )

    def absorb(self, solve_stats: SolveStats) -> None:
        self.solves += solve_stats.solves
        self.newton_iterations += solve_stats.newton_iterations
        self.factorization_reuses += solve_stats.factorization_reuses
        self.smw_solves += solve_stats.smw_solves
        self.full_rebuilds += solve_stats.full_rebuilds
        self.baseline_reuses += solve_stats.baseline_reuses
        self.direct_solves += solve_stats.direct_solves
        self.batched_columns += solve_stats.batched_columns

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_dict(self) -> Dict[str, object]:
        """Alias of :meth:`as_dict` — the exported-workbook/CLI spelling."""
        return self.as_dict()

    def publish(self) -> None:
        """Mirror the counters into the ``repro.obs`` metrics registry as
        first-class ``campaign_*`` metrics (no-op while obs is disabled).

        The registry values aggregate across campaigns (counters), so one
        traced session sums its campaigns exactly as the per-campaign
        ``CampaignStats`` instances do.
        """
        if not obs.enabled():
            return
        for name in self._COUNTER_FIELDS:
            obs.counter(f"campaign_{name}").inc(getattr(self, name))
        obs.gauge("campaign_wall_seconds").set(self.wall_time)
        obs.gauge("campaign_baseline_seconds").set(self.baseline_time)
        obs.gauge("campaign_workers").set(self.workers)
        obs.gauge("campaign_requested_workers").set(self.requested_workers)
        if self.parallel_fallback:
            obs.counter("campaign_parallel_fallbacks").inc()


#: Job outcome: ('ok', readings), ('error', message) — a circuit-level
#: failure, meaningful safety evidence — or ('failed', JobFailure dict) —
#: a harness-level failure recorded instead of aborting the campaign.
_Outcome = Tuple[str, object]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` of an ascending sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


def _readings_from_solution(
    conversion: ElectricalConversion, solution, removed: Optional[str]
) -> Dict[str, float]:
    """Sensor readings off a DC solution (same semantics as
    :func:`~repro.safety.fmea._solve_readings` for the injected netlist)."""
    readings: Dict[str, float] = {}
    for path, element in conversion.current_sensors.items():
        if element == removed:
            readings[path] = 0.0
        else:
            readings[path] = solution.current(element)
    for path, (npos, nneg) in conversion.voltage_sensors.items():
        try:
            readings[path] = solution.voltage_across(npos, nneg)
        except CircuitError:
            readings[path] = 0.0
    return readings


def _execute_job(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
) -> _Outcome:
    """Run one injection; never raises for circuit-level failures.

    With observability enabled, each execution is a ``campaign.job`` span
    (created in whichever process runs the job — the parent merges worker
    spans afterwards) and feeds the ``campaign_job_seconds`` histogram.
    """
    if not obs.enabled():
        return _execute_job_impl(conversion, compiled, job, analysis, t_stop, dt)
    with obs.span(
        "campaign.job",
        job=job.index,
        component=job.component,
        failure_mode=job.failure_mode,
    ) as sp:
        started = time.perf_counter()
        outcome = _execute_job_impl(
            conversion, compiled, job, analysis, t_stop, dt
        )
        obs.histogram("campaign_job_seconds").observe(
            time.perf_counter() - started
        )
        sp.set(outcome=outcome[0])
        return outcome


def _execute_job_impl(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
) -> _Outcome:
    if compiled is not None and analysis == "dc":
        replacement = _behavior_replacement(
            conversion.netlist, job.element_name, job.behavior, job.block_params
        )
        try:
            solution = compiled.solve_replacement(job.element_name, replacement)
            removed = job.element_name if replacement is None else None
            return ("ok", _readings_from_solution(conversion, solution, removed))
        except CircuitError as exc:
            return ("error", str(exc))
    injected = _apply_behavior(
        conversion.netlist, job.element_name, job.behavior, job.block_params
    )
    try:
        if analysis == "transient":
            readings = _solve_readings_transient(conversion, injected, t_stop, dt)
        else:
            readings = _solve_readings(conversion, injected)
        return ("ok", readings)
    except CircuitError as exc:
        return ("error", str(exc))


def _run_job_isolated(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
    policy: RetryPolicy,
    timeout: Optional[float],
) -> Tuple[_Outcome, int, int, float]:
    """Run one job under the fault-tolerance contract.

    Never raises: circuit-level failures stay ``('error', …)`` outcomes
    (handled inside :func:`_execute_job`), transient failures are retried
    with exponential backoff up to ``policy.max_retries``, runaway solves
    are cut off after ``timeout`` seconds, and anything else becomes a
    ``('failed', JobFailure dict)`` outcome.  Returns ``(outcome,
    retries_used, timeouts, wall_seconds)`` so the caller can aggregate
    counters — and the end-to-end per-job wall time (all attempts plus
    backoff sleeps, feeding ``campaign_job_wall_seconds`` and the
    ``--stats`` percentiles; ``campaign_job_seconds`` stays the
    per-*attempt* execution time) — across process boundaries.
    """
    started = time.perf_counter()
    outcome, retries, timeouts = _attempt_job(
        conversion, compiled, job, analysis, t_stop, dt, policy, timeout
    )
    wall = time.perf_counter() - started
    if obs.enabled():
        obs.histogram("campaign_job_wall_seconds").observe(wall)
    return outcome, retries, timeouts, wall


def _attempt_job(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
    policy: RetryPolicy,
    timeout: Optional[float],
) -> Tuple[_Outcome, int, int]:
    """The retry loop behind :func:`_run_job_isolated`."""
    attempt = 0
    while True:
        try:
            with job_deadline(timeout):
                outcome = _execute_job(
                    conversion, compiled, job, analysis, t_stop, dt
                )
            return outcome, attempt, 0
        except JobTimeoutError as exc:
            # Deterministic work that ran away once will run away again:
            # record the timeout, don't burn retries on it.
            failure = JobFailure.from_exception(
                job, exc, kind="timeout", retries=attempt
            )
            return ("failed", failure.to_dict()), attempt, 1
        except TRANSIENT_ERRORS as exc:
            attempt += 1
            if attempt > policy.max_retries:
                failure = JobFailure.from_exception(
                    job, exc, retries=attempt - 1
                )
                return ("failed", failure.to_dict()), attempt - 1, 0
            obs.emit_event(
                "job_retried", level="warning", job=job.index,
                component=job.component, attempt=attempt,
                error=type(exc).__name__,
            )
            with obs.span(
                "campaign.retry", job=job.index, attempt=attempt,
                error=type(exc).__name__,
            ):
                time.sleep(policy.delay(attempt))
        except Exception as exc:  # noqa: BLE001 — per-job isolation
            failure = JobFailure.from_exception(job, exc, retries=attempt)
            return ("failed", failure.to_dict()), attempt, 0


def _primed_system(
    netlist: Netlist, backend: Optional[str] = None
) -> CompiledSystem:
    """A compiled system with its baseline already solved.

    Priming up front lets every fault solve warm-start its Newton iteration
    from the healthy diode biases and reuse the baseline for no-op faults
    (e.g. a capacitor failing open at DC).
    """
    compiled = CompiledSystem(netlist, backend=backend)
    try:
        compiled.solve()
    except CircuitError:
        pass  # per-fault solves fall back and report their own errors
    return compiled


# -- process-pool plumbing ---------------------------------------------------
# Workers receive the conversion once (initializer) and then process chunks
# of jobs, each against its own CompiledSystem, so factorization reuse
# happens inside every worker too.

_WORKER_STATE: Dict[str, object] = {}


def _campaign_worker_init(
    conversion: ElectricalConversion,
    analysis: str,
    t_stop: float,
    dt: float,
    incremental: bool,
    trace_enabled: bool = False,
    policy: RetryPolicy = RetryPolicy(),
    job_timeout: Optional[float] = None,
    solver_backend: Optional[str] = None,
    events_enabled: bool = False,
    correlation_id: Optional[str] = None,
) -> None:
    if trace_enabled:
        # Trace in the worker too; start from a clean slate (a fork start
        # method copies the parent's already-recorded spans).
        obs.enable()
    if events_enabled:
        # The event plane switches independently of tracing (a --progress
        # run without --trace still needs worker heartbeats).
        obs.enable_events()
    if trace_enabled or events_enabled:
        obs.reset()
    # After reset (which clears the correlation context): a worker process
    # serves exactly one campaign configuration, so the job's id is its
    # process-global default — every worker-side event and span carries it
    # home through the drain/ingest delta path.
    obs.set_correlation_id(correlation_id)
    if solver_backend is not None:
        # Campaign-wide backend: the naive/transient paths solve through
        # module-level functions that read the process default, and this
        # worker process exists only to serve this campaign.
        set_default_backend(solver_backend)
    _WORKER_STATE["conversion"] = conversion
    _WORKER_STATE["analysis"] = analysis
    _WORKER_STATE["t_stop"] = t_stop
    _WORKER_STATE["dt"] = dt
    _WORKER_STATE["policy"] = policy
    _WORKER_STATE["job_timeout"] = job_timeout
    compiled = None
    if incremental and analysis == "dc":
        compiled = _primed_system(conversion.netlist, backend=solver_backend)
    _WORKER_STATE["compiled"] = compiled


def _campaign_worker_chunk(
    chunk: Sequence[InjectionJob],
) -> Tuple[
    List[Tuple[int, _Outcome]],
    SolveStats,
    Dict[str, int],
    Optional[Dict[str, object]],
]:
    conversion: ElectricalConversion = _WORKER_STATE["conversion"]
    compiled: Optional[CompiledSystem] = _WORKER_STATE["compiled"]
    analysis: str = _WORKER_STATE["analysis"]
    t_stop: float = _WORKER_STATE["t_stop"]
    dt: float = _WORKER_STATE["dt"]
    policy: RetryPolicy = _WORKER_STATE.get("policy", RetryPolicy())
    job_timeout: Optional[float] = _WORKER_STATE.get("job_timeout")
    results: List[Tuple[int, _Outcome]] = []
    job_wall_times: List[float] = []
    extras: Dict[str, object] = {
        "retries": 0, "timeouts": 0, "job_wall_times": job_wall_times,
    }
    # One heartbeat per chunk: the event's pid identifies this worker, so
    # the parent (and /events subscribers) can see which pool workers are
    # actually serving — it rides home in the drained payload below.
    obs.emit_event("worker_heartbeat", chunk_jobs=len(chunk))
    for job in chunk:
        outcome, retries, timeouts, wall = _run_job_isolated(
            conversion, compiled, job, analysis, t_stop, dt,
            policy, job_timeout,
        )
        extras["retries"] += retries  # type: ignore[operator]
        extras["timeouts"] += timeouts  # type: ignore[operator]
        job_wall_times.append(wall)
        results.append((job.index, outcome))
    # Report this chunk's *delta*, not the worker's cumulative counters: a
    # worker serving several chunks would otherwise double-count earlier
    # chunks in the parent's aggregate.
    stats = SolveStats()
    if compiled is not None:
        stats.merge(compiled.stats)
        compiled.stats = SolveStats()
    return results, stats, extras, obs.drain_worker_data()


class _ParallelUnavailable(RuntimeError):
    """Internal: the pool layer gave up; ``completed`` holds the outcomes
    it did produce (their solver stats and spans are already merged), so
    the serial fallback only needs to run the remainder."""

    def __init__(self, completed: Dict[int, _Outcome], cause: BaseException):
        super().__init__(str(cause))
        self.completed = completed


@dataclass(frozen=True)
class _ChunkTask:
    """One pool submission: ``order`` keeps trace merging deterministic
    across retries and bisections ((2,) splits into (2, 0) and (2, 1))."""

    order: Tuple[int, ...]
    jobs: Tuple[InjectionJob, ...]
    attempt: int = 0


class FaultInjectionCampaign:
    """A batched automated FMEA by fault injection on a Simulink model.

    Parameters match :func:`~repro.safety.fmea.run_simulink_fmea` plus:

    incremental:
        solve DC injections through a shared compiled system (cached LU +
        low-rank updates) instead of per-mode full re-assembly.  Results
        are identical either way — topology-changing faults transparently
        fall back to full assembly;
    workers:
        cap on worker processes (default 1: serial).  With ``N > 1`` a
        run fans its pending jobs out over a fresh process pool of up to
        ``N`` workers only when ``pending_jobs × system_size`` reaches
        :data:`PARALLEL_MIN_WORK`; below that crossover it runs serially.
        ``stats.requested_workers`` records the cap, ``stats.workers``
        the count a run used.  Row order is deterministic (enumeration
        order) regardless of completion order.  When a pool cannot be
        created (restricted environments) the campaign degrades to
        serial execution and flags ``stats.parallel_fallback``;
    solver_backend:
        linear-solver engine for every MNA solve in the campaign
        (baseline, incremental fault solves, workers): ``"dense"``
        (LAPACK LU), ``"sparse"`` (CSC + SuperLU) or ``"auto"``
        (size-based pick).  ``None`` defers to the process default;
    max_retries:
        bounded retry budget for transient failures — both job-level
        (numerical rejections) and chunk-level (a pool worker dying takes
        only its chunk, which is resubmitted to a fresh pool; after the
        budget is spent the chunk is bisected until the poisoned job is
        isolated and recorded as a :class:`JobFailure`);
    retry_backoff:
        base delay (seconds) of the exponential backoff between retries;
    job_timeout:
        per-job wall-clock budget in seconds (``None``: unlimited).  A
        runaway solve is cut off and recorded as a timeout
        :class:`JobFailure` instead of hanging the campaign;
    checkpoint:
        path of a JSONL file where completed job outcomes are persisted
        (keyed by a content hash of the model + reliability data, so stale
        entries are ignored automatically);
    resume:
        with ``checkpoint``, skip jobs whose outcomes the file already
        holds (``stats.resumed_jobs`` counts them).  Without ``resume``
        the checkpoint file is restarted from scratch.
    """

    def __init__(
        self,
        model: SimulinkModel,
        reliability: ReliabilityModel,
        sensors: Optional[Sequence[str]] = None,
        threshold: float = DEFAULT_THRESHOLD,
        assume_stable: Sequence[str] = (),
        min_absolute_delta: float = DEFAULT_MIN_ABSOLUTE_DELTA,
        behavior_overrides: Optional[
            Dict[Tuple[str, str], FailureBehavior]
        ] = None,
        analysis: str = "dc",
        t_stop: float = 5e-3,
        dt: float = 5e-5,
        incremental: bool = True,
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        job_timeout: Optional[float] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
        solver_backend: Optional[str] = None,
        correlation_id: Optional[str] = None,
    ) -> None:
        if analysis not in ("dc", "transient"):
            raise FmeaError(
                f"analysis must be 'dc' or 'transient', got {analysis!r}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise FmeaError(
                f"job_timeout must be positive, got {job_timeout!r}"
            )
        if solver_backend is not None and solver_backend not in BACKENDS:
            raise FmeaError(
                f"solver_backend must be one of {BACKENDS}, "
                f"got {solver_backend!r}"
            )
        if resume and checkpoint is None:
            raise FmeaError("resume=True requires a checkpoint path")
        self.model = model
        self.reliability = reliability
        self.sensors = sensors
        self.threshold = threshold
        self.assume_stable = assume_stable
        self.min_absolute_delta = min_absolute_delta
        self.behavior_overrides = behavior_overrides
        self.analysis = analysis
        self.t_stop = t_stop
        self.dt = dt
        self.incremental = incremental
        self.workers = max(1, int(workers))
        self.retry_policy = RetryPolicy(
            max_retries=max(0, int(max_retries)), backoff=retry_backoff
        )
        self.job_timeout = job_timeout
        self.checkpoint = checkpoint
        self.resume = resume
        self.solver_backend = solver_backend
        #: Correlation id scoped over the whole run (events, spans, logs,
        #: pool workers).  ``None`` inherits whatever ambient id the caller
        #: installed (the service wraps ``run()`` in its job's id anyway).
        self.correlation_id = correlation_id
        self._fingerprint: Optional[str] = None
        self._shared_compiled: Optional[CompiledSystem] = None
        self._job_wall_times: List[float] = []
        self._progress_total = 0
        self._progress_done = 0
        self._progress_resumed = 0
        self._progress_t0 = 0.0

    # -- progress events ---------------------------------------------------

    def _short_fingerprint(self) -> str:
        """The campaign fingerprint truncated for event payloads — enough
        to key `/healthz` per-campaign progress, cheap to repeat."""
        return self._campaign_token()[:16]

    def _emit_progress(self, newly_done: int, chunk: Optional[str] = None) -> None:
        """One ``chunk_completed`` event advancing the done counter.

        The ETA extrapolates the measured per-job wall time of the jobs
        *executed this run* (resumed jobs were free, so they are excluded
        from the rate) over the jobs still pending.  No-op (one flag
        check) while the event plane is disabled."""
        if not obs.events_enabled():
            return
        self._progress_done += newly_done
        executed = self._progress_done - self._progress_resumed
        remaining = self._progress_total - self._progress_done
        eta: Optional[float]
        if remaining <= 0:
            eta = 0.0
        elif executed > 0:
            elapsed = time.perf_counter() - self._progress_t0
            eta = elapsed / executed * remaining
        else:
            eta = None  # nothing executed yet: no rate to extrapolate
        payload: Dict[str, object] = {
            "done": self._progress_done,
            "total": self._progress_total,
            "eta_seconds": eta,
            "fingerprint": self._short_fingerprint(),
        }
        if chunk is not None:
            payload["chunk"] = chunk
        obs.emit_event("chunk_completed", **payload)

    # -- enumeration ------------------------------------------------------

    def _enumerate(
        self, conversion: ElectricalConversion, result: FmeaResult
    ) -> Tuple[List[Tuple[FmeaRow, Optional[InjectionJob]]], List[InjectionJob]]:
        """All FMEA row slots in output order, plus the runnable jobs."""
        stable: Set[str] = set(self.assume_stable)
        slots: List[Tuple[FmeaRow, Optional[InjectionJob]]] = []
        jobs: List[InjectionJob] = []
        for block in self.model.all_blocks():
            etype = block.effective_type
            info = block.effective_info
            if block.block_type == "Subsystem" and not block.param(
                "annotated_type"
            ):
                continue  # plain subsystems are analysed through their contents
            if info.role in ("sensor", "reference", "support", "structural"):
                continue
            if block.name in stable or block.path() in stable:
                continue
            entry = self.reliability.get(etype)
            if entry is None:
                result.uncovered.append(block.name)
                result.uncovered_reasons[block.name] = (
                    f"no reliability data for component class {etype!r}"
                )
                continue
            try:
                element_name = conversion.element_name(block.path())
            except (SimulinkError, CircuitError, KeyError) as exc:
                # Only "this block has no electrical element" counts as
                # uncovered; a programming error must surface, not
                # masquerade as a coverage gap.
                result.uncovered.append(block.name)
                result.uncovered_reasons[block.name] = str(exc)
                continue
            for mode in entry.failure_modes:
                behavior = None
                if self.behavior_overrides is not None:
                    behavior = self.behavior_overrides.get((etype, mode.name))
                if behavior is None:
                    behavior = info.failure_behaviors.get(mode.name)
                row = FmeaRow(
                    component=block.name,
                    component_class=entry.component_class,
                    fit=entry.fit,
                    failure_mode=mode.name,
                    nature=mode.nature,
                    distribution=mode.distribution,
                )
                if behavior is None:
                    row.warning = (
                        f"no failure behaviour for {etype}/{mode.name}; "
                        f"not injectable"
                    )
                    slots.append((row, None))
                    continue
                job = InjectionJob(
                    index=len(jobs),
                    component=block.name,
                    failure_mode=mode.name,
                    element_name=element_name,
                    behavior=behavior,
                    block_params=block.parameters,
                )
                jobs.append(job)
                slots.append((row, job))
        return slots, jobs

    # -- execution --------------------------------------------------------

    def _execute_serial(
        self,
        conversion: ElectricalConversion,
        jobs: Sequence[InjectionJob],
        stats: CampaignStats,
        checkpoint: Optional[CampaignCheckpoint] = None,
    ) -> Dict[int, _Outcome]:
        compiled = None
        if self.incremental and self.analysis == "dc":
            compiled = self._shared_compiled or _primed_system(
                conversion.netlist, backend=self.solver_backend
            )
        outcomes: Dict[int, _Outcome] = {}
        emitted_at = 0
        for position, job in enumerate(jobs, start=1):
            outcome, retries, timeouts, wall = _run_job_isolated(
                conversion, compiled, job, self.analysis,
                self.t_stop, self.dt, self.retry_policy, self.job_timeout,
            )
            stats.retries += retries
            stats.timeouts += timeouts
            self._job_wall_times.append(wall)
            outcomes[job.index] = outcome
            if checkpoint is not None:
                checkpoint.record(job, outcome)
                if position % _CHECKPOINT_EVERY == 0:
                    checkpoint.flush()
            if position % _CHECKPOINT_EVERY == 0 or position == len(jobs):
                # Serial progress ticks at checkpoint granularity — cheap
                # enough to stay in the loop, frequent enough for an ETA.
                self._emit_progress(position - emitted_at)
                emitted_at = position
        if compiled is not None:
            stats.absorb(compiled.stats)
        return outcomes

    def _campaign_token(self) -> str:
        """Content hash of this campaign's model and analysis parameters.

        Cached for the duration of ONE run only (:func:`campaign_fingerprint`
        hashes the whole model, so the checkpoint and every progress event
        must not pay it repeatedly) — ``_run_campaign`` resets the cache at
        entry, to the fingerprint the caller passed to :meth:`run` or to
        nothing,
        because the iterate-and-rerun workflows (DECISIVE, service tenants)
        mutate the model or config between runs and a stale fingerprint
        would match the checkpoint of the *old* model state.
        """
        if self._fingerprint is None:
            self._fingerprint = campaign_fingerprint(
                self.model,
                self.reliability,
                self.analysis,
                self.t_stop,
                self.dt,
                self.behavior_overrides,
            )
        return self._fingerprint

    def _new_pool(self, conversion: ElectricalConversion, size: int):
        """A fresh ``size``-worker process pool for this run.

        Every worker runs :func:`_campaign_worker_init` once with this
        campaign's configuration and the ambient correlation id, so its
        events, spans and logs carry the job's id home.  The caller shuts
        the pool down.  Tests replace this method to inject pool doubles.
        """
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=size,
            initializer=_campaign_worker_init,
            initargs=(
                conversion,
                self.analysis,
                self.t_stop,
                self.dt,
                self.incremental,
                obs.enabled(),
                self.retry_policy,
                self.job_timeout,
                self.solver_backend,
                obs.events_enabled(),
                obs.correlation_id(),
            ),
        )

    def _execute_parallel(
        self,
        conversion: ElectricalConversion,
        jobs: Sequence[InjectionJob],
        stats: CampaignStats,
        checkpoint: Optional[CampaignCheckpoint],
        workers: int,
    ) -> Dict[int, _Outcome]:
        """Fan jobs out over ``workers`` processes, chunk-granularly
        recoverable.

        A chunk whose worker dies is resubmitted to a fresh pool up to
        ``max_retries`` times, then bisected — so one poisoned job cannot
        take healthy work down with it, and the cost of a crash is one
        chunk, not the campaign.  Completed chunks are kept (outcomes,
        solver stats and spans) even when the pool layer later gives up
        and the campaign degrades to serial for the remainder.
        """
        completed: Dict[int, _Outcome] = {}
        try:
            self._parallel_rounds(
                conversion, jobs, stats, completed, checkpoint, workers
            )
        except Exception as exc:  # noqa: BLE001 — pool layer must not abort
            # Restricted environments (no fork/semaphores) or repeated
            # zero-progress pool deaths: degrade to serial for whatever is
            # left.  Completed outcomes stay valid — their stats/spans are
            # already merged and the serial pass will skip them.
            raise _ParallelUnavailable(completed, exc) from exc
        return completed

    def _parallel_rounds(
        self,
        conversion: ElectricalConversion,
        jobs: Sequence[InjectionJob],
        stats: CampaignStats,
        completed: Dict[int, _Outcome],
        checkpoint: Optional[CampaignCheckpoint],
        workers: int,
    ) -> None:
        from concurrent.futures.process import BrokenProcessPool

        # Round-robin chunking balances expensive (nonlinear) jobs across
        # workers; outcomes are re-keyed by job index, so ordering is
        # deterministic whatever the completion order.
        chunks = [
            tuple(jobs[offset :: workers]) for offset in range(workers)
        ]
        pending = [
            _ChunkTask(order=(i,), jobs=chunk)
            for i, chunk in enumerate(chunks)
            if chunk
        ]
        parent_span = obs.current_span_id()
        pool = self._new_pool(conversion, len(pending))
        zero_progress_rounds = 0
        try:
            while pending:
                submitted: List[Tuple[_ChunkTask, object]] = []
                lost: List[_ChunkTask] = []
                pool_broken = False
                for task in pending:
                    try:
                        submitted.append(
                            (task, pool.submit(_campaign_worker_chunk, task.jobs))
                        )
                    except BrokenProcessPool:
                        lost.append(task)
                        pool_broken = True
                progressed = 0
                # Process in submission order so the merged trace is
                # deterministic for a fixed worker count and loss pattern.
                for task, future in submitted:
                    try:
                        results, solve_stats, extras, payload = future.result()
                    except BrokenProcessPool:
                        lost.append(task)
                        pool_broken = True
                        continue
                    except Exception:  # noqa: BLE001 — e.g. pickling errors
                        lost.append(task)
                        continue
                    progressed += 1
                    for index, outcome in results:
                        completed[index] = outcome
                    stats.absorb(solve_stats)
                    stats.retries += extras.get("retries", 0)
                    stats.timeouts += extras.get("timeouts", 0)
                    self._job_wall_times.extend(
                        extras.get("job_wall_times", ())
                    )
                    obs.ingest_worker_data(payload, parent_id=parent_span)
                    self._emit_progress(
                        len(results), chunk=".".join(map(str, task.order))
                    )
                    if checkpoint is not None:
                        by_index = {job.index: job for job in task.jobs}
                        for index, outcome in results:
                            checkpoint.record(by_index[index], outcome)
                        checkpoint.flush()
                if lost and not progressed:
                    zero_progress_rounds += 1
                    if zero_progress_rounds >= 2:
                        # Nothing survives this environment's pools; let
                        # the serial fallback take the remainder.
                        raise RuntimeError(
                            "process pool made no progress in "
                            f"{zero_progress_rounds} consecutive rounds"
                        )
                else:
                    zero_progress_rounds = 0
                pending = self._requeue_lost(lost, stats, completed)
                if pool_broken and pending:
                    # A broken executor can never serve again.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool(conversion, len(pending))
                if pending:
                    time.sleep(self.retry_policy.delay(1))
        finally:
            # Join the workers: a run leaves no processes behind, and the
            # teardown is charged to the run that forked them.
            pool.shutdown(wait=True, cancel_futures=True)

    def _requeue_lost(
        self,
        lost: Sequence[_ChunkTask],
        stats: CampaignStats,
        completed: Dict[int, _Outcome],
    ) -> List[_ChunkTask]:
        """Retry, bisect or fail-out the chunks whose workers died."""
        requeued: List[_ChunkTask] = []
        for task in lost:
            attempt = task.attempt + 1
            obs.emit_event(
                "pool_worker_lost",
                level="warning",
                chunk=".".join(map(str, task.order)),
                jobs=len(task.jobs),
                attempt=attempt,
            )
            if attempt <= self.retry_policy.max_retries:
                stats.retries += 1
                with obs.span(
                    "campaign.retry",
                    chunk=".".join(map(str, task.order)),
                    attempt=attempt,
                    jobs=len(task.jobs),
                ):
                    pass
                requeued.append(
                    _ChunkTask(task.order, task.jobs, attempt=attempt)
                )
            elif len(task.jobs) > 1:
                # Retry budget spent on the whole chunk: bisect to corner
                # the poisoned job while the healthy half still completes.
                middle = len(task.jobs) // 2
                requeued.append(
                    _ChunkTask(task.order + (0,), task.jobs[:middle])
                )
                requeued.append(
                    _ChunkTask(task.order + (1,), task.jobs[middle:])
                )
            else:
                job = task.jobs[0]
                failure = JobFailure(
                    index=job.index,
                    component=job.component,
                    failure_mode=job.failure_mode,
                    exception="BrokenProcessPool",
                    message=(
                        "worker process died repeatedly while executing "
                        "this job"
                    ),
                    kind="worker_lost",
                    retries=task.attempt,
                )
                completed[job.index] = ("failed", failure.to_dict())
        return requeued

    def _effective_workers(self, pending_jobs: int, size: int) -> int:
        """Worker count for one run: up to the ``workers`` cap when the
        estimated work ``pending_jobs × size`` (``size``: MNA unknowns)
        reaches :data:`PARALLEL_MIN_WORK`, else one (serial)."""
        if self.workers > 1 and pending_jobs * size >= PARALLEL_MIN_WORK:
            return min(self.workers, pending_jobs)
        return 1

    def _execute(
        self,
        conversion: ElectricalConversion,
        jobs: Sequence[InjectionJob],
        stats: CampaignStats,
        checkpoint: Optional[CampaignCheckpoint] = None,
    ) -> Dict[int, _Outcome]:
        if not jobs:
            return {}
        outcomes: Dict[int, _Outcome] = {}
        remaining: Sequence[InjectionJob] = jobs
        if stats.workers > 1:
            try:
                outcomes = self._execute_parallel(
                    conversion, jobs, stats, checkpoint, stats.workers
                )
                remaining = ()
            except _ParallelUnavailable as exc:
                # Degrade to serial — same rows, just without the fan-out.
                # Chunks that did complete in parallel are kept; only the
                # remainder re-runs, so nothing is double-counted.
                stats.parallel_fallback = True
                stats.workers = 1
                outcomes = exc.completed
                remaining = [
                    job for job in jobs if job.index not in outcomes
                ]
        if remaining:
            outcomes.update(
                self._execute_serial(conversion, remaining, stats, checkpoint)
            )
        return outcomes

    # -- classification ---------------------------------------------------

    def _classify(
        self,
        row: FmeaRow,
        outcome: _Outcome,
        baseline: Dict[str, float],
        monitored: Sequence[str],
    ) -> FmeaRow:
        kind, payload = outcome
        if kind == "failed":
            # The harness could not produce a result for this injection.
            # Conservative call: an unknown effect must be assumed
            # dangerous, and the structured failure keeps it visible
            # (result.failures) instead of silently shrinking the FMEA.
            failure: Mapping[str, object] = payload  # type: ignore[assignment]
            row.safety_related = True
            row.impact = "DVF"
            row.effect = (
                f"injection failed ({failure['exception']}): "
                f"{failure['message']}"
            )
            row.warning = (
                f"harness failure after {failure['retries']} retries "
                f"({failure['kind']}); effect assumed dangerous"
            )
            return row
        if kind == "error":
            # A non-convergent injected circuit is itself evidence of a
            # violent disturbance; treat as safety-related and record why.
            row.safety_related = True
            row.effect = f"simulation failed under fault: {payload}"
            row.impact = "DVF"
            return row
        readings: Dict[str, float] = payload  # type: ignore[assignment]
        deltas = {
            name: _relative_delta(
                baseline[name], readings[name], self.min_absolute_delta
            )
            for name in monitored
        }
        row.sensor_deltas = deltas
        worst = max(deltas.values()) if deltas else 0.0
        if worst > self.threshold:
            row.safety_related = True
            row.impact = "DVF"
            # Quantize the ranking key: two sensors whose deltas agree to
            # nine decimals are tied (broken by sensor order), so the pick
            # cannot depend on which solver path produced the solution.
            worst_sensor = max(deltas, key=lambda name: round(deltas[name], 9))
            row.effect = (
                f"reading at {worst_sensor.rsplit('/', 1)[-1]} deviates "
                f"by {worst * 100:.1f}%"
            )
        else:
            row.effect = (
                f"max sensor deviation {worst * 100:.1f}% (< threshold)"
            )
        return row

    # -- the campaign -----------------------------------------------------

    def run(self, fingerprint: Optional[str] = None) -> FmeaResult:
        """Execute the campaign and return the component safety analysis
        model, with :class:`CampaignStats` attached as ``result.stats``.

        ``fingerprint`` is this run's :func:`campaign_fingerprint` when the
        caller has already computed it (the analysis service hashes each
        request once and hands the value down).  It keys the checkpoint
        and the progress events for this run only; the next run without
        one hashes the model afresh.

        With observability enabled the campaign is one ``campaign`` span
        over ``campaign.baseline`` / ``campaign.enumerate`` /
        ``campaign.execute`` (parenting one ``campaign.job`` span per
        executed injection, merged back from pool workers) /
        ``campaign.classify`` phases, and the final counters are published
        as ``campaign_*`` metrics.

        The whole run executes under this campaign's correlation id (when
        one was given): every event, span, log record and pool-worker
        delta it produces carries the id.
        """
        with obs.correlation(self.correlation_id):
            if self.solver_backend is None:
                return self._run_campaign(fingerprint)
            # Campaign-wide backend: the naive/transient/baseline paths
            # solve through module-level functions that read the process
            # default, so pin it for the duration of the run (workers pin
            # their own copy in the pool initializer).
            previous = default_backend()
            set_default_backend(self.solver_backend)
            try:
                return self._run_campaign(fingerprint)
            finally:
                set_default_backend(previous)

    def _run_campaign(self, fingerprint: Optional[str]) -> FmeaResult:
        started = time.perf_counter()
        # The model/config may have been mutated since the previous run of
        # this campaign object; take the fingerprint afresh per run (the
        # caller's, or recomputed) so checkpoint keys always reflect
        # current content.
        self._fingerprint = fingerprint
        stats = CampaignStats(
            requested_workers=self.workers,
            mode="incremental" if self.incremental else "naive",
            analysis=self.analysis,
            solver_backend=self.solver_backend or "auto",
        )

        with obs.span(
            "campaign",
            system=self.model.name,
            mode=stats.mode,
            workers=self.workers,
            analysis=self.analysis,
        ) as campaign_span:
            conversion = to_netlist(self.model)
            self._shared_compiled = None
            baseline_started = time.perf_counter()
            with obs.span("campaign.baseline", analysis=self.analysis):
                if self.analysis == "transient":
                    baseline = _solve_readings_transient(
                        conversion, conversion.netlist, self.t_stop, self.dt
                    )
                elif self.incremental:
                    # Read the healthy baseline off the shared compiled
                    # system: one Newton solve serves both the baseline
                    # readings and the warm start of every serial fault
                    # solve, instead of paying it twice (which is what
                    # used to put tiny incremental campaigns behind
                    # naive ones).
                    self._shared_compiled = _primed_system(
                        conversion.netlist, backend=self.solver_backend
                    )
                    try:
                        baseline = _readings_from_solution(
                            conversion, self._shared_compiled.solve(), None
                        )
                    except CircuitError:
                        baseline = _solve_readings(
                            conversion, conversion.netlist
                        )
                else:
                    baseline = _solve_readings(conversion, conversion.netlist)
            stats.baseline_time = time.perf_counter() - baseline_started
            monitored = _select_sensors(conversion, self.sensors, baseline)

            result = FmeaResult(
                system=self.model.name,
                method="injection",
                baseline_readings={name: baseline[name] for name in monitored},
            )
            with obs.span("campaign.enumerate") as enumerate_span:
                slots, jobs = self._enumerate(conversion, result)
                enumerate_span.set(jobs=len(jobs), rows=len(slots))
            stats.jobs = len(jobs)
            stats.rows = len(slots)

            checkpoint, preloaded = self._open_checkpoint(jobs, stats)
            pending = [job for job in jobs if job.index not in preloaded]
            # Fan-out is decided per run, once the *pending* job count is
            # known — resumed jobs cost nothing, so a mostly checkpointed
            # campaign rightly stays serial.  ``self.workers`` stays the
            # caller's cap for the next run.
            stats.workers = self._effective_workers(
                len(pending), system_size(conversion.netlist)
            )
            campaign_span.set(workers=stats.workers)
            self._job_wall_times = []
            self._progress_total = stats.jobs
            self._progress_done = len(preloaded)
            self._progress_resumed = len(preloaded)
            self._progress_t0 = time.perf_counter()
            if obs.events_enabled():
                obs.emit_event(
                    "campaign_started",
                    system=self.model.name,
                    analysis=self.analysis,
                    jobs=stats.jobs,
                    rows=stats.rows,
                    workers=stats.workers,
                    mode=stats.mode,
                    resumed=len(preloaded),
                    fingerprint=self._short_fingerprint(),
                )
            with obs.span(
                "campaign.execute", jobs=len(pending), resumed=len(preloaded)
            ):
                outcomes = self._execute(conversion, pending, stats, checkpoint)
            outcomes.update(preloaded)
            if self._progress_done < self._progress_total:
                # Jobs that never produced a chunk_completed tick (e.g.
                # bisected-out worker_lost failures written straight into
                # `completed`): one closing event keeps the sequence's
                # final done count equal to stats.jobs.
                self._emit_progress(
                    self._progress_total - self._progress_done
                )
            if checkpoint is not None:
                # Sweep anything the per-chunk/periodic flushes missed
                # (e.g. outcomes produced by the serial fallback tail).
                for job in jobs:
                    if job.index in outcomes:
                        checkpoint.record(job, outcomes[job.index])
                checkpoint.flush()
            with obs.span("campaign.classify", rows=len(slots)):
                for row, job in slots:
                    if job is None:
                        result.rows.append(row)
                        continue
                    outcome = outcomes.get(job.index)
                    if outcome is None:
                        # Defensive: execution must cover every job; a gap
                        # is a harness bug, reported as a failure row
                        # rather than a crash.
                        outcome = (
                            "failed",
                            JobFailure(
                                index=job.index,
                                component=job.component,
                                failure_mode=job.failure_mode,
                                exception="LostOutcome",
                                message="job produced no outcome",
                            ).to_dict(),
                        )
                    if outcome[0] == "failed":
                        result.failures.append(
                            JobFailure.from_dict(outcome[1])
                        )
                    result.rows.append(
                        self._classify(row, outcome, baseline, monitored)
                    )
            stats.job_failures = len(result.failures)
            if not result.rows:
                raise FmeaError(
                    "FMEA produced no rows: no component matched the "
                    "reliability model"
                )
            if self._job_wall_times:
                walls = sorted(self._job_wall_times)
                stats.job_wall_p50 = _percentile(walls, 0.50)
                stats.job_wall_p95 = _percentile(walls, 0.95)
                stats.job_wall_p99 = _percentile(walls, 0.99)
            stats.wall_time = time.perf_counter() - started
            campaign_span.set(
                jobs=stats.jobs,
                rows=stats.rows,
                parallel_fallback=stats.parallel_fallback,
                retries=stats.retries,
                job_failures=stats.job_failures,
                resumed_jobs=stats.resumed_jobs,
            )
        result.stats = stats
        stats.publish()
        if obs.events_enabled():
            obs.emit_event(
                "campaign_finished",
                system=self.model.name,
                jobs=stats.jobs,
                rows=stats.rows,
                wall_seconds=stats.wall_time,
                retries=stats.retries,
                job_failures=stats.job_failures,
                parallel_fallback=stats.parallel_fallback,
                fingerprint=self._short_fingerprint(),
            )
        return result

    def _open_checkpoint(
        self, jobs: Sequence[InjectionJob], stats: CampaignStats
    ) -> Tuple[Optional[CampaignCheckpoint], Dict[int, _Outcome]]:
        """Set up checkpointing; with ``resume``, load prior outcomes."""
        if self.checkpoint is None:
            return None, {}
        # The per-run fingerprint: one whole-model hash per run keys both
        # the checkpoint file and the progress events.
        fingerprint = self._campaign_token()
        checkpoint = CampaignCheckpoint(
            self.checkpoint, fingerprint, resume=self.resume
        )
        if not self.resume:
            return checkpoint, {}
        with obs.span("campaign.resume", path=str(self.checkpoint)) as sp:
            loaded = checkpoint.load()
            preloaded = {
                job.index: loaded[job.index]
                for job in jobs
                if job.index in loaded and checkpoint.job_matches(job)
            }
            stats.resumed_jobs = len(preloaded)
            sp.set(resumed=len(preloaded), recorded=len(loaded))
        return checkpoint, preloaded
