"""The always-on analysis engine: async job queue + fingerprint cache.

Every analysis used to be a cold CLI run: load the whole model, compute,
exit.  :class:`AnalysisService` is the long-lived shape (ROADMAP item 1):

- **submit** an :class:`AnalysisRequest` (fmea / fmeda / search) and get an
  :class:`AnalysisJob` back immediately; a pool of worker *threads* drains
  the queue, dispatching into :class:`FaultInjectionCampaign` with the
  full retry/checkpoint machinery;
- results are **cached against the analysis ledger**, keyed by the
  campaign fingerprint (content hash of model + reliability + solver
  config) combined with the classification/deployment config — an
  identical submission is served straight from the ledger, bit-identical
  to the computed rows, without constructing the model at all.  Lookups
  go through the ledger's cache-key index
  (:class:`~repro.obs.ledger.LedgerIndex`, the ledger's one read path):
  one dict hit plus one line seek, O(1) in history size, under a lock
  held only for the seek.  A computed answer and a cached one are both
  built from the recorded ledger entry, so they have the same keys;
- an FMEDA or search job whose **base FMEA** is on record — the same
  question asked as a plain FMEA (:meth:`AnalysisRequest.fmea_cache_key`)
  — derives from that entry's rows: like a cache hit it neither
  materialises nor digests the model and runs no campaign, so the paper's
  FMEA → FMEDA → search loop costs one campaign per model;
- identical submissions arriving while one is already computing are
  **coalesced single-flight**: the first becomes the leader, every later
  one attaches to its in-flight computation and receives the same rows
  bit-identically (``coalesced: true`` plus the leader's correlation id
  in ``GET /jobs/<id>``) — N clients asking the same question cost one
  campaign (dogpile suppression);
- ``service_*`` counters/gauges/histograms land in the ``repro.obs``
  metrics registry (scraped live via ``GET /metrics``), and job lifecycle
  events (``job_submitted`` / ``job_started`` / ``job_finished``) ride the
  event bus into ``GET /events`` and the ``/healthz`` summary.

Requests carry models as *payloads* (the ``repro-simulink/1`` dict format)
rather than live objects: fingerprinting hashes the raw payload without
materialising a :class:`SimulinkModel`, so a cache hit costs one
fingerprint, one index lookup and one line seek — the model-access analogue
of :class:`LazyModelResource`'s load-on-reference semantics.  Materialised
models are kept in a small digest-keyed LRU so concurrent tenants
re-computing over the same model parse it once.

Each content key is computed once per job and handed down: the fingerprint
keys the cache, the campaign's checkpoint, and the ledger
entry; the model digest keys the LRU; and the LRU entry keeps the model's
ledger digest, so FMEA, FMEDA and search of one model pay it once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro import obs

__all__ = [
    "AnalysisRequest",
    "AnalysisJob",
    "AnalysisService",
    "ServiceError",
    "reliability_payload",
    "reliability_from_payload",
]

_KINDS = ("fmea", "fmeda", "search")

#: Materialised models kept warm, by model-payload digest.
_MODEL_CACHE_SIZE = 16

#: Solver settings a request may leave out (or send as ``null``), with the
#: campaign's own defaults.
_ANALYSES = ("dc", "transient")
_DEFAULT_T_STOP = 5e-3
_DEFAULT_DT = 5e-5


class ServiceError(Exception):
    """Malformed request or unknown job."""


# -- request --------------------------------------------------------------


def reliability_payload(reliability) -> List[Dict[str, object]]:
    """Serialise a :class:`ReliabilityModel` for an HTTP request body."""
    return [
        {
            "component_class": entry.component_class,
            "fit": entry.fit,
            "failure_modes": [
                {
                    "name": mode.name,
                    "distribution": mode.distribution,
                    "nature": mode.nature,
                }
                for mode in entry.failure_modes
            ],
        }
        for entry in reliability.entries()
    ]


def reliability_from_payload(payload: Sequence[Mapping[str, object]]):
    """The inverse of :func:`reliability_payload`."""
    from repro.reliability import ReliabilityModel
    from repro.reliability.model import ComponentReliability, FailureModeSpec

    model = ReliabilityModel()
    for entry in payload:
        model.add(
            ComponentReliability(
                component_class=str(entry["component_class"]),
                # fit/distribution pass through uncoerced: the campaign
                # fingerprint hashes them verbatim, and float(2) != 2 in
                # JSON — coercing here would make a payload round-trip
                # fingerprint differently from the original model.
                fit=entry["fit"],  # type: ignore[arg-type]
                failure_modes=[
                    FailureModeSpec(
                        name=str(mode["name"]),
                        distribution=mode["distribution"],  # type: ignore[arg-type]
                        nature=str(mode.get("nature", "")),
                    )
                    for mode in entry.get("failure_modes", [])  # type: ignore[union-attr]
                ],
            )
        )
    return model


def _normalised_config(config: Mapping[str, object]) -> Dict[str, object]:
    """``config`` with ``analysis``, ``t_stop`` and ``dt`` filled in and
    checked, so the fingerprint and the campaign read the same values, and
    the campaign options ``workers``, ``max_retries``, ``job_timeout`` and
    ``solver_backend`` checked.

    A missing or ``null`` value takes the campaign default; a malformed one
    raises :class:`ServiceError`, which ``POST /jobs`` answers with 400.
    ``workers`` is capped at the machine's CPU count: every worker is a
    forked process.
    """
    out = dict(config)
    analysis = out.get("analysis")
    if analysis is None:
        analysis = "dc"
    if not isinstance(analysis, str) or analysis not in _ANALYSES:
        raise ServiceError(
            f"config.analysis must be one of {_ANALYSES}, got {analysis!r}"
        )
    out["analysis"] = analysis
    for key, default in (("t_stop", _DEFAULT_T_STOP), ("dt", _DEFAULT_DT)):
        value = out.get(key)
        if value is None:
            value = default
        if not _finite(value) or value <= 0:  # type: ignore[operator]
            raise ServiceError(
                f"config.{key} must be a finite positive number, "
                f"got {value!r}"
            )
        out[key] = float(value)  # type: ignore[arg-type]
    from repro.circuit import BACKENDS

    cpus = os.cpu_count() or 1
    for key, valid, expected in (
        ("workers", lambda v: _integer(v) and 1 <= v <= cpus,
         f"an integer in [1, {cpus}]"),
        ("max_retries", lambda v: _integer(v) and v >= 0,
         "a non-negative integer"),
        ("job_timeout", lambda v: _finite(v) and v > 0,
         "a finite positive number"),
        ("solver_backend", lambda v: v in BACKENDS, f"one of {BACKENDS}"),
    ):
        value = out.get(key)
        if value is not None and not valid(value):
            raise ServiceError(
                f"config.{key} must be {expected}, got {value!r}"
            )
    return out


def _integer(value: object) -> bool:
    """Whether ``value`` is a JSON integer (``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value: object) -> bool:
    """Whether ``value`` is a finite JSON number (``bool`` is not one)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _entries(
    payload: object, what: str, names: Sequence[str],
    optional_names: Sequence[str] = (),
) -> List[Mapping[str, object]]:
    """Check a deployment or mechanism list: each entry a JSON object with
    string ``names`` (and ``optional_names`` when present) and, when
    present, a ``coverage`` in [0, 1] and a non-negative ``cost``."""
    if not isinstance(payload, (list, tuple)):
        raise ServiceError(f"{what} must be a list of objects")
    for index, entry in enumerate(payload):
        where = f"{what}[{index}]"
        if not isinstance(entry, Mapping):
            raise ServiceError(f"{where} must be an object")
        for name in names:
            if not isinstance(entry.get(name), str):
                raise ServiceError(f"{where}.{name} must be a string")
        for name in optional_names:
            if not isinstance(entry.get(name, ""), str):
                raise ServiceError(f"{where}.{name} must be a string")
        coverage = entry.get("coverage", 0.0)
        if not _finite(coverage) or not 0.0 <= coverage <= 1.0:  # type: ignore[operator]
            raise ServiceError(
                f"{where}.coverage must be a number in [0, 1], "
                f"got {coverage!r}"
            )
        cost = entry.get("cost", 0.0)
        if not _finite(cost) or cost < 0:  # type: ignore[operator]
            raise ServiceError(
                f"{where}.cost must be a finite non-negative number, "
                f"got {cost!r}"
            )
    return list(payload)


@dataclass
class AnalysisRequest:
    """One analysis submission.

    ``model`` is a ``repro-simulink/1`` payload dict (what
    ``SimulinkModel.to_dict()`` produces); ``reliability`` is the
    :func:`reliability_payload` list form.  ``config`` carries campaign
    and classification parameters (``threshold``, ``sensors``,
    ``assume_stable``, ``min_absolute_delta``, ``analysis``, ``t_stop``,
    ``dt``, ``workers``, ``solver_backend``,
    ``job_timeout``, ``max_retries``); ``analysis``, ``t_stop`` and ``dt``
    are normalised at construction (see :func:`_normalised_config`).
    ``deployments`` (fmeda) and ``mechanisms`` + ``target_asil`` (search)
    extend the base FMEA; ``config.search_strategy`` (``"dp"``,
    ``"exhaustive"`` or ``"greedy"``, default ``"dp"``) picks the search
    engine.  Everything is checked at construction, so a malformed request
    is a :class:`ServiceError` before any campaign runs.
    """

    kind: str
    model: Mapping[str, object]
    reliability: List[Dict[str, object]]
    config: Dict[str, object] = field(default_factory=dict)
    deployments: List[Dict[str, object]] = field(default_factory=list)
    mechanisms: List[Dict[str, object]] = field(default_factory=list)
    target_asil: str = ""
    tenant: str = ""
    #: The parsed reliability payload, built on first use.
    _reliability: object = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServiceError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.model, Mapping) or "diagram" not in self.model:
            raise ServiceError(
                "model must be a repro-simulink/1 payload dict "
                "(SimulinkModel.to_dict())"
            )
        if not isinstance(self.reliability, (list, tuple)):
            raise ServiceError("reliability must be a list of entry dicts")
        if self.kind == "search" and not self.mechanisms:
            raise ServiceError("search requests need a mechanisms catalogue")
        self.config = _normalised_config(self.config)
        self.deployments = _entries(
            self.deployments, "deployments", ("component", "failure_mode"),
            ("mechanism",),
        )
        self.mechanisms = _entries(
            self.mechanisms, "mechanisms",
            ("component_class", "failure_mode", "name"),
        )
        from repro.safety.metrics import ASIL_SPFM_TARGETS
        from repro.safety.optimizer import SEARCH_STRATEGIES

        if (self.kind == "search" or self.target_asil) and (
            self.target_asil not in ASIL_SPFM_TARGETS
        ):
            raise ServiceError(
                f"target_asil must be one of {tuple(ASIL_SPFM_TARGETS)}, "
                f"got {self.target_asil!r}"
            )
        if self.search_strategy() not in SEARCH_STRATEGIES:
            raise ServiceError(
                "config.search_strategy must be one of "
                f"{SEARCH_STRATEGIES}, got {self.config['search_strategy']!r}"
            )

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "AnalysisRequest":
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        try:
            return cls(
                kind=str(payload.get("kind", "fmea")),
                model=payload["model"],  # type: ignore[arg-type]
                reliability=list(payload.get("reliability", [])),  # type: ignore[arg-type]
                config=dict(payload.get("config", {})),  # type: ignore[arg-type]
                deployments=list(payload.get("deployments", [])),  # type: ignore[arg-type]
                mechanisms=list(payload.get("mechanisms", [])),  # type: ignore[arg-type]
                target_asil=str(payload.get("target_asil", "")),
                tenant=str(payload.get("tenant", "")),
            )
        except KeyError as exc:
            raise ServiceError(f"request missing field {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ServiceError(f"malformed request: {exc}") from None

    # -- keys -------------------------------------------------------------

    def reliability_model(self):
        """The reliability payload as a :class:`ReliabilityModel`, parsed
        once per request and shared by the fingerprint, the campaign and
        the ledger entry."""
        if self._reliability is None:
            self._reliability = reliability_from_payload(self.reliability)
        return self._reliability

    def fingerprint(self) -> str:
        """The campaign fingerprint, computed off the raw payloads.

        It equals :func:`campaign_fingerprint` of the materialised model
        whenever the payload is a model's ``to_dict()``, since
        ``SimulinkModel.from_dict`` round-trips it.
        """
        from repro.safety.resilience import campaign_fingerprint

        return campaign_fingerprint(
            self.model,
            self.reliability_model(),
            self.config["analysis"],  # type: ignore[arg-type]
            self.config["t_stop"],  # type: ignore[arg-type]
            self.config["dt"],  # type: ignore[arg-type]
            None,
        )

    def search_strategy(self) -> str:
        """The search engine: ``config.search_strategy``, ``"dp"`` when
        absent or ``null``."""
        strategy = self.config.get("search_strategy")
        return "dp" if strategy is None else strategy  # type: ignore[return-value]

    def cache_key(self, fingerprint: Optional[str] = None) -> str:
        """Ledger cache key: fingerprint ⊕ everything else that shapes rows.

        The campaign fingerprint deliberately excludes classification
        thresholds (checkpointed raw outcomes stay valid across them), but
        the *rows* a client receives do depend on them — so the cache key
        folds in the classification config, the deployment set and the
        search target on top of the fingerprint.  A search with a strategy
        other than the default ``"dp"`` folds that in too (a default search
        keeps the key it always had).
        """
        return self._key(fingerprint, base=False)

    def fmea_cache_key(self, fingerprint: Optional[str] = None) -> str:
        """The cache key of this request's base question: the same model,
        reliability and classification config asked as a plain FMEA (no
        deployments, mechanisms or target).  An FMEDA or search derives
        from the FMEA recorded under this key when there is one."""
        return self._key(fingerprint, base=True)

    def _key(self, fingerprint: Optional[str], base: bool) -> str:
        payload = {
            "fingerprint": fingerprint or self.fingerprint(),
            "kind": "fmea" if base else self.kind,
            "threshold": self.config.get("threshold", 0.2),
            "min_absolute_delta": self.config.get("min_absolute_delta"),
            "sensors": self.config.get("sensors"),
            "assume_stable": sorted(
                str(s) for s in self.config.get("assume_stable", [])  # type: ignore[union-attr]
            ),
            "deployments": [] if base else self.deployments,
            "mechanisms": [] if base else self.mechanisms,
            "target_asil": "" if base else self.target_asil,
        }
        strategy = self.search_strategy()
        if not base and self.kind == "search" and strategy != "dp":
            payload["search_strategy"] = strategy
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def model_digest(self) -> str:
        """Digest of the model payload: the key of the service's LRU of
        materialised models."""
        blob = json.dumps(self.model, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- job ------------------------------------------------------------------


@dataclass
class AnalysisJob:
    """Lifecycle record of one submission: queued → running → done|failed."""

    id: str
    kind: str
    system: str
    tenant: str = ""
    state: str = "queued"
    cached: bool = False
    #: True when this job attached to another job's in-flight computation
    #: instead of running its own campaign; ``coalesced_with`` carries the
    #: leader's correlation id so the shared computation's event stream,
    #: logs and ledger entry are one hop away.
    coalesced: bool = False
    coalesced_with: str = ""
    fingerprint: str = ""
    cache_key: str = ""
    #: Minted at submit; stamps every event/span/ledger entry the job
    #: produces (including inside pool workers) and keys the job's
    #: ``/jobs/<id>/events`` stream.
    correlation_id: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: str = ""
    result: Optional[Dict[str, object]] = None
    #: The request travels with the job internally; never serialised out
    #: (model payloads can be megabytes).
    request: Optional[AnalysisRequest] = None
    done_event: threading.Event = field(default_factory=threading.Event)

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self, include_result: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "system": self.system,
            "tenant": self.tenant,
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "coalesced_with": self.coalesced_with,
            "fingerprint": self.fingerprint,
            "correlation_id": self.correlation_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
        }
        if include_result:
            out["result"] = self.result
        return out


# -- service --------------------------------------------------------------


class AnalysisService:
    """Async job queue over :class:`FaultInjectionCampaign` with a
    ledger-backed, fingerprint-keyed result cache.

    Parameters
    ----------
    ledger:
        an :class:`~repro.obs.ledger.AnalysisLedger` (or a path to one);
        doubles as the result cache and the provenance record — every
        computed job appends an entry, every cache hit is served from one;
    workers:
        worker *threads* draining the queue.  A campaign fans out over
        processes only when its request sets ``config.workers`` above 1
        and the campaign clears the measured crossover;
    checkpoint_dir:
        when set, every campaign checkpoints to
        ``<dir>/<fingerprint>.jsonl`` with ``resume=True`` — a job retried
        after a crash (or a near-identical tenant model) skips completed
        injections;
    history:
        completed jobs kept in memory for ``GET /jobs`` (bounded);
    slo_objectives:
        service-level objectives evaluated by the built-in
        :class:`~repro.obs.slo.SLOEngine` — a sequence of
        :class:`~repro.obs.slo.Objective` objects or declarative dicts
        (see ``docs/observability.md``); ``None`` uses the stock
        job-success-rate / cache-hit-latency / queue-wait objectives.
    """

    def __init__(
        self,
        ledger,
        workers: int = 2,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        history: int = 256,
        slo_objectives=None,
    ) -> None:
        from repro.obs.ledger import AnalysisLedger
        from repro.obs.slo import SLOEngine, objectives_from_config

        self.ledger = (
            ledger if isinstance(ledger, AnalysisLedger)
            else AnalysisLedger(ledger)
        )
        if slo_objectives and not hasattr(slo_objectives[0], "budget"):
            slo_objectives = objectives_from_config(slo_objectives)
        self.slo = SLOEngine(objectives=slo_objectives)
        self.worker_count = max(1, int(workers))
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.history = max(8, int(history))
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._jobs: "OrderedDict[str, AnalysisJob]" = OrderedDict()
        self._lock = threading.Lock()
        self._ledger_lock = threading.Lock()
        #: Single-flight registry: cache key -> the job currently
        #: computing that key.  Later identical submissions attach to the
        #: leader instead of starting their own campaign.
        self._inflight: Dict[str, AnalysisJob] = {}
        self._inflight_lock = threading.Lock()
        self._model_cache: "OrderedDict[str, _CachedModel]" = OrderedDict()
        self._model_cache_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stopping = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "AnalysisService":
        if self._threads:
            return self
        self._stopping = False
        obs.gauge("service_workers").set(self.worker_count)
        # Baseline SLO snapshot: burn-rate windows need a "before" to diff
        # against, and a young service's windows span its whole life.
        self.slo.observe()
        obs.emit_event("service_started", workers=self.worker_count)
        for index in range(self.worker_count):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"same-analysis-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "AnalysisService":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # -- submission -------------------------------------------------------

    def submit(
        self, request: Union[AnalysisRequest, Mapping[str, object]]
    ) -> AnalysisJob:
        """Enqueue one analysis; returns the job record immediately."""
        if not isinstance(request, AnalysisRequest):
            request = AnalysisRequest.from_payload(request)
        if self._stopping or not self._threads:
            raise ServiceError("service is not running; call start()")
        job = AnalysisJob(
            id=uuid.uuid4().hex[:12],
            kind=request.kind,
            system=str(request.model.get("name", "model")),
            tenant=request.tenant,
            submitted_at=time.time(),
            request=request,
            correlation_id=obs.mint_correlation_id(),
        )
        with self._lock:
            self._jobs[job.id] = job
            self._trim_history()
        obs.counter("service_jobs_submitted").inc()
        self._queue.put(job.id)
        obs.gauge("service_queue_depth").set(self._queue.qsize())
        with obs.correlation(job.correlation_id):
            obs.emit_event(
                "job_submitted", job=job.id, kind=job.kind, system=job.system
            )
        return job

    def _trim_history(self) -> None:
        """Drop the oldest *finished* jobs past the history bound
        (caller holds the lock)."""
        finished = [
            job_id for job_id, job in self._jobs.items()
            if job.state in ("done", "failed")
        ]
        excess = len(self._jobs) - self.history
        for job_id in finished[:max(0, excess)]:
            del self._jobs[job_id]

    # -- inspection -------------------------------------------------------

    def job(self, job_id: str) -> AnalysisJob:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[AnalysisJob]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None) -> AnalysisJob:
        """Block until the job finishes (or the timeout lapses)."""
        job = self.job(job_id)
        job.done_event.wait(timeout)
        return job

    def status(self) -> Dict[str, object]:
        """Service summary for ``/healthz`` and ``GET /jobs``."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        wall = obs.histogram("service_job_wall_seconds")
        return {
            "running": bool(self._threads) and not self._stopping,
            "workers": self.worker_count,
            "queue_depth": self._queue.qsize(),
            "jobs": states,
            "cache_hits": int(obs.counter("service_cache_hits").value),
            "cache_misses": int(obs.counter("service_cache_misses").value),
            "inflight": len(self._inflight),
            "coalesced_jobs": int(
                obs.counter("service_coalesced_jobs").value
            ),
            "job_wall_p50": round(wall.quantile(0.50), 6),
            "job_wall_p99": round(wall.quantile(0.99), 6),
            "slo": self.slo.evaluate(),
        }

    # -- execution --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            obs.gauge("service_queue_depth").set(self._queue.qsize())
            try:
                job = self.job(job_id)
            except ServiceError:
                continue  # evicted from history before a worker got to it
            self._run_job(job)

    def _run_job(self, job: AnalysisJob) -> None:
        # The whole job — campaign, pool workers, ledger append, every
        # event and span — runs under the job's correlation id.
        with obs.correlation(job.correlation_id or None):
            self._run_job_correlated(job)

    def _run_job_correlated(self, job: AnalysisJob) -> None:
        job.state = "running"
        job.started_at = time.time()
        obs.histogram("service_queue_wait_seconds").observe(
            job.started_at - job.submitted_at
        )
        obs.emit_event("job_started", job=job.id, kind=job.kind)
        try:
            request = job.request
            assert request is not None
            job.fingerprint = request.fingerprint()
            job.cache_key = request.cache_key(job.fingerprint)
            self._resolve(job, request)
            job.state = "done"
            obs.counter("service_jobs_completed").inc()
        except Exception as exc:  # noqa: BLE001 — a bad job must not kill a worker
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
            obs.counter("service_jobs_failed").inc()
        finally:
            job.finished_at = time.time()
            job.request = None  # free the (possibly large) payload
            wall = job.finished_at - job.submitted_at
            obs.histogram("service_job_wall_seconds").observe(wall)
            if job.cached:
                # The cache-hit latency SLO watches this one: a hit that
                # took as long as a compute means the ledger lookup degraded.
                obs.histogram("service_cache_hit_wall_seconds").observe(wall)
            failed = {"error": job.error} if job.state == "failed" else {}
            obs.emit_event(
                "job_finished",
                level="error" if failed else "info",
                job=job.id,
                kind=job.kind,
                state=job.state,
                cached=job.cached,
                wall_seconds=round(wall, 6),
                **failed,
            )
            # Post-job SLO snapshot: gives the burn-rate windows their
            # cadence (failure bursts become visible on the next evaluate).
            self.slo.observe()
            self._export_job_log(job)
            job.done_event.set()

    def _export_job_log(self, job: AnalysisJob) -> None:
        """Attach the job's event stream to its ledger entry.

        Only for computed jobs (cache hits made no entry of their own) and
        only when the event stream is on; export failures are swallowed —
        an artifact is telemetry, not part of the result."""
        if not obs.events_enabled() or not job.correlation_id or job.cached:
            return
        result = job.result if isinstance(job.result, dict) else None
        entry_id = result.get("entry") if result else None
        if not entry_id:
            return
        try:
            path = self.ledger.path.parent / "logs" / f"{job.id}.jsonl"
            obs.event_bus().write_jsonl(path, cid=job.correlation_id)
            with self._ledger_lock:
                self.ledger.attach_artifact(
                    str(entry_id), path, kind="service-log"
                )
        except Exception:  # noqa: BLE001 — never fail the job over telemetry
            pass

    # -- cache ------------------------------------------------------------

    def _cache_lookup(self, cache_key: str) -> Optional[Dict[str, object]]:
        """Serve an identical prior submission from the ledger, or None.

        Entries carry their cache key in ``meta.service_cache_key``; the
        rows stored in the entry are exactly the payload recorded when the
        result was computed, so a hit is bit-identical to the original.
        The lock only covers the index seek — one `latest_by_cache_key`
        lookup — so a lookup can no longer stall concurrent appends for
        the duration of a full-file parse.
        """
        entry = self._recorded(cache_key)
        return None if entry is None else _answer(entry, from_cache=True)

    def _recorded(self, cache_key: str):
        """The latest ledger entry recorded under ``cache_key``, or None."""
        with self._ledger_lock:
            return self.ledger.latest_by_cache_key(cache_key)

    # -- single-flight coalescing -----------------------------------------

    def _acquire_flight(self, job: AnalysisJob) -> Optional[AnalysisJob]:
        """Register *job* as the in-flight leader for its cache key.

        Returns ``None`` when the job became the leader, or the current
        leader job when an identical computation is already running (the
        caller then waits on the leader instead of recomputing).
        """
        with self._inflight_lock:
            leader = self._inflight.get(job.cache_key)
            if leader is not None and leader is not job:
                return leader
            self._inflight[job.cache_key] = job
            obs.gauge("service_inflight_jobs").set(len(self._inflight))
        return None

    def _release_flight(self, job: AnalysisJob) -> None:
        with self._inflight_lock:
            if self._inflight.get(job.cache_key) is job:
                del self._inflight[job.cache_key]
            obs.gauge("service_inflight_jobs").set(len(self._inflight))

    def _resolve(self, job: AnalysisJob, request: AnalysisRequest) -> None:
        """Produce ``job.result`` — from cache, coalesced, or computed.

        Order matters: the ledger cache is consulted first (a landed
        result beats everything), then the in-flight registry.  A job
        that loses the registry race waits on the leader's completion and
        copies its result dict — the ``rows`` list is the leader's own
        object, so followers are bit-identical by construction.  If the
        leader fails, the follower retries from the top (the leader's
        failure is its own; an identical submission deserves a fresh
        attempt, which will find the flight slot free).
        """
        while True:
            cached = self._cache_lookup(job.cache_key)
            if cached is not None:
                job.result = cached
                job.cached = True
                obs.counter("service_cache_hits").inc()
                return
            leader = self._acquire_flight(job)
            if leader is None:
                try:
                    # Double-check under leadership: a previous leader may
                    # have landed its entry between our lookup and the
                    # registry acquisition.
                    cached = self._cache_lookup(job.cache_key)
                    if cached is not None:
                        job.result = cached
                        job.cached = True
                        obs.counter("service_cache_hits").inc()
                        return
                    obs.counter("service_cache_misses").inc()
                    job.result = self._compute(request, job)
                    return
                finally:
                    self._release_flight(job)
            job.coalesced = True
            job.coalesced_with = leader.correlation_id
            obs.counter("service_coalesced_jobs").inc()
            obs.emit_event("job_coalesced", job=job.id, leader=leader.id)
            leader.done_event.wait()
            if leader.state == "done" and isinstance(leader.result, dict):
                result = dict(leader.result)
                result["coalesced"] = True
                job.result = result
                return
            # Leader failed or was evicted mid-flight: this job is on its
            # own again. Reset the coalescing markers and retry.
            job.coalesced = False
            job.coalesced_with = ""

    # -- computation ------------------------------------------------------

    def _materialize_model(self, request: AnalysisRequest) -> "_CachedModel":
        """The payload as a :class:`SimulinkModel`, via the digest LRU."""
        from repro.simulink import SimulinkModel

        digest = request.model_digest()
        with self._model_cache_lock:
            cached = self._model_cache.get(digest)
            if cached is not None:
                self._model_cache.move_to_end(digest)
                obs.counter("service_model_cache_hits").inc()
                return cached
        cached = _CachedModel(SimulinkModel.from_dict(dict(request.model)))
        with self._model_cache_lock:
            self._model_cache[digest] = cached
            while len(self._model_cache) > _MODEL_CACHE_SIZE:
                self._model_cache.popitem(last=False)
        return cached

    def _campaign(
        self,
        request: AnalysisRequest,
        model,
        fingerprint: str,
        correlation_id: Optional[str] = None,
    ):
        from repro.safety.campaign import FaultInjectionCampaign

        config = request.config
        checkpoint = None
        resume = False
        if self.checkpoint_dir is not None:
            checkpoint = self.checkpoint_dir / f"{fingerprint[:16]}.jsonl"
            resume = True
        kwargs: Dict[str, object] = {}
        for key in (
            "threshold", "min_absolute_delta", "analysis", "t_stop", "dt",
            "workers", "max_retries", "job_timeout",
            "solver_backend",
        ):
            if key in config and config[key] is not None:
                kwargs[key] = config[key]
        sensors = config.get("sensors")
        assume_stable = config.get("assume_stable", ())
        return FaultInjectionCampaign(
            model,
            request.reliability_model(),
            sensors=sensors,  # type: ignore[arg-type]
            assume_stable=tuple(assume_stable),  # type: ignore[arg-type]
            checkpoint=checkpoint,
            resume=resume,
            correlation_id=correlation_id,
            **kwargs,  # type: ignore[arg-type]
        )

    def _compute(
        self, request: AnalysisRequest, job: AnalysisJob
    ) -> Dict[str, object]:
        from repro.obs.ledger import (
            record_fmea,
            record_fmeda,
            record_optimizer,
        )
        from repro.safety.metrics import asil_from_spfm, spfm

        from repro.obs.slo import summarize

        meta = {
            "service": True,
            "service_cache_key": job.cache_key,
            "service_job": job.id,
            "correlation_id": job.correlation_id,
        }
        if request.tenant:
            meta["tenant"] = request.tenant
        reliability = request.reliability_model()
        base = None
        if request.kind != "fmea":
            base = self._recorded(request.fmea_cache_key(job.fingerprint))
        if base is not None:
            # The FMEA of this very question is on record: derive the
            # FMEDA or search from its rows.  Like a cache hit, this never
            # materialises or digests the model and runs no campaign.
            from repro.safety.compare import rows_from_payload_fmea
            from repro.safety.fmea import FmeaResult

            model = None
            digest = base.model_digest
            fmea = FmeaResult(
                system=base.system, method="injection",
                rows=rows_from_payload_fmea(base.rows),
            )
            obs.counter("service_fmea_reuses").inc()
            obs.emit_event("fmea_reused", job=job.id, entry=base.entry_id)
        else:
            cached = self._materialize_model(request)
            model = cached.model
            fmea = self._campaign(
                request, model, job.fingerprint,
                correlation_id=job.correlation_id,
            ).run(fingerprint=job.fingerprint)
            digest = cached.ledger_digest()
        # SLO state at record time: a run recorded while the service was
        # burning its error budget carries the breach in its provenance,
        # which is what the `watch-regressions` slo rule checks.
        meta["slo"] = summarize(self.slo.evaluate())
        config = {
            "analysis": request.config["analysis"],
            "t_stop": request.config["t_stop"],
            "dt": request.config["dt"],
            "threshold": request.config.get("threshold", 0.2),
        }

        if request.kind == "fmea":
            value = spfm(fmea, [])
            with self._ledger_lock:
                entry = record_fmea(
                    self.ledger, fmea, model=model, reliability=reliability,
                    spfm=value, asil=asil_from_spfm(value), config=config,
                    meta=meta, fingerprint=job.fingerprint,
                    model_digest_value=digest,
                )
            return _answer(entry, from_cache=False)

        if request.kind == "fmeda":
            from repro.safety import run_fmeda
            from repro.safety.mechanisms import Deployment

            deployments = [
                Deployment(
                    component=str(d["component"]),
                    failure_mode=str(d["failure_mode"]),
                    mechanism=str(d.get("mechanism", "")),
                    coverage=float(d.get("coverage", 0.0)),  # type: ignore[arg-type]
                    cost=float(d.get("cost", 0.0)),  # type: ignore[arg-type]
                )
                for d in request.deployments
            ]
            fmeda = run_fmeda(fmea, deployments)
            with self._ledger_lock:
                entry = record_fmeda(
                    self.ledger, fmeda, model=model,
                    reliability=reliability, config=config, meta=meta,
                    model_digest_value=digest,
                )
            return _answer(entry, from_cache=False)

        # kind == "search"
        from repro.safety import search_for_target
        from repro.safety.mechanisms import MechanismSpec, SafetyMechanismModel

        catalogue = SafetyMechanismModel(
            MechanismSpec(
                component_class=str(m["component_class"]),
                failure_mode=str(m["failure_mode"]),
                name=str(m["name"]),
                coverage=float(m.get("coverage", 0.0)),  # type: ignore[arg-type]
                cost=float(m.get("cost", 0.0)),  # type: ignore[arg-type]
            )
            for m in request.mechanisms
        )
        strategy = request.search_strategy()
        plan = search_for_target(
            fmea, catalogue, request.target_asil, strategy=strategy
        )
        if plan is None:
            # No deployment meets the target: a real answer, but not a
            # cacheable ledger entry (record_optimizer needs a plan).
            return {
                "plan": None,
                "target_asil": request.target_asil,
                "from_cache": False,
            }
        with self._ledger_lock:
            entry = record_optimizer(
                self.ledger, plan, system=fmea.system, model=model,
                reliability=reliability,
                config={**config, "target": request.target_asil,
                        "strategy": strategy},
                meta=meta, model_digest_value=digest,
            )
        return _answer(entry, from_cache=False)


class _CachedModel:
    """A materialised model in the service's LRU, plus its ledger
    :func:`~repro.obs.ledger.model_digest`, computed the first time a job
    records against the model.  Two workers racing on a fresh entry may
    both compute it; they get the same value."""

    __slots__ = ("model", "_ledger_digest")

    def __init__(self, model) -> None:
        self.model = model
        self._ledger_digest: Optional[str] = None

    def ledger_digest(self) -> str:
        if self._ledger_digest is None:
            from repro.obs import ledger

            self._ledger_digest = ledger.model_digest(self.model)
        return self._ledger_digest


def _answer(entry, from_cache: bool) -> Dict[str, object]:
    """A job's answer, built from its recorded :class:`LedgerEntry` — so a
    computed answer and the same question served from the ledger have one
    shape and equal values."""
    answer: Dict[str, object] = {
        "rows": entry.rows,
        "spfm": entry.spfm,
        "asil": entry.asil,
        "entry": entry.entry_id,
        "metrics": entry.metrics,
        "from_cache": from_cache,
    }
    if entry.kind == "fmeda":
        answer["total_cost"] = entry.metrics.get("total_cost")
    elif entry.kind == "optimizer":
        answer["cost"] = entry.metrics.get("cost")
        answer["target_asil"] = entry.config.get("target")
    return answer
