"""The always-on analysis engine: async job queue + fingerprint cache.

Every analysis used to be a cold CLI run: load the whole model, compute,
exit.  :class:`AnalysisService` is the long-lived shape (ROADMAP item 1):

- **submit** an :class:`AnalysisRequest` (fmea / fmeda / search) and get an
  :class:`AnalysisJob` back immediately; a pool of worker *threads* drains
  the queue, dispatching into :class:`FaultInjectionCampaign`, which runs
  each job once, isolates a job that raises and checkpoints outcomes;
- results are **cached against the analysis ledger**, keyed by the
  campaign fingerprint (content hash of model + reliability + solver
  config) combined with the classification/deployment config — an
  identical submission is served straight from the ledger, bit-identical
  to the computed rows, without constructing the model at all.  Lookups
  go through the ledger's cache-key index
  (:class:`~repro.obs.ledger.LedgerIndex`, the ledger's one read path):
  one dict hit plus one line seek, O(1) in history size, under the
  ledger's own lock, which it holds only for the seek.  A computed answer
  and a cached one are both built from the recorded ledger entry, so they
  have the same keys;
- a **byte-identical revisit costs one hash of its body**: ``POST /jobs``
  hands the raw body to :meth:`AnalysisService.submit`, which looks its
  sha256 up in the request memo — body digest to the keys that body
  computed (kind, system, tenant, fingerprint, cache key), never the
  parsed request.  A memo hit skips the JSON parse, the canonical walk and
  the cache-key hash and goes straight to the ledger lookup; it parses its
  kept bytes only if it has to compute.  A memo miss is parsed and
  validated at submit as before (a malformed body is a 400), and its keys
  are memoised only once the worker has computed them without error;
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
fingerprint, one index lookup and one line seek (a memo hit not even the
fingerprint).

The service keeps **one entry per model** in a small LRU keyed by the
sha256 of the model's canonical text, which the fingerprint hashes.  A
body is parsed once, keeping its model's raw text: an alias of the entry,
so a cold job whose model text was seen before serialises no model.  Nor
does it parse it: the body's parse does not scan a member whose value is
an alias, and the request parses its kept text only if something reads
its model (the build of an entry that a cache-hit job keyed, or an entry
whose alias was evicted).  The first job to compute adds the materialised
model, its netlist conversion and the netlist's primed solver (index maps,
constant matrix, factorization, baseline), so concurrent tenants computing
new fault samples of one model parse, convert and factor it once; each
campaign only reads what is shared (every fault works on a copy of the
netlist, and a campaign keeps the columns of its own faults to itself).
The entry's digest is the ledger model digest of every payload that
round-trips through ``SimulinkModel``, so recording evidence serialises
no model either.  Each content key is computed once per job and handed
down: the fingerprint keys the cache, the campaign's checkpoint and the
ledger entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

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

#: Model entries kept, by canonical-text digest; their aliases share it.
_MODEL_CACHE_SIZE = 16

#: Request bodies remembered, by sha256 of the body: ~200 B of keys each.
#: The memo keeps keys, not requests — one parsed grid payload holds
#: ~5.5 MB of Python objects.
_REQUEST_MEMO_SIZE = 4096

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
    checked, so the fingerprint and the campaign read the same values.
    Unknown keys pass through untouched and reach neither the campaign nor
    the cache key.  ``max_retries`` and ``job_timeout`` are two: a campaign
    runs each job once, with no retry and no deadline.  ``search_strategy``
    is another: every search runs the exact Pareto DP.

    A missing or ``null`` value takes the campaign default; a malformed one
    raises :class:`ServiceError`, which ``POST /jobs`` answers with 400.
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
    return out


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


#: The stdlib's decoder; its ``scan_once`` is the C scanner ``json.loads``
#: uses for every value.
_DECODER = json.JSONDecoder()

#: The parsed ``model`` member of a body whose model text was known: not
#: parsed (see :func:`_parse_body`).
_UNREAD = object()


def _parse_body(
    text: str, known: Collection[str] = ()
) -> Tuple[object, Optional[str]]:
    """``json.loads(text)``, plus the raw text of the top-level object's
    ``model`` member (the last one when the key repeats, as the parsed
    value keeps the last), or ``None`` when there is none.

    An object body is walked by the stdlib's pure-Python
    ``json.decoder.JSONObject`` at the top level only: its scan hook parses
    each member's value with the C scanner and records where the value's
    text starts and ends.  Any other body goes to ``json.loads`` itself.
    Both raise ``ValueError`` on malformed JSON, as ``json.loads`` does.

    ``known`` holds raw model texts an earlier parse reported for a model
    object.  Each is the whole text of one JSON object, which ends where
    its text ends, so a member whose value starts with one is not scanned:
    its span ends after that text.  The last ``model`` member's value is
    then ``_UNREAD`` and the reported text is the known text itself;
    another member's value is parsed from its text after all.
    """
    start = json.decoder.WHITESPACE.match(text, 0).end()
    if not text.startswith("{", start):
        return json.loads(text), None
    spans: List[Union[str, Tuple[int, int]]] = []

    def scan(string: str, index: int):
        for raw in known:
            if string.startswith(raw, index):
                spans.append(raw)
                return _UNREAD, index + len(raw)
        value, end = _DECODER.scan_once(string, index)
        spans.append((index, end))
        return value, end

    pairs, end = json.decoder.JSONObject(
        (text, start + 1), True, scan, None, list
    )
    end = json.decoder.WHITESPACE.match(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    value: Dict[str, object] = {}
    model_span = None
    for (key, member), span in zip(pairs, spans):
        if key == "model":
            model_span = span
        elif member is _UNREAD:
            member = json.loads(span)  # type: ignore[arg-type]
        value[key] = member
    if model_span is None or isinstance(model_span, str):
        return value, model_span
    return value, text[model_span[0]:model_span[1]]


@dataclass
class AnalysisRequest:
    """One analysis submission.

    ``model`` is a ``repro-simulink/1`` payload dict (what
    ``SimulinkModel.to_dict()`` produces); ``reliability`` is the
    :func:`reliability_payload` list form.  ``config`` carries campaign
    and classification parameters (``threshold``, ``sensors``,
    ``assume_stable``, ``min_absolute_delta``, ``analysis``, ``t_stop``,
    ``dt``); ``analysis``, ``t_stop`` and ``dt`` are normalised at
    construction (see :func:`_normalised_config`).
    ``deployments`` (fmeda) and ``mechanisms`` + ``target_asil`` (search)
    extend the base FMEA.  Everything is checked at construction, so a
    malformed request is a :class:`ServiceError` before any campaign runs.
    A request parsed from a body whose model text the service knew leaves
    ``model`` unparsed until something reads it (:meth:`from_payload`).
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
    #: The raw JSON text of the body's ``model`` member, when the request
    #: was parsed from a body: an alias of the service's entry for the
    #: model.
    model_text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The model's name: the job record's ``system``.
    system: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServiceError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.model is _UNREAD:
            # A known model text: validated when the service first saw
            # it.  ``__getattr__`` parses it on first read.
            del self.model
        elif not (isinstance(self.model, Mapping) and "diagram" in self.model):
            raise ServiceError(
                "model must be a repro-simulink/1 payload dict "
                "(SimulinkModel.to_dict())"
            )
        else:
            self.system = str(self.model.get("name", "model"))
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

        if (self.kind == "search" or self.target_asil) and (
            self.target_asil not in ASIL_SPFM_TARGETS
        ):
            raise ServiceError(
                f"target_asil must be one of {tuple(ASIL_SPFM_TARGETS)}, "
                f"got {self.target_asil!r}"
            )

    def __getattr__(self, name: str) -> object:
        # Reached only for an attribute that is not set: the ``model`` of
        # a request whose body's model text was known, parsed here once.
        text = self.__dict__.get("model_text")
        if name != "model" or text is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self.model = json.loads(text)
        return self.model

    @classmethod
    def from_payload(
        cls,
        payload: Union[Mapping[str, object], bytes],
        known: Optional[Mapping[str, str]] = None,
    ) -> "AnalysisRequest":
        """A request from its JSON object, or from the raw request body
        (UTF-8 JSON bytes) that holds one.  A body is parsed once
        (:func:`_parse_body`), and the request keeps its model's raw text.

        ``known`` maps raw model texts the service holds to their models'
        names.  A body whose ``model`` member is one of them is not parsed
        there: the request keeps that text, takes its ``system`` from
        ``known`` and parses ``model`` only if something reads it."""
        model_text = None
        if isinstance(payload, bytes):
            try:
                payload, model_text = _parse_body(
                    payload.decode("utf-8"), known or ()
                )
            except (UnicodeDecodeError, ValueError):
                raise ServiceError("request body is not valid JSON") from None
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        try:
            request = cls(
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
        request.model_text = model_text
        if payload["model"] is _UNREAD:
            request.system = known[model_text]  # type: ignore[index]
        return request

    # -- keys -------------------------------------------------------------

    def reliability_model(self):
        """The reliability payload as a :class:`ReliabilityModel`, parsed
        once per request and shared by the fingerprint, the campaign and
        the ledger entry."""
        if self._reliability is None:
            self._reliability = reliability_from_payload(self.reliability)
        return self._reliability

    def fingerprint(self, model_text: Optional[bytes] = None) -> str:
        """The campaign fingerprint, computed off the raw payloads.

        It equals :func:`campaign_fingerprint` of the materialised model
        whenever the payload is a model's ``to_dict()``, since
        ``SimulinkModel.from_dict`` round-trips it.  Given the model's
        canonical text (the service's model entry keeps it), the model is
        not serialised again.
        """
        from repro.safety.resilience import campaign_fingerprint

        return campaign_fingerprint(
            self.model if model_text is None else None,
            self.reliability_model(),
            self.config["analysis"],  # type: ignore[arg-type]
            self.config["t_stop"],  # type: ignore[arg-type]
            self.config["dt"],  # type: ignore[arg-type]
            None,
            model_text=model_text,
        )

    def cache_key(self, fingerprint: Optional[str] = None) -> str:
        """Ledger cache key: fingerprint ⊕ everything else that shapes rows.

        The campaign fingerprint deliberately excludes classification
        thresholds (checkpointed raw outcomes stay valid across them), but
        the *rows* a client receives do depend on them — so the cache key
        folds in the classification config, the deployment set and the
        search target on top of the fingerprint.
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
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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
    #: produces and keys the job's
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
    #: A memo-hit job's raw body, parsed only if the job has to compute.
    body: Optional[bytes] = None
    #: sha256 of a parsed body: its keys are memoised under it once the
    #: worker has computed them.
    body_digest: str = ""
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
        worker *threads* draining the queue; each runs its campaign
        serially;
    checkpoint_dir:
        when set, every campaign checkpoints to
        ``<dir>/<fingerprint>.jsonl`` with ``resume=True`` — a job resubmitted
        after a crash (or a near-identical tenant model) skips completed
        injections;
    history:
        completed jobs kept in memory for ``GET /jobs`` (bounded).
    """

    def __init__(
        self,
        ledger,
        workers: int = 2,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        history: int = 256,
    ) -> None:
        from repro.obs.ledger import AnalysisLedger

        self.ledger = (
            ledger if isinstance(ledger, AnalysisLedger)
            else AnalysisLedger(ledger)
        )
        self.worker_count = max(1, int(workers))
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.history = max(8, int(history))
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._jobs: "OrderedDict[str, AnalysisJob]" = OrderedDict()
        self._lock = threading.Lock()
        #: Single-flight registry: cache key -> the job currently
        #: computing that key.  Later identical submissions attach to the
        #: leader instead of starting their own campaign.
        self._inflight: Dict[str, AnalysisJob] = {}
        self._inflight_lock = threading.Lock()
        #: One entry per model, by the digest of its canonical text, and
        #: the aliases that find it: a body's raw model text -> that
        #: digest.  Both are LRUs under one lock and one bound.  A body
        #: whose model member is an alias is not parsed there.
        self._model_cache: "OrderedDict[str, _CachedModel]" = OrderedDict()
        self._model_aliases: "OrderedDict[str, str]" = OrderedDict()
        self._model_cache_lock = threading.Lock()
        #: Request memo: body sha256 -> the keys that body computed.
        self._request_memo: "OrderedDict[str, _RequestKeys]" = OrderedDict()
        self._request_memo_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stopping = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "AnalysisService":
        if self._threads:
            return self
        self._stopping = False
        obs.gauge("service_workers").set(self.worker_count)
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
        self, request: Union[AnalysisRequest, Mapping[str, object], bytes]
    ) -> AnalysisJob:
        """Enqueue one analysis; returns the job record immediately.

        ``request`` may be the raw JSON body (what ``POST /jobs`` hands
        over).  A body whose sha256 is in the request memo becomes a job
        whose keys are already known: no parse, no fingerprint, no cache
        key.  Any other body, like a mapping, is parsed and validated here,
        so a malformed one raises :class:`ServiceError`; a body's model
        member whose text the service knows is not parsed (:meth:`_parse`).
        """
        keys = body = None
        digest = ""
        if isinstance(request, bytes):
            body = request
            digest = hashlib.sha256(body).hexdigest()
            keys = self._memo_lookup(digest)
            if keys is None:
                request = self._parse(body)
        elif not isinstance(request, AnalysisRequest):
            request = AnalysisRequest.from_payload(request)
        if self._stopping or not self._threads:
            raise ServiceError("service is not running; call start()")
        memo_hit = keys is not None
        if memo_hit:
            obs.counter("service_request_memo_hits").inc()
        else:
            assert isinstance(request, AnalysisRequest)
            keys = _RequestKeys(
                request.kind, request.system, request.tenant, "", ""
            )
        job = AnalysisJob(
            id=uuid.uuid4().hex[:12],
            **keys._asdict(),  # type: ignore[union-attr]
            submitted_at=time.time(),
            request=None if memo_hit else request,  # type: ignore[arg-type]
            body=body if memo_hit else None,
            body_digest="" if memo_hit else digest,
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

    def _memo_lookup(self, digest: str) -> Optional["_RequestKeys"]:
        with self._request_memo_lock:
            keys = self._request_memo.get(digest)
            if keys is not None:
                self._request_memo.move_to_end(digest)
            return keys

    def _memoise(self, job: AnalysisJob) -> None:
        """Remember the keys a parsed body computed, under its sha256."""
        keys = _RequestKeys(
            job.kind, job.system, job.tenant, job.fingerprint, job.cache_key
        )
        with self._request_memo_lock:
            self._request_memo[job.body_digest] = keys
            self._request_memo.move_to_end(job.body_digest)
            while len(self._request_memo) > _REQUEST_MEMO_SIZE:
                self._request_memo.popitem(last=False)

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
            "request_memo_entries": len(self._request_memo),
            "inflight": len(self._inflight),
            "coalesced_jobs": int(
                obs.counter("service_coalesced_jobs").value
            ),
            "job_wall_p50": round(wall.quantile(0.50), 6),
            "job_wall_p99": round(wall.quantile(0.99), 6),
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
        # The whole job — campaign, ledger append, every
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
            if not job.cache_key:  # a memo-hit job arrives keyed
                assert job.request is not None
                job.fingerprint, job.cache_key = self._content_keys(
                    job.request
                )
                if job.body_digest:
                    self._memoise(job)
            self._resolve(job)
            job.state = "done"
            obs.counter("service_jobs_completed").inc()
        except Exception as exc:  # noqa: BLE001 — a bad job must not kill a worker
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
            obs.counter("service_jobs_failed").inc()
        finally:
            job.finished_at = time.time()
            job.request = job.body = None  # free the (possibly large) payload
            wall = job.finished_at - job.submitted_at
            obs.histogram("service_job_wall_seconds").observe(wall)
            if job.cached:
                # Cache-hit latency on its own: a hit that took as long as
                # a compute means the ledger lookup degraded.
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
        The lookup is one index seek under the ledger's own lock, so it
        never stalls concurrent appends for a full-file parse.
        """
        entry = self.ledger.latest_by_cache_key(cache_key)
        return None if entry is None else _answer(entry, from_cache=True)

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

    def _resolve(self, job: AnalysisJob) -> None:
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
                    job.result = self._compute(self._request_of(job), job)
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

    def _request_of(self, job: AnalysisJob) -> AnalysisRequest:
        """The job's request; a memo-hit job that has to compute parses
        its kept body here (it parsed and validated once already)."""
        if job.request is None:
            assert job.body is not None
            job.request = self._parse(job.body)
            job.body = None
        return job.request

    def _parse(self, body: bytes) -> AnalysisRequest:
        """The request in ``body``, its model member left unparsed when its
        text is an alias (:meth:`AnalysisRequest.from_payload`).  Aliases
        exist only for models that were validated and whose build did not
        fail, and each is the whole text of a model object, as a parse
        reported it."""
        with self._model_cache_lock:
            known = {
                raw: self._model_cache[digest].system
                for raw, digest in self._model_aliases.items()
            }
        return AnalysisRequest.from_payload(body, known)

    def _content_keys(self, request: AnalysisRequest) -> Tuple[str, str]:
        """The request's fingerprint and cache key.  The fingerprint
        hashes the canonical text of the request's model entry."""
        fingerprint = request.fingerprint(self._model_entry(request).text)
        return fingerprint, request.cache_key(fingerprint)

    def _model_entry(self, request: AnalysisRequest) -> "_CachedModel":
        """The entry for the request's model: found by the body's raw
        model text when that text was seen, else found or made under the
        digest of the model's canonical text, serialised here
        (``canonical_json``, round-trip check included), with the raw text
        as its alias.  Workers racing on a new text may both serialise it;
        they get one entry.  A request built from a mapping has no raw
        text, so it serialises its model each time."""
        raw = request.model_text
        with self._model_cache_lock:
            entry = self._model_cache.get(self._model_aliases.get(raw, ""))
        if entry is None:
            from repro.safety.resilience import canonical_json

            text = canonical_json(request.model).encode("utf-8")
            entry = _CachedModel(
                text, hashlib.sha256(text).hexdigest(), request.system
            )
        with self._model_cache_lock:
            entry = self._model_cache.setdefault(entry.digest, entry)
            self._model_cache.move_to_end(entry.digest)
            if raw:
                self._model_aliases[raw] = entry.digest
                self._model_aliases.move_to_end(raw)
            while len(self._model_cache) > _MODEL_CACHE_SIZE:
                self._forget(self._model_cache.popitem(last=False)[0])
            while len(self._model_aliases) > _MODEL_CACHE_SIZE:
                self._model_aliases.popitem(last=False)
        return entry

    def _forget(self, digest: str) -> None:
        """Drop the aliases of the entry under ``digest`` (lock held)."""
        for raw in [r for r, d in self._model_aliases.items() if d == digest]:
            del self._model_aliases[raw]

    def _materialize_model(self, request: AnalysisRequest) -> "_CachedModel":
        """The request's model entry, built (:meth:`_CachedModel.build`);
        a job whose model another job built is a model cache hit.  An
        entry whose build raises is dropped with its aliases."""
        entry = self._model_entry(request)
        try:
            built = entry.build(request)
        except Exception:
            with self._model_cache_lock:
                if self._model_cache.get(entry.digest) is entry:
                    del self._model_cache[entry.digest]
                    self._forget(entry.digest)
            raise
        if not built:
            obs.counter("service_model_cache_hits").inc()
        return entry

    def _campaign(
        self,
        request: AnalysisRequest,
        model,
        fingerprint: str,
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
            base = self.ledger.latest_by_cache_key(
                request.fmea_cache_key(job.fingerprint)
            )
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
            campaign = self._campaign(request, model, job.fingerprint)
            primed = (
                cached.primed()
                if campaign.incremental and campaign.analysis == "dc"
                else None
            )
            fmea = campaign.run(
                fingerprint=job.fingerprint,
                conversion=cached.conversion,
                primed=primed,
            )
            digest = cached.ledger_digest
        config = {
            "analysis": request.config["analysis"],
            "t_stop": request.config["t_stop"],
            "dt": request.config["dt"],
            "threshold": request.config.get("threshold", 0.2),
        }

        if request.kind == "fmea":
            value = spfm(fmea, [])
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
        plan = search_for_target(fmea, catalogue, request.target_asil)
        if plan is None:
            # No deployment meets the target: a real answer, but not a
            # cacheable ledger entry (record_optimizer needs a plan).
            return {
                "plan": None,
                "target_asil": request.target_asil,
                "from_cache": False,
            }
        entry = record_optimizer(
            self.ledger, plan, system=fmea.system, model=model,
            reliability=reliability,
            # "strategy" is kept so every entry id stays the one
            # recorded before the DP became the only search.
            config={**config, "target": request.target_asil,
                    "strategy": "dp"},
            meta=meta, model_digest_value=digest,
        )
        return _answer(entry, from_cache=False)


class _RequestKeys(NamedTuple):
    """What a request memo entry keeps of a body: its job record's fields
    and content keys, not the (megabytes of) parsed request."""

    kind: str
    system: str
    tenant: str
    fingerprint: str
    cache_key: str


class _CachedModel:
    """The service's one entry for a model.

    Keying a job creates it with the model's canonical text ``text``
    (``canonical_json`` of the payload, UTF-8), that text's sha256
    ``digest``, its key, and the model's name ``system``.  The first job to
    compute fills in the rest from its own request's payload, once, under
    the entry's lock (:meth:`build`): the materialised model, its
    ``to_netlist`` conversion and its ledger ``model_digest``; the
    netlist's primed solver follows the first time a DC incremental
    campaign needs it (:meth:`primed`).  The entry keeps no payload: the
    job that keyed it may be a cache hit.

    Campaigns share the conversion and the primed system read-only: every
    fault is applied to a copy of the netlist (``Netlist.without`` /
    ``with_replacement``), and the columns a campaign solves for its own
    faults stay with that campaign.
    """

    __slots__ = (
        "text", "digest", "system", "model", "conversion", "ledger_digest",
        "_lock", "_primed",
    )

    def __init__(self, text: bytes, digest: str, system: str) -> None:
        self.text = text
        self.digest = digest
        self.system = system
        self.model = None
        self.conversion = None
        self.ledger_digest = ""
        self._lock = threading.Lock()
        self._primed = None

    def build(self, request: AnalysisRequest) -> bool:
        """Materialise ``request.model`` (this entry's model) unless built
        already; whether this call built it.  The model is read only when
        this call builds: a request whose model text was known parses it
        here, not when its entry was built already."""
        with self._lock:
            if self.conversion is not None:
                return False
            from repro.simulink import SimulinkModel, to_netlist

            payload = request.model
            model = SimulinkModel.from_dict(dict(payload))
            # ``from_dict`` keeps every leaf object the payload gives it
            # (names, types, ports, parameter values) and only adds keys:
            # library parameter defaults, a default ``name``, a
            # ``Subsystem``'s ``diagram``.  So when ``to_dict()`` equals
            # the payload, both hold the same leaves under the same keys
            # and serialise to the same canonical text, whose sha256 —
            # the ledger's ``model_digest`` — is this entry's digest.
            # Otherwise the ledger digests the text of ``to_dict()``.
            if model.to_dict() == payload:
                self.ledger_digest = self.digest
            else:
                from repro.obs import ledger

                self.ledger_digest = ledger.model_digest(model)
            self.conversion = to_netlist(model)
            self.model = model
            return True

    def primed(self):
        """The conversion's :class:`~repro.circuit.PrimedSystem`: index
        maps, constant matrix, factorization and baseline, shared by every
        DC incremental campaign of this model.  Call after :meth:`build`.
        A priming that raises is not kept; the next job tries again."""
        with self._lock:
            if self._primed is None:
                from repro.circuit import PrimedSystem

                assert self.conversion is not None
                self._primed = PrimedSystem(self.conversion.netlist)
            return self._primed


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
