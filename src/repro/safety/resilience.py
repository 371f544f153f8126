"""Fault-tolerance primitives for injection campaigns.

The paper's methodology is *iterative*: FME(D)A campaigns re-run on every
design change, so a single pathological injection (singular matrix,
diverging Newton loop, dying pool worker) must not cost the whole run.
This module provides the building blocks the campaign engine composes:

- :class:`JobFailure` — the structured record a job that raises leaves
  behind instead of aborting the campaign;
- :class:`RetryPolicy` — bounded retry with exponential backoff for
  transient failures (broken process pools, LU numerical rejections);
- :func:`job_deadline` — a per-job wall-clock timeout for runaway solves
  (SIGALRM-based; degrades to a no-op off the main thread or on platforms
  without ``setitimer``);
- :class:`CampaignCheckpoint` — append-only JSONL persistence of completed
  job outcomes keyed by a campaign fingerprint, so ``resume`` skips
  finished jobs after a crash — and lets later DECISIVE iterations reuse
  prior results while the model is unchanged;
- :func:`campaign_fingerprint` — a content hash over everything that
  determines job *outcomes* (model, reliability data, analysis mode,
  behaviour overrides).  Classification knobs (threshold, sensor choice)
  are deliberately excluded: outcomes are raw sensor readings, so a resumed
  campaign may re-classify them under new thresholds for free.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs

#: Exception types worth retrying: they can be caused by transient
#: numerical state (warm-start residue in a shared compiled system) or by
#: infrastructure, not by the injected fault itself.
TRANSIENT_ERRORS: Tuple[type, ...] = (np.linalg.LinAlgError, MemoryError)


class JobTimeoutError(Exception):
    """A job exceeded its wall-clock budget (runaway transient solve)."""


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one injection job that could not produce a
    result — the row-level alternative to aborting the campaign.

    ``kind`` is ``exception`` (the job raised), ``timeout`` (it exceeded
    the per-job wall-clock budget) or ``worker_lost`` (its pool worker
    died repeatedly and the job was bisected out).
    """

    index: int
    component: str
    failure_mode: str
    exception: str  # exception class name
    message: str
    kind: str = "exception"
    retries: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobFailure":
        return cls(
            index=int(data["index"]),
            component=str(data["component"]),
            failure_mode=str(data["failure_mode"]),
            exception=str(data["exception"]),
            message=str(data["message"]),
            kind=str(data.get("kind", "exception")),
            retries=int(data.get("retries", 0)),
        )

    @classmethod
    def from_exception(
        cls, job, exc: BaseException, kind: str = "exception", retries: int = 0
    ) -> "JobFailure":
        obs.emit_event(
            "injection_job_failed", level="error",
            job=job.index, component=job.component, kind=kind,
            error=type(exc).__name__, retries=retries,
        )
        return cls(
            index=job.index,
            component=job.component,
            failure_mode=job.failure_mode,
            exception=type(exc).__name__,
            message=str(exc),
            kind=kind,
            retries=retries,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``delay(attempt)`` is the sleep before retry ``attempt`` (1-based):
    ``backoff``, ``2*backoff``, ``4*backoff``, … capped at ``max_delay``.
    """

    max_retries: int = 2
    backoff: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    def delay(self, attempt: int) -> float:
        return min(self.backoff * (2 ** max(0, attempt - 1)), self.max_delay)


@contextmanager
def job_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeoutError` if the block runs past ``seconds``.

    Uses ``SIGALRM`` + ``setitimer``, so it is only armed on the main
    thread of a process (true for serial campaigns and for pool workers,
    whose chunks execute on the worker's main thread); anywhere else it is
    a no-op rather than a wrong answer.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise JobTimeoutError(f"job exceeded {seconds:g}s wall clock")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- checkpoint / resume -----------------------------------------------------


def _canonical(value: object) -> object:
    """JSON-stable view of fingerprint inputs (sorted, primitive types).

    This is the definition of the canonical form; :func:`canonical_json`
    only skips the walk when the result is provably the same.
    """
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


_SEPARATORS = (",", ":")


def canonical_json(value: object) -> str:
    """``json.dumps(_canonical(value), sort_keys=True)`` in compact form,
    without the Python-level walk whenever that walk changes nothing.

    The walk only matters for values that are not already plain JSON:
    non-``str`` keys (stringified and sorted by their string), tuples,
    non-``dict`` mappings and arbitrary objects (``repr``).  So the value is
    serialised directly first, and that text is used only when parsing it
    back gives an equal value — which fails for every one of those cases
    (an ``int`` key comes back as ``str``, a tuple as a list, ``NaN`` is
    unequal to itself) or raises ``TypeError`` before the check.  The one
    input the check cannot see is a ``str`` subclass used as a key whose
    ``__str__`` differs from its value; no model payload has one.  A JSON
    payload of a few MB then costs one C-level dump and one parse instead
    of a recursive copy.
    """
    try:
        blob = json.dumps(value, sort_keys=True, separators=_SEPARATORS)
    except (TypeError, ValueError):
        blob = None
    if blob is not None and json.loads(blob) == value:
        return blob
    return json.dumps(_canonical(value), sort_keys=True, separators=_SEPARATORS)


def campaign_fingerprint(
    model,
    reliability,
    analysis: str,
    t_stop: float,
    dt: float,
    behavior_overrides: Optional[Mapping] = None,
) -> str:
    """Content hash of everything that determines job *outcomes*.

    Two campaigns with equal fingerprints enumerate the same jobs and
    solve the same circuits, so their checkpointed outcomes are mutually
    valid — whatever the execution strategy, worker count or
    classification thresholds.

    ``model`` is a design model (anything with ``to_dict()``) or that
    payload dict itself, which is how the analysis service hashes a request
    without materialising the model.
    """
    payload = {
        "model": model if isinstance(model, Mapping) else model.to_dict(),
        "reliability": [
            {
                "class": entry.component_class,
                "fit": entry.fit,
                # Lists, not tuples: the same JSON, and it keeps the whole
                # payload on canonical_json's fast path.
                "modes": [
                    [m.name, m.distribution, m.nature]
                    for m in entry.failure_modes
                ],
            }
            for entry in sorted(
                reliability.entries(), key=lambda e: e.component_class
            )
        ],
        "analysis": analysis,
        "t_stop": t_stop,
        "dt": dt,
        "overrides": _canonical(behavior_overrides or {}),
    }
    blob = canonical_json(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Checkpointed job outcome: ('ok', readings) or ('error', message).
#: Harness failures ('failed', …) are deliberately *not* persisted — a
#: resumed campaign retries them, which is the point of resuming.
_PERSISTABLE_KINDS = ("ok", "error")


class CheckpointError(Exception):
    """Raised when a checkpoint file cannot be written."""


class CampaignCheckpoint:
    """Append-only JSONL store of completed job outcomes.

    Each line is ``{"v": 1, "fp": <fingerprint>, "index": i, "component":
    ..., "failure_mode": ..., "outcome": [kind, payload]}``.  Loading
    tolerates corrupt or truncated lines (a crash mid-write must not
    poison the next resume) and ignores lines from other fingerprints, so
    one file can accumulate several campaign generations.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: str,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._pending: list = []
        self._seen: set = set()
        if not resume and self.path.exists():
            self.path.unlink()
        if resume and self.path.exists():
            for index in self._iter_lines():
                self._seen.add(index[0])

    # -- reading ----------------------------------------------------------

    def _iter_lines(self):
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, TypeError):
                    continue  # truncated/corrupt line: skip, don't abort
                if (
                    not isinstance(record, dict)
                    or record.get("fp") != self.fingerprint
                    or record.get("outcome") is None
                ):
                    continue
                try:
                    index = int(record["index"])
                    kind, payload = record["outcome"]
                except (KeyError, TypeError, ValueError):
                    continue
                if kind not in _PERSISTABLE_KINDS:
                    continue
                yield index, kind, payload, record

    def load(self) -> Dict[int, Tuple[str, object]]:
        """Completed outcomes recorded under this campaign's fingerprint.

        Later lines win (a job recorded twice keeps its latest outcome).
        """
        if not self.path.exists():
            return {}
        outcomes: Dict[int, Tuple[str, object]] = {}
        self._meta: Dict[int, Tuple[str, str]] = {}
        for index, kind, payload, record in self._iter_lines():
            if kind == "ok" and isinstance(payload, dict):
                payload = {str(k): float(v) for k, v in payload.items()}
            outcomes[index] = (kind, payload)
            self._meta[index] = (
                str(record.get("component", "")),
                str(record.get("failure_mode", "")),
            )
            self._seen.add(index)
        return outcomes

    def job_matches(self, job) -> bool:
        """Does a loaded outcome's identity match this enumerated job?

        Guards against index reuse across incompatible enumerations (the
        fingerprint already makes this near-impossible; the identity check
        makes it impossible).
        """
        meta = getattr(self, "_meta", {}).get(job.index)
        if meta is None:
            return False
        return meta == (job.component, job.failure_mode)

    # -- writing ----------------------------------------------------------

    def record(self, job, outcome: Tuple[str, object]) -> None:
        """Queue one completed outcome for the next :meth:`flush`."""
        kind = outcome[0]
        if kind not in _PERSISTABLE_KINDS or job.index in self._seen:
            return
        self._seen.add(job.index)
        self._pending.append(
            {
                "v": 1,
                "fp": self.fingerprint,
                "index": job.index,
                "component": job.component,
                "failure_mode": job.failure_mode,
                "outcome": [kind, outcome[1]],
            }
        )

    def flush(self) -> int:
        """Append queued records to disk; returns how many were written."""
        if not self._pending:
            return 0
        lines = [
            json.dumps(record, sort_keys=True) for record in self._pending
        ]
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise CheckpointError(
                f"cannot write campaign checkpoint {self.path}: {exc}"
            ) from exc
        written = len(self._pending)
        self._pending = []
        obs.emit_event(
            "checkpoint_written",
            level="debug",
            path=str(self.path),
            written=written,
            recorded=len(self._seen),
        )
        return written
