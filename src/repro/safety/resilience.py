"""Fault-tolerance primitives for injection campaigns.

The paper's methodology is *iterative*: FME(D)A campaigns re-run on every
design change, so a single pathological injection (singular matrix,
diverging Newton loop, runaway solve) must not cost the whole run.
Every job is deterministic and bounded (a capped Newton loop, a few
refinements, then a full rebuild), so a job runs once: rerunning one that
raised could only repeat the error.
This module provides the building blocks the campaign engine composes:

- :class:`JobFailure` — the structured record a job that raises leaves
  behind instead of aborting the campaign;
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro import obs


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one injection job that raised — the row-level
    alternative to aborting the campaign.

    Failures are never checkpointed, so a resumed campaign re-runs the
    job, whatever an older version recorded for it (such as a
    ``worker_lost`` failure from the deleted process pool).
    """

    index: int
    component: str
    failure_mode: str
    exception: str  # exception class name
    message: str

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
        )

    @classmethod
    def from_exception(cls, job, exc: BaseException) -> "JobFailure":
        obs.emit_event(
            "injection_job_failed", level="error",
            job=job.index, component=job.component,
            error=type(exc).__name__,
        )
        return cls(
            index=job.index,
            component=job.component,
            failure_mode=job.failure_mode,
            exception=type(exc).__name__,
            message=str(exc),
        )


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
    model_text: Optional[bytes] = None,
) -> str:
    """Content hash of everything that determines job *outcomes*.

    Two campaigns with equal fingerprints enumerate the same jobs and
    solve the same circuits, so their checkpointed outcomes are mutually
    valid — whatever the execution strategy, worker count or
    classification thresholds.

    ``model`` is a design model (anything with ``to_dict()``) or that
    payload dict itself, which is how the analysis service hashes a request
    without materialising the model.  ``model_text`` is
    ``canonical_json`` of that payload, UTF-8 encoded, when the caller
    already has it (the service keeps one per model); the model is then
    not serialised again.

    The hashed text is ``canonical_json`` of the whole input object.  Its
    keys sort as ``analysis``, ``dt``, ``model``, ``overrides``,
    ``reliability``, ``t_stop``, and the canonical text of an object is
    its members' canonical texts in that order, so the hash runs over the
    head object's text, then the model's, then the tail object's — the
    same bytes, without building them as one string.
    """
    if model_text is None:
        payload = model if isinstance(model, Mapping) else model.to_dict()
        model_text = canonical_json(payload).encode("utf-8")
    head = canonical_json({"analysis": analysis, "dt": dt})
    tail = canonical_json({
        "overrides": _canonical(behavior_overrides or {}),
        "reliability": [
            {
                "class": entry.component_class,
                "fit": entry.fit,
                # Lists, not tuples: the same JSON, and it keeps the tail
                # on canonical_json's fast path.
                "modes": [
                    [m.name, m.distribution, m.nature]
                    for m in entry.failure_modes
                ],
            }
            for entry in sorted(
                reliability.entries(), key=lambda e: e.component_class
            )
        ],
        "t_stop": t_stop,
    })
    digest = hashlib.sha256(head[:-1].encode("utf-8") + b',"model":')
    digest.update(model_text)
    digest.update(b"," + tail[1:].encode("utf-8"))
    return digest.hexdigest()


#: Checkpointed job outcome: ('ok', readings) or ('error', message).
#: Harness failures ('failed', …) are deliberately *not* persisted — a
#: resumed campaign re-runs them, which is the point of resuming.
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
