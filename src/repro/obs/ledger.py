"""The analysis ledger — append-only provenance for every safety analysis.

The paper's end state (§8) has FMEDA results serving as assurance-case
evidence with machine-executable queries *re-evaluated on change*.  That
requires knowing, for every analysis result, exactly which model and
configuration produced it, whether it is stale, and what changed between
iterations.  This module supplies the storage half of that story:

- :class:`LedgerEntry` — one provenance record: kind of analysis, content
  digests of the model and reliability data, the campaign fingerprint
  (reused from :func:`repro.safety.resilience.campaign_fingerprint`), the
  analysis configuration, per-row outcome digests, the SPFM/ASIL verdict, a
  snapshot of key execution metrics, the repo's ``git describe``, and a
  pointer into the trace file when ``--trace`` was on;
- :class:`AnalysisLedger` — an append-only JSONL store of entries, tolerant
  of corrupt lines (a crash mid-write must not poison history), with
  reference resolution (entry id, unique id prefix, ``@N`` sequence,
  negative indices) and artifact attachment records that link an entry to
  the workbook exported from it;
- :class:`LedgerIndex` — the in-memory index of byte offsets keyed by
  entry id, ``meta.service_cache_key`` and ``(kind, system)`` that every
  read goes through, extended incrementally on every write and cached in
  a sidecar file (``<ledger>.idx``) validated against a (size,
  line-count, tail-digest) stamp on load — so lookups seek straight to
  the lines they need instead of re-parsing the whole history, and the
  cost of a cache hit stays O(1) as the ledger grows;
- ``record_fmea`` / ``record_fmeda`` / ``record_optimizer`` /
  ``record_iteration`` — builders that derive an entry from an analysis
  result plus its inputs.

Entries are deterministic modulo timestamps: the :attr:`~LedgerEntry.
content_digest` covers only what the analysis *computed* (digests, config,
verdicts, per-row outcomes), never when or how fast it ran, so re-running
the same model + config appends an entry with an identical digest and
``repro diff`` between the two reports no changes.

Every ``append`` emits a zero-duration ``ledger.record`` span carrying the
entry id (when observability is enabled), and the entry stores the id of
the span that was current at record time — a trace file and its ledger
entry are mutually resolvable.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs

#: Ledger line schema version.
_VERSION = 1

#: Float fields of entries and rows are digested after rounding to this
#: many decimal places (``round(x, 9)``), so a verdict re-derived through a
#: different (but numerically equivalent) code path cannot flip the content
#: digest on noise.  Places, not significant digits: any magnitude below
#: 5e-10 digests as 0.0, which is why :func:`model_digest` does not round.
_DIGEST_DECIMALS = 9


class LedgerError(Exception):
    """Raised for unreadable ledgers or unresolvable entry references."""


def _canonical(value: object) -> object:
    """JSON-stable view of digest inputs (sorted keys, primitive types)."""
    if isinstance(value, Mapping):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return round(value, _DIGEST_DECIMALS)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def content_digest_of(payload: object) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    blob = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def model_digest(model: object) -> str:
    """Content hash of a design model, or ``""`` when not serialisable.

    Accepts anything with a ``to_dict`` method (:class:`SimulinkModel`,
    :class:`SSAMModel`) and falls back to the metamodel serializer for raw
    SSAM elements — the same notion of identity the DECISIVE loop uses for
    its FMEA cache.

    The hash is the sha256 of the payload's unrounded canonical text
    (``canonical_json``, which the campaign fingerprint hashes too): a
    model parameter such as a diode's 1e-12 A saturation current is
    part of the model, and rounding it to 9 decimal places would digest
    it as 0.
    """
    if model is None:
        return ""
    payload = None
    to_dict = getattr(model, "to_dict", None)
    if callable(to_dict):
        try:
            payload = to_dict()
        except Exception:  # noqa: BLE001 — digesting must never abort a run
            payload = None
    if payload is None:
        try:
            from repro.metamodel import MetamodelError, ModelResource

            payload = ModelResource().to_dict(model)
        except Exception:  # noqa: BLE001
            return ""
    from repro.safety.resilience import canonical_json

    try:
        blob = canonical_json(payload)
    except (TypeError, ValueError):
        return ""
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reliability_digest(reliability: object) -> str:
    """Content hash of a reliability model's entries, or ``""``."""
    if reliability is None:
        return ""
    try:
        payload = [
            {
                "class": entry.component_class,
                "fit": entry.fit,
                "modes": [
                    (m.name, m.distribution, m.nature)
                    for m in entry.failure_modes
                ],
            }
            for entry in sorted(
                reliability.entries(), key=lambda e: e.component_class
            )
        ]
    except Exception:  # noqa: BLE001
        return ""
    return content_digest_of(payload)


_GIT_DESCRIBE: Optional[str] = None


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree (cached)."""
    global _GIT_DESCRIBE
    if _GIT_DESCRIBE is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True,
                text=True,
                timeout=5,
            )
            _GIT_DESCRIBE = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            _GIT_DESCRIBE = ""
    return _GIT_DESCRIBE


# -- entries -----------------------------------------------------------------


@dataclass
class LedgerEntry:
    """One provenance record: what produced an analysis result, and what
    the result was.  ``metrics``, ``timestamp``, ``git``, ``trace`` and
    ``artifacts`` are execution circumstances and deliberately excluded
    from the content digest."""

    kind: str  # 'fmea' | 'fmeda' | 'optimizer' | 'decisive-iteration' | ...
    system: str
    spfm: Optional[float] = None
    asil: Optional[str] = None
    model_digest: str = ""
    reliability_digest: str = ""
    fingerprint: str = ""  # campaign fingerprint ('' for graph analyses)
    config: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    row_digests: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    git: str = ""
    timestamp: float = 0.0
    trace: str = ""
    trace_span: Optional[int] = None
    artifacts: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    #: Position in the ledger file; assigned on append/read, not digested.
    seq: int = -1
    #: The content digest as recorded: fixed by the ledger when it appends
    #: or reads the entry, ``None`` before (then derived on every use).
    _digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def content_digest(self) -> str:
        """Digest over everything the analysis *determined* (not timing).

        An entry the ledger appended or read returns the digest it was
        recorded under, so one entry is digested once however many keys
        and ids are read off it."""
        if self._digest is not None:
            return self._digest
        return content_digest_of(
            {
                "kind": self.kind,
                "system": self.system,
                "spfm": self.spfm,
                "asil": self.asil,
                "model": self.model_digest,
                "reliability": self.reliability_digest,
                "fingerprint": self.fingerprint,
                "config": self.config,
                "row_digests": self.row_digests,
            }
        )

    @property
    def entry_id(self) -> str:
        return f"{self.kind}-{self.content_digest[:12]}"

    def to_dict(self) -> Dict[str, object]:
        """The ledger line's payload.  It shares the entry's lists and
        dicts (a line is dumped, not edited)."""
        payload: Dict[str, object] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in ("seq", "_digest")
        }
        payload["v"] = _VERSION
        payload["type"] = "entry"
        payload["id"] = self.entry_id
        payload["digest"] = self.content_digest
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object], seq: int = -1) -> "LedgerEntry":
        fields = {
            key: data[key]
            for key in (
                "kind", "system", "spfm", "asil", "model_digest",
                "reliability_digest", "fingerprint", "config", "rows",
                "row_digests", "metrics", "git", "timestamp", "trace",
                "trace_span", "artifacts", "meta",
            )
            if key in data
        }
        entry = cls(**fields)  # type: ignore[arg-type]
        entry.seq = seq
        return entry


def _row_digests(rows: Sequence[Mapping[str, object]]) -> Dict[str, str]:
    """``component/failure_mode`` -> short digest of the row's outcome."""
    digests: Dict[str, str] = {}
    for row in rows:
        key = f"{row.get('component')}/{row.get('failure_mode')}"
        digests[key] = content_digest_of(row)[:12]
    return digests


def fmea_rows_payload(result) -> List[Dict[str, object]]:
    """Compact, diffable row records for an :class:`FmeaResult`."""
    return [
        {
            "component": row.component,
            "component_class": row.component_class,
            "failure_mode": row.failure_mode,
            "fit": row.fit,
            "distribution": row.distribution,
            "safety_related": row.safety_related,
            "impact": row.impact,
            "effect": row.effect,
            "warning": row.warning,
        }
        for row in result.rows
    ]


def fmeda_rows_payload(result) -> List[Dict[str, object]]:
    """Compact, diffable row records for an :class:`FmedaResult`."""
    return [
        {
            "component": row.component,
            "failure_mode": row.failure_mode,
            "fit": row.fit,
            "distribution": row.distribution,
            "safety_related": row.safety_related,
            "safety_mechanism": row.safety_mechanism,
            "sm_coverage": row.sm_coverage,
            "residual_rate": row.residual_rate,
        }
        for row in result.rows
    ]


def _stats_metrics(result) -> Dict[str, object]:
    """Key execution-metric snapshot off ``result.stats`` (may be empty)."""
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    out: Dict[str, object] = {}
    for name in (
        "wall_time", "baseline_time", "jobs", "rows", "solves",
        "job_failures", "resumed_jobs", "solver_backend", "batched_columns",
    ):
        value = getattr(stats, name, None)
        if value is not None:
            out[name] = value
    return out


# -- the index ---------------------------------------------------------------


#: Short digest of a ledger line's raw bytes, stamped on its index record.
def _line_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:12]


#: Keys a sidecar record of each line type must carry to be adopted.
_RECORD_KEYS = {
    "x": frozenset(("o", "n", "z", "d")),
    "e": frozenset(("o", "n", "z", "d", "id", "g", "k", "s", "q")),
    "a": frozenset(("o", "n", "z", "d", "tq", "p")),
}


class _StaleLine(Exception):
    """A seek found other bytes than the index recorded for that line."""


class LedgerIndex:
    """In-memory byte-offset index over a ledger file, cached in
    ``<ledger>.idx``.

    The index holds one compact record per ledger line, carrying the
    line's byte offset and length plus the keys lookups need — entry id,
    content digest, kind, system and ``meta.service_cache_key`` — so
    ``entries(kind=...)``, ``latest()``, ``resolve()``, cache-key lookups
    and artifact folding seek straight to the lines that matter instead
    of re-parsing the whole history.  Artifact records are resolved to
    their target entry *at index time* (the latest entry with that id so
    far), so folding costs no file reads at all.

    Building the index from the file (:meth:`_rebuild`) is the only way
    the ledger is ever parsed as a whole; the sidecar persists the result
    so the next open can skip that parse.  Every record doubles as a
    stamp: it stores the ledger size after its line (``z``) and a digest
    of the line's bytes (``d``); the line count is the record count.  On
    load the last record's stamp is checked against the ledger file —
    size shrunk or tail bytes changed means the ledger was rewritten and
    the index **rebuilds** from scratch; size grown means another process
    appended and the index **extends** incrementally, parsing only the
    new tail.  A corrupt or truncated sidecar also rebuilds, and a
    sidecar that cannot be written is skipped (``persisted`` turns
    false): the in-memory index serves the handle and the next open
    rebuilds.

    Record keys (kept one or two characters to bound sidecar growth):
    ``o`` offset, ``n`` length, ``t`` line type (``e`` entry / ``a``
    artifact / ``x`` junk), ``z``/``d``/``u`` the stamp (size after,
    line digest, unterminated-tail flag), and for entries ``id``, ``g``
    (content digest), ``k`` (kind), ``s`` (system), ``c`` (service cache
    key), ``q`` (entry sequence number); for artifacts ``tq`` (resolved
    target entry sequence), ``p`` (path), ``ak`` (artifact kind).
    """

    def __init__(self, ledger_path: Union[str, Path]) -> None:
        self.ledger_path = Path(ledger_path)
        self.sidecar = Path(str(ledger_path) + ".idx")
        self.loaded = False
        #: False once a sidecar write failed; later appends skip the
        #: sidecar until a rebuild manages to rewrite it.
        self.persisted = True
        #: Sidecar size as of our last write/load; -1 = unknown.  Appends
        #: land only when the file is where we left it — another writer
        #: moving it triggers an atomic full rewrite instead, so two
        #: ledger handles over one file never interleave duplicates.
        self._sidecar_bytes = -1
        self._clear()

    # -- in-memory state ---------------------------------------------------

    def _clear(self) -> None:
        #: One record per ledger line, in file order.
        self.records: List[Dict[str, object]] = []
        #: Entry records only; position == entry sequence number.
        self.entries: List[Dict[str, object]] = []
        self.by_id: Dict[str, List[int]] = {}
        self.by_cache_key: Dict[str, List[int]] = {}
        self.by_kind: Dict[str, List[int]] = {}
        self.by_system: Dict[str, List[int]] = {}
        self.by_kind_system: Dict[Tuple[str, str], List[int]] = {}
        #: entry seq -> artifact paths folded into it, in file order.
        self.artifacts_by_seq: Dict[int, List[str]] = {}
        #: Ledger bytes covered by the index.
        self.size = 0
        #: The last indexed line had no trailing newline (interrupted
        #: write): its length may still grow, so any ledger growth forces
        #: a rebuild instead of an extend.
        self.tail_open = False

    def _register(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        kind = record["t"]
        if kind == "e":
            seq = int(record["q"])  # type: ignore[arg-type]
            self.entries.append(record)
            self.by_id.setdefault(str(record["id"]), []).append(seq)
            cache_key = record.get("c")
            if cache_key:
                self.by_cache_key.setdefault(str(cache_key), []).append(seq)
            self.by_kind.setdefault(str(record["k"]), []).append(seq)
            self.by_system.setdefault(str(record["s"]), []).append(seq)
            self.by_kind_system.setdefault(
                (str(record["k"]), str(record["s"])), []
            ).append(seq)
        elif kind == "a":
            self.artifacts_by_seq.setdefault(
                int(record["tq"]), []  # type: ignore[arg-type]
            ).append(str(record["p"]))

    # -- classification ----------------------------------------------------

    def _index_line(
        self,
        raw: bytes,
        offset: int,
        payload: Optional[Mapping[str, object]] = None,
        entry: Optional["LedgerEntry"] = None,
    ) -> Dict[str, object]:
        """The index record for one raw ledger line.

        An entry line must parse, be ``type == "entry"`` with a ``kind``,
        and round-trip through :meth:`LedgerEntry.from_dict`; an artifact
        line must name an entry indexed before it and a path — anything
        else is junk (``x``) and only its offsets are kept.  The content
        digest is *recomputed* from the payload (never trusted from the
        line), so a hand-written line cannot claim another entry's id.
        Only a line this process just wrote comes with its ``entry``,
        whose digest the line was written from.
        """
        record: Dict[str, object] = {
            "o": offset,
            "n": len(raw),
            "t": "x",
            "z": offset + len(raw),
            "d": _line_digest(raw),
        }
        if not raw.endswith(b"\n"):
            record["u"] = 1
        if payload is None:
            try:
                decoded = json.loads(raw.decode("utf-8").strip() or "null")
            except (ValueError, UnicodeDecodeError):
                decoded = None
            payload = decoded if isinstance(decoded, dict) else None
        if payload is None:
            return record
        if payload.get("type") == "entry" and "kind" in payload:
            if entry is None:
                try:
                    entry = LedgerEntry.from_dict(payload)
                except (TypeError, ValueError, KeyError):
                    return record
            record.update(
                t="e",
                id=entry.entry_id,
                g=entry.content_digest,
                k=entry.kind,
                s=entry.system,
                q=len(self.entries),
            )
            meta = payload.get("meta")
            cache_key = (
                meta.get("service_cache_key")
                if isinstance(meta, Mapping)
                else None
            )
            if isinstance(cache_key, str) and cache_key:
                record["c"] = cache_key
        elif payload.get("type") == "artifact" and payload.get("path"):
            targets = self.by_id.get(str(payload.get("entry")), [])
            if targets:
                record.update(t="a", tq=targets[-1], p=str(payload["path"]))
                if payload.get("kind"):
                    record["ak"] = str(payload["kind"])
        return record

    # -- persistence -------------------------------------------------------

    def _ledger_size(self) -> int:
        try:
            return self.ledger_path.stat().st_size
        except OSError:
            return 0

    def _persist_append(self, records: Sequence[Mapping[str, object]]) -> None:
        if not records or not self.persisted:
            return
        try:
            actual = self.sidecar.stat().st_size
        except OSError:
            actual = 0
        if actual != self._sidecar_bytes:
            # Another handle wrote the sidecar since we last did; our
            # in-memory state (which already includes ``records``) is the
            # freshest view — replace the file wholesale, atomically.
            self._rewrite_sidecar()
            return
        blob = b"".join(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            for record in records
        )
        try:
            with open(self.sidecar, "ab") as handle:
                handle.write(blob)
        except OSError:
            self.persisted = False
            return
        self._sidecar_bytes += len(blob)

    def _rewrite_sidecar(self) -> None:
        """Replace the sidecar atomically, or skip it when it cannot be
        written (a read-only directory, a directory at its path)."""
        tmp = self.sidecar.with_name(self.sidecar.name + ".tmp")
        blob = b"".join(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            for record in self.records
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self.sidecar)
        except OSError:
            self.persisted = False
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.persisted = True
        self._sidecar_bytes = len(blob)

    def _load_sidecar(self) -> bool:
        """Adopt the on-disk sidecar if its stamp matches the ledger."""
        self._clear()
        if not self.sidecar.exists():
            return self._ledger_size() == 0
        try:
            data = self.sidecar.read_bytes()
            records = [
                json.loads(line) for line in data.decode("utf-8").splitlines()
            ]
            size = self._ledger_size()
            if not records:
                return size == 0
            last = records[-1]
            end = int(last["z"])
            if end > size:
                return False  # ledger truncated or rewritten shorter
            with open(self.ledger_path, "rb") as handle:
                handle.seek(int(last["o"]))
                raw = handle.read(int(last["n"]))
            if _line_digest(raw) != last["d"]:
                return False  # tail rewritten in place
            for record in records:
                if not _RECORD_KEYS[record["t"]] <= record.keys() or (
                    record["t"] == "e" and record["q"] != len(self.entries)
                ):
                    raise ValueError("malformed or misnumbered record")
                self._register(record)
        except (OSError, ValueError, KeyError, TypeError):
            self._clear()
            return False
        self.size = end
        self.tail_open = bool(last.get("u"))
        self._sidecar_bytes = len(data)
        if size > end:
            if self.tail_open:
                self._clear()
                return False  # the open tail line may have grown: reparse
            self._extend()
        return True

    def _parse_region(self, start: int) -> List[Dict[str, object]]:
        """Index every ledger line from byte ``start`` to EOF."""
        records: List[Dict[str, object]] = []
        with open(self.ledger_path, "rb") as handle:
            handle.seek(start)
            offset = start
            for raw in iter(handle.readline, b""):
                record = self._index_line(raw, offset)
                self._register(record)
                records.append(record)
                offset += len(raw)
        self.size = offset if records else start
        self.tail_open = bool(records and records[-1].get("u"))
        return records

    def _extend(self) -> None:
        """Catch up with lines another writer appended past our stamp.

        The last indexed line is re-digested first: growth caused by a
        rewrite rather than an append fails the stamp and rebuilds."""
        if self.records:
            last = self.records[-1]
            with open(self.ledger_path, "rb") as handle:
                handle.seek(int(last["o"]))  # type: ignore[arg-type]
                raw = handle.read(int(last["n"]))  # type: ignore[arg-type]
            if _line_digest(raw) != last["d"]:
                self._rebuild()
                return
        added = self._parse_region(self.size)
        self._persist_append(added)
        obs.counter("ledger_index_extensions").inc()

    def _rebuild(self) -> None:
        """Re-derive the whole index from the ledger file."""
        self._clear()
        if self.ledger_path.exists():
            self._parse_region(0)
        self._rewrite_sidecar()
        obs.counter("ledger_index_rebuilds").inc()

    # -- the sync protocol -------------------------------------------------

    def sync(self) -> "LedgerIndex":
        """Make the in-memory index current; the caller holds the lock.

        First use loads the sidecar (or rebuilds it); afterwards a single
        ``stat`` validates per call — same size means nothing to do, grown
        means an incremental extend, shrunk (or growth past an
        unterminated tail line) means a rebuild.
        """
        if not self.loaded:
            self.loaded = True
            if not self._load_sidecar():
                self._rebuild()
            return self
        size = self._ledger_size()
        if size == self.size:
            return self
        if size < self.size or self.tail_open:
            self._rebuild()
        else:
            self._extend()
        return self

    def note_line(
        self,
        raw: bytes,
        offset: int,
        payload: Mapping[str, object],
        entry: Optional["LedgerEntry"] = None,
    ) -> None:
        """Index one line this process just appended (no re-parse); an
        entry line comes with the entry it was written from."""
        record = self._index_line(raw, offset, payload=payload, entry=entry)
        self._register(record)
        self._persist_append([record])
        self.size = offset + len(raw)
        self.tail_open = False

    def status(self) -> Dict[str, object]:
        return {
            "sidecar": str(self.sidecar),
            "persisted": self.persisted,
            "lines": len(self.records),
            "entries": len(self.entries),
            "artifacts": sum(
                len(paths) for paths in self.artifacts_by_seq.values()
            ),
            "cache_keys": len(self.by_cache_key),
            "bytes_covered": self.size,
            "tail_open": self.tail_open,
        }


# -- the ledger --------------------------------------------------------------


class AnalysisLedger:
    """Append-only JSONL store of :class:`LedgerEntry` records.

    Two line types share the file: ``{"type": "entry", ...}`` (a full
    provenance record) and ``{"type": "artifact", "entry": <id>, "path":
    ...}`` (appended when a workbook is exported from an already-recorded
    result — the append-only discipline means entries are never rewritten).
    Loading tolerates corrupt or truncated lines.

    Every read goes through the :class:`LedgerIndex`, making ``latest()``,
    ``resolve()``, ``latest_by_cache_key()`` and filtered ``entries()``
    O(1) in history size (one dict lookup + one line seek).  A seek that
    finds other bytes than the index recorded — the file was rewritten
    under this handle at the same size — forces one rebuild and a retry;
    a second mismatch, or a ledger that cannot be read at all, raises
    :class:`LedgerError`.  All mutation and index access is serialised by
    an internal lock, so concurrent appends and lookups from service
    worker threads are safe.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._index = LedgerIndex(self.path)
        self._lock = threading.RLock()

    # -- index plumbing ----------------------------------------------------

    def _synced(self, rebuild: bool = False) -> LedgerIndex:
        """The index, made current with the file (or rebuilt from it);
        the caller holds the lock."""
        try:
            if rebuild:
                self._index._rebuild()
                self._index.loaded = True
            return self._index.sync()
        except OSError as exc:
            raise LedgerError(
                f"cannot read analysis ledger {self.path}: {exc}"
            ) from exc

    def _materialize(
        self, index: LedgerIndex, seq: int, handle
    ) -> LedgerEntry:
        """Parse the single ledger line behind entry ``seq`` and fold its
        index-resolved artifacts in."""
        record = index.entries[seq]
        try:
            handle.seek(int(record["o"]))  # type: ignore[arg-type]
            raw = handle.read(int(record["n"]))  # type: ignore[arg-type]
            if _line_digest(raw) != record["d"]:
                raise ValueError("line bytes changed since indexing")
            entry = LedgerEntry.from_dict(
                json.loads(raw.decode("utf-8")), seq=seq
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise _StaleLine(f"entry @{seq}: {exc}") from exc
        # The index derived the digest from these very bytes.
        entry._digest = str(record["g"])
        for path in index.artifacts_by_seq.get(seq, ()):
            if path not in entry.artifacts:
                entry.artifacts.append(path)
        obs.counter("ledger_index_seeks").inc()
        return entry

    def _read(
        self, select: Callable[[LedgerIndex], Sequence[int]]
    ) -> List[LedgerEntry]:
        index = self._synced()
        seqs = select(index)
        if not seqs:
            return []
        try:
            with open(self.path, "rb") as handle:
                return [self._materialize(index, seq, handle) for seq in seqs]
        except OSError as exc:
            raise LedgerError(
                f"cannot read analysis ledger {self.path}: {exc}"
            ) from exc

    def _load(
        self, select: Callable[[LedgerIndex], Sequence[int]]
    ) -> List[LedgerEntry]:
        """The entries ``select`` picks from the synced index, in order.

        A stale seek forces one rebuild, then ``select`` runs again."""
        with self._lock:
            try:
                return self._read(select)
            except _StaleLine:
                self._synced(rebuild=True)
            try:
                return self._read(select)
            except _StaleLine as exc:
                raise LedgerError(
                    f"ledger {self.path} changed while reading ({exc})"
                ) from exc

    @staticmethod
    def _entry_seqs(
        index: LedgerIndex,
        kind: Optional[str],
        system: Optional[str],
    ) -> Sequence[int]:
        if kind is not None and system is not None:
            return index.by_kind_system.get((kind, system), [])
        if kind is not None:
            return index.by_kind.get(kind, [])
        if system is not None:
            return index.by_system.get(system, [])
        return range(len(index.entries))

    def index_status(self) -> Dict[str, object]:
        """Index health for ``same ledger-index``."""
        with self._lock:
            status = self._synced().status()
        status["path"] = str(self.path)
        return status

    def rebuild_index(self) -> Dict[str, object]:
        """Force a from-scratch rebuild of the index and its sidecar."""
        with self._lock:
            status = self._synced(rebuild=True).status()
        status["path"] = str(self.path)
        return status

    # -- writing ----------------------------------------------------------

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Record one entry (stamping time + git) and return it.

        With observability enabled a zero-duration ``ledger.record`` span
        carrying the entry id is emitted under the current span, and the
        entry remembers that parent span id — a trace file and the ledger
        are mutually resolvable.
        """
        if not entry.timestamp:
            entry.timestamp = time.time()
        if not entry.git:
            entry.git = git_describe()
        if entry.trace_span is None:
            entry.trace_span = obs.current_span_id()
        # Provenance, like trace_span/timestamp: which run produced this
        # entry.  Lives in meta, which the content digest excludes, so
        # identical analyses still dedupe/diff as identical.
        cid = obs.correlation_id()
        if cid is not None:
            entry.meta.setdefault("correlation_id", cid)
        with self._lock:
            entry.seq = self._next_seq()
            # Derived once, from the entry as it is now, and kept: the
            # span, the line, its index record and every later read of
            # this entry's id use it.
            entry._digest = None
            entry._digest = entry.content_digest
            with obs.span(
                "ledger.record", entry=entry.entry_id, kind=entry.kind
            ):
                self._append_line(entry.to_dict(), entry)
        return entry

    def attach_artifact(
        self,
        entry: Union[LedgerEntry, str],
        path: Union[str, Path],
        kind: Optional[str] = None,
    ) -> None:
        """Link an exported artifact (e.g. a workbook, an event log or a
        profile) to an entry; ``kind`` tags what the artifact is."""
        entry_id = entry.entry_id if isinstance(entry, LedgerEntry) else entry
        record = {
            "v": _VERSION,
            "type": "artifact",
            "entry": entry_id,
            "path": str(path),
        }
        if kind:
            record["kind"] = kind
        with self._lock:
            self._append_line(record)
        if isinstance(entry, LedgerEntry):
            entry.artifacts.append(str(path))

    def _append_line(
        self,
        payload: Mapping[str, object],
        entry: Optional[LedgerEntry] = None,
    ) -> None:
        """Write one line (``entry``'s, when it is an entry line) and index
        it; the caller holds the lock.

        The index is synced *before* the write (catching any external
        append so offsets stay truthful) and told about the new line
        afterwards, so an append costs one stat + two small writes — no
        re-scan.  When the file ends in an interrupted, unterminated line
        a newline is healed in first, keeping line boundaries exactly
        where the index recorded them.
        """
        index = self._synced()
        raw = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                if index.tail_open:
                    handle.write(b"\n")
                offset = handle.tell()
                handle.write(raw)
        except OSError as exc:
            raise LedgerError(
                f"cannot write analysis ledger {self.path}: {exc}"
            ) from exc
        index.note_line(raw, offset, payload, entry)

    def _next_seq(self) -> int:
        with self._lock:
            return len(self._synced().entries)

    # -- reading ----------------------------------------------------------

    def entries(
        self,
        kind: Optional[str] = None,
        system: Optional[str] = None,
    ) -> List[LedgerEntry]:
        """Entries in file order, artifact records folded in.

        A filtered query parses only the matching lines; ``seq`` stays the
        entry's position among all entries of the file.
        """
        return self._load(lambda index: self._entry_seqs(index, kind, system))

    def latest(
        self,
        kind: Optional[str] = None,
        system: Optional[str] = None,
    ) -> Optional[LedgerEntry]:
        """The most recent matching entry — one index lookup + one seek."""
        found = self._load(
            lambda index: self._entry_seqs(index, kind, system)[-1:]
        )
        return found[0] if found else None

    def latest_by_cache_key(self, cache_key: str) -> Optional[LedgerEntry]:
        """The newest entry whose ``meta.service_cache_key`` matches.

        The analysis service's cache hit: a dict lookup plus one line
        seek, O(1) in ledger size.
        """
        if not cache_key:
            return None
        found = self._load(
            lambda index: index.by_cache_key.get(cache_key, [])[-1:]
        )
        return found[0] if found else None

    def resolve(self, ref: str) -> LedgerEntry:
        """Resolve an entry reference.

        Accepted forms: ``@N`` / plain integer (file-order sequence,
        negatives count from the end), ``latest``/``HEAD``, a full entry
        id, or a unique id/digest prefix.  When several entries share an
        identical id (byte-identical re-runs) the latest wins.  Id and
        digest matching runs over the in-memory index; only the winning
        entry's line is parsed.
        """
        text = ref.strip()
        position: Optional[int] = None
        try:
            position = int(text[1:] if text.startswith("@") else text)
        except ValueError:
            pass

        def select(index: LedgerIndex) -> List[int]:
            count = len(index.entries)
            if not count:
                raise LedgerError(f"ledger {self.path} has no entries")
            if position is not None:
                seq = position if position >= 0 else count + position
                if not 0 <= seq < count:
                    raise LedgerError(
                        f"entry index {position} out of range "
                        f"(ledger has {count} entries)"
                    )
                return [seq]
            if text.lower() in ("latest", "head"):
                return [count - 1]
            matches = [
                record
                for record in index.entries
                if str(record["id"]).startswith(text)
                or str(record["g"]).startswith(text)
            ]
            if not matches:
                raise LedgerError(f"no ledger entry matches {ref!r}")
            distinct = {str(record["id"]) for record in matches}
            if len(distinct) > 1:
                raise LedgerError(
                    f"ambiguous reference {ref!r}: matches {sorted(distinct)}"
                )
            return [int(matches[-1]["q"])]  # type: ignore[arg-type]

        return self._load(select)[0]


# -- recorders ---------------------------------------------------------------


def _campaign_fingerprint_for(
    model, reliability, config: Mapping[str, object]
) -> str:
    """The campaign fingerprint of an injection analysis, or ``""``.

    Imported lazily: the ledger must stay importable without dragging the
    whole safety package in (and vice versa).
    """
    try:
        from repro.safety.resilience import campaign_fingerprint

        return campaign_fingerprint(
            model,
            reliability,
            str(config.get("analysis", "dc")),
            float(config.get("t_stop", 5e-3)),  # type: ignore[arg-type]
            float(config.get("dt", 5e-5)),  # type: ignore[arg-type]
            config.get("behavior_overrides"),  # type: ignore[arg-type]
        )
    except Exception:  # noqa: BLE001 — provenance must not abort analyses
        return ""


def record_fmea(
    ledger: AnalysisLedger,
    result,
    model=None,
    reliability=None,
    spfm: Optional[float] = None,
    asil: Optional[str] = None,
    config: Optional[Mapping[str, object]] = None,
    trace: str = "",
    meta: Optional[Mapping[str, object]] = None,
    fingerprint: Optional[str] = None,
    model_digest_value: Optional[str] = None,
) -> LedgerEntry:
    """Record an FMEA run (injection or graph) as a ledger entry.

    ``fingerprint`` (the campaign fingerprint of an injection run) and
    ``model_digest_value`` (:func:`model_digest` of ``model``) take values
    the caller already computed; each one left out is computed here.
    """
    config = dict(config or {})
    rows = fmea_rows_payload(result)
    if getattr(result, "method", "") != "injection" or model is None:
        fingerprint = ""
    elif fingerprint is None:
        fingerprint = _campaign_fingerprint_for(model, reliability, config)
    if model_digest_value is None:
        model_digest_value = model_digest(model)
    entry = LedgerEntry(
        kind="fmea",
        system=result.system,
        spfm=spfm,
        asil=asil,
        model_digest=model_digest_value,
        reliability_digest=reliability_digest(reliability),
        fingerprint=fingerprint,
        config=config,
        rows=rows,
        row_digests=_row_digests(rows),
        metrics=_stats_metrics(result),
        trace=trace,
        meta=dict(meta or {"method": getattr(result, "method", "")}),
    )
    return ledger.append(entry)


def record_fmeda(
    ledger: AnalysisLedger,
    result,
    model=None,
    reliability=None,
    config: Optional[Mapping[str, object]] = None,
    trace: str = "",
    meta: Optional[Mapping[str, object]] = None,
    model_digest_value: Optional[str] = None,
) -> LedgerEntry:
    """Record an FMEDA (rows + SPFM/ASIL verdict) as a ledger entry.

    ``model_digest_value`` is :func:`model_digest` of ``model`` when the
    caller already computed it.
    """
    if model_digest_value is None:
        model_digest_value = model_digest(model)
    config = dict(config or {})
    config.setdefault(
        "deployments",
        [
            {
                "component": d.component,
                "failure_mode": d.failure_mode,
                "mechanism": d.mechanism,
                "coverage": d.coverage,
                "cost": d.cost,
            }
            for d in result.deployments
        ],
    )
    rows = fmeda_rows_payload(result)
    entry = LedgerEntry(
        kind="fmeda",
        system=result.system,
        spfm=result.spfm,
        asil=result.asil,
        model_digest=model_digest_value,
        reliability_digest=reliability_digest(reliability),
        config=config,
        rows=rows,
        row_digests=_row_digests(rows),
        metrics={
            "total_cost": result.total_cost,
            "diagnostic_coverage": getattr(
                result, "diagnostic_coverage", None
            ),
        },
        trace=trace,
        meta=dict(meta or {}),
    )
    return ledger.append(entry)


def record_optimizer(
    ledger: AnalysisLedger,
    plan,
    system: str,
    model=None,
    reliability=None,
    config: Optional[Mapping[str, object]] = None,
    meta: Optional[Mapping[str, object]] = None,
    model_digest_value: Optional[str] = None,
) -> LedgerEntry:
    """Record a mechanism-search outcome (a :class:`DeploymentPlan`).

    ``model_digest_value`` is :func:`model_digest` of ``model`` when the
    caller already computed it.
    """
    if model_digest_value is None:
        model_digest_value = model_digest(model)
    rows = [
        {
            "component": d.component,
            "failure_mode": d.failure_mode,
            "mechanism": d.mechanism,
            "coverage": d.coverage,
            "cost": d.cost,
        }
        for d in plan.deployments
    ]
    entry = LedgerEntry(
        kind="optimizer",
        system=system,
        spfm=plan.spfm,
        asil=plan.asil,
        model_digest=model_digest_value,
        reliability_digest=reliability_digest(reliability),
        config=dict(config or {}),
        rows=rows,
        row_digests=_row_digests(rows),
        metrics={"cost": plan.cost, "deployments": len(plan.deployments)},
        meta=dict(meta or {}),
    )
    return ledger.append(entry)


def record_iteration(
    ledger: AnalysisLedger,
    fmea,
    index: int,
    spfm: float,
    asil: str,
    deployments: Sequence[object] = (),
    model_digest_value: str = "",
    reliability=None,
    config: Optional[Mapping[str, object]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> LedgerEntry:
    """Record one DECISIVE Step 4 iteration as a ledger entry."""
    config = dict(config or {})
    config["iteration"] = index
    config["deployments"] = [
        {
            "component": d.component,
            "failure_mode": d.failure_mode,
            "mechanism": d.mechanism,
            "coverage": d.coverage,
            "cost": d.cost,
        }
        for d in deployments
    ]
    rows = fmea_rows_payload(fmea)
    entry = LedgerEntry(
        kind="decisive-iteration",
        system=fmea.system,
        spfm=spfm,
        asil=asil,
        model_digest=model_digest_value,
        reliability_digest=reliability_digest(reliability),
        config=config,
        rows=rows,
        row_digests=_row_digests(rows),
        metrics=_stats_metrics(fmea),
        meta=dict(meta or {}),
    )
    return ledger.append(entry)
