"""The iteration observatory — diffing and watching the analysis ledger.

:mod:`repro.obs.ledger` records what every analysis run computed; this
module answers the questions reviewers actually ask of that history:

- :func:`diff_entries` — the full delta between any two ledger entries:
  input-provenance changes (model / reliability / config digests),
  row-level FME(D)A deltas (built on :mod:`repro.safety.compare`),
  SPFM / diagnostic-coverage movement, ASIL verdict flips, and new or
  resolved single-point faults;
- :func:`watch_regressions` — the CI-facing gate: given a baseline and a
  candidate entry, report SPFM drops, fresh single-point faults and
  wall-time regressions beyond a budget;
- :func:`render_history` — the ``repro history`` table;
- :func:`stale_entries` — which recorded evidence no longer matches the
  current model digest (the assurance layer builds its stale-evidence
  check on this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.ledger import AnalysisLedger, LedgerEntry

_Key = Tuple[str, str]


def _result_from_entry(entry: LedgerEntry):
    """Rebuild a comparable FMEA/FMEDA result from an entry's row payload."""
    from repro.safety.compare import (
        rows_from_payload_fmea,
        rows_from_payload_fmeda,
    )
    from repro.safety.fmea import FmeaResult
    from repro.safety.fmeda import FmedaResult

    if entry.kind in ("fmeda", "optimizer"):
        result = FmedaResult(
            system=entry.system,
            rows=rows_from_payload_fmeda(entry.rows),
            spfm=entry.spfm if entry.spfm is not None else math.nan,
            asil=entry.asil or "?",
            total_cost=float(entry.metrics.get("total_cost", 0.0) or 0.0),
        )
        return result
    result = FmeaResult(system=entry.system, method="ledger")
    result.rows = rows_from_payload_fmea(entry.rows)
    return result


def _diagnostic_coverage(entry: LedgerEntry) -> Optional[float]:
    recorded = entry.metrics.get("diagnostic_coverage")
    if isinstance(recorded, (int, float)):
        return float(recorded)
    if entry.kind != "fmeda":
        return None
    try:
        return _result_from_entry(entry).diagnostic_coverage
    except (TypeError, ValueError):
        return None


def _wall_time(entry: LedgerEntry) -> Optional[float]:
    value = entry.metrics.get("wall_time")
    return float(value) if isinstance(value, (int, float)) else None


@dataclass
class LedgerDiff:
    """Everything that changed between two ledger entries."""

    before: LedgerEntry
    after: LedgerEntry
    model_changed: bool = False
    reliability_changed: bool = False
    config_changed: bool = False
    added_rows: List[_Key] = field(default_factory=list)
    removed_rows: List[_Key] = field(default_factory=list)
    changed_rows: List[object] = field(default_factory=list)  # RowDelta
    #: (component, failure mode) keys that became / stopped being
    #: single-point-fault contributors between the two entries.
    new_single_points: List[_Key] = field(default_factory=list)
    resolved_single_points: List[_Key] = field(default_factory=list)
    dc_before: Optional[float] = None
    dc_after: Optional[float] = None

    @property
    def identical(self) -> bool:
        """Byte-identical analyses (same content digest)."""
        return self.before.content_digest == self.after.content_digest

    @property
    def spfm_delta(self) -> Optional[float]:
        if self.before.spfm is None or self.after.spfm is None:
            return None
        return self.after.spfm - self.before.spfm

    @property
    def asil_flipped(self) -> bool:
        return (self.before.asil or "") != (self.after.asil or "")

    @property
    def dc_delta(self) -> Optional[float]:
        if self.dc_before is None or self.dc_after is None:
            return None
        return self.dc_after - self.dc_before

    @property
    def wall_delta_pct(self) -> Optional[float]:
        """Wall-time movement in percent of the baseline (None if either
        entry carries no timing — timings never affect ``identical``)."""
        before, after = _wall_time(self.before), _wall_time(self.after)
        if not before or after is None:
            return None
        return (after - before) / before * 100.0

    @property
    def unchanged(self) -> bool:
        """No analysis-content change (timings may still differ)."""
        return self.identical or (
            not self.model_changed
            and not self.reliability_changed
            and not self.config_changed
            and not self.added_rows
            and not self.removed_rows
            and not self.changed_rows
            and not self.asil_flipped
            and not (self.spfm_delta or 0.0)
        )

    def summary(self) -> str:
        a, b = self.before.entry_id, self.after.entry_id
        if self.unchanged:
            return f"no changes between {a} and {b}"
        lines = [f"diff {a} -> {b}"]
        if self.model_changed:
            lines.append(
                f"model   : {self.before.model_digest[:12] or '-'} -> "
                f"{self.after.model_digest[:12] or '-'}"
            )
        if self.reliability_changed:
            lines.append(
                f"reliability: {self.before.reliability_digest[:12] or '-'}"
                f" -> {self.after.reliability_digest[:12] or '-'}"
            )
        if self.config_changed:
            lines.append("config  : changed")
        if self.before.spfm is not None or self.after.spfm is not None:
            before = "-" if self.before.spfm is None else f"{self.before.spfm:.2%}"
            after = "-" if self.after.spfm is None else f"{self.after.spfm:.2%}"
            delta = (
                ""
                if self.spfm_delta is None
                else f" ({self.spfm_delta:+.2%})"
            )
            lines.append(f"SPFM    : {before} -> {after}{delta}")
        if self.asil_flipped:
            lines.append(
                f"ASIL    : {self.before.asil} -> {self.after.asil}  ** verdict flip **"
            )
        if self.dc_delta is not None and abs(self.dc_delta) > 1e-12:
            lines.append(
                f"DC      : {self.dc_before:.2%} -> {self.dc_after:.2%} "
                f"({self.dc_delta:+.2%})"
            )
        if self.added_rows:
            lines.append(f"rows +  : {self.added_rows}")
        if self.removed_rows:
            lines.append(f"rows -  : {self.removed_rows}")
        for delta in self.changed_rows:
            lines.append(
                f"changed {delta.component}/{delta.failure_mode}: "
                f"{'; '.join(delta.changes)}"
            )
        if self.new_single_points:
            lines.append(f"new single points     : {self.new_single_points}")
        if self.resolved_single_points:
            lines.append(
                f"resolved single points: {self.resolved_single_points}"
            )
        wall = self.wall_delta_pct
        if wall is not None:
            lines.append(f"wall    : {wall:+.1f}% vs baseline")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "before": self.before.entry_id,
            "after": self.after.entry_id,
            "identical": self.identical,
            "unchanged": self.unchanged,
            "model_changed": self.model_changed,
            "reliability_changed": self.reliability_changed,
            "config_changed": self.config_changed,
            "spfm_before": self.before.spfm,
            "spfm_after": self.after.spfm,
            "spfm_delta": self.spfm_delta,
            "asil_before": self.before.asil,
            "asil_after": self.after.asil,
            "asil_flipped": self.asil_flipped,
            "dc_before": self.dc_before,
            "dc_after": self.dc_after,
            "dc_delta": self.dc_delta,
            "added_rows": [list(key) for key in self.added_rows],
            "removed_rows": [list(key) for key in self.removed_rows],
            "changed_rows": [
                {
                    "component": delta.component,
                    "failure_mode": delta.failure_mode,
                    "changes": list(delta.changes),
                }
                for delta in self.changed_rows
            ],
            "new_single_points": [
                list(key) for key in self.new_single_points
            ],
            "resolved_single_points": [
                list(key) for key in self.resolved_single_points
            ],
            "wall_delta_pct": self.wall_delta_pct,
        }


def _single_points(entry: LedgerEntry) -> List[_Key]:
    """Keys contributing residual single-point risk in an entry."""
    keys: List[_Key] = []
    for row in entry.rows:
        if not row.get("safety_related"):
            continue
        if entry.kind == "fmeda":
            residual = row.get("residual_rate")
            if isinstance(residual, (int, float)) and residual <= 1e-12:
                continue  # fully covered by a mechanism
        keys.append((str(row.get("component")), str(row.get("failure_mode"))))
    return sorted(keys)


def diff_entries(before: LedgerEntry, after: LedgerEntry) -> LedgerDiff:
    """The full delta between two ledger entries.

    Entries of different kinds still diff (the row comparison degrades to
    key-level add/remove), but like-for-like diffs are the intended use.
    """
    from repro.safety.compare import compare_fmea, compare_fmeda

    diff = LedgerDiff(
        before=before,
        after=after,
        model_changed=before.model_digest != after.model_digest,
        reliability_changed=(
            before.reliability_digest != after.reliability_digest
        ),
        config_changed=before.config != after.config,
        dc_before=_diagnostic_coverage(before),
        dc_after=_diagnostic_coverage(after),
    )
    if before.kind == "fmeda" and after.kind == "fmeda":
        comparison = compare_fmeda(
            _result_from_entry(before), _result_from_entry(after)
        )
    else:
        comparison = compare_fmea(
            _result_from_entry(before), _result_from_entry(after)
        )
    diff.added_rows = list(comparison.added_rows)
    diff.removed_rows = list(comparison.removed_rows)
    diff.changed_rows = list(comparison.changed_rows)
    before_sp, after_sp = (
        set(_single_points(before)),
        set(_single_points(after)),
    )
    diff.new_single_points = sorted(after_sp - before_sp)
    diff.resolved_single_points = sorted(before_sp - after_sp)
    return diff


# -- regression watching ----------------------------------------------------


@dataclass
class Regression:
    """One detected regression between a baseline and a candidate entry."""

    kind: str  # 'spfm'|'single-point'|'wall-time'|'asil'|'strategy'|'scaling'
    message: str


def _strategy_timings(entry: LedgerEntry) -> Dict[str, float]:
    """Per-strategy wall times recorded by the injection benchmark
    (``meta.timings`` — e.g. ``{"naive": ..., "incremental": ...}``)."""
    timings = entry.meta.get("timings")
    if not isinstance(timings, dict):
        return {}
    return {
        str(label): float(value)
        for label, value in timings.items()
        if isinstance(value, (int, float))
    }


def watch_regressions(
    diff: LedgerDiff,
    max_spfm_drop: float = 0.0,
    max_walltime_pct: Optional[float] = 25.0,
) -> List[Regression]:
    """Regressions in ``diff``, for the ``repro watch-regressions`` gate.

    Flags an SPFM drop beyond ``max_spfm_drop`` (absolute, default: any
    drop), a downgraded ASIL verdict, any new single-point fault, a
    wall-time regression beyond ``max_walltime_pct`` percent of the
    baseline (``None`` disables the timing gate), a strategy
    inversion — the candidate entry's recorded per-strategy timings
    (``meta.timings``, written by the injection benchmark) showing the
    incremental strategy running slower than naive re-assembly — a
    latency-scaling bust: the candidate's recorded scaling probes
    (``meta.scaling``, written by the service benchmark as
    ``{name: {"ratio": ..., "budget": ...}}``) showing a ratio above its
    budget.
    """
    regressions: List[Regression] = []
    delta = diff.spfm_delta
    if delta is not None and delta < -abs(max_spfm_drop) - 1e-12:
        regressions.append(
            Regression(
                "spfm",
                f"SPFM dropped {delta:+.2%} "
                f"({diff.before.spfm:.2%} -> {diff.after.spfm:.2%})",
            )
        )
    if diff.asil_flipped and _asil_rank(diff.after.asil) < _asil_rank(
        diff.before.asil
    ):
        regressions.append(
            Regression(
                "asil",
                f"ASIL verdict downgraded {diff.before.asil} -> "
                f"{diff.after.asil}",
            )
        )
    for key in diff.new_single_points:
        regressions.append(
            Regression(
                "single-point",
                f"new single-point fault {key[0]}/{key[1]}",
            )
        )
    wall = diff.wall_delta_pct
    if (
        max_walltime_pct is not None
        and wall is not None
        and wall > max_walltime_pct
    ):
        regressions.append(
            Regression(
                "wall-time",
                f"wall time regressed {wall:+.1f}% "
                f"(budget {max_walltime_pct:g}%)",
            )
        )
    timings = _strategy_timings(diff.after)
    naive = timings.get("naive")
    incremental = timings.get("incremental")
    if naive and incremental is not None and incremental > naive:
        regressions.append(
            Regression(
                "strategy",
                "incremental strategy slower than naive "
                f"({incremental:.3f}s vs {naive:.3f}s)",
            )
        )
    scaling = diff.after.meta.get("scaling")
    if isinstance(scaling, dict):
        # Written by the service benchmark: per-probe latency-scaling
        # ratios with their budgets, e.g. cache-hit p99 at a 10k-entry
        # ledger over a 100-entry one. Ratio above budget means a lookup
        # path went super-constant again.
        for name in sorted(scaling):
            probe = scaling[name]
            if not isinstance(probe, dict):
                continue
            try:
                ratio = float(probe["ratio"])
                budget = float(probe["budget"])
            except (KeyError, TypeError, ValueError):
                continue
            if ratio > budget:
                regressions.append(
                    Regression(
                        "scaling",
                        f"{name} latency scaling {ratio:.2f}x exceeds "
                        f"budget {budget:g}x",
                    )
                )
    return regressions


_ASIL_ORDER = ("QM", "ASIL-A", "ASIL-B", "ASIL-C", "ASIL-D")


def _asil_rank(asil: Optional[str]) -> int:
    try:
        return _ASIL_ORDER.index(asil or "QM")
    except ValueError:
        return -1


def baseline_for(
    ledger: AnalysisLedger, candidate: LedgerEntry
) -> Optional[LedgerEntry]:
    """The most recent earlier entry comparable to ``candidate`` (same
    kind and system) — the default baseline of ``watch-regressions``."""
    best: Optional[LedgerEntry] = None
    for entry in ledger.entries(kind=candidate.kind, system=candidate.system):
        if entry.seq < candidate.seq:
            best = entry
    return best


# -- presentation ------------------------------------------------------------


def _timestamp_text(entry: LedgerEntry) -> str:
    if not entry.timestamp:
        return "-"
    return datetime.fromtimestamp(
        entry.timestamp, tz=timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%S")


def history_rows(entries: Sequence[LedgerEntry]) -> List[Dict[str, object]]:
    """History table rows (shared by the CLI and the workbook sheet)."""
    rows: List[Dict[str, object]] = []
    for entry in entries:
        wall = _wall_time(entry)
        rows.append(
            {
                "Seq": entry.seq,
                "Entry": entry.entry_id,
                "Kind": entry.kind,
                "System": entry.system,
                "SPFM": (
                    f"{entry.spfm:.2%}" if entry.spfm is not None else ""
                ),
                "ASIL": entry.asil or "",
                "Rows": len(entry.rows),
                "Wall_s": f"{wall:.3f}" if wall is not None else "",
                "Git": entry.git,
                "Timestamp_UTC": _timestamp_text(entry),
            }
        )
    return rows


def render_history(entries: Sequence[LedgerEntry]) -> str:
    """The ``repro history`` listing as an aligned text table."""
    if not entries:
        return "(ledger has no entries)"
    from repro.drivers.table import Sheet
    from repro.safety.report import render_text_table

    sheet = Sheet("History", history_rows(entries))
    return render_text_table(sheet)


# -- stale evidence ----------------------------------------------------------


def stale_entries(
    ledger: AnalysisLedger, current_model_digest: str
) -> List[LedgerEntry]:
    """Entries whose recorded model digest no longer matches the model.

    The assurance layer (:func:`repro.assurance.evaluation.
    check_evidence_freshness`) uses this to flag evidence artifacts whose
    generating analysis predates a design change.
    """
    return [
        entry
        for entry in ledger.entries()
        if entry.model_digest
        and current_model_digest
        and entry.model_digest != current_model_digest
    ]
