"""FMEA / FMEDA table rendering.

SAME "always produces an Excel-based FMEA table"; these functions produce
the offline equivalents: :class:`~repro.drivers.table.Sheet` objects (saved
as CSV workbooks) and aligned text tables in Table IV's column layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.drivers.table import Sheet, Workbook
from repro.safety.fmea import FmeaResult
from repro.safety.fmeda import FmedaResult


def fmea_to_sheet(result: FmeaResult, sheet_name: str = "FMEA") -> Sheet:
    sheet = Sheet(sheet_name)
    for row in result.rows:
        sheet.append(
            {
                "Component": row.component,
                "FIT": row.fit,
                "Safety_Related": row.safety_related,
                "Failure_Mode": row.failure_mode,
                "Nature": row.nature,
                "Distribution": f"{row.distribution * 100:g}%",
                "Effect": row.effect,
                "Impact": row.impact,
                "Warning": row.warning,
            }
        )
    return sheet


def fmeda_to_sheet(result: FmedaResult, sheet_name: str = "FMEDA") -> Sheet:
    """Table IV's exact schema, one row per (component, failure mode)."""
    sheet = Sheet(sheet_name)
    seen_components = set()
    for row in result.rows:
        first = row.component not in seen_components
        seen_components.add(row.component)
        sheet.append(
            {
                "Component": row.component if first else "",
                "FIT": row.fit if first else "",
                "Safety_Related": "Yes" if row.safety_related else "No",
                "Failure_Mode": row.failure_mode,
                "Distribution": f"{row.distribution * 100:g}%",
                "Safety_Mechanism": row.safety_mechanism or "No SM",
                "SM_Coverage": (
                    f"{row.sm_coverage * 100:g}%" if row.sm_coverage else ""
                ),
                "Single_Point_Failure_Rate": (
                    f"{row.residual_rate:g} FIT" if row.safety_related else ""
                ),
            }
        )
    return sheet


def campaign_stats_sheet(
    result: FmeaResult, sheet_name: str = "Campaign_Stats"
) -> Optional[Sheet]:
    """The campaign's execution instrumentation as a two-column sheet, or
    ``None`` when the result carries no stats (graph/manual FMEA)."""
    stats = getattr(result, "stats", None)
    if stats is None or not hasattr(stats, "to_dict"):
        return None
    sheet = Sheet(sheet_name)
    for key, value in stats.to_dict().items():
        sheet.append({"Statistic": key, "Value": value})
    return sheet


def campaign_failures_sheet(
    result: FmeaResult, sheet_name: str = "Campaign_Failures"
) -> Optional[Sheet]:
    """One row per structured :class:`JobFailure` the campaign isolated,
    or ``None`` when every job produced a result."""
    failures = getattr(result, "failures", None)
    if not failures:
        return None
    sheet = Sheet(sheet_name)
    for failure in failures:
        sheet.append(
            {
                "Job": failure.index,
                "Component": failure.component,
                "Failure_Mode": failure.failure_mode,
                "Exception": failure.exception,
                "Message": failure.message,
            }
        )
    return sheet


def iteration_timeline_sheet(
    entries, sheet_name: str = "Iteration_Timeline"
) -> Optional[Sheet]:
    """One row per analysis-ledger entry: the DECISIVE iteration timeline.

    ``entries`` are :class:`repro.obs.ledger.LedgerEntry` objects (duck
    typed — this module stays importable without the obs layer).  Returns
    ``None`` when there is no history to render.
    """
    entries = list(entries or ())
    if not entries:
        return None
    sheet = Sheet(sheet_name)
    previous_spfm: Optional[float] = None
    for entry in entries:
        spfm = getattr(entry, "spfm", None)
        delta = (
            spfm - previous_spfm
            if spfm is not None and previous_spfm is not None
            else None
        )
        config = getattr(entry, "config", {}) or {}
        metrics = getattr(entry, "metrics", {}) or {}
        sheet.append(
            {
                "Seq": getattr(entry, "seq", ""),
                "Entry": getattr(entry, "entry_id", ""),
                "Kind": getattr(entry, "kind", ""),
                "Iteration": config.get("iteration", ""),
                "SPFM": f"{spfm * 100:.2f}%" if spfm is not None else "",
                "SPFM_Delta": (
                    f"{delta * 100:+.2f}%" if delta is not None else ""
                ),
                "ASIL": getattr(entry, "asil", "") or "",
                "Deployments": len(config.get("deployments", []) or []),
                "Rows": len(getattr(entry, "rows", []) or []),
                "Wall_s": metrics.get("wall_time", ""),
                "Model_Digest": (getattr(entry, "model_digest", "") or "")[:12],
                "Git": getattr(entry, "git", ""),
            }
        )
        if spfm is not None:
            previous_spfm = spfm
    return sheet


def save_decisive_workbook(
    result: FmedaResult, entries, location: Union[str, Path]
) -> Path:
    """Save the final FMEDA plus the iteration timeline as one workbook."""
    sheets = [fmeda_to_sheet(result)]
    summary = Sheet("Summary")
    summary.append(
        {
            "System": result.system,
            "SPFM": f"{result.spfm * 100:.2f}%",
            "ASIL": result.asil,
            "Total_SM_Cost": result.total_cost,
        }
    )
    sheets.append(summary)
    timeline = iteration_timeline_sheet(entries)
    if timeline is not None:
        sheets.append(timeline)
    return Workbook(sheets).save(location)


def render_campaign_stats(result: FmeaResult) -> str:
    """The ``--stats`` CLI view of a campaign's instrumentation."""
    sheet = campaign_stats_sheet(result)
    if sheet is None:
        return "(no campaign statistics recorded)"
    return render_text_table(sheet)


def save_fmea_workbook(
    result: FmeaResult, location: Union[str, Path]
) -> Path:
    """Save the FMEA table; workbook-directory saves also carry the
    campaign's execution statistics as a ``Campaign_Stats`` sheet and any
    isolated job failures as a ``Campaign_Failures`` sheet (a single
    ``.csv`` location keeps the historical one-sheet layout)."""
    sheet = fmea_to_sheet(result)
    path = Path(location)
    if path.suffix == ".csv":
        sheet.write_csv(path)
        return path
    sheets = [sheet]
    stats_sheet = campaign_stats_sheet(result)
    if stats_sheet is not None:
        sheets.append(stats_sheet)
    failures_sheet = campaign_failures_sheet(result)
    if failures_sheet is not None:
        sheets.append(failures_sheet)
    return Workbook(sheets).save(location)


def save_fmeda_workbook(
    result: FmedaResult, location: Union[str, Path]
) -> Path:
    sheet = fmeda_to_sheet(result)
    summary = Sheet("Summary")
    summary.append(
        {
            "System": result.system,
            "SPFM": f"{result.spfm * 100:.2f}%",
            "ASIL": result.asil,
            "Total_SM_Cost": result.total_cost,
        }
    )
    path = Path(location)
    if path.suffix == ".csv":
        sheet.write_csv(path)
        return path
    return Workbook([sheet, summary]).save(location)


def render_text_table(sheet: Sheet) -> str:
    """Align a sheet as a monospaced text table."""
    header = sheet.header
    rows: List[List[str]] = [
        [_cell_text(row.get(col)) for col in header] for row in sheet.rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "Yes" if value else "No"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
