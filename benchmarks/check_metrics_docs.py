#!/usr/bin/env python
"""Cross-check metric names against the docs table (CI lint).

Every counter/gauge/histogram registered anywhere in ``src/repro`` must
have a row in the metrics table of ``docs/observability.md``, and every
name the table documents must still exist in code — both directions, so
the table can neither rot nor invent metrics.

Two call sites build names dynamically; they are expanded from the same
source of truth the code uses (parsed textually, so the lint runs in
the dependency-free CI lint job — no numpy import):

- ``obs.counter(f"campaign_{name}")`` in ``CampaignStats.publish`` —
  expanded over ``CampaignStats._COUNTER_FIELDS``;
- ``obs.counter(f"mna_{backend}_factorizations")`` in
  ``repro.circuit.backends.factorize`` — expanded over the concrete
  members of ``BACKENDS`` (``auto`` resolves before factorization).

Any *other* f-string metric name is an error: teach this script how to
expand it before merging.

Usage: ``python benchmarks/check_metrics_docs.py``
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOCS = REPO / "docs" / "observability.md"

#: A metric registration: counter("name"), gauge(f"...{x}...") etc.
_CALL = re.compile(r"\b(?:counter|gauge|histogram)\(\s*(f?)\"([^\"]+)\"")

#: Rows of the docs metrics table: | `name`, `name` | type | meaning |
_TABLE_HEADER = re.compile(r"^\|\s*metric\s*\|\s*type\s*\|")
_BACKTICKED = re.compile(r"`([a-z][a-z0-9_]*)`")


def _tuple_literal(path: Path, assignment: str) -> list:
    """The string members of ``NAME = ("...", ...)`` in ``path``."""
    text = path.read_text(encoding="utf-8")
    match = re.search(
        rf"^\s*{re.escape(assignment)}\s*=\s*\(([^)]*)\)",
        text,
        re.MULTILINE | re.DOTALL,
    )
    if match is None:
        raise SystemExit(
            f"check_metrics_docs: cannot find {assignment!r} in {path}"
        )
    return re.findall(r"\"([a-z0-9_]+)\"", match.group(1))


def _expand_dynamic(template: str) -> set:
    """Expand the known f-string metric-name templates."""
    if template == "campaign_{name}":
        fields = _tuple_literal(
            SRC / "safety" / "campaign.py", "_COUNTER_FIELDS"
        )
        return {f"campaign_{name}" for name in fields}
    if template == "mna_{backend}_factorizations":
        backends = _tuple_literal(SRC / "circuit" / "backends.py", "BACKENDS")
        return {f"mna_{backend}_factorizations" for backend in backends}
    raise SystemExit(
        f"check_metrics_docs: unknown dynamic metric name {template!r} — "
        f"add an expansion rule to benchmarks/check_metrics_docs.py"
    )


def code_metrics() -> set:
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        # The registry/facade implementation registers by parameter: skip
        # it; the metrics it serves are registered at their real call
        # sites, which this scan covers.
        if path.name == "metrics.py" and path.parent.name == "obs":
            continue
        text = path.read_text(encoding="utf-8")
        for is_fstring, name in _CALL.findall(text):
            if is_fstring and "{" in name:
                names |= _expand_dynamic(name)
            elif "{" not in name:
                names.add(name)
    return names


def documented_metrics() -> set:
    names = set()
    in_table = False
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        if _TABLE_HEADER.match(line):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                in_table = False
                continue
            first_cell = line.split("|")[1]
            names.update(_BACKTICKED.findall(first_cell))
    return names


def main() -> int:
    in_code = code_metrics()
    in_docs = documented_metrics()
    undocumented = sorted(in_code - in_docs)
    stale = sorted(in_docs - in_code)
    status = 0
    if undocumented:
        print("metrics registered in src/repro but missing from the")
        print(f"{DOCS.relative_to(REPO)} table:")
        for name in undocumented:
            print(f"  - {name}")
        status = 1
    if stale:
        print(f"metrics documented in {DOCS.relative_to(REPO)} but never")
        print("registered in src/repro:")
        for name in stale:
            print(f"  - {name}")
        status = 1
    if status == 0:
        print(
            f"check_metrics_docs: {len(in_code)} metrics, "
            f"docs table in sync"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
