"""The ledger's one read path: staleness, recovery, and reference parity.

Every ledger read goes through the in-memory byte-offset index, cached in
the `<ledger>.idx` sidecar.  The tests here break that cache in some way
(external appends, truncation, torn tails, corruption, stamp mismatches,
an unwritable sidecar, same-size rewrites) and assert reads come back
identical to a small full-file reference reader, plus a randomized
differential test over mixed entry/artifact/junk ledgers.
"""

import json
import random
import threading

import pytest

import repro.obs as obs
from repro.obs.ledger import (
    AnalysisLedger,
    LedgerEntry,
    LedgerError,
    LedgerIndex,
)


# -- the reference reader ----------------------------------------------------


def _reference_entries(path, kind=None, system=None):
    """Every entry of the file, from one full parse.

    The documented fold rule: lines that do not parse, or are not an
    entry/artifact record, are skipped; an artifact attaches to the latest
    entry with that id *so far*, and its paths are deduplicated.
    """
    entries, by_id = [], {}
    data = path.read_bytes() if path.exists() else b""
    for line in data.split(b"\n"):
        try:
            record = json.loads(line.decode("utf-8").strip() or "null")
        except ValueError:  # UnicodeDecodeError included
            continue
        if not isinstance(record, dict):
            continue
        if record.get("type") == "entry" and "kind" in record:
            try:
                entry = LedgerEntry.from_dict(record, seq=len(entries))
            except (TypeError, ValueError, KeyError):
                continue
            entries.append(entry)
            by_id.setdefault(entry.entry_id, []).append(entry)
        elif record.get("type") == "artifact" and record.get("path"):
            targets = by_id.get(str(record.get("entry")), [])
            if targets and str(record["path"]) not in targets[-1].artifacts:
                targets[-1].artifacts.append(str(record["path"]))
    return [
        entry
        for entry in entries
        if (kind is None or entry.kind == kind)
        and (system is None or entry.system == system)
    ]


def _reference_resolve(path, ref):
    """``AnalysisLedger.resolve`` semantics over the reference entries."""
    entries = _reference_entries(path)
    if not entries:
        raise LedgerError(f"ledger {path} has no entries")
    text = ref.strip()
    try:
        position = int(text[1:] if text.startswith("@") else text)
    except ValueError:
        position = None
    if position is not None:
        if not -len(entries) <= position < len(entries):
            raise LedgerError(
                f"entry index {position} out of range "
                f"(ledger has {len(entries)} entries)"
            )
        return entries[position]
    if text.lower() in ("latest", "head"):
        return entries[-1]
    matches = [
        entry
        for entry in entries
        if entry.entry_id.startswith(text)
        or entry.content_digest.startswith(text)
    ]
    if not matches:
        raise LedgerError(f"no ledger entry matches {ref!r}")
    distinct = {entry.entry_id for entry in matches}
    if len(distinct) > 1:
        raise LedgerError(
            f"ambiguous reference {ref!r}: matches {sorted(distinct)}"
        )
    return matches[-1]


def _dicts(entries):
    return [(e.seq, e.to_dict()) for e in entries]


def _assert_reference_reads(ledger, path, refs=()):
    """Every read of ``ledger`` equals the reference reader's answer."""
    assert _dicts(ledger.entries()) == _dicts(_reference_entries(path))
    entries = _reference_entries(path)
    kinds = sorted({e.kind for e in entries}) + ["absent", None]
    systems = sorted({e.system for e in entries}) + ["absent", None]
    for kind in kinds:
        for system in systems:
            want = _reference_entries(path, kind=kind, system=system)
            assert _dicts(ledger.entries(kind=kind, system=system)) == _dicts(
                want
            )
            got = ledger.latest(kind=kind, system=system)
            assert _dicts([got] if got else []) == _dicts(want[-1:])
    for key in {e.meta.get("service_cache_key") for e in entries} - {None}:
        want = [e for e in entries if e.meta.get("service_cache_key") == key]
        assert _dicts([ledger.latest_by_cache_key(key)]) == _dicts(want[-1:])
    assert ledger.latest_by_cache_key("absent-key") is None
    for ref in refs:
        try:
            want = _reference_resolve(path, ref)
        except LedgerError as exc:
            with pytest.raises(LedgerError) as caught:
                ledger.resolve(ref)
            assert str(caught.value) == str(exc)
        else:
            assert _dicts([ledger.resolve(ref)]) == _dicts([want])


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _entry(i, kind="fmea", system="S", cache_key=None):
    meta = {}
    if cache_key is not None:
        meta["service_cache_key"] = cache_key
    return LedgerEntry(
        kind=kind,
        system=system,
        spfm=0.90 + (i % 7) / 100.0,
        asil="ASIL-B",
        rows=[{"component": f"C{i}", "failure_mode": "Open", "fit": float(i)}],
        metrics={"wall_time": 0.1 * i},
        meta=meta,
    )


def _seed(ledger, count=5, **kwargs):
    return [ledger.append(_entry(i, **kwargs)) for i in range(count)]


def _raw_append(path, payload, terminate=True):
    """Append a line the way a foreign process would — no index updates."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    if terminate:
        blob += b"\n"
    with open(path, "ab") as handle:
        handle.write(blob)


def _rebuilds():
    return int(obs.counter("ledger_index_rebuilds").value)


def _extensions():
    return int(obs.counter("ledger_index_extensions").value)


def _seeks():
    return int(obs.counter("ledger_index_seeks").value)


def _twins(ledger, tags):
    """Entries whose ledger lines all have the same length, so swapping
    two of them leaves every recorded offset on a well-formed line."""
    for tag in tags:
        ledger.append(
            LedgerEntry(
                kind="fmea",
                system="S",
                spfm=0.5,
                asil="ASIL-B",
                rows=[{"component": tag}],
                timestamp=1.0,
                git="g",
                meta={"service_cache_key": f"key-{tag}"},
            )
        )


def _swap_lines(path, first, second):
    """Swap two ledger lines in place: same bytes, same file size."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[first], lines[second] = lines[second], lines[first]
    path.write_bytes(b"".join(lines))


class TestSidecarLifecycle:
    def test_sidecar_tracks_every_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        recorded = _seed(ledger, 4)
        ledger.attach_artifact(recorded[1].entry_id, tmp_path / "wb.xlsx")
        sidecar = tmp_path / "ledger.jsonl.idx"
        assert sidecar.exists()
        idx_lines = sidecar.read_text().splitlines()
        ledger_lines = path.read_text().splitlines()
        assert len(idx_lines) == len(ledger_lines) == 5
        status = ledger.index_status()
        assert status["persisted"] is True
        assert status["entries"] == 4
        assert status["artifacts"] == 1
        assert status["bytes_covered"] == path.stat().st_size

    def test_reopen_adopts_sidecar_without_rebuild(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _seed(AnalysisLedger(path), 6)
        reopened = AnalysisLedger(path)
        assert _dicts(reopened.entries()) == _dicts(_reference_entries(path))
        assert _rebuilds() == 0


class TestStalenessRecovery:
    def test_second_handle_append_is_picked_up(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = AnalysisLedger(path)
        _seed(first, 3)
        second = AnalysisLedger(path)
        appended = second.append(_entry(99, cache_key="fresh"))
        seen = first.entries()
        assert len(seen) == 4
        assert seen[-1].entry_id == appended.entry_id
        hit = first.latest_by_cache_key("fresh")
        assert hit is not None and hit.entry_id == appended.entry_id

    def test_foreign_process_append_extends(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _seed(ledger, 3)
        assert len(ledger.entries()) == 3  # index now loaded and current
        _raw_append(
            path,
            _entry(7, kind="fmeda", cache_key="foreign").to_dict(),
        )
        entries = ledger.entries()
        assert len(entries) == 4
        assert entries[-1].kind == "fmeda"
        assert _extensions() >= 1
        assert _rebuilds() == 0
        hit = ledger.latest_by_cache_key("foreign")
        assert hit is not None and hit.seq == 3

    def test_ledger_truncation_rebuilds(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _seed(ledger, 5)
        assert len(ledger.entries()) == 5
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        assert len(ledger.entries()) == 3
        assert _rebuilds() >= 1

    def test_in_place_rewrite_same_size_growth_rebuilds(self, tmp_path):
        # A rewrite that *grows* the file looks like an append by size
        # alone; the tail-digest stamp catches it and forces a rebuild.
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _seed(ledger, 3)
        assert len(ledger.entries()) == 3
        replacement = [
            json.dumps(_entry(i + 50, kind="fmeda").to_dict(), sort_keys=True)
            for i in range(4)
        ]
        path.write_text("\n".join(replacement) + "\n")
        entries = ledger.entries()
        assert len(entries) == 4
        assert all(e.kind == "fmeda" for e in entries)
        assert _rebuilds() >= 1

    def test_truncated_sidecar_rebuilds_on_open(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _seed(AnalysisLedger(path), 5)
        sidecar = tmp_path / "ledger.jsonl.idx"
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: len(blob) // 2])
        reopened = AnalysisLedger(path)
        assert len(reopened.entries()) == 5
        assert _rebuilds() >= 1
        # The rebuild repaired the sidecar on disk, not just in memory.
        assert len(sidecar.read_text().splitlines()) == 5

    def test_garbage_sidecar_rebuilds_on_open(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _seed(AnalysisLedger(path), 4)
        (tmp_path / "ledger.jsonl.idx").write_bytes(b"not json at all\n")
        reopened = AnalysisLedger(path)
        assert len(reopened.entries()) == 4
        assert _rebuilds() >= 1

    def test_stale_sidecar_stamp_mismatch_rebuilds(self, tmp_path):
        # Sidecar from a previous life of the ledger file: offsets are
        # plausible but the tail digest no longer matches.
        path = tmp_path / "ledger.jsonl"
        _seed(AnalysisLedger(path), 4)
        sidecar = tmp_path / "ledger.jsonl.idx"
        stale = sidecar.read_bytes()
        path.unlink()
        sidecar.unlink()
        fresh = AnalysisLedger(path)
        _seed(fresh, 4, kind="fmeda")
        sidecar.write_bytes(stale)
        reopened = AnalysisLedger(path)
        entries = reopened.entries()
        assert len(entries) == 4
        assert all(e.kind == "fmeda" for e in entries)
        assert _rebuilds() >= 1

    def test_unterminated_tail_is_healed_on_append(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _seed(ledger, 2)
        _raw_append(path, _entry(8).to_dict(), terminate=False)
        assert len(ledger.entries()) == 3  # partial line still parses
        ledger.append(_entry(9))
        assert path.read_bytes().endswith(b"\n")
        assert len(ledger.entries()) == 4
        assert [e.seq for e in ledger.entries()] == [0, 1, 2, 3]

    def test_corrupt_ledger_lines_are_junk_in_both_paths(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _seed(ledger, 2)
        with open(path, "ab") as handle:
            handle.write(b"{ not json\n")
            handle.write(b'{"type": "artifact", "entry": "nope"}\n')
        _raw_append(path, _entry(3).to_dict())
        indexed = ledger.entries()
        assert _dicts(indexed) == _dicts(_reference_entries(path))
        assert [e.seq for e in indexed] == [0, 1, 2]


class TestIndexedReads:
    def test_latest_by_cache_key_picks_newest(self, tmp_path):
        ledger = AnalysisLedger(tmp_path / "ledger.jsonl")
        ledger.append(_entry(0, cache_key="k"))
        ledger.append(_entry(1, cache_key="other"))
        newest = ledger.append(_entry(2, cache_key="k"))
        hit = ledger.latest_by_cache_key("k")
        assert hit is not None and hit.entry_id == newest.entry_id
        assert ledger.latest_by_cache_key("absent") is None

    def test_artifact_folding_matches_scan(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        recorded = _seed(ledger, 3)
        ledger.attach_artifact(recorded[0].entry_id, tmp_path / "a.xlsx")
        ledger.attach_artifact(recorded[0].entry_id, tmp_path / "b.xlsx")
        ledger.attach_artifact(recorded[0].entry_id, tmp_path / "a.xlsx")
        indexed = ledger.entries()[0].artifacts
        assert indexed == _reference_entries(path)[0].artifacts
        assert len(indexed) == 2  # re-attaching the same path dedups

    def test_next_seq_from_index(self, tmp_path):
        ledger = AnalysisLedger(tmp_path / "ledger.jsonl")
        recorded = _seed(ledger, 4)
        assert [e.seq for e in recorded] == [0, 1, 2, 3]
        assert ledger.append(_entry(4)).seq == 4

    def test_concurrent_appends_stay_sequenced(self, tmp_path):
        ledger = AnalysisLedger(tmp_path / "ledger.jsonl")
        errors = []

        def writer(base):
            try:
                for i in range(10):
                    ledger.append(_entry(base * 100 + i))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        entries = ledger.entries()
        assert [e.seq for e in entries] == list(range(40))
        sidecar = tmp_path / "ledger.jsonl.idx"
        assert len(sidecar.read_text().splitlines()) == 40


class TestFailureHandling:
    def test_directory_at_sidecar_path(self, tmp_path):
        # The sidecar cannot be written: reads and appends are served from
        # the in-memory index, and every open rebuilds it.
        path = tmp_path / "ledger.jsonl"
        sidecar = tmp_path / "ledger.jsonl.idx"
        sidecar.mkdir()
        ledger = AnalysisLedger(path)
        recorded = _seed(ledger, 4)
        ledger.attach_artifact(recorded[0].entry_id, tmp_path / "wb.xlsx")
        _raw_append(path, _entry(9, kind="fmeda", cache_key="k").to_dict())
        seeks = _seeks()
        _assert_reference_reads(ledger, path, ["@0", "latest", "@9"])
        assert _seeks() > seeks
        assert ledger.index_status()["persisted"] is False
        assert sidecar.is_dir()
        assert not (tmp_path / "ledger.jsonl.idx.tmp").exists()
        rebuilds = _rebuilds()
        reopened = AnalysisLedger(path)
        _assert_reference_reads(reopened, path, ["@0", "latest"])
        assert _rebuilds() == rebuilds + 1
        reopened.append(_entry(10))
        assert _dicts(reopened.entries()) == _dicts(_reference_entries(path))

    def test_same_size_rewrite_rebuilds_and_retries(self, tmp_path):
        # Two lines swapped under an open handle: the size is unchanged
        # and both offsets still hold well-formed entries, so only the
        # line digest notices — one rebuild, then the retry succeeds.
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _twins(ledger, "ABCDE")
        assert len({len(line) for line in path.read_bytes().splitlines()}) == 1
        assert len(ledger.entries()) == 5  # index loaded and current
        _swap_lines(path, 1, 4)
        rebuilds, seeks = _rebuilds(), _seeks()
        _assert_reference_reads(ledger, path, ["@1", "@4", "latest"])
        assert _rebuilds() == rebuilds + 1
        assert _seeks() > seeks
        # The rebuild repaired the sidecar too: a new handle adopts it.
        assert _dicts(AnalysisLedger(path).entries()) == _dicts(
            _reference_entries(path)
        )
        assert _rebuilds() == rebuilds + 1

    def test_second_stale_seek_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        _twins(ledger, "ABC")
        assert len(ledger.entries()) == 3
        _swap_lines(path, 0, 2)
        monkeypatch.setattr(LedgerIndex, "_rebuild", lambda self: None)
        with pytest.raises(LedgerError, match="changed while reading"):
            ledger.entries()

    def test_unreadable_ledger_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.mkdir()
        (path / "filler").write_text("x")  # a non-empty directory
        with pytest.raises(LedgerError, match="cannot read analysis ledger"):
            AnalysisLedger(path).entries()
        with pytest.raises(LedgerError):
            AnalysisLedger(path).append(_entry(0))


class TestDifferential:
    """Indexed reads must equal the reference reader on randomized ledgers."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indexed_equals_scan(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "ledger.jsonl"
        writer = AnalysisLedger(path)
        kinds = ["fmea", "fmeda", "optimizer"]
        systems = ["psu", "grid", "pll"]
        recorded = []
        for i in range(rng.randint(30, 50)):
            roll = rng.random()
            if roll < 0.50 or not recorded:
                cache_key = (
                    f"key-{rng.randint(0, 5)}" if rng.random() < 0.5 else None
                )
                recorded.append(
                    writer.append(
                        _entry(
                            i,
                            kind=rng.choice(kinds),
                            system=rng.choice(systems),
                            cache_key=cache_key,
                        )
                    )
                )
            elif roll < 0.62:
                target = rng.choice(recorded)
                writer.attach_artifact(
                    target.entry_id, tmp_path / f"art-{i % 4}.xlsx"
                )
            elif roll < 0.72:
                # Foreign append: a valid entry the writer didn't index
                # synchronously.
                _raw_append(
                    path,
                    _entry(
                        1000 + i,
                        kind=rng.choice(kinds),
                        system=rng.choice(systems),
                    ).to_dict(),
                )
            elif roll < 0.80:
                with open(path, "ab") as handle:
                    handle.write(b"%% corrupt line %%\n")
            elif roll < 0.90:
                # Torn tail: a foreign write interrupted mid-line.
                blob = json.dumps(
                    _entry(2000 + i).to_dict(), sort_keys=True
                ).encode("utf-8")
                with open(path, "ab") as handle:
                    handle.write(blob[: rng.randint(1, len(blob) - 1)])
            else:
                # Truncation at an arbitrary byte, mid-line or not.
                with open(path, "r+b") as handle:
                    handle.truncate(rng.randint(0, path.stat().st_size))
            if rng.random() < 0.25:
                assert _dicts(writer.entries()) == _dicts(
                    _reference_entries(path)
                )

        total = len(_reference_entries(path))
        refs = ["latest", "HEAD", "@0", f"@{total - 1}", "@-1", f"@-{total}"]
        refs += [e.entry_id[:10] for e in _reference_entries(path)[:3]]
        refs += ["fmea", "@999", "zzzz-no-such-prefix"]
        _assert_reference_reads(writer, path, refs)

        # A handle opened from the sidecar the writer kept current ...
        rebuilds = _rebuilds()
        from_sidecar = AnalysisLedger(path)
        _assert_reference_reads(from_sidecar, path, refs)
        assert _rebuilds() == rebuilds
        # ... equals one that builds its index from the file.
        (tmp_path / "ledger.jsonl.idx").unlink()
        rebuilt = AnalysisLedger(path)
        _assert_reference_reads(rebuilt, path, refs)
        assert _rebuilds() == rebuilds + 1
        assert _dicts(from_sidecar.entries()) == _dicts(rebuilt.entries())
