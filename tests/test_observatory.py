"""Iteration observatory: diffs, regression gate, staleness, DECISIVE wiring."""

import json

import pytest

from repro.assurance import (
    ArtifactReference,
    Goal,
    Solution,
    check_evidence_freshness,
)
from repro.casestudies.systems import build_system_a, system_mechanisms
from repro.cli import main
from repro.decisive import DecisiveProcess
from repro.obs.history import (
    baseline_for,
    diff_entries,
    history_rows,
    render_history,
    stale_entries,
    watch_regressions,
)
from repro.obs.ledger import AnalysisLedger, LedgerEntry
from repro.reliability import standard_reliability_model
from repro.safety.report import iteration_timeline_sheet, save_decisive_workbook


@pytest.fixture
def ledger(tmp_path):
    return AnalysisLedger(tmp_path / "ledger.jsonl")


def _fmeda_entry(
    spfm=0.95,
    asil="ASIL-B",
    rows=(),
    model="m1",
    wall=None,
    config=None,
):
    metrics = {}
    if wall is not None:
        metrics["wall_time"] = wall
    return LedgerEntry(
        kind="fmeda",
        system="S",
        spfm=spfm,
        asil=asil,
        model_digest=model,
        rows=list(rows),
        metrics=metrics,
        config=dict(config or {}),
    )


def _row(component, failure_mode, safety_related=True, residual=1.0):
    return {
        "component": component,
        "failure_mode": failure_mode,
        "fit": 10.0,
        "distribution": 0.5,
        "safety_related": safety_related,
        "safety_mechanism": "",
        "sm_coverage": 0.0,
        "residual_rate": residual,
    }


class TestDiffEntries:
    def test_identical_entries_unchanged(self, ledger):
        a = ledger.append(_fmeda_entry(rows=[_row("R1", "Open")]))
        b = ledger.append(_fmeda_entry(rows=[_row("R1", "Open")], wall=9.0))
        diff = diff_entries(a, b)
        assert diff.identical and diff.unchanged
        assert "no changes" in diff.summary()

    def test_detects_provenance_and_verdict_movement(self):
        before = _fmeda_entry(
            spfm=0.95, asil="ASIL-B", rows=[_row("R1", "Open", residual=0.0)]
        )
        after = _fmeda_entry(
            spfm=0.40,
            asil="ASIL-A",
            rows=[_row("R1", "Open", residual=5.0), _row("R2", "Short")],
            model="m2",
            config={"target": "ASIL-B"},
        )
        diff = diff_entries(before, after)
        assert diff.model_changed and diff.config_changed
        assert not diff.reliability_changed
        assert diff.spfm_delta == pytest.approx(-0.55)
        assert diff.asil_flipped
        assert diff.added_rows == [("R2", "Short")]
        # R1 lost its full coverage, R2 arrived uncovered: both new SPFs.
        assert diff.new_single_points == [("R1", "Open"), ("R2", "Short")]
        summary = diff.summary()
        assert "verdict flip" in summary
        assert "new single points" in summary

    def test_wall_delta_and_to_dict(self):
        before = _fmeda_entry(wall=2.0)
        after = _fmeda_entry(wall=3.0)
        diff = diff_entries(before, after)
        assert diff.wall_delta_pct == pytest.approx(50.0)
        payload = json.loads(json.dumps(diff.to_dict()))
        assert payload["identical"] is True
        assert payload["wall_delta_pct"] == pytest.approx(50.0)

    def test_resolved_single_points(self):
        before = _fmeda_entry(rows=[_row("R1", "Open", residual=3.0)])
        after = _fmeda_entry(rows=[_row("R1", "Open", residual=0.0)])
        diff = diff_entries(before, after)
        assert diff.resolved_single_points == [("R1", "Open")]
        assert diff.new_single_points == []


class TestWatchRegressions:
    def test_clean_diff_passes(self):
        diff = diff_entries(_fmeda_entry(), _fmeda_entry())
        assert watch_regressions(diff) == []

    def test_spfm_drop_and_tolerance(self):
        diff = diff_entries(_fmeda_entry(spfm=0.95), _fmeda_entry(spfm=0.90))
        kinds = [r.kind for r in watch_regressions(diff)]
        assert kinds == ["spfm"]
        assert watch_regressions(diff, max_spfm_drop=0.10) == []

    def test_asil_downgrade_flagged_upgrade_not(self):
        down = diff_entries(
            _fmeda_entry(asil="ASIL-B"), _fmeda_entry(asil="ASIL-A")
        )
        assert "asil" in [r.kind for r in watch_regressions(down)]
        up = diff_entries(
            _fmeda_entry(asil="ASIL-B"), _fmeda_entry(asil="ASIL-C")
        )
        assert "asil" not in [r.kind for r in watch_regressions(up)]

    def test_new_single_point_flagged(self):
        diff = diff_entries(
            _fmeda_entry(rows=[]), _fmeda_entry(rows=[_row("R9", "Short")])
        )
        regressions = watch_regressions(diff)
        assert any(
            r.kind == "single-point" and "R9/Short" in r.message
            for r in regressions
        )

    def test_wall_time_budget(self):
        diff = diff_entries(_fmeda_entry(wall=1.0), _fmeda_entry(wall=2.0))
        assert [r.kind for r in watch_regressions(diff)] == ["wall-time"]
        assert watch_regressions(diff, max_walltime_pct=150.0) == []
        assert watch_regressions(diff, max_walltime_pct=None) == []

    def test_strategy_inversion_flagged(self):
        """A candidate entry whose recorded per-strategy timings show the
        incremental strategy losing to naive is a regression in itself."""
        after = _fmeda_entry()
        after.meta["timings"] = {"naive": 1.0, "incremental": 1.7}
        diff = diff_entries(_fmeda_entry(), after)
        regressions = watch_regressions(diff)
        assert [r.kind for r in regressions] == ["strategy"]
        assert "incremental" in regressions[0].message

    def test_strategy_timings_faster_than_naive_pass(self):
        after = _fmeda_entry()
        after.meta["timings"] = {"naive": 1.0, "incremental": 0.4}
        diff = diff_entries(_fmeda_entry(), after)
        assert watch_regressions(diff) == []

    def test_entries_without_timings_pass(self):
        diff = diff_entries(_fmeda_entry(), _fmeda_entry())
        assert watch_regressions(diff) == []

    def test_scaling_probe_over_budget_flagged(self):
        """The service benchmark stamps latency-scaling ratios on its
        ledger entry; a ratio past its budget means a lookup path went
        super-constant again."""
        after = _fmeda_entry()
        after.meta["scaling"] = {
            "cache_hit_p99": {"ratio": 3.2, "budget": 1.5},
            "coalescing": {"ratio": 1.0, "budget": 1.5},
        }
        regressions = watch_regressions(diff_entries(_fmeda_entry(), after))
        assert [r.kind for r in regressions] == ["scaling"]
        assert "cache_hit_p99" in regressions[0].message
        assert "3.2" in regressions[0].message

    def test_scaling_within_budget_or_malformed_pass(self):
        after = _fmeda_entry()
        after.meta["scaling"] = {
            "cache_hit_p99": {"ratio": 1.2, "budget": 1.5},
            "junk": "not-a-probe",
            "no_ratio": {"budget": 2.0},
        }
        assert watch_regressions(diff_entries(_fmeda_entry(), after)) == []

    def test_baseline_for_matches_kind_and_system(self, ledger):
        first = ledger.append(_fmeda_entry(spfm=0.9))
        ledger.append(
            LedgerEntry(kind="fmea", system="S")
        )  # different kind: skipped
        ledger.append(
            LedgerEntry(kind="fmeda", system="T")
        )  # different system: skipped
        candidate = ledger.append(_fmeda_entry(spfm=0.8))
        baseline = baseline_for(ledger, candidate)
        assert baseline is not None and baseline.seq == first.seq
        assert baseline_for(ledger, ledger.entries()[0]) is None


class TestHistoryRendering:
    def test_history_rows_and_table(self, ledger):
        ledger.append(_fmeda_entry(wall=1.5))
        rows = history_rows(ledger.entries())
        assert rows[0]["Kind"] == "fmeda"
        assert rows[0]["SPFM"] == "95.00%"
        assert rows[0]["Wall_s"] == "1.500"
        text = render_history(ledger.entries())
        assert "fmeda" in text and "Timestamp_UTC" in text
        assert render_history([]) == "(ledger has no entries)"

    def test_iteration_timeline_sheet(self, ledger):
        for index, spfm in enumerate((0.5, 0.9)):
            entry = _fmeda_entry(spfm=spfm)
            entry.kind = "decisive-iteration"
            entry.config["iteration"] = index
            ledger.append(entry)
        sheet = iteration_timeline_sheet(ledger.entries())
        assert sheet is not None and len(sheet.rows) == 2
        assert sheet.rows[1]["SPFM_Delta"] == "+40.00%"
        assert iteration_timeline_sheet([]) is None


class TestStaleEvidence:
    def test_stale_entries_by_model_digest(self, ledger):
        ledger.append(_fmeda_entry(model="m1"))
        ledger.append(_fmeda_entry(model="m2"))
        ledger.append(LedgerEntry(kind="fmea", system="S"))  # no digest
        stale = stale_entries(ledger, "m2")
        assert [entry.model_digest for entry in stale] == ["m1"]
        assert stale_entries(ledger, "") == []

    def test_check_evidence_freshness_cycle(self, ledger, tmp_path):
        artifact = tmp_path / "fmeda.csv"
        artifact.write_text("Component\n", encoding="utf-8")
        root = Goal("G1", "system is safe")
        root.add_support(
            Solution(
                "Sn1",
                "generated FMEDA",
                artifact=ArtifactReference("fmeda", str(artifact)),
            )
        )
        # Unknown: ledger holds nothing for the artifact yet.
        report = check_evidence_freshness(
            root, ledger, current_model_digest="m1"
        )
        assert [item.status for item in report.items] == ["unknown"]
        assert report.ok  # unknown is not *provably* stale

        entry = ledger.append(_fmeda_entry(model="m1"))
        ledger.attach_artifact(entry, artifact)
        fresh = check_evidence_freshness(
            root, ledger, current_model_digest="m1"
        )
        assert [item.status for item in fresh.items] == ["fresh"]

        # The design changes: the same evidence is now stale...
        stale = check_evidence_freshness(
            root, ledger, current_model_digest="m2"
        )
        assert [item.status for item in stale.items] == ["stale"]
        assert not stale.ok
        assert "STALE" in stale.summary()

        # ...until the analysis is re-run and the artifact re-exported.
        rerun = ledger.append(_fmeda_entry(model="m2"))
        ledger.attach_artifact(rerun, artifact)
        cleared = check_evidence_freshness(
            root, ledger, current_model_digest="m2"
        )
        assert [item.status for item in cleared.items] == ["fresh"]


class TestDecisiveWiring:
    @pytest.fixture(scope="class")
    def decisive_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("decisive") / "ledger.jsonl"
        ledger = AnalysisLedger(path)
        process = DecisiveProcess(
            build_system_a(),
            standard_reliability_model(),
            system_mechanisms(),
            target_asil="ASIL-B",
            ledger=ledger,
        )
        return process.run(), ledger

    def test_iterations_recorded_with_diffs(self, decisive_run):
        log, ledger = decisive_run
        iterations = ledger.entries(kind="decisive-iteration")
        assert len(iterations) == len(log.iterations) >= 2
        for record, entry in zip(log.iterations, iterations):
            assert record.ledger_entry == entry.entry_id
            assert entry.config["iteration"] == record.index
        # The first record has no predecessor; later ones carry the diff.
        assert log.iterations[0].diff_summary == ""
        assert log.iterations[1].diff_summary != ""
        assert ledger.latest(kind="fmeda") is not None

    def test_decisive_workbook_with_timeline(self, decisive_run, tmp_path):
        log, ledger = decisive_run
        location = save_decisive_workbook(
            log.concept.fmeda,
            ledger.entries(kind="decisive-iteration"),
            tmp_path / "decisive",
        )
        names = {path.name for path in location.iterdir()}
        assert {"FMEDA.csv", "Summary.csv", "Iteration_Timeline.csv"} <= names

    def test_runs_without_ledger(self):
        process = DecisiveProcess(
            build_system_a(),
            standard_reliability_model(),
            system_mechanisms(),
            target_asil="ASIL-B",
        )
        log = process.run()
        assert log.met_target
        assert all(record.ledger_entry == "" for record in log.iterations)


class TestCliVerbs:
    @pytest.fixture
    def demo_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        assert main(["demo", "--ledger", str(path)]) == 0
        assert main(["demo", "--ledger", str(path)]) == 0
        return path

    def test_history_diff_and_gate(self, demo_ledger, capsys):
        assert main(["history", "--ledger", str(demo_ledger)]) == 0
        out = capsys.readouterr().out
        assert "fmea" in out and "fmeda" in out

        # Determinism end-to-end: two demo runs diff to "no changes".
        assert (
            main(["diff", "--ledger", str(demo_ledger), "@0", "fmea-"]) == 0
        )
        assert "no changes" in capsys.readouterr().out
        assert main(["watch-regressions", "--ledger", str(demo_ledger)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_gate_fails_on_injected_regression(self, demo_ledger, capsys):
        ledger = AnalysisLedger(demo_ledger)
        worse = ledger.latest(kind="fmeda")
        worse.spfm = (worse.spfm or 1.0) - 0.5
        worse.asil = "QM"
        ledger.append(worse)
        assert main(["watch-regressions", "--ledger", str(demo_ledger)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_json_outputs(self, demo_ledger, capsys):
        assert (
            main(["history", "--ledger", str(demo_ledger), "--json"]) == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["Seq"] == 0
        assert (
            main(
                ["diff", "--ledger", str(demo_ledger), "@0", "@0", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True
