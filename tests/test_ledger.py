"""Analysis-ledger storage: determinism, references, artifacts, robustness."""

import json
import math

import pytest

from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.obs.ledger import (
    AnalysisLedger,
    LedgerEntry,
    LedgerError,
    content_digest_of,
    model_digest,
    record_fmea,
    record_fmeda,
    reliability_digest,
)
from repro.safety import run_simulink_fmea
from repro.safety.fmeda import run_fmeda
from repro.safety.mechanisms import Deployment
from repro.safety.metrics import asil_from_spfm, spfm


@pytest.fixture
def ledger(tmp_path):
    return AnalysisLedger(tmp_path / "ledger.jsonl")


def _record(ledger, fmea, model, reliability, **kwargs):
    value = spfm(fmea, ())
    return record_fmea(
        ledger,
        fmea,
        model=model,
        reliability=reliability,
        spfm=value,
        asil=asil_from_spfm(value),
        **kwargs,
    )


class TestDigests:
    def test_content_digest_ignores_float_noise(self):
        assert content_digest_of({"x": 0.1 + 0.2}) == content_digest_of(
            {"x": 0.3}
        )

    def test_content_digest_key_order_independent(self):
        assert content_digest_of({"a": 1, "b": 2}) == content_digest_of(
            {"b": 2, "a": 1}
        )

    def test_model_digest_stable_and_change_sensitive(self, psu_simulink):
        from repro.casestudies.power_supply import build_power_supply_simulink

        assert model_digest(psu_simulink) == model_digest(
            build_power_supply_simulink()
        )
        assert model_digest(psu_simulink) != ""
        assert model_digest(None) == ""
        assert model_digest(object()) == ""  # unserialisable -> ''

    def test_model_digest_sees_parameters_below_rounding(
        self, ledger, psu_reliability
    ):
        """A diode's saturation current of 1e-12 A rounds to 0.0 at 9
        decimal places, yet moving it to 1e-14 A moves the circuit's node
        voltages: the model digest, the staleness check and the diff must
        all see the change."""
        from repro.casestudies.power_supply import build_power_supply_simulink
        from repro.obs.history import diff_entries, stale_entries

        before = build_power_supply_simulink()
        after = build_power_supply_simulink()
        diode = after.find_block("D1")
        assert diode.param("saturation_current") == 1e-12
        diode.set_param("saturation_current", 1e-14)
        assert model_digest(before) != model_digest(after)
        recorded = [
            _record(
                ledger,
                run_simulink_fmea(
                    model, psu_reliability, sensors=["CS1"],
                    assume_stable=ASSUMED_STABLE,
                ),
                model,
                psu_reliability,
            )
            for model in (before, after)
        ]
        assert [entry.seq for entry in stale_entries(
            ledger, model_digest(after)
        )] == [recorded[0].seq]
        assert diff_entries(*ledger.entries()).model_changed

    def test_reliability_digest(self, psu_reliability):
        assert reliability_digest(psu_reliability) != ""
        assert reliability_digest(psu_reliability) == reliability_digest(
            psu_reliability
        )
        assert reliability_digest(None) == ""


class TestDeterminism:
    def test_rerun_yields_identical_entry_id(
        self, ledger, psu_simulink, psu_reliability
    ):
        """The acceptance criterion: re-running the same model + config
        appends an entry with an identical content digest."""
        ids = []
        for _ in range(2):
            fmea = run_simulink_fmea(
                psu_simulink,
                psu_reliability,
                sensors=["CS1"],
                assume_stable=ASSUMED_STABLE,
            )
            entry = _record(ledger, fmea, psu_simulink, psu_reliability)
            ids.append(entry.entry_id)
        assert ids[0] == ids[1]
        first, second = ledger.entries()
        assert first.content_digest == second.content_digest
        # Execution circumstances differ without moving the digest.
        assert first.seq != second.seq

    def test_timestamp_and_metrics_excluded_from_digest(self):
        a = LedgerEntry(kind="fmea", system="S", spfm=0.5, asil="ASIL-A")
        b = LedgerEntry(
            kind="fmea",
            system="S",
            spfm=0.5,
            asil="ASIL-A",
            timestamp=123.0,
            git="abc",
            metrics={"wall_time": 9.9},
            trace="trace.jsonl",
        )
        assert a.content_digest == b.content_digest

    def test_config_change_moves_digest(self):
        a = LedgerEntry(kind="fmea", system="S", config={"threshold": 0.1})
        b = LedgerEntry(kind="fmea", system="S", config={"threshold": 0.2})
        assert a.content_digest != b.content_digest


class TestReferences:
    def _seed(self, ledger, n=3):
        entries = []
        for index in range(n):
            entries.append(
                ledger.append(
                    LedgerEntry(
                        kind="fmea", system="S", config={"i": index}
                    )
                )
            )
        return entries

    def test_sequence_and_negative_refs(self, ledger):
        entries = self._seed(ledger)
        assert ledger.resolve("@0").config == {"i": 0}
        assert ledger.resolve("1").config == {"i": 1}
        assert ledger.resolve("@-1").config == {"i": 2}
        assert ledger.resolve("latest").config == {"i": 2}
        assert ledger.resolve("HEAD").config == {"i": 2}
        assert ledger.resolve(entries[1].entry_id).config == {"i": 1}

    def test_unique_prefix_resolves(self, ledger):
        entries = self._seed(ledger)
        target = entries[0]
        assert (
            ledger.resolve(target.entry_id[:10]).entry_id == target.entry_id
        )
        assert (
            ledger.resolve(target.content_digest[:16]).entry_id
            == target.entry_id
        )

    def test_bad_refs_raise(self, ledger):
        self._seed(ledger)
        with pytest.raises(LedgerError, match="out of range"):
            ledger.resolve("@9")
        with pytest.raises(LedgerError, match="no ledger entry"):
            ledger.resolve("zzzz")
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.resolve("fmea-")

    def test_empty_ledger_raises(self, ledger):
        with pytest.raises(LedgerError, match="no entries"):
            ledger.resolve("latest")

    def test_identical_rerun_prefers_latest(self, ledger):
        first = ledger.append(LedgerEntry(kind="fmea", system="S"))
        second = ledger.append(LedgerEntry(kind="fmea", system="S"))
        assert first.entry_id == second.entry_id
        assert ledger.resolve(first.entry_id).seq == second.seq


class TestArtifacts:
    def test_attach_and_fold(self, ledger):
        entry = ledger.append(LedgerEntry(kind="fmeda", system="S"))
        ledger.attach_artifact(entry, "out/fmeda.csv")
        assert entry.artifacts == ["out/fmeda.csv"]
        # Re-read from disk: the artifact line folds into the entry.
        reread = ledger.entries()[0]
        assert reread.artifacts == ["out/fmeda.csv"]

    def test_artifact_attaches_to_latest_duplicate(self, ledger):
        ledger.append(LedgerEntry(kind="fmeda", system="S"))
        second = ledger.append(LedgerEntry(kind="fmeda", system="S"))
        ledger.attach_artifact(second.entry_id, "fmeda.csv")
        first_read, second_read = ledger.entries()
        assert first_read.artifacts == []
        assert second_read.artifacts == ["fmeda.csv"]


class TestRobustness:
    def test_corrupt_lines_skipped(self, ledger):
        ledger.append(LedgerEntry(kind="fmea", system="S"))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "entry", "kind": "fmea", "sys\n')  # truncated
            handle.write("not json at all\n")
            handle.write("\n")
        ledger.append(LedgerEntry(kind="fmea", system="T"))
        entries = ledger.entries()
        assert [entry.system for entry in entries] == ["S", "T"]
        assert [entry.seq for entry in entries] == [0, 1]

    def test_round_trip_preserves_payload(
        self, ledger, psu_fmea, psu_simulink, psu_reliability
    ):
        recorded = _record(
            ledger,
            psu_fmea,
            psu_simulink,
            psu_reliability,
            config={"threshold": 0.1},
        )
        reread = ledger.entries()[0]
        assert reread.entry_id == recorded.entry_id
        assert reread.rows == recorded.rows
        assert reread.row_digests == recorded.row_digests
        assert reread.config == {"threshold": 0.1}
        assert reread.fingerprint == recorded.fingerprint != ""
        assert reread.metrics.get("jobs") == psu_fmea.stats.jobs

    def test_lines_are_sorted_json(self, ledger):
        ledger.append(LedgerEntry(kind="fmea", system="S"))
        line = ledger.path.read_text(encoding="utf-8").splitlines()[0]
        payload = json.loads(line)
        assert list(payload) == sorted(payload)
        assert payload["type"] == "entry"
        assert payload["v"] == 1


class TestRecorders:
    def test_record_fmeda_captures_verdict_and_deployments(
        self, ledger, psu_fmea, psu_simulink, psu_reliability
    ):
        fmeda = run_fmeda(
            psu_fmea, [Deployment("MC1", "RAM Failure", "ECC", 0.99, 2.0)]
        )
        entry = record_fmeda(
            ledger, fmeda, model=psu_simulink, reliability=psu_reliability
        )
        assert entry.kind == "fmeda"
        assert entry.spfm == pytest.approx(fmeda.spfm)
        assert entry.asil == fmeda.asil
        deployments = entry.config["deployments"]
        assert deployments[0]["mechanism"] == "ECC"
        assert not math.isnan(entry.metrics["diagnostic_coverage"])
