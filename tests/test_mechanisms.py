"""Safety-mechanism catalogue tests (Table III format)."""

import pytest

from repro.safety.mechanisms import (
    Deployment,
    MechanismError,
    MechanismSpec,
    SafetyMechanismModel,
    load_mechanism_table,
    save_mechanism_table,
)


class TestMechanismSpec:
    def test_coverage_bounds(self):
        with pytest.raises(MechanismError):
            MechanismSpec("MCU", "RAM Failure", "ECC", 1.5)
        with pytest.raises(MechanismError):
            MechanismSpec("MCU", "RAM Failure", "ECC", -0.1)

    def test_negative_cost_rejected(self):
        with pytest.raises(MechanismError):
            MechanismSpec("MCU", "RAM Failure", "ECC", 0.9, -1.0)


class TestCatalogue:
    @pytest.fixture
    def catalogue(self):
        return SafetyMechanismModel(
            [
                MechanismSpec("MCU", "RAM Failure", "ECC", 0.99, 2.0),
                MechanismSpec("MCU", "RAM Failure", "Scrubbing", 0.90, 1.0),
                MechanismSpec("CPU", "Crash", "Watchdog", 0.70, 1.0),
            ]
        )

    def test_options_for(self, catalogue):
        options = catalogue.options_for("MCU", "RAM Failure")
        assert {spec.name for spec in options} == {"ECC", "Scrubbing"}
        assert catalogue.options_for("MCU", "Meltdown") == []

    def test_class_and_mode_matching_case_insensitive(self, catalogue):
        assert catalogue.options_for("mcu", "ram failure")

    def test_mc_synonym(self, catalogue):
        assert catalogue.options_for("MC", "RAM Failure")

    def test_options_keep_catalogue_order_across_spellings(self, catalogue):
        # Specs added later under another spelling of the same pair join it
        # in catalogue order; the caller gets its own list.
        catalogue.add(MechanismSpec(" mc ", "ram failure ", "Parity", 0.6, 0.5))
        options = catalogue.options_for("MCU", "RAM Failure")
        assert [spec.name for spec in options] == ["ECC", "Scrubbing", "Parity"]
        options.clear()
        assert len(catalogue.options_for("mc", "RAM FAILURE")) == 3

    def test_best_for_prefers_coverage_then_cost(self):
        catalogue = SafetyMechanismModel(
            [
                MechanismSpec("X", "F", "cheap", 0.9, 1.0),
                MechanismSpec("X", "F", "pricey", 0.9, 5.0),
                MechanismSpec("X", "F", "better", 0.95, 9.0),
            ]
        )
        assert catalogue.best_for("X", "F").name == "better"
        catalogue2 = SafetyMechanismModel(
            [
                MechanismSpec("X", "F", "cheap", 0.9, 1.0),
                MechanismSpec("X", "F", "pricey", 0.9, 5.0),
            ]
        )
        assert catalogue2.best_for("X", "F").name == "cheap"
        assert catalogue2.best_for("X", "Nope") is None

    def test_deploy_named(self, catalogue):
        deployment = catalogue.deploy("MC1", "MCU", "RAM Failure", "Scrubbing")
        assert deployment == Deployment(
            "MC1", "RAM Failure", "Scrubbing", 0.90, 1.0
        )

    def test_deploy_default_picks_best(self, catalogue):
        assert catalogue.deploy("MC1", "MCU", "RAM Failure").mechanism == "ECC"

    def test_deploy_unknown_rejected(self, catalogue):
        with pytest.raises(MechanismError):
            catalogue.deploy("MC1", "MCU", "RAM Failure", "Nonexistent")
        with pytest.raises(MechanismError):
            catalogue.deploy("X1", "FPGA", "Bitrot")


class TestTableIO:
    TABLE_III = (
        "Component,Failure_Mode,Safety_Mechanism,Coverage,Cost(hrs)\n"
        "MCU,RAM Failure,ECC,99%,2.0\n"
    )

    def test_load_table_iii(self, tmp_path):
        path = tmp_path / "sm.csv"
        path.write_text(self.TABLE_III)
        catalogue = load_mechanism_table(path)
        spec = catalogue.specs()[0]
        assert spec.name == "ECC"
        assert spec.coverage == pytest.approx(0.99)
        assert spec.cost == 2.0

    def test_coverage_as_plain_percent_number(self, tmp_path):
        path = tmp_path / "sm.csv"
        path.write_text(
            "Component,Failure_Mode,Safety_Mechanism,Coverage,Cost(hrs)\n"
            "MCU,RAM Failure,ECC,99,2.0\n"
        )
        catalogue = load_mechanism_table(path)
        assert catalogue.specs()[0].coverage == pytest.approx(0.99)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "sm.csv"
        path.write_text("Component,Failure_Mode\nMCU,RAM Failure\n")
        with pytest.raises(MechanismError, match="missing column"):
            load_mechanism_table(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "sm.csv"
        path.write_text(
            "Component,Failure_Mode,Safety_Mechanism,Coverage,Cost(hrs)\n"
        )
        with pytest.raises(MechanismError, match="no safety"):
            load_mechanism_table(path)

    def test_roundtrip(self, tmp_path, psu_mechanisms):
        path = save_mechanism_table(psu_mechanisms, tmp_path / "sm.csv")
        loaded = load_mechanism_table(path)
        assert len(loaded) == len(psu_mechanisms)
        original = psu_mechanisms.specs()[0]
        clone = loaded.specs()[0]
        assert clone == original
