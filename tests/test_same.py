"""SAME facade, workspace and CLI tests."""

import pytest

from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.cli import main
from repro.same import SAME, Workspace
from repro.same.workspace import WorkspaceError


@pytest.fixture
def same(psu_simulink, psu_reliability, psu_mechanisms):
    environment = SAME()
    environment.open_simulink(psu_simulink)
    environment.load_reliability(psu_reliability)
    environment.load_mechanisms(psu_mechanisms)
    return environment


class TestFacadeFlow:
    def test_fmea_then_metrics(self, same):
        fmea = same.run_fmea_simulink(
            sensors=["CS1"], assume_stable=ASSUMED_STABLE
        )
        assert sorted(fmea.safety_related_components()) == ["D1", "L1", "MC1"]
        value, asil = same.calculate_spfm()
        assert value == pytest.approx(0.0538, abs=5e-4)

    def test_deploy_and_fmeda(self, same):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        deployment = same.deploy("MC1", "RAM Failure", "ECC")
        assert deployment.coverage == pytest.approx(0.99)
        result = same.run_fmeda()
        assert result.asil == "ASIL-B"

    def test_deploy_unknown_row_rejected(self, same):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        with pytest.raises(ValueError, match="no row"):
            same.deploy("ZZ", "Pop")

    def test_search_deployment(self, same):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        plan = same.search_deployment("ASIL-B")
        assert plan is not None and plan.meets("ASIL-B")
        assert same.deployments == list(plan.deployments)

    def test_pareto(self, same):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        front = same.pareto()
        assert len(front) == 2  # {no SM} and {ECC}
        assert front[-1].spfm > front[0].spfm

    def test_import_export_simulink(self, same, psu_simulink):
        ssam = same.import_simulink()
        assert ssam.element_count() > 50
        back = same.export_simulink()
        assert back.to_dict() == psu_simulink.to_dict()

    def test_propagate_changes(self, same):
        same.import_simulink()
        from repro.ssam import architecture as arch

        mc1 = same.ssam_model.find_by_name("MC1")
        mc1.add("safetyMechanisms", arch.safety_mechanism("ECC", 0.99))
        assert same.propagate_changes() == 1

    def test_run_decisive_on_ssam(self, psu_ssam, psu_reliability, psu_mechanisms):
        environment = SAME()
        environment.open_ssam(psu_ssam)
        environment.load_reliability(psu_reliability)
        environment.load_mechanisms(psu_mechanisms)
        log = environment.run_decisive("ASIL-B")
        assert log.met_target
        assert environment.last_fmeda.asil == "ASIL-B"

    def test_exports(self, same, tmp_path):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        assert same.export_fmea(tmp_path / "fmea").exists()
        assert same.export_fmeda(tmp_path / "fmeda").exists()

    def test_missing_prerequisites_explained(self):
        environment = SAME()
        with pytest.raises(ValueError, match="open_simulink"):
            environment.run_fmea_simulink()
        with pytest.raises(ValueError, match="run_fmea"):
            environment.calculate_spfm()


class TestOneSearchEngine:
    """Every search is the exact Pareto DP: no layer takes an engine."""

    def test_facade_and_process_take_no_engine(
        self, same, psu_ssam, psu_reliability, psu_mechanisms
    ):
        from repro.decisive.process import DecisiveProcess

        with pytest.raises(TypeError, match="strategy"):
            same.search_deployment("ASIL-B", strategy="greedy")
        with pytest.raises(TypeError, match="strategy"):
            same.pareto(strategy="dp")
        with pytest.raises(TypeError, match="search_strategy"):
            same.run_decisive("ASIL-B", search_strategy="greedy")
        with pytest.raises(TypeError, match="search_strategy"):
            DecisiveProcess(
                psu_ssam, psu_reliability, psu_mechanisms,
                search_strategy="greedy",
            )

    @pytest.mark.parametrize(
        "verb,required",
        [
            ("fmeda", ["--model", "m", "--reliability", "r",
                       "--mechanisms", "s"]),
            ("decisive", ["--ssam", "m", "--reliability", "r",
                          "--mechanisms", "s"]),
        ],
    )
    def test_search_strategy_flag_is_unknown(self, verb, required, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, *required, "--search-strategy", "dp"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --search-strategy" in (
            capsys.readouterr().err
        )


class TestWorkspace:
    def test_simulink_roundtrip(self, tmp_path, psu_simulink):
        workspace = Workspace(tmp_path / "ws")
        workspace.save_simulink("psu", psu_simulink)
        loaded = workspace.load_simulink("psu")
        assert loaded.to_dict() == psu_simulink.to_dict()
        assert workspace.artefacts("simulink") == ["psu"]

    def test_ssam_roundtrip(self, tmp_path, psu_ssam):
        workspace = Workspace(tmp_path / "ws")
        workspace.save_ssam("psu", psu_ssam)
        assert workspace.load_ssam("psu").element_count() == (
            psu_ssam.element_count()
        )

    def test_index_persists_across_instances(self, tmp_path, psu_simulink):
        Workspace(tmp_path / "ws").save_simulink("psu", psu_simulink)
        reopened = Workspace(tmp_path / "ws")
        assert reopened.kind_of("psu") == "simulink"

    def test_unknown_artefact(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        with pytest.raises(WorkspaceError):
            workspace.path_of("ghost")

    def test_import_file(self, tmp_path, psu_reliability):
        from repro.reliability.sources import save_reliability_table

        source = save_reliability_table(psu_reliability, tmp_path / "rel.csv")
        workspace = Workspace(tmp_path / "ws")
        workspace.import_file("reliability", "table", source)
        assert workspace.load_reliability("reliability").lookup("Diode").fit == 10

    def test_import_missing_file(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        with pytest.raises(WorkspaceError):
            workspace.import_file("x", "table", tmp_path / "nope.csv")


class TestCli:
    @pytest.fixture
    def artefacts(self, tmp_path, psu_simulink, psu_reliability, psu_mechanisms):
        from repro.reliability.sources import save_reliability_table
        from repro.safety.mechanisms import save_mechanism_table

        model = psu_simulink.save(tmp_path / "psu.slx.json")
        reliability = save_reliability_table(
            psu_reliability, tmp_path / "rel.csv"
        )
        mechanisms = save_mechanism_table(psu_mechanisms, tmp_path / "sm.csv")
        return model, reliability, mechanisms, tmp_path

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "96.77%" in out and "ASIL-B" in out

    def test_fmea_command(self, artefacts, capsys):
        model, reliability, _, _ = artefacts
        code = main(
            [
                "fmea",
                "--model",
                str(model),
                "--reliability",
                str(reliability),
                "--sensor",
                "CS1",
                "--assume-stable",
                "DC1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SPFM = 5.38%" in out

    def test_fmeda_command_reaches_target(self, artefacts, capsys):
        model, reliability, mechanisms, tmp = artefacts
        code = main(
            [
                "fmeda",
                "--model",
                str(model),
                "--reliability",
                str(reliability),
                "--mechanisms",
                str(mechanisms),
                "--target",
                "ASIL-B",
                "--sensor",
                "CS1",
                "--assume-stable",
                "DC1",
                "--out",
                str(tmp / "fmeda"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieves ASIL-B" in out
        assert (tmp / "fmeda").exists()

    def test_fmeda_unreachable_target(self, artefacts, capsys):
        model, reliability, mechanisms, _ = artefacts
        code = main(
            [
                "fmeda",
                "--model",
                str(model),
                "--reliability",
                str(reliability),
                "--mechanisms",
                str(mechanisms),
                "--target",
                "ASIL-D",
                "--sensor",
                "CS1",
                "--assume-stable",
                "DC1",
            ]
        )
        assert code == 1

    def test_transform_command(self, artefacts, capsys):
        model, _, _, tmp = artefacts
        code = main(
            ["transform", "--model", str(model), "--out", str(tmp / "out.json")]
        )
        assert code == 0
        assert (tmp / "out.json").exists()

    def test_validate_command(self, artefacts, tmp_path, psu_ssam):
        path = psu_ssam.save(tmp_path / "psu.ssam.json")
        assert main(["validate", "--ssam", str(path)]) == 0

    def test_monitor_command(self, tmp_path, psu_ssam):
        from repro.ssam.base import text_of

        for component in psu_ssam.elements_of_kind("Component"):
            if text_of(component) == "CS1":
                component.set("dynamic", True)
        path = psu_ssam.save(tmp_path / "psu.ssam.json")
        out = tmp_path / "monitor.py"
        assert main(["monitor", "--ssam", str(path), "--out", str(out)]) == 0
        assert "CS1.I" in out.read_text()


class TestCliExtendedCommands:
    @pytest.fixture
    def ssam_file(self, tmp_path, psu_ssam):
        return psu_ssam.save(tmp_path / "psu.ssam.json")

    def test_fta_command(self, ssam_file, capsys):
        from repro.casestudies.power_supply import data_path

        code = main(
            [
                "fta",
                "--ssam",
                str(ssam_file),
                "--reliability",
                str(data_path("reliability_table_ii.csv")),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "{MC1:RAM Failure}" in out
        assert "consistent        : True" in out

    def test_decisive_command(self, ssam_file, capsys):
        from repro.casestudies.power_supply import data_path

        code = main(
            [
                "decisive",
                "--ssam",
                str(ssam_file),
                "--reliability",
                str(data_path("reliability_table_ii.csv")),
                "--mechanisms",
                str(data_path("mechanisms_table_iii.csv")),
                "--target",
                "ASIL-B",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TARGET MET" in out and "96.77%" in out

    def test_decisive_unreachable_target(self, ssam_file, capsys):
        from repro.casestudies.power_supply import data_path

        code = main(
            [
                "decisive",
                "--ssam",
                str(ssam_file),
                "--reliability",
                str(data_path("reliability_table_ii.csv")),
                "--mechanisms",
                str(data_path("mechanisms_table_iii.csv")),
                "--target",
                "ASIL-D",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "view,expected",
        [
            ("architecture", "D1 [Diode, 10 FIT]"),
            ("mermaid", "flowchart LR"),
            ("hazards", "H1 [ASIL-B]"),
            ("requirements", "SR1 [ASIL-B]"),
        ],
    )
    def test_render_command(self, ssam_file, capsys, view, expected):
        assert main(["render", "--ssam", str(ssam_file), "--view", view]) == 0
        assert expected in capsys.readouterr().out


class TestShippedData:
    def test_workbooks_match_builders(self, psu_reliability, psu_mechanisms):
        from repro.casestudies.power_supply import data_path
        from repro.reliability import load_reliability_table
        from repro.safety.mechanisms import load_mechanism_table

        reliability = load_reliability_table(
            data_path("reliability_table_ii.csv")
        )
        assert len(reliability) == len(psu_reliability)
        assert reliability.lookup("Diode").fit == 10
        mechanisms = load_mechanism_table(
            data_path("mechanisms_table_iii.csv")
        )
        assert mechanisms.specs()[0].name == "ECC"

    def test_unknown_workbook_rejected(self):
        from repro.casestudies.power_supply import data_path

        with pytest.raises(FileNotFoundError, match="available"):
            data_path("nonexistent.csv")


class TestFacadeExtensions:
    def test_derive_runtime_monitor(self, same):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        monitor = same.derive_runtime_monitor()
        assert monitor.channels()[0].name == "CS1"

    def test_analyze_uncertainty(self, same):
        same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
        same.deploy("MC1", "RAM Failure", "ECC")
        result = same.analyze_uncertainty("ASIL-B", samples=200)
        assert result.confidence > 0.9

    def test_export_fault_tree(self, tmp_path, psu_ssam):
        environment = SAME()
        environment.open_ssam(psu_ssam)
        dot = environment.export_fault_tree(tmp_path / "tree.dot", "dot")
        assert "digraph" in dot.read_text()
        xml = environment.export_fault_tree(tmp_path / "tree.xml", "openpsa")
        assert "opsa-mef" in xml.read_text()
        with pytest.raises(ValueError, match="unknown format"):
            environment.export_fault_tree(tmp_path / "x", "png")

    def test_build_assurance_case_end_to_end(
        self, tmp_path, psu_ssam, psu_reliability, psu_mechanisms
    ):
        from repro.assurance import evaluate_case
        from repro.safety import save_fmeda_workbook

        environment = SAME()
        environment.open_ssam(psu_ssam)
        environment.load_reliability(psu_reliability)
        environment.load_mechanisms(psu_mechanisms)
        log = environment.run_decisive("ASIL-B")
        save_fmeda_workbook(log.concept.fmeda, tmp_path / "fmeda")
        case = environment.build_assurance_case(log.concept, "fmeda")
        assert evaluate_case(case, base_dir=tmp_path).ok
