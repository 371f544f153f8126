"""The SAME facade — every editor function as one method.

The methods map one-to-one to the operations SAME's GUI offers in the
paper's working process (Fig. 10): import a Simulink model, transform it to
SSAM, invoke automated FME(D)A, compute SPFM/ASIL, deploy safety
mechanisms (by hand or by search), export the FMEA workbook, generate
runtime monitors, and run the full DECISIVE loop.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.decisive.process import DecisiveProcess, ProcessLog
from repro.monitor import RuntimeMonitor, generate_monitor
from repro.reliability import ReliabilityModel, load_reliability_table
from repro.safety import (
    DeploymentPlan,
    FmeaResult,
    FmedaResult,
    run_fmeda,
    run_simulink_fmea,
    run_ssam_fmea,
    save_fmea_workbook,
    save_fmeda_workbook,
    search_for_target,
    pareto_front,
)
from repro.safety.mechanisms import (
    Deployment,
    SafetyMechanismModel,
    load_mechanism_table,
)
from repro.safety.metrics import asil_from_spfm, spfm
from repro.simulink import SimulinkModel
from repro.ssam import SSAMModel
from repro.transform import (
    propagate_mechanisms_to_simulink,
    simulink_to_ssam,
    ssam_to_simulink,
)


class SAME:
    """Programmatic workbench: holds the loaded models and catalogues."""

    def __init__(self) -> None:
        self.simulink_model: Optional[SimulinkModel] = None
        self.ssam_model: Optional[SSAMModel] = None
        self.reliability: Optional[ReliabilityModel] = None
        self.mechanisms: Optional[SafetyMechanismModel] = None
        self.deployments: List[Deployment] = []
        self.last_fmea: Optional[FmeaResult] = None
        self.last_fmeda: Optional[FmedaResult] = None
        #: Optional provenance ledger (see :mod:`repro.obs.ledger`): when
        #: set, every analysis records an entry and every export attaches
        #: the produced artifact to the entry it came from.
        self.ledger = None
        self._ledger_entries: dict = {}
        #: Workbench-scoped correlation id: stamped on every span, event,
        #: log record and ledger entry an analysis on this workbench
        #: produces when no ambient id is installed (a service job or a
        #: CLI invocation installs its own, which wins).
        self.correlation_id = obs.mint_correlation_id()

    def _correlated(self):
        """Correlation scope for one analysis run on this workbench."""
        return obs.correlation(obs.correlation_id() or self.correlation_id)

    def set_ledger(self, ledger: Union[str, Path, object]):
        """Attach an analysis ledger (a path or an ``AnalysisLedger``)."""
        from repro.obs.ledger import AnalysisLedger

        self.ledger = (
            ledger
            if isinstance(ledger, AnalysisLedger)
            else AnalysisLedger(ledger)
        )
        return self.ledger

    # -- loading ------------------------------------------------------------

    def open_simulink(self, source: Union[str, Path, SimulinkModel]) -> SimulinkModel:
        self.simulink_model = (
            source
            if isinstance(source, SimulinkModel)
            else SimulinkModel.load(source)
        )
        return self.simulink_model

    def open_ssam(self, source: Union[str, Path, SSAMModel]) -> SSAMModel:
        self.ssam_model = (
            source if isinstance(source, SSAMModel) else SSAMModel.load(source)
        )
        return self.ssam_model

    def load_reliability(
        self, source: Union[str, Path, ReliabilityModel]
    ) -> ReliabilityModel:
        self.reliability = (
            source
            if isinstance(source, ReliabilityModel)
            else load_reliability_table(source)
        )
        return self.reliability

    def load_mechanisms(
        self, source: Union[str, Path, SafetyMechanismModel]
    ) -> SafetyMechanismModel:
        self.mechanisms = (
            source
            if isinstance(source, SafetyMechanismModel)
            else load_mechanism_table(source)
        )
        return self.mechanisms

    # -- transformation -------------------------------------------------------

    def import_simulink(self, anchor_boundaries: bool = False) -> SSAMModel:
        """Transform the open Simulink model to SSAM (the editor's import)."""
        self._require("simulink_model")
        with obs.span("same.transform", model=self.simulink_model.name):
            self.ssam_model = simulink_to_ssam(
                self.simulink_model, self.reliability, anchor_boundaries
            )
        return self.ssam_model

    def export_simulink(self) -> SimulinkModel:
        self._require("ssam_model")
        return ssam_to_simulink(self.ssam_model)

    def propagate_changes(self) -> int:
        """Propagate SSAM-side safety mechanisms back to the Simulink model."""
        self._require("ssam_model")
        self._require("simulink_model")
        return propagate_mechanisms_to_simulink(
            self.ssam_model, self.simulink_model
        )

    # -- analysis ---------------------------------------------------------------

    def run_fmea_simulink(
        self,
        sensors: Optional[Sequence[str]] = None,
        threshold: float = 0.2,
        assume_stable: Iterable[str] = (),
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> FmeaResult:
        """Injection-based FMEA of the Simulink model.

        ``checkpoint``/``resume`` are forwarded to
        :class:`~repro.safety.campaign.FaultInjectionCampaign` so iterative
        SAME workflows get the same checkpoint–resume behaviour as the CLI.
        """
        self._require("simulink_model")
        self._require("reliability")
        with self._correlated(), obs.span(
            "same.fmea", method="injection"
        ) as sp:
            self.last_fmea = run_simulink_fmea(
                self.simulink_model,
                self.reliability,
                sensors=sensors,
                threshold=threshold,
                assume_stable=assume_stable,
                checkpoint=checkpoint,
                resume=resume,
            )
            self._ledger_fmea(
                self.last_fmea,
                self.simulink_model,
                sp,
                config={"threshold": threshold},
            )
        return self.last_fmea

    def run_fmea_ssam(self, component=None) -> FmeaResult:
        self._require("ssam_model")
        target = component
        if target is None:
            tops = self.ssam_model.top_components()
            if not tops:
                raise ValueError("SSAM model has no top-level component")
            target = tops[0]
        with self._correlated(), obs.span("same.fmea", method="graph") as sp:
            self.last_fmea = run_ssam_fmea(target, self.reliability)
            self._ledger_fmea(self.last_fmea, target, sp, config={})
        return self.last_fmea

    def calculate_spfm(self) -> Tuple[float, str]:
        self._require("last_fmea")
        with obs.span("same.metric_check") as sp:
            value = spfm(self.last_fmea, self.deployments)
            asil = asil_from_spfm(value)
            sp.set(spfm=value, asil=asil)
        return value, asil

    def run_fmeda(self) -> FmedaResult:
        self._require("last_fmea")
        with self._correlated(), obs.span(
            "same.fmeda", deployments=len(self.deployments)
        ) as sp:
            self.last_fmeda = run_fmeda(self.last_fmea, self.deployments)
            if self.ledger is not None:
                from repro.obs.ledger import record_fmeda

                entry = record_fmeda(
                    self.ledger,
                    self.last_fmeda,
                    model=self.simulink_model or self.ssam_model,
                    reliability=self.reliability,
                    meta={"facade": "same"},
                )
                self._ledger_entries["fmeda"] = entry
                sp.set(ledger_entry=entry.entry_id)
        return self.last_fmeda

    # -- mechanisms ----------------------------------------------------------------

    def deploy(
        self, component: str, failure_mode: str, mechanism: Optional[str] = None
    ) -> Deployment:
        """Deploy a catalogue mechanism on one component's failure mode."""
        self._require("mechanisms")
        self._require("last_fmea")
        row = next(
            (
                r
                for r in self.last_fmea.rows
                if r.component == component and r.failure_mode == failure_mode
            ),
            None,
        )
        if row is None:
            raise ValueError(
                f"FMEA has no row for {component!r}/{failure_mode!r}"
            )
        deployment = self.mechanisms.deploy(
            component, row.component_class, failure_mode, mechanism
        )
        self.deployments.append(deployment)
        return deployment

    def search_deployment(self, target_asil: str) -> Optional[DeploymentPlan]:
        """Let SAME determine the cheapest solution for the target safety
        level (the exact Pareto DP of :func:`search_for_target`)."""
        self._require("mechanisms")
        self._require("last_fmea")
        with self._correlated(), obs.span(
            "same.search_deployment", target=target_asil
        ) as sp:
            plan = search_for_target(
                self.last_fmea, self.mechanisms, target_asil
            )
            if plan is not None and self.ledger is not None:
                from repro.obs.ledger import record_optimizer

                entry = record_optimizer(
                    self.ledger,
                    plan,
                    system=self.last_fmea.system,
                    model=self.simulink_model or self.ssam_model,
                    reliability=self.reliability,
                    # "strategy" is kept so every entry id stays the one
                    # recorded before the DP became the only search.
                    config={"target": target_asil, "strategy": "dp"},
                    meta={"facade": "same"},
                )
                sp.set(ledger_entry=entry.entry_id)
        if plan is not None:
            self.deployments = list(plan.deployments)
        return plan

    def pareto(self) -> List[DeploymentPlan]:
        """The Pareto front of (cost, SPFM) deployment trade-offs."""
        self._require("mechanisms")
        self._require("last_fmea")
        return pareto_front(self.last_fmea, self.mechanisms)

    # -- outputs ------------------------------------------------------------------

    def export_fmea(self, location: Union[str, Path]) -> Path:
        self._require("last_fmea")
        path = save_fmea_workbook(self.last_fmea, location)
        self._attach_artifact("fmea", path)
        return path

    def export_fmeda(self, location: Union[str, Path]) -> Path:
        if self.last_fmeda is None:
            self.run_fmeda()
        path = save_fmeda_workbook(self.last_fmeda, location)
        self._attach_artifact("fmeda", path)
        return path

    def generate_runtime_monitor(self, debounce: int = 1) -> RuntimeMonitor:
        self._require("ssam_model")
        return generate_monitor(self.ssam_model, debounce)

    def derive_runtime_monitor(self, debounce: int = 3) -> RuntimeMonitor:
        """Monitor derived from the last injection FMEA's baselines."""
        self._require("last_fmea")
        from repro.monitor import monitor_from_fmea

        return monitor_from_fmea(self.last_fmea, debounce=debounce)

    def analyze_uncertainty(
        self, target_asil: str = "ASIL-B", samples: int = 2000, **kwargs
    ):
        """Monte Carlo robustness of the SPFM verdict to the data."""
        self._require("last_fmea")
        from repro.safety.uncertainty import spfm_uncertainty

        return spfm_uncertainty(
            self.last_fmea,
            self.deployments,
            target_asil=target_asil,
            samples=samples,
            **kwargs,
        )

    def export_fault_tree(
        self, location: Union[str, Path], fmt: str = "dot"
    ) -> Path:
        """Synthesize the SSAM model's fault tree and export it
        (``fmt``: ``dot`` or ``openpsa``)."""
        self._require("ssam_model")
        from repro.fta import synthesize_fault_tree, to_dot, to_open_psa

        tops = self.ssam_model.top_components()
        if not tops:
            raise ValueError("SSAM model has no top-level component")
        tree = synthesize_fault_tree(tops[0])
        renderers = {"dot": to_dot, "openpsa": to_open_psa}
        try:
            text = renderers[fmt](tree)
        except KeyError:
            raise ValueError(
                f"unknown format {fmt!r}; expected one of {sorted(renderers)}"
            ) from None
        path = Path(location)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def build_assurance_case(
        self, concept, fmeda_location: str
    ):
        """Instantiate the hazard-directed GSN pattern over a safety concept."""
        from repro.assurance import case_from_safety_concept

        return case_from_safety_concept(concept, fmeda_location)

    # -- the analysis service --------------------------------------------------------

    def serve_analysis(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ):
        """Start the always-on analysis service over this workbench's
        ledger (``set_ledger`` first) and return the running
        :class:`~repro.service.AnalysisServiceServer`.

        The service shares the ledger with the facade: analyses recorded
        here (``run_fmea_simulink`` etc.) seed the service's result cache,
        and service-computed entries show up in ``history``/``diff``.
        """
        self._require("ledger")
        from repro.service import AnalysisService, AnalysisServiceServer

        service = AnalysisService(
            self.ledger, workers=workers, checkpoint_dir=checkpoint_dir
        )
        return AnalysisServiceServer(service, host, port).start()

    # -- the whole methodology -------------------------------------------------------

    def run_decisive(
        self,
        target_asil: str = "ASIL-B",
        max_iterations: int = 10,
    ) -> ProcessLog:
        self._require("ssam_model")
        self._require("reliability")
        self._require("mechanisms")
        process = DecisiveProcess(
            self.ssam_model,
            self.reliability,
            self.mechanisms,
            target_asil,
            ledger=self.ledger,
        )
        with self._correlated(), obs.span("same.decisive", target=target_asil):
            log = process.run(max_iterations)
        self.deployments = list(process.deployments)
        self.last_fmea, _, _ = process.step4a_evaluate()
        self.last_fmeda = log.concept.fmeda if log.concept else None
        return log

    # -- internals ----------------------------------------------------------------------

    def _ledger_fmea(self, result, model, sp, config: dict) -> None:
        """Record an FMEA run in the attached ledger (no-op without one)."""
        if self.ledger is None:
            return
        from repro.obs.ledger import record_fmea

        value = spfm(result, self.deployments)
        entry = record_fmea(
            self.ledger,
            result,
            model=model,
            reliability=self.reliability,
            spfm=value,
            asil=asil_from_spfm(value),
            config=config,
            meta={"facade": "same", "method": result.method},
        )
        self._ledger_entries["fmea"] = entry
        sp.set(ledger_entry=entry.entry_id)

    def _attach_artifact(self, kind: str, path: Path) -> None:
        """Link an exported workbook to the entry its analysis recorded."""
        if self.ledger is None:
            return
        entry = self._ledger_entries.get(kind)
        if entry is None:
            entry = self.ledger.latest(kind=kind)
        if entry is not None:
            self.ledger.attach_artifact(entry, path)

    def _require(self, attribute: str) -> None:
        if getattr(self, attribute) is None:
            hints = {
                "simulink_model": "open_simulink()",
                "ssam_model": "open_ssam() or import_simulink()",
                "reliability": "load_reliability()",
                "mechanisms": "load_mechanisms()",
                "last_fmea": "run_fmea_simulink() or run_fmea_ssam()",
            }
            raise ValueError(
                f"no {attribute.replace('_', ' ')} loaded; "
                f"call {hints.get(attribute, 'the loader')} first"
            )
