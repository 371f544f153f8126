"""The five-step DECISIVE loop over a SSAM model.

The class drives exactly the methodology of Fig. 1: given the Step 1/2
artefacts (a SSAM model carrying requirements, a hazard log and an
architecture), each iteration aggregates reliability data (Step 3),
evaluates the design (Step 4a: graph FMEA + SPFM/ASIL), and — when the
target is unmet — searches and deploys safety mechanisms (Step 4b).  When
the design is acceptably safe a *safety concept* (Step 5) is synthesised:
the safety requirements, hazard targets, analysis results and the chosen
mechanism allocations, with traceability into the model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.federation import FederationReport, aggregate_reliability
from repro.metamodel import MetamodelError, ModelResource
from repro.reliability import ReliabilityModel
from repro.safety import (
    FmeaResult,
    FmedaResult,
    run_fmeda,
    run_ssam_fmea,
    search_for_target,
)
from repro.safety.mechanisms import Deployment, SafetyMechanismModel
from repro.safety.metrics import asil_from_spfm, spfm
from repro.ssam import SSAMModel
from repro.ssam.architecture import safety_mechanism
from repro.ssam.base import text_of


class ProcessError(Exception):
    """Raised when the process cannot run (no architecture, no target…)."""


@dataclass
class IterationRecord:
    """What one DECISIVE iteration did and found."""

    index: int
    spfm: float
    asil: str
    safety_related: List[str]
    deployments: List[Deployment] = field(default_factory=list)
    met_target: bool = False
    #: Provenance: the analysis-ledger entry recorded for this iteration
    #: (empty when the process runs without a ledger) and the human-readable
    #: delta against the previous iteration's entry.
    ledger_entry: str = ""
    diff_summary: str = ""


@dataclass
class SafetyConcept:
    """The Step 5 artefact: requirements, allocations and evidence."""

    system: str
    target_asil: str
    achieved_asil: str
    spfm: float
    safety_requirements: List[str]
    hazards: List[str]
    deployments: List[Deployment]
    fmeda: FmedaResult


@dataclass
class ProcessLog:
    """Full record of one DECISIVE run."""

    system: str
    target_asil: str
    iterations: List[IterationRecord] = field(default_factory=list)
    concept: Optional[SafetyConcept] = None

    @property
    def met_target(self) -> bool:
        return bool(self.iterations) and self.iterations[-1].met_target

    @property
    def final_spfm(self) -> float:
        if not self.iterations:
            raise ProcessError("process has not run")
        return self.iterations[-1].spfm


class DecisiveProcess:
    """Drives DECISIVE Steps 3–5 over a SSAM model."""

    def __init__(
        self,
        model: SSAMModel,
        reliability: ReliabilityModel,
        mechanisms: SafetyMechanismModel,
        target_asil: str = "ASIL-B",
        overwrite_reliability: bool = False,
        ledger=None,
    ) -> None:
        if not model.component_packages or not model.top_components():
            raise ProcessError("model has no architecture (Step 2 missing)")
        self.model = model
        self.reliability = reliability
        self.mechanisms = mechanisms
        self.target_asil = target_asil
        #: When set, Step 3 replaces hand-modelled failure data with the
        #: catalogue's — the right mode when re-running the process against
        #: revised reliability data (e.g. an environmental derating).
        self.overwrite_reliability = overwrite_reliability
        #: Optional :class:`repro.obs.ledger.AnalysisLedger`.  When set,
        #: every iteration records a provenance entry and auto-diffs
        #: against the previous one (the iteration observatory).
        self.ledger = ledger
        self.deployments: List[Deployment] = []
        self._system = model.top_components()[0]
        #: (system digest, FMEA) of the latest Step 4a run.  The loop calls
        #: Step 4a once per iteration plus once for the final FMEDA, but the
        #: architecture only changes when deployments are written back into
        #: the model — so unchanged-digest re-evaluations reuse the result.
        self._fmea_cache: Optional[Tuple[str, FmeaResult]] = None

    def _system_digest(self) -> Optional[str]:
        """Content hash of the system under analysis, or ``None`` when the
        model cannot be serialised (caching then simply switches off)."""
        try:
            payload = ModelResource().to_dict(self._system)
            blob = json.dumps(payload, sort_keys=True, default=repr)
        except (MetamodelError, TypeError, ValueError):
            return None
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- steps ------------------------------------------------------------

    def step3_aggregate(self) -> FederationReport:
        """Aggregate reliability data into the design (Step 3)."""
        with obs.span("decisive.step3_aggregate"):
            return aggregate_reliability(
                self.model,
                self.reliability,
                overwrite=self.overwrite_reliability,
            )

    def step4a_evaluate(self) -> Tuple[FmeaResult, float, str]:
        """Automated FMEA + architectural metrics (Step 4a).

        The FMEA is reused from the previous evaluation while the system's
        content digest is unchanged (deployment *planning* does not touch
        the architecture; only :meth:`apply_deployments_to_model` does).
        """
        digest = self._system_digest()
        cached = self._fmea_cache
        if digest is not None and cached is not None and cached[0] == digest:
            fmea = cached[1]
            if obs.enabled():
                obs.counter("decisive_fmea_reuses").inc()
        else:
            with obs.span("decisive.fmea"):
                fmea = run_ssam_fmea(self._system, self.reliability)
            # The analysis annotates the model (safetyRelated flags), so
            # the digest to remember is the *post-run* state: an unchanged
            # model re-hashes to exactly this value next time.
            digest = self._system_digest()
            if digest is not None:
                self._fmea_cache = (digest, fmea)
        with obs.span("decisive.metric_check") as sp:
            value = spfm(fmea, self.deployments)
            asil = asil_from_spfm(value)
            sp.set(spfm=value, asil=asil)
        return fmea, value, asil

    def step4b_refine(self, fmea: FmeaResult) -> List[Deployment]:
        """Search the mechanism catalogue for a deployment meeting the
        target (Step 4b); returns the *new* deployments (possibly empty)."""
        with obs.span("decisive.step4b_refine", target=self.target_asil):
            plan = search_for_target(fmea, self.mechanisms, self.target_asil)
        if plan is None:
            return []
        existing = {(d.component, d.failure_mode) for d in self.deployments}
        fresh = [
            d
            for d in plan.deployments
            if (d.component, d.failure_mode) not in existing
        ]
        self.deployments = list(plan.deployments)
        return fresh

    def apply_deployments_to_model(self) -> int:
        """Write the chosen mechanisms into the SSAM model (the change that
        the next process iteration would formalise via change management)."""
        applied = 0
        components = {
            (text_of(c) or c.get("id")): c
            for c in self.model.elements_of_kind("Component")
        }
        for deployment in self.deployments:
            component = components.get(deployment.component)
            if component is None:
                continue
            mech = safety_mechanism(
                deployment.mechanism, deployment.coverage, deployment.cost
            )
            covered = [
                mode
                for mode in component.get("failureModes")
                if (text_of(mode) or mode.get("id")) == deployment.failure_mode
            ]
            mech.set("covers", covered)
            component.add("safetyMechanisms", mech)
            applied += 1
        return applied

    def step5_safety_concept(self, fmeda: FmedaResult) -> SafetyConcept:
        """Synthesise the safety concept (Step 5)."""
        return SafetyConcept(
            system=self.model.name,
            target_asil=self.target_asil,
            achieved_asil=fmeda.asil,
            spfm=fmeda.spfm,
            safety_requirements=[
                text_of(r) or r.get("id")
                for r in self.model.safety_requirements()
            ],
            hazards=[text_of(h) or h.get("id") for h in self.model.hazards()],
            deployments=list(self.deployments),
            fmeda=fmeda,
        )

    # -- the loop -----------------------------------------------------------

    def run(self, max_iterations: int = 10) -> ProcessLog:
        """Iterate Steps 3–4 until the target holds (or iterations run out),
        then synthesise the safety concept."""
        log = ProcessLog(system=self.model.name, target_asil=self.target_asil)
        previous_entry = None
        with obs.span(
            "decisive.process",
            system=self.model.name,
            target=self.target_asil,
        ) as process_span:
            self.step3_aggregate()
            for index in range(1, max_iterations + 1):
                with obs.span("decisive.iteration", index=index) as it_span:
                    fmea, value, asil = self.step4a_evaluate()
                    record = IterationRecord(
                        index=index,
                        spfm=value,
                        asil=asil,
                        safety_related=fmea.safety_related_components(),
                        met_target=_meets(value, self.target_asil),
                    )
                    log.iterations.append(record)
                    it_span.set(
                        spfm=value, asil=asil, met_target=record.met_target
                    )
                    if record.met_target:
                        previous_entry = self._record_iteration(
                            record, fmea, it_span, previous_entry
                        )
                        self._emit_iteration(record)
                        break
                    fresh = self.step4b_refine(fmea)
                    record.deployments = fresh
                    it_span.set(new_deployments=len(fresh))
                    previous_entry = self._record_iteration(
                        record, fmea, it_span, previous_entry
                    )
                    self._emit_iteration(record)
                    if not fresh:
                        break  # catalogue exhausted; target unreachable
            fmea, _, _ = self.step4a_evaluate()
            with obs.span("decisive.fmeda") as fmeda_span:
                fmeda = run_fmeda(fmea, self.deployments)
                self._record_fmeda(fmeda, fmeda_span)
            log.concept = self.step5_safety_concept(fmeda)
            process_span.set(
                iterations=len(log.iterations), met_target=log.met_target
            )
        return log

    def _emit_iteration(self, record) -> None:
        """One ``iteration_finished`` progress event per Step 3–4 turn
        (no-op while the event plane is disabled)."""
        obs.emit_event(
            "iteration_finished",
            system=self.model.name,
            index=record.index,
            spfm=record.spfm,
            asil=record.asil,
            met_target=record.met_target,
            new_deployments=len(record.deployments),
        )

    # -- provenance --------------------------------------------------------

    def _record_iteration(self, record, fmea, it_span, previous_entry):
        """Ledger one iteration and auto-diff it against the previous one.

        Returns the appended entry (or ``previous_entry`` unchanged when
        no ledger is configured).  Never lets provenance bookkeeping abort
        the safety analysis itself.
        """
        if self.ledger is None:
            return previous_entry
        from repro.obs.ledger import record_iteration

        try:
            entry = record_iteration(
                self.ledger,
                fmea,
                index=record.index,
                spfm=record.spfm,
                asil=record.asil,
                deployments=self.deployments,
                model_digest_value=self._system_digest() or "",
                reliability=self.reliability,
                # "search_strategy" is kept so every entry id stays the
                # one recorded before the DP became the only search.
                config={"target": self.target_asil, "search_strategy": "dp"},
                meta={"met_target": record.met_target},
            )
        except Exception:  # noqa: BLE001 — provenance must not break the loop
            return previous_entry
        record.ledger_entry = entry.entry_id
        it_span.set(ledger_entry=entry.entry_id)
        if previous_entry is not None:
            from repro.obs.history import diff_entries

            record.diff_summary = diff_entries(previous_entry, entry).summary()
        return entry

    def _record_fmeda(self, fmeda, span) -> None:
        if self.ledger is None:
            return
        from repro.obs.ledger import record_fmeda

        try:
            entry = record_fmeda(
                self.ledger,
                fmeda,
                model=self._system,
                reliability=self.reliability,
                config={"target": self.target_asil},
                meta={"process": "decisive"},
            )
        except Exception:  # noqa: BLE001
            return
        span.set(ledger_entry=entry.entry_id)


def _meets(value: float, target_asil: str) -> bool:
    from repro.safety.metrics import spfm_meets

    return spfm_meets(value, target_asil)
