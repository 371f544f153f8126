"""Automated safety analysis — the paper's primary contribution.

- :mod:`repro.safety.fmea` — FMEA data model and the injection-based
  analyzer for Simulink models (DECISIVE Step 4a, Section IV-D1);
- :mod:`repro.safety.campaign` — the batched fault-injection campaign
  engine behind :func:`run_simulink_fmea`: baseline solved once, jobs
  enumerated up front, incremental (factorization-reusing) solves run
  serially, per-campaign timing statistics;
- :mod:`repro.safety.resilience` — fault-tolerance primitives for the
  campaign engine: structured job failures, bounded retry with backoff,
  per-job deadlines, checkpoint–resume keyed by a campaign fingerprint;
- :mod:`repro.safety.graph_analysis` — Algorithm 1: graph-based single-point
  failure determination for SSAM models (Section IV-D2);
- :mod:`repro.safety.fmeda` — FMEDA: safety-mechanism-aware diagnostic
  analysis producing Table IV-style results;
- :mod:`repro.safety.metrics` — architectural metrics (SPFM, Eq. 1; LFM) and
  ISO 26262 ASIL targets;
- :mod:`repro.safety.asil` — HARA: S/E/C → ASIL determination;
- :mod:`repro.safety.mechanisms` — safety-mechanism catalogues (Table III)
  and deployments;
- :mod:`repro.safety.optimizer` — automated safety-mechanism deployment
  search (target ASIL at minimal cost; Pareto front over safety vs cost);
- :mod:`repro.safety.report` — FMEA/FMEDA table rendering (the "Excel-based
  FMEA table" SAME always produces).
"""

from repro.safety.fmea import (
    FmeaError,
    FmeaResult,
    FmeaRow,
    run_simulink_fmea,
)
from repro.safety.campaign import (
    CampaignStats,
    FaultInjectionCampaign,
    InjectionJob,
)
from repro.safety.resilience import (
    CampaignCheckpoint,
    CheckpointError,
    JobFailure,
    JobTimeoutError,
    RetryPolicy,
    campaign_fingerprint,
)
from repro.safety.graph_analysis import run_ssam_fmea
from repro.safety.fmeda import FmedaResult, FmedaRow, run_fmeda
from repro.safety.metrics import (
    ASIL_PMHF_TARGETS,
    ASIL_SPFM_TARGETS,
    asil_from_spfm,
    latent_fault_metric,
    pmhf,
    pmhf_meets,
    spfm,
    spfm_meets,
)
from repro.safety.derivation import (
    allocate_requirements_to_components,
    derive_safety_requirements,
)
from repro.safety.uncertainty import (
    TornadoBar,
    UncertaintyResult,
    spfm_uncertainty,
    tornado_analysis,
)
from repro.safety.summary import render_safety_report, write_safety_report
from repro.safety.compare import FmedaComparison, compare_fmeda
from repro.safety.asil import determine_asil, risk_graph
from repro.safety.mechanisms import (
    Deployment,
    MechanismSpec,
    SafetyMechanismModel,
    load_mechanism_table,
    save_mechanism_table,
)
from repro.safety.optimizer import (
    DeploymentPlan,
    enumerate_plans,
    greedy_plan,
    pareto_front,
    search_for_target,
)
from repro.safety.report import (
    campaign_failures_sheet,
    campaign_stats_sheet,
    render_campaign_stats,
    fmea_to_sheet,
    fmeda_to_sheet,
    render_text_table,
    save_fmea_workbook,
    save_fmeda_workbook,
)

__all__ = [
    "FmeaRow",
    "FmeaResult",
    "FmeaError",
    "run_simulink_fmea",
    "run_ssam_fmea",
    "FaultInjectionCampaign",
    "InjectionJob",
    "CampaignStats",
    "JobFailure",
    "JobTimeoutError",
    "RetryPolicy",
    "CampaignCheckpoint",
    "CheckpointError",
    "campaign_fingerprint",
    "FmedaRow",
    "FmedaResult",
    "run_fmeda",
    "spfm",
    "spfm_meets",
    "asil_from_spfm",
    "latent_fault_metric",
    "pmhf",
    "pmhf_meets",
    "ASIL_SPFM_TARGETS",
    "ASIL_PMHF_TARGETS",
    "derive_safety_requirements",
    "allocate_requirements_to_components",
    "UncertaintyResult",
    "spfm_uncertainty",
    "render_safety_report",
    "write_safety_report",
    "TornadoBar",
    "tornado_analysis",
    "FmedaComparison",
    "compare_fmeda",
    "determine_asil",
    "risk_graph",
    "MechanismSpec",
    "SafetyMechanismModel",
    "Deployment",
    "load_mechanism_table",
    "save_mechanism_table",
    "DeploymentPlan",
    "enumerate_plans",
    "greedy_plan",
    "pareto_front",
    "search_for_target",
    "fmea_to_sheet",
    "fmeda_to_sheet",
    "save_fmea_workbook",
    "save_fmeda_workbook",
    "render_text_table",
    "campaign_stats_sheet",
    "campaign_failures_sheet",
    "render_campaign_stats",
]
