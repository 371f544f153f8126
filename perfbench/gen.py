"""Seeded request generators for the analysis-service benchmark.

Every workload is a fixed request sequence drawn from ``random.Random(seed)``:
the same seed gives byte-identical request bodies in the same order, and the
service only ever sees those pre-encoded bodies.  The model payloads come from
the repository's case-study builders (power supply, System A, System B, the
8x300 distribution grid); a *variant* is the base model with a few numeric
block parameters scaled by seeded factors, so its content hash — and with it
the campaign fingerprint and the ledger cache key — is new.

A sequence is sized from the run length (``seconds``), never from how fast the
service answers, so two commits answer the same questions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Block parameters a design edit may scale (all electrical values).
EDITABLE_PARAMS = (
    "voltage", "resistance", "capacitance", "inductance",
    "series_resistance", "load_resistance", "standby_resistance",
)
#: Parameters scaled per variant, and the scale range.
EDITS_PER_VARIANT = 3
EDIT_RANGE = (0.9, 1.1)

#: Case studies of the ``iterate`` loop, one variant of each per entry; the
#: System B majority puts the cold-latency median inside the System B cluster
#: instead of on the boundary between clusters.
ITERATE_ROUND = ("psu", "sys_a", "sys_b", "sys_b", "sys_b")
#: Seconds of service time one ``iterate`` round takes on the reference
#: machine; sizes the sequence from ``--seconds``.
ITERATE_ROUND_SECONDS = 4.85

#: ``grid``: one new injection sample per round, then revisits of earlier
#: samples (cache hits).
GRID_SAMPLE_K = 24
GRID_REVISITS = 2
GRID_ROUND_SECONDS = 1.5

#: ``tenants``: repeat questions answered during warm-up, the open-loop
#: ladder (rate in jobs/s, share of the timed phase), the job mix and the
#: coalescing bursts.
TENANT_QUESTIONS = 16
TENANT_LOW_RATE = 15.0
TENANT_MID_RATE = 40.0
TENANT_LADDER = (60.0, 80.0, 100.0, 120.0)
#: Shares of the timed phase: low, mid, then each ladder step.
TENANT_LOW_SHARE = 0.35
TENANT_MID_SHARE = 0.35
TENANT_STEP_SHARE = 0.075
TENANT_COLD_SHARE = 0.1
TENANT_BURST_EVERY = 1.0
TENANT_BURST_SIZE = 4

WORKLOADS = ("iterate", "grid", "tenants")


@dataclass
class Case:
    """One case study as request ingredients (payload dicts, not objects)."""

    name: str
    model: Dict[str, object]
    reliability: List[Dict[str, object]]
    config: Dict[str, object]
    #: (component, effective class, failure mode) for every injectable slot.
    slots: List[Tuple[str, str, str]]


@dataclass
class Request:
    """One request of a sequence: the encoded body plus what the client
    needs to check its answer."""

    body: bytes
    kind: str
    case: str
    #: Requests with the same ``key`` ask the same question (same answer).
    key: str
    #: ``cold`` (new question), ``hit`` (asked before) or ``burst``.
    role: str
    #: Payload dict, kept only for requests the oracle re-computes.
    payload: Optional[Dict[str, object]] = None

    def again(self, role: str = "hit") -> "Request":
        """The same question asked once more."""
        return Request(self.body, self.kind, self.case, self.key, role)


@dataclass
class Plan:
    """A workload's warm-up and timed requests.

    ``rounds`` group closed-loop requests (tracing toggles per round);
    ``schedule`` holds ``(due_seconds, request, step)`` for the open loop.
    """

    warmup: List[Request] = field(default_factory=list)
    rounds: List[List[Request]] = field(default_factory=list)
    schedule: List[Tuple[float, Request, str]] = field(default_factory=list)
    #: Open-loop steps in order: (name, rate jobs/s, start s, end s).
    steps: List[Tuple[str, float, float, float]] = field(default_factory=list)

    def timed(self) -> List[Request]:
        if self.schedule:
            return [request for _, request, _ in self.schedule]
        return [request for round_ in self.rounds for request in round_]

    def digest(self) -> str:
        """SHA-256 over every body (and due time) in order."""
        sha = hashlib.sha256()
        for request in self.warmup:
            sha.update(request.body)
        for round_ in self.rounds:
            sha.update(b"|round|")
            for request in round_:
                sha.update(request.body)
        for due, request, step in self.schedule:
            sha.update(f"|{due:.9f}|{step}|".encode())
            sha.update(request.body)
        return sha.hexdigest()


# -- case studies ----------------------------------------------------------


def _slots(model, reliability) -> List[Tuple[str, str, str]]:
    slots = []
    for block in model.all_blocks():
        entry = reliability.get(block.effective_type)
        if entry is None:
            continue
        for mode in entry.failure_modes:
            slots.append((block.name, block.effective_type, mode.name))
    return slots


def base_case(name: str) -> Case:
    from repro.casestudies import (
        SYSTEM_A_ASSUMED_STABLE,
        SYSTEM_B_ASSUMED_STABLE,
        build_power_grid_simulink,
        build_power_supply_simulink,
        build_system_a_simulink,
        build_system_b_simulink,
        power_network_reliability,
        power_supply_reliability,
    )
    from repro.casestudies.power_supply import ASSUMED_STABLE
    from repro.service import reliability_payload

    if name == "psu":
        model, reliability = (
            build_power_supply_simulink(), power_supply_reliability()
        )
        config = {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)}
    elif name == "sys_a":
        model, reliability = (
            build_system_a_simulink(), power_network_reliability()
        )
        config = {"assume_stable": list(SYSTEM_A_ASSUMED_STABLE)}
    elif name == "sys_b":
        model, reliability = (
            build_system_b_simulink(), power_network_reliability()
        )
        config = {"assume_stable": list(SYSTEM_B_ASSUMED_STABLE)}
    elif name == "grid":
        model, reliability = (
            build_power_grid_simulink(), power_network_reliability()
        )
        config = {}
    else:
        raise ValueError(f"unknown case study {name!r}")
    return Case(
        name=name,
        model=model.to_dict(),
        reliability=reliability_payload(reliability),
        config=config,
        slots=_slots(model, reliability),
    )


def _editable(model: Dict[str, object]) -> List[Tuple[int, str]]:
    blocks = model["diagram"]["blocks"]  # type: ignore[index]
    return [
        (index, param)
        for index, block in enumerate(blocks)
        for param in EDITABLE_PARAMS
        if isinstance(block.get("parameters", {}).get(param), float)
    ]


def variant(case: Case, rng: random.Random) -> Dict[str, object]:
    """The case's model with ``EDITS_PER_VARIANT`` seeded parameter edits."""
    model = copy.deepcopy(case.model)
    blocks = model["diagram"]["blocks"]  # type: ignore[index]
    for index, param in rng.sample(_editable(model), EDITS_PER_VARIANT):
        value = blocks[index]["parameters"][param]
        blocks[index]["parameters"][param] = float(
            f"{value * rng.uniform(*EDIT_RANGE):.6g}"
        )
    return model


def deployments(case: Case, rng: random.Random) -> List[Dict[str, object]]:
    """Seeded FMEDA deployments on a seeded third of the case's slots (the
    same count for every seed, so the FMEDA's cost does not vary with it)."""
    chosen = sorted(rng.sample(range(len(case.slots)), len(case.slots) // 3))
    out = []
    for j in chosen:
        component, cls, mode = case.slots[j]
        out.append({
            "component": component,
            "failure_mode": mode,
            "mechanism": f"sm-{cls.lower()}-{j}",
            "coverage": round(rng.uniform(0.6, 0.99), 3),
            "cost": round(rng.uniform(0.5, 8.0), 2),
        })
    return out


def catalogue(case: Case, rng: random.Random) -> List[Dict[str, object]]:
    """Seeded mechanism catalogue: per (class, mode) of the case, two
    mechanisms with seeded coverage and cost (ECC on the MCU always in).
    The size is fixed, so the search's cost does not vary with the seed."""
    pairs = sorted({(cls, mode) for _, cls, mode in case.slots})
    out = [
        {
            "component_class": "MCU",
            "failure_mode": "RAM Failure",
            "name": "ECC",
            "coverage": 0.99,
            "cost": 2.0,
        }
    ]
    for cls, mode in pairs:
        for j in range(2):
            out.append(
                {
                    "component_class": cls,
                    "failure_mode": mode,
                    "name": f"sm-{cls.lower()}-{mode.lower().replace(' ', '-')}-{j}",
                    "coverage": round(rng.uniform(0.6, 0.99), 3),
                    "cost": round(rng.uniform(0.5, 8.0), 2),
                }
            )
    return out


def payload(
    case: Case,
    model: Dict[str, object],
    kind: str = "fmea",
    config: Optional[Dict[str, object]] = None,
    tenant: str = "",
    **extra: object,
) -> Dict[str, object]:
    out: Dict[str, object] = {
        "kind": kind,
        "model": model,
        "reliability": case.reliability,
        "config": dict(case.config, **(config or {})),
    }
    if tenant:
        out["tenant"] = tenant
    out.update(extra)
    return out


def _request(
    case: Case,
    body: Dict[str, object],
    role: str,
    keep: bool = False,
) -> Request:
    raw = json.dumps(body, sort_keys=True).encode("utf-8")
    return Request(
        body=raw,
        kind=str(body["kind"]),
        case=case.name,
        key=hashlib.sha256(raw).hexdigest()[:16],
        role=role,
        payload=body if keep else None,
    )


# -- workloads -------------------------------------------------------------


def _design_iteration(
    case: Case, rng: random.Random, keep: bool
) -> List[Request]:
    """FMEA -> FMEDA -> search on one new variant, then the FMEA again (and,
    for System B, the FMEDA again: with the end-of-round review System B
    makes 9 of every 11 hits, so their median lies well inside the System B
    cluster)."""
    model = variant(case, rng)
    fmea = _request(case, payload(case, model), "cold", keep)
    fmeda = _request(
        case,
        payload(case, model, "fmeda", deployments=deployments(case, rng)),
        "cold",
        keep,
    )
    search = _request(
        case,
        payload(
            case, model, "search",
            mechanisms=catalogue(case, rng),
            target_asil=rng.choice(("ASIL-A", "ASIL-B")),
        ),
        "cold",
        keep,
    )
    hits = [fmea] + ([fmeda] if case.name == "sys_b" else [])
    return [fmea, fmeda, search] + [r.again() for r in hits]


def _rounds_for(seconds: float, round_seconds: float) -> int:
    return max(2, int(round(seconds / round_seconds)))


def build_iterate(seed: int, seconds: float) -> Plan:
    rng = random.Random(seed)
    cases = {name: base_case(name) for name in ("psu", "sys_a", "sys_b")}
    plan = Plan()
    for name in ("psu", "sys_a", "sys_b"):
        plan.warmup.extend(_design_iteration(cases[name], rng, keep=False))
    oracle_done = set()
    for _ in range(_rounds_for(seconds, ITERATE_ROUND_SECONDS)):
        round_: List[Request] = []
        for name in ITERATE_ROUND:
            keep = name not in oracle_done
            oracle_done.add(name)
            round_.extend(_design_iteration(cases[name], rng, keep))
        # The round ends with a review of its System B FMEAs (hits).
        round_.extend(
            r.again() for r in list(round_)
            if r.case == "sys_b" and r.kind == "fmea" and r.role == "cold"
        )
        plan.rounds.append(round_)
    return plan


def _grid_sample(
    case: Case, grid_model, rng: random.Random, used: set, keep: bool
) -> Request:
    from repro.casestudies import power_grid_injection_sample

    while True:
        sample_seed = rng.randrange(2**31)
        if sample_seed not in used:
            used.add(sample_seed)
            break
    stable = power_grid_injection_sample(
        grid_model, k=GRID_SAMPLE_K, seed=sample_seed
    )
    return _request(
        case,
        payload(case, case.model, config={"assume_stable": list(stable)}),
        "cold",
        keep,
    )


def build_grid(seed: int, seconds: float) -> Plan:
    from repro.simulink import SimulinkModel

    rng = random.Random(seed)
    case = base_case("grid")
    grid_model = SimulinkModel.from_dict(case.model)
    plan = Plan()
    used: set = set()
    warm = _grid_sample(case, grid_model, rng, used, keep=False)
    plan.warmup = [warm, warm.again()]
    computed: List[Request] = []
    for index in range(_rounds_for(seconds, GRID_ROUND_SECONDS)):
        cold = _grid_sample(case, grid_model, rng, used, keep=index == 0)
        computed.append(cold)
        round_ = [cold]
        for _ in range(GRID_REVISITS):
            round_.append(rng.choice(computed).again())
        plan.rounds.append(round_)
    return plan


def tenant_steps(seconds: float) -> List[Tuple[str, float, float, float]]:
    """The open-loop steps: (name, rate, start, end) in schedule seconds."""
    steps = []
    start = 0.0
    rungs = [("low", TENANT_LOW_RATE, TENANT_LOW_SHARE),
             ("mid", TENANT_MID_RATE, TENANT_MID_SHARE)]
    rungs += [
        (f"ladder{int(rate)}", rate, TENANT_STEP_SHARE)
        for rate in TENANT_LADDER
    ]
    for name, rate, share in rungs:
        end = start + share * seconds
        steps.append((name, rate, start, end))
        start = end
    return steps


def build_tenants(seed: int, seconds: float) -> Plan:
    """Open loop over power-supply variants: each step offers exactly
    ``rate * duration`` arrivals at seeded uniform times (a Poisson process
    conditioned on its count), a fixed share of them new variants, the rest
    repeat questions; every ``TENANT_BURST_EVERY`` seconds a burst of
    identical new submissions arrives at once.  One case study keeps cold
    and hit latencies single clusters, so their medians are steady."""
    rng = random.Random(seed)
    case = base_case("psu")
    plan = Plan()
    questions = []
    for index in range(TENANT_QUESTIONS):
        body = payload(case, variant(case, rng), tenant=f"t{index % 4}")
        questions.append(_request(case, body, "cold"))
    plan.warmup = list(questions)
    plan.steps = tenant_steps(seconds)
    kept = set()

    def keep(name: str) -> bool:
        first = name not in kept
        kept.add(name)
        return first

    for name, rate, start, end in plan.steps:
        count = int(round(rate * (end - start)))
        dues = sorted(start + rng.random() * (end - start) for _ in range(count))
        cold = set(rng.sample(range(count), int(round(count * TENANT_COLD_SHARE))))
        # Every question equally often (the same case mix for every seed),
        # in seeded order.
        repeats = [
            questions[i % len(questions)] for i in range(count - len(cold))
        ]
        rng.shuffle(repeats)
        for index, due in enumerate(dues):
            if index in cold:
                body = payload(
                    case, variant(case, rng), tenant=f"t{rng.randrange(4)}"
                )
                request = _request(case, body, "cold", keep("psu"))
            else:
                request = repeats.pop().again()
            plan.schedule.append((due, request, name))
        burst = start + TENANT_BURST_EVERY / 2
        while burst < end:
            body = payload(case, variant(case, rng), tenant="burst")
            leader = _request(case, body, "burst", keep("burst"))
            plan.schedule.append((burst, leader, name))
            for _ in range(TENANT_BURST_SIZE - 1):
                plan.schedule.append((burst, leader.again("burst"), name))
            burst += TENANT_BURST_EVERY
    plan.schedule.sort(key=lambda item: item[0])
    return plan


def build(workload: str, seed: int, seconds: float) -> Plan:
    builders = {
        "iterate": build_iterate,
        "grid": build_grid,
        "tenants": build_tenants,
    }
    if workload not in builders:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {WORKLOADS}"
        )
    return builders[workload](seed, seconds)


def case_mix(plan: Plan) -> Dict[str, int]:
    """Request count per (case, kind, role) — the mix a seed must not move."""
    mix: Dict[str, int] = {}
    for request in list(plan.warmup) + plan.timed():
        label = f"{request.case}/{request.kind}/{request.role}"
        mix[label] = mix.get(label, 0) + 1
    return mix


def percentile_rank(count: int, min_beyond: int = 10) -> Optional[int]:
    """The highest whole percentile above p50 (at most p99) that leaves at
    least ``min_beyond`` samples strictly beyond it under the nearest-rank
    rule, or ``None`` when ``count`` samples cannot support one."""
    best = None
    for pct in range(51, 100):
        rank = math.ceil(pct * count / 100)
        if count - rank >= min_beyond:
            best = pct
    return best


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[min(len(ordered), rank) - 1]
