"""End-to-end benchmark of the SAME analysis service over real HTTP.

Run from the root of a checkout::

    python3 perfbench/run.py --workload iterate --seed 1 --seconds 20 --trace 0

It starts ``same serve-analysis`` (``python -m repro.cli serve-analysis``,
metrics, tracing, events and logs on, 2 service workers) in its own process,
sends the workload's pre-generated, pre-encoded requests (see ``gen.py``),
checks every answer, and prints a report followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` starts the server through ``trace_server.py`` instead,
alternates recording on and off per round (closed loop) or per second (open
loop), and reports the per-layer metrics (see ``layers.py``).  Everything the
run writes lives under ``.perfbench/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
#: Independent set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Service worker threads, as ``same serve-analysis`` defaults.
SERVICE_WORKERS = 2
#: The service's default ``cache_hit_latency_p99`` objective.
LATENCY_OBJECTIVE = 0.250
#: Seconds the server may take to print its URL.
START_TIMEOUT = 60.0
#: Pause after switching tracing on or off, so the signal lands first.
TOGGLE_PAUSE = 0.005
#: Ledger history the ``tenants`` service opens.
TENANT_LEDGER_ENTRIES = 10_000


class SetupError(RuntimeError):
    """The service could not be started or readied."""


# -- the server process ----------------------------------------------------


class Server:
    """``same serve-analysis`` in a child process (optionally traced)."""

    def __init__(
        self, root: Path, work: Path, ledger: Path, spans: Optional[Path]
    ) -> None:
        command = [sys.executable]
        if spans is not None:
            command += [str(HERE / "trace_server.py"), str(spans)]
        else:
            command += ["-m", "repro.cli"]
        command += [
            "serve-analysis", "--ledger", str(ledger),
            "--bind", "127.0.0.1:0",
            "--service-workers", str(SERVICE_WORKERS),
            "--max-seconds", "170",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log = open(work / f"{ledger.stem}.server.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=str(root), env=env,
            stdout=subprocess.PIPE, stderr=self.log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("analysis service at http://"):
            self.stop()
            raise SetupError(f"server did not start (said {line!r})")
        address = line.split()[3][len("http://"):]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# -- preparation -------------------------------------------------------------


def seed_ledger(path: Path, entries: int) -> None:
    """A ledger with ``entries`` power-supply FMEA results under distinct
    cache keys (the history a long-running service has), index included."""
    from repro.obs.ledger import AnalysisLedger, LedgerEntry

    rows = [
        {
            "component": f"X{i}", "component_class": "Diode",
            "distribution": 0.3, "effect": "reading at CS1 deviates by 41.0%",
            "failure_mode": "Open", "fit": 10, "impact": "DVF",
            "safety_related": True, "warning": "",
        }
        for i in range(9)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for seq in range(entries):
            entry = LedgerEntry(
                kind="fmea", system="sensor_power_supply", spfm=0.9,
                asil="ASIL-A", rows=rows, timestamp=1.0e9 + seq,
                fingerprint=f"seed-{seq:06d}",
                meta={"service": True, "service_cache_key": f"seed-{seq:06d}"},
            )
            entry.seq = seq
            handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
    AnalysisLedger(path).rebuild_index()


def copy_ledger(template: Optional[Path], target: Path) -> None:
    if template is None:
        return
    shutil.copyfile(template, target)
    sidecar = Path(str(template) + ".idx")
    if sidecar.exists():
        shutil.copyfile(sidecar, Path(str(target) + ".idx"))


# -- checks -----------------------------------------------------------------


def signature(result: Dict[str, object]) -> str:
    """The analysis answer: rows, SPFM and ASIL (or the absent plan)."""
    keys = ("rows", "spfm", "asil", "plan")
    return json.dumps({k: result.get(k) for k in keys}, sort_keys=True)


#: Result fields that say how an answer was produced, not what it is.
PROVENANCE_FIELDS = {"from_cache", "coalesced", "metrics", "entry"}


ASIL_RANK = {"QM": 0, "ASIL-A": 1, "ASIL-B": 2, "ASIL-C": 3, "ASIL-D": 4}


def structural_error(kind: str, result: Dict[str, object]) -> str:
    if kind == "search" and result.get("plan", "") is None:
        return ""  # no plan meets the target: a real answer
    rows = result.get("rows")
    # A plan may meet its target without deploying anything: no rows.
    if not isinstance(rows, list) or not (rows or kind == "search"):
        return "no rows"
    spfm = result.get("spfm")
    if not isinstance(spfm, (int, float)) or not 0.0 <= spfm <= 1.0:
        return f"spfm {spfm!r} out of range"
    if result.get("asil") not in ASIL_RANK:
        return f"asil {result.get('asil')!r}"
    if kind == "search" and ASIL_RANK[str(result["asil"])] < ASIL_RANK.get(
        str(result.get("target_asil")), 0
    ):
        return "plan misses its target"
    return ""


def check(outcomes) -> Tuple[int, Dict[str, int]]:
    """Mark wrong answers in ``outcome.error``; returns how many passed and,
    per field, how many repeat answers lacked a field of the first answer.

    Every answer must be well formed; every answer to a question asked
    before (cache hit, coalesced follower, repeat) must equal the first
    computed answer bit for bit in its rows, SPFM and ASIL.  Other fields a
    repeat answer lacks are counted, not failed.
    """
    reference: Dict[str, Tuple[str, object]] = {}
    gaps: Dict[str, int] = {}
    checked = 0
    for outcome in outcomes:
        if not outcome.done:
            if not outcome.error and outcome.record is not None:
                outcome.error = f"job failed: {outcome.record.get('error')}"
            continue
        result = outcome.record.get("result") or {}
        problem = structural_error(outcome.kind, result)
        if problem:
            outcome.error = f"malformed {outcome.kind} answer: {problem}"
            continue
        sig = signature(result)
        first = reference.setdefault(outcome.key, (sig, outcome))
        if first[0] != sig:
            outcome.error = (
                f"answer differs from job {first[1].job_id} for the same question"
            )
            continue
        for field_ in set(first[1].record["result"]) - set(result):
            if field_ not in PROVENANCE_FIELDS:
                gaps[field_] = gaps.get(field_, 0) + 1
        checked += 1
    return checked, gaps


def oracle(outcomes, requests_by_index) -> int:
    """Re-compute each kept cold FMEA (and the FMEDA/search of the same
    variant) with the naive injection campaign, in this process."""
    from repro.obs.ledger import fmea_rows_payload, fmeda_rows_payload
    from repro.safety import run_fmeda, search_for_target
    from repro.safety.campaign import FaultInjectionCampaign
    from repro.safety.mechanisms import (
        Deployment,
        MechanismSpec,
        SafetyMechanismModel,
    )
    from repro.safety.metrics import asil_from_spfm, spfm
    from repro.service import reliability_from_payload
    from repro.simulink import SimulinkModel

    naive: Dict[str, object] = {}
    checked = 0
    for outcome in outcomes:
        request = requests_by_index.get(outcome.index)
        if request is None or request.payload is None or not outcome.done:
            continue
        if outcome.cached or outcome.coalesced or outcome.error:
            continue
        body = request.payload
        model_key = json.dumps(
            [body["model"], body["config"]], sort_keys=True
        )
        if model_key not in naive:
            config = body["config"]
            naive[model_key] = FaultInjectionCampaign(
                SimulinkModel.from_dict(dict(body["model"])),
                reliability_from_payload(body["reliability"]),
                sensors=config.get("sensors"),
                assume_stable=tuple(config.get("assume_stable", ())),
                incremental=False,
            ).run()
        fmea = naive[model_key]
        result = outcome.record["result"]
        if request.kind == "fmea":
            value = spfm(fmea, [])
            expected = {
                "rows": fmea_rows_payload(fmea), "spfm": value,
                "asil": asil_from_spfm(value),
            }
        elif request.kind == "fmeda":
            fmeda = run_fmeda(fmea, [
                Deployment(
                    component=d["component"], failure_mode=d["failure_mode"],
                    mechanism=d["mechanism"], coverage=d["coverage"],
                    cost=d["cost"],
                )
                for d in body["deployments"]
            ])
            expected = {
                "rows": fmeda_rows_payload(fmeda), "spfm": fmeda.spfm,
                "asil": fmeda.asil,
            }
        else:
            found = search_for_target(
                fmea,
                SafetyMechanismModel(
                    MechanismSpec(
                        component_class=m["component_class"],
                        failure_mode=m["failure_mode"], name=m["name"],
                        coverage=m["coverage"], cost=m["cost"],
                    )
                    for m in body["mechanisms"]
                ),
                body["target_asil"],
            )
            expected = (
                {"plan": None} if found is None else
                {"spfm": found.spfm, "asil": found.asil, "cost": found.cost}
            )
        actual = {key: result.get(key) for key in expected}
        checked += 1
        if actual != expected:
            outcome.error = (
                f"{request.kind} of {request.case} differs from the naive "
                f"injection oracle"
            )
    return checked


# -- metrics ----------------------------------------------------------------


def latency_summary(values_s: List[float]) -> Tuple[float, Optional[Tuple[float, int]]]:
    """(p50 ms, (tail ms, percentile) or None) by the nearest-rank rule."""
    from gen import nearest_rank, percentile_rank

    ms = [v * 1e3 for v in values_s]
    if not ms:
        return 0.0, None
    pct = percentile_rank(len(ms))
    tail = (nearest_rank(ms, pct), pct) if pct else None
    return statistics.median(ms), tail


def tail_text(name: str, values_s: List[float]) -> str:
    p50, tail = latency_summary(values_s)
    text = f"{name}_p50_ms {p50:.3f} ms"
    if tail:
        text += f", {name}_tail_ms {tail[0]:.3f} ms (p{tail[1]}, n={len(values_s)})"
    else:
        text += f" (n={len(values_s)}, too few samples for a tail above p50)"
    return text


def tenant_steps_report(plan, run) -> Tuple[List[str], float]:
    """Per-step tail latency and the highest ladder rate meeting the
    objective without a growing queue."""
    from gen import nearest_rank, percentile_rank

    lines = []
    max_rate = 0.0
    passing = True
    for name, rate, _, _ in plan.steps:
        sent = [o for o in run.outcomes if o.step == name]
        if not sent:
            lines.append(f"  {name:12s} {rate:6.0f} jobs/s  not sent")
            passing = False
            continue
        latencies = [
            o.latency if o.latency is not None else float("inf") for o in sent
        ]
        pct = percentile_rank(len(latencies)) or 50
        tail = nearest_rank(latencies, min(pct, 99))
        backlog = run.backlog.get(name, 0)
        ok = tail <= LATENCY_OBJECTIVE and backlog_ok_for(rate, backlog)
        passing = passing and ok
        if passing:
            max_rate = rate
        late = [o.late for o in sent]
        lines.append(
            f"  {name:12s} {rate:6.0f} jobs/s  p{pct} {tail * 1e3:9.2f} ms "
            f"(n={len(sent)}), backlog at step end {backlog}, "
            f"sender late p{pct} {nearest_rank(late, pct) * 1e3:.2f} ms"
            f" -> {'meets' if ok else 'misses'} p99 <= "
            f"{LATENCY_OBJECTIVE * 1e3:.0f} ms"
        )
    return lines, max_rate


def backlog_ok_for(rate: float, backlog: int) -> bool:
    """The queue is not growing: at most a quarter second of arrivals (and
    never less than one coalescing burst) is still unanswered."""
    return backlog <= max(8, int(rate * 0.25))


# -- the run ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "jobs.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; run from the "
            f"root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, root, work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


@dataclass
class Measured:
    setups: List[float]
    warm: List
    outcomes: List
    elapsed: float
    #: ``/metrics`` counter deltas over the timed phase.
    counters: Dict[str, float]
    open_run: Optional[object] = None


def measure(args, plan, root: Path, work: Path) -> Measured:
    """Set up ``SETUPS`` times, then run the timed phase on the last server."""
    import client

    template = None
    if args.workload == "tenants":
        template = work / "template.jsonl"
        seed_ledger(template, TENANT_LEDGER_ENTRIES)
    traced_run = bool(args.trace)
    setups: List[float] = []
    server = collector = None
    try:
        for index in range(SETUPS):
            ledger = work / f"ledger{index}.jsonl"
            copy_ledger(template, ledger)
            spans = work / f"spans{index}.json" if traced_run else None
            started = time.perf_counter()
            server = Server(root, work, ledger, spans)
            http = client.Http(server.host, server.port)
            deadline = time.monotonic() + START_TIMEOUT
            while not http.healthy():
                if time.monotonic() > deadline:
                    raise SetupError("server never answered /healthz")
                time.sleep(0.01)
            collector = client.Collector(server.host, server.port)
            collector.start()
            warm = client.run_closed(http, collector, plan.warmup)
            setups.append(time.perf_counter() - started)
            bad = [o for o in warm if not o.done]
            if bad:
                raise SetupError(
                    f"warm-up job failed: {bad[0].error or bad[0].record}"
                )
            if index < SETUPS - 1:
                collector.stop()
                server.stop()
                server = collector = None

        before = http.counters()
        state = {"on": False}

        def trace(on: bool) -> bool:
            if traced_run and on != state["on"]:
                server.signal(signal.SIGUSR1 if on else signal.SIGUSR2)
                state["on"] = on
                time.sleep(TOGGLE_PAUSE)
            return traced_run and on

        started = time.perf_counter()
        open_run = None
        if plan.schedule:
            rates = {name: rate for name, rate, _, _ in plan.steps}
            open_run = client.run_open(
                http, collector, plan.schedule,
                lambda step, backlog: backlog_ok_for(rates[step], backlog),
                on_slice=lambda i: trace(i % 2 == 1),
            )
            outcomes = open_run.outcomes
            elapsed = open_run.elapsed
        else:
            outcomes = []
            for number, round_ in enumerate(plan.rounds):
                traced = trace(number % 2 == 1)
                outcomes += client.run_closed(
                    http, collector, round_, len(outcomes), traced
                )
            elapsed = time.perf_counter() - started
        trace(False)
        after = http.counters()
    finally:
        if collector is not None:
            collector.stop()
        if server is not None:
            server.stop()
    counters = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    return Measured(setups, warm, outcomes, elapsed, counters, open_run)


def run(args, root: Path, work: Path) -> int:
    import gen
    import layers

    plan = gen.build(args.workload, args.seed, args.seconds)
    m = measure(args, plan, root, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    outcomes = m.outcomes

    # -- checks -------------------------------------------------------------
    checked, gaps = check(list(m.warm) + outcomes)
    oracle_checked = oracle(outcomes, dict(enumerate(plan.timed())))
    attempted = len(outcomes)
    failures = [o for o in outcomes if o.error or not o.done]
    refused = sum(1 for o in outcomes if o.status and o.status != 202)

    # -- report -------------------------------------------------------------
    done = [o for o in outcomes if o.done and not o.error]
    span = m.elapsed
    scored = done
    if plan.schedule:
        # Open loop: the steps well below capacity give the latencies, and
        # throughput is what they delivered, first due time to last answer.
        below = {plan.steps[0][0], plan.steps[1][0]}
        scored = [o for o in done if o.step in below]
        span = max(
            [o.due + o.latency for o in scored] + [plan.steps[1][3]]
        ) - plan.steps[0][2]
    jobs_per_s = len(scored) / span
    cold = [o.latency for o in scored if not o.cached and not o.coalesced]
    hits = [o.latency for o in scored if o.cached]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: sequence {plan.digest()[:16]}, "
        f"{attempted} timed jobs in {m.elapsed:.2f} s"
    )
    print(
        f"  setup_s {statistics.median(m.setups):.4f} s "
        f"(median of {len(m.setups)}: "
        + ", ".join(f"{s:.3f}" for s in m.setups) + ")"
    )
    print(f"  {tail_text('cold', cold)}")
    print(f"  {tail_text('hit', hits)}")
    groups: Dict[str, List[float]] = {}
    for o in scored:
        path = "hit" if o.cached else "coalesced" if o.coalesced else "cold"
        groups.setdefault(f"{o.case}/{o.kind}/{path}", []).append(o.latency)
    print("  p50 by case/kind/path: " + ", ".join(
        f"{label} {statistics.median(v) * 1e3:.1f} ms (n={len(v)})"
        for label, v in sorted(groups.items())
    ))
    print(
        f"  jobs_per_s {jobs_per_s:.3f} ({len(scored)} jobs / {span:.2f} s)"
        f", coalesced {sum(1 for o in outcomes if o.coalesced)}"
        f", server_rss_mb {peak_rss_mb:.1f}"
    )
    print(
        f"  checked {checked} answers ({checked - oracle_checked} against "
        f"earlier answers or shape, {oracle_checked} against the naive "
        f"injection oracle); error_rate {len(failures) / max(1, attempted):.4f}"
        f" ({len(failures)} failed of {attempted}: {refused} refused)"
    )
    if gaps:
        print("  repeat answers lacking a field the computed answer had: "
              + ", ".join(f"{k} x{v}" for k, v in sorted(gaps.items())))
    for outcome in failures[:5]:
        print(f"  FAILED job {outcome.job_id or '-'} ({outcome.kind} "
              f"{outcome.case}): {outcome.error or 'not done'}")
    if m.open_run is not None:
        lines, max_rate = tenant_steps_report(plan, m.open_run)
        print(f"  open-loop ladder (objective p99 <= "
              f"{LATENCY_OBJECTIVE * 1e3:.0f} ms, queue not growing):")
        for line in lines:
            print(line)
        stopped = m.open_run.stopped_after
        print(f"  max_rate_jobs_s {max_rate:.0f}"
              + (f" (sending stopped after {stopped})" if stopped else ""))

    if args.trace:
        document = json.loads((work / f"spans{SETUPS - 1}.json").read_text())
        metrics, lines = layers.analyse(
            document, outcomes, m.counters, closed=not plan.schedule
        )
        metrics.update(client_metrics(outcomes, attempted, failures, refused,
                                      checked, hits))
        print("  per-layer (traced slices; self time per job):")
        for line in lines:
            print(line)
    else:
        metrics = {
            "setup_s": (statistics.median(m.setups), "s"),
            "cold_p50_ms": (latency_summary(cold)[0], "ms"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "server_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def client_metrics(outcomes, attempted, failures, refused, checked, hits):
    """Client-side figures of a traced run.  ``hits`` are the cache-hit
    latencies in seconds: a hit takes milliseconds on ``iterate``, too short
    to be steady between runs as an end-to-end metric, so its median is
    reported here, without a bound."""
    from gen import nearest_rank

    late = [o.late * 1e3 for o in outcomes] or [0.0]
    notify = [
        (o.notified_at - float(o.record["finished_at"])) * 1e3
        for o in outcomes if o.done and o.notified_at
    ] or [0.0]
    sizes = [o.result_bytes for o in outcomes if o.done] or [0]
    return {
        "client.late_p99_ms": (nearest_rank(late, 99), "ms"),
        "client.notify_ms": (statistics.median(notify), "ms"),
        "client.result_bytes": (statistics.fmean(sizes), "bytes"),
        "client.hit_p50_ms": (latency_summary(hits)[0], "ms"),
        "client.error_rate": (len(failures) / max(1, attempted), "ratio"),
        "client.checked": (float(checked), "count"),
        "server.refused": (float(refused), "count"),
    }


if __name__ == "__main__":
    sys.exit(main())
