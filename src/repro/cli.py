"""``same`` — the command-line interface to the SAME tool.

Subcommands::

    same fmea      --model m.slx.json --reliability rel.csv [--sensor CS1 ...]
    same fmeda     ... --mechanisms sm.csv --target ASIL-B
    same transform --model m.slx.json --out m.ssam.json
    same validate  --ssam m.ssam.json
    same demo      [--out DIR]      # the paper's power-supply case study
    same monitor   --ssam m.ssam.json --out monitor.py
    same serve-analysis --ledger ledger.jsonl [--bind HOST:PORT]

Observatory verbs over the analysis ledger (``--ledger ledger.jsonl`` on
any analysis command records provenance entries)::

    same history           --ledger ledger.jsonl [--kind fmeda] [--model m]
    same diff              --ledger ledger.jsonl @0 @-1 [--json]
    same watch-regressions --ledger ledger.jsonl [--baseline REF] [--json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.safety.report import (
    fmea_to_sheet,
    fmeda_to_sheet,
    render_campaign_stats,
    render_text_table,
)


def _parse_serve(spec: str) -> tuple:
    """``HOST:PORT`` → ``(host, port)``; bare ``PORT`` binds localhost."""
    host, _, port_text = str(spec).rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"--serve expects HOST:PORT (or just PORT), got {spec!r}"
        )
    return (host or "127.0.0.1", port)


def _obs_begin(args: argparse.Namespace) -> dict:
    """Arm the observability planes the flags ask for.

    Returns a session dict carrying everything :func:`_obs_end` must tear
    down: the live HTTP server (``--serve``), the console renderer
    (``--progress``), the JSONL event sink (``--events``) and the sampling
    profiler that :func:`main` started for ``--profile``.
    ``--serve`` turns on both tracing (so ``/metrics`` has live content)
    and the event bus (so ``/events`` streams); ``--progress``/``--events``
    need only the event bus.

    Whenever any plane is armed, the invocation also mints a correlation
    id and installs it process-wide, so every span and event the run
    produces carries the same id.
    """
    session: dict = {}
    serve = getattr(args, "serve", None)
    progress = bool(getattr(args, "progress", False))
    events_path = getattr(args, "events", None)
    profile_path = getattr(args, "profile", None)
    wants_trace = bool(
        getattr(args, "trace", None) or getattr(args, "metrics", None) or serve
    )
    wants_events = bool(serve or progress or events_path)
    if not (wants_trace or wants_events or profile_path):
        return session
    from repro import obs

    session["cid"] = obs.mint_correlation_id()
    obs.set_correlation_id(session["cid"])
    if wants_trace and not obs.enabled():
        obs.enable()
        session["disable_tracing"] = True
    if wants_events and not obs.events_enabled():
        obs.enable_events()
        session["disable_events"] = True
    if events_path:
        session["events_path"] = obs.event_bus().attach_jsonl(events_path)
    if progress:
        renderer = obs.ConsoleProgress()
        obs.event_bus().add_callback(renderer)
        session["renderer"] = renderer
    if serve:
        host, port = _parse_serve(serve)
        server = obs.serve_live(host, port)
        session["server"] = server
        print(
            f"live telemetry at {server.url}  "
            f"(GET /metrics /healthz /events)",
            file=sys.stderr,
        )
    profiler = getattr(args, "profiler", None)
    if profiler is not None:
        session["profiler"] = profiler
        session["profile_path"] = profile_path
    return session


def _start_profiler(path: Optional[str]):
    """Arm the ``--profile`` sampler, or ``None`` without the flag."""
    if not path:
        return None
    from repro.obs.profile import SamplingProfiler

    profiler = SamplingProfiler()
    if profiler.start():
        return profiler
    print(
        "profiling unavailable (not the main thread?); --profile ignored",
        file=sys.stderr,
    )
    return None


def _obs_end(
    args: argparse.Namespace, session: Optional[dict] = None, same=None
) -> None:
    """Export trace/metrics, stop the live plane, and link every artifact
    written here to the run's latest ledger entry (when one exists) so
    provenance covers the live telemetry too."""
    session = session or {}
    artifacts: List[tuple] = []  # (kind, path)
    profiler = session.get("profiler")
    if profiler is not None:
        profiler.stop()
        path = profiler.write_folded(session["profile_path"])
        print(
            f"profile written to {path} "
            f"({profiler.samples} samples, collapsed stacks)"
        )
        artifacts.append(("profile", path))
    if getattr(args, "trace", None):
        from repro import obs

        if str(args.trace).endswith(".json"):
            path = obs.export_chrome_trace(args.trace)
            print(f"Chrome trace written to {path} (open in chrome://tracing)")
        else:
            path = obs.export_jsonl(args.trace)
            print(f"JSONL trace written to {path}")
        artifacts.append(("trace", path))
    if getattr(args, "metrics", None):
        from repro import obs

        path = obs.export_prometheus(args.metrics)
        print(f"Prometheus metrics written to {path}")
        artifacts.append(("metrics", path))
    if session.get("events_path") is not None:
        from repro import obs

        obs.event_bus().detach_jsonl()
        path = session["events_path"]
        print(f"event log written to {path}")
        artifacts.append(("events", path))
    if session.get("renderer") is not None:
        from repro import obs

        obs.event_bus().remove_callback(session["renderer"])
    if session.get("server") is not None:
        session["server"].stop()
    if (
        session.get("disable_events")
        or session.get("disable_tracing")
        or session.get("cid")
    ):
        from repro import obs

        if session.get("disable_events"):
            obs.disable_events()
        if session.get("disable_tracing"):
            obs.disable()
        if session.get("cid"):
            obs.set_correlation_id(None)
    ledger = getattr(same, "ledger", None) if same is not None else None
    if ledger is not None and artifacts:
        try:
            entry = ledger.latest()
            if entry is not None:
                for kind, path in artifacts:
                    ledger.attach_artifact(entry, path, kind=f"obs-{kind}")
        except Exception:  # noqa: BLE001 — provenance must not fail the run
            pass


def _print_stats(result) -> None:
    print("\n== campaign statistics ==")
    print(render_campaign_stats(result))


def _maybe_ledger(same, args: argparse.Namespace) -> None:
    """Attach an analysis ledger to the facade when ``--ledger`` was given."""
    if getattr(args, "ledger", None):
        same.set_ledger(args.ledger)


def _open_ledger(args: argparse.Namespace):
    from repro.obs.ledger import AnalysisLedger

    return AnalysisLedger(args.ledger)


def _cmd_fmea(args: argparse.Namespace) -> int:
    from repro.same import SAME

    session = _obs_begin(args)
    same = SAME()
    _maybe_ledger(same, args)
    same.open_simulink(args.model)
    same.load_reliability(args.reliability)
    result = same.run_fmea_simulink(
        sensors=args.sensor or None,
        threshold=args.threshold,
        assume_stable=args.assume_stable or (),
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(render_text_table(fmea_to_sheet(result)))
    value, asil = same.calculate_spfm()
    print(f"\nSPFM = {value * 100:.2f}%  (achieves {asil})")
    if args.stats:
        _print_stats(result)
    if args.out:
        path = same.export_fmea(args.out)
        print(f"FMEA workbook written to {path}")
    _obs_end(args, session, same)
    return 0


def _cmd_fmeda(args: argparse.Namespace) -> int:
    from repro.same import SAME

    session = _obs_begin(args)
    same = SAME()
    _maybe_ledger(same, args)
    same.open_simulink(args.model)
    same.load_reliability(args.reliability)
    same.load_mechanisms(args.mechanisms)
    same.run_fmea_simulink(
        sensors=args.sensor or None,
        threshold=args.threshold,
        assume_stable=args.assume_stable or (),
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    plan = same.search_deployment(args.target)
    if plan is None:
        print(f"no deployment in the catalogue reaches {args.target}")
        _obs_end(args, session, same)
        return 1
    result = same.run_fmeda()
    print(render_text_table(fmeda_to_sheet(result)))
    print(
        f"\nSPFM = {result.spfm * 100:.2f}%  achieves {result.asil}  "
        f"(target {args.target}, SM cost {result.total_cost:g})"
    )
    if args.stats:
        _print_stats(same.last_fmea)
    if args.out:
        path = same.export_fmeda(args.out)
        print(f"FMEDA workbook written to {path}")
    _obs_end(args, session, same)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.same import SAME

    same = SAME()
    same.open_simulink(args.model)
    if args.reliability:
        same.load_reliability(args.reliability)
    ssam = same.import_simulink(anchor_boundaries=args.anchor)
    ssam.save(args.out)
    print(
        f"transformed {args.model} -> {args.out} "
        f"({ssam.element_count()} SSAM elements)"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.ssam import SSAMModel, validate_ssam

    model = SSAMModel.load(args.ssam)
    report = validate_ssam(model)
    for diagnostic in report.diagnostics:
        print(diagnostic)
    print(
        f"{len(report)} finding(s); "
        f"{'OK' if report.ok else 'ERRORS present'}"
    )
    return 0 if report.ok else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.casestudies.power_supply import (
        ASSUMED_STABLE,
        build_power_supply_simulink,
        power_supply_mechanisms,
        power_supply_reliability,
    )
    from repro.same import SAME

    session = _obs_begin(args)
    same = SAME()
    _maybe_ledger(same, args)
    same.open_simulink(build_power_supply_simulink())
    same.load_reliability(power_supply_reliability())
    same.load_mechanisms(power_supply_mechanisms())
    fmea = same.run_fmea_simulink(
        sensors=["CS1"],
        assume_stable=ASSUMED_STABLE,
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    value, asil = same.calculate_spfm()
    print("== DECISIVE Step 4a: automated FMEA (injection) ==")
    print(render_text_table(fmea_to_sheet(fmea)))
    print(f"\nSPFM = {value * 100:.2f}%  ({asil}); target is ASIL-B (>= 90%)")
    print("\n== DECISIVE Step 4b: deploy ECC on MC1 ==")
    same.deploy("MC1", "RAM Failure", "ECC")
    result = same.run_fmeda()
    print(render_text_table(fmeda_to_sheet(result)))
    print(
        f"\nSPFM = {result.spfm * 100:.2f}%  achieves {result.asil} "
        f"(Table IV reproduced)"
    )
    if args.stats:
        _print_stats(fmea)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        same.export_fmea(out / "fmea")
        same.export_fmeda(out / "fmeda")
        print(f"workbooks written under {out}")
    _obs_end(args, session, same)
    return 0


def _cmd_fta(args: argparse.Namespace) -> int:
    from repro.fta import federate_fta_fmea
    from repro.reliability import load_reliability_table
    from repro.safety import run_ssam_fmea
    from repro.ssam import SSAMModel

    model = SSAMModel.load(args.ssam)
    tops = model.top_components()
    if not tops:
        print("SSAM model has no top-level component")
        return 1
    reliability = (
        load_reliability_table(args.reliability) if args.reliability else None
    )
    fmea = run_ssam_fmea(tops[0], reliability)
    federated = federate_fta_fmea(
        tops[0], fmea, mission_hours=args.mission_hours
    )
    print(federated.tree.render())
    print(f"\nminimal cut sets ({len(federated.cut_sets)}):")
    for cutset in federated.cut_sets:
        print(f"  {{{', '.join(sorted(cutset))}}}")
    print(f"P(top, {args.mission_hours:g} h) = {federated.top_probability:.3e}")
    print(
        f"FTA single points : {federated.fta_single_points}\n"
        f"FMEA single points: {federated.fmea_single_points}\n"
        f"consistent        : {federated.consistent}"
    )
    return 0 if federated.consistent else 1


def _cmd_decisive(args: argparse.Namespace) -> int:
    from repro.same import SAME

    session = _obs_begin(args)
    same = SAME()
    _maybe_ledger(same, args)
    same.open_ssam(args.ssam)
    same.load_reliability(args.reliability)
    same.load_mechanisms(args.mechanisms)
    log = same.run_decisive(args.target, args.max_iterations)
    for record in log.iterations:
        deployed = ", ".join(
            f"{d.mechanism} on {d.component}" for d in record.deployments
        )
        print(
            f"iter {record.index}: SPFM {record.spfm * 100:6.2f}% "
            f"({record.asil})" + (f"  + {deployed}" if deployed else "")
        )
        if record.ledger_entry:
            print(f"  ledger: {record.ledger_entry}")
        if record.diff_summary:
            for line in record.diff_summary.splitlines():
                print(f"  | {line}")
    concept = log.concept
    print(
        f"\n{'TARGET MET' if log.met_target else 'TARGET NOT MET'}: "
        f"{concept.achieved_asil} (SPFM {concept.spfm * 100:.2f}%), "
        f"SM cost {concept.fmeda.total_cost:g}"
    )
    if args.out:
        from repro.safety.report import save_decisive_workbook

        entries = []
        if same.ledger is not None:
            recorded = {r.ledger_entry for r in log.iterations if r.ledger_entry}
            entries = [
                entry
                for entry in same.ledger.entries(kind="decisive-iteration")
                if entry.entry_id in recorded
            ]
        path = save_decisive_workbook(concept.fmeda, entries, args.out)
        print(f"DECISIVE workbook written to {path}")
    _obs_end(args, session, same)
    return 0 if log.met_target else 1


def _cmd_history(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.history import history_rows, render_history, stale_entries

    ledger = _open_ledger(args)
    entries = ledger.entries(
        kind=args.kind or None, system=args.system or None
    )
    stale_seqs: set = set()
    if args.model:
        from repro.obs.ledger import model_digest
        from repro.simulink import SimulinkModel

        current = model_digest(SimulinkModel.load(args.model))
        stale_seqs = {
            entry.seq for entry in stale_entries(ledger, current)
        }
    if args.json:
        rows = history_rows(entries)
        for row, entry in zip(rows, entries):
            row["Stale"] = entry.seq in stale_seqs if args.model else None
        print(_json.dumps(rows, indent=2))
        return 0
    if args.model:
        rows = history_rows(entries)
        for row, entry in zip(rows, entries):
            row["Stale"] = "STALE" if entry.seq in stale_seqs else "fresh"
        from repro.drivers.table import Sheet

        print(render_text_table(Sheet("History", rows)))
        flagged = sum(1 for entry in entries if entry.seq in stale_seqs)
        if flagged:
            print(
                f"\n{flagged} entr{'y' if flagged == 1 else 'ies'} stale "
                f"against the current model; re-run the analysis to refresh"
            )
        return 0
    print(render_history(entries))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.history import diff_entries

    ledger = _open_ledger(args)
    diff = diff_entries(ledger.resolve(args.a), ledger.resolve(args.b))
    if args.json:
        print(_json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.summary())
    return 0


def _cmd_watch_regressions(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.history import baseline_for, diff_entries, watch_regressions

    ledger = _open_ledger(args)
    candidate = ledger.resolve(args.entry)
    if args.baseline:
        baseline = ledger.resolve(args.baseline)
    else:
        baseline = baseline_for(ledger, candidate)
    if baseline is None:
        # First recorded run of this (kind, system): nothing to regress
        # against — the gate passes so a fresh trajectory can bootstrap.
        print(
            f"no baseline for {candidate.entry_id} "
            f"({candidate.kind}/{candidate.system}); gate passes"
        )
        return 0
    diff = diff_entries(baseline, candidate)
    regressions = watch_regressions(
        diff,
        max_spfm_drop=args.max_spfm_drop,
        max_walltime_pct=args.max_walltime_pct,
    )
    if args.json:
        print(
            _json.dumps(
                {
                    "baseline": baseline.entry_id,
                    "candidate": candidate.entry_id,
                    "regressions": [
                        {"kind": r.kind, "message": r.message}
                        for r in regressions
                    ],
                    "diff": diff.to_dict(),
                },
                indent=2,
            )
        )
    else:
        print(f"baseline : {baseline.entry_id}")
        print(f"candidate: {candidate.entry_id}")
        if not regressions:
            print("no regressions")
        for regression in regressions:
            print(f"REGRESSION [{regression.kind}] {regression.message}")
    return 1 if regressions else 0


def _cmd_ledger_index(args: argparse.Namespace) -> int:
    """``same ledger-index`` — inspect or rebuild the ledger's sidecar
    byte-offset index (``<ledger>.idx``)."""
    import json as _json

    ledger = _open_ledger(args)
    if args.rebuild:
        status = ledger.rebuild_index()
    else:
        status = ledger.index_status()
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0 if status["persisted"] else 1
    print(f"sidecar      : {status['sidecar']}")
    if not status["persisted"]:
        print("               not writable: rebuilt on every open")
    print(f"lines indexed: {status['lines']}")
    print(f"entries      : {status['entries']}")
    print(f"artifacts    : {status['artifacts']}")
    print(f"cache keys   : {status['cache_keys']}")
    print(f"bytes covered: {status['bytes_covered']}")
    if status.get("tail_open"):
        print("tail         : unterminated (healed on next append)")
    return 0 if status["persisted"] else 1


def _cmd_serve_analysis(args: argparse.Namespace) -> int:
    import time

    from repro import obs
    from repro.obs.ledger import AnalysisLedger
    from repro.service import AnalysisService, AnalysisServiceServer

    # The service plane wants metrics (/metrics has live content) and the
    # event stream (/events streams job lifecycle, /healthz aggregates it,
    # and each computed job's records become a ledger artifact).
    if not obs.enabled():
        obs.enable()
    if not obs.events_enabled():
        obs.enable_events()

    host, port = _parse_serve(args.bind)
    ledger = AnalysisLedger(args.ledger)
    service = AnalysisService(
        ledger,
        workers=args.service_workers,
        checkpoint_dir=args.checkpoint_dir,
    )
    server = AnalysisServiceServer(service, host, port).start()
    print(
        f"analysis service at {server.url}  "
        f"(POST /jobs; GET /jobs /jobs/<id> /jobs/<id>/events "
        f"/metrics /healthz /events)",
        flush=True,
    )
    deadline = (
        time.monotonic() + args.max_seconds if args.max_seconds else None
    )
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print("analysis service stopped", flush=True)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.same import (
        render_architecture,
        render_architecture_mermaid,
        render_hazard_log,
        render_requirements,
    )
    from repro.ssam import SSAMModel

    model = SSAMModel.load(args.ssam)
    views = {
        "architecture": render_architecture,
        "mermaid": render_architecture_mermaid,
        "hazards": render_hazard_log,
        "requirements": render_requirements,
    }
    print(views[args.view](model))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.monitor import generate_monitor_source
    from repro.ssam import SSAMModel

    model = SSAMModel.load(args.ssam)
    source = generate_monitor_source(model, debounce=args.debounce)
    Path(args.out).write_text(source, encoding="utf-8")
    print(f"monitor module written to {args.out}")
    return 0


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by the campaign commands."""
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="persist completed job outcomes to this JSONL file",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs already recorded in --checkpoint for this model",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget; a job over budget is recorded as "
        "a failure instead of hanging the campaign",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget for transient job failures (default 2)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the analysis subcommands."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a span trace: JSONL event log, or Chrome "
        "chrome://tracing JSON when PATH ends in .json",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write collected metrics in Prometheus text format",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print campaign execution statistics (CampaignStats)",
    )
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        help="record a provenance entry for each analysis into this "
        "append-only JSONL ledger (see `same history` / `same diff`)",
    )
    parser.add_argument(
        "--serve",
        metavar="HOST:PORT",
        help="serve live telemetry over HTTP while the analysis runs: "
        "GET /metrics (Prometheus), /healthz (JSON liveness), "
        "/events (SSE progress stream); port 0 picks a free port",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live progress events (chunk completions, retries, "
        "ETA) on stderr",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help="append every event (progress and leveled log records) to "
        "this JSONL file",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="sample the analysis with a SIGPROF profiler and write "
        "collapsed stacks (flamegraph.pl / speedscope format) to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="same",
        description="SAME - Safety Analysis Management Environment (DECISIVE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmea = sub.add_parser("fmea", help="automated FMEA on a Simulink model")
    fmea.add_argument("--model", required=True)
    fmea.add_argument("--reliability", required=True)
    fmea.add_argument("--sensor", action="append")
    fmea.add_argument("--threshold", type=float, default=0.2)
    fmea.add_argument("--assume-stable", action="append", dest="assume_stable")
    fmea.add_argument("--out")
    _add_campaign_arguments(fmea)
    _add_obs_arguments(fmea)
    fmea.set_defaults(func=_cmd_fmea)

    fmeda = sub.add_parser("fmeda", help="FMEDA with mechanism search")
    fmeda.add_argument("--model", required=True)
    fmeda.add_argument("--reliability", required=True)
    fmeda.add_argument("--mechanisms", required=True)
    fmeda.add_argument("--target", default="ASIL-B")
    fmeda.add_argument("--sensor", action="append")
    fmeda.add_argument("--threshold", type=float, default=0.2)
    fmeda.add_argument("--assume-stable", action="append", dest="assume_stable")
    fmeda.add_argument("--out")
    _add_campaign_arguments(fmeda)
    _add_obs_arguments(fmeda)
    fmeda.set_defaults(func=_cmd_fmeda)

    transform = sub.add_parser("transform", help="Simulink -> SSAM")
    transform.add_argument("--model", required=True)
    transform.add_argument("--out", required=True)
    transform.add_argument("--reliability")
    transform.add_argument("--anchor", action="store_true")
    transform.set_defaults(func=_cmd_transform)

    validate_cmd = sub.add_parser("validate", help="validate a SSAM model")
    validate_cmd.add_argument("--ssam", required=True)
    validate_cmd.set_defaults(func=_cmd_validate)

    demo = sub.add_parser("demo", help="run the paper's case study")
    demo.add_argument("--out")
    _add_campaign_arguments(demo)
    _add_obs_arguments(demo)
    demo.set_defaults(func=_cmd_demo)

    fta = sub.add_parser("fta", help="fault-tree analysis federated with FMEA")
    fta.add_argument("--ssam", required=True)
    fta.add_argument("--reliability")
    fta.add_argument("--mission-hours", type=float, default=8760.0)
    fta.set_defaults(func=_cmd_fta)

    decisive = sub.add_parser("decisive", help="run the full DECISIVE loop")
    decisive.add_argument("--ssam", required=True)
    decisive.add_argument("--reliability", required=True)
    decisive.add_argument("--mechanisms", required=True)
    decisive.add_argument("--target", default="ASIL-B")
    decisive.add_argument("--max-iterations", type=int, default=10)
    decisive.add_argument(
        "--out",
        help="save the final FMEDA plus the iteration-timeline sheet as a "
        "workbook",
    )
    _add_obs_arguments(decisive)
    decisive.set_defaults(func=_cmd_decisive)

    history = sub.add_parser(
        "history", help="list recorded analysis-ledger runs"
    )
    history.add_argument("--ledger", required=True)
    history.add_argument("--kind", help="filter by entry kind (e.g. fmeda)")
    history.add_argument("--system", help="filter by system name")
    history.add_argument(
        "--model",
        help="flag entries whose recorded model digest no longer matches "
        "this Simulink model (stale evidence)",
    )
    history.add_argument("--json", action="store_true")
    history.set_defaults(func=_cmd_history)

    diff = sub.add_parser(
        "diff", help="diff two analysis-ledger entries"
    )
    diff.add_argument("--ledger", required=True)
    diff.add_argument(
        "a", help="baseline entry: @N, negative index, id prefix, 'latest'"
    )
    diff.add_argument("b", help="candidate entry (same reference forms)")
    diff.add_argument("--json", action="store_true")
    diff.set_defaults(func=_cmd_diff)

    watch = sub.add_parser(
        "watch-regressions",
        help="exit non-zero on SPFM drops, new single-point faults, ASIL "
        "downgrades or wall-time regressions vs a baseline entry",
    )
    watch.add_argument("--ledger", required=True)
    watch.add_argument(
        "--entry",
        default="latest",
        help="candidate entry to check (default: latest)",
    )
    watch.add_argument(
        "--baseline",
        help="baseline entry reference (default: previous entry of the "
        "same kind and system)",
    )
    watch.add_argument(
        "--max-spfm-drop",
        type=float,
        default=0.0,
        help="tolerated absolute SPFM drop (default 0: any drop fails)",
    )
    watch.add_argument(
        "--max-walltime-pct",
        type=float,
        default=25.0,
        help="tolerated wall-time regression in percent (default 25)",
    )
    watch.add_argument("--json", action="store_true")
    watch.set_defaults(func=_cmd_watch_regressions)

    ledger_index = sub.add_parser(
        "ledger-index",
        help="inspect or rebuild the ledger's sidecar byte-offset index",
    )
    ledger_index.add_argument("--ledger", required=True)
    ledger_index.add_argument(
        "--rebuild",
        action="store_true",
        help="force a full rebuild of the sidecar index",
    )
    ledger_index.add_argument("--json", action="store_true")
    ledger_index.set_defaults(func=_cmd_ledger_index)

    render = sub.add_parser("render", help="render SSAM model views")
    render.add_argument("--ssam", required=True)
    render.add_argument(
        "--view",
        choices=["architecture", "mermaid", "hazards", "requirements"],
        default="architecture",
    )
    render.set_defaults(func=_cmd_render)

    monitor = sub.add_parser("monitor", help="generate a runtime monitor")
    monitor.add_argument("--ssam", required=True)
    monitor.add_argument("--out", required=True)
    monitor.add_argument("--debounce", type=int, default=1)
    monitor.set_defaults(func=_cmd_monitor)

    serve = sub.add_parser(
        "serve-analysis",
        help="run the always-on analysis service (async jobs + result cache)",
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT to listen on (port 0 picks a free port)",
    )
    serve.add_argument(
        "--ledger",
        required=True,
        help="analysis ledger JSONL backing the result cache",
    )
    serve.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="analysis worker threads draining the job queue",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-fingerprint campaign checkpoints",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="stop after this many seconds (0: run until interrupted)",
    )
    serve.set_defaults(func=_cmd_serve_analysis)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Sample from here, before the verb's own imports and set-up, so the
    # profile covers the whole command; _obs_end writes it.
    args.profiler = _start_profiler(getattr(args, "profile", None))
    try:
        return args.func(args)
    finally:
        if args.profiler is not None:
            args.profiler.stop()


if __name__ == "__main__":
    sys.exit(main())
