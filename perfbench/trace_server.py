"""Start ``same serve-analysis`` with per-layer spans recorded in-process.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/trace_server.py SPANS.json serve-analysis --ledger L ...

Before handing the arguments to the CLI's ``main``, this wraps each layer's
public entry points *where the caller resolves the name* (a class attribute,
or the module attribute a function is looked up on at call time), so the
service runs its own code with a timing shell around each call.  Every span
records ``(id, parent id, name, start, end, correlation id)``; spans live in
memory and are written to ``SPANS.json`` when the server exits (SIGINT).

Recording is switched on by SIGUSR1 and off by SIGUSR2, so one server can
serve traced and untraced slices of the same run; a few rare one-off spans
(ledger open) are recorded regardless.
"""

from __future__ import annotations

import importlib
import itertools
import json
import signal
import sys
import threading
import time
import types

#: (module, attribute path, span name).  The module is where the *caller*
#: resolves the name: ``from repro.safety import run_fmeda`` inside a
#: function body looks it up on ``repro.safety`` at call time, a method is
#: looked up on its class.
TARGETS = (
    ("repro.service.server", "_ServiceHandler._submit_job", "server.post"),
    ("repro.service.server", "_ServiceHandler._serve_job", "server.get"),
    ("repro.service.server", "_ServiceHandler._read_body", "server.read_body"),
    ("repro.service.server", "json.loads", "jobs.parse"),
    ("repro.service.jobs", "AnalysisRequest.from_payload", "jobs.parse"),
    ("repro.service.jobs", "AnalysisService._run_job_correlated", "jobs.run"),
    ("repro.service.jobs", "AnalysisService._resolve", "jobs.resolve"),
    ("repro.service.jobs", "AnalysisRequest.fingerprint", "jobs.fingerprint"),
    ("repro.service.jobs", "AnalysisRequest.cache_key", "jobs.cache_key"),
    ("repro.service.jobs", "AnalysisRequest.model_digest", "jobs.model_digest"),
    ("repro.service.jobs", "AnalysisService._materialize_model",
     "simulink.materialize"),
    ("repro.safety.campaign", "FaultInjectionCampaign.__init__",
     "campaign.init"),
    ("repro.safety.campaign", "FaultInjectionCampaign.run", "campaign.run"),
    ("repro.safety.campaign", "campaign_fingerprint", "campaign.fingerprint"),
    ("repro.safety.campaign", "to_netlist", "simulink.to_netlist"),
    ("repro.safety.campaign", "_solve_readings", "mna.solve_full"),
    ("repro.circuit.mna", "CompiledSystem.__init__", "mna.compile"),
    ("repro.circuit.mna", "CompiledSystem.solve", "mna.solve"),
    ("repro.circuit.mna", "CompiledSystem.solve_replacement", "mna.solve"),
    ("repro.circuit.mna", "_lu_factor", "mna.factorize"),
    ("repro.circuit.backends", "factorize", "mna.factorize"),
    ("repro.safety", "run_fmeda", "fmeda.run"),
    ("repro.safety", "search_for_target", "optimizer.search"),
    ("repro.obs.ledger", "AnalysisLedger.latest_by_cache_key",
     "ledger.lookup"),
    ("repro.obs.ledger", "record_fmea", "ledger.record"),
    ("repro.obs.ledger", "record_fmeda", "ledger.record"),
    ("repro.obs.ledger", "record_optimizer", "ledger.record"),
    ("repro.obs.ledger", "model_digest", "ledger.model_digest"),
    ("repro.obs.ledger", "_campaign_fingerprint_for", "ledger.fingerprint"),
    ("repro.obs.ledger", "AnalysisLedger.append", "ledger.append"),
    ("repro.obs.ledger", "AnalysisLedger.attach_artifact", "ledger.attach"),
    ("repro.obs.ledger", "LedgerIndex._load_sidecar", "ledger.open"),
    ("repro.obs.ledger", "LedgerIndex._rebuild", "ledger.open"),
    ("repro.obs.slo", "SLOEngine.observe", "obs.slo"),
    ("repro.obs.slo", "SLOEngine.evaluate", "obs.slo"),
    ("repro.service.jobs", "AnalysisService._export_job_log",
     "obs.log_export"),
    ("repro.obs", "emit_event", "obs.event"),
    ("repro.obs", "log", "obs.log"),
)

#: Spans recorded even while recording is switched off (one-off set-up work
#: that a timed slice would otherwise never see).
ALWAYS = frozenset({"ledger.open"})


class Recorder:
    """In-memory span buffer; ``list.append`` is atomic under the GIL."""

    def __init__(self) -> None:
        self.on = False
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._correlation_id = lambda: None
        self.toggles = []

    def wrap(self, name: str, fn):
        always = name in ALWAYS
        recorder = self

        def traced(*args, **kwargs):
            if not (recorder.on or always):
                return fn(*args, **kwargs)
            stack = recorder._local.__dict__.setdefault("stack", [])
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, name, start, end,
                     recorder._correlation_id())
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from repro import obs

        self._correlation_id = obs.correlation_id
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                # Classes by __dict__, so a classmethod stays one.
                raw = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(owner, types.ModuleType) and parents:
                # A stdlib module the caller reaches through its own global
                # (``json.loads`` in the server): give the caller a proxy.
                setattr(
                    importlib.import_module(module_name), parents[0],
                    _Proxy(owner, attr, self.wrap(name, raw)),
                )
            elif isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                setattr(owner, attr, kind(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))

    def switch(self, on: bool) -> None:
        self.on = on
        self.toggles.append((time.perf_counter(), on, _tracer_records()))

    def dump(self, path: str) -> None:
        document = {
            "spans": self.spans,
            "missing": self.missing,
            "toggles": self.toggles,
            "tracer_records": _tracer_records(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _Proxy:
    """A module stand-in whose one attribute is replaced."""

    def __init__(self, module, attr: str, replacement) -> None:
        self._module = module
        self._attr = attr
        self._replacement = replacement

    def __getattr__(self, name: str):
        if name == self._attr:
            return self._replacement
        return getattr(self._module, name)


def _tracer_records() -> int:
    from repro import obs

    return len(obs.tracer().records())


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    signal.signal(signal.SIGUSR1, lambda *_: recorder.switch(True))
    signal.signal(signal.SIGUSR2, lambda *_: recorder.switch(False))
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
