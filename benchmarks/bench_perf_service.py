"""BENCH service — O(1) indexed cache-hit latency + single-flight coalescing.

Times the analysis-service cache-hit path against ledgers of growing
history (100 / 1k / 10k entries): the byte-offset index must keep the
end-to-end cache-hit p99 flat, while the one linear cost left — a fresh
handle with no sidecar building its index from the file — grows with
history.
Then hammers one service with N identical concurrent submissions and
checks single-flight coalescing collapses them onto one campaign
computation with bit-identical rows for every client.  Last, it times a
grid-size revisit both ways, alternating: a byte-identical body keyed by
its sha256 alone (request-memo hit) against a new body of the same
question that is parsed and keyed (parse path); both are ledger hits.
Then it times cold keying: parse plus fingerprint and cache key, through
the service's model entry, of new-sample grid bodies whose model the
service has already seen, against one ``canonical_json`` of that model
and against one ``json.loads`` of the body.  Measurements go to
``BENCH_service.json`` at the repo root.

Acceptance (full mode):

- cache-hit p99 grows <= ``SCALING_BUDGET`` (1.5x) from the smallest to
  the largest ledger — both the raw ``latest_by_cache_key`` seek and the
  full service round-trip;
- ``CLIENTS`` identical concurrent submissions trigger exactly 1
  campaign computation (1 cache miss, 1 ledger entry) and all clients
  receive bit-identical rows;
- the memo-hit revisit is faster than the parse-path one in every pair
  (smoke mode too), with the same rows;
- cold keying of a body with a seen model costs less than one
  serialisation of that model (smoke mode too): the service's entry for
  the model keeps its canonical text and is found by the body's raw model
  text, so the model is not serialised again;
- that keying also costs less than one ``json.loads`` of the body (smoke
  mode too): the raw model text is an alias the service holds, so the
  body's parse does not scan its model member.

Smoke mode (``BENCH_SERVICE_SMOKE=1``): shrinks the ledgers, repeat
counts and the revisit grid (4 feeders x 60 sections instead of the
5.2k-block grid) and skips the scaling assertion, so CI exercises the
whole path in seconds.

Provenance (``BENCH_SERVICE_LEDGER=/path/to/ledger.jsonl``): records a
``service-bench`` entry whose ``meta.scaling`` carries the measured
ratio/budget pairs, so the nightly ``same watch-regressions`` gate flags
cache-hit-latency scaling regressions (the ``scaling`` rule), and a
memo-hit revisit no faster than a parse-path one (``revisit_memo``, memo
p50 over parse p50, budget 1), cold keying that costs a serialisation
of the model again (``cold_keying``, keying p50 over ``canonical_json``
p50, budget 1), and cold keying that costs a parse of the body
(``cold_keying_parse``, keying p50 over ``json.loads`` p50, budget 1);
``meta.revisit`` and ``meta.cold_keying`` carry the walls.

``BENCH_service.json`` keeps a bounded ``trajectory`` of past runs.
"""

import json
import os
import statistics
import tempfile
import threading
import time
from pathlib import Path

from _harness import format_rows, report_table
from repro import obs
from repro.casestudies import (
    build_power_grid_simulink,
    power_grid_injection_sample,
    power_network_reliability,
)
from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_simulink,
    power_supply_reliability,
)
from repro.obs.ledger import AnalysisLedger, LedgerEntry
from repro.safety.resilience import canonical_json
from repro.service import AnalysisRequest, AnalysisService, reliability_payload

SMOKE = os.environ.get("BENCH_SERVICE_SMOKE") == "1"
LEDGER_PATH = os.environ.get("BENCH_SERVICE_LEDGER") or None
#: How many trajectory points BENCH_service.json retains.
TRAJECTORY_KEEP = 120
#: Ledger history sizes the cache-hit probe sweeps.
SIZES = [50, 200] if SMOKE else [100, 1000, 10000]
#: Raw index seeks per size (p99 needs a population).
LOOKUPS = 50 if SMOKE else 300
#: Lookups through a fresh handle with the sidecar deleted, so each one
#: builds the index from the file (the linear baseline; kept small).
REBUILD_LOOKUPS = 3 if SMOKE else 5
#: End-to-end service cache-hit jobs per batch; best-of-REPEATS batch
#: p99s is reported, so one scheduler hiccup can't fake a regression.
HIT_JOBS = 10 if SMOKE else 25
REPEATS = 1 if SMOKE else 3
#: Concurrent identical submissions for the coalescing probe.
CLIENTS = 8
#: Tolerated cache-hit p99 growth from the smallest to the largest ledger.
SCALING_BUDGET = 1.5
#: Revisit probe: the grid asked about (builder arguments; the full grid's
#: body is ~1.1 MB), its injection sample size, and alternating pairs.
REVISIT_GRID = {"feeders": 4, "sections_per_feeder": 60} if SMOKE else {}
REVISIT_SAMPLE_K = 4
REVISIT_PAIRS = 5 if SMOKE else 10
#: Cold-keying probe: new-sample bodies of the revisit grid, each keyed
#: once and paired with one serialisation of the model.
COLD_KEYING_BODIES = 5 if SMOKE else 10
JOB_TIMEOUT = 300.0

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _payload(tenant=""):
    model = build_power_supply_simulink()
    return {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(power_supply_reliability()),
        "config": {
            "sensors": ["CS1"],
            "assume_stable": list(ASSUMED_STABLE),
        },
        "tenant": tenant,
    }


def _cache_key(payload):
    request = AnalysisRequest.from_payload(payload)
    return request.cache_key(request.fingerprint())


def _seed_ledger(path, count, hit_key, hit_rows):
    """``count`` entries; the *oldest* carries ``hit_key`` — the worst
    case for a reverse scan, a single seek for the index."""
    ledger = AnalysisLedger(path)
    ledger.append(
        LedgerEntry(
            kind="fmea",
            system="power_supply",
            spfm=0.95,
            asil="ASIL-B",
            rows=list(hit_rows),
            metrics={"wall_time": 0.5},
            meta={"service": True, "service_cache_key": hit_key},
        )
    )
    for i in range(count - 1):
        ledger.append(
            LedgerEntry(
                kind="fmea",
                system="power_supply",
                spfm=0.90,
                asil="ASIL-B",
                rows=[{"component": f"C{i}", "failure_mode": "Open"}],
                meta={"service_cache_key": f"filler-{i:06d}"},
            )
        )
    return ledger


def _p99(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]


def _hit_rows():
    return [
        {
            "component": "RECT1",
            "failure_mode": "Open",
            "fit": 10.0,
            "safety_related": True,
        }
    ]


def _finish(job, timeout=JOB_TIMEOUT):
    assert job.done_event.wait(timeout), f"job {job.id} did not finish"
    return job


def probe_size(tmp, size, payload, key):
    """Cache-hit latency at one ledger size: raw seeks + service jobs."""
    path = Path(tmp) / f"ledger-{size}.jsonl"
    _seed_ledger(path, size, key, _hit_rows())

    indexed = AnalysisLedger(path)
    assert indexed.latest_by_cache_key(key) is not None  # warm the index
    seeks = []
    for _ in range(LOOKUPS):
        start = time.perf_counter()
        entry = indexed.latest_by_cache_key(key)
        seeks.append((time.perf_counter() - start) * 1e6)
        assert entry is not None

    rebuilds = []
    for _ in range(REBUILD_LOOKUPS):
        Path(str(path) + ".idx").unlink()
        start = time.perf_counter()
        entry = AnalysisLedger(path).latest_by_cache_key(key)
        rebuilds.append((time.perf_counter() - start) * 1e6)
        assert entry is not None

    batch_p99s = []
    with AnalysisService(path, workers=2) as svc:
        for batch in range(REPEATS):
            walls = []
            for i in range(HIT_JOBS):
                job = _finish(
                    svc.submit(dict(payload, tenant=f"probe-{batch}-{i}"))
                )
                assert job.state == "done", job.error
                assert job.cached is True, (
                    f"size {size}: expected a cache hit, got a compute"
                )
                assert job.result["rows"] == _hit_rows()
                walls.append((job.finished_at - job.submitted_at) * 1e3)
            batch_p99s.append(_p99(walls))

    return {
        "entries": size,
        "seek_p99_us": round(_p99(seeks), 2),
        "rebuild_p99_us": round(_p99(rebuilds), 2),
        "hit_p99_ms": round(min(batch_p99s), 3),
        "hit_jobs": HIT_JOBS * REPEATS,
    }


def probe_coalescing(tmp, payload):
    """N identical concurrent submissions -> exactly one computation.

    The PSU campaign computes in milliseconds — faster than the other
    workers can even dequeue — so the leader is held at the compute gate
    until every other client has parked behind it (or a generous
    deadline passes).  What's measured is the real coalescing path, not
    a race against the scheduler; the computation itself is untouched.
    """
    obs.reset()
    path = Path(tmp) / "coalesce.jsonl"
    start = time.perf_counter()
    with AnalysisService(path, workers=CLIENTS) as svc:
        real = svc._compute
        release = threading.Event()

        def gated(request, job):
            release.wait(JOB_TIMEOUT)
            return real(request, job)

        svc._compute = gated
        jobs = [
            svc.submit(dict(payload, tenant=f"client-{i}"))
            for i in range(CLIENTS)
        ]
        deadline = time.perf_counter() + 30.0
        while (
            int(obs.counter("service_coalesced_jobs").value) < CLIENTS - 1
            and time.perf_counter() < deadline
        ):
            time.sleep(0.002)
        release.set()
        finished = [_finish(job) for job in jobs]
    elapsed = time.perf_counter() - start

    assert all(job.state == "done" for job in finished), [
        job.error for job in finished
    ]
    computations = int(obs.counter("service_cache_misses").value)
    coalesced = int(obs.counter("service_coalesced_jobs").value)
    entries = AnalysisLedger(path).entries()
    rows = finished[0].result["rows"]
    assert computations == 1, (
        f"{CLIENTS} identical submissions ran {computations} computations"
    )
    assert len(entries) == 1, f"expected 1 ledger entry, got {len(entries)}"
    assert all(job.result["rows"] == rows for job in finished), (
        "coalesced clients must receive bit-identical rows"
    )
    assert coalesced == CLIENTS - 1, (
        f"expected {CLIENTS - 1} coalesced followers, got {coalesced}"
    )
    return {
        "clients": CLIENTS,
        "computations": computations,
        "coalesced": coalesced,
        "cache_hits": int(obs.counter("service_cache_hits").value),
        "wall_s": round(elapsed, 3),
    }


def _grid_body(model=None, seed=1):
    model = model or build_power_grid_simulink(**REVISIT_GRID)
    stable = power_grid_injection_sample(model, k=REVISIT_SAMPLE_K, seed=seed)
    body = {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(power_network_reliability()),
        "config": {"assume_stable": list(stable)},
    }
    return json.dumps(body).encode("utf-8")


def _revisit_wall(svc, body):
    """Submit-to-done wall (ms) of one revisit, which must be a ledger hit."""
    start = time.perf_counter()
    job = _finish(svc.submit(body))
    wall = (time.perf_counter() - start) * 1e3
    assert job.state == "done", job.error
    assert job.cached, "a revisit must be served from the ledger"
    return wall, job


def probe_revisit(tmp):
    """Memo-hit against parse-path revisits of one grid question.

    Each pair submits the original bytes (keyed by their sha256 alone) and
    the same body with ``i + 1`` trailing spaces — new bytes, so a memo
    miss that parses and keys, but the same question, so a ledger hit.
    The order within a pair alternates.
    """
    obs.reset()
    body = _grid_body()
    memo, parse = [], []
    with AnalysisService(Path(tmp) / "revisit.jsonl", workers=1) as svc:
        first = _finish(svc.submit(body))
        assert first.state == "done", first.error
        for i in range(REVISIT_PAIRS):
            fresh = body + b" " * (i + 1)
            for which in ((fresh, body) if i % 2 == 0 else (body, fresh)):
                wall, job = _revisit_wall(svc, which)
                (memo if which is body else parse).append(wall)
                assert job.result["rows"] == first.result["rows"]
    hits = int(obs.counter("service_request_memo_hits").value)
    assert hits == REVISIT_PAIRS, f"{hits} memo hits in {REVISIT_PAIRS} pairs"
    wins = sum(m < p for m, p in zip(memo, parse))
    return {
        "body_bytes": len(body),
        "pairs": REVISIT_PAIRS,
        "memo_p50_ms": round(sorted(memo)[len(memo) // 2], 3),
        "parse_p50_ms": round(sorted(parse)[len(parse) // 2], 3),
        "memo_wins": wins,
    }


def probe_cold_keying(tmp):
    """Parse plus keying of new-sample grid bodies, over one serialisation
    of their model and over one ``json.loads`` of the body.

    The service first keys one body, so it has an entry for the model and
    holds its raw text.  Each later body (a new injection sample, so new
    bytes) is parsed the way ``submit`` parses it and given its
    fingerprint and cache key the way a worker keys a cold job, through
    that entry; each is paired with one ``canonical_json`` of the model
    payload, the serialisation the keys used to repeat per job, and with
    one ``json.loads`` of the body, the parse the body used to cost.
    """
    model = build_power_grid_simulink(**REVISIT_GRID)
    payload = model.to_dict()
    bodies = [
        _grid_body(model, seed) for seed in range(1, COLD_KEYING_BODIES + 2)
    ]
    svc = AnalysisService(Path(tmp) / "cold-keying.jsonl")  # keys only

    def key(body):
        request = svc._parse(body)
        svc._content_keys(request)
        return request

    entry = svc._model_entry(key(bodies[0]))
    keying, serialising, loading = [], [], []
    for body in bodies[1:]:
        start = time.perf_counter()
        request = key(body)
        keying.append((time.perf_counter() - start) * 1e3)
        assert svc._model_entry(request) is entry
        start = time.perf_counter()
        canonical_json(payload)
        serialising.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        json.loads(body)
        loading.append((time.perf_counter() - start) * 1e3)
    return {
        "body_bytes": len(bodies[0]),
        "bodies": COLD_KEYING_BODIES,
        "keying_p50_ms": round(statistics.median(keying), 3),
        "canonical_json_p50_ms": round(statistics.median(serialising), 3),
        "json_loads_p50_ms": round(statistics.median(loading), 3),
    }


def _extended_trajectory(payload):
    """Prior trajectory plus a point for this run, bounded."""
    trajectory = []
    try:
        previous = json.loads(JSON_PATH.read_text(encoding="utf-8"))
        trajectory = list(previous.get("trajectory", []))
    except (OSError, ValueError):
        pass
    point = {"timestamp": time.time(), "mode": payload["mode"]}
    try:
        from repro.obs.ledger import git_describe

        point["git"] = git_describe()
    except Exception:  # noqa: BLE001 — provenance decoration only
        point["git"] = ""
    for size in payload["sizes"]:
        point[str(size["entries"])] = {
            "seek_p99_us": size["seek_p99_us"],
            "rebuild_p99_us": size["rebuild_p99_us"],
            "hit_p99_ms": size["hit_p99_ms"],
        }
    point["hit_scaling"] = payload["scaling"]["cache_hit_p99"]["ratio"]
    point["coalesced"] = payload["coalescing"]["coalesced"]
    point["revisit_memo_ms"] = payload["revisit"]["memo_p50_ms"]
    point["revisit_parse_ms"] = payload["revisit"]["parse_p50_ms"]
    point["cold_keying"] = payload["scaling"]["cold_keying"]["ratio"]
    point["cold_keying_parse"] = (
        payload["scaling"]["cold_keying_parse"]["ratio"]
    )
    trajectory.append(point)
    return trajectory[-TRAJECTORY_KEEP:]


def _ledger_record(payload):
    """Stamp the measured scaling ratios for the nightly gate."""
    AnalysisLedger(LEDGER_PATH).append(
        LedgerEntry(
            kind="service-bench",
            system="power_supply",
            spfm=0.95,
            asil="ASIL-B",
            rows=[],
            # No wall_time metric on purpose: the coalescing wall is
            # milliseconds of scheduler noise and would trip the generic
            # wall-time rule run to run. The scaling probes are the gate.
            metrics={},
            config={"bench": "service", "sizes": SIZES},
            meta={
                "bench": "service",
                "mode": payload["mode"],
                "scaling": payload["scaling"],
                "coalescing": payload["coalescing"],
                "revisit": payload["revisit"],
                "cold_keying": payload["cold_keying"],
            },
        )
    )


def test_bench_service():
    payload = {
        "mode": "smoke" if SMOKE else "full",
        "scaling_budget": SCALING_BUDGET,
        "sizes": [],
        "coalescing": {},
    }
    request_payload = _payload()
    key = _cache_key(request_payload)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        for size in SIZES:
            obs.reset()
            payload["sizes"].append(
                probe_size(tmp, size, request_payload, key)
            )
        payload["coalescing"] = probe_coalescing(tmp, request_payload)
        payload["revisit"] = probe_revisit(tmp)
        payload["cold_keying"] = probe_cold_keying(tmp)

    smallest, largest = payload["sizes"][0], payload["sizes"][-1]
    hit_ratio = (
        largest["hit_p99_ms"] / smallest["hit_p99_ms"]
        if smallest["hit_p99_ms"]
        else 1.0
    )
    seek_ratio = (
        largest["seek_p99_us"] / smallest["seek_p99_us"]
        if smallest["seek_p99_us"]
        else 1.0
    )
    rebuild_ratio = (
        largest["rebuild_p99_us"] / smallest["rebuild_p99_us"]
        if smallest["rebuild_p99_us"]
        else 1.0
    )
    payload["scaling"] = {
        "cache_hit_p99": {
            "ratio": round(hit_ratio, 3),
            "budget": SCALING_BUDGET,
        },
        "index_seek_p99": {
            "ratio": round(seek_ratio, 3),
            "budget": SCALING_BUDGET,
        },
        # Building the index from the file is *expected* to grow ~linearly
        # with history; reported for contrast, never gated.
        "rebuild_baseline": {"ratio": round(rebuild_ratio, 3)},
        # A memo-hit revisit must beat a parsed one.
        "revisit_memo": {
            "ratio": round(
                payload["revisit"]["memo_p50_ms"]
                / payload["revisit"]["parse_p50_ms"],
                3,
            ),
            "budget": 1.0,
        },
        # Keying a body whose model was seen must cost less than one
        # serialisation of the model.
        "cold_keying": {
            "ratio": round(
                payload["cold_keying"]["keying_p50_ms"]
                / payload["cold_keying"]["canonical_json_p50_ms"],
                3,
            ),
            "budget": 1.0,
        },
        # ... and less than one parse of the body: the model member of a
        # body whose model text the service holds is not scanned.
        "cold_keying_parse": {
            "ratio": round(
                payload["cold_keying"]["keying_p50_ms"]
                / payload["cold_keying"]["json_loads_p50_ms"],
                3,
            ),
            "budget": 1.0,
        },
    }
    payload["accepted"] = bool(SMOKE or hit_ratio <= SCALING_BUDGET)
    payload["trajectory"] = _extended_trajectory(payload)
    JSON_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    table = [
        {
            "Entries": size["entries"],
            "Seek p99(us)": f"{size['seek_p99_us']:.1f}",
            "Rebuild p99(us)": f"{size['rebuild_p99_us']:.1f}",
            "Hit p99(ms)": f"{size['hit_p99_ms']:.2f}",
        }
        for size in payload["sizes"]
    ]
    revisit = payload["revisit"]
    table.append(
        {
            "Entries": f"revisit {revisit['body_bytes'] // 1024} KiB",
            "Seek p99(us)": "-",
            "Rebuild p99(us)": "-",
            "Hit p99(ms)": (
                f"memo p50 {revisit['memo_p50_ms']:.2f} / "
                f"parse p50 {revisit['parse_p50_ms']:.2f}"
            ),
        }
    )
    cold = payload["cold_keying"]
    table.append(
        {
            "Entries": f"cold keying {cold['body_bytes'] // 1024} KiB",
            "Seek p99(us)": "-",
            "Rebuild p99(us)": "-",
            "Hit p99(ms)": (
                f"keying p50 {cold['keying_p50_ms']:.2f} / "
                f"canonical_json p50 {cold['canonical_json_p50_ms']:.2f} / "
                f"json.loads p50 {cold['json_loads_p50_ms']:.2f}"
            ),
        }
    )
    table.append(
        {
            "Entries": f"coalesce x{CLIENTS}",
            "Seek p99(us)": "-",
            "Rebuild p99(us)": "-",
            "Hit p99(ms)": (
                f"{payload['coalescing']['computations']} compute / "
                f"{payload['coalescing']['coalesced']} coalesced"
            ),
        }
    )
    report_table(
        "BENCH service",
        "indexed cache-hit latency vs ledger size + request coalescing",
        format_rows(table),
    )

    if LEDGER_PATH:
        _ledger_record(payload)

    assert revisit["memo_wins"] == revisit["pairs"], (
        f"memo-hit revisit won {revisit['memo_wins']} of {revisit['pairs']} "
        f"pairs against the parse path"
    )
    cold_ratio = payload["scaling"]["cold_keying"]["ratio"]
    assert cold_ratio <= 1.0, (
        f"cold keying took {cold_ratio:.2f}x one serialisation of the model"
    )
    parse_ratio = payload["scaling"]["cold_keying_parse"]["ratio"]
    assert parse_ratio <= 1.0, (
        f"cold keying took {parse_ratio:.2f}x one json.loads of the body"
    )

    if not SMOKE:
        assert hit_ratio <= SCALING_BUDGET, (
            f"cache-hit p99 grew {hit_ratio:.2f}x from "
            f"{smallest['entries']} to {largest['entries']} entries "
            f"(budget {SCALING_BUDGET}x; "
            f"rebuild baseline {rebuild_ratio:.2f}x)"
        )
