"""CI smoke for the always-on analysis service.

Starts the real thing — ``same serve-analysis`` as a subprocess — then,
over plain HTTP:

1. submits an FMEA job for the power-supply case study and waits for it
   to compute (a cache miss: the ledger starts empty);
2. checks the computed job's ``service-log`` artifact on its ledger
   entry holds exactly the records ``GET /jobs/<id>/events`` replays
   (same ``seq``s, all with the job's correlation id);
3. resubmits the first body byte-for-byte and asserts it is served from
   the ledger — ``cached`` is true, the answer is identical to the
   computed one, ``service_cache_hits`` is 1 on ``/metrics``, and
   ``service_request_memo_hits`` rose by exactly 1 (the bytes were keyed
   by their hash, not parsed);
4. checks ``/healthz`` carries the service summary;
5. writes the final ``/metrics`` scrape to ``SERVICE_metrics.txt`` (the
   CI artifact).

Exits non-zero on any violation.  Run as::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

METRICS_OUT = Path("SERVICE_metrics.txt")
STARTUP_SECONDS = 60
JOB_SECONDS = 120


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def _post(url: str, body: bytes) -> dict:
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        if response.status != 202:
            raise AssertionError(f"POST /jobs -> {response.status}")
        return json.load(response)


def _wait_done(url: str, job_id: str) -> dict:
    deadline = time.monotonic() + JOB_SECONDS
    while time.monotonic() < deadline:
        job = json.loads(_get(f"{url}/jobs/{job_id}"))
        if job["state"] in ("done", "failed"):
            if job["state"] != "done":
                raise AssertionError(f"job {job_id} failed: {job['error']}")
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish in {JOB_SECONDS}s")


def _service_log(ledger: Path, entry_id: str) -> Path:
    """The ``service-log`` artifact linked to ``entry_id``.  The service
    exports it right after the job turns ``done``, so poll briefly."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        for line in ledger.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if (
                record.get("type") == "artifact"
                and record.get("entry") == entry_id
                and record.get("kind") == "service-log"
            ):
                return Path(record["path"])
        time.sleep(0.1)
    raise AssertionError(f"entry {entry_id} has no service-log artifact")


def _counter(url: str, name: str) -> float:
    """A counter's value on ``/metrics`` (0 before its first increment)."""
    for line in _get(f"{url}/metrics").decode("utf-8").splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


def _sse_frames(url: str) -> list:
    """``(id, event, data)`` per frame of a bounded (``limit=``) stream."""
    frames = []
    for block in _get(url).decode("utf-8").split("\n\n"):
        fields = dict(
            line.split(": ", 1) for line in block.splitlines() if ": " in line
        )
        if "data" in fields:
            frames.append(
                (int(fields["id"]), fields["event"], json.loads(fields["data"]))
            )
    return frames


def main() -> int:
    from repro.casestudies.power_supply import (
        ASSUMED_STABLE,
        build_power_supply_simulink,
        power_supply_reliability,
    )
    from repro.service import reliability_payload

    body = json.dumps({
        "kind": "fmea",
        "model": build_power_supply_simulink().to_dict(),
        "reliability": reliability_payload(power_supply_reliability()),
        "config": {
            "sensors": ["CS1"],
            "assume_stable": list(ASSUMED_STABLE),
        },
        "tenant": "ci-smoke",
    }).encode("utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve-analysis",
                "--ledger", str(ledger),
                "--bind", "127.0.0.1:0",
                "--max-seconds", "300",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = None
            deadline = time.monotonic() + STARTUP_SECONDS
            while time.monotonic() < deadline:
                line = server.stdout.readline()
                if not line:
                    raise AssertionError("serve-analysis exited early")
                print(f"server: {line.rstrip()}")
                match = re.search(r"http://[\d.]+:\d+", line)
                if match:
                    url = match.group(0)
                    break
            assert url, "serve-analysis never printed its URL"

            first = _wait_done(url, _post(f"{url}/jobs", body)["id"])
            assert first["cached"] is False, "first submission must compute"
            assert first["result"]["rows"], "computed FMEA has no rows"

            artifact = _service_log(ledger, first["result"]["entry"])
            records = [
                json.loads(line)
                for line in artifact.read_text(encoding="utf-8").splitlines()
            ]
            frames = _sse_frames(
                f"{url}/jobs/{first['id']}/events?since=0&limit={len(records)}"
            )
            assert [data for _, _, data in frames] == records, (
                "service-log artifact differs from the job's event replay"
            )
            assert [seq for seq, _, _ in frames] == [r["seq"] for r in records]
            assert all(r["cid"] == first["correlation_id"] for r in records)
            types = [r["type"] for r in records]
            assert "job_started" in types, types
            assert records[-1]["type"] == "job_finished", types
            assert records[-1]["level"] == "info", records[-1]
            print(f"service-log OK: {len(records)} records match the replay")

            memo_hits = _counter(url, "service_request_memo_hits")
            second = _wait_done(url, _post(f"{url}/jobs", body)["id"])
            assert second["cached"] is True, (
                "identical resubmission was recomputed instead of being "
                "served from the ledger"
            )
            assert second["result"] == dict(first["result"], from_cache=True), (
                "the cached answer differs from the computed one"
            )
            assert second["fingerprint"] == first["fingerprint"]
            memo_delta = _counter(url, "service_request_memo_hits") - memo_hits
            assert memo_delta == 1, (
                f"byte-identical resubmission: service_request_memo_hits "
                f"rose by {memo_delta:g}, expected 1"
            )
            print(
                f"cache hit OK: {len(first['result']['rows'])} rows, "
                f"fingerprint {first['fingerprint'][:16]}…, keyed by the "
                "request memo"
            )

            health = json.loads(_get(f"{url}/healthz"))
            service = health["service"]
            assert service["cache_hits"] == 1, service
            assert service["cache_misses"] == 1, service
            assert service["jobs"].get("done") == 2, service
            print(f"healthz OK: {service}")

            metrics = _get(f"{url}/metrics").decode("utf-8")
            for needle in (
                "service_cache_hits 1",
                "service_cache_misses 1",
                "service_jobs_submitted 2",
                "service_jobs_completed 2",
            ):
                assert needle in metrics, f"{needle!r} missing from /metrics"
            METRICS_OUT.write_text(metrics, encoding="utf-8")
            print(f"metrics scrape written to {METRICS_OUT}")
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
