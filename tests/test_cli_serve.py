"""``same serve-analysis`` end to end, as a user runs it.

Starts ``python -m repro.cli serve-analysis`` as a subprocess in a
temporary workspace, submits the power-supply FMEA twice over HTTP, and
checks the second answer is a ledger hit with the same rows.
"""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_simulink,
    power_supply_reliability,
)
from repro.service import reliability_payload

STARTUP_SECONDS = 60
JOB_SECONDS = 120


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


def _submit(url, payload):
    request = urllib.request.Request(
        f"{url}/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 202
        job_id = json.load(response)["id"]
    deadline = time.monotonic() + JOB_SECONDS
    while time.monotonic() < deadline:
        job = _get(f"{url}/jobs/{job_id}")
        if job["state"] in ("done", "failed"):
            assert job["state"] == "done", job["error"]
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {JOB_SECONDS}s")


@pytest.fixture
def server_url(tmp_path):
    """A running ``serve-analysis`` whose workspace is ``tmp_path``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-analysis",
            "--ledger", "ledger.jsonl",
            "--bind", "127.0.0.1:0",
            "--max-seconds", "300",
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(line) for line in server.stdout],
        daemon=True,
    ).start()
    try:
        url = None
        deadline = time.monotonic() + STARTUP_SECONDS
        while url is None and time.monotonic() < deadline:
            try:
                line = lines.get(timeout=deadline - time.monotonic())
            except queue.Empty:
                break
            match = re.search(r"http://[\d.]+:\d+", line)
            url = match.group(0) if match else None
        assert url, "serve-analysis never printed its URL"
        yield url
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def test_resubmitted_fmea_is_a_ledger_hit_with_identical_rows(
    tmp_path, server_url
):
    payload = {
        "kind": "fmea",
        "model": build_power_supply_simulink().to_dict(),
        "reliability": reliability_payload(power_supply_reliability()),
        "config": {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)},
    }
    first = _submit(server_url, payload)
    assert first["cached"] is False
    assert first["result"]["rows"]

    second = _submit(server_url, payload)
    assert second["cached"] is True
    assert second["result"]["from_cache"] is True
    assert second["result"]["rows"] == first["result"]["rows"]
    assert second["result"]["entry"] == first["result"]["entry"]

    service = _get(f"{server_url}/healthz")["service"]
    assert (service["cache_hits"], service["cache_misses"]) == (1, 1)
    # The ledger lives in the workspace and holds the one computed entry.
    entries = [
        json.loads(line)
        for line in (tmp_path / "ledger.jsonl").read_text().splitlines()
    ]
    assert [e["id"] for e in entries if e.get("kind") == "fmea"] == [
        first["result"]["entry"]
    ]
