"""Property test for the one event stream (``repro.obs.events.EventBus``).

Random interleavings of ``emit`` (random correlation ids and levels) and
``clear`` run against a small ring, so eviction is exercised constantly.  After every
step, each read path must agree with a filtered scan of the ring:

- ``events(cid=c)`` (the id-indexed view);
- ``subscribe(since, cid=c)`` replay (the SSE ``/jobs/<id>/events`` path);
- ``write_jsonl(cid=c)`` lines (the per-job ``service-log`` artifact);

``seq`` is strictly increasing along the ring.
"""

import json
import queue
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import LEVELS, EventBus

CIDS = (None, "a" * 16, "b" * 16, "c" * 16)

_record = st.tuples(
    st.sampled_from(CIDS), st.sampled_from(LEVELS + ("bogus",))
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), _record),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


def _replay(bus, since, cid):
    subscription = bus.subscribe(since=since, cid=cid)
    bus.unsubscribe(subscription)
    out = []
    while True:
        try:
            out.append(subscription.get_nowait())
        except queue.Empty:
            return out


def _check(bus, workdir):
    ring = bus.events()
    seqs = [e.seq for e in ring]
    assert seqs == sorted(set(seqs))
    assert all(e.level in LEVELS for e in ring)
    for cid in CIDS[1:]:
        scan = [e for e in ring if e.cid == cid]
        assert bus.events(cid=cid) == scan
        for since in (0, seqs[len(seqs) // 2] if seqs else 0):
            assert _replay(bus, since, cid) == [e for e in scan if e.seq > since]
        path = bus.write_jsonl(workdir / "job.jsonl", cid=cid)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [e.to_dict() for e in scan]


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(2, 6), ops=_ops)
def test_every_read_path_equals_a_filtered_scan_of_the_ring(depth, ops):
    bus = EventBus(buffer=depth)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, arg in ops:
            if name == "emit":
                cid, level = arg
                bus.emit("tick", {"n": len(bus.events())}, cid=cid, level=level)
            else:
                bus.clear()
                assert bus.events() == [] and bus.last_seq() == 0
            _check(bus, workdir)
