"""Signal-based sampling profiler with flamegraph-ready output.

:class:`SamplingProfiler` interrupts the main thread on a CPU-time timer
(``SIGPROF`` / ``ITIMER_PROF``, so idle waits cost nothing), captures the
interrupted Python stack, and aggregates identical stacks into counts.
:meth:`SamplingProfiler.write_folded` emits the collapsed-stack format
(``frame;frame;frame count`` per line) consumed by ``flamegraph.pl``,
speedscope and every other flamegraph renderer.

When tracing is enabled, each sample is rooted under a synthetic
``span:<name>`` frame naming the innermost active span on the main thread,
so a flamegraph slices by the same taxonomy as the trace (all campaign
samples under ``span:campaign.execute``, solver work under ``mna.*`` spans).

Sampling only works on the main thread of the main interpreter (POSIX
signal delivery); constructing a profiler elsewhere degrades to an inert
no-op (``active`` stays ``False``) rather than raising, so library code can
profile opportunistically.  Overhead is one short signal handler per
``interval`` of *CPU* time — idle waits (pool futures, I/O) cost nothing.
"""

from __future__ import annotations

import os.path
import signal
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

__all__ = ["SamplingProfiler"]


class SamplingProfiler:
    """Aggregating sampling profiler (collapsed-stack output).

    Usage::

        profiler = SamplingProfiler(interval=0.002)
        profiler.start()
        ...           # the workload
        profiler.stop()
        profiler.write_folded("campaign.folded")

    or as a context manager.  ``interval`` is seconds of process CPU time
    between samples (default 2 ms ≈ 500 Hz under full load).
    """

    def __init__(self, interval: float = 0.002) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = float(interval)
        self.samples = 0
        self.active = False
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._previous_handler = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> bool:
        """Arm the timer; ``True`` when sampling is actually running."""
        if self.active:
            return True
        if threading.current_thread() is not threading.main_thread():
            return False
        try:
            self._previous_handler = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        except (ValueError, OSError, AttributeError):
            # Non-main interpreter, exotic platform, or SIGPROF unavailable.
            self._previous_handler = None
            return False
        self.active = True
        return True

    def stop(self) -> int:
        """Disarm the timer and restore the old handler; returns the total
        number of samples captured."""
        if not self.active:
            return self.samples
        try:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(
                signal.SIGPROF,
                self._previous_handler
                if self._previous_handler is not None
                else signal.SIG_DFL,
            )
        except (ValueError, OSError):
            pass
        self._previous_handler = None
        self.active = False
        return self.samples

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # -- sampling ----------------------------------------------------------

    def _sample(self, signum, frame) -> None:
        # Runs inside a signal handler on the main thread: keep it
        # allocation-light and never raise.  The frame argument is the
        # interrupted frame; walking f_back reads the live stack without
        # touching the traceback machinery.
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
            frame = frame.f_back
        stack.reverse()
        span = _current_span_name()
        if span is not None:
            stack.insert(0, f"span:{span}")
        key = tuple(stack)
        self._counts[key] = self._counts.get(key, 0) + 1
        self.samples += 1

    # -- output ------------------------------------------------------------

    def folded(self) -> str:
        """The collapsed-stack text (``frame;frame count`` per line),
        deterministically ordered."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self._counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.folded(), encoding="utf-8")
        return path


def _current_span_name() -> Optional[str]:
    # Late import: repro.obs imports nothing from this module at load time,
    # but importing it at our module top would still tie profiler import to
    # the whole obs facade; resolving lazily keeps this file standalone.
    try:
        from repro import obs
    except ImportError:  # pragma: no cover — obs is a sibling module
        return None
    if not obs.enabled():
        return None
    return obs.current_span_name()
