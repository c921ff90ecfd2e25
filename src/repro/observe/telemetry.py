"""Live engine telemetry: progress, ETA, and hung-worker detection.

The engine's result channel is the only transport: workers return a
small heartbeat tuple *beside* every task result (wall seconds and the
executing pid, measured by
:func:`repro.engine.tasks.execute_task_heartbeat`), and the host-side
:class:`TelemetryMonitor` folds those arrivals into live state — done
counts, cache hits, instruction throughput, an ETA — that it renders as
a progress line and mirrors into an atomically-rewritten status-file
JSON.  A daemon watchdog thread keeps polling while the engine blocks
on the worker pool, so a worker that stops producing results is flagged
as *suspected hung* after ``hang_threshold`` seconds of silence instead
of stalling the run invisibly forever.

Telemetry is scheduling-only observation: it never touches task
payloads, results, or the cache, so population archives are
bit-identical with telemetry on or off, serial or sharded
(``tests/test_telemetry.py`` pins this).  Wall-clock reads here are
sanctioned by the simlint SIM002 ``wallclock_allow`` list — telemetry
measures the *host*, never the simulation.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Version of the status-file document format.
TELEMETRY_SCHEMA_VERSION = 1

#: Seconds of result-channel silence after which outstanding workers
#: are flagged as suspected hung.
DEFAULT_HANG_THRESHOLD = 30.0

#: Seconds between watchdog polls (status rewrite + silence check).
DEFAULT_POLL_INTERVAL = 1.0


@dataclass(frozen=True)
class TelemetryConfig:
    """Host-side telemetry knobs (``None`` status file = no file)."""

    status_file: Optional[str] = None
    hang_threshold: float = DEFAULT_HANG_THRESHOLD
    poll_interval: float = DEFAULT_POLL_INTERVAL
    #: Warning sink; ``None`` buffers warnings on the monitor only.
    emit: Optional[Callable[[str], None]] = None


class TelemetryMonitor:
    """Folds per-task heartbeats into live run state.

    The engine calls :meth:`on_result` for every finished task (cache
    hits included, with ``cached=True``) and :meth:`finish` once at the
    end; :meth:`poll` — usually driven by :func:`start_watchdog` — does
    the silence check and status-file rewrite.  All methods take an
    optional ``now`` so tests can drive a virtual clock.
    """

    def __init__(self, total: int, workers: int = 1,
                 config: Optional[TelemetryConfig] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.total = int(total)
        self.workers = int(workers)
        self.config = config or TelemetryConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self.started_at = clock()
        self.done = 0
        self.cached = 0
        self.executed = 0
        self.instructions = 0
        self.exec_seconds = 0.0
        self.finished = False
        self.warnings: List[str] = []
        self._last_activity = self.started_at
        self._hang_flagged = False

    # -- ingest -------------------------------------------------------------

    def on_result(self, label: str, kind: str, seconds: float, pid: int,
                  instructions: int = 0, cached: bool = False,
                  now: Optional[float] = None) -> None:
        """Record one finished task (the heartbeat the worker shipped
        beside its result, plus host-side context)."""
        now = self._clock() if now is None else now
        with self._lock:
            self.done += 1
            if cached:
                self.cached += 1
            else:
                self.executed += 1
                self.exec_seconds += float(seconds)
            self.instructions += int(instructions)
            self._last_activity = now
            self._hang_flagged = False

    def finish(self, now: Optional[float] = None) -> None:
        """Mark the run complete and write the final status document."""
        with self._lock:
            self.finished = True
        self.write_status(now=now)

    # -- derived state ------------------------------------------------------

    def elapsed(self, now: Optional[float] = None) -> float:
        now = self._clock() if now is None else now
        return max(0.0, now - self.started_at)

    def tasks_per_second(self, now: Optional[float] = None) -> float:
        elapsed = self.elapsed(now)
        return self.done / elapsed if elapsed > 0 else 0.0

    def instructions_per_second(self, now: Optional[float] = None) -> float:
        elapsed = self.elapsed(now)
        return self.instructions / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Projected seconds to completion, from the mean executed-task
        cost sharded over the workers (``None`` until one task has
        actually executed — cache hits predict nothing)."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if self.executed == 0 or self.exec_seconds <= 0:
            return None
        per_task = self.exec_seconds / self.executed
        return remaining * per_task / max(1, self.workers)

    def silence_seconds(self, now: Optional[float] = None) -> float:
        now = self._clock() if now is None else now
        return max(0.0, now - self._last_activity)

    def suspected_hung(self, now: Optional[float] = None) -> bool:
        """True while tasks are outstanding and the result channel has
        been silent past the configured threshold."""
        if self.finished or self.done >= self.total:
            return False
        return self.silence_seconds(now) > self.config.hang_threshold

    # -- polling / rendering ------------------------------------------------

    def poll(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One watchdog tick: silence check (warn once per silent
        episode) + status-file rewrite.  Returns the status document."""
        now = self._clock() if now is None else now
        if self.suspected_hung(now) and not self._hang_flagged:
            self._hang_flagged = True
            silence = self.silence_seconds(now)
            message = (
                f"engine telemetry: no task finished in {silence:.1f}s "
                f"(threshold {self.config.hang_threshold:.1f}s) with "
                f"{self.total - self.done}/{self.total} tasks "
                f"outstanding — worker suspected hung")
            self.warnings.append(message)
            if self.config.emit is not None:
                self.config.emit(message)
        return self.write_status(now=now)

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The status-file document (see ``docs/observability.md``)."""
        now = self._clock() if now is None else now
        eta = self.eta_seconds(now)
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "state": "done" if self.finished else "running",
            "total": self.total,
            "done": self.done,
            "cached": self.cached,
            "executed": self.executed,
            "workers": self.workers,
            "instructions": self.instructions,
            "elapsed_seconds": self.elapsed(now),
            "tasks_per_second": self.tasks_per_second(now),
            "instructions_per_second": self.instructions_per_second(now),
            "eta_seconds": eta,
            "silence_seconds": self.silence_seconds(now),
            "suspected_hung": self.suspected_hung(now),
            "warnings": list(self.warnings),
        }

    def write_status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Atomically rewrite the status file (no-op without one)."""
        doc = self.status(now=now)
        path = self.config.status_file
        if path:
            write_status_file(path, doc)
        return doc

    def render_line(self, now: Optional[float] = None) -> str:
        """One-line live progress summary (the CLI progress line)."""
        eta = self.eta_seconds(now)
        eta_text = f" eta {eta:.0f}s" if eta is not None else ""
        hung = " [suspected hung]" if self.suspected_hung(now) else ""
        return (f"engine: {self.done}/{self.total} tasks "
                f"({self.cached} cached) "
                f"{self.tasks_per_second(now):.1f}/s{eta_text}{hung}")


def write_status_file(path: os.PathLike, doc: Dict[str, Any]) -> None:
    """Atomically replace ``path`` with ``doc`` as sorted-key JSON.

    Readers always see a complete document (temp file + ``os.replace``
    in the destination directory); write failures are swallowed —
    telemetry must never take down the run it is observing.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(doc, f, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - replace failed
                os.unlink(tmp)
    except OSError:  # pragma: no cover - unwritable status path
        pass


def start_watchdog(monitor: TelemetryMonitor) -> Callable[[], None]:
    """Poll ``monitor`` from a daemon thread until stopped.

    Returns a ``stop()`` callable; the thread wakes every
    ``poll_interval`` seconds, so the status file keeps updating and
    hangs get flagged even while the engine blocks on the worker pool.
    """
    stop_event = threading.Event()
    interval = max(0.005, float(monitor.config.poll_interval))

    def loop() -> None:
        while not stop_event.wait(interval):
            monitor.poll()

    thread = threading.Thread(target=loop, name="repro-telemetry",
                              daemon=True)
    thread.start()

    def stop() -> None:
        stop_event.set()
        thread.join(timeout=5.0)

    return stop
