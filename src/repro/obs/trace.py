"""Zero-dependency tracing core: hierarchical spans and counters.

Everything observable in the stack flows through one :class:`Tracer` as
a stream of small dict *events*:

``{"ev": "span", "name": "lp.solve", "path": "fig6/engine.solve_task/lp.solve",
"t0": ..., "dur": ..., "cpu": ..., "pid": ..., "attrs": {...}}``

``{"ev": "count", "name": "cache.hit", "value": 1, "t": ..., "pid": ...}``

Span *paths* are slash-joined ancestor chains maintained in a
``contextvars`` stack, so nesting survives threads.  Events are buffered
in-process (counters also keep running totals) and, when a trace file
is configured, appended as JSON lines; :func:`repro.obs.report.aggregate`
folds either one into the report's tables.  The event *set* of a run is
deterministic; only the timing fields (``t0``/``dur``/``cpu``) and
``pid`` vary between runs — see DESIGN.md.

Process safety: the JSONL sink remembers the pid that configured it and
refuses to write from any other process, so ``fork``-started pool
workers that inherit a configured tracer cannot interleave writes.
Workers instead buffer events and ship them back to the parent on the
task-result path (see :func:`repro.experiments.engine.solve_task`);
:meth:`Tracer.ingest` rebases shipped span paths under the parent's
current span so serial and parallel runs produce identical path sets.
"""

from __future__ import annotations

import atexit
import contextvars
import json
import os
import threading
import time
from typing import IO, Iterable

#: Ancestor span names of the currently-open span, innermost last.
_SPAN_STACK: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


def current_path() -> str:
    """Slash-joined path of the currently-open span ('' at top level)."""
    return "/".join(_SPAN_STACK.get())


class Span:
    """Context manager measuring one wall/CPU-timed span.

    Attributes set via :meth:`set` (e.g. the HiGHS status, known only
    after the solve) land in the emitted event's ``attrs``.
    """

    __slots__ = ("_tracer", "name", "attrs", "_token", "_t0", "_cpu0", "event")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.event: dict | None = None

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> Span:
        self._token = _SPAN_STACK.set(_SPAN_STACK.get() + (self.name,))
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        path = current_path()
        _SPAN_STACK.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.event = self._tracer._emit(
            {
                "ev": "span",
                "name": self.name,
                "path": path,
                "t0": self._t0,
                "dur": dur,
                "cpu": cpu,
                "pid": os.getpid(),
                "attrs": dict(self.attrs),
            }
        )
        return False


class _NullSpan:
    """No-op span returned by a disabled tracer."""

    __slots__ = ()
    event = None

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-process event buffer + counter totals + optional JSONL sink.

    Parameters
    ----------
    trace_path:
        File to append JSON-lines events to, or ``None`` for in-memory
        tracing only (the default — cheap enough to leave always on).
    enabled:
        ``False`` turns every instrumentation call into a no-op.
    """

    def __init__(self, trace_path: str | None = None, enabled: bool = True):
        self.enabled = enabled
        self.trace_path = trace_path
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._fh: IO[str] | None = None
        if trace_path is not None:
            # Flush the sink even on abnormal interpreter exit (unhandled
            # exception, sys.exit mid-run).  close() is idempotent, so a
            # normal shutdown that already closed is a no-op here.
            atexit.register(self.close)

    # -- recording ------------------------------------------------------
    def span(self, name: str, **attrs) -> Span | _NullSpan:
        """Open a (context-manager) span; attrs must be JSON-serializable."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def count(self, name: str, value: int | float = 1) -> None:
        """Increment a named counter (emits one event per increment)."""
        if not self.enabled:
            return
        self._emit(
            {
                "ev": "count",
                "name": name,
                "value": value,
                "t": time.perf_counter(),
                "pid": os.getpid(),
            }
        )

    def emit_span(self, name: str, dur: float, attrs: dict, cpu: float = 0.0):
        """Emit a span event without entering the span stack.

        For spans whose duration was measured elsewhere — e.g. the
        engine re-publishing a worker's (or cached) solve as an
        ``engine.task`` event.
        """
        if not self.enabled:
            return None
        path = current_path()
        return self._emit(
            {
                "ev": "span",
                "name": name,
                "path": f"{path}/{name}" if path else name,
                "t0": time.perf_counter() - dur,
                "dur": float(dur),
                "cpu": float(cpu),
                "pid": os.getpid(),
                "attrs": dict(attrs),
            }
        )

    # -- worker shipping ------------------------------------------------
    def mark(self) -> int:
        """Position in the event buffer; pair with :meth:`events_since`."""
        return len(self.events)

    def events_since(self, mark: int) -> list[dict]:
        """Copies of events recorded after ``mark`` (ship to the parent)."""
        return [dict(ev) for ev in self.events[mark:]]

    def ingest(self, events: Iterable[dict]) -> None:
        """Fold shipped worker events into this tracer.

        Span paths are rebased under the currently-open span, so a
        worker's ``engine.solve_task/lp.solve`` lands exactly where the
        serial path would have put it.
        """
        if not self.enabled:
            return
        base = current_path()
        for ev in events:
            ev = dict(ev)
            if base and ev.get("ev") == "span":
                ev["path"] = f"{base}/{ev['path']}"
            self._emit(ev)

    # -- internals ------------------------------------------------------
    def _emit(self, ev: dict) -> dict:
        with self._lock:
            self.events.append(ev)
            if ev["ev"] == "count":
                self.counters[ev["name"]] = (
                    self.counters.get(ev["name"], 0) + ev["value"]
                )
            self._write(ev)
        return ev

    def _write(self, ev: dict) -> None:
        if self.trace_path is None or os.getpid() != self._owner_pid:
            return  # forked workers must not interleave into the sink
        if self._fh is None:
            self._fh = open(self.trace_path, "a")
        json.dump(ev, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
        if self.trace_path is not None:
            atexit.unregister(self.close)


# ----------------------------------------------------------------------
# Global tracer
# ----------------------------------------------------------------------
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def configure(trace_path: str | None = None, enabled: bool = True) -> Tracer:
    """Replace the global tracer (closing the previous sink)."""
    global _TRACER
    _TRACER.close()
    _TRACER = Tracer(trace_path=trace_path, enabled=enabled)
    return _TRACER


def span(name: str, **attrs):
    """Open a span on the global tracer."""
    return _TRACER.span(name, **attrs)


def count(name: str, value: int | float = 1) -> None:
    """Increment a counter on the global tracer."""
    _TRACER.count(name, value)
