"""In-memory span recorder the benchmark wraps around the program's layers.

The program under test is not instrumented for this benchmark: the
benchmark replaces public functions and methods of each layer with
wrappers that open a span, call the original and close the span.  Spans
are kept in memory and written out once, when the benchmark ends, in the
trace_event format that ``repro.trace.perfetto`` reads and writes.

Self time is computed per thread.  A span's parent is the innermost span
open on the same thread, so the rank threads of an SPMD solve are never
nested into the caller that waits for them.  Spans of layer ``wait``
mark time a thread spent blocked (baton hand-offs, joins, queue polls,
sleeps); they count toward no layer and are not busy time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Layer of spans during which the thread was blocked, not working.
WAIT = "wait"
#: Layer of the benchmark's own root spans; their self time is the
#: part of a thread's busy time that no layer of the program claims.
BENCH = "bench"


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0
    parent: int = -1
    window: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        #: Wrappers record only while this is set (the timed region).
        self.enabled = False
        self.windows = 0
        #: Wall seconds spent inside recording windows.
        self.wall_s = 0.0
        self.spans: list[Span] = []
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def innermost_layer(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].layer if stack else None

    def open(self, name: str, layer: str, **attrs) -> int:
        stack = self._stack()
        entry = Span(
            name=name, layer=layer, thread=threading.get_ident(),
            start=time.perf_counter(), parent=stack[-1] if stack else -1,
            window=self.windows, attrs=attrs,
        )
        with self._lock:
            self.spans.append(entry)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        entry = self.spans[index]
        entry.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {entry.name!r} closed out of order")
        stack.pop()
        return entry

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Record the ``with`` block as one span while recording."""
        if not self.enabled:
            yield None
            return
        index = self.open(name, layer, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @contextmanager
    def recording(self):
        """Enable the wrappers for the ``with`` block."""
        self.enabled = True
        self.windows += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self.enabled = False
            self.wall_s += time.perf_counter() - start

    def wrap(self, fn, name: str, layer: str, describe=None):
        """``fn`` wrapped in a span of ``layer``.

        A call made while the innermost open span on the thread already
        belongs to ``layer`` runs unwrapped, so a layer entry point that
        calls another (``apply`` -> ``_apply``) is counted once.
        ``describe(args, kwargs, result)`` returns attributes stored on
        the span after the call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or self.innermost_layer() == layer:
                return fn(*args, **kwargs)
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry = self.close(index)
            if describe is not None:
                entry.attrs.update(describe(args, kwargs, result))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        children = [0.0] * len(self.spans)
        for entry in self.spans:
            if entry.parent >= 0:
                children[entry.parent] += entry.duration
        return [s.duration - c for s, c in zip(self.spans, children)]

    def attribution(self) -> dict:
        """Busy thread-seconds split into layer self times.

        Returns ``{"busy_s": ..., "layers": {layer: self_s},
        "unattributed_s": ...}``.  A thread's busy time is the time it
        spent inside its top-level spans (plus the gaps between them on
        a thread the benchmark gives no root span, such as the serve
        dispatcher, within one recording window), less its ``wait``
        spans.  The self time of the
        benchmark's own root spans, and those gaps, are unattributed.
        """
        selfs = self.self_times()
        layers: dict[str, float] = defaultdict(float)
        for entry, own in zip(self.spans, selfs):
            layers[entry.layer] += own
        gaps = 0.0
        tops: dict[int, list[Span]] = defaultdict(list)
        for entry in self.spans:
            if entry.parent < 0:
                tops[entry.thread].append(entry)
        for spans in tops.values():
            if all(s.layer == BENCH for s in spans):
                continue
            spans.sort(key=lambda s: s.start)
            for before, entry in zip(spans, spans[1:]):
                if before.window == entry.window:
                    gaps += max(0.0, entry.start - before.end)
        waits = layers.pop(WAIT, 0.0)
        unattributed = layers.pop(BENCH, 0.0) + gaps
        busy = sum(layers.values()) + unattributed
        return {
            "busy_s": busy,
            "wait_s": waits,
            "layers": dict(layers),
            "unattributed_s": unattributed,
        }

    def trace_events(self) -> list:
        """The spans as ``repro.trace.TraceEvent`` records, one track per
        thread, ready for ``repro.trace.perfetto.write_chrome_trace``."""
        from repro.trace import TraceEvent

        tracks: dict[int, str] = {}
        events = []
        for entry in self.spans:
            track = tracks.setdefault(entry.thread, f"thread {len(tracks)}")
            args = dict(entry.attrs)
            args["layer"] = entry.layer
            if entry.parent >= 0:
                args["parent"] = self.spans[entry.parent].name
            events.append(TraceEvent(
                name=entry.name, kind=entry.layer,
                start=entry.start - self.epoch, duration=entry.duration,
                stream=track, args=args,
            ))
        return events

