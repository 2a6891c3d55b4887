"""In-memory span recorder that wraps public callables from outside.

The program under test carries no tracing of its own for this benchmark:
the recorder replaces an attribute (an instance attribute, a name a
module imported, or a class method) with a wrapper that records one
``perf_counter`` span per call — name, start, end, parent — and puts the
original back with :meth:`SpanRecorder.restore`.  Spans stay in memory;
:meth:`chrome_trace` renders them once the run is over.

A span's *self time* is its duration minus the duration of its direct
children.  Everything runs on one thread, so children nest wholly inside
their parent and the self times of all spans add up to the duration of
the root spans exactly.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["SpanRecorder"]

_NAME, _START, _END, _PARENT = range(4)


class SpanRecorder:
    """Records nested wall-clock spans and undoes its own patches."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent_index]`` per call, in start
        #: order; ``parent_index`` is -1 for a root span
        self.spans: list[list] = []
        #: exact counts taken at the same boundaries as the spans
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span called ``name``.

        ``on_result`` (optional) receives the return value after the
        span has closed, so counting work never lands inside the span.
        """
        spans = self.spans
        stack = self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Open a span around a block (used for root spans)."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(index)
        span[_START] = perf_counter()
        try:
            yield
        finally:
            span[_END] = perf_counter()
            self._open.pop()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span wrapper until :meth:`restore`.

        ``owner`` may be an instance (the wrapper shadows the bound
        method), a module (the name the module imported is rebound) or a
        class (the wrapper becomes the method).
        """
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, was_own, saved = self._patches.pop()
            if was_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, float] = defaultdict(float)
        for span, child_time in zip(self.spans, covered):
            out[span[_NAME]] += (span[_END] - span[_START]) - child_time
        return dict(out)

    def durations(self, name: str) -> list[float]:
        """Duration of every span called ``name``, in start order."""
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def starts(self, name: str) -> list[float]:
        """Start time of every span called ``name``, in start order."""
        return [s[_START] for s in self.spans if s[_NAME] == name]

    def root_time(self) -> float:
        """Total duration of the root spans."""
        return sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] < 0)

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as a Chrome-trace (``chrome://tracing``) document."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.spans[0][_START]
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
