"""In-memory spans and the arithmetic the benchmark derives from them.

A span is one timed call at a layer boundary: its name, start and end on
the ``time.perf_counter`` clock, the id of the span that was open on the
same thread when it began (its parent), the thread it ran on and a few
count attributes.  Spans stay in memory and are written out once, at the
end of a traced run.

Standard library only, so the generator process and the tests can import
it without numpy.
"""

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread, "attrs": self.attrs,
        }


class Tracer:
    """Records spans around wrapped callables; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Return fn wrapped in a span; attrs(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            span = Span(span_id, name, start, end, parent, threading.get_ident(), extra)
            with self._lock:
                self.spans.append(span)
            return result

        return traced


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = s.duration - union_length(covered)
    return out


@dataclass
class LayerStats:
    """Per-name totals: calls, busy (sum of durations), wall (union), self time."""

    calls: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def layer_stats(spans) -> dict[str, LayerStats]:
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name, group in by_name.items():
        st = LayerStats(calls=len(group))
        st.busy_s = sum(s.duration for s in group)
        st.wall_s = union_length((s.start, s.end) for s in group)
        st.self_s = sum(selfs[s.id] for s in group)
        for s in group:
            for key, value in s.attrs.items():
                st.attrs[key] = st.attrs.get(key, 0) + value
        out[name] = st
    return out
