"""In-memory spans around the benchmark's calls into the program, and their self times.

A span is [name, parent index, start, end] with perf_counter times; the
parent index is -1 for a root span.  Spans are only recorded while a pass
runs; self times are computed from the finished list afterwards.
"""

from __future__ import annotations


class Tracer:
    """Records nested spans; `with tracer.span(name): ...`."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, parent, tr.clock(), None])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][3] = tr.clock()
        tr._open.pop()
        return False


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
