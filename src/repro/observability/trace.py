"""Per-query span recording: the query path as a tree of timed stages.

A :class:`QueryTrace` is handed to ``search`` and threaded down the
query path; each stage opens a :class:`Span` (parse → term/list
resolution → join/scan → ranking → verification, plus one span per
shard on the fan-out path) and attaches its micro-costs as attributes —
seeks, blocks read, jump-pointer follows, candidate counts.  The result
is the paper's accounting at per-query granularity instead of
per-experiment.

Spans form a tree via parent indices; recording is append-only under a
lock, so a trace shared between threads stays consistent.  ``to_dict()`` is stable (insertion-ordered spans, sorted
attributes) so traces can be committed as JSON fixtures.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional


class Span:
    """One timed stage of a query, with arbitrary numeric/string attributes."""

    __slots__ = ("name", "start", "end", "attrs", "parent", "index")

    def __init__(
        self,
        name: str,
        start: float,
        parent: Optional[int],
        index: int,
        attrs: Dict[str, object],
    ):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.parent = parent
        self.index = index

    @property
    def seconds(self) -> float:
        """Span duration (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def note(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f} ms, {self.attrs})"


class QueryTrace:
    """Span recorder for one query execution.

    Use as::

        trace = QueryTrace("stewart waksal")
        engine.search("stewart waksal", trace=trace)
        print(trace.pretty())

    The context-manager :meth:`span` nests spans per thread of control;
    the shard executor uses :meth:`record` to add completed shard and
    merge spans from the times it has already taken.
    """

    def __init__(self, query: str = ""):
        self.query = query
        self.spans: List[Span] = []
        self._t0 = perf_counter()
        self._lock = threading.Lock()
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs: object) -> Span:
        """Open a nested span; close it with :meth:`finish`."""
        now = perf_counter() - self._t0
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            span = Span(name, now, parent, len(self.spans), dict(attrs))
            self.spans.append(span)
            self._stack.append(span.index)
        return span

    def finish(self, span: Span) -> None:
        """Close a span opened with :meth:`begin`."""
        span.end = perf_counter() - self._t0
        with self._lock:
            if self._stack and self._stack[-1] == span.index:
                self._stack.pop()
            elif span.index in self._stack:
                self._stack.remove(span.index)

    def span(self, name: str, **attrs: object) -> "_SpanContext":
        """Context manager: open a span, close it on exit."""
        return _SpanContext(self, name, attrs)

    def record(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> Span:
        """Add an already-timed span (``start``/``end`` are perf_counter values).

        Thread-safe and stack-free: a completed stage is reported
        without touching the nesting of :meth:`span`.
        """
        with self._lock:
            span = Span(
                name, start - self._t0, parent, len(self.spans), dict(attrs)
            )
            span.end = end - self._t0
            self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Wall-clock span of the whole recorded trace."""
        ends = [s.end for s in self.spans if s.end is not None]
        if not ends:
            return 0.0
        return max(ends) - min(s.start for s in self.spans)

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-serializable form of the trace."""
        return {
            "query": self.query,
            "total_seconds": self.total_seconds,
            "spans": [
                {
                    "name": span.name,
                    "parent": span.parent,
                    "start_seconds": span.start,
                    "seconds": span.seconds,
                    "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
                }
                for span in self.spans
            ],
        }

    def pretty(self) -> str:
        """Indented human-readable rendering of the span tree."""

        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        depth: Dict[int, int] = {}
        lines = [f"trace {self.query!r}  ({self.total_seconds * 1e3:.3f} ms)"]
        for span in self.spans:
            level = 0 if span.parent is None else depth.get(span.parent, 0) + 1
            depth[span.index] = level
            attrs = " ".join(
                f"{k}={fmt(span.attrs[k])}" for k in sorted(span.attrs)
            )
            lines.append(
                f"{'  ' * (level + 1)}{span.name:<12} "
                f"{span.seconds * 1e3:8.3f} ms"
                + (f"  {attrs}" if attrs else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTrace({self.query!r}, spans={len(self.spans)})"


class _SpanContext:
    """Context manager wrapper used by :meth:`QueryTrace.span`."""

    __slots__ = ("_trace", "_name", "_attrs", "span")

    def __init__(self, trace: QueryTrace, name: str, attrs: Dict[str, object]):
        self._trace = trace
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._trace.begin(self._name, **self._attrs)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._trace.finish(self.span)
