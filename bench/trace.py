"""In-memory span recorder used only by the traced run.

A span is ``(span_id, parent_id, request_id, name, start, end)``.
Each thread has a stack of open spans; the top is the parent of the next
span the thread opens.  A thread that works on behalf of a span opened
elsewhere (an executor pool thread, an HTTP handler thread, a client
thread started by the runner) first *adopts* that span and its request
id, so its spans attach to the request that caused them.

``Tracer.summarize`` turns spans into per-name self time.  A span's self
time is its duration minus the part of that interval its child spans
cover.  Children running at the same time on other threads cover one
interval together, so their subtrees are scaled by (interval covered /
sum of child durations): concurrent spans share the wall clock they
overlap in instead of each counting it in full.  With that, the self
times below any span add up to exactly its duration, which is what lets
the runner report an unattributed remainder that means something.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

#: Parent / request id of a span that has none.
NONE = -1


class Summary:
    """Per-name totals over the spans below one root span."""

    def __init__(self, wall: float):
        #: Duration of the root span.
        self.wall = wall
        #: name -> summed (scaled) self time in seconds.
        self.self_s: Dict[str, float] = {}
        #: name -> summed duration in seconds, children included, unscaled.
        self.total_s: Dict[str, float] = {}
        #: name -> number of spans.
        self.count: Dict[str, int] = {}
        #: name -> longest single span (unscaled duration) in seconds.
        self.max_s: Dict[str, float] = {}

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)


class _ThreadState:
    """One thread's open spans, request id and finished spans."""

    __slots__ = ("stack", "request", "finished")

    def __init__(self) -> None:
        self.stack: List[int] = [NONE]
        self.request = NONE
        #: ``(span_id, parent_id, request_id, name_id, start, end)`` per span.
        self.finished: List[Tuple[int, int, int, int, float, float]] = []


class Tracer:
    """Records spans; thread-safe; does nothing until something calls it.

    The hot path takes no lock: span ids come from ``itertools.count``
    (one C call), and a finished span is one tuple appended to a list
    only its thread writes.  About a microsecond per span.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return name_id

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def current(self) -> Tuple[int, int]:
        """``(span_id, request_id)`` the calling thread is working under."""
        state = self._state()
        return state.stack[-1], state.request

    def adopt(self, span_id: int, request_id: int) -> None:
        """Make ``span_id`` the parent of what the calling thread does next.

        Call it outside any span the thread has open.
        """
        state = self._state()
        state.stack = [span_id]
        state.request = request_id

    def set_request(self, request_id: int) -> None:
        """Tag the calling thread's following spans with ``request_id``."""
        self._state().request = request_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Open a span around a block of the runner's own code."""
        name_id = self._intern(name)
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1]
        state.stack.append(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            state.stack.pop()
            state.finished.append((span_id, parent, state.request, name_id, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        name_id = self._intern(name)
        ids, get_state, clock = self._ids, self._state, perf_counter

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.finished.append((span_id, parent, state.request, name_id, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(state.finished) for state in self._states)

    def spans(self) -> List[Tuple[int, int, int, str, float, float]]:
        """Every finished span as ``(span_id, parent_id, request_id, name,
        start, end)``, in span-id order (the order the spans began in)."""
        names = self.names
        return sorted(
            (span_id, parent, request, names[name_id], start, end)
            for state in self._states
            for span_id, parent, request, name_id, start, end in state.finished
        )

    def write(self, path: str, **header: object) -> None:
        """Append the spans to ``path``: one JSON object (``header`` plus the
        span count), then one ``[span_id, parent_id, request_id, name, start,
        end]`` array per line."""
        spans = self.spans()
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps(dict(header, spans=len(spans))) + "\n")
            for span in spans:
                out.write(json.dumps(span) + "\n")

    def orphans(self, root: int) -> List[str]:
        """Names of parentless spans other than ``root`` (there should be none:
        each one is work some thread did without adopting its cause)."""
        return sorted(
            {name for span_id, parent, _, name, _, _ in self.spans()
             if parent == NONE and span_id != root}
        )  # fmt: skip

    def summarize(self, root: int) -> Summary:
        """Self time, count and longest span per name, below span ``root``."""
        spans = self.spans()
        start = {span_id: begin for span_id, _, _, _, begin, _ in spans}
        end = {span_id: finish for span_id, _, _, _, _, finish in spans}
        children: Dict[int, List[int]] = {}
        for span_id, parent, _, _, _, _ in spans:
            if parent != NONE:
                children.setdefault(parent, []).append(span_id)
        summary = Summary(end[root] - start[root])
        # A child's id is always larger than its parent's (the parent was
        # open when the child began), so one pass in id order sees every
        # span after the span that fixes its scale.
        scale: Dict[int, float] = {root: 1.0}
        for span_id, _, _, name, lo, hi in spans:
            factor = scale.pop(span_id, None)
            if factor is None:
                continue  # not below root
            covered = total = 0.0
            kids = children.get(span_id)
            if kids:
                # Clip each child to this span: a child is only charged
                # for the part of the parent's interval it covers.
                clipped = []
                reach = lo
                for kid in sorted(kids, key=start.__getitem__):
                    kid_lo, kid_hi = max(start[kid], lo), min(end[kid], hi)
                    if kid_hi <= kid_lo:
                        scale[kid] = 0.0
                        continue
                    clipped.append((kid, kid_hi - kid_lo))
                    total += kid_hi - kid_lo
                    if kid_hi > reach:
                        covered += kid_hi - max(kid_lo, reach)
                        reach = kid_hi
                for kid, kept in clipped:
                    whole = end[kid] - start[kid]
                    scale[kid] = factor * (covered / total) * (kept / whole)
            summary.self_s[name] = (
                summary.self_s.get(name, 0.0) + factor * (hi - lo - covered)
            )
            summary.total_s[name] = summary.total_s.get(name, 0.0) + (hi - lo)
            summary.count[name] = summary.count.get(name, 0) + 1
            if hi - lo > summary.max_s.get(name, 0.0):
                summary.max_s[name] = hi - lo
        return summary


def propagate_through_submit(tracer: Tracer, submit: Callable) -> Callable:
    """A ``ThreadPoolExecutor.submit`` whose tasks adopt the submitter's span."""

    def traced_submit(pool, fn, *args, **kwargs):
        context = tracer.current()

        def task(*task_args, **task_kwargs):
            tracer.adopt(*context)
            return fn(*task_args, **task_kwargs)

        return submit(pool, task, *args, **kwargs)

    traced_submit.__wrapped__ = submit
    return traced_submit
