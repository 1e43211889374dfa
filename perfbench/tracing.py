"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps public library functions by replacing the module
attribute that callers look up at call time, and puts the original back
on ``uninstall``.  Every call then records one span: id, parent id,
name, start, end and thread id.  Spans stay in memory until the run
writes them out.

A span opened on a worker thread that has nothing open yet takes the
innermost span open on the installing thread as its parent.  That is how
the bracket spans run by the nonlinear kernel's thread pool attach to
the kernel span that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around ``(module, attribute, name)`` targets.

    ``name`` is a string, or a callable receiving the call's positional
    arguments and returning the span name (used to name a
    ``run_kernel`` span after the kernel it dispatches).
    """

    def __init__(self, targets):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home: list[int] = []
        self._patches = [
            (module, attr, getattr(module, attr), self._wrap(getattr(module, attr), name))
            for module, attr, name in targets
        ]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home[-1] if self._home else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        return stack, span_id, parent, start

    def _close(self, name, stack, span_id, parent, start):
        end = time.perf_counter()
        stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end, threading.get_ident()))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(label, *opened)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (an op root)."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def install(self):
        self._home = self._stack()
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Parent/child lookups and self times over a finished span list."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
        self._roots: dict[int, Span] = {}

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = self.children.get(span.id, ())
        return span.duration - covered(((k.start, k.end) for k in kids), span.start, span.end)

    def root(self, span: Span) -> Span:
        path = []
        while span.parent is not None and span.id not in self._roots:
            path.append(span)
            span = self.by_id[span.parent]
        top = self._roots.get(span.id, span)
        for s in path:
            self._roots[s.id] = top
        return top

    def under(self, root_name: str) -> dict[int, list[Span]]:
        """Spans grouped by their root span, for roots named ``root_name``."""
        groups: dict[int, list[Span]] = {s.id: [] for s in self.spans if s.parent is None and s.name == root_name}
        for s in self.spans:
            top = self.root(s)
            if top.id in groups and top is not s:
                groups[top.id].append(s)
        return groups
