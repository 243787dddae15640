"""Nestable spans capturing per-query timelines.

A span is one timed region (a query, an experiment, one figure data
point); spans nest, forming a tree per top-level region.  While a span
is open, every charge the instrumented stack reports through
:meth:`Tracer.attribute` is added to the *innermost* open span — that
is how a page read deep inside the buffer pool ends up attributed to
the query that caused it.  Parents aggregate their children on close,
so a figure-level span shows the total I/O of every query under it.

The tracer keeps only the most recent ``max_roots`` completed root
spans (default 1000) so long experiment sweeps cannot grow memory
without bound.

Each thread has its own span stack, so spans opened concurrently by
serving threads nest only under spans of the same thread; the retained
roots are shared and appended under a lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque


class Span:
    """One timed, tagged region of work."""

    __slots__ = ("name", "tags", "start_s", "duration_s", "metrics",
                 "children", "_open")

    def __init__(self, name: str, tags: dict[str, object]):
        self.name = name
        self.tags = {k: str(v) for k, v in tags.items()}
        self.start_s = time.perf_counter()
        self.duration_s: float | None = None
        #: Counter deltas attributed while this span was innermost,
        #: plus (on close) the aggregated deltas of its children.
        self.metrics: dict[str, float] = {}
        self.children: list["Span"] = []
        self._open = True

    def attribute(self, name: str, amount: float) -> None:
        """Add ``amount`` to this span's ``name`` tally."""
        self.metrics[name] = self.metrics.get(name, 0.0) + amount

    def close(self) -> None:
        """End the span and roll children's metrics up into it."""
        if not self._open:
            return
        self.duration_s = time.perf_counter() - self.start_s
        for child in self.children:
            for key, amount in child.metrics.items():
                self.metrics[key] = self.metrics.get(key, 0.0) + amount
        self._open = False

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.tags:
            out["tags"] = dict(self.tags)
        out["duration_ms"] = (
            None if self.duration_s is None else self.duration_s * 1e3
        )
        if self.metrics:
            out["metrics"] = {k: self.metrics[k] for k in sorted(self.metrics)}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        state = "open" if self._open else f"{self.duration_s * 1e3:.3f}ms"
        return f"Span({self.name!r}, {state})"


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Owns the per-thread span stacks and the retained span trees."""

    def __init__(self, max_roots: int = 1000):
        self._local = threading.local()
        self._roots: deque[Span] = deque(maxlen=max_roots)
        self._roots_lock = threading.Lock()
        self.dropped_roots = 0

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's stack of open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, /, **tags: object) -> _SpanContext:
        """Open a span; use as ``with tracer.span("query", scheme="E"):``."""
        span = Span(name, tags)
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            with self._roots_lock:
                if len(self._roots) == self._roots.maxlen:
                    self.dropped_roots += 1
                self._roots.append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def _pop(self, span: Span) -> None:
        span.close()
        # Close any forgotten inner spans too (defensive: an exception
        # raised between sibling spans must not corrupt the stack).
        stack = self._stack
        while stack:
            top = stack.pop()
            top.close()
            if top is span:
                break

    @property
    def current(self) -> Span | None:
        """The calling thread's innermost open span, or None."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def attribute(self, name: str, amount: float) -> None:
        """Add a charge to the innermost open span (no-op outside one)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].attribute(name, amount)

    def roots(self) -> list[Span]:
        """Completed (and still-open) root spans, oldest first."""
        with self._roots_lock:
            return list(self._roots)

    def last(self, name: str | None = None) -> Span | None:
        """Most recent root span, optionally filtered by name."""
        for span in reversed(self.roots()):
            if name is None or span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        out: dict = {"spans": [span.to_dict() for span in self.roots()]}
        if self.dropped_roots:
            out["dropped_roots"] = self.dropped_roots
        return out
