"""Outside-in span tracing for the benchmark's traced run.

The traced run wraps public functions of each ``repro`` layer from
here, without editing anything under ``src/``: every call of a wrapped
function records one span (name, start, end, parent span, request).
Spans sit on per-thread stacks, stay in memory for the whole run and
are written out once it ends.  A span's *self time* is its duration
minus the time its child spans cover, so nested wrappers never count a
nanosecond twice.

Each function is wrapped at most once per process: installing a
wrapper over an already-wrapped function raises, because a doubly
wrapped function records every call twice.  Wrappers pass straight
through in processes forked after installation (shard workers), which
have no way to ship their spans back.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MARK = "__perfbench_span__"


class _ThreadState:
    __slots__ = ("number", "stack", "spans", "request", "next_id")

    def __init__(self, number: int):
        self.number = number
        #: Open spans, innermost last: [span id, request, child seconds].
        self.stack: list[list] = []
        #: Closed spans: (name, id, parent id, request, start, end,
        #: self seconds, amount).
        self.spans: list[tuple] = []
        #: Request tag given to root spans opened on this thread.
        self.request: tuple = ("bg", None)
        self.next_id = 0


class Tracer:
    """Per-thread span stacks plus the wrappers that feed them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._pid = os.getpid()

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _open(self, state: _ThreadState) -> list:
        stack = state.stack
        request = stack[-1][1] if stack else state.request
        frame = [(state.number, state.next_id), request, 0.0]
        state.next_id += 1
        stack.append(frame)
        return frame

    def _close(self, state, frame, name, start, end, amount=0) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        state.spans.append((
            name, frame[0], parent[0] if parent is not None else None,
            frame[1], start, end, duration - frame[2], amount,
        ))

    @contextmanager
    def request(self, name: str, kind: str, rid=None):
        """Root span for one benchmark request.

        ``kind`` tags every span opened beneath it: ``"q"`` timed query,
        ``"a"`` append, ``"setup"`` set-up, ``"check"`` a query outside the
        timed phase.  Spans opened on threads the benchmark does not drive
        (service workers) carry ``"bg"``.
        """
        state = self._state()
        previous = state.request
        state.request = (kind, rid)
        frame = self._open(state)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(state, frame, name, start, perf_counter())
            state.request = previous

    # -- installation -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or module that defines ``attr`` itself.
        ``measure(result, args)`` returns an amount (bytes, say) stored
        on the span; it runs after the span's end time is taken.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            raise AttributeError(f"{owner.__name__} defines no {attr!r}")
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if getattr(fn, _MARK, None) is not None:
            raise RuntimeError(f"{owner.__name__}.{attr} is already traced")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            state = tracer._state()
            frame = tracer._open(state)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(state, frame, name, start, perf_counter())
                raise
            end = perf_counter()
            amount = measure(result, args) if measure is not None else 0
            tracer._close(state, frame, name, start, end, amount)
            return result

        setattr(wrapper, _MARK, name)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    # -- reading ------------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        return [span for state in threads for span in state.spans]

    def totals(self, kinds, window=(float("-inf"), float("inf"))) -> dict:
        """Per span name: [self seconds, duration seconds, calls, amount],
        over spans whose request kind is in ``kinds`` and that start
        inside ``window`` (``perf_counter`` bounds)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0])
        low, high = window
        for name, _, _, (kind, _), start, end, self_s, amount in self.spans():
            if kind in kinds and low <= start <= high:
                row = out[name]
                row[0] += self_s
                row[1] += end - start
                row[2] += 1
                row[3] += amount
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON document (after the run)."""
        rows = [
            {
                "name": name, "id": list(sid),
                "parent": list(parent) if parent is not None else None,
                "kind": kind, "request": rid, "start": start, "end": end,
                "self_s": self_s, "amount": amount,
            }
            for name, sid, parent, (kind, rid), start, end, self_s, amount
            in self.spans()
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _decoded_bytes(vector, _args) -> int:
    return vector.num_words * 8


def _read_bytes(_vector, args) -> int:
    store, key = args[0], args[1]
    return store.info(key).encoded_bytes


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.compress.base import Codec
    from repro.index import evaluation, persist
    from repro.index.bitmap_index import BitmapIndex
    from repro.index.rewrite import QueryRewriter
    from repro.serve import sharded
    from repro.serve.service import QueryService
    from repro.storage.buffer import BufferPool
    from repro.storage.store import BitmapStore

    for attr in ("rewrite_interval", "rewrite_membership", "rewrite_threshold"):
        tracer.wrap(QueryRewriter, attr, "index.rewrite")
    tracer.wrap(BufferPool, "fetch", "storage.buffer.fetch")
    tracer.wrap(BitmapStore, "get_view", "storage.store.get", _read_bytes)
    tracer.wrap(BitmapStore, "get", "storage.store.get", _read_bytes)
    for attr in ("decode", "decode_view", "decode_blockwise"):
        tracer.wrap(Codec, attr, "compress.decode", _decoded_bytes)
    tracer.wrap(Codec, "encode", "compress.encode")
    # The engine calls the evaluators through its own module globals.
    tracer.wrap(evaluation, "evaluate", "expr.eval.materialize")
    tracer.wrap(evaluation, "evaluate_fused", "expr.eval.fused")
    tracer.wrap(BitmapIndex, "restore_row_order", "index.restore")
    tracer.wrap(BitmapIndex, "append", "index.append")
    tracer.wrap(BitmapIndex, "build", "index.build")
    tracer.wrap(persist, "save_index", "index.persist.save")
    tracer.wrap(persist, "load_index", "index.persist.load")
    tracer.wrap(QueryService, "execute", "serve.execute")
    tracer.wrap(QueryService, "append", "serve.append")
    # The router merges shard partials through its module global.
    tracer.wrap(sharded, "concatenate", "sharded.merge")
