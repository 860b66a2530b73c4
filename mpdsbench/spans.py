"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public callables through which each layer of
the estimator is entered, patching every one where its caller looks it
up (``repro.session`` binds the estimator seams at import time, so they
are patched in its namespace).  Nothing in ``src/`` changes; the
untraced runs never install a wrapper.

A span has a name, a layer, a start and an end, the span that caused it
and the op it belongs to.  ``busy`` is the time actually spent inside
the callable: for a plain call it is ``end - start``; for a wrapped
generator it sums only the ``next()`` calls, because a lazy evaluation
stream runs interleaved with the finalize loop that consumes it.  A
layer's self time is a span's busy time minus the busy time of its
children.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter
from typing import Dict, List, Optional

#: layer names, in the order the report prints them
LAYERS = (
    "draw", "bound", "exact", "graphpath", "mpds_finalize",
    "nds_finalize", "serialize", "delta", "serve", "http", "bench",
)


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "busy", "parent",
                 "op", "children_busy")

    def __init__(self, sid, name, layer, parent, op) -> None:
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = perf_counter()
        self.end = None
        self.busy = 0.0
        self.children_busy = 0.0

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "parent": self.parent, "op": self.op,
            "start": self.start - origin,
            "end": (self.end if self.end is not None else self.start) - origin,
            "busy": self.busy,
        }


class Tracer:
    """Records spans for the ops opened with :meth:`begin_op`.

    Calls made outside an op (set-up, reference computation) pass
    straight through and record nothing.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[object, Dict[str, float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: Dict[object, Span] = {}
        self._patches: List[tuple] = []
        self.origin = perf_counter()

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        return getattr(self._local, "op", None)

    def set_op(self, op) -> None:
        """Bind this thread's later spans to ``op`` (server threads)."""
        self._local.op = op

    def _new(self, name: str, layer: str) -> Optional[Span]:
        op = self.current_op()
        if op is None:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._roots.get(op)
        with self._lock:
            span = Span(len(self.spans), name, layer,
                        parent.id if parent is not None else None, op)
            self.spans.append(span)
        return span

    def _finish(self, span: Span, busy: float) -> None:
        span.end = perf_counter()
        span.busy = busy
        if span.parent is not None:
            with self._lock:
                self.spans[span.parent].children_busy += busy

    def begin_op(self, op, layer: str = "bench") -> Span:
        """Open an op's root span on this thread; its self time is
        charged to ``layer``."""
        self._local.op = op
        self._local.stack = []
        with self._lock:
            root = Span(len(self.spans), "op", layer, None, op)
            self.spans.append(root)
            self._roots[op] = root
        self._stack().append(root)
        return root

    def end_op(self, root: Span, busy: float) -> None:
        self._stack().clear()
        self._finish(root, busy)
        self._local.op = None

    def child(self, name: str, layer: str, busy: float) -> None:
        """Record a derived child span of the current span whose busy
        time was measured by the program itself (``stage_stats``)."""
        span = self._new(name, layer)
        if span is not None:
            span.start = span.start - busy
            self._finish(span, busy)

    def count(self, key: str, value: float = 1) -> None:
        op = self.current_op()
        if op is None:
            return
        with self._lock:
            bucket = self.counts.setdefault(op, {})
            bucket[key] = bucket.get(key, 0) + value

    # -- wrappers --------------------------------------------------------
    def call(self, name: str, layer: str, fn, after=None):
        """Wrap a plain callable in a span; ``after(args, kwargs,
        result)`` runs inside the span once the call returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._new(name, layer)
            if span is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(span)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer._finish(span, perf_counter() - started)

        return traced

    def generator(self, name: str, layer: str, fn, start, finish):
        """Wrap a generator function: the span's busy time sums the
        ``next()`` calls, and its parent is the span that consumes it.
        ``start(args, kwargs)`` runs at the first ``next()`` and its
        result goes to ``finish(state, items)`` at exhaustion, both
        with the span current."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.current_op() is None:
                return inner
            return tracer._drive(name, layer, inner,
                                 lambda: start(args, kwargs), finish)

        return traced

    def _drive(self, name, layer, inner, start, finish):
        span = None
        busy = 0.0
        items = 0
        state = None
        try:
            while True:
                stack = self._stack()
                started = perf_counter()
                if span is None:
                    span = self._new(name, layer)
                    stack.append(span)
                    state = start()
                else:
                    stack.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    finish(state, items)
                    return
                finally:
                    busy += perf_counter() - started
                    stack.pop()
                items += 1
                yield item
        finally:
            if span is not None:
                self._finish(span, busy)

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)``; undone by
        :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapper(original.__func__))
        else:
            wrapped = wrapper(original)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Per-layer self time in seconds, summed over every op."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            totals[span.layer] += max(0.0, span.busy - span.children_busy)
        return totals

    def dump(self, path, provenance: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "provenance": provenance,
                "spans": [s.as_dict(self.origin) for s in self.spans],
            }, handle)
