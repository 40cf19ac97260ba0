"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` wraps functions of the program under test by
replacing module or class attributes, so no file under ``src/`` needs
to know it exists. Each wrapped call records one span: name, start and
end (``perf_counter_ns``), its own id, the id of the span that caused
it (via a ``contextvars`` variable, so asyncio tasks and
``asyncio.to_thread`` hops inherit their caller), the OS thread, and
whether the wrapped function was a coroutine. Spans stay in a list
until the process ends and are then written out as JSON.

Self time of a span is its duration minus the part of its interval
that its child spans cover. For synchronous spans on one thread the
children nest, so per-thread self times plus the time outside every
span add up to the thread's wall time exactly; :func:`layer_table`
uses that to reconcile a process's layer breakdown with its wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

_now = time.perf_counter_ns

# span tuple fields
NAME, START, END, SID, PARENT, THREAD, ASYNC = range(7)

Span = Tuple[str, int, int, int, int, int, bool]
NameFn = Union[str, Callable[[tuple, dict], str]]
ExitFn = Callable[[tuple, dict, Any, int], None]


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, fn: Callable, name: NameFn, on_exit: Optional[ExitFn] = None) -> Callable:
        """Return ``fn`` wrapped in a span (sync or async to match ``fn``)."""
        spans, ids, current = self.spans, self._ids, self._current
        fixed = name if isinstance(name, str) else None

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                label = fixed or name(args, kwargs)  # type: ignore[operator]
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                t0 = _now()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = _now()
                    current.reset(token)
                    spans.append(
                        (label, t0, t1, sid, parent,
                         threading.get_ident(), True)
                    )
                if on_exit is not None:
                    on_exit(args, kwargs, result, t1 - t0)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
            label = fixed or name(args, kwargs)  # type: ignore[operator]
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                current.reset(token)
                spans.append(
                    (label, t0, t1, sid, parent,
                     threading.get_ident(), False)
                )
            if on_exit is not None:
                on_exit(args, kwargs, result, t1 - t0)
            return result

        return sync_wrapper

    def patch(
        self, owner: Any, attr: str, name: NameFn, on_exit: Optional[ExitFn] = None
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper (undone by :meth:`uninstall`).

        Class-level ``classmethod``/``staticmethod`` descriptors are
        unwrapped and re-wrapped so the descriptor kind is kept.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.wrap(raw.__func__, name, on_exit))
        else:
            wrapped = self.wrap(raw, name, on_exit)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def span(self, name: str, *, awaits: bool = False):
        """Record a span around a ``with`` block (the benchmark's own roots).

        ``awaits`` marks a block that awaits, so other tasks run inside
        it; like a coroutine span it then stays out of thread tables.
        """
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            self._current.reset(token)
            self.spans.append(
                (name, t0, t1, sid, parent, threading.get_ident(), awaits)
            )

    # -- persistence ----------------------------------------------------

    def dump(self, path: str, **extra: Any) -> None:
        doc = {
            "main_thread": threading.main_thread().ident,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    doc["spans"] = [tuple(s) for s in doc["spans"]]
    return doc


# ----------------------------------------------------------------------
# analysis


def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            kids[s[PARENT]].append(s)
    return kids


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        ch = kids.get(s[SID])
        dur = s[END] - s[START]
        if ch:
            dur -= _covered(((c[START], c[END]) for c in ch), s[START], s[END])
        out[s[SID]] = dur
    return out


def outermost_totals(spans: Sequence[Span]) -> Dict[str, int]:
    """Name -> summed duration of spans not nested in a same-named span."""
    by_id = {s[SID]: s for s in spans}
    totals: Dict[str, int] = Counter()
    for s in spans:
        p = by_id.get(s[PARENT])
        nested = False
        while p is not None:
            if p[NAME] == s[NAME]:
                nested = True
                break
            p = by_id.get(p[PARENT])
        if not nested:
            totals[s[NAME]] += s[END] - s[START]
    return totals


def layer_of(name: str) -> str:
    """Table row for a span name: ``serve.x``/``cluster.x`` keep two parts.

    The benchmark's own root spans (``bench.*``) wrap one library call
    each, so their self time is program time outside every layer span.
    """
    parts = name.split(".")
    if parts[0] == "bench":
        return "(program, outside layer spans)"
    if parts[0] in ("serve", "cluster") and len(parts) > 1:
        return ".".join(parts[:2])
    return parts[0]


def layer_table(
    spans: Sequence[Span], thread: int, window: Tuple[int, int]
) -> Tuple[List[Tuple[str, float]], float, float]:
    """Reconcile one thread's synchronous spans with its wall time.

    Returns ``(rows, wall_ms, residual_ms)``: per-layer self times of
    the thread's synchronous spans clipped to ``window``, then a final
    ``(outside spans)`` row for wall time no span covers (event loop,
    socket waits, idle). ``residual_ms`` is wall minus the sum of all
    rows, which is zero when the spans nest properly.
    """
    lo, hi = window
    sync = [s for s in spans if s[THREAD] == thread and not s[ASYNC]
            and s[END] > lo and s[START] < hi]
    kids = children_of(sync)
    rows: Dict[str, int] = Counter()
    for s in sync:
        a, b = max(s[START], lo), min(s[END], hi)
        own = (b - a) - _covered(((c[START], c[END]) for c in kids.get(s[SID], ())), a, b)
        rows[layer_of(s[NAME])] += own
    ids = {s[SID] for s in sync}
    tops = [(s[START], s[END]) for s in sync if s[PARENT] not in ids]
    outside = (hi - lo) - _covered(tops, lo, hi)
    ordered = sorted(rows.items(), key=lambda kv: -kv[1])
    ordered.append(("(outside spans)", outside))
    wall = hi - lo
    residual = wall - sum(v for _, v in ordered)
    return [(k, v / 1e6) for k, v in ordered], wall / 1e6, residual / 1e6
