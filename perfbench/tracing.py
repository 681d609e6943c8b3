"""Spans around the calls into each layer of the package, kept in memory.

A :class:`Tracer` replaces functions at the module or class attribute their
caller looks them up by, records one span per call (name, start, end,
parent, trace id and a few counts), and puts every original back when the
``installed`` context ends. The parent comes from a thread-local stack; a
call on a worker thread whose stack is empty gets the open root span as its
parent, so the labels trained on ``train_ova``'s worker threads attribute
to that ``train_ova`` call. Each root call is one trace id.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import math
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "parent", "trace", "name", "start", "end", "thread", "attrs")

    def __init__(self, sid, parent, trace, name, thread):
        self.sid = sid
        self.parent = parent  # sid of the parent span, 0 for none
        self.trace = trace
        self.name = name
        self.thread = thread
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    def wrap(self, fn, name: str, *, root: bool = False, attrs=None):
        """``fn`` with a span around each call.

        ``attrs(args, result)`` returns the counts stored on the span; it runs
        after the span has ended, so it is not part of the span's time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = None if root else (stack[-1] if stack else self._root)
            sid = next(self._ids)
            span = Span(sid, parent.sid if parent else 0, parent.trace if parent else sid,
                        name, threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            outer_root = self._root
            if root:
                self._root = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = outer_root
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace each ``(owner, attribute, span name, options)`` target, then restore.

        The originals are read from the owner's ``__dict__`` so that a class
        attribute is put back as the very object it was.
        """
        saved = []
        try:
            for owner, attr, name, opts in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, **opts))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def write_spans(spans, path) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json()) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict[int, float], dict[int, float]]:
    """Per span: duration minus the time its child spans cover.

    Also returns, per span, how much its children overlap each other
    (``sum of child durations - covered time``), which is non-zero only
    where children ran on parallel worker threads.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    own, overlap = {}, {}
    for s in spans:
        kids = children.get(s.sid, ())
        covered = _union_length(kids)
        own[s.sid] = s.dur - covered
        overlap[s.sid] = sum(hi - lo for lo, hi in kids) - covered
    return own, overlap


def check_self_times(spans, root_name: str) -> list[str]:
    """The self times under each ``root_name`` span add up to its duration.

    Children that ran in parallel on worker threads are counted once per
    thread, so the expected sum is the root's duration plus the overlap of
    its children; on one worker that overlap is zero.
    """
    own, overlap = self_times(spans)
    by_trace = defaultdict(float)
    for s in spans:
        by_trace[s.trace] += own[s.sid]
    problems = []
    for s in spans:
        if s.name != root_name:
            continue
        expected = s.dur + overlap[s.sid]
        if not math.isclose(by_trace[s.trace], expected, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"{root_name} span {s.sid}: self times sum to {by_trace[s.trace]!r}, "
                f"expected {expected!r}"
            )
    return problems
