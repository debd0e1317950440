"""In-memory span tracing around layer entry points, and the self-time tree.

A :class:`Tracer` records one :class:`Span` per call into a traced layer:
name, start, end, the span that caused it (the innermost open span on the
same thread) and whether the call raised.  Spans are kept in memory under a
lock, so the serve daemon's handler and executor threads can record
concurrently, and are written out by the caller when the run ends.

A :class:`Patcher` installs the wrappers.  A module-level function is rebound
in every imported module that holds it (``from x import f`` copies the
name), and a method is replaced on its class; :meth:`Patcher.restore` puts
every original object back.

The tracer is the benchmark's own rather than ``repro.telemetry``, so that a
change to the program's tracing cannot change how the program is measured.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    error: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span recorder with named accumulators."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Record a span around the ``with`` body; its parent is the
        innermost open span of the calling thread."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(id=span_id, parent=stack[-1].id if stack else 0,
                    name=name, thread=threading.get_ident(),
                    start=time.perf_counter(), attrs=attrs)
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def open_attr(self, key: str) -> Optional[Any]:
        """``key`` of the innermost open span on this thread that has it."""
        for span in reversed(self._stack()):
            if key in span.attrs:
                return span.attrs[key]
        return None

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to the accumulator ``name``."""
        with self._lock:
            self.totals[name] += value


class Patcher:
    """Replace functions and methods, remembering every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, target: str, make: Callable[[Any], Any]) -> None:
        """Replace ``target`` (``"pkg.module:func"`` or
        ``"pkg.module:Class.method"``) with ``make(original)``."""
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._undo.append((owner, attr, original))
            return
        original = vars(module)[path]
        replacement = make(original)
        for holder in list(sys.modules.values()):
            if holder is not None and vars(holder).get(path) is original:
                setattr(holder, path, replacement)
                self._undo.append((holder, path, original))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Self time and the self-time tree
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals: List[Tuple[float, float]]
             ) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration
            - _covered(span.start, span.end, children.get(span.id, []))
            for span in spans}


def self_time_tree(spans: List[Span]) -> Tuple[List[Dict[str, Any]], float]:
    """Aggregate spans by call path into rows, plus the root-sum error.

    Each row is ``{"path", "calls", "total_s", "self_s"}``; every path with
    children gets an extra ``<path>/(unattributed)`` row holding its own
    self time, so the children and the unattributed row of a parent add up
    to the parent's total.  The second value is ``|sum of all self times -
    sum of root durations|`` relative to the root durations: it is 0 when
    every child lies inside its parent and no two siblings overlap.
    """
    by_id = {span.id: span for span in spans}
    selves = self_times(spans)
    paths: Dict[int, str] = {}

    def path_of(span: Span) -> str:
        if span.id not in paths:
            parent = by_id.get(span.parent)
            paths[span.id] = (span.name if parent is None
                              else f"{path_of(parent)}/{span.name}")
        return paths[span.id]

    rows: Dict[str, Dict[str, Any]] = {}
    has_children = {span.parent for span in spans if span.parent}
    for span in sorted(spans, key=lambda s: s.start):
        path = path_of(span)
        row = rows.setdefault(path, {"path": path, "calls": 0,
                                     "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selves[span.id]
        if span.id in has_children:
            rows.setdefault(f"{path}/(unattributed)", {
                "path": f"{path}/(unattributed)", "calls": 0,
                "total_s": 0.0, "self_s": 0.0})
    for path, row in rows.items():
        if path.endswith("/(unattributed)"):
            parent = rows[path[:-len("/(unattributed)")]]
            row["calls"] = parent["calls"]
            row["total_s"] = row["self_s"] = parent["self_s"]
    root_total = sum(span.duration for span in spans
                     if span.parent not in by_id)
    self_total = sum(selves.values())
    error = abs(self_total - root_total) / root_total if root_total else 0.0
    return sorted(rows.values(), key=lambda r: r["path"]), error
