"""In-memory span recorder for the benchmark's traced runs.

The benchmark never turns on the program's own telemetry.  Instead, for a
traced pass, :class:`Tracer` replaces selected functions and methods with
thin wrappers *at the names their callers look them up under* (a module
global or a class attribute), records one span per call, and puts the
originals back when the pass ends.  An untraced pass runs the program
exactly as shipped.

A span records its name, start, end, thread and the id of the span that
was open on the same thread when it started (its parent), so self times
and coverage can be derived after the run:

* the *self time* of a span is its duration minus its direct children's
  durations (children on one thread never overlap);
* the *coverage* of an end-to-end root span is the share of its duration
  covered by its direct children, the layer calls made inside it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: str
    attrs: dict

    @property
    def duration(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans and owns the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> "_OpenSpan":
        """Context manager recording one span around its body."""
        return _OpenSpan(self, name, attrs)

    def _open(self) -> tuple[int, int | None]:
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start_ns, attrs) -> Span:
        end_ns = time.perf_counter_ns()
        self._stack().pop()
        record = Span(
            span_id,
            parent,
            name,
            start_ns,
            end_ns,
            threading.current_thread().name,
            attrs,
        )
        self.spans.append(record)  # list.append is atomic under the GIL
        return record

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[[object, dict], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module (for functions imported by name) or a class
        (for methods).  ``on_result(result, attrs)`` may add attributes
        to the span from the call's return value.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            attrs: dict = {}
            start_ns = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result, attrs)
                return result
            finally:
                tracer._close(span_id, parent, name, start_ns, attrs)

        self.replace(owner, attr, wrapper)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unwrap_all`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def children(self) -> dict[int | None, list[Span]]:
        by_parent: dict[int | None, list[Span]] = defaultdict(list)
        for record in self.spans:
            by_parent[record.parent_id].append(record)
        return by_parent

    @staticmethod
    def totals(spans: list[Span]) -> dict[str, float]:
        """Seconds per span name, not counting a span nested in a span
        of the same name twice."""
        by_id = {record.span_id: record for record in spans}
        out: dict[str, float] = defaultdict(float)
        for record in spans:
            parent = by_id.get(record.parent_id)
            nested = False
            while parent is not None:
                if parent.name == record.name:
                    nested = True
                    break
                parent = by_id.get(parent.parent_id)
            if not nested:
                out[record.name] += record.duration
        return dict(out)

    @staticmethod
    def self_times(spans: list[Span]) -> dict[str, float]:
        """Seconds per span name spent outside any child span."""
        child_time: dict[int, float] = defaultdict(float)
        for record in spans:
            if record.parent_id is not None:
                child_time[record.parent_id] += record.duration
        out: dict[str, float] = defaultdict(float)
        for record in spans:
            out[record.name] += record.duration - child_time[record.span_id]
        return dict(out)

    @staticmethod
    def calls(spans: list[Span]) -> dict[str, int]:
        """Number of spans per span name."""
        out: dict[str, int] = defaultdict(int)
        for record in spans:
            out[record.name] += 1
        return dict(out)

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and every span recorded below it."""
        by_parent = self.children()
        out, todo = [], [root]
        while todo:
            record = todo.pop()
            out.append(record)
            todo.extend(by_parent.get(record.span_id, ()))
        return out

    def uncovered_share(self, root: Span) -> float:
        """Share of ``root``'s duration that none of its children cover."""
        covered = sum(
            child.duration for child in self.children().get(root.span_id, ())
        )
        return max(0.0, 1.0 - covered / root.duration) if root.duration else 0.0

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s.start_ns):
                handle.write(
                    json.dumps(
                        {
                            "id": record.span_id,
                            "parent": record.parent_id,
                            "name": record.name,
                            "start_ns": record.start_ns,
                            "end_ns": record.end_ns,
                            "thread": record.thread,
                            "attrs": record.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class _OpenSpan:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.record: Span | None = None

    def __enter__(self) -> "_OpenSpan":
        self._id, self._parent = self.tracer._open()
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.record = self.tracer._close(
            self._id, self._parent, self.name, self._start, self.attrs
        )
