"""Outside-in span tracer.

The tracer wraps functions by replacing module and class attributes, so the
traced program's source stays unchanged.  Every wrapped call becomes a span
with a name, a start, an end and the span that caused it.  Spans are kept in
memory and written out by the caller when the run ends.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans under a root add up to the root's duration.
Spans are closed in ``finally``: functions that raise as normal control flow
(a tie during classification, an unclassified configuration) still charge
their time to themselves and not to their caller.

Hot leaf functions (tens of thousands of calls per item) are named in
``aggregate``: their calls are summed per parent span instead of being kept
one by one, so the trace stays small.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterable


class Stat:
    """Totals for one traced name over the whole run."""

    __slots__ = ("calls", "raised", "self_s", "total_s", "durations", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = array("d")  # seconds, one per call
        self.extra: Counter = Counter()  # counts taken from return values


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "parent_name", "start", "child_s")

    def __init__(self, name, span_id, parent_id, parent_name) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.parent_name = parent_name
        self.start = 0.0
        self.child_s = 0.0


Observer = Callable[[Stat, Any], None]


class Tracer:
    def __init__(
        self, aggregate: Iterable[str] = (), clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.clock = clock
        self.aggregate = frozenset(aggregate)
        self.stats: dict[str, Stat] = {}
        # (span id, parent span id, name, start, end, self seconds, raised)
        self.spans: list[tuple] = []
        # (parent span id, name) -> [calls, total seconds, self seconds]
        self.leaves: dict[tuple, list] = {}
        # (parent name, name) -> calls
        self.edges: Counter = Counter()
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        parent_id = parent.span_id if parent is not None else None
        if name in self.aggregate:
            span_id = parent_id  # children attach to the nearest kept span
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id, parent_id, parent.name if parent is not None else None)
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def _exit(self, frame: _Frame, ok: bool) -> Stat:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        self_s = duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        stat = self._stat(frame.name)
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += self_s
        stat.durations.append(duration)
        if not ok:
            stat.raised += 1
        self.edges[(frame.parent_name, frame.name)] += 1
        if frame.name in self.aggregate:
            leaf = self.leaves.get((frame.parent_id, frame.name))
            if leaf is None:
                leaf = self.leaves[(frame.parent_id, frame.name)] = [0, 0.0, 0.0]
            leaf[0] += 1
            leaf[1] += duration
            leaf[2] += self_s
        else:
            self.spans.append(
                (frame.span_id, frame.parent_id, frame.name, frame.start, end, self_s, not ok)
            )
        return stat

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """``fn`` traced as ``name``; ``observe(stat, result)`` sees each return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                stat = self._exit(frame, ok)
            if observe is not None:
                observe(stat, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, observe: Observer | None = None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by its traced form."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_dict(self) -> dict:
        """Spans and per-parent leaf totals, for writing out after the run."""
        return {
            "spans": [
                {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                    "raised": raised,
                }
                for sid, parent, name, start, end, self_s, raised in self.spans
            ],
            "leaves": [
                {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (parent, name), (c, t, s) in self.leaves.items()
            ],
        }
