"""In-memory span tracer for the benchmark's traced run.

The program under test is not instrumented.  Instead, the traced run
replaces a fixed set of functions and methods with timing wrappers,
installed on the attribute each caller actually resolves at call time:
a function imported into a caller's module is wrapped in that module
(``repro.router.router.pfa``), a method on its class
(``DominanceOracle.maxdom``).  Every call becomes a span ``(id, name,
start, end, parent, key)``; spans stay in memory and are written out
once the run ends.  A span's parent is the innermost wrapped call
still open on the same thread, so a layer's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, Any]


class Tracer:
    """Collects spans from wrapped callables; :meth:`restore` unwraps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        key: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``key(args, result)`` labels the span (a job id, say); it runs
        after the call, outside the span.  Static and class methods
        keep their descriptor kind.
        """
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = key(args, result) if key is not None else None
                spans.append((sid, name, start, end, parent, label))

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        """Dump the raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, s, e, parent, label in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": s, "end": e,
                     "parent": parent, "key": label}
                ) + "\n")


def covered_s(spans: List[Span], start: float, end: float) -> float:
    """Time within [start, end] covered by root spans."""
    return sum(
        min(e, end) - max(s, start)
        for _, _, s, e, parent, _ in spans
        if parent == 0 and e > start and s < end
    )


def layer_stats(spans: List[Span]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, busy (s), self (s) and durations (s)."""
    child_s: Dict[int, float] = {}
    for _, _, s, e, parent, _ in spans:
        if parent:
            child_s[parent] = child_s.get(parent, 0.0) + (e - s)
    out: Dict[str, Dict[str, Any]] = {}
    for sid, name, s, e, _, _ in spans:
        row = out.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
        )
        row["calls"] += 1
        row["busy_s"] += e - s
        row["self_s"] += (e - s) - child_s.get(sid, 0.0)
        row["durations"].append(e - s)
    return out


def percentile(values: List[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]
