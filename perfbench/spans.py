"""In-memory spans recorded around calls into the program's layers.

A ``Tracer`` wraps functions and methods so that each call records a
span: name, start, end, parent span and a document id shared by every
span under one document's root span. Spans stay in memory until
``dump`` writes them out. ``patch`` swaps the wrappers in and ``unpatch``
restores the originals, so tracing costs nothing once a traced run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    doc: int     # shared by all spans under one document root, -1 outside


class Tracer:
    def __init__(self, doc_roots: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self.doc_roots = set(doc_roots)
        self._stack: list[int] = []
        self._next_doc = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` with a span named ``name`` around every call;
        ``on_call(args, result)`` sees each call's arguments and result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if name in self.doc_roots:
                doc, self._next_doc = self._next_doc, self._next_doc + 1
            else:
                doc = self.spans[parent].doc if parent >= 0 else -1
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, doc)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)
        with its traced wrapper until ``unpatch``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.
    Children of one span never overlap (calls nest), so the covered part
    is the sum of the children's durations."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """name → summed self time, name → call count."""
    self_t = self_times(spans)
    tot: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_t):
        tot[s.name] += t
        calls[s.name] += 1
    return tot, calls


PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int, beyond: int = 10) -> float:
    """The highest percentile of the ladder with at least ``beyond`` of
    ``n`` samples above it; the median when even that has fewer."""
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) >= 100.0 * beyond - 1e-6:  # float-safe
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    v = sorted(values)
    k = max(0, min(len(v) - 1, -(-len(v) * p // 100) - 1))
    return v[int(k)]
