"""In-memory spans around the benchmark's calls into vnlift, and the per-layer
figures derived from them.

A span is (name, start, end, parent, op): times from time.perf_counter in
seconds, parent the index of the enclosing span in ``spans`` (None for an
operation's root span) and op the operation's id. Span names are the layer
names ``<module>.<function>`` that a tracing flag in the program should reuse.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._parent = None
        self._op = None

    @contextmanager
    def operation(self, name: str, op_id: int):
        """Root span of one operation; spans recorded inside it are its children."""
        index = len(self.spans)
        self.spans.append((name, perf_counter(), None, None, op_id))
        self._parent, self._op = index, op_id
        try:
            yield
        finally:
            name, start, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, perf_counter(), parent, op)
            self._parent = self._op = None

    def wrap(self, name: str, fn):
        """fn with a span named ``name`` recorded around every call."""
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, perf_counter(), self._parent, self._op))

        return traced

    def layer_totals(self) -> dict:
        """name -> (calls, self seconds); self time is a span's duration minus
        the time its child spans cover (children never overlap here, as the
        benchmark runs one call at a time)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls, busy = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, busy + (end - start) - covered)
        return totals

    def write(self, path) -> None:
        """One JSON object per line with the span fields."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
