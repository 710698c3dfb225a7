"""In-memory spans around the benchmark's calls into padfd's layers.

A span records a layer name, start and end (``time.perf_counter``), the
span that caused it and the op it belongs to. Counts are recorded at the
same boundaries. ``Untraced`` offers the same interface and records
nothing, so the traced and untraced runs execute the same calls and their
difference is the tracing overhead.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import TextIO


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter[str] = Counter()
        self._parent: int | None = None
        self._op = -1
        self._next_id = 0

    @contextmanager
    def op(self, op_id: int):
        """Span covering one whole op; layer spans inside name it parent."""
        span_id = self._take_id()
        self._parent, self._op = span_id, op_id
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((span_id, "op", start, perf_counter(), None, op_id))
            self._parent = None

    def call(self, layer: str, fn, *args, **kwargs):
        span_id = self._take_id()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[f"{layer}.errors"] += 1
            raise
        finally:
            self.spans.append((span_id, layer, start, perf_counter(), self._parent, self._op))

    def count(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def busy(self) -> Counter[str]:
        """Seconds spent inside each layer."""
        totals: Counter[str] = Counter()
        for _, name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def write(self, out: TextIO, pass_index: int) -> None:
        """Append the spans as JSON lines, tagged with their pass."""
        for span_id, name, start, end, parent, op_id in self.spans:
            record = {"pass": pass_index, "id": span_id, "name": name, "start": start,
                      "end": end, "parent": parent, "op": op_id}
            out.write(json.dumps(record) + "\n")

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id


class Untraced:
    """Same calls, nothing recorded."""

    @contextmanager
    def op(self, op_id: int):
        yield

    def call(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key: str, amount: float) -> None:
        pass
