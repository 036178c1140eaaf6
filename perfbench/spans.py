"""In-memory timing spans for the traced pass.

A span records a name, its start and end on the ``perf_counter`` clock,
the index of the span that caused it and the request it belongs to.
Spans are kept in a list and written out once, after the run, so that
tracing costs one clock read and one append per boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def total(self, name: str | None = None, parent: str | None = None) -> float:
        """Summed duration of the spans with this name and/or this parent's name."""
        return sum(
            s.end - s.start
            for s in self.spans
            if (name is None or s.name == name)
            and (parent is None or (s.parent is not None and self.spans[s.parent].name == parent))
        )

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per layer (the name up to its first dot): duration minus time covered by children.

        Children of one span never overlap, because spans nest on one
        thread, so the covered part is the sum of child durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s.end - s.start) - covered
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "request": s.request,
                }) + "\n")


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced baseline for overhead."""

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        yield
