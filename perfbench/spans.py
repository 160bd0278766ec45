"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around the calls it
makes into each layer's public functions (nothing inside the program
is instrumented).  A span holds its name, layer, start and end on the
host monotonic clock, the index of its parent span on the same thread,
and the request (operation) id it belongs to.  Spans stay in memory
until :meth:`SpanRecorder.write` dumps them as JSON lines at the end of
the run.

When disabled, :meth:`SpanRecorder.span` is a no-op context manager, so
the untraced run pays nothing.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class SpanRecorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, layer: str, request_id: str | None = None):
        if not self.enabled:
            return _NULL
        return self._span(name, layer, request_id)

    @contextlib.contextmanager
    def _span(self, name: str, layer: str, request_id: str | None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent]["request_id"]
        record = {
            "name": name,
            "layer": layer,
            "parent": parent,
            "request_id": request_id,
            "thread": threading.get_ident(),
            "start": 0.0,
            "end": 0.0,
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            stack.pop()

    def in_window(self, start: float, end: float) -> list[dict]:
        return [s for s in self.spans if s["start"] >= start and s["end"] <= end]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per layer: (span count, total seconds, self seconds).

        A span's self time is its duration minus its direct children's;
        children run on the parent's thread, so they never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        table: dict[str, list] = {}
        for index, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            row = table.setdefault(span["layer"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time[index]
        return {layer: (row[0], row[1], row[2]) for layer, row in sorted(table.items())}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **span}) + "\n")
