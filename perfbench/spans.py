"""In-memory spans recorded by the benchmark around calls into the program.

A span is a plain dict (picklable, so pool workers can return theirs):
``name``, ``cat`` (the layer), ``start``/``end`` in ``time.perf_counter``
seconds, ``pid``, ``id``, ``parent`` and free-form ``args``. On Linux
``perf_counter`` reads CLOCK_MONOTONIC, so spans taken in forked workers
share the parent's time axis.

Spans stay in memory while the run measures; :func:`write_chrome_trace`
writes them once, at the end, as Chrome trace-event JSON (``"ph": "X"``
complete events), which Perfetto and ``chrome://tracing`` open as is.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Tracer:
    """Collects nested spans for one process."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[str] = []
        self._prefix = f"{os.getpid()}:"

    @contextmanager
    def span(self, name: str, cat: str, **args: Any) -> Iterator[dict[str, Any]]:
        """Time the ``with`` block; yields the span record (fill ``args`` freely)."""
        span_id = f"{self._prefix}{len(self.spans)}"
        record = {
            "name": name,
            "cat": cat,
            "start": time.perf_counter(),
            "end": None,
            "pid": os.getpid(),
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "args": dict(args),
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def extend(self, spans: list[dict[str, Any]], parent: str | None) -> None:
        """Adopt spans recorded elsewhere (a pool worker) under ``parent``."""
        for span in spans:
            if span["parent"] is None:
                span = dict(span, parent=parent)
            self.spans.append(span)


def busy(spans: list[dict[str, Any]], cat: str) -> float:
    """Summed duration of every span of one layer."""
    return sum(s["end"] - s["start"] for s in spans if s["cat"] == cat)


def of(spans: list[dict[str, Any]], cat: str) -> list[dict[str, Any]]:
    return [s for s in spans if s["cat"] == cat]


def write_chrome_trace(
    path: Path, spans: list[dict[str, Any]], metadata: dict[str, Any]
) -> None:
    """Write spans as Chrome trace-event JSON (timestamps in microseconds)."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "cat": s["cat"],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["pid"],
                "args": dict(s["args"], span_id=s["id"], parent=s["parent"]),
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
    path.write_text(json.dumps(payload, default=_plain), encoding="utf-8")


def _plain(value: Any) -> Any:
    """JSON fallback for NumPy scalars in span args."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")
