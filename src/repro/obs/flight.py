"""Bounded in-memory flight recorder for the last N trace events.

The recorder is a thread-safe ring buffer of ``(seq, t, event)``
triples.  Appending is O(1) and never flattens the event — records are
built lazily at dump time, so a recorder in the service emit path costs
one deque append per event.  Dumps go out as the same JSONL format the
exporters write, so ``repro explain`` and :func:`replay_metrics` work
on a crash dump exactly as on a full trace.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.events import event_record

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring buffer of the last ``capacity`` emitted events."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Lifetime appends (events seen), not just the retained window.
        self.appended = 0
        #: How many dumps were taken.
        self.dumps = 0

    def append(self, seq: int, t: float, event) -> None:
        with self._lock:
            self._ring.append((seq, t, event))
            self.appended += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def snapshot(self) -> list[dict]:
        """Flat record dictionaries for the retained window (oldest
        first), flattened only now.

        Non-finite floats are already replaced with their JSONL string
        stand-ins (see :func:`repro.obs.export._jsonable`), so the
        records are strict-JSON safe for the wire; apply
        :func:`repro.obs.export._restore` to get numeric values back.
        """
        from repro.obs.export import _jsonable

        with self._lock:
            window = list(self._ring)
            self.dumps += 1
        return [
            _jsonable(event_record(seq, t, event))
            for seq, t, event in window
        ]

    def dump_jsonl(self, path) -> int:
        """Write the retained window as JSONL; returns records written."""
        from repro.obs.export import write_jsonl

        records = self.snapshot()
        write_jsonl(records, path)
        return len(records)
