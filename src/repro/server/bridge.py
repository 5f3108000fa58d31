"""Bridge the manager's decision events onto the service event bus.

:class:`BusTracer` satisfies the :class:`repro.obs.Tracer` protocol
(``enabled`` / ``emit`` / ``bind_clock`` / ``bind_sampler``), so it
slots into :func:`repro.scheduler.manager.make_manager` exactly where
a recording tracer would — but instead of keeping events it publishes
each one on the bus under ``topic = event.kind`` as the same
``{seq, t, kind, **payload}`` record the JSONL exporter writes.  The
record is built only when some subscription covers the topic: with
nobody listening an emit costs a stamp and the bus counters, nothing
is flattened, and nothing is retained (the service's flight recorder
is the one recent-events ring).

Stamping uses the *virtual* clock the manager binds, so the record
stream of a fixed-seed scripted session is byte-identical run to run —
wall time never leaks into the frames.  Every emit draws a sequence
number, listened to or not, so a subscriber that joins mid-session
sees ``seq`` continue the per-event numbering of the whole stream.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from repro.obs.events import event_record
from repro.server.bus import EventBus


class BusTracer:
    """Tracer-compatible adapter that republishes events to a bus.

    The sampler hook is accepted but unused: gauges are polled by the
    metrics registry, and polling per emit would only add jitter to
    the event stream clients see.  Thread-safety matches the parallel
    manager's needs — ``emit`` may be called from shard workers, and
    every structure touched here is safe under concurrent use (atomic
    counter, locked bus).
    """

    enabled = True

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        #: Mirrors :attr:`repro.obs.Tracer.offset`: added to every
        #: clock reading so stamps stay monotone across manager
        #: incarnations under the fault injector.
        self.offset = 0.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._seq = itertools.count()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def bind_sampler(
        self, sampler: Callable[[], dict[str, float]]
    ) -> None:
        """Accepted for protocol compatibility; gauges are not bridged."""

    def emit(self, event) -> None:
        """Stamp one decision event; flatten and publish it only when
        a subscription covers its kind."""
        seq = next(self._seq)
        t = self._clock() + self.offset
        bus = self.bus
        kind = event.kind
        subs = bus.route(kind)
        if subs:
            bus.deliver(subs, kind, event_record(seq, t, event))
