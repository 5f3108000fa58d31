"""Typed in-process event bus with topic subscriptions.

The bus decouples the emitting side (the manager's tracer, bridged by
:class:`repro.server.bridge.BusTracer`, plus the service's own
lifecycle announcements) from consumers (connected ``SUBSCRIBE``
clients, tests, the benchmark harness).  Topics are the event ``kind``
strings of :mod:`repro.obs.events` — ``process.commit``,
``lock.defer``, ``fault.crash`` — plus the service's own
``service.*`` announcements.

Patterns
--------
* ``"*"`` matches every topic;
* ``"process.*"`` (trailing ``.*``) matches the whole ``process.``
  prefix;
* anything else matches exactly.

Delivery is synchronous on the publisher's thread: subscribers get the
record in publish order, and a subscriber that raises is counted in
:attr:`EventBus.dropped` rather than poisoning the publisher (the
manager's engine thread must never die to a slow client callback).

A publisher whose record is costly to build splits :meth:`publish`
into its two halves: :meth:`EventBus.route` counts the publish and
returns the covering subscriptions, and only a non-empty route is
worth building a record for and handing to :meth:`EventBus.deliver`.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field


def topic_matches(pattern: str, topic: str) -> bool:
    """Whether one subscription pattern covers one topic."""
    if pattern == "*":
        return True
    if pattern.endswith(".*"):
        return topic.startswith(pattern[:-1])
    return pattern == topic


@dataclass(frozen=True)
class Subscription:
    """One registered subscriber (immutable; replaced, never mutated)."""

    token: int
    patterns: tuple[str, ...]
    callback: Callable[[str, dict], None]

    def covers(self, topic: str) -> bool:
        return any(topic_matches(p, topic) for p in self.patterns)


@dataclass
class BusCounters:
    """Publish-side accounting, surfaced by the ``STATS`` command."""

    published: int = 0
    delivered: int = 0
    dropped: int = 0
    by_topic: dict[str, int] = field(default_factory=dict)


class EventBus:
    """Thread-safe publish/subscribe fan-out over string topics.

    Subscription state is copy-on-write: ``publish`` snapshots the
    subscriber tuple under the lock and calls the callbacks outside it,
    so a callback may itself subscribe or unsubscribe (and publishers
    on different threads never serialize on subscriber work).  The
    covering subscriptions of each topic are cached until the next
    subscribe or unsubscribe.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._tokens = itertools.count(1)
        self._subs: tuple[Subscription, ...] = ()
        #: topic -> covering subscriptions, reset on every change.
        self._routes: dict[str, tuple[Subscription, ...]] = {}
        self.counters = BusCounters()

    def subscribe(
        self,
        patterns: Iterable[str],
        callback: Callable[[str, dict], None],
    ) -> int:
        """Register ``callback(topic, record)``; returns a token."""
        pats = tuple(patterns)
        if not pats:
            raise ValueError("subscription needs at least one pattern")
        sub = Subscription(
            token=next(self._tokens), patterns=pats, callback=callback
        )
        with self._mutex:
            self._subs = (*self._subs, sub)
            self._routes = {}
        return sub.token

    def unsubscribe(self, token: int) -> bool:
        """Drop one subscription; ``False`` when already gone."""
        with self._mutex:
            kept = tuple(s for s in self._subs if s.token != token)
            changed = len(kept) != len(self._subs)
            self._subs = kept
            self._routes = {}
        return changed

    def publish(self, topic: str, record: dict) -> int:
        """Deliver ``record`` to every covering subscriber.

        Returns the delivery count.  Callback exceptions are swallowed
        and counted (:attr:`BusCounters.dropped`) — the publisher is
        the simulation engine thread and must stay alive.
        """
        return self.deliver(self.route(topic), topic, record)

    def route(self, topic: str) -> tuple[Subscription, ...]:
        """Count one publish on ``topic``; return the subscriptions
        covering it (empty when nobody would receive the record)."""
        with self._mutex:
            counters = self.counters
            counters.published += 1
            counters.by_topic[topic] = counters.by_topic.get(topic, 0) + 1
            subs = self._routes.get(topic)
            if subs is None:
                subs = self._routes[topic] = tuple(
                    s for s in self._subs if s.covers(topic)
                )
        return subs

    def deliver(
        self, subs: tuple[Subscription, ...], topic: str, record: dict
    ) -> int:
        """Hand ``record`` to the subscriptions :meth:`route` returned."""
        delivered = dropped = 0
        for sub in subs:
            try:
                sub.callback(topic, record)
                delivered += 1
            except Exception:
                dropped += 1
        if subs:
            with self._mutex:
                self.counters.delivered += delivered
                self.counters.dropped += dropped
        return delivered

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)
