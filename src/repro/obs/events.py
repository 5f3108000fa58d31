"""Typed trace events emitted by the instrumented simulation layers.

Every event is a plain dataclass carrying *why* something happened, not
just that it did: defers name the blocking holders (pid, timestamp, held
lock modes) and the paper rule that fired; cascades name the victims and
the timestamp comparison that doomed them; grants carry the sharing
position the lock was appended at.

Events do **not** carry their own clock — the
:class:`~repro.obs.tracer.Tracer` stamps each emit with the virtual time
and a global sequence number, and serializes the pair together with the
payload into one flat record (:func:`event_record`).  The flat record
dictionaries are what the JSONL log, the exporters, the bus frames, and
the explain replay consume.
"""

from __future__ import annotations

import copy
import dataclasses
import typing
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.decisions import (  # noqa: F401  (re-exported)
    RULE_BY_REASON,
    rule_for_reason,
)


@dataclass(frozen=True, slots=True)
class Holder:
    """One blocking lock holder as seen at decision time."""

    pid: int
    timestamp: int
    #: Lock modes the holder currently has on the table ("C", "P", or
    #: "CP"); empty when the holder holds no locks (e.g. a cascade
    #: victim whose abort the requester awaits).
    modes: str = ""

    def describe(self) -> str:
        mode = f" holding {self.modes}" if self.modes else ""
        return f"P{self.pid} (ts {self.timestamp}){mode}"


# ----------------------------------------------------------------------
# process lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ProcessSubmitted:
    kind = "process.submit"
    pid: int


@dataclass(frozen=True, slots=True)
class ProcessInitiated:
    kind = "process.init"
    pid: int
    timestamp: int
    incarnation: int = 0


@dataclass(frozen=True, slots=True)
class ProcessCommitted:
    kind = "process.commit"
    pid: int
    incarnation: int


@dataclass(frozen=True, slots=True)
class AbortBegun:
    """A process starts its abort-process execution."""

    kind = "process.abort-begin"
    pid: int
    incarnation: int
    #: "cascade", "deadlock", "self", "intrinsic", "subprocess", or
    #: "cancel" (client cancel of a running process, service front
    #: door).
    cause: str


@dataclass(frozen=True, slots=True)
class ProcessAborted:
    kind = "process.abort"
    pid: int
    incarnation: int
    resubmit: bool


@dataclass(frozen=True, slots=True)
class ProcessResubmitted:
    """A cascade victim restarts with its *original* timestamp."""

    kind = "process.resubmit"
    pid: int
    incarnation: int
    timestamp: int


@dataclass(frozen=True, slots=True)
class ProcessCancelled:
    """A client explicitly cancelled the process (service front door).

    ``initiated`` distinguishes a cancel that had to abort a running
    process (compensations ran, no resubmission) from one that caught
    the process before initiation (nothing to undo — the scheduled
    initiation callback is simply dropped).
    """

    kind = "process.cancel"
    pid: int
    initiated: bool


# ----------------------------------------------------------------------
# protocol decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LockGranted:
    kind = "lock.grant"
    pid: int
    incarnation: int
    #: "regular", "compensation", or "commit" (a commit grant carries no
    #: activity or position).
    request: str
    activity: str | None
    uid: int | None
    mode: str | None
    #: Global sharing position of the acquired lock entry.
    position: int | None = None


@dataclass(frozen=True, slots=True)
class LockDeferred:
    kind = "lock.defer"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
    uid: int | None
    mode: str | None
    reason: str
    rule: str
    blockers: tuple[Holder, ...] = ()


@dataclass(frozen=True, slots=True)
class CascadeRequested:
    """Timestamp order sacrifices the named running holders."""

    kind = "lock.cascade"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
    uid: int | None
    mode: str | None
    victims: tuple[Holder, ...] = ()


@dataclass(frozen=True, slots=True)
class SelfAbortDecision:
    """The protocol told the *requester* to abort (baselines only)."""

    kind = "lock.self-abort"
    pid: int
    incarnation: int
    timestamp: int
    request: str
    activity: str | None
    reason: str
    rule: str


@dataclass(frozen=True, slots=True)
class LockConverted:
    """One Comp→Piv conversion (C lock upgraded to P in place)."""

    kind = "lock.convert"
    pid: int
    type_name: str
    position: int


@dataclass(frozen=True, slots=True)
class ActivityClassified:
    """Figure-1 treatment decision, with the Wcc charge that drove it."""

    kind = "wcc.classify"
    pid: int
    incarnation: int
    activity: str
    mode: str
    wcc: float
    threshold: float
    pseudo_pivot: bool
    real_pivot: bool


# ----------------------------------------------------------------------
# activity execution spans
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ActivityStarted:
    kind = "activity.start"
    pid: int
    incarnation: int
    activity: str
    uid: int
    compensation: bool = False
    #: Shard worker owning the activity's type under parallel execution;
    #: ``None`` on the sequential manager.
    worker: int | None = None


@dataclass(frozen=True, slots=True)
class ActivityRetried:
    kind = "activity.retry"
    pid: int
    activity: str
    uid: int
    attempt: int


@dataclass(frozen=True, slots=True)
class ActivityCommitted:
    kind = "activity.commit"
    pid: int
    incarnation: int
    activity: str
    uid: int
    compensation: bool = False


@dataclass(frozen=True, slots=True)
class ActivityFailed:
    kind = "activity.fail"
    pid: int
    incarnation: int
    activity: str
    uid: int


@dataclass(frozen=True, slots=True)
class ActivityCancelled:
    """An in-flight activity of an abort victim was torn down."""

    kind = "activity.cancel"
    pid: int
    incarnation: int
    activity: str
    uid: int


# ----------------------------------------------------------------------
# wait-for bookkeeping and deadlock resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WaitEdge:
    """Insertion or deletion of parked wait-for edges.

    One event covers the whole edge fan (waiter → each blocker) of one
    parked request; ``seq`` is the manager's park sequence, which pairs
    the delete with its insert for blocked-time accounting.
    """

    kind = "wait.edge"
    op: str  # "insert" | "delete"
    waiter: int
    blockers: tuple[int, ...]
    seq: int
    request: str
    activity: str | None
    reason: str
    #: Lock shard (subsystem) of the requested activity's type; ``None``
    #: for commit requests, which span all of the process's shards.
    shard: str | None = None
    #: Shard worker owning that shard under parallel execution.
    worker: int | None = None


@dataclass(frozen=True, slots=True)
class DeadlockVictim:
    kind = "deadlock.victim"
    pid: int
    cycle: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class UnresolvableForced:
    """Forced progress through an unresolvable wait cycle (baselines)."""

    kind = "deadlock.forced"
    pid: int
    request: str
    cycle: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FaultInjected:
    """One fault-injector action (any channel)."""

    kind = "fault.inject"
    #: "failure", "retry", "latency", "outage", "subsystem-crash",
    #: "manager-crash", or "manager-recover".
    channel: str
    pid: int | None = None
    activity: str | None = None
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# resilience (circuit breakers, admission gating, adaptive Wcc*)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BreakerTransition:
    """One circuit-breaker state change, with the signal that drove it."""

    kind = "resilience.breaker"
    subsystem: str
    from_state: str  # "closed" | "open" | "half-open"
    to_state: str
    #: e.g. "failure-threshold", "outage-threshold", "cooldown-elapsed",
    #: "probe-successes", "probe-failure".
    reason: str
    #: Lifetime trip count of this breaker (after this transition).
    opens: int = 0


@dataclass(frozen=True, slots=True)
class AdmissionGate:
    """An admission decision of the resilience layer."""

    kind = "resilience.admission"
    pid: int
    op: str  # "defer" | "readmit" | "force-admit"
    #: Open-breaker subsystems that blocked the admission (empty on
    #: readmit).
    subsystems: tuple[str, ...] = ()
    #: How many times this pid has been deferred so far.
    deferrals: int = 0


@dataclass(frozen=True, slots=True)
class BackpressureEngaged:
    """A shard-queue backpressure decision of the resilience layer."""

    kind = "resilience.backpressure"
    pid: int
    op: str  # "defer" | "force-admit"
    #: Saturated shards (subsystems) that paused the admission.
    subsystems: tuple[str, ...] = ()
    #: How many times this pid has been backpressured so far.
    deferrals: int = 0


@dataclass(frozen=True, slots=True)
class DegradationChanged:
    """The adaptive ``Wcc*`` cap engaged or lifted."""

    kind = "resilience.degrade"
    active: bool
    cap: float
    reason: str  # "breaker-open" | "all-breakers-closed"
    open_subsystems: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class RetryBudgetExhausted:
    """A retry budget forced a failing retriable to count as success.

    With a bounded :class:`~repro.faults.retry.RetryPolicy` installed,
    an injected-failing retriable activity that reaches
    ``max_attempts`` is treated as successful to preserve guaranteed
    termination; this event makes that (previously silent) decision
    visible.
    """

    kind = "retry.budget_exhausted"
    pid: int
    activity: str
    uid: int
    attempts: int
    subsystem: str | None = None


# ----------------------------------------------------------------------
# durable storage (repro.storage)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class StoreRecovered:
    """Startup recovery finished replaying the durable store.

    ``adopted`` processes resumed mid-flight from the snapshot,
    ``resubmitted`` undecided submissions were re-scheduled under
    their original pids, and ``restored`` finished processes came back
    from terminal journal records without re-execution.
    """

    kind = "store.recovered"
    backend: str
    adopted: int
    resubmitted: int
    restored: int
    journal_records: int
    healed_namespaces: int
    #: Wall-clock recovery time (replay progress metric).
    seconds: float


@dataclass(frozen=True, slots=True)
class StoreSnapshot:
    """A checkpoint of the live crash image was swapped in."""

    kind = "store.snapshot"
    #: Live processes captured in the image.
    processes: int
    #: Journal length the snapshot covers (its replay watermark).
    journal_lsn: int


@dataclass(frozen=True, slots=True)
class StoreTornTail:
    """Recovery truncated an incomplete record at the end of a log.

    A torn tail is the signature of a crash mid-append; truncating to
    the last complete CRC-valid frame is deterministic and loses only
    the record(s) that were never acknowledged as durable.
    """

    kind = "store.torn_tail"
    namespace: str
    dropped_bytes: int


#: kind tag -> event class, for JSONL round-trips and exporters.
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ProcessSubmitted,
        ProcessInitiated,
        ProcessCommitted,
        AbortBegun,
        ProcessAborted,
        ProcessCancelled,
        ProcessResubmitted,
        LockGranted,
        LockDeferred,
        CascadeRequested,
        SelfAbortDecision,
        LockConverted,
        ActivityClassified,
        ActivityStarted,
        ActivityRetried,
        ActivityCommitted,
        ActivityFailed,
        ActivityCancelled,
        WaitEdge,
        DeadlockVictim,
        UnresolvableForced,
        FaultInjected,
        BreakerTransition,
        AdmissionGate,
        BackpressureEngaged,
        DegradationChanged,
        RetryBudgetExhausted,
        StoreRecovered,
        StoreSnapshot,
        StoreTornTail,
    )
}


def _field_converter(hint) -> Callable | None:
    """Copy rule for one field type; ``None`` copies the value as is."""
    origin = typing.get_origin(hint)
    if origin is tuple:
        args = typing.get_args(hint)
        if args and dataclasses.is_dataclass(args[0]):
            flatten = _flattener(args[0])
            return lambda values: tuple([flatten(v) for v in values])
        return tuple
    if hint is dict or origin is dict:
        return copy.deepcopy
    return None


def _build_flattener(cls: type) -> Callable[[object], dict]:
    """One precomputed ``asdict`` equivalent for ``cls``.

    The field names, one ``attrgetter`` over all of them, and the few
    fields that need a converter (holder tuples, other tuples, dicts)
    are worked out once per class, so flattening an event is a getter
    call, a ``dict(zip(...))`` and one call per non-scalar field.
    """
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    getter = attrgetter(*names)
    if len(names) == 1:  # a one-name attrgetter returns the bare value
        (only,) = names
        base = lambda event: {only: getter(event)}  # noqa: E731
    else:
        base = lambda event: dict(zip(names, getter(event)))  # noqa: E731
    converted = tuple(
        (name, conv)
        for name in names
        if (conv := _field_converter(hints[name])) is not None
    )
    if not converted:
        return base

    def flatten(event) -> dict:
        payload = base(event)
        for name, conv in converted:
            payload[name] = conv(payload[name])
        return payload

    return flatten


#: event class -> its flattener, filled on first use of each class.
_FLATTENERS: dict[type, Callable[[object], dict]] = {}


def _flattener(cls: type) -> Callable[[object], dict]:
    flatten = _FLATTENERS.get(cls)
    if flatten is None:
        flatten = _FLATTENERS[cls] = _build_flattener(cls)
    return flatten


def event_payload(event) -> dict:
    """Flat JSON-ready payload of one event (without stamp fields).

    Equal to ``dataclasses.asdict(event)`` in value, value type and
    JSON text, with a fresh copy of every mutable part.
    """
    return _flattener(type(event))(event)


def event_record(seq: int, t: float, event) -> dict:
    """The flat ``{seq, t, kind, **payload}`` record of one stamped
    event: the JSONL line, bus frame and flight-dump entry shape.

    A payload field named like a stamp key overwrites the stamp:
    ``wait.edge`` records carry the park ``seq``, not the emit number,
    in every record format.
    """
    record = {"seq": seq, "t": t, "kind": event.kind}
    record.update(_flattener(type(event))(event))
    return record
