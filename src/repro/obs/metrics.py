"""Deterministic metrics plane layered on the typed event stream.

Three pieces live here:

* :class:`MetricsRegistry` — a tiny, dependency-free registry of
  counters, gauges, and fixed-bucket histograms with stable label sets.
  The same event stream always produces the same registry contents and
  the same Prometheus text exposition byte-for-byte (families render in
  declaration order, children in sorted label order).
* :class:`EventMetrics` — the domain feeder: it maps every
  :mod:`repro.obs.events` dataclass onto metric families (process
  outcomes, lock grants/defers by rule, virtual-time lock-wait and park
  histograms, retries per activity, breaker state gauges, …) and keeps
  the small amount of pairing state the derivations need (park inserts
  awaiting their delete, defers awaiting their grant, pids whose
  terminal abort was really a client cancel).
* :class:`MetricsTracer` — a tee tracer: it feeds an
  :class:`EventMetrics`, optionally appends to a
  :class:`~repro.obs.flight.FlightRecorder`, and forwards the raw event
  to any number of sink tracers (:class:`~repro.obs.tracer.Tracer`,
  :class:`~repro.server.bridge.BusTracer`), which stamp exactly as they
  would without the tee.  When metrics are disabled nothing here is
  constructed at all — emit sites still guard on ``tracer.enabled`` and
  the zero-overhead byte-identity guarantee of :data:`NULL_TRACER`
  holds unchanged.

Performance note: the tee pays per emit only for what it feeds.  The
feeder reads event attributes directly, the flight recorder stores the
event object and flattens at dump time, and a
:class:`~repro.server.bridge.BusTracer` sink flattens an event only
when a bus subscription covers its kind.  The tee never polls the
gauge sampler on emit: its owner calls :meth:`MetricsTracer.poll_gauges`
(the service once per engine batch, so the sampler-fed gauges read as
of the end of the last batch).  The metrics-over-tracer factor is
pinned by ``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Callable, Iterable, Sequence

__all__ = [
    "Counter",
    "EventMetrics",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "MetricsTracer",
    "RETRY_BUCKETS",
    "VT_WAIT_BUCKETS",
    "histogram_quantile",
    "parse_prometheus",
    "replay_metrics",
]

#: Virtual-time buckets for lock-wait and park-duration histograms;
#: activity durations in the simulator are O(1)-O(10) virtual units.
VT_WAIT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)

#: Retries-per-activity buckets (a count, not a duration).
RETRY_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0)

#: Wall-clock submit-to-commit buckets (seconds) for the service.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Breaker states as gauge values (ordering matches escalation).
BREAKER_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}

def _fmt(value: float) -> str:
    """Prometheus sample value formatting (integers without the .0)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_int = int(value)
    if as_int == value:
        return str(as_int)
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Family:
    """Shared plumbing for one named metric family."""

    type_name = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = lock
        self._children: dict[tuple, object] = {}

    def _check_labels(self, labels: tuple) -> tuple:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {labels!r}"
            )
        for value in labels:
            if type(value) is not str:
                return tuple(str(v) for v in labels)
        # Already a tuple of exact strings (every emit-path caller).
        return labels if type(labels) is tuple else tuple(labels)

    def _sorted_children(self) -> list[tuple[tuple, object]]:
        return sorted(self._children.items())


class Counter(_Family):
    """Monotone counter family."""

    type_name = "counter"

    def inc(self, labels: tuple = (), amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        labels = self._check_labels(labels)
        with self._lock:
            self._children[labels] = self._children.get(labels, 0) + amount

    def value(self, labels: tuple = ()) -> float:
        labels = self._check_labels(labels)
        with self._lock:
            return self._children.get(labels, 0)

    def total(self) -> float:
        """Sum over every child (handy for reconciliation tests)."""
        with self._lock:
            return sum(self._children.values())


class Gauge(_Family):
    """Last-write-wins gauge family."""

    type_name = "gauge"

    def set(self, value: float, labels: tuple = ()) -> None:
        labels = self._check_labels(labels)
        with self._lock:
            self._children[labels] = value

    def value(self, labels: tuple = ()) -> float:
        labels = self._check_labels(labels)
        with self._lock:
            return self._children.get(labels, 0.0)


class _HistChild:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # last slot = +Inf overflow
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-bucket histogram family (cumulative at render time)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help_text, label_names, lock)
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"{name}: buckets must strictly increase")
        self.buckets = ordered

    def observe(self, value: float, labels: tuple = ()) -> None:
        labels = self._check_labels(labels)
        with self._lock:
            child = self._children.get(labels)
            if child is None:
                child = _HistChild(len(self.buckets))
                self._children[labels] = child
            slot = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = i
                    break
            child.counts[slot] += 1
            child.total += value
            child.count += 1

    def cumulative(self, labels: tuple = ()) -> list[tuple[float, int]]:
        """``[(le, cumulative_count), ...]`` ending with ``+Inf``."""
        labels = self._check_labels(labels)
        with self._lock:
            child = self._children.get(labels)
            counts = (
                list(child.counts)
                if child is not None
                else [0] * (len(self.buckets) + 1)
            )
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out


class MetricsRegistry:
    """Declare-or-get registry with deterministic exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def _declare(self, cls, name: str, help_text: str, labels, **kwargs):
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or (
                    family.label_names != label_names
                ):
                    raise ValueError(
                        f"metric {name!r} re-declared with a different "
                        "type or label set"
                    )
                return family
            family = cls(name, help_text, label_names, self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Iterable[str] = (),
        buckets: Sequence[float] = VT_WAIT_BUCKETS,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump; same content as the text exposition."""
        families = []
        with self._lock:
            ordered = list(self._families.values())
        for family in ordered:
            entry: dict = {
                "name": family.name,
                "type": family.type_name,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": [],
            }
            if isinstance(family, Histogram):
                with self._lock:
                    children = family._sorted_children()
                for values, child in children:
                    running = 0
                    buckets = []
                    for bound, n in zip(family.buckets, child.counts):
                        running += n
                        buckets.append([_fmt(bound), running])
                    buckets.append(["+Inf", running + child.counts[-1]])
                    entry["samples"].append(
                        {
                            "labels": dict(
                                zip(family.label_names, values)
                            ),
                            "buckets": buckets,
                            "sum": child.total,
                            "count": child.count,
                        }
                    )
            else:
                with self._lock:
                    children = family._sorted_children()
                for values, value in children:
                    entry["samples"].append(
                        {
                            "labels": dict(
                                zip(family.label_names, values)
                            ),
                            "value": value,
                        }
                    )
            families.append(entry)
        return {"families": families}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            ordered = list(self._families.values())
        for family in ordered:
            lines.append(
                f"# HELP {family.name} {_escape_help(family.help)}"
            )
            lines.append(f"# TYPE {family.name} {family.type_name}")
            if isinstance(family, Histogram):
                with self._lock:
                    children = family._sorted_children()
                for values, child in children:
                    running = 0
                    names = family.label_names + ("le",)
                    for bound, n in zip(family.buckets, child.counts):
                        running += n
                        labels = _label_str(
                            names, tuple(values) + (_fmt(bound),)
                        )
                        lines.append(
                            f"{family.name}_bucket{labels} {running}"
                        )
                    labels = _label_str(
                        names, tuple(values) + ("+Inf",)
                    )
                    lines.append(
                        f"{family.name}_bucket{labels} "
                        f"{running + child.counts[-1]}"
                    )
                    plain = _label_str(family.label_names, values)
                    lines.append(
                        f"{family.name}_sum{plain} {_fmt(child.total)}"
                    )
                    lines.append(
                        f"{family.name}_count{plain} {child.count}"
                    )
            else:
                with self._lock:
                    children = family._sorted_children()
                for values, value in children:
                    labels = _label_str(family.label_names, values)
                    lines.append(
                        f"{family.name}{labels} {_fmt(value)}"
                    )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# exposition parsing (in-tree, used by CI smoke and `repro top`)
# ----------------------------------------------------------------------
def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value near {text[eq:]!r}")
        j = eq + 2
        out: list[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                j += 1
                nxt = text[j]
                out.append({"n": "\n", "\\": "\\", '"': '"'}[nxt])
            else:
                out.append(ch)
            j += 1
        labels[name] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse text exposition into ``{family: {type, help, samples}}``.

    ``samples`` maps ``(sample_name, frozenset(labels.items()))`` to the
    float value.  Raises :class:`ValueError` on malformed lines, samples
    without a preceding ``# TYPE``, or sample names that do not belong
    to their family — enough validation for the CI smoke test without
    any external dependency.
    """
    families: dict[str, dict] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": None, "samples": {}}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_name = rest.partition(" ")
            if type_name not in {"counter", "gauge", "histogram"}:
                raise ValueError(
                    f"line {lineno}: unknown type {type_name!r}"
                )
            families.setdefault(
                name, {"type": None, "help": None, "samples": {}}
            )["type"] = type_name
            current = name
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            brace = line.index("{")
            sample_name = line[:brace]
            close = line.rindex("}")
            labels = _parse_labels(line[brace + 1 : close])
            value_text = line[close + 1 :].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
        if current is None or not sample_name.startswith(current):
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} outside its "
                "# TYPE block"
            )
        suffix = sample_name[len(current) :]
        family_type = families[current]["type"]
        if family_type == "histogram":
            if suffix not in {"_bucket", "_sum", "_count"}:
                raise ValueError(
                    f"line {lineno}: bad histogram suffix {suffix!r}"
                )
        elif suffix:
            raise ValueError(
                f"line {lineno}: unexpected suffix {suffix!r} on "
                f"{family_type} family {current!r}"
            )
        value = _parse_value(value_text)
        families[current]["samples"][
            (sample_name, frozenset(labels.items()))
        ] = value
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} has samples but no # TYPE")
    return families


def histogram_quantile(
    cumulative: Sequence[tuple[float, float]], q: float
) -> float:
    """PromQL-style quantile from ``[(le, cumulative_count), ...]``.

    Linear interpolation inside the winning bucket; the lowest bucket
    interpolates from zero.  Returns ``nan`` on an empty histogram.
    """
    if not cumulative:
        return math.nan
    total = cumulative[-1][1]
    if total <= 0:
        return math.nan
    rank = q * total
    prev_bound = 0.0
    prev_count = 0.0
    for bound, count in cumulative:
        if count >= rank:
            if bound == math.inf:
                return prev_bound
            if count == prev_count:
                return bound
            frac = (rank - prev_count) / (count - prev_count)
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_count = bound, count
    return prev_bound


# ----------------------------------------------------------------------
# domain feeder
# ----------------------------------------------------------------------
class EventMetrics:
    """Maps the typed event stream onto a :class:`MetricsRegistry`.

    The feeder is deliberately stats-compatible: its derived counters
    reconcile exactly with :class:`~repro.scheduler.manager.ManagerStats`
    (pinned by the property test in ``tests/test_obs/test_metrics.py``).
    The one subtle case is a client cancel of a *running* process: the
    manager emits ``process.cancel`` + ``process.abort-begin(cancel)``
    + a terminal ``process.abort`` but counts only ``cancellations`` —
    so the feeder remembers cancelling pids and files the terminal
    abort under ``outcome="cancelled"`` instead of double-counting it
    as an abort.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.events = r.counter(
            "repro_events_total", "Emitted trace events by kind.", ("kind",)
        )
        self.submitted = r.counter(
            "repro_process_submitted_total",
            "Processes submitted to the manager.",
        )
        self.initiated = r.counter(
            "repro_process_initiated_total",
            "Processes past admission with a BOT timestamp drawn.",
        )
        self.outcomes = r.counter(
            "repro_process_outcomes_total",
            "Terminal process outcomes (committed/aborted/cancelled).",
            ("outcome",),
        )
        self.aborts = r.counter(
            "repro_process_aborts_total",
            "Abort executions begun, by cause "
            "(cascade/deadlock/self/intrinsic/subprocess/cancel).",
            ("cause",),
        )
        self.resubmitted = r.counter(
            "repro_process_resubmitted_total",
            "Cascade victims restarted with their original timestamp.",
        )
        self.lock_grants = r.counter(
            "repro_lock_grants_total",
            "Lock grants by request class.",
            ("request",),
        )
        self.lock_defers = r.counter(
            "repro_lock_defers_total",
            "Lock defers by the paper rule that fired.",
            ("rule",),
        )
        self.self_aborts = r.counter(
            "repro_lock_self_aborts_total",
            "Requester-abort decisions (baseline protocols), by rule.",
            ("rule",),
        )
        self.cascades = r.counter(
            "repro_lock_cascades_total",
            "Cascade requests issued by timestamp order.",
        )
        self.cascade_victims = r.counter(
            "repro_cascade_victims_total",
            "Holders sacrificed across all cascade requests.",
        )
        self.conversions = r.counter(
            "repro_lock_conversions_total",
            "Comp-to-Piv lock conversions.",
        )
        self.classified = r.counter(
            "repro_wcc_classified_total",
            "Figure-1 treatment decisions by granted mode.",
            ("mode",),
        )
        self.activities = r.counter(
            "repro_activities_total",
            "Activity executions by outcome "
            "(started/committed/failed/cancelled/compensated).",
            ("outcome",),
        )
        self.worker_dispatch = r.counter(
            "repro_worker_dispatch_total",
            "Activity starts by shard worker (label 'none' when "
            "sequential).",
            ("worker",),
        )
        self.retries = r.counter(
            "repro_activity_retries_total",
            "Activity retry attempts.",
        )
        self.compensations = r.counter(
            "repro_compensations_total",
            "Compensation activities committed during aborts.",
        )
        self.parks = r.counter(
            "repro_parks_total",
            "Parked (deferred) requests by lock shard.",
            ("shard",),
        )
        self.deadlock_victims = r.counter(
            "repro_deadlock_victims_total",
            "Processes aborted to break a wait-for cycle.",
        )
        self.deadlock_forced = r.counter(
            "repro_deadlock_forced_total",
            "Forced progress through unresolvable cycles (baselines).",
        )
        self.faults = r.counter(
            "repro_faults_total",
            "Fault-injector actions by channel.",
            ("channel",),
        )
        self.breaker_transitions = r.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state changes by subsystem and new state.",
            ("subsystem", "to_state"),
        )
        self.breaker_state = r.gauge(
            "repro_breaker_state",
            "Circuit-breaker state (0=closed, 1=half-open, 2=open).",
            ("subsystem",),
        )
        self.admission = r.counter(
            "repro_admission_total",
            "Admission-gate decisions (defer/readmit/force-admit).",
            ("op",),
        )
        self.backpressure = r.counter(
            "repro_backpressure_total",
            "Shard-queue backpressure decisions (defer/force-admit).",
            ("op",),
        )
        self.retry_budget = r.counter(
            "repro_retry_budget_exhausted_total",
            "Retry budgets exhausted, by subsystem.",
            ("subsystem",),
        )
        self.degraded = r.gauge(
            "repro_degraded",
            "1 while the adaptive Wcc* degradation cap is engaged.",
        )
        self.wcc_cap = r.gauge(
            "repro_wcc_cap",
            "Last Wcc* cap applied by the degradation controller.",
        )
        self.parked_gauge = r.gauge(
            "repro_parked", "Requests currently parked."
        )
        self.inflight_gauge = r.gauge(
            "repro_inflight", "Activities currently executing."
        )
        self.live_gauge = r.gauge(
            "repro_live_processes", "Processes currently live."
        )
        self.locks_gauge = r.gauge(
            "repro_locks_total", "Lock entries currently on the table."
        )
        self.locks_by_shard = r.gauge(
            "repro_locks_held",
            "Lock entries currently held, by shard.",
            ("shard",),
        )
        self.queue_depth = r.gauge(
            "repro_shard_queue_depth",
            "Open work (in-flight + parked) per lock shard.",
            ("shard",),
        )
        self.lock_wait = r.histogram(
            "repro_lock_wait_vt",
            "Virtual time from first defer to grant, by request class.",
            ("request",),
            buckets=VT_WAIT_BUCKETS,
        )
        self.park_duration = r.histogram(
            "repro_park_duration_vt",
            "Virtual time a parked request spent blocked, by shard.",
            ("shard",),
            buckets=VT_WAIT_BUCKETS,
        )
        self.retries_per_activity = r.histogram(
            "repro_retries_per_activity",
            "Retry attempts per completed activity execution.",
            buckets=RETRY_BUCKETS,
        )
        self.submit_to_commit = r.histogram(
            "repro_submit_to_commit_seconds",
            "Wall-clock submit-to-terminal latency (service only).",
            ("outcome",),
            buckets=LATENCY_BUCKETS,
        )
        # Pairing state for derived observations.
        self._defer_since: dict[tuple, float] = {}
        self._park_since: dict[int, tuple[float, str]] = {}
        self._retry_counts: dict[int, int] = {}
        self._cancelling: set[int] = set()
        self._handlers: dict[str, Callable[[float, object], None]] = {
            "process.submit": self._on_submit,
            "process.init": self._on_init,
            "process.commit": self._on_commit,
            "process.abort-begin": self._on_abort_begin,
            "process.abort": self._on_abort,
            "process.cancel": self._on_cancel,
            "process.resubmit": self._on_resubmit,
            "lock.grant": self._on_grant,
            "lock.defer": self._on_defer,
            "lock.cascade": self._on_cascade,
            "lock.self-abort": self._on_self_abort,
            "lock.convert": self._on_convert,
            "wcc.classify": self._on_classify,
            "activity.start": self._on_activity_start,
            "activity.retry": self._on_activity_retry,
            "activity.commit": self._on_activity_commit,
            "activity.fail": self._on_activity_fail,
            "activity.cancel": self._on_activity_cancel,
            "wait.edge": self._on_wait_edge,
            "deadlock.victim": self._on_deadlock_victim,
            "deadlock.forced": self._on_deadlock_forced,
            "fault.inject": self._on_fault,
            "resilience.breaker": self._on_breaker,
            "resilience.admission": self._on_admission,
            "resilience.backpressure": self._on_backpressure,
            "resilience.degrade": self._on_degrade,
            "retry.budget_exhausted": self._on_retry_budget,
        }

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def observe(self, t: float, event) -> None:
        kind = event.kind
        self.events.inc((kind,))
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(t, event)

    def sample_gauges(self, samples: dict[str, float]) -> None:
        """Consume one sampler poll (the dict a Tracer's gauges get)."""
        for name, value in samples.items():
            slot = self._gauge_slot(name)
            if slot is not None:
                gauge, labels = slot
                gauge.set(value, labels)

    def _gauge_slot(self, name: str) -> tuple[Gauge, tuple] | None:
        """The gauge child one sampler key feeds (``None``: ignored)."""
        if name == "parked":
            return self.parked_gauge, ()
        if name == "inflight":
            return self.inflight_gauge, ()
        if name == "live":
            return self.live_gauge, ()
        if name == "locks":
            return self.locks_gauge, ()
        if name.startswith("locks."):
            return self.locks_by_shard, (name[6:],)
        if name.startswith("queue."):
            return self.queue_depth, (name[6:],)
        return None

    def observe_latency(self, seconds: float, outcome: str) -> None:
        """Service hook: one wall-clock submit-to-terminal sample."""
        self.submit_to_commit.observe(seconds, (outcome,))

    # ------------------------------------------------------------------
    # per-kind handlers
    # ------------------------------------------------------------------
    def _on_submit(self, t, event) -> None:
        self.submitted.inc()

    def _on_init(self, t, event) -> None:
        self.initiated.inc()

    def _on_commit(self, t, event) -> None:
        self.outcomes.inc(("committed",))

    def _on_abort_begin(self, t, event) -> None:
        self.aborts.inc((event.cause,))

    def _on_abort(self, t, event) -> None:
        if event.resubmit:
            return
        if event.pid in self._cancelling:
            self._cancelling.discard(event.pid)
            return
        self.outcomes.inc(("aborted",))

    def _on_cancel(self, t, event) -> None:
        self.outcomes.inc(("cancelled",))
        if event.initiated:
            self._cancelling.add(event.pid)

    def _on_resubmit(self, t, event) -> None:
        self.resubmitted.inc()

    def _on_grant(self, t, event) -> None:
        self.lock_grants.inc((event.request,))
        key = (event.pid, event.uid, event.request)
        since = self._defer_since.pop(key, None)
        if since is not None:
            self.lock_wait.observe(t - since, (event.request,))

    def _on_defer(self, t, event) -> None:
        self.lock_defers.inc((event.rule,))
        self._defer_since.setdefault(
            (event.pid, event.uid, event.request), t
        )

    def _on_cascade(self, t, event) -> None:
        self.cascades.inc()
        self.cascade_victims.inc(amount=len(event.victims))

    def _on_self_abort(self, t, event) -> None:
        self.self_aborts.inc((event.rule,))

    def _on_convert(self, t, event) -> None:
        self.conversions.inc()

    def _on_classify(self, t, event) -> None:
        self.classified.inc((event.mode,))

    def _on_activity_start(self, t, event) -> None:
        self.activities.inc(("started",))
        worker = event.worker
        self.worker_dispatch.inc(
            ("none" if worker is None else str(worker),)
        )

    def _on_activity_retry(self, t, event) -> None:
        self.retries.inc()
        self._retry_counts[event.uid] = (
            self._retry_counts.get(event.uid, 0) + 1
        )

    def _on_activity_commit(self, t, event) -> None:
        if event.compensation:
            self.compensations.inc()
            self.activities.inc(("compensated",))
        else:
            self.activities.inc(("committed",))
        self.retries_per_activity.observe(
            self._retry_counts.pop(event.uid, 0)
        )

    def _on_activity_fail(self, t, event) -> None:
        self.activities.inc(("failed",))

    def _on_activity_cancel(self, t, event) -> None:
        self.activities.inc(("cancelled",))
        self.retries_per_activity.observe(
            self._retry_counts.pop(event.uid, 0)
        )

    def _on_wait_edge(self, t, event) -> None:
        shard = event.shard if event.shard is not None else "none"
        if event.op == "insert":
            self.parks.inc((shard,))
            self._park_since[event.seq] = (t, shard)
        else:
            since = self._park_since.pop(event.seq, None)
            if since is not None:
                self.park_duration.observe(t - since[0], (since[1],))

    def _on_deadlock_victim(self, t, event) -> None:
        self.deadlock_victims.inc()

    def _on_deadlock_forced(self, t, event) -> None:
        self.deadlock_forced.inc()

    def _on_fault(self, t, event) -> None:
        self.faults.inc((event.channel,))

    def _on_breaker(self, t, event) -> None:
        self.breaker_transitions.inc(
            (event.subsystem, event.to_state)
        )
        self.breaker_state.set(
            BREAKER_STATE_VALUES.get(event.to_state, -1.0),
            (event.subsystem,),
        )

    def _on_admission(self, t, event) -> None:
        self.admission.inc((event.op,))

    def _on_backpressure(self, t, event) -> None:
        self.backpressure.inc((event.op,))

    def _on_degrade(self, t, event) -> None:
        self.degraded.set(1.0 if event.active else 0.0)
        if event.active:
            self.wcc_cap.set(event.cap)

    def _on_retry_budget(self, t, event) -> None:
        subsystem = (
            event.subsystem if event.subsystem is not None else "none"
        )
        self.retry_budget.inc((subsystem,))


# ----------------------------------------------------------------------
# tee tracer
# ----------------------------------------------------------------------
class MetricsTracer:
    """Enabled tracer that feeds metrics and forwards to sink tracers.

    Sinks stamp events exactly as they would standalone (each keeps its
    own sequence counter, clock and sampler binding), so wrapping a
    :class:`~repro.obs.tracer.Tracer` in a tee leaves its records and
    series byte-identical.  The fault injector's crash-offset bump
    propagates to every sink through the :attr:`offset` property.
    Gauges reach the registry only through :meth:`poll_gauges`.
    """

    enabled = True

    def __init__(
        self,
        metrics: EventMetrics | None = None,
        sinks: Sequence = (),
        recorder=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else EventMetrics()
        self.sinks = tuple(sinks)
        self.recorder = recorder
        self._offset = 0.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._sampler: Callable[[], dict[str, float]] | None = None
        self._seq = itertools.count()

    @property
    def offset(self) -> float:
        return self._offset

    @offset.setter
    def offset(self, value: float) -> None:
        self._offset = value
        for sink in self.sinks:
            sink.offset = value

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        for sink in self.sinks:
            sink.bind_clock(clock)

    def bind_sampler(
        self, sampler: Callable[[], dict[str, float]] | None
    ) -> None:
        """Keep the sampler for :meth:`poll_gauges`; sinks get it raw.

        The tee itself never polls on emit.  A sink that polls per emit
        (a recording :class:`~repro.obs.tracer.Tracer`) therefore does
        so exactly as it would standalone, and its series stay
        byte-identical.
        """
        self._sampler = sampler
        for sink in self.sinks:
            sink.bind_sampler(sampler)

    def poll_gauges(self) -> None:
        """Fold one sampler poll into the registry's gauges.

        The owner decides the cadence: the service polls once per
        engine batch, so gauges read as of the end of the last batch.
        """
        if self._sampler is not None:
            self.metrics.sample_gauges(self._sampler())

    @property
    def now(self) -> float:
        return self._clock() + self._offset

    def emit(self, event) -> None:
        t = self._clock() + self._offset
        self.metrics.observe(t, event)
        recorder = self.recorder
        if recorder is not None:
            recorder.append(next(self._seq), t, event)
        for sink in self.sinks:
            sink.emit(event)


def replay_metrics(records: Iterable[dict]) -> EventMetrics:
    """Rebuild an :class:`EventMetrics` from exported JSONL records.

    The registry produced here matches the one a live
    :class:`MetricsTracer` built from the same stream (sampler-polled
    gauges excepted — records carry no gauge samples, so those replay
    from the gauge series only if present, i.e. not at all).
    """
    from repro.obs.export import record_to_event

    metrics = EventMetrics()
    for record in records:
        event = record_to_event(record)
        metrics.observe(record["t"], event)
    return metrics
