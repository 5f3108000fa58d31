"""Span recording around the program's layer entry points.

The launcher (:mod:`launcher`) patches :func:`install` into a server or
sim process before the program builds anything, so every instance sees
the wrapped methods.  Spans live in memory, one list per thread, and are
written out once (:meth:`Recorder.dump`) after the measured work: by the
server when the benchmark sends ``stats`` after its last acknowledgement,
by the sim worker when its workloads are done.  :func:`summarize` turns
a dump into the per-layer metrics.  Nothing here imports the
program at module level: the benchmark's client process imports this
file only for :func:`summarize`.

A span is ``[name_id, start_ns, end_ns, parent_index, rid]``.  The
parent is the enclosing span on the same thread (``-1`` at top level);
``rid`` is the request identity the span carries: the wire ``id`` on
net and service spans, the pid on ``scheduler.submit`` (whose parent
``service.apply`` carries the wire id, so a wire id maps to its pid)
and on the core lock requests.
"""

from __future__ import annotations

import json
import threading
import time

_now = time.perf_counter_ns


class Recorder:
    """Per-thread span lists plus plain counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``"<thread name>/<ident>"`` -> that thread's span list.
        self.threads: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            thread = threading.current_thread()
            spans: list = []
            self.threads[f"{thread.name}/{thread.ident}"] = spans
            state = self._local.state = (spans, [])
        return state

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, rid_in=None, rid_out=None):
        """``fn`` recorded as span ``name``.

        ``rid_in(args)`` reads the request identity from the arguments,
        ``rid_out(result)`` from the return value.
        """
        nid = self.name_id(name)
        state = self._state

        def wrapper(*args, **kwargs):
            spans, stack = state()
            span = [
                nid,
                _now(),
                0,
                stack[-1] if stack else -1,
                rid_in(args) if rid_in is not None else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if rid_out is not None:
                span[4] = rid_out(result)
            return result

        return wrapper

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "names": self.names,
                    "threads": self.threads,
                    "counters": {**self.counters, **(extra or {})},
                },
                out,
                separators=(",", ":"),
            )


def _frame_id(frame):
    return frame.get("id") if isinstance(frame, dict) else None


def _request_id(args):
    return _frame_id(args[1])


def _pid_of_process(args):
    return args[1].pid


def install(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer (names follow
    ``src/repro`` modules; ``docs`` in README.md)."""
    from repro.core.protocol import ProcessLockManager
    from repro.obs.metrics import MetricsTracer
    from repro.scheduler.engine import SimulationEngine
    from repro.scheduler.manager import ProcessManager
    from repro.server import net
    from repro.server.bridge import BusTracer
    from repro.server.bus import EventBus
    from repro.server.service import ProcessLockingService
    from repro.storage.backend import AppendLogBackend
    from repro.storage.plane import PersistencePlane
    from repro.subsystems.subsystem import TransactionalSubsystem

    wrap = recorder.wrap
    # net imported these names into its own namespace.
    net.decode_line = wrap("net.decode", net.decode_line, rid_out=_frame_id)
    net.encode = wrap(
        "net.encode", net.encode, rid_in=lambda a: _frame_id(a[0])
    )

    service = ProcessLockingService
    service.execute = wrap("service.execute", service.execute, _request_id)
    service._apply = wrap("service.apply", service._apply, _request_id)
    service._post_drain = wrap("service.post", service._post_drain)
    next_batch = wrap("service.wait", service._next_batch)

    def counted_batch(self):
        batch = next_batch(self)
        if batch:
            recorder.count("service.batches")
            recorder.count("service.batched_requests", len(batch))
        return batch

    service._next_batch = counted_batch

    engine_run = wrap("engine.run", SimulationEngine.run)

    def counted_run(self, *args, **kwargs):
        before = self.events_processed
        try:
            return engine_run(self, *args, **kwargs)
        finally:
            recorder.count(
                "scheduler.events", self.events_processed - before
            )

    SimulationEngine.run = counted_run
    ProcessManager.submit = wrap(
        "scheduler.submit", ProcessManager.submit, rid_out=lambda pid: pid
    )

    locks = ProcessLockManager
    locks.request_activity_lock = wrap(
        "core.activity_lock", locks.request_activity_lock, _pid_of_process
    )
    locks.request_compensation_lock = wrap(
        "core.compensation_lock",
        locks.request_compensation_lock,
        _pid_of_process,
    )
    locks.try_commit = wrap("core.commit", locks.try_commit, _pid_of_process)

    MetricsTracer.emit = wrap("obs.emit", MetricsTracer.emit)
    BusTracer.emit = wrap("obs.bus", BusTracer.emit)
    EventBus.publish = wrap("obs.publish", EventBus.publish)

    AppendLogBackend.append = wrap("storage.append", AppendLogBackend.append)
    AppendLogBackend.flush = wrap("storage.flush", AppendLogBackend.flush)
    PersistencePlane.snapshot = wrap(
        "storage.snapshot", PersistencePlane.snapshot
    )
    PersistencePlane.recover = wrap(
        "storage.recover", PersistencePlane.recover
    )
    TransactionalSubsystem.execute_activity = wrap(
        "subsystems.txn", TransactionalSubsystem.execute_activity
    )


# ----------------------------------------------------------------------
# analysis (benchmark client side)
# ----------------------------------------------------------------------
#: The lock-manager entry points counted as ``core.requests``.
_CORE = ("core.activity_lock", "core.compensation_lock", "core.commit")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(dump: dict, processes: int) -> dict[str, float]:
    """Per-layer totals of one span dump.

    ``processes`` is the number of processes the traced work brought to
    an outcome (the ``obs.emits_per_proc`` denominator).
    """
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counters = dump["counters"]
    names = dump["names"]
    execute_start: dict = {}
    submit_start: dict = {}
    engine_window = 0.0
    engine_top = 0.0
    for spans in dump["threads"].values():
        # Spans still open at dump time (the request that triggered the
        # dump, say) have no end and are left out.
        child = [0] * len(spans)
        for nid, start, end, parent, rid in spans:
            if parent >= 0 and end:
                child[parent] += end - start
        is_engine = False
        top = 0
        for index, (nid, start, end, parent, rid) in enumerate(spans):
            if not end:
                continue
            name = names[nid]
            duration = end - start
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = (
                self_time.get(name, 0.0) + duration - child[index]
            )
            if parent < 0:
                top += duration
            if name == "engine.run":
                is_engine = True
            elif name == "service.execute":
                execute_start[rid] = start
            elif name == "scheduler.submit" and parent >= 0:
                # Parent is the service.apply span of the wire request
                # that submitted this pid.
                submit_start[spans[parent][4]] = start
        if is_engine and spans:
            # The sim worker times its own run_workload calls; a
            # server's engine thread lives from its first span on.
            window = counters.get("engine_window_ns") or (
                max(s[2] for s in spans) - spans[0][1]
            )
            engine_window += window
            engine_top += top
    ns = 1e-9

    def secs(table, *keys):
        return sum(table.get(k, 0.0) for k in keys) * ns

    waits = [
        (submit_start[rid] - execute_start[rid]) * 1e-6
        for rid in submit_start
        if rid in execute_start
    ]
    batches = counters.get("service.batches", 0)
    grants = sum(
        counters.get(k, 0) for k in ("c_grants", "p_grants", "conversions")
    )
    asked = grants + counters.get("defers", 0)
    attempts = counters.get("submitted", 0) + counters.get("resubmissions", 0)
    unattributed = max(0.0, engine_window - engine_top) * ns
    emits = count.get("obs.emit", 0)
    return {
        "net.decode_s": secs(self_time, "net.decode"),
        "net.encode_s": secs(self_time, "net.encode"),
        "net.frames_in": count.get("net.decode", 0),
        "net.frames_out": count.get("net.encode", 0),
        "service.queue_wait_p50_ms": quantile(waits, 0.50),
        "service.queue_wait_p99_ms": quantile(waits, 0.99),
        "service.batches": batches,
        "service.batch_size": (
            counters.get("service.batched_requests", 0) / batches
            if batches
            else 0.0
        ),
        "service.drain_s": (
            secs(total, "engine.run") if "service.apply" in count else 0.0
        ),
        "scheduler.submit_s": secs(self_time, "scheduler.submit"),
        "scheduler.self_s": secs(self_time, "engine.run", "scheduler.submit"),
        "scheduler.events": counters.get("scheduler.events", 0),
        "scheduler.resubmissions": counters.get("resubmissions", 0),
        "scheduler.compensations": counters.get("compensations", 0),
        "scheduler.commit_ratio": (
            counters.get("committed", 0) / attempts if attempts else 0.0
        ),
        "core.requests": sum(count.get(k, 0) for k in _CORE),
        "core.self_s": secs(self_time, *_CORE),
        "core.lock_ops": counters.get("lock_ops", 0),
        "core.grant_ratio": grants / asked if asked else 0.0,
        "core.defers": counters.get("defers", 0),
        "core.deadlock_victims": counters.get("deadlock_victims", 0),
        "obs.emits": emits,
        "obs.emits_per_proc": emits / processes if processes else 0.0,
        "obs.emit_s": secs(self_time, "obs.emit"),
        "obs.bus_s": secs(self_time, "obs.bus", "obs.publish"),
        "bus.delivered": counters.get("bus_delivered", 0),
        "storage.appends": count.get("storage.append", 0),
        "storage.append_s": secs(self_time, "storage.append"),
        "storage.flushes": count.get("storage.flush", 0),
        "storage.flush_s": secs(self_time, "storage.flush"),
        "storage.fsyncs": counters.get("store_fsyncs", 0),
        "storage.snapshots": count.get("storage.snapshot", 0),
        "storage.snapshot_s": secs(total, "storage.snapshot"),
        "storage.bytes_written": counters.get("store_bytes", 0),
        "storage.recover_s": secs(total, "storage.recover"),
        "subsystems.txns": count.get("subsystems.txn", 0),
        "subsystems.txn_s": secs(self_time, "subsystems.txn"),
        "engine.unattributed_s": unattributed,
        "engine.unattributed_frac": (
            unattributed / (engine_window * ns) if engine_window else 0.0
        ),
    }
