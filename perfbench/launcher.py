"""Program-side entry of the benchmark: one server or one sim worker.

``run.py`` starts this file as a subprocess with ``src`` on
``PYTHONPATH``.  With ``--trace`` it patches the span wrappers of
:mod:`tracing` into the program before anything is built.

``serve``
    Builds a :class:`ServiceConfig` for the named catalog, serves on an
    ephemeral port and prints ``READY <port> <recover_ns>`` once bound
    (``recover_ns`` is the traced ``PersistencePlane.recover`` time, 0
    untraced).  With ``--spans`` the span dump is written by the first
    ``stats`` verb, which the benchmark sends after the last
    acknowledgement of its load (``serve_durable`` is then killed, so
    there is no drain to hook).

``sim``
    Builds the ``sim_contended`` workloads, prints ``READY``, waits for
    a line on stdin, runs them one after another and prints one JSON
    result line.  With ``--oracles`` it then checks P-RED (CT, sampled
    prefixes) and P-RC on the first workload's schedule.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import replace

from tracing import Recorder, install

#: Catalog of the served workloads: 16 programs, declared conflicts at
#: density 0.3 (``serve_mem``) or conflicts derived from grounded
#: read/write sets (``serve_durable``).  Fixed, so that the benchmark
#: seed varies the request stream, not the world it runs against.
CATALOG = dict(n_processes=16, conflict_density=0.3, seed=7)

#: ``sim_contended`` shape: the tight point of the contention sweep in
#: ``benchmarks/test_perf_scaling.py`` (6 subsystems, density 0.5,
#: arrival spacing 0.25).
SIM_SHAPE = dict(
    n_activity_types=36,
    n_subsystems=6,
    conflict_density=0.5,
    arrival_spacing=0.25,
    failure_probability=0.02,
)

#: Prefix stride of the sampled P-RED check on the verified schedule.
PRED_STRIDE = 64


def _serve(args, recorder) -> None:
    from repro.server.net import serve
    from repro.server.service import ProcessLockingService, ServiceConfig
    from repro.sim.workload import WorkloadSpec

    spec = WorkloadSpec(grounded=args.catalog == "durable", **CATALOG)
    config = ServiceConfig(spec=spec, seed=args.seed)
    if args.catalog == "durable":
        config = replace(
            config, store="log", store_path=args.store, store_fsync="batch"
        )
    if recorder is not None and args.spans:
        _dump_at_stats(recorder, args.spans)
    service = ProcessLockingService(config)

    def ready(host: str, port: int) -> None:
        recovered = 0
        if recorder is not None:
            recovered = sum(
                s[2] - s[1]
                for spans in recorder.threads.values()
                for s in spans
                if recorder.names[s[0]] == "storage.recover"
            )
        print(f"READY {port} {recovered}", flush=True)

    asyncio.run(serve(service, "127.0.0.1", 0, on_ready=ready))


def _dump_at_stats(recorder, path: str) -> None:
    from repro.server.service import ProcessLockingService
    from repro.sim.metrics import lock_operations

    stats_verb = ProcessLockingService._cmd_stats
    dumped = []

    def stats_and_dump(self, request, fut):
        stats_verb(self, request, fut)
        if dumped:
            return
        dumped.append(path)
        stats = self.manager.stats
        store = self.store.stats() if self.store is not None else {}
        recorder.dump(
            path,
            {
                **_manager_counters(stats, self.manager.protocol.stats),
                "lock_ops": lock_operations(self.manager.protocol.stats),
                "bus_delivered": self.bus.counters.delivered,
                "store_fsyncs": store.get("fsyncs", 0),
                "store_bytes": store.get("bytes_written", 0),
            },
        )

    ProcessLockingService._cmd_stats = stats_and_dump


def _manager_counters(stats, protocol_stats) -> dict:
    return {
        "submitted": stats.submitted,
        "committed": stats.committed,
        "resubmissions": stats.resubmissions,
        "compensations": stats.compensations,
        "deadlock_victims": stats.deadlock_victims,
        "c_grants": protocol_stats.c_grants,
        "p_grants": protocol_stats.p_grants,
        "conversions": protocol_stats.conversions,
        "defers": protocol_stats.defers,
    }


def sim_specs(seed: int, count: int, processes: int) -> list:
    """The ``sim_contended`` inputs of one benchmark seed."""
    from repro.sim.workload import WorkloadSpec

    rng = random.Random(seed)
    return [
        WorkloadSpec(
            n_processes=processes, seed=rng.randrange(2**31), **SIM_SHAPE
        )
        for _ in range(count)
    ]


def _canonical_digest(result) -> str:
    """sha256 of the schedule with uids renumbered by first appearance."""
    renumber: dict[int, int] = {}

    def canon(uid):
        if not uid:
            return uid
        return renumber.setdefault(uid, len(renumber) + 1)

    rows = [
        (
            e.position,
            str(e.process),
            e.kind.value,
            e.name,
            canon(e.uid),
            canon(e.compensates),
        )
        for e in result.trace.events
    ]
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()
    ).hexdigest()


def _sim(args, recorder) -> None:
    from repro.process.instance import Process
    from repro.scheduler.manager import ManagerConfig, ProcessManager
    from repro.sim.metrics import lock_operations
    from repro.sim.runner import run_workload
    from repro.sim.workload import build_workload

    workloads = [
        build_workload(spec)
        for spec in sim_specs(args.seed, args.subs, args.procs)
    ]
    config = ManagerConfig(max_resubmissions=100_000)

    # Wall time from a process's initiation to its terminal outcome.  The
    # end is stamped by ``Process.finish_commit`` / ``finish_abort``,
    # where the outcome is decided: they return before the manager wakes
    # parked waiters, so other processes' work is not counted, and they
    # add no frame to the manager's abort/wake recursion.  An aborted
    # incarnation that is resubmitted is stamped again when its
    # successor ends.
    started: dict[int, float] = {}
    ended: dict[int, float] = {}
    initiate = ProcessManager._initiate
    finish_commit = Process.finish_commit
    finish_abort = Process.finish_abort

    def timed_initiate(self, pid, program):
        started.setdefault(pid, time.perf_counter())
        return initiate(self, pid, program)

    def timed_commit(self):
        finish_commit(self)
        ended[self.pid] = time.perf_counter()

    def timed_abort(self):
        finish_abort(self)
        ended[self.pid] = time.perf_counter()

    ProcessManager._initiate = timed_initiate
    Process.finish_commit = timed_commit
    Process.finish_abort = timed_abort

    print("READY", flush=True)
    sys.stdin.readline()
    report: dict = {"walls": [], "latencies": [], "digests": [], "errors": []}
    totals: dict[str, int] = {}
    first = None
    for workload in workloads:
        started.clear()
        ended.clear()
        start = time.perf_counter()
        try:
            result = run_workload(
                workload,
                "process-locking",
                seed=workload.spec.seed,
                config=config,
            )
        except Exception as exc:  # a run-ending exception is a failure
            result = None
            report["errors"].append(
                f"seed {workload.spec.seed}: {type(exc).__name__}: {exc}"[:300]
            )
        report["walls"].append(time.perf_counter() - start)
        report["latencies"].append(
            [
                ended[pid] - begun
                for pid, begun in started.items()
                if pid in ended
            ]
        )
        if result is None:
            report["digests"].append("")
            continue
        if ended.keys() != started.keys() or len(ended) != len(
            workload.programs
        ):
            report["errors"].append(
                f"seed {workload.spec.seed}: {len(ended)} outcomes "
                f"for {len(workload.programs)} processes"
            )
        report["digests"].append(_canonical_digest(result))
        if workload is workloads[0]:
            first = result
        counters = _manager_counters(result.stats, result.protocol_stats)
        counters["lock_ops"] = lock_operations(result.protocol_stats)
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if args.oracles and first is not None:
        report["oracles"] = _oracles(workloads[0], first)
    if recorder is not None and args.spans:
        recorder.dump(
            args.spans,
            {**totals, "engine_window_ns": int(sum(report["walls"]) * 1e9)},
        )
    print(json.dumps(report), flush=True)


def _oracles(workload, result) -> dict:
    from repro.sim.runner import schedule_of
    from repro.theory.criteria import (
        check_process_recoverability,
        has_correct_termination,
    )

    schedule = schedule_of(workload, result)
    return {
        "events": len(schedule.events),
        "correct_termination": has_correct_termination(
            schedule, stride=PRED_STRIDE
        ),
        "process_recoverable": check_process_recoverability(schedule).ok,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--catalog", choices=("mem", "durable"), required=True)
    serve.add_argument("--store", default=None)
    serve.add_argument("--seed", type=int, required=True)
    serve.add_argument("--trace", action="store_true")
    serve.add_argument("--spans", default=None)
    sim = sub.add_parser("sim")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--subs", type=int, required=True)
    sim.add_argument("--procs", type=int, required=True)
    sim.add_argument("--oracles", action="store_true")
    sim.add_argument("--trace", action="store_true")
    sim.add_argument("--spans", default=None)
    args = parser.parse_args()
    recorder = None
    if args.trace:
        recorder = Recorder()
        install(recorder)
    if args.mode == "serve":
        _serve(args, recorder)
    else:
        _sim(args, recorder)


if __name__ == "__main__":
    main()
