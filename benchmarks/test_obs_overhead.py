"""Observability overhead guard.

The tracer's contract (see ``src/repro/obs/tracer.py``) has two halves:

* **disabled** (the default ``NULL_TRACER``) — every emit site is one
  attribute read; the schedule is byte-identical to an uninstrumented
  run, so the perf trajectory in ``BENCH_scaling.json`` is unaffected;
* **enabled** — full decision-level tracing costs a bounded constant
  factor, small enough to leave on whenever a run needs explaining.

This file pins both: byte-identity at benchmark scale, and an
enabled-overhead factor recorded to ``BENCH_obs_overhead.json`` and
asserted under a generous ceiling (regressions like unguarded event
construction or quadratic series upkeep blow well past it).

The metrics plane adds a third point: a
:class:`~repro.obs.MetricsTracer` tee (registry feeder + flight
recorder) wrapped around the same recording tracer.  Its marginal cost
over plain tracing is pinned at a much tighter factor — the feeder
reads event attributes directly and the flight recorder appends
without flattening, so anything quadratic or allocation-happy on that
path (say, an ``asdict`` per emit) blows the bound immediately.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.faults.harness import canonical_trace
from repro.obs import FlightRecorder, MetricsTracer, Tracer
from repro.scheduler.manager import ManagerConfig
from repro.sim.runner import run_workload
from repro.sim.workload import WorkloadSpec, build_workload

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"
)

#: Benchmark point: contended enough that tracing has real work to do
#: (defers, cascades, wait edges), big enough for stable timing.
SPEC = WorkloadSpec(
    n_processes=80,
    n_activity_types=24,
    n_subsystems=3,
    conflict_density=0.3,
    arrival_spacing=0.5,
    failure_probability=0.02,
    seed=7,
)

#: Enabled tracing may cost at most this factor over the untraced run.
#: Measured factors sit around 3–3.4× (event construction plus the
#: recording tracer's series bank, which polls the gauge sampler on
#: every emit); the ceiling leaves headroom for CI-runner noise while
#: still catching structural regressions.
MAX_ENABLED_FACTOR = 4.0

#: The metrics tee (registry feeder + flight ring) may cost at most
#: this factor over the plain recording tracer it wraps.  The tee polls
#: no gauges on emit (its sink polls exactly as it does standalone), so
#: its cost is the feeder and the ring append alone.
MAX_METRICS_FACTOR = 1.5

CONFIG = dict(max_resubmissions=100_000)


def _timed(tracer=None):
    config = ManagerConfig(**CONFIG)
    workload = build_workload(SPEC)
    start = time.perf_counter()
    result = run_workload(
        workload, "process-locking", seed=SPEC.seed,
        config=config, tracer=tracer,
    )
    return result, time.perf_counter() - start


def _timed_min2(uid_floor, make_tracer):
    """Min-of-2 walls, same policy as ``test_perf_scaling``.

    The pinned factors have only a few percent of headroom, so a single
    cold wall on either side flips the ratio spuriously.  Each run
    repins the uid floor (keeping all runs byte-comparable) and gets a
    fresh tracer from ``make_tracer``; the first run's result and
    tracer are the ones the identity assertions use.
    """
    first_result = first_tracer = None
    walls = []
    for attempt in range(2):
        uid_floor.repin()
        tracer = make_tracer()
        result, wall = _timed(tracer)
        walls.append(wall)
        if attempt == 0:
            first_result, first_tracer = result, tracer
    return first_result, first_tracer, min(walls)


def test_disabled_tracing_is_invisible_and_enabled_is_bounded(
    uid_floor,
):
    # Warm-up run so neither measured run pays first-import costs.
    uid_floor.pin()
    _timed()

    plain, _, wall_plain = _timed_min2(uid_floor, lambda: None)
    traced, tracer, wall_traced = _timed_min2(uid_floor, Tracer)
    metered, metrics_tracer, wall_metrics = _timed_min2(
        uid_floor,
        lambda: MetricsTracer(
            sinks=(Tracer(),), recorder=FlightRecorder(512)
        ),
    )
    metrics_sink = metrics_tracer.sinks[0]

    # Disabled-path contract: the traced run *scheduled* identically —
    # tracing observed the run without participating in it.
    assert canonical_trace(plain.trace.events) == canonical_trace(
        traced.trace.events
    )
    assert plain.stats.committed == traced.stats.committed
    assert plain.makespan == traced.makespan
    assert len(tracer) > 0

    # The metrics tee is as invisible to the schedule as the tracer it
    # wraps, and its sink recorded exactly what the plain tracer did.
    assert canonical_trace(plain.trace.events) == canonical_trace(
        metered.trace.events
    )
    assert json.dumps(tracer.records()) == json.dumps(
        metrics_sink.records()
    )
    assert (
        metrics_tracer.metrics.outcomes.value(("committed",))
        == plain.stats.committed
    )

    factor = wall_traced / wall_plain
    metrics_factor = wall_metrics / wall_traced
    BENCH_PATH.write_text(
        json.dumps(
            {
                "description": (
                    "full decision-level tracing vs the untraced "
                    "default on one contended workload; schedules "
                    "asserted byte-identical; third point adds the "
                    "metrics tee (registry feeder + flight ring) "
                    "around the same tracer; all walls min-of-2"
                ),
                "n_processes": SPEC.n_processes,
                "events_traced": len(tracer),
                "wall_s_untraced": round(wall_plain, 3),
                "wall_s_traced": round(wall_traced, 3),
                "wall_s_metrics": round(wall_metrics, 3),
                "enabled_overhead_factor": round(factor, 2),
                "metrics_over_traced_factor": round(metrics_factor, 2),
                "max_allowed_factor": MAX_ENABLED_FACTOR,
                "max_metrics_factor": MAX_METRICS_FACTOR,
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\ntracing overhead: {factor:.2f}x "
        f"({len(tracer)} events, {wall_plain:.3f}s -> "
        f"{wall_traced:.3f}s); metrics tee: {metrics_factor:.2f}x "
        f"over tracing ({wall_metrics:.3f}s)"
    )
    assert factor < MAX_ENABLED_FACTOR, (
        f"enabled tracing costs {factor:.2f}x "
        f"(limit {MAX_ENABLED_FACTOR}x)"
    )
    assert metrics_factor < MAX_METRICS_FACTOR, (
        f"metrics tee costs {metrics_factor:.2f}x over plain tracing "
        f"(limit {MAX_METRICS_FACTOR}x)"
    )
