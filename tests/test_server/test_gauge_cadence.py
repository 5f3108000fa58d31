"""Gauges are polled once per engine batch, not once per emit.

The service folds one sampler poll into the registry at the end of
every batch (and once after construction or recovery), so ``/metrics``
and the ``metrics`` verb read the sampler-fed gauges as of the end of
the last batch.  The tests pin three consequences:

* on a scripted ``submit wait=true`` session the exposition (wall-clock
  ``*_seconds`` families aside) equals what per-emit polling produced;
* the gauges read the manager's true values at every batch end, also
  with processes still in flight;
* a service restarted on a durable store exposes its gauges before the
  first batch runs.
"""

from __future__ import annotations

from concurrent.futures import Future

from repro.client import ServiceClient
from repro.obs.metrics import parse_prometheus
from repro.server.net import start_server_thread
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(n_processes=6, conflict_density=0.5, seed=5)

#: Sampler key -> (gauge family, label tuple).
_SAMPLED = {
    "parked": ("repro_parked", ()),
    "inflight": ("repro_inflight", ()),
    "live": ("repro_live_processes", ()),
    "locks": ("repro_locks_total", ()),
}


def _without_wall_clock(text: str) -> str:
    kept = []
    for line in text.splitlines():
        name = line.split()[2] if line.startswith("#") else (
            line.split("{")[0].split()[0]
        )
        if "_seconds" not in name:
            kept.append(line)
    return "\n".join(kept)


def _scripted_session(per_emit: bool) -> str:
    handle = start_server_thread(ServiceConfig(spec=SPEC, seed=5))
    try:
        if per_emit:
            # The previous cadence: one poll after every emit, none
            # per batch.
            tee = handle.service.tracer
            poll, emit = tee.poll_gauges, tee.emit
            tee.poll_gauges = lambda: None

            def emit_then_poll(event) -> None:
                emit(event)
                poll()

            tee.emit = emit_then_poll
        with ServiceClient(handle.host, handle.port, timeout=30) as c:
            c.submit(count=4, wait=True)
            c.submit(program=2, count=3, wait=True)
            c.stats()
        with ServiceClient(handle.host, handle.port, timeout=30) as c:
            pids = c.submit(program=5, count=5, wait=True)["pids"]
            c.cancel(pids[0])
            c.submit(program=1, count=2, wait=True)
        return _without_wall_clock(handle.service.render_metrics())
    finally:
        handle.stop()


def test_exposition_matches_per_emit_polling(uid_floor):
    uid_floor.pin()
    per_emit = _scripted_session(per_emit=True)
    uid_floor.repin()
    per_batch = _scripted_session(per_emit=False)
    assert "repro_live_processes 0" in per_batch
    assert 'repro_shard_queue_depth{shard="' in per_batch
    assert per_batch == per_emit


def _gauges(service: ProcessLockingService) -> dict[tuple, float]:
    scrape = parse_prometheus(service.render_metrics())
    return {
        key: value
        for family in scrape.values()
        for key, value in family["samples"].items()
    }


def _expected(sample: dict[str, float]) -> dict[tuple, float]:
    expected = {}
    for name, value in sample.items():
        if name in _SAMPLED:
            family, labels = _SAMPLED[name]
        elif name.startswith("locks."):
            family, labels = "repro_locks_held", (("shard", name[6:]),)
        else:
            assert name.startswith("queue.")
            family = "repro_shard_queue_depth"
            labels = (("shard", name[6:]),)
        expected[(family, frozenset(labels))] = value
    return expected


def _assert_true_gauges(service: ProcessLockingService) -> None:
    gauges = _gauges(service)
    for key, value in _expected(service.manager._gauge_sample()).items():
        assert gauges[key] == value, key


def _batch(service: ProcessLockingService, deadline: float, *requests):
    """One engine batch, run by hand: apply, advance, post-drain."""
    futures = []
    for request in requests:
        fut: Future = Future()
        service._apply(request, fut)
        futures.append(fut)
    service.manager.engine.run_due(deadline)
    service._post_drain()
    return [fut.result(timeout=0) for fut in futures if fut.done()]


def test_gauges_read_true_values_at_every_batch_end():
    service = ProcessLockingService(ServiceConfig(spec=SPEC, seed=5))
    _assert_true_gauges(service)
    _batch(service, 0.0, {"cmd": "submit", "count": 6})
    live_seen = 0.0
    deadline = 0.0
    while service.manager._processes or service.manager._pending_init:
        deadline += 0.5
        _batch(service, deadline)
        _assert_true_gauges(service)
        live_seen = max(
            live_seen, service.manager._gauge_sample()["live"]
        )
    assert live_seen > 0  # mid-flight batch ends were checked too
    assert _gauges(service)[("repro_live_processes", frozenset())] == 0


def test_restarted_durable_service_exposes_gauges_before_first_batch(
    tmp_path,
):
    def config() -> ServiceConfig:
        return ServiceConfig(
            spec=WorkloadSpec(
                n_processes=6, conflict_density=0.4, grounded=True,
                seed=5,
            ),
            seed=5,
            store="log",
            store_path=str(tmp_path / "store"),
            store_fsync="never",
            snapshot_every=4,
        )

    first = ProcessLockingService(config())
    _batch(first, 0.0, {"cmd": "submit", "count": 6})
    _batch(first, 2.0)
    assert first.manager._processes  # abandoned mid-flight
    second = ProcessLockingService(config())
    try:
        assert second.recovery is not None
        _assert_true_gauges(second)
        assert ("repro_live_processes", frozenset()) in _gauges(second)
    finally:
        first.store.close()
        second.store.close()
