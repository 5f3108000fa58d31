"""Bus frames are built only for a listening subscriber.

:class:`~repro.server.bridge.BusTracer` stamps and counts every event
but flattens one only when a subscription covers its kind.  These tests
pin what that must not change: the publish accounting (``stats`` verb
and ``repro_bus_frames``), the per-event ``seq`` numbering a late
subscriber sees, and the frames a ``process.*`` subscriber receives.
The flight recorder numbers the same emit stream independently, so its
dump is the oracle for the frames.
"""

from __future__ import annotations

import pytest

from repro.client import ServiceClient
from repro.obs.events import EVENT_TYPES
from repro.obs.metrics import parse_prometheus
from repro.server.net import start_server_thread
from repro.server.service import ServiceConfig
from repro.sim.workload import WorkloadSpec


@pytest.fixture()
def server():
    handle = start_server_thread(
        ServiceConfig(
            spec=WorkloadSpec(
                n_processes=6, conflict_density=0.5, seed=5
            ),
            seed=5,
            flight_capacity=100_000,
        )
    )
    yield handle
    handle.stop()


def connect(handle) -> ServiceClient:
    return ServiceClient(handle.host, handle.port, timeout=30)


def _events_emitted(client: ServiceClient) -> int:
    family = next(
        f
        for f in client.metrics()["metrics"]["families"]
        if f["name"] == "repro_events_total"
    )
    return int(sum(s["value"] for s in family["samples"]))


def _collect(client: ServiceClient, count: int) -> list[dict]:
    records: list[dict] = []
    while len(records) < count:
        frame = client.next_event(timeout=5.0)
        assert frame is not None, (
            f"stream dried up at {len(records)}/{count}"
        )
        if frame["event"] in EVENT_TYPES:
            records.append(frame["record"])
    return records


def test_unheard_events_are_still_counted(server):
    with connect(server) as client:
        client.submit(count=4, wait=True)
        client.submit(program=2, count=3, wait=True)
        emitted = _events_emitted(client)
        assert emitted > 0
        bus = client.stats()["bus"]
        assert bus["subscribers"] == 0
        assert bus["published"] == emitted
        assert bus["delivered"] == 0
        assert client.dump()["appended"] == emitted
    scrape = parse_prometheus(server.service.render_metrics())
    samples = scrape["repro_bus_frames"]["samples"]
    key = (
        "repro_bus_frames",
        frozenset({("disposition", "published")}),
    )
    assert samples[key] == emitted


def test_late_subscriber_sees_seq_continue(server):
    with connect(server) as client:
        client.submit(count=3, wait=True)
        before = _events_emitted(client)
        client.subscribe("*")
        client.submit(count=3, wait=True)
        after = _events_emitted(client)
        streamed = _collect(client, after - before)
        # No gap: the first heard frame carries the number of events
        # emitted (unheard) before it, and numbering runs on densely.
        # A wait.edge payload has its own ``seq`` (the park sequence),
        # which overwrites the stamp in every flat record format.
        stamps = [
            (offset, r["seq"])
            for offset, r in enumerate(streamed)
            if r["kind"] != "wait.edge"
        ]
        assert stamps == [
            (offset, before + offset) for offset, _ in stamps
        ]
        assert len(streamed) == after - before
        # The flight ring holds the whole session, oldest first.
        assert streamed == client.dump()["events"][before:]


def test_process_subscriber_gets_exactly_the_process_frames(server):
    with connect(server) as client:
        client.subscribe("process.*")
        client.submit(count=4, wait=True)
        client.submit(program=1, count=2, wait=True)
        dump = client.dump()["events"]
        expected = [r for r in dump if r["kind"].startswith("process.")]
        assert expected
        streamed = _collect(client, len(expected))
        assert streamed == expected
        assert client.next_event(timeout=0.2) is None
        bus = client.stats()["bus"]
        assert bus["published"] == len(dump)
        assert bus["delivered"] == len(expected)
