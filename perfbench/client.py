"""The load generator: one thread, one asyncio loop, JSON lines over TCP.

Speaks the service's wire protocol directly (``docs/service.md``), so
the client process never imports the program it measures.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

#: Seconds a single request may stay unanswered before it counts as a
#: timeout.
REQUEST_TIMEOUT = 60.0


class Conn:
    """One connection: pipelined requests matched to responses by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, asyncio.Future] = {}
        self._reading = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("connection closed")
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                frame = json.loads(line)
                if "event" in frame:  # pushed to a subscriber
                    continue
                fut = self.pending.pop(frame.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except (OSError, ValueError) as exc:
            error = exc
        for fut in self.pending.values():
            if not fut.done():
                fut.set_exception(error)
        self.pending.clear()

    def send(self, frame: dict) -> asyncio.Future:
        if self._reading.done():
            raise ConnectionError("connection closed")
        fut = asyncio.get_running_loop().create_future()
        self.pending[frame["id"]] = fut
        self.writer.write(
            (json.dumps(frame, separators=(",", ":")) + "\n").encode()
        )
        return fut

    async def call(self, frame: dict) -> dict:
        return await asyncio.wait_for(self.send(frame), REQUEST_TIMEOUT)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self._reading.cancel()
        try:
            await self._reading
        except asyncio.CancelledError:
            pass


@dataclass
class Tally:
    """What one batch of requests produced."""

    attempted: int = 0
    #: Error frames, timeouts and dropped connections, with a reason.
    failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    #: ``perf_counter`` at the start and at every answered request.
    started: float = 0.0
    done: list[float] = field(default_factory=list)
    #: pid -> outcome of every answered ``submit``.
    outcomes: dict[int, str] = field(default_factory=dict)
    #: pid -> (state, outcome) of every answered ``status``.
    states: dict[int, tuple] = field(default_factory=dict)
    wall: float = 0.0
    cpu: float = 0.0

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


async def closed_loop(
    conns: list[Conn], frames: list[dict], window: int, ids: Iterator[int]
) -> Tally:
    """Keep ``window`` requests in flight on every connection until all
    ``frames`` are answered; returns the tally of the batch.  ``ids``
    yields the wire ids, unique for the life of one benchmark run."""
    tally = Tally(attempted=len(frames))
    todo = iter(frames)

    async def lane(conn: Conn) -> None:
        for frame in todo:
            frame = {**frame, "id": next(ids)}
            sent = time.perf_counter()
            try:
                response = await conn.call(frame)
            except asyncio.TimeoutError:
                tally.fail(f"timeout on {frame['cmd']}")
                continue
            except (OSError, ValueError) as exc:
                tally.fail(f"dropped connection: {exc}")
                continue
            now = time.perf_counter()
            tally.latencies.append(now - sent)
            tally.done.append(now)
            if not response.get("ok"):
                tally.fail(f"error frame {response.get('error')}")
                continue
            for row in response.get("outcomes", ()):
                tally.outcomes[row["pid"]] = row["outcome"]
            if "state" in response:
                tally.states[response["pid"]] = (
                    response["state"],
                    response.get("outcome"),
                )

    cpu = time.process_time()
    tally.started = time.perf_counter()
    await asyncio.gather(
        *(lane(conn) for conn in conns for _ in range(window))
    )
    tally.wall = time.perf_counter() - tally.started
    tally.cpu = time.process_time() - cpu
    return tally
