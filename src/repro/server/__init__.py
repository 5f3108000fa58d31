"""Process locking as a service.

The ``repro.server`` package puts a network front door on the process
manager so that open-system clients — benchmark drivers, the CI smoke
battery, interactive tooling — can submit transactional processes,
watch their lifecycle, and cancel them over a socket instead of
scripting a closed simulation:

* :mod:`repro.server.bus` — the typed in-process event bus with topic
  subscriptions (exact, ``prefix.*``, and ``*`` patterns);
* :mod:`repro.server.bridge` — :class:`BusTracer`, a
  :class:`repro.obs.Tracer`-compatible adapter that publishes every
  decision event on the bus, topic = the event's ``kind``, building a
  frame only for a subscription that covers it;
* :mod:`repro.server.protocol` — the JSON-lines wire protocol
  (requests, responses, event frames) with canonical encoding so a
  scripted session is byte-deterministic;
* :mod:`repro.server.service` — :class:`ProcessLockingService`, the
  engine-thread core: a command queue in front of a
  :class:`~repro.scheduler.manager.ProcessManager` (sequential or
  thread-per-shard), overload shedding, graceful drain, and the
  CT/P-RC/prefix-reducibility battery over the live trace;
* :mod:`repro.server.net` — the asyncio TCP server (``repro serve``)
  with per-connection ordered delivery and SIGTERM drain.
"""

from repro.server.bridge import BusTracer
from repro.server.bus import EventBus, topic_matches
from repro.server.protocol import (
    COMMANDS,
    WireError,
    decode_line,
    encode,
    error_response,
    event_frame,
    ok_response,
)
from repro.server.service import ProcessLockingService, ServiceConfig

__all__ = [
    "COMMANDS",
    "BusTracer",
    "EventBus",
    "ProcessLockingService",
    "ServiceConfig",
    "WireError",
    "decode_line",
    "encode",
    "error_response",
    "event_frame",
    "ok_response",
    "topic_matches",
]
