"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload serve_mem --seed 1 --trace 0

Workloads, metrics and the layer map are described in README.md next to
this file.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit.  The exit code is 0
only when every output check passed.

This process is the load generator: one thread running one asyncio
loop, with at most ``nproc`` connections.  The program under test runs
in subprocesses started through ``launcher.py``, built from the
checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from client import Conn, Tally, closed_loop  # noqa: E402
from tracing import quantile, summarize  # noqa: E402

WORKLOADS = ("serve_mem", "serve_durable", "sim_contended")

#: Measured submits per second of ``--seconds``, split over ``REPS``
#: repetitions (about 1.3 ``--seconds`` of load on a 2-core host).  The
#: served runs stop at this fixed count, not at a time, so both sides
#: of a comparison do the same work.
SUBMITS_PER_SECOND = {"serve_mem": 400, "serve_durable": 200}
#: Connections of the served load, and requests kept in flight on each:
#: 16 in flight, under the default ``serve_backlog`` of 256.
CONNECTIONS = 2
WINDOW = 8
#: Programs in the served catalog (see ``launcher.CATALOG``).
CATALOG_SIZE = 16
#: Submits of the oracle session, and the prefix stride of its
#: ``check`` verb (P-RC is always checked on the whole schedule).
ORACLE_SUBMITS = 150
CHECK_STRIDE = 16
#: Identical repetitions of the measured work per run, each on a fresh
#: server or sim process; throughput and latency keep the ``KEEP`` least
#: disturbed of them share by share (see ``_least_disturbed``).
REPS = 6
KEEP = 2
#: Shares a served repetition's completions are cut into.
SEGMENTS = 10
#: ``sim_contended``: workloads of this many processes, this many per
#: second of ``--seconds`` split over ``REPS`` (every repetition, in a
#: fresh worker process, runs the same share).
SIM_PROCESSES = 40
SIM_WORKLOADS_PER_SECOND = 5
#: Client CPU share of the load window above which the client, not the
#: server, is the bottleneck and the run is invalid.
CLIENT_SATURATED = 0.9
#: Seconds a launched process may take to report ready or to finish.
READY_TIMEOUT = 120.0
FINISH_TIMEOUT = 150.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: name -> unit of the metrics a run reports, untraced and traced.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class CountedFailure(RuntimeError):
    """A failure already counted where it happened."""


class Child:
    """A launcher subprocess; ``setup_s`` runs from launch to ready."""

    def __init__(self, run: "Run", args: list[str]) -> None:
        self.log = open(run.dir / f"child-{len(run.children)}.err", "wb")
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(SRC)
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            cwd=ROOT,
            env=env,
            preexec_fn=lambda cpus=run.program_cpus: os.sched_setaffinity(
                0, cpus
            ),
        )
        run.children.append(self)
        fields = self._readline().split()
        if not fields or fields[0] != "READY":
            raise RuntimeError(f"launcher said {fields!r}, not READY")
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - self.launched
        self.fields = fields[1:]

    def _readline(self) -> str:
        fd = self.proc.stdout.fileno()
        line = b""
        deadline = time.perf_counter() + READY_TIMEOUT
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("launcher did not report ready")
            byte = os.read(fd, 1)
            if not byte:
                raise RuntimeError(f"launcher exited: {self.stderr_tail()}")
            line += byte
        return line.decode()

    def stderr_tail(self) -> str:
        self.log.flush()
        return Path(self.log.name).read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        """Peak resident set of the live process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def finish(self) -> dict:
        """Release a sim worker and read its JSON result line."""
        out, _ = self.proc.communicate(b"go\n", timeout=FINISH_TIMEOUT)
        if self.proc.returncode != 0:
            raise RuntimeError(f"sim worker failed: {self.stderr_tail()}")
        return json.loads(out.decode().splitlines()[-1])

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def stop(self) -> None:
        """SIGTERM (graceful drain) and reap; ``kill -9`` if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server ignored SIGTERM")
        self.proc.wait()

    def close(self) -> None:
        self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self.log.close()


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = ROOT / ".bench_runs" / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.children: list[Child] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.program_cpus = set(self.cpus)
        self.ids = itertools.count(1)
        self.attempted = 0
        self.failures: list[str] = []
        #: (check name, passed, detail) for every output check.
        self.checks: list[tuple[str, bool, str]] = []

    def pin(self, rep: int) -> None:
        """Put the program on one core and this client on another,
        alternating per repetition: the host's cores slow down
        independently, and the least-disturbed share keeps the faster."""
        cpus = self.cpus
        self.program_cpus = {cpus[rep % len(cpus)]}
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[(rep + 1) % len(cpus)]})

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def absorb(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failures.extend(tally.failures)

    async def verb(self, conn: Conn, cmd: str, **args) -> dict:
        """One non-submit request; a failure is counted and ends the run."""
        self.attempted += 1
        try:
            frame = {"cmd": cmd, "id": next(self.ids), **args}
            response = await conn.call(frame)
        except (asyncio.TimeoutError, OSError) as exc:
            response = {"error": f"{type(exc).__name__}: {exc}"}
        if not response.get("ok"):
            self.failures.append(f"{cmd}: {response.get('error')}")
            raise CountedFailure(f"{cmd} failed: {response.get('error')}")
        return response

    def cleanup(self) -> None:
        for child in self.children:
            child.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.dir.parent.rmdir()  # only when no other run uses it


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
def _server(
    run: Run, catalog: str, seed: int, store: str, traced: bool, spans=None
):
    args = ["serve", "--catalog", catalog, "--seed", str(seed)]
    if catalog == "durable":
        args += ["--store", str(run.dir / store)]
    if traced:
        args.append("--trace")
    if spans is not None:
        args += ["--spans", str(spans)]
    return Child(run, args)


async def _connect(port: int, count: int = CONNECTIONS) -> list[Conn]:
    return [await Conn.open(port) for _ in range(count)]


async def _close(conns: list[Conn]) -> None:
    for conn in conns:
        await conn.close()


def _submits(programs: list[int]) -> list[dict]:
    return [{"cmd": "submit", "program": p, "wait": True} for p in programs]


async def _load(
    run: Run, conns: list[Conn], programs: list[int], warmup: list[int]
) -> Tally:
    """The measured closed loop after an unmeasured warm-up, with the
    load generator's self-check."""
    if threading.active_count() != 1:
        raise RuntimeError("the load generator must run on one thread")
    if len(conns) > (os.cpu_count() or 1):
        raise RuntimeError("more connections than cores")
    warm = await closed_loop(conns, _submits(warmup), WINDOW, run.ids)
    tally = await closed_loop(conns, _submits(programs), WINDOW, run.ids)
    for batch in (warm, tally):
        run.absorb(batch)
        answered = list(batch.outcomes.values())
        run.check(
            "every submit answered ok with committed or aborted",
            len(answered) == batch.attempted
            and all(o in ("committed", "aborted") for o in answered),
            f"{len(answered)} outcomes for {batch.attempted} submits",
        )
    tally.outcomes = {**warm.outcomes, **tally.outcomes}
    return tally


async def _subscribe(run: Run, conn: Conn) -> None:
    await run.verb(conn, "subscribe", topics=["process.*"])


async def _oracle_session(
    run: Run, server: Child, durable: bool, programs: list[int]
) -> None:
    """A short sample session on its own server, then the ``check`` verb
    (P-RED sampled at ``CHECK_STRIDE``, P-RC on the whole schedule)."""
    conns = await _connect(int(server.fields[0]))
    if durable:
        await _subscribe(run, conns[0])
    tally = await closed_loop(conns, _submits(programs), WINDOW, run.ids)
    run.absorb(tally)
    report = await run.verb(conns[0], "check", stride=CHECK_STRIDE)
    run.check(
        "oracle session: CT and P-RC hold",
        report["correct_termination"] and report["process_recoverable"],
        json.dumps(report, sort_keys=True),
    )
    await _close(conns)


async def served(run: Run, catalog: str, traced: bool) -> dict:
    """``serve_mem`` (catalog ``mem``) or ``serve_durable`` (``durable``)."""
    durable = catalog == "durable"
    inputs = random.Random(f"{run.workload}/{run.seed}")
    seed = inputs.randrange(2**31)
    rate = SUBMITS_PER_SECOND[run.workload]
    warmup = [inputs.randrange(CATALOG_SIZE) for _ in range(rate // 2)]
    programs = [
        inputs.randrange(CATALOG_SIZE)
        for _ in range(rate * run.seconds // REPS)
    ]
    oracle = [inputs.randrange(CATALOG_SIZE) for _ in range(ORACLE_SUBMITS)]
    spans = run.dir / "spans.json"
    setups: list[float] = []
    recovers: list[float] = []
    recover_ns: list[float] = []
    run.pin(0)
    if not traced:
        server = _server(run, catalog, seed, "oracle", False)
        setups.append(server.setup_s)
        await _oracle_session(run, server, durable, oracle)
    tallies: list[Tally] = []
    rss = 0.0
    for rep in range(1 if traced else REPS):
        # Every repetition runs the same requests on a fresh server.  In
        # memory, each launch follows the kill -9 of the previous server,
        # so it is also the (cold) restart sample of ``recover_s``.
        run.pin(rep)
        if not traced:
            server.kill()
        killed = time.perf_counter()
        server = _server(
            run,
            catalog,
            seed,
            f"{'traced' if traced else 'rep'}{rep}",
            traced,
            spans if traced else None,
        )
        setups.append(server.setup_s)
        if not durable:
            recovers.append(server.ready_at - killed)
        conns = await _connect(int(server.fields[0]))
        if durable:
            await _subscribe(run, conns[0])
        tally = await _load(run, conns, programs, warmup)
        tallies.append(tally)
        stats = await run.verb(conns[0], "stats")
        manager = stats["manager"]
        committed = sum(o == "committed" for o in tally.outcomes.values())
        run.check(
            "client tallies equal the stats verb's manager counters",
            manager["submitted"] == len(tally.outcomes)
            and manager["committed"] == committed
            and manager["cancellations"] == 0,
            f"client {len(tally.outcomes)}/{committed}, server "
            f"{manager['submitted']}/{manager['committed']}",
        )
        rss = max(rss, server.peak_rss_mb())
        await _close(conns)
        if durable:
            # Killed right after its last acknowledgement, then restarted
            # on its store.  ``recover_s`` is the least disturbed restart,
            # like the throughput shares: the repetitions alternate
            # between cores that slow down independently.
            server.kill()
            killed = time.perf_counter()
            server = Child(run, server.proc.args[2:])
            recovers.append(server.ready_at - killed)
            recover_ns.append(float(server.fields[1]))
    store_bytes = stats.get("store", {}).get("bytes_written", 0)
    acked = tally.outcomes
    if durable:
        conns = await _connect(int(server.fields[0]))
        status = await closed_loop(
            conns,
            [{"cmd": "status", "pid": pid} for pid in sorted(acked)],
            WINDOW,
            run.ids,
        )
        run.absorb(status)
        lost = [
            pid
            for pid, outcome in acked.items()
            if status.states.get(pid) != ("done", outcome)
        ]
        run.check(
            "after kill -9 and restart every acknowledged pid is done "
            "with the same outcome",
            not lost,
            f"{len(lost)} of {len(acked)} differ, e.g. {lost[:5]}",
        )
        await _close(conns)
    conns = await _connect(int(server.fields[0]), 1)
    drain = await run.verb(conns[0], "drain")
    run.check("drain reports quiesced", drain.get("quiesced") is True)
    await _close(conns)
    server.stop()
    throughput, latencies = _least_disturbed(tallies)
    first = tallies[0]
    result = {
        "throughput_pps": throughput,
        "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
        # The tail is a handful of stalls per repetition (16 requests
        # wait out each one), too few to survive share selection: p99
        # is taken per repetition and the median over them reported.
        "latency_p99_ms": statistics.median(
            quantile(tally.latencies, 0.99) for tally in tallies
        )
        * 1e3,
        "setup_s": statistics.median(setups),
        "recover_s": min(recovers, default=0.0),
        "peak_rss_mb": rss,
        "client_cpu_frac": max(t.cpu / t.wall for t in tallies),
        "store_bytes_per_proc": store_bytes / max(1, len(acked)),
        # Plain throughput of the first repetition, the base of the
        # tracing overhead: the traced pass repeats it with the same
        # placement and no min-of-N selection.
        "plain_pps": len(first.done) / (first.done[-1] - first.started),
    }
    if traced:
        dump = json.loads(spans.read_text())
        result["layers"] = summarize(dump, len(acked))
        result["layers"]["storage.recover_s"] = (
            statistics.median(recover_ns) * 1e-9 if recover_ns else 0.0
        )
    return result


def _least_disturbed(reps: list[Tally]) -> tuple[float, list[float]]:
    """Throughput and latencies of the least disturbed repetitions.

    Every repetition answered the same requests; its completion times
    and latencies are in completion order.  Its completions are cut into
    ``SEGMENTS`` equal shares; for every share the ``KEEP`` repetitions
    that took the least wall time are kept.  Returns completions per
    kept second and the latencies of the kept shares, so that both
    metrics come from the same samples.
    """
    kept_wall = 0.0
    kept: list[float] = []
    for share in range(SEGMENTS):
        shares = []
        for rep in reps:
            done = rep.done
            lo = len(done) * share // SEGMENTS
            hi = len(done) * (share + 1) // SEGMENTS
            if hi > lo:
                wall = done[hi - 1] - (done[lo - 1] if lo else rep.started)
                shares.append((wall, rep.latencies[lo:hi]))
        for wall, latencies in _fastest(shares):
            kept_wall += wall
            kept.extend(latencies)
    return len(kept) / kept_wall, kept


def _fastest(shares: list[tuple[float, list[float]]]) -> list:
    """The ``KEEP`` (wall, latencies) pairs of least wall time."""
    return sorted(shares, key=lambda share: share[0])[:KEEP]


# ----------------------------------------------------------------------
# sim_contended
# ----------------------------------------------------------------------
async def sim_contended(run: Run, traced: bool) -> dict:
    seed = random.Random(f"{run.workload}/{run.seed}").randrange(2**31)
    count = max(1, SIM_WORKLOADS_PER_SECOND * run.seconds // REPS)
    args = [
        "sim",
        "--seed", str(seed),
        "--subs", str(count),
        "--procs", str(SIM_PROCESSES),
    ]
    spans = run.dir / "spans.json"
    setups: list[float] = []
    recovers: list[float] = []
    reports = []
    ended = None
    for rep in range(1 if traced else REPS):
        # Each repetition is a fresh worker; every worker after the first
        # is also the (cold) restart sample of ``recover_s``, timed from
        # the exit of the one before.
        run.pin(rep)
        if traced:
            extra = ["--trace", "--spans", str(spans)]
        else:
            extra = ["--oracles"] if rep == REPS - 1 else []
        worker = Child(run, args + extra)
        setups.append(worker.setup_s)
        if ended is not None:
            recovers.append(worker.ready_at - ended)
        reports.append(worker.finish())
        ended = time.perf_counter()
    for report in reports:
        run.attempted += len(report["walls"])
        run.failures.extend(report["errors"])
    run.check(
        "every sim workload brought each process to an outcome",
        not any(r["errors"] for r in reports),
        "; ".join(e for r in reports for e in r["errors"]),
    )
    run.check(
        "same seed, same schedule digests in every fresh process",
        all(r["digests"] == reports[0]["digests"] for r in reports),
    )
    if not traced:
        oracles = reports[-1].get("oracles", {})
        run.check(
            "CT (sampled P-RED) and P-RC hold on the first schedule",
            oracles.get("correct_termination") is True
            and oracles.get("process_recoverable") is True,
            json.dumps(oracles, sort_keys=True),
        )
    # Share = one workload: each is kept from its ``KEEP`` fastest
    # repetitions.  p99 is taken per workload (its slowest processes) and
    # the median over workloads reported: pooled, a few hard seeds set
    # the tail.
    kept_wall = 0.0
    latencies: list[float] = []
    tails: list[float] = []
    for index in range(len(reports[0]["walls"])):
        shares = [(r["walls"][index], r["latencies"][index]) for r in reports]
        fastest = _fastest(shares)
        kept_wall += sum(wall for wall, _ in fastest)
        pooled = [x for _, lats in fastest for x in lats]
        latencies.extend(pooled)
        tails.append(quantile(pooled, 0.99))
    result = {
        "throughput_pps": len(latencies) / kept_wall,
        "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
        "latency_p99_ms": statistics.median(tails) * 1e3,
        "setup_s": statistics.median(setups),
        "recover_s": min(recovers, default=0.0),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "client_cpu_frac": 0.0,
        "store_bytes_per_proc": 0.0,
        "plain_pps": sum(map(len, reports[0]["latencies"]))
        / sum(reports[0]["walls"]),
        "digest": _digest_of(reports[0]["digests"]),
    }
    if traced:
        result["layers"] = summarize(
            json.loads(spans.read_text()), len(latencies)
        )
    return result


def _digest_of(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
async def measure(run: Run, traced: bool) -> dict:
    if run.workload == "sim_contended":
        return await sim_contended(run, traced)
    catalog = "mem" if run.workload == "serve_mem" else "durable"
    return await served(run, catalog, traced)


async def bench(run: Run, trace: bool) -> dict[str, tuple[float, str]]:
    """Untraced pass, and with ``trace`` a traced pass after it."""
    base = await measure(run, traced=False)
    _report(run, base)
    if not trace:
        return {name: (base[name], unit) for name, unit in END_TO_END.items()}
    traced = await measure(run, traced=True)
    layers = dict(traced["layers"])
    layers["storage.bytes_per_proc"] = traced["store_bytes_per_proc"]
    layers["bench.client_cpu_frac"] = base["client_cpu_frac"]
    layers["bench.error_rate"] = len(run.failures) / max(1, run.attempted)
    # Both bases are one plain repetition with the same placement.
    layers["trace.untraced_pps"] = base["plain_pps"]
    layers["trace.traced_pps"] = traced["plain_pps"]
    layers["trace.overhead_ratio"] = traced["plain_pps"] / base["plain_pps"]
    return {name: (layers[name], unit) for name, unit in PER_LAYER.items()}


def _report(run: Run, base: dict) -> None:
    for name, unit in END_TO_END.items():
        print(f"{run.workload} {name} {base[name]:.6g} {unit}")
    if run.workload == "serve_durable":
        print(
            f"{run.workload} store_bytes_per_proc "
            f"{base['store_bytes_per_proc']:.6g} B"
        )
    if run.workload != "sim_contended":
        print(
            f"{run.workload} bench.client_cpu_frac "
            f"{base['client_cpu_frac']:.4f} ratio"
        )
        run.check(
            "the server, not the client, is saturated",
            base["client_cpu_frac"] < CLIENT_SATURATED,
            f"client cpu {base['client_cpu_frac']:.2f} of wall",
        )
    else:
        print(f"{run.workload} schedule_digest {base['digest']}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, __file__,
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {"correct": False}
        correct = correct and child.returncode == 0 and result["correct"]
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 1)
        for name, value in result.get("metrics", {}).items():
            metrics[f"{workload}.{name}"] = value
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = asyncio.run(bench(run, bool(args.trace)))
    except Exception as exc:  # a run-ending exception fails the run
        if not isinstance(exc, CountedFailure):
            run.failures.append(f"{type(exc).__name__}: {exc}")
        run.check("run completed", False, f"{type(exc).__name__}: {exc}")
        for child in run.children:
            if child.proc.poll() not in (None, 0, -signal.SIGKILL):
                print(child.stderr_tail(), file=sys.stderr)
        metrics = {}
    finally:
        run.cleanup()
    verdicts: dict[str, tuple[bool, str]] = {}
    for name, passed, detail in run.checks:
        # One line per check; a failing instance's detail wins.
        if verdicts.get(name, (True, ""))[0]:
            verdicts[name] = (passed, detail)
    for name, (passed, detail) in verdicts.items():
        mark = "ok" if passed else "FAILED"
        print(f"check {mark}: {name}" + (f" ({detail})" if detail else ""))
    for name, (value, unit) in metrics.items():
        if args.trace:
            print(f"{args.workload} {name} {value:.6g} {unit}")
    correct = all(passed for _, passed, _ in run.checks) and not run.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, run.attempted),
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
