"""The server workload ``warm-serve-procs``.

The server is a real ``python -m repro serve --port-file FILE``
subprocess; its start-up time and memory are read from outside.  The
traffic comes from this one process: an asyncio client pipelining
over two connections, responses matched by ``id``.

* Open loop (``warm-serve-procs``): a seeded Poisson schedule at a fixed
  rate.  The schedule is drawn conditioned on its count (the arrival
  times of ``rate * T`` requests are sorted uniform draws over
  ``[0, T)``, which is how a Poisson process looks given its count),
  so every seed offers exactly the same load.  Each request is timed
  from when it was *due*, so a server that falls behind is charged
  for the queue it builds; the sender's own lateness is recorded.
* Closed loop: the saturation phase behind ``max_rps`` (a fixed
  number of requests in flight per connection).

Every response is checked against the generator's expectation: the
closed-form value, the ``link`` result's unit header, or the typed
error an error program must raise.  ``overloaded``, a timeout or any
other status is a failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import coldrun
import gen
import spans
import yardstick

# -- workload parameters -----------------------------------------------------

#: Programs in the warm working set (far below the 256-entry parse
#: and pycode tiers), by size.
WORKING_SET_SIZES = (2, 4, 8)
WORKING_SET = 30
#: Error programs of each kind in the working set.
ERROR_PROGRAMS = 3
#: Zipf exponent of program popularity.
ZIPF_S = 1.1

#: Request kinds and their shares of the warm traffic.  The slow kinds
#: (interp runs and step-capped loops, 5%) stay below a tenth, so the
#: 90th percentile falls among the fast warm requests rather than on
#: the edge of the slow cluster, where it swung from run to run.
MIX = (("run-pycode", 0.64), ("run-interp", 0.04), ("run-archive", 0.12),
       ("check", 0.10), ("link", 0.06), ("err-link", 0.03),
       ("err-steps", 0.01))

#: Offered load of the open-loop phase (requests per second) and the
#: latency limit behind slo_ok_ratio.  The rate is about a tenth of
#: max_rps on a 2-cpu host (~520/s with two worker processes, ~400/s
#: with threads): at half of it, a host slowdown of the size other
#: tenants cause (up to 2x) filled the admission queue, so requests
#: were shed as overloaded and latency doubled from run to run.
RATE = 50.0
SLO_MS = 50.0

#: Share of --seconds given to the saturation phase (the rest is the
#: open-loop phase).
SATURATION_SHARE = 0.3
#: Requests in flight per connection during saturation, and the
#: number prepared for it (more than any host completes in the phase).
SATURATION_DEPTH = 2
SATURATION_POOL = 20_000
CONNECTIONS = 2

#: Closed-loop traffic runs in segments this long (seconds), with a
#: yardstick pass between them; the open loop runs a pass in an idle
#: gap at least PASS_GAP passes long.
SEGMENT_S = 0.5
PASS_GAP = 3

#: Requests replayed in-process for cache.net_saving_ms.
NET_SAMPLE = 30

SERVER_LAUNCHES = 3
RESPONSE_TIMEOUT_S = 60.0


# -- the server process ------------------------------------------------------


class ServerProc:
    """One ``repro serve`` subprocess."""

    def __init__(self, root: Path, work: Path, env: dict,
                 args: tuple[list[str], list[str]], tag: str):
        # args: (global flags, ``serve`` flags)
        self.root, self.env, self.args = root, env, args
        self.port_file = work / f"port-{tag}"
        self.log = work / f"server-{tag}.log"
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch; returns seconds from launch to the first ``ping``
        answered ``pong``."""
        if self.port_file.exists():
            self.port_file.unlink()
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro"] + self.args[0]
                + ["serve", "--port-file", str(self.port_file)]
                + self.args[1],
                cwd=self.root, env=self.env, stdout=log,
                stderr=subprocess.STDOUT)
        deadline = t0 + 60
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up: "
                                   + self.log.read_text()[-2000:])
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("server never wrote its port file")
            time.sleep(0.002)
        with socket.create_connection(("127.0.0.1", self.port)) as sock:
            sock.sendall(b'{"id":0,"op":"ping"}\n')
            reply = sock.makefile("rb").readline()
        elapsed = time.perf_counter() - t0
        if json.loads(reply).get("value") != "pong":
            raise RuntimeError(f"bad ping reply {reply!r}")
        return elapsed

    def pids(self) -> list[int]:
        """The server and every process below it."""
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as f:
                        todo.extend(int(c) for c in f.read().split())
            except OSError:
                pass
        return out

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS (``VmHWM``) of the server's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- requests ----------------------------------------------------------------


@dataclass
class Req:
    kind: str
    line_body: str          # the JSON request minus its leading '{'
    check: object           # callable(response) -> bool
    size: int = 0
    id: int = 0
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    resp: dict | None = None
    fut: asyncio.Future | None = field(default=None, repr=False)

    def ok(self) -> bool:
        return self.resp is not None and bool(self.check(self.resp))


def _body(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))[1:]


def _value_check(expected: int):
    want = str(expected)
    return lambda r: (r.get("status") == "ok" and r.get("value") == want
                      and r.get("output") == "")


def _balanced_single_form(text: str) -> bool:
    depth = 0
    for k, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and k != len(text) - 1:
            return False
    return depth == 0


def _link_check(spec: gen.Spec):
    head = f"(unit (import) (export v{spec.size - 1}) "
    return lambda r: (r.get("status") == "ok"
                      and isinstance(r.get("value"), str)
                      and r["value"].startswith(head)
                      and "compound" not in r["value"]
                      and _balanced_single_form(r["value"]))


def _error_check(kind: str):
    etype, resource = gen.ERROR_KINDS[kind]

    def check(r):
        err = r.get("error") or {}
        if r.get("status") != "error" or err.get("type") != etype:
            return False
        if resource is not None:
            return err.get("resource") == resource and err.get("code") == 3
        return "with-variable 'missing'" in err.get("message", "")
    return check


class WorkingSet:
    """The warm programs, each request kind pre-rendered."""

    def __init__(self, rng: random.Random, uids):
        # Program k has popularity rank k.  Sizes cycle down the ranks,
        # so every seed puts the same sizes at the same popularity;
        # the seed picks shapes and contents.
        self.specs = [gen.make_spec(rng, WORKING_SET_SIZES[k % 3],
                                    rng.choice(gen.SHAPES), next(uids))
                      for k in range(WORKING_SET)]
        self.error_uids = [next(uids) for _ in range(ERROR_PROGRAMS)]
        self.zipf = [1.0 / (r + 1) ** ZIPF_S for r in range(WORKING_SET)]
        self.kinds = [k for k, _ in MIX]
        self._cache: dict[tuple[str, int], Req] = {}

    def request(self, kind: str, index: int) -> Req:
        """A fresh :class:`Req` for ``kind`` on program ``index`` (an
        error-program index for the ``err-*`` kinds)."""
        key = (kind, index)
        proto = self._cache.get(key)
        if proto is None:
            proto = self._cache[key] = self._make(kind, index)
        return Req(proto.kind, proto.line_body, proto.check, proto.size)

    def _make(self, kind: str, index: int) -> Req:
        if kind.startswith("err-"):
            uid = self.error_uids[index]
            if kind == "err-link":
                payload = {"op": "run", "source":
                           gen.error_program("link-mismatch", uid)}
                return Req(kind, _body(payload),
                           _error_check("link-mismatch"))
            payload = {"op": "run", "eval_steps": gen.STEP_CAP,
                       "source": gen.error_program("step-cap", uid)}
            return Req(kind, _body(payload), _error_check("step-cap"))
        spec = self.specs[index]
        expected = gen.expected_value(spec)
        if kind == "run-pycode":
            payload = {"op": "run", "source": gen.render(spec)}
        elif kind == "run-interp":
            payload = {"op": "run", "backend": "interp",
                       "source": gen.render(spec)}
        elif kind == "run-archive":
            payload = {"op": "run", "archive": True,
                       "source": gen.render_flat(spec)}
        elif kind == "check":
            payload = {"op": "check", "source": gen.render(spec)}
            return Req(kind, _body(payload),
                       lambda r: r.get("status") == "ok"
                       and r.get("value") == "ok", spec.size)
        else:  # link
            payload = {"op": "link", "source": gen.render(spec,
                                                          invoke=False)}
            return Req(kind, _body(payload), _link_check(spec), spec.size)
        return Req(kind, _body(payload), _value_check(expected), spec.size)

    def every_request(self) -> list[Req]:
        """Each (kind, program) pair once: the warm-up set."""
        out = []
        for kind in self.kinds:
            n = ERROR_PROGRAMS if kind.startswith("err-") else WORKING_SET
            out.extend(self.request(kind, i) for i in range(n))
        return out

    def mix(self, n: int, rng: random.Random) -> list[Req]:
        """``n`` requests of the warm mix in a seeded order.

        Each (kind, program) pair appears in proportion to its kind's
        share times the program's Zipf weight (counts by largest
        remainder), so every seed offers the same mix and only the
        order varies; sampling the mix afresh per request would move
        the percentiles from seed to seed."""
        cells = []
        zipf_total = sum(self.zipf)
        for kind, share in MIX:
            if kind.startswith("err-"):
                cells += [(kind, i, share / ERROR_PROGRAMS)
                          for i in range(ERROR_PROGRAMS)]
            else:
                cells += [(kind, i, share * w / zipf_total)
                          for i, w in enumerate(self.zipf)]
        exact = [n * p for _, _, p in cells]
        counts = [int(x) for x in exact]
        by_remainder = sorted(range(len(cells)),
                              key=lambda k: counts[k] - exact[k])
        for k in by_remainder[:n - sum(counts)]:
            counts[k] += 1
        out = [self.request(kind, i) for (kind, i, _), c in
               zip(cells, counts) for _ in range(c)]
        rng.shuffle(out)
        return out


# -- the asyncio client ------------------------------------------------------


class Client:
    """Pipelined connections; responses matched to requests by id."""

    def __init__(self):
        self.ids = itertools.count(1)
        self.pending: dict[int, Req] = {}
        self.conns: list[tuple] = []
        self._readers: list[asyncio.Task] = []

    async def connect(self, port: int, n: int) -> None:
        for _ in range(n):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 24)
            self.conns.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            resp = json.loads(line)
            req = self.pending.pop(resp.get("id"), None)
            if req is None:
                continue
            req.done = now
            req.resp = resp
            if not req.fut.done():
                req.fut.set_result(None)

    def send(self, conn: int, req: Req) -> None:
        req.id = next(self.ids)
        req.fut = asyncio.get_running_loop().create_future()
        self.pending[req.id] = req
        req.sent = time.perf_counter()
        self.conns[conn][1].write(
            f'{{"id":{req.id},{req.line_body}\n'.encode())

    async def call(self, conn: int, req: Req) -> Req:
        self.send(conn, req)
        await self.conns[conn][1].drain()
        await asyncio.wait_for(req.fut, RESPONSE_TIMEOUT_S)
        return req

    async def control(self, op: str) -> tuple[dict, float]:
        """One control op on connection 0; returns (response, seconds)."""
        req = Req(op, f'"op":"{op}"}}', lambda r: r.get("status") == "ok")
        await self.call(0, req)
        return req.resp, req.done - req.sent

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def closed_loop(client: Client, make_req, depth: int,
                      until: float | None = None,
                      items: list[Req] | None = None) -> list[Req]:
    """``depth`` requests in flight per connection, until the clock
    passes ``until`` or ``items`` run out."""
    done: list[Req] = []
    queue = iter(items) if items is not None else None

    async def slot(conn: int) -> None:
        while True:
            if until is not None and time.perf_counter() >= until:
                return
            if queue is not None:
                req = next(queue, None)
                if req is None:
                    return
            else:
                req = make_req()
            try:
                await client.call(conn, req)
            except asyncio.TimeoutError:
                pass
            req.due = req.sent
            done.append(req)

    await asyncio.gather(*(slot(c) for c in range(len(client.conns))
                           for _ in range(depth)))
    return done


async def open_loop(client: Client, reqs: list[Req], start: float,
                    yard: yardstick.Yardstick) -> None:
    """Send each request at its due time (``start + req.due``);
    rebase ``req.due`` to absolute time; await every response.

    While nothing is in flight and the next request is not due for
    ``PASS_GAP`` yardstick passes, run one: it blocks this loop, but no
    response can arrive and no send falls due meanwhile."""
    for req in reqs:
        req.due += start
    for k, req in enumerate(reqs):
        while True:
            delay = req.due - time.perf_counter()
            if not client.pending and yard.passes and \
                    delay > PASS_GAP * yard.passes[-1][1] / 1e3:
                yard.once()
                continue
            if delay > 0:
                await asyncio.sleep(delay)
            break
        client.send(k % len(client.conns), req)
        await client.conns[k % len(client.conns)][1].drain()
    futs = [r.fut for r in reqs]
    await asyncio.wait(futs, timeout=RESPONSE_TIMEOUT_S)


@contextlib.contextmanager
def processors_awake():
    """Keep every processor busy with an idle-priority spinner.

    A virtual processor that halts when idle takes a host-dependent
    time to wake, and an open loop at a modest rate lets the server's
    processor halt between requests, so each request would pay that
    wake-up (tens of microseconds to milliseconds, varying with other
    tenants).  ``SCHED_IDLE`` spinners never delay a runnable task;
    they only stop the processors from halting."""
    code = ("import os\n"
            "try:\n"
            "    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
            "except (AttributeError, OSError):\n"
            "    os.nice(19)\n"
            "while True:\n"
            "    pass\n")
    spinners = [subprocess.Popen([sys.executable, "-c", code])
                for _ in range(os.cpu_count() or 1)]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def stolen_seconds() -> float:
    """Processor time the hypervisor has withheld from this machine,
    summed over its processors (the ``steal`` column of ``/proc/stat``);
    0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


async def segmented(run_segment, seconds: float,
                    yard: yardstick.Yardstick) -> list[tuple]:
    """Closed-loop traffic in segments of ``SEGMENT_S``, each drained
    and followed by one yardstick pass, until ``seconds`` of traffic
    ran.  ``run_segment(until)`` returns the segment's requests;
    returns ``(start, end, requests, stolen seconds)`` per segment."""
    segments = []
    busy = 0.0
    while busy < seconds:
        stolen = stolen_seconds()
        t0 = time.perf_counter()
        reqs = await run_segment(t0 + min(SEGMENT_S, seconds - busy))
        t1 = time.perf_counter()
        segments.append((t0, t1, reqs, stolen_seconds() - stolen))
        busy += t1 - t0
        yard.once()
    return segments


def poisson_schedule(rng: random.Random, rate: float,
                     seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` over
    ``seconds``, conditioned on its count ``round(rate * seconds)``."""
    n = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


# -- metrics helpers -----------------------------------------------------------


def _timer_ms(before: dict, after: dict, name: str) -> float:
    """Mean ms per call of a server timer over a window."""
    a = after.get("timers", {}).get(name, {})
    b = before.get("timers", {}).get(name, {})
    calls = a.get("calls", 0) - b.get("calls", 0)
    secs = a.get("seconds", 0.0) - b.get("seconds", 0.0)
    return secs / calls * 1e3 if calls else 0.0


def _delta_counts(before: dict, after: dict) -> dict:
    b, a = coldrun.tier_counts(before), coldrun.tier_counts(after)
    return {t: (a[t][0] - b[t][0], a[t][1] - b[t][1]) for t in a}


def _counter(snap: dict, name: str) -> int:
    return snap.get("counters", {}).get(name, 0)


def net_saving_ms(sample: list[Req]) -> float:
    """Handler time with caching off minus with caching, per request.

    Both arms run the server's own request handler in this process,
    one request at a time, over the same requests: once with
    ``terms.set_caching(False)``, once through one shared store (first
    filled by an untimed pass, as the warm-up fills the server's).
    Positive means caching pays."""
    from repro import obs
    from repro.lang import terms
    from repro.serve.handlers import execute_request
    from repro.serve.protocol import validate_request
    from repro.serve.server import ServeConfig
    from repro.units.cache import CacheStore

    config = ServeConfig()
    registry = obs.MetricsRegistry()
    reqs = [validate_request(json.loads("{" + r.line_body))
            for r in sample]

    def timed(caching: bool, store: CacheStore) -> float:
        prev = terms.set_caching(caching)
        try:
            t0 = time.perf_counter()
            for req in reqs:
                execute_request(req, store, registry, config)
            return time.perf_counter() - t0
        finally:
            terms.set_caching(prev)

    store = CacheStore(thread_safe=True)
    timed(True, store)
    on = timed(True, store)
    off = timed(False, CacheStore(thread_safe=True))
    return (off - on) / len(reqs) * 1e3


# -- workloads -----------------------------------------------------------------


@dataclass
class Outcome:
    """What one traffic run saw, before correction for host speed."""

    measured: list[Req]           # the requests the latencies cover
    every: list[Req]              # every request sent (for the gate)
    window: tuple[float, float]   # the measured phase, perf_counter
    peak_rss_mb: float
    # The saturation phase: closed-loop segments (start, end, requests,
    # stolen seconds).
    segments: list[tuple] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    recorder: spans.Recorder | None = None


def run_workload(root: Path, work: Path, seed: int, seconds: float,
                 trace: bool, env: dict) -> dict:
    """Run ``warm-serve-procs``; returns ``{"attempted", "failed",
    "metrics"}``."""
    rng = random.Random(seed)
    uids = itertools.count(1)
    args = (["--cache-dir", str(work / "cache")],
            ["--workers", "4", "--processes", "2"])
    yard = yardstick.Yardstick()
    launches = []  # (start, seconds) of each launch
    for k in range(SERVER_LAUNCHES):
        yard.burst()
        server = ServerProc(root, work, env, args, f"s{k}")
        try:
            t0 = time.perf_counter()
            launches.append((t0, server.start()))
            if k == SERVER_LAUNCHES - 1:  # the one that serves
                outcome = asyncio.run(warm_traffic(
                    server, rng, uids, seconds, trace, yard))
        finally:
            server.stop()
    if outcome.recorder is not None:
        outcome.recorder.write(work / "spans.jsonl")
    return summarize(outcome, launches, yard)


def summarize(out: Outcome, launches, yard: yardstick.Yardstick) -> dict:
    """End-to-end (and traced) metrics, every time and rate corrected
    to reference speed by the yardstick passes made around it (see
    yardstick.py).  The open-loop schedule runs on the wall clock, so
    its goodput and the sender's lateness are left as measured."""
    setup = [secs * yard.scale_near(t0, t0 + secs) for t0, secs in launches]
    answered = [r for r in out.measured if r.resp]
    lat_ms = [(r.done - r.due) * 1e3 * yard.scale_near(r.due, r.done)
              for r in answered]
    ok_lat = [ms for r, ms in zip(answered, lat_ms) if r.ok()]
    within = sum(1 for ms in ok_lat if ms <= SLO_MS)
    ok = len(ok_lat)
    # Closed-loop throughput: right answers over the segments' time,
    # less the share of it the hypervisor withheld from the processors
    # (the loop keeps them busy, so stolen time is time not served),
    # at reference speed.
    ncpu = os.cpu_count() or 1
    closed = (sum(sum(1 for r in reqs if r.ok()) for _, _, reqs, _
                  in out.segments)
              / sum((t1 - t0 - stolen / ncpu) * yard.scale_near(t0, t1)
                    for t0, t1, _, stolen in out.segments))
    t0, t1 = out.window
    # Goodput at the offered rate: answers that were right and within
    # the limit, per second from the first due time to the last answer.
    rate = within / (t1 - t0)
    lateness = [(r.sent - r.due) * 1e3 for r in out.measured]
    failures = [r for r in out.every if not r.ok()]
    for req in failures[:5]:
        print(f"mismatch: {req.kind} size={req.size} -> "
              f"{json.dumps(req.resp)[:400]}", file=sys.stderr)
    metrics = {
        "setup_s": (spans.median(setup), "s"),
        "latency_p50_ms": (spans.percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (spans.percentile(lat_ms, 90), "ms"),
        "programs_per_s": (rate, "1/s"),
        "max_rps": (closed, "1/s"),
        "slo_ok_ratio": (within / len(out.measured), "ratio"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "loadgen.late_ms_p90": (spans.percentile(lateness, 90), "ms"),
        "loadgen.sent": (len(out.measured), "count"),
        "loadgen.ok": (ok, "count"),
        "loadgen.failed": (len(out.measured) - ok, "count"),
        "latency.samples": (len(lat_ms), "count"),
        "fail_ratio": (len(failures) / len(out.every), "ratio"),
        "yardstick.ms": (yard.ms, "ms"),
    }
    metrics.update(yardstick.at_reference_speed(out.layers,
                                                yard.scale_near(t0, t1)))
    return {"attempted": len(out.every), "failed": len(failures),
            "metrics": metrics}


async def warm_traffic(server: ServerProc, rng: random.Random, uids,
                       seconds: float, trace: bool,
                       yard: yardstick.Yardstick) -> Outcome:
    ws = WorkingSet(rng, uids)
    client = Client()
    await client.connect(server.port, CONNECTIONS)
    try:
        # Untimed warm-up: every (kind, program) pair, twice, so each
        # worker process is likely to hold it in memory.
        warm = []
        for _ in range(2):
            warm += await closed_loop(client, None, 2,
                                      items=ws.every_request())
        gc.collect()
        yard.burst()
        before = (await client.control("metrics"))[0]["metrics"]
        pool = iter(ws.mix(SATURATION_POOL, rng))
        segments = await segmented(
            lambda until: closed_loop(client, lambda: next(pool),
                                      SATURATION_DEPTH, until=until),
            SATURATION_SHARE * seconds, yard)
        sat = [r for _, _, reqs, _ in segments for r in reqs]
        open_s = (1 - SATURATION_SHARE) * seconds
        offsets = poisson_schedule(rng, RATE, open_s)
        reqs = ws.mix(len(offsets), rng)
        for req, offset in zip(reqs, offsets):
            req.due = offset
        with processors_awake():
            start = time.perf_counter() + 0.01
            await open_loop(client, reqs, start, yard)
        done_at = max((r.done for r in reqs if r.resp), default=start)
        yard.burst()
        out = Outcome(reqs, warm + sat + reqs, (start, done_at),
                      server.peak_rss_mb(), segments)
        if trace:
            out.layers, out.recorder = await serve_layers(
                client, before, reqs, sat, rng)
    finally:
        await client.close()
    return out


#: The stages each request kind's handler runs, in order.
STAGES = {"run-archive": ("parse", "check", "archive", "eval"),
          "check": ("parse", "check"), "link": ("parse", "check", "link")}
RUN_STAGES = ("parse", "check", "eval")


def stage_times(req: Req) -> dict[str, float]:
    """The stage timings of a response.  A request that failed in a
    typed way stops in some stage, which then reports no timing: the
    handler time the reported stages leave over is that stage's."""
    timings = req.resp["timings"]
    order = STAGES.get(req.kind, RUN_STAGES)
    out = {stage: timings[stage] for stage in order if stage in timings}
    if req.resp.get("status") == "error":
        missing = [stage for stage in order if stage not in timings]
        if missing:
            out[missing[0]] = max(0.0, timings["total"]
                                  - sum(out.values()))
    return out


async def serve_layers(client: Client, before: dict,
                       reqs: list[Req], sat: list[Req],
                       rng: random.Random) -> tuple[dict, spans.Recorder]:
    """Per-layer metrics of a traced serve run, and its spans.

    Each measured request becomes a span (send to response) whose
    children are the stage ``timings`` the response carries; tier
    counters and stage timers come from the ``metrics`` op."""
    t_rec = time.perf_counter()
    rec = spans.Recorder()
    answered = [r for r in reqs if r.resp and "timings" in r.resp]
    stages = {id(r): stage_times(r) for r in answered}
    for req in answered:
        root = rec.open("request", kind=req.kind, size=req.size)
        rec.close(root)
        root.start, root.end = req.sent, req.done
        offset = req.sent + max(0.0, (req.done - req.sent)
                                - req.resp["timings"]["total"]) / 2
        for stage, seconds in stages[id(req)].items():
            rec.child(root, stage, offset, seconds)
            offset += seconds
    rec_cost = time.perf_counter() - t_rec
    after = (await client.control("metrics"))[0]["metrics"]
    metrics_ms = []
    for _ in range(5):
        _, secs = await client.control("metrics")
        metrics_ms.append(secs * 1e3)
    stats, _ = await client.control("stats")
    pings = []
    for _ in range(30):
        _, secs = await client.control("ping")
        pings.append(secs * 1e3)

    def stage_ms(stage: str, kinds=None) -> float:
        vals = [stages[id(r)][stage] for r in answered
                if stage in stages[id(r)]
                and (kinds is None or r.kind in kinds)]
        return spans.mean(vals) * 1e3

    overhead = [(r.done - r.sent - r.resp["timings"]["total"]) * 1e3
                for r in answered]
    rtt = sum(r.done - r.sent for r in answered)
    unattributed = sum(r.resp["timings"]["total"]
                       - sum(stages[id(r)].values()) for r in answered)
    workers = stats.get("workers", {})
    procs = workers.get("mode") == "processes"
    parse_ms = stage_ms("parse")
    parsed_kb = sum(len(r.line_body) for r in answered
                    if "parse" in stages[id(r)]) / 1e3
    parse_s = sum(stages[id(r)].get("parse", 0.0) for r in answered)
    counts = _delta_counts(before, after)
    sample = rng.sample(reqs, min(NET_SAMPLE, len(reqs)))
    out = {
        "parse.ms": (parse_ms, "ms"),
        "parse.kb_per_s": (parsed_kb / parse_s if parse_s else 0.0,
                           "kB/s"),
        "parse.exponent": (0.0, "slope"),
        "digest.ms": (0.0, "ms"), "digest.exponent": (0.0, "slope"),
        "check.ms": (stage_ms("check"), "ms"),
        "check.exponent": (0.0, "slope"),
        "typecheck.ms": (0.0, "ms"), "typecheck.exponent": (0.0, "slope"),
        "link.flatten.ms": (_timer_ms(before, after, "link.flatten"), "ms"),
        "link.optimize.ms": (_timer_ms(before, after, "link.optimize"),
                             "ms"),
        "link.flatten.exponent": (0.0, "slope"),
        "codegen.ms": (_timer_ms(before, after, "pycode.codegen"), "ms"),
        "codegen.exponent": (0.0, "slope"),
        "codegen.src_bytes": (0.0, "bytes"),
        "pycode.run_ms": (_timer_ms(before, after, "pycode.exec"), "ms"),
        "interp.eval_ms": (stage_ms("eval", ("run-interp",)), "ms"),
        "archive.ms": (stage_ms("archive"), "ms"),
        "cache.net_saving_ms": (net_saving_ms(sample), "ms"),
        "serve.overhead_ms_p50": (spans.percentile(overhead, 50), "ms"),
        "serve.overhead_ms_p90": (spans.percentile(overhead, 90), "ms"),
        "serve.refused": (sum(1 for r in reqs + sat if r.resp and
                              r.resp.get("status") in
                              ("overloaded", "shutting-down")), "count"),
        "workers.overhead_ms_p50": (
            spans.percentile(overhead, 50) - spans.median(pings)
            if procs else 0.0, "ms"),
        "workers.metrics_op_ms": (spans.median(metrics_ms), "ms"),
        "workers.deaths": (workers.get("deaths", 0), "count"),
        "trace.overhead_ratio": (rec_cost / rtt if rtt else 0.0, "ratio"),
        "trace.dropped": (rec.dropped + after.get("dropped", 0)
                          - before.get("dropped", 0), "count"),
        "unattributed.share": (unattributed / rtt if rtt else 0.0,
                               "ratio"),
    }
    out.update(coldrun.hit_ratio_metrics(
        counts, _counter(after, "cache.evict")
        - _counter(before, "cache.evict")))
    return out, rec
