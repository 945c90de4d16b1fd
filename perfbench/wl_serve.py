"""serve: the daemon under open-loop load from one process, two connections.

The daemon runs as its own process (``python -m repro serve --port 0
--workers 1``).  Two keep-alive connections carry three phases, interleaved in
``ROUNDS`` rounds: a closed-loop burst that measures capacity, then open
loop with Poisson arrivals at ``LIGHT_LOAD`` and ``HEAVY_LOAD`` times
that capacity.
Latency is timed from each request's due send time, so a stalled
connection charges every request queued behind it.

The open-loop rates follow the measured capacity rather than fixed
request rates because this class of 2-core box completes anywhere from
about 130 to 210 requests/s back-to-back depending on neighbour load; a
fixed 140 requests/s is 70% of capacity on a quiet run and past
saturation on a busy one.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import median

#: Open-loop offered load as a share of the burst's measured capacity.
LIGHT_LOAD = 0.30
HEAVY_LOAD = 0.70
#: Share of the run each phase takes, in the order of every round.
PHASES = (("burst", 0.25), ("light", 0.45), ("heavy", 0.30))
CONNECTIONS = 2
SLO_S = 0.250
MC_SAMPLES = 2 ** 14
HOT_ADDERS = (({"family": "gear_r2p4", "width": 16}, "sampling"),
              ({"family": "etaii_l4", "width": 16}, "compiled"),
              ({"family": "aca2_l4", "width": 16}, "auto"))
#: Request mix: (class, share).
MIX = (("hot", 0.45), ("cold", 0.30), ("analytic", 0.20), ("verify", 0.05))
#: Every block of this many requests holds the ``MIX`` proportions exactly.
BLOCK = 100
#: Rounds of (burst, light, heavy) segments per run.
ROUNDS = 4
ANALYTIC_R = (2, 4, 8)
ANALYTIC_P = tuple(range(2, 9))
VERIFY_BODY = {"adders": ["gear_r2p2"], "layers": ["behavioural"],
               "width": 6}
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Daemon:
    """The ``gear serve`` child process: start, probe, stop with SIGTERM."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
        except BaseException:
            self.kill()
            raise
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its worker processes."""
        from harness import child_pids, vm_hwm_mb

        pid = self.proc.pid
        return vm_hwm_mb(pid) + sum(vm_hwm_mb(c) for c in child_pids(pid))

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        self._drain.join(timeout=5.0)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def hot_bodies(seed: int) -> List[Dict]:
    rng = random.Random(f"serve-hot:{seed}")
    return [{"adder": adder, "samples": MC_SAMPLES,
             "seed": rng.randrange(2 ** 31), "backend": backend}
            for adder, backend in HOT_ADDERS]


def analytic_bodies() -> List[Dict]:
    return [{"adder": {"gear": [32, r, p]}, "mode": "exhaustive",
             "backend": "analytic"} for r in ANALYTIC_R for p in ANALYTIC_P]


def start(root: Path, seed: int) -> Tuple[Daemon, list, Dict[int, bytes]]:
    """Set-up: spawn the daemon, wait for ``/healthz``, serve each hot body
    and each analytic shape once (so no phase pays a first plan compile).

    Returns the daemon, the two connections and the first served bytes
    of each hot body (by index).
    """
    from repro.serve import ServeClient

    daemon = Daemon(root)
    try:
        clients = [ServeClient(port=daemon.port, timeout=30.0)
                   for _ in range(CONNECTIONS)]
        deadline = time.monotonic() + READY_TIMEOUT_S
        while clients[0].healthz().get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never reported healthy")
            time.sleep(0.05)
        served = {}
        for index, body in enumerate(hot_bodies(seed)):
            status, data = clients[0].request_raw("POST", "/eval", body)
            if status != 200:
                raise RuntimeError(f"warm-up /eval returned {status}")
            served[index] = data
        for body in analytic_bodies():
            status, _ = clients[0].request_raw("POST", "/eval", body)
            if status != 200:
                raise RuntimeError(f"warm-up analytic /eval returned {status}")
    except BaseException:
        daemon.kill()
        raise
    return daemon, clients, served


def classes(rng: random.Random, count: int) -> List[str]:
    """``count`` request classes in the exact ``MIX`` proportions, shuffled."""
    out: List[str] = []
    for cls, share in MIX:
        out.extend([cls] * round(share * count))
    out = (out + [MIX[0][0]] * count)[:count]
    rng.shuffle(out)
    return out


def request(rng: random.Random, cls: str,
            hot: List[Dict]) -> Tuple[str, str, Dict, int]:
    """``(class, endpoint, body, hot index or -1)`` for one request."""
    if cls == "hot":
        index = rng.randrange(len(hot))
        return cls, "eval", hot[index], index
    if cls == "cold":
        body = dict(hot[rng.randrange(len(hot))])
        body["seed"] = rng.randrange(2 ** 31)
        return cls, "eval", body, -1
    if cls == "analytic":
        return cls, "eval", rng.choice(analytic_bodies()), -1
    return cls, "verify", VERIFY_BODY, -1


class Stream:
    """A phase's request sequence, fixed by the seed.

    Items are ``(unit-rate exponential gap, class, endpoint, body, hot
    index)``; every block of ``BLOCK`` requests holds the ``MIX``
    proportions exactly.  Open-loop segments scale the gaps by their
    rate, so the seed fixes which requests are sent and in what order,
    and the measured capacity only sets the time scale.
    """

    def __init__(self, seed: int, name: str, hot: List[Dict]) -> None:
        self._rng = random.Random(f"serve:{seed}:{name}")
        self._hot = hot
        self._items: List[tuple] = []
        self._pos = 0

    def peek(self) -> tuple:
        if self._pos == len(self._items):
            for cls in classes(self._rng, BLOCK):
                self._items.append((self._rng.expovariate(1.0),
                                    *request(self._rng, cls, self._hot)))
        return self._items[self._pos]

    def take(self) -> tuple:
        item = self.peek()
        self._pos += 1
        return item

    def schedule(self, rate: float, duration: float) -> List[tuple]:
        """Poisson arrivals at ``rate`` for ``duration`` seconds:
        ``(due offset, class, endpoint, body, hot index)``."""
        out, t = [], 0.0
        while t + self.peek()[0] / rate < duration:
            gap, *item = self.take()
            t += gap / rate
            out.append((t, *item))
        return out


def _send(client, endpoint: str, body: Dict) -> Tuple[int, bytes]:
    try:
        return client.request_raw("POST", f"/{endpoint}", body)
    except (OSError, http.client.HTTPException):
        client.close()
        return 0, b""


def open_loop(clients, schedule) -> List[tuple]:
    """Send each request at its due time on whichever connection is free.

    Returns one record per request: ``(class, due, sent, done, status,
    body bytes, hot index, idle at due, backlog at send)``.
    """
    offsets = [item[0] for item in schedule]
    records: List[Optional[tuple]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.02

    def sender(client) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            offset, cls, endpoint, body, hot = schedule[i]
            due = t0 + offset
            now = time.perf_counter()
            idle = now <= due
            if idle:
                time.sleep(due - now)
            sent = time.perf_counter()
            backlog = bisect.bisect_right(offsets, sent - t0) - (i + 1)
            status, data = _send(client, endpoint, body)
            records[i] = (cls, due, sent, time.perf_counter(), status, data,
                          hot, idle, backlog)

    _run_threads(sender, clients)
    return records


def closed_loop(clients, stream: Stream,
                duration: float) -> Tuple[List[tuple], float]:
    """Back-to-back requests on every connection for ``duration`` seconds."""
    records: List[tuple] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + duration

    def sender(client) -> None:
        while True:
            sent = time.perf_counter()
            if sent >= deadline:
                return
            with lock:
                _, cls, endpoint, body, index = stream.take()
            status, data = _send(client, endpoint, body)
            with lock:
                records.append((cls, sent, sent, time.perf_counter(), status,
                                data, index, True, 0))

    _run_threads(sender, clients)
    return records, time.perf_counter() - start


def _run_threads(target, clients) -> None:
    threads = [threading.Thread(target=target, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_phases(clients, seed: int, seconds: float, tracer,
               round_index: int = 0) -> Tuple[Dict[str, List[tuple]], float]:
    """``ROUNDS`` rounds of burst, light and heavy segments.

    Interleaving spreads every phase over the whole run, so a slow
    stretch of the machine hits all three alike.  Each round's open-loop
    rates follow that round's burst capacity.  Returns the records per
    phase and the median of the rounds' capacities, which a single
    stalled round does not move.
    """
    hot = hot_bodies(seed)
    streams = {phase: Stream(seed, f"{phase}:{round_index}", hot)
               for phase, _ in PHASES}
    out: Dict[str, List[tuple]] = {phase: [] for phase, _ in PHASES}
    capacities = []
    for _ in range(ROUNDS):
        for phase, share in PHASES:
            duration = seconds * share / ROUNDS
            if phase == "burst":
                records, elapsed = closed_loop(clients, streams[phase],
                                               duration)
                capacity = len(records) / elapsed
                capacities.append(capacity)
            else:
                load = LIGHT_LOAD if phase == "light" else HEAVY_LOAD
                records = open_loop(clients, streams[phase].schedule(
                    capacity * load, duration))
            for record in records:
                tracer.add_span(f"serve.{record[0]}", record[2], record[3],
                                f"{round_index}:{phase}:{len(out[phase])}")
                out[phase].append(record)
    return out, median(capacities)


def check(phases: Dict[str, List[tuple]], expected: Dict[int, bytes]
          ) -> List[str]:
    """Every response 200; hot bytes equal the offline engine's bytes."""
    errors = []
    for phase in ("light", "heavy", "burst"):
        for record in phases[phase]:
            cls, status, data, hot = record[0], record[4], record[5], record[6]
            if status != 200:
                errors.append(f"{phase} {cls}: HTTP {status}")
            elif hot >= 0 and data != expected[hot]:
                errors.append(f"{phase} hot #{hot}: served bytes differ "
                              "from the offline payload")
    return errors


def offline_bytes(seed: int) -> Dict[int, bytes]:
    from repro.serve import protocol

    return {index: protocol.canonical_bytes(
                protocol.offline_eval_payload(body))
            for index, body in enumerate(hot_bodies(seed))}


def server_stats(client) -> Dict:
    status, data = client.request_raw("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats returned {status}")
    return json.loads(data.decode())
