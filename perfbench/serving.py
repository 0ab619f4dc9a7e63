"""The daemon's ``serve.*`` layer metrics, for a batch workload's traced
run: a short closed loop against a ``repro serve --index`` daemon with
default flags, over the same world.

Two client threads each hold one connection (``repro.api.Client``) and
send their next request only when the previous reply arrived.  Every
request carries 4 consecutive pairs of the world; thread ``k`` sends
requests ``k, k + 2, k + 4, ...`` of the pool, wrapping around.  Busy
replies are not retried: they count as failed requests, as do timeouts
and errors.  The daemon is warmed up first with the world's warm-up
input, whose random pair reaches the full-DP fallback, so its lazy
minimizer-index build lands before the loop.

Daemon latency itself is not an end-to-end metric: on a shared 2-vCPU
VM its closed loop spread 28-38% in requests/s between runs.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
from common import Outcome, program_env

PAIRS_PER_REQUEST = 4
CLIENTS = 2
#: Longest wait for a spawned daemon to answer.
SPAWN_TIMEOUT_S = 120.0
#: Longest wait for any one reply in the closed loop.
REPLY_TIMEOUT_S = 60.0


class Daemon:
    """One spawned daemon process and its socket."""

    def __init__(self, world: Path, socket: str, log: Path) -> None:
        self.socket = socket
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--index", str(world / "world.rpix"), "--socket", socket],
            env=program_env(), stdout=self._log, stderr=subprocess.STDOUT)

    def wait_ready(self) -> None:
        """Wait until the daemon answers a ping (its socket file exists
        a moment before it accepts connections)."""
        from repro.api import Client, ClientError

        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited before listening "
                                   f"(code {self.process.returncode})")
            if os.path.exists(self.socket):
                try:
                    with Client(self.socket, timeout=SPAWN_TIMEOUT_S) as client:
                        client.ping()
                    return
                except ClientError:
                    pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not start listening")
            time.sleep(0.005)

    def stop(self) -> None:
        """Shut the daemon down and wait for it to exit."""
        from repro.api import Client, ClientError

        try:
            if self.process.poll() is None:
                try:
                    with Client(self.socket, timeout=30) as client:
                        client.shutdown()
                except ClientError:
                    self.process.terminate()
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()


def spawn_warm(world: Path, socket: str, log: Path, warmup) -> Daemon:
    """Spawn a daemon and wait for its reply to the warm-up request."""
    from repro.api import Client

    daemon = Daemon(world, socket, log)
    try:
        daemon.wait_ready()
        with Client(socket, timeout=SPAWN_TIMEOUT_S) as client:
            client.map_pairs(warmup)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def closed_loop(socket: str, requests: List[list], seconds: float
                ) -> List[Tuple[int, Optional[List[str]]]]:
    """Drive the daemon for ``seconds``; returns per-request
    ``(number, lines or None if it failed)``.  The loop stops
    sending at the deadline and waits for the replies in flight."""
    from repro.api import Client, ClientError

    results: List[List[Tuple[int, Optional[List[str]]]]] = \
        [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []
    start_gate = threading.Barrier(CLIENTS, timeout=REPLY_TIMEOUT_S)
    deadline_box: List[float] = []

    def client_loop(slot: int) -> None:
        mine = results[slot]
        try:
            with Client(socket, timeout=REPLY_TIMEOUT_S,
                        busy_retries=0) as client:
                start_gate.wait()
                if slot == 0:
                    deadline_box.append(time.perf_counter() + seconds)
                start_gate.wait()
                deadline = deadline_box[0]
                number = slot
                while time.perf_counter() < deadline:
                    index = number % len(requests)
                    try:
                        reply = client.map_pairs(requests[index])
                        lines: Optional[List[str]] = reply["lines"]
                    except ClientError:
                        lines = None
                    mine.append((index, lines))
                    number += CLIENTS
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(slot,))
               for slot in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [entry for mine in results for entry in mine]


def _delta(after: dict, before: dict) -> dict:
    """Counters and histograms of ``after`` minus ``before``."""
    def minus(a, b):
        return {key: value - b.get(key, 0) for key, value in a.items()}

    histograms = {}
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name)
        if old is None:
            histograms[name] = hist
            continue
        histograms[name] = dict(
            hist, count=hist["count"] - old["count"],
            sum=hist["sum"] - old["sum"],
            counts=[n - m for n, m in zip(hist["counts"], old["counts"])])
    return {"counters": minus(after["counters"], before["counters"]),
            "histograms": histograms}


def serve_layers(before: dict, after: dict, pairs: int) -> Dict[str, float]:
    """The daemon-side per-layer metrics over one phase, from two
    ``stats`` replies."""
    from repro.obs.render import snapshot_quantile

    metrics = _delta(after["metrics"], before["metrics"])
    hist = metrics["histograms"]
    counters = metrics["counters"]

    def quantile(name: str, q: float) -> float:
        return snapshot_quantile(hist.get(name, {}), q)

    def mean(name: str) -> float:
        entry = hist.get(name, {})
        return entry["sum"] / entry["count"] if entry.get("count") else 0.0

    return {
        "serve.server_s.p50": quantile("serve.request_s.map", 0.5),
        "serve.server_s.p99": quantile("serve.request_s.map", 0.99),
        "serve.queue_wait_s.p50": quantile("serve.queue_wait_s", 0.5),
        "serve.queue_wait_s.p99": quantile("serve.queue_wait_s", 0.99),
        "serve.batch_requests.mean": mean("serve.batch_requests"),
        "serve.engine_runs": counters.get("engine.genpair.runs", 0)
        * 1000.0 / pairs if pairs else 0.0,
        "serve.seed_query_s.mean": mean("pipeline.seed_query_s"),
        "serve.busy": float(counters.get("serve.busy", 0)),
        "serve.timeouts": float(after["scheduler"]["timeouts"]
                                - before["scheduler"]["timeouts"]),
        "serve.errors": float(after["server"]["errors"]
                              - before["server"]["errors"]),
    }


@contextlib.contextmanager
def one_cpu():
    """Run the clients, and every daemon spawned meanwhile, on one CPU.

    Each request hands off between client and daemon threads several
    times.  On a shared 2-vCPU VM, waking a thread on the other, idle
    vCPU is what varies most from minute to minute: interleaved trials
    over 6 minutes spread 33% unpinned, 12% pinned.  Child processes
    inherit the affinity.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def wire_requests(pairs) -> List[list]:
    """The pairs as consecutive requests of PAIRS_PER_REQUEST pairs, in
    wire (text) form, decoded once outside any timed loop."""
    from repro.genome.sequence import decode

    return [[(decode(read1), decode(read2), name)
             for read1, read2, name in pairs[start:start + PAIRS_PER_REQUEST]]
            for start in range(0, len(pairs) - PAIRS_PER_REQUEST + 1,
                               PAIRS_PER_REQUEST)]


def daemon_layers(world: Path, workdir: Path, seconds: float, pairs,
                  records: List[str], outcome: Outcome) -> Dict[str, float]:
    """The daemon's ``serve.*`` metrics over a closed loop of
    ``seconds`` on ``pairs``, replies checked against the SAM
    ``records`` the passes wrote for them (``Mapper.write`` and
    ``Mapper.lines`` emit the same bytes)."""
    from repro.api import Client
    from repro.genome.io_fasta import read_pairs

    warmup = read_pairs(world / "warmup_1.fq", world / "warmup_2.fq")
    requests = wire_requests(pairs)
    per_request = len(records) // len(pairs) * PAIRS_PER_REQUEST
    expected = [records[n * per_request:(n + 1) * per_request]
                for n in range(len(requests))]
    socket = os.path.relpath(workdir / "d.sock")
    with one_cpu():
        daemon = spawn_warm(world, socket, workdir / "daemon.log", warmup)
        try:
            with Client(socket) as client:
                before = client.stats()
            served = closed_loop(socket, requests, seconds)
            with Client(socket) as client:
                after = client.stats()
        finally:
            daemon.stop()
    done = [entry for entry in served if entry[1] is not None]
    outcome.attempted += len(served)
    outcome.failed += len(served) - len(done)
    outcome.problems += checks.replies_match(done, expected)
    return serve_layers(before, after, len(done) * PAIRS_PER_REQUEST)
