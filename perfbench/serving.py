"""``repro serve`` as a subprocess, and the closed-loop HTTP client.

The untraced server is the public entry point, ``python -m repro
serve``.  The traced one is ``serve_traced.py``, which installs the
benchmark's spans and then calls ``repro.api.cli.main(["serve", ...])``;
it writes its spans when SIGTERM drains it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workload

HERE = Path(__file__).resolve().parent
READY = re.compile(r"listening on http://([\d.]+):(\d+)")
#: Closed-loop client threads, one connection each.  The server answers
#: one hit at a time, so a second connection only queues behind the
#: first (and, on one CPU, slows it by ~20%).
CONNECTIONS = 1


class WorkloadError(RuntimeError):
    """The run stopped measuring what the workload claims."""


class Server:
    def __init__(self, root: Path, store: Path,
                 spans: Optional[Path] = None) -> None:
        args = ["serve", "--port", "0", "--store", str(store)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans)] + args
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: List[str] = []
        ready = threading.Event()
        self.address = None

        def drain() -> None:
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                match = READY.search(line)
                if match and self.address is None:
                    self.address = (match.group(1), int(match.group(2)))
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        if not ready.wait(60) or self.address is None:
            self.stop()
            raise WorkloadError("server did not start:\n"
                                + "\n".join(self.lines[-20:]))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise WorkloadError("server VmHWM unavailable")

    def metrics(self) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)


def pin_to_one_cpu() -> None:
    """Run this thread, the threads it starts and the servers it
    launches on one CPU.  A closed-loop client and its server take
    turns, so they lose no parallelism; they save the cross-CPU
    wake-up per hand-off, whose cost on a shared host varies from run
    to run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def post(address, req: Dict[str, str], client_id: str):
    """One request on a fresh connection (the server closes after each
    response).  Returns (status, body, source)."""
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        conn.request("POST", "/synthesize",
                     body=json.dumps({"spec": req["spec"],
                                      "filter": req["filter"]}),
                     headers={"Content-Type": "application/json",
                              "X-Perfbench-Req": client_id})
        response = conn.getresponse()
        return (response.status, response.read(),
                response.getheader("X-Repro-Source", ""))
    finally:
        conn.close()


def prefill(server: Server, order: List[Dict[str, str]],
            golden: Dict[str, str]):
    """Warm the store with every catalogue request, sequentially; each
    must be an engine run with the golden answer.  Returns (body per
    key, wrong keys)."""
    expected: Dict[str, bytes] = {}
    wrong: List[str] = []
    for index, req in enumerate(order):
        status, body, source = post(server.address, req, f"p{index}")
        key = workload.key(req)
        if status != 200 or source != "engine":
            raise WorkloadError(f"prefill {key}: status {status}, "
                                f"source {source!r}; expected an engine run")
        if workload.normalized_digest(body) != golden[key]:
            wrong.append(key)
        expected[key] = body
    return expected, wrong


def replay(server: Server, sequence: List[Dict[str, str]],
           expected: Dict[str, bytes], cap_seconds: float) -> Dict[str, Any]:
    """Replay ``sequence`` to its end over ``CONNECTIONS`` closed-loop
    connections (``cap_seconds`` only guards against a hung server).

    Every response must come from the store with the prefill's exact
    bytes.  A response from anywhere else aborts the run: the workload
    would be measuring something else."""
    results: List[Optional[tuple]] = [None] * len(sequence)
    tickets = itertools.count()
    abort: List[str] = []
    started = time.perf_counter()

    def client() -> None:
        while not abort:
            index = next(tickets)
            if index >= len(sequence):
                return
            if time.perf_counter() - started > cap_seconds:
                abort.append(f"run exceeded {cap_seconds:.0f} s")
                return
            key = workload.key(sequence[index])
            start = time.perf_counter()
            status, body, source = post(server.address, sequence[index],
                                        f"t{index}")
            end = time.perf_counter()
            if status == 200 and source != "store":
                abort.append(f"request {index} ({key}): source {source!r}, "
                             f"expected 'store'")
            results[index] = (index, start, end, status,
                              status == 200 and body == expected[key])

    cpu = resource.getrusage(resource.RUSAGE_SELF)
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    after = resource.getrusage(resource.RUSAGE_SELF)
    if abort:
        raise WorkloadError(abort[0])
    done = [r for r in results if r is not None]
    return {
        "wall": max(r[2] for r in done) - started,
        "results": done,
        "client_cpu_s": (after.ru_utime + after.ru_stime
                         - cpu.ru_utime - cpu.ru_stime),
    }
