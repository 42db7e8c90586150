"""The repository benchmark: DTAS synthesis, in process and over HTTP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from
``src/``.  Workloads (``interaction.json`` says why each exists and
which layer metric should move which end-to-end metric where):

- ``explore_cold`` -- one in-process caller; each request builds a
  fresh ``Session`` (no result store, no node store) and synthesizes a
  catalogue spec, so every design space starts cold.
- ``serve_warm`` -- ``repro serve`` over an on-disk SQLite store
  prefilled with the catalogue; one closed-loop connection replays
  catalogue requests, every one a store hit.  Client and server share
  one CPU: they alternate anyway, and a hand-off between vCPUs of a
  shared host costs a variable wake-up.

Each run replays a fixed, seeded request sequence to its end; its
length is ``--seconds`` times a nominal rate, so every run of a
workload does the same work.  The sequence is a series of rounds, each
one seeded pass over the catalogue.

On a shared host the CPU switches between a fast and a slow phase (a
fixed loop runs ~1.6x slower in the slow one) for stretches of
milliseconds to minutes, so a whole-run mean or median measures the
neighbours as much as the program.  The timings therefore take each
catalogue item's fastest replay over the run's rounds (best of N, as
``timeit`` does) and report, over those, the rate of one closed-loop
caller (``throughput_rps`` = items / summed latencies) and the p50 and
p90 across the items, each weighing the same as in the workload.  The
all-request rate and percentiles are printed beside them.

``--trace 0`` prints the end-to-end metrics: throughput, p50 and p90
latency, peak RSS of the synthesizing process, and set-up time (median
of five set-ups in fresh processes).  ``--trace 1`` replays half the
sequence untraced, then the same half with spans around every layer's
entry points (``tracing.py``), and prints the per-layer metrics and the
tracing overhead.  Every answer is checked against ``golden.json``; the
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import closing
from pathlib import Path
from typing import Any, Dict, List, Tuple

import oracle
import serving
import tracing
import workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("explore_cold", "serve_warm")
#: Set-ups per run (fresh process each); ``setup_s`` is their median.
SETUPS = 5
#: A run that takes this many times ``--seconds`` is hung, not slow.
CAP_FACTOR = 5.0

UNITS = {
    "throughput_rps": "req/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}
LAYER_UNITS = {
    "core.expand_ms": "ms", "core.enumerate_ms": "ms",
    "core.assemble_ms": "ms", "core.filter_ms": "ms",
    "core.combinations": "count", "core.combinations_per_s": "1/s",
    "core.intern_reuse": "ratio", "netlist.kernel_ms": "ms",
    "netlist.rows": "count", "api.session_ms": "ms",
    "api.synthesize_ms": "ms", "api.fingerprint_ms": "ms",
    "api.emit_ms": "ms", "store.get_ms": "ms", "store.revive_ms": "ms",
    "store.put_ms": "ms", "store.encode_ms": "ms",
    "store.hit_ratio": "ratio", "store.payload_kb": "KB",
    "nodestore.load_ms": "ms", "nodestore.save_ms": "ms",
    "nodestore.hit_ratio": "ratio", "serve.parse_ms": "ms",
    "serve.queue_wait_ms": "ms", "serve.probe_ms": "ms",
    "serve.engine_ms": "ms", "serve.request_ms": "ms",
    "serve.failed": "count", "client.overhead_ms": "ms",
    "client.cpu_s": "s", "unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Outcome:
    """What one run measured and how many of its answers were wrong."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.notes.extend(f"WRONG: {f}" for f in failures[:10])

    def put(self, name: str, value: float, samples: int,
            units: Dict[str, str] = UNITS) -> None:
        self.metrics[name] = (value, units[name], samples)


def ms(values: List[float]) -> List[float]:
    return [1000.0 * v for v in values]


def timing_metrics(out: Outcome, sequence: List[Dict[str, str]],
                   latencies: List[float]) -> None:
    """throughput_rps, latency_p50_ms and latency_p90_ms over each
    catalogue item's fastest replay (``latencies`` in ms, in the order
    of ``sequence``).  Percentiles over the pooled requests would fall
    in the gaps between items and jump with the noise of the two beside
    them; over the items each weighs the same, as in the workload."""
    best: Dict[str, float] = {}
    for req, latency in zip(sequence, latencies):
        key = workload.key(req)
        best[key] = min(latency, best.get(key, latency))
    values = list(best.values())
    out.put("throughput_rps", 1000.0 * len(values) / sum(values),
            len(latencies))
    for pct in (50, 90):
        out.put(f"latency_p{pct}_ms", workload.percentile(values, pct),
                len(latencies))
    out.notes.append(
        f"timings over the fastest of {len(latencies) // len(values)} "
        f"replays of each of {len(values)} catalogue items; all requests: "
        f"{1000.0 * len(latencies) / sum(latencies):.1f} req/s back to "
        f"back, p50 {workload.percentile(latencies, 50):.2f} ms, p99 "
        f"{workload.percentile(latencies, 99):.2f} ms")


# ---------------------------------------------------------------------------
# explore_cold
# ---------------------------------------------------------------------------

def launch_explore(args: List[str]) -> Tuple[float, Dict[str, Any]]:
    """Start one explore process; return (seconds from launch to its
    ready line, its result or {})."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "explore.py")] + args, cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(170.0, proc.kill)
    watchdog.start()
    ready, result = None, {}
    try:
        for line in proc.stdout:
            if line.startswith("perfbench-ready"):
                ready = time.perf_counter() - start
            elif line.startswith("perfbench-result "):
                result = json.loads(line.split(" ", 1)[1])
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0 or ready is None:
        raise RuntimeError(f"explore process failed with exit code {code}")
    return ready, result


def explore_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    passes = workload.passes_for("explore_cold", seconds)
    args = ["--seed", str(seed), "--passes", str(passes)]
    if trace:
        _, result = launch_explore(args + ["--trace"])
    else:
        setups = [launch_explore(args + ["--setup-only"])[0]
                  for _ in range(SETUPS - 1)]
        ready, result = launch_explore(args)
        setups.append(ready)
    latencies = ms(result["latencies"])
    out.check(len(latencies) * (2 if trace else 1), result["wrong"])
    out.check(*result["equivalence"])
    if trace:
        n = len(latencies)
        layers = result["layers"]
        overhead = statistics.mean(latencies) - statistics.mean(
            ms(result["untraced"]))
        intern = result["intern"]
        lookups = intern["hits"] + intern["misses"]
        layer_metrics(out, layers, n, {
            "core.intern_reuse": (ratio(intern["hits"], lookups), lookups),
            "trace.overhead_ms": (overhead, n),
            # The caller is the synthesizing process itself.
            "client.cpu_s": (result["cpu_s"], n),
        })
        out.notes.append(f"interning: {intern['hits']} hits of "
                         f"{lookups} lookups")
        return out
    timing_metrics(out, workload.catalogue_cycle(seed, len(latencies)),
                   latencies)
    out.put("peak_rss_mb", result["rss_mb"], 1)
    out.put("setup_s", statistics.median(setups), len(setups))
    out.notes.append("client: in-process, 1 thread, 0 connections; "
                     "client.overhead_ms 0 (no transport)")
    return out


# ---------------------------------------------------------------------------
# serve_warm
# ---------------------------------------------------------------------------

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def histogram_delta(before: Dict, after: Dict) -> Tuple[float, int]:
    """(summed seconds, count) of /synthesize between two /metrics."""
    def get(m):
        h = m["latency_histograms"].get("/synthesize")
        return (h["sum_seconds"], sum(h["counts"])) if h else (0.0, 0)
    (s0, c0), (s1, c1) = get(before), get(after)
    return s1 - s0, c1 - c0


def serve_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    serving.pin_to_one_cpu()
    golden = workload.load_golden()
    # Set-up is the same work in every run: the catalogue in its own order.
    order = workload.catalogue()
    passes = workload.passes_for("serve_warm", seconds)
    sequence = workload.catalogue_cycle(seed, passes * len(order))
    cap = CAP_FACTOR * seconds
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    servers: List[serving.Server] = []
    try:
        def start(label: str, traced: bool = False):
            begin = time.perf_counter()
            server = serving.Server(
                ROOT, tmp / f"{label}.sqlite",
                spans=tmp / f"{label}.spans.json" if traced else None)
            servers.append(server)
            expected, wrong = serving.prefill(server, order, golden)
            out.check(len(order), wrong)
            return server, expected, time.perf_counter() - begin

        if trace:
            sequence = sequence[:max(1, len(sequence) // 2)]
            plain, expected, _ = start("plain")
            untraced = serving.replay(plain, sequence, expected, cap)
            plain.stop()
            traced, expected, _ = start("traced", traced=True)
            before = traced.metrics()
            run = serving.replay(traced, sequence, expected, cap)
            after = traced.metrics()
            traced.stop()
            serve_layers(out, tmp / "traced", run, untraced, before, after)
            runs = [untraced, run]
        else:
            setups = []
            for i in range(SETUPS):
                server, expected, took = start(f"store{i}")
                setups.append(took)
                if i < SETUPS - 1:
                    server.stop()
            before = server.metrics()
            run = serving.replay(server, sequence, expected, cap)
            after = server.metrics()
            rss = server.peak_rss_mb()
            server.stop()
            serve_e2e(out, sequence, run, before, after, rss, setups)
            runs = [run]
        for done in runs:
            out.check(len(done["results"]), [
                f"request {r[0]}: status {r[3]}" if r[3] != 200
                else f"request {r[0]}: answer differs from the prefill's"
                for r in done["results"] if not r[4]])
        out.check(*oracle.equivalence())
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def serve_e2e(out: Outcome, sequence: List[Dict[str, str]], run: Dict,
              before: Dict, after: Dict, rss: float,
              setups: List[float]) -> None:
    latencies = [1000.0 * (r[2] - r[1]) for r in run["results"]]
    timing_metrics(out, [sequence[r[0]] for r in run["results"]], latencies)
    out.put("peak_rss_mb", rss, 1)
    out.put("setup_s", statistics.median(setups), len(setups))
    server_s, count = histogram_delta(before, after)
    overhead = statistics.mean(latencies) - ratio(1000.0 * server_s, count)
    out.notes.append(
        f"client: {serving.CONNECTIONS} thread, {serving.CONNECTIONS} "
        f"connection (nproc {os.cpu_count()}; client and server on CPU "
        f"{sorted(os.sched_getaffinity(0))}), "
        f"{run['client_cpu_s']:.2f} CPU s over {run['wall']:.2f} s; "
        f"client.overhead_ms {overhead:.3f} (client mean - server mean "
        f"over {count} requests)")


#: Layers serve_warm's hits never reach: the write path.  In a traced
#: serve_warm run they are reported over the prefill's engine runs.
WRITE_PATH = ("core.expand_ms", "core.enumerate_ms", "core.assemble_ms",
              "core.filter_ms", "core.combinations", "netlist.kernel_ms",
              "netlist.rows", "api.session_ms", "api.synthesize_ms",
              "store.put_ms", "store.encode_ms", "nodestore.load_ms",
              "nodestore.save_ms", "serve.engine_ms")


def serve_layers(out: Outcome, traced: Path, run: Dict, untraced: Dict,
                 before: Dict, after: Dict) -> None:
    dump = json.loads(Path(str(traced) + ".spans.json").read_text())
    spans = [tuple(s) for s in dump["spans"]]
    requests = {int(rid): v for rid, v in dump["requests"].items()}
    rids = {rid for rid, (client, _) in requests.items()
            if client.startswith("t")}
    prefill = {rid for rid, (client, _) in requests.items()
               if client.startswith("p")}
    by_client = {requests[rid][0]: rid for rid in rids}
    n = len(run["results"])
    server_time = tracing.request_durations(spans, "serve.request")
    gaps = [1000.0 * (r[2] - r[1] - server_time[by_client[f"t{r[0]}"]])
            for r in run["results"] if f"t{r[0]}" in by_client]
    with closing(sqlite3.connect(f"file:{traced}.sqlite?mode=ro",
                                 uri=True)) as db:
        (payload,) = db.execute(
            "SELECT avg(size_bytes) FROM results").fetchone()
    delta = {k: after["interning"][k] - before["interning"][k]
             for k in ("hits", "misses")}
    layers = tracing.summarize(spans, rids)
    writes = tracing.summarize(spans, prefill)
    extra = {name: (writes[name]["total"] / len(prefill),
                    writes[name]["count"]) for name in WRITE_PATH}
    written = derived(writes)
    extra.update({
        "core.combinations_per_s": written["core.combinations_per_s"],
        "nodestore.hit_ratio": written["nodestore.hit_ratio"],
        "serve.failed": (sum(1 for rid in rids if requests[rid][1] != 200),
                         n),
        "client.overhead_ms": (statistics.mean(gaps) if gaps else 0.0,
                               len(gaps)),
        "client.cpu_s": (run["client_cpu_s"], n),
        "store.payload_kb": ((payload or 0.0) / 1024.0, len(prefill)),
        "core.intern_reuse": (ratio(delta["hits"],
                                    delta["hits"] + delta["misses"]),
                              delta["hits"] + delta["misses"]),
        "trace.overhead_ms": (
            statistics.mean(1000.0 * (r[2] - r[1]) for r in run["results"])
            - statistics.mean(1000.0 * (r[2] - r[1])
                              for r in untraced["results"]), n),
    })
    layer_metrics(out, layers, n, extra)
    out.notes.append(
        f"write path ({', '.join(WRITE_PATH)}, "
        f"core.combinations_per_s, nodestore.hit_ratio): "
        f"per-request means over the {len(prefill)} prefill engine runs")
    out.notes.append(f"interning: {delta['hits']} hits of "
                     f"{delta['hits'] + delta['misses']} lookups; "
                     f"{len(gaps)} of {n} requests matched to server spans")


def derived(layers: Dict[str, Dict[str, float]]
            ) -> Dict[str, Tuple[float, int]]:
    """The per-layer ratios: (value, samples)."""
    enumerate_ms = layers["core.enumerate_ms"]
    get, load = layers["store.get.hits"], layers["nodestore.load.hits"]
    return {
        "core.combinations_per_s": (
            ratio(layers["core.combinations"]["total"],
                  enumerate_ms["total"] / 1000.0), enumerate_ms["count"]),
        "store.hit_ratio": (ratio(get["total"], get["count"]), get["count"]),
        "nodestore.hit_ratio": (ratio(load["total"], load["count"]),
                                load["count"]),
    }


def layer_metrics(out: Outcome, layers: Dict[str, Dict[str, float]], n: int,
                  extra: Dict[str, Tuple[float, int]]) -> None:
    """Per-request means of the span totals over ``n`` requests and the
    ratios; ``extra`` gives (value, samples) by name and wins."""
    values = {name: (layers[name]["total"] / n, layers[name]["count"])
              for name in LAYER_UNITS if name in layers}
    values.update(derived(layers))
    values.update(extra)
    for name in LAYER_UNITS:
        value, samples = values.get(name, (0.0, 0))
        out.put(name, value, samples, LAYER_UNITS)
    out.notes.append(
        "per-layer values are per-request means over "
        f"{n} traced requests (samples = spans); run totals: "
        + ", ".join(f"{k} {v['total']:.1f}" for k, v in sorted(layers.items())
                    if k.endswith("_ms")))


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1991)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    runner = explore_cold if args.workload == "explore_cold" else serve_warm
    out = runner(args.seed, args.seconds, bool(args.trace))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':26s} {'value':>14s}  {'unit':6s} {'samples':>8s}")
    for name, (value, unit, samples) in out.metrics.items():
        print(f"{name:26s} {value:14.4f}  {unit:6s} {samples:8d}")
    print(f"{'failed_share':26s} {ratio(out.failed, out.attempted):14.4f}  "
          f"{'ratio':6s} {out.attempted:8d}")
    for note in out.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
