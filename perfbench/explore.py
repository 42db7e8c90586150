"""The ``explore_cold`` process: one in-process caller, closed loop.

Run by ``run.py``, never by hand::

    python3 perfbench/explore.py --seed N --passes K [--setup-only] [--trace]

Set-up imports ``repro`` and fills the process-wide caches (rule
netlists, cell matchings, compiled timing programs) by synthesizing the
catalogue once, then prints ``perfbench-ready``.  Each timed request
builds a fresh ``Session`` with no result store and no node store and
calls ``synthesize``, so its design space starts cold.  The last line
is ``perfbench-result <json>``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def replay(sequence, golden, rec=None):
    """Run ``sequence``; return latencies (s) and wrong answers.  With a recorder each request is one
    ``explore.request`` span over Session construction + synthesize."""
    from repro.api import Session
    from repro.api.registry import EMITTERS, parse_spec
    from repro.api.requests import SynthesisRequest

    latencies, wrong = [], []
    for index, req in enumerate(sequence):
        request = SynthesisRequest.from_spec(parse_spec(req["spec"]),
                                             label=req["spec"])

        def one():
            return Session(library="lsi_logic",
                           perf_filter=req["filter"]).synthesize(request)

        start = time.perf_counter()
        if rec is None:
            job = one()
        else:
            job = rec.span("explore.request", one, (), {},
                           req=rec.new_request(f"t{index}"))
        latencies.append(time.perf_counter() - start)
        body = EMITTERS.create("json", job).encode("utf-8")
        if workload.normalized_digest(body) != golden[workload.key(req)]:
            wrong.append(workload.key(req))
    return latencies, wrong


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro
    from repro.api import Session
    from repro.api.registry import parse_spec
    from repro.core.interning import intern_stats

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    for req in workload.catalogue():
        Session(library="lsi_logic", perf_filter=req["filter"]).synthesize(
            parse_spec(req["spec"]))
    print("perfbench-ready", flush=True)
    if args.setup_only:
        return 0

    golden = workload.load_golden()
    sequence = workload.catalogue_cycle(
        args.seed, args.passes * len(workload.catalogue()))
    out = {}
    if args.trace:
        # Same requests twice: untraced, then traced; the difference is
        # the tracing overhead.
        sequence = sequence[:max(1, len(sequence) // 2)]
        plain, wrong = replay(sequence, golden)
        rec = tracing.Recorder()
        tracing.install_engine(rec)
        interned, cpu = intern_stats(), time.process_time()
        traced, wrong_traced = replay(sequence, golden, rec)
        after, cpu = intern_stats(), time.process_time() - cpu
        rids = set(rec.requests)
        out.update(
            untraced=plain, latencies=traced, wrong=wrong + wrong_traced,
            layers=tracing.summarize(rec.spans, rids),
            cpu_s=cpu,
            intern={k: after[k] - interned[k] for k in ("hits", "misses")})
    else:
        latencies, wrong = replay(sequence, golden)
        out.update(latencies=latencies, wrong=wrong, rss_mb=peak_rss_mb())
    # Outside timing, and after the RSS reading: the simulator's memory
    # is not the synthesizing process's.
    out["equivalence"] = oracle.equivalence()
    print("perfbench-result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
