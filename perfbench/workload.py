"""Catalogue, seeded request sequences and answer normalization.

Shared by every part of the benchmark.  Nothing here imports ``repro``:
the sequences are plain request dicts (``{"spec": "alu:64", "filter":
"pareto"}``), exactly what goes over HTTP, so the system under test
receives only generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

FAMILIES = ("adder", "alu", "comparator", "counter")
FILTERS = ("pareto", "tradeoff:0.05")
CATALOGUE_WIDTHS = (16, 32, 64)
#: The catalogue specs small enough to check for functional equivalence
#: inside one run (a 64-bit ALU takes minutes in the gate simulator);
#: ``make_golden.py --equivalence`` checks the whole catalogue.
EQUIVALENCE_WIDTHS = (16,)

#: Requests a run replays per ``--seconds``: the run length is fixed by
#: request count, not by a timer, so every run of a workload measures
#: the same work.  Rates are nominal (a 2-core x86 container).
NOMINAL_RPS = {"explore_cold": 14.0, "serve_warm": 170.0}


def request(family: str, width: int, perf_filter: str) -> Dict[str, str]:
    return {"spec": f"{family}:{width}", "filter": perf_filter}


def key(req: Dict[str, str]) -> str:
    """The golden-file key of one request."""
    return f"{req['spec']}|{req['filter']}"


def catalogue() -> List[Dict[str, str]]:
    return [request(f, w, flt) for f in FAMILIES for w in CATALOGUE_WIDTHS
            for flt in FILTERS]


def catalogue_cycle(seed: int, count: int) -> List[Dict[str, str]]:
    """``count`` catalogue requests: one seeded permutation, repeated.
    Every run holds each item equally often (same work whatever the
    seed), and each pass over the catalogue is one round."""
    order = catalogue()
    random.Random(seed).shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def passes_for(workload: str, seconds: float) -> int:
    """Whole catalogue passes that take about ``seconds`` at the
    workload's nominal rate."""
    per_pass = len(catalogue())
    return max(1, round(seconds * NOMINAL_RPS[workload] / per_pass))


def normalized_digest(body: bytes) -> str:
    """sha256 of a json emitter body with its wall-clock fields pinned:
    ``runtime_seconds`` and ``phases`` differ between any two engine
    runs, and everything else must match the golden answer."""
    data = json.loads(body)
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["answers"]


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def supported(values: Sequence[float], pct: int) -> bool:
    """True when at least ten samples lie beyond the percentile."""
    return len(values) * (100 - pct) / 100 >= 10
