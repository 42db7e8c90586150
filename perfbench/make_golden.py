"""Regenerate ``golden.json``: the expected answer of every catalogue
request, as the sha256 of the json emitter body with its wall-clock
fields pinned.

    python3 perfbench/make_golden.py [--equivalence]

Answers come from a fresh in-process ``Session`` per request.  With
``--equivalence`` the smallest and fastest alternative of every
catalogue spec (all widths, not only the ones a run checks) is also
simulated against its GENUS behaviour; this takes several minutes.
Regenerate only when a change is meant to alter answers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workload  # noqa: E402


def session_answer(req: Dict[str, str]) -> bytes:
    """The json emitter body a fresh in-process Session returns for
    ``req``, built as the same request object ``repro serve`` builds."""
    from repro.api import Session
    from repro.api.registry import EMITTERS, parse_spec
    from repro.api.requests import SynthesisRequest

    job = Session(library="lsi_logic", perf_filter=req["filter"]).synthesize(
        SynthesisRequest.from_spec(parse_spec(req["spec"]), label=req["spec"]))
    return EMITTERS.create("json", job).encode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--equivalence", action="store_true")
    args = parser.parse_args()
    answers = {}
    for req in workload.catalogue():
        answers[workload.key(req)] = workload.normalized_digest(
            session_answer(req))
    golden = {
        "about": "sha256 of each request's json body with runtime_seconds "
                 "and phases pinned; library lsi_logic",
        "answers": answers,
    }
    if args.equivalence:
        checked, failures = oracle.equivalence(workload.CATALOGUE_WIDTHS)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        print(f"equivalence: {checked} designs checked, all equal")
    workload.GOLDEN_PATH.write_text(json.dumps(golden, indent=1,
                                               sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {workload.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
