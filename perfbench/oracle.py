"""Gate-level equivalence of the smallest and fastest alternative of
catalogue specs, checked in the benchmark's own process."""

from __future__ import annotations

from typing import Dict, List, Tuple

from workload import EQUIVALENCE_WIDTHS, FAMILIES


def _one_hot_controls(vector: Dict[str, int]) -> Dict[str, int]:
    """Counter stimulus with legal control encodings (load wins over
    up, up over down)."""
    if vector.get("CLOAD"):
        vector["CUP"] = vector["CDOWN"] = 0
    elif vector.get("CUP"):
        vector["CDOWN"] = 0
    return vector


def equivalence(widths=EQUIVALENCE_WIDTHS) -> Tuple[int, List[str]]:
    """Simulate the smallest and fastest alternative of every catalogue
    spec at ``widths`` against its GENUS behaviour.
    Returns (designs checked, failure messages)."""
    from repro.api import Session
    from repro.api.registry import parse_spec
    from repro.sim import check_combinational, check_sequential

    checked = 0
    failures: List[str] = []
    for family in FAMILIES:
        for width in widths:
            spec = parse_spec(f"{family}:{width}")
            result = Session(library="lsi_logic",
                             perf_filter="pareto").synthesize(spec).result
            extremes = {id(a): a for a in (result.smallest(), result.fastest())}
            for alt in extremes.values():
                if family == "counter":
                    report = check_sequential(spec, alt.tree(), cycles=16,
                                              constrain=_one_hot_controls)
                else:
                    report = check_combinational(spec, alt.tree(), vectors=8)
                checked += 1
                if not report.ok:
                    failures.append(
                        f"{spec} alternative {alt.index}: "
                        f"{len(report.mismatches)}/{report.vectors} vectors "
                        f"diverge")
    return checked, failures
