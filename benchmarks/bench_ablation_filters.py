"""E7 -- Ablation of the search controls (design choices of section 5).

Varies the performance filter (S2) and measures surviving alternatives
and evaluation cost for adders and ALUs.  S1 (implementation
consistency) cannot be turned off wholesale without the cross products
exploding -- which is itself the paper's point -- so its effect is
shown through the unconstrained-size counter instead.
"""

import pytest

from repro.api import Session
from repro.core.specs import adder_spec, alu_spec

FILTERS = [
    ("pareto", "pareto"),
    ("tradeoff-5%", "tradeoff:0.05"),
    ("tradeoff-15%", "tradeoff:0.15"),
    ("top-4", "top_k:4"),
]


@pytest.mark.parametrize("label,perf_filter", FILTERS,
                         ids=[f[0] for f in FILTERS])
def test_filter_ablation_adder(benchmark, lsi, label, perf_filter):
    def run():
        return Session(lsi, perf_filter=perf_filter).synthesize(
            adder_spec(32)).result

    result = benchmark.pedantic(run, iterations=1, rounds=2)
    print(f"\n  {label}: {len(result)} alternatives, "
          f"area {result.smallest().area:.0f}..{result.alternatives[-1].area:.0f}, "
          f"delay {result.fastest().delay:.1f}..{result.smallest().delay:.1f}")
    assert len(result) >= 1


def test_filter_monotonicity(lsi):
    """Stricter filters keep fewer alternatives; all keep the extremes'
    quality."""
    spec = alu_spec(16)

    def run(perf_filter):
        return Session(lsi, perf_filter=perf_filter).synthesize(spec).result

    pareto = run("pareto")
    tradeoff = run("tradeoff:0.10")
    top4 = run("top_k:4")
    assert len(tradeoff) <= len(pareto)
    assert len(top4) <= 4
    assert tradeoff.fastest().delay <= pareto.fastest().delay * 1.25
    print(f"\n  pareto {len(pareto)} >= tradeoff {len(tradeoff)}; "
          f"top4 {len(top4)}")


def test_keep_all_is_infeasible_guard(lsi):
    """With no filter at all, even an 8-bit adder's evaluated space is
    orders of magnitude larger -- demonstrating why S2 exists."""
    unfiltered = Session(lsi, perf_filter="keep_all")
    result = unfiltered.synthesize(adder_spec(8)).result
    filtered = Session(lsi, perf_filter="pareto").synthesize(
        adder_spec(8)).result
    print(f"\n  keep-all alternatives: {len(result)}; "
          f"pareto: {len(filtered)}")
    assert len(result) > len(filtered) * 3
