"""E1 -- Figure 3: alternative designs for a 64-bit, 16-function ALU.

Paper: five alternatives from a 30-cell LSI Logic subset; smallest =
(4879 gates, 134.3 ns); fastest = +34 % area / -81 % delay; two mid
designs cut delay ~75-79 % for ~14 % extra area; generated in < 15 min
on a SUN-3.

We assert the *shape*: >= 5 surviving alternatives, a >= 75 % delay
span, at least one mid-range design cutting delay >= 70 % for <= 15 %
area, and generation far under the 15-minute budget.
"""

import pytest

from repro.api import Session
from repro.core import TradeoffFilter
from repro.core.report import figure3_points, figure3_report
from repro.core.specs import alu_spec


def synthesize_alu64(lsi):
    session = Session(lsi, perf_filter=TradeoffFilter(0.05))
    return session.synthesize(alu_spec(64)).result


def test_figure3_alu64(benchmark, lsi):
    result = benchmark.pedantic(synthesize_alu64, args=(lsi,),
                                iterations=1, rounds=3)
    print()
    print(figure3_report(result, "Figure 3: 64-bit, 16-function ALU "
                                 "(LSI 1.5u subset)"))

    points = figure3_points(result)
    assert len(points) >= 5, "paper shows five alternative designs"

    base_area, base_delay, _, _ = points[0]
    _, _, d_area_fastest, d_delay_fastest = points[-1]
    assert d_delay_fastest <= -75.0, "fastest design cuts delay >= 75%"

    # "two other alternative designs that reduce delay nearly as well as
    # the fastest but suffer only a 14 percent increase in area"
    mid = [(da, dd) for _, _, da, dd in points if da <= 15.0 and dd <= -70.0]
    assert mid, "a cheap design with a large delay cut must survive"

    # "less than 15 minutes of real time" (SUN-3); we must crush that.
    assert result.runtime_seconds < 900


def test_figure3_runtime_claim(lsi):
    """Generation time is minutes under the paper's 15-minute bound."""
    result = synthesize_alu64(lsi)
    assert result.runtime_seconds < 60
