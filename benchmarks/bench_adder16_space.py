"""E4 -- Section 5's design-space sizing claim.

Paper: "Even for components of modest size, such as a 16-bit adder,
there can be several hundred thousand to several million alternative
designs, only a small percentage of which are of any real interest...
the design space of a 16-bit adder is reduced to ten alternative
designs."

Our rulebase decomposes all the way to NAND/NOR gates, so the
unconstrained product space is astronomically *larger* than the paper's
(they stop at module level); the claim's direction -- unconstrained
explodes, the two search controls cut it to ~10 -- reproduces exactly.
"""

import math

import pytest

from repro.api import Session
from repro.core.specs import adder_spec


def constrained_space(lsi):
    session = Session(lsi, perf_filter="pareto")
    return session.synthesize(adder_spec(16)).result


def test_adder16_design_space(benchmark, lsi):
    result = benchmark.pedantic(constrained_space, args=(lsi,),
                                iterations=1, rounds=3)
    session = Session(lsi)
    unconstrained = session.space.unconstrained_size(adder_spec(16))

    print()
    print("Section 5: 16-bit adder design-space size")
    print("=" * 45)
    print(f"  unconstrained designs : ~10^{int(math.log10(unconstrained))}")
    print(f"  paper's unconstrained : 10^5 .. 10^6 (module-level rules)")
    print(f"  with S1+S2 (Pareto)   : {len(result)}")
    tradeoff = Session(lsi, perf_filter="tradeoff:0.05")
    thinned = tradeoff.synthesize(adder_spec(16)).result
    print(f"  with tradeoff filter  : {len(thinned)}")
    print(f"  paper's constrained   : 10")

    assert unconstrained > 100_000  # at least the paper's explosion
    assert 5 <= len(result) <= 20   # the paper's ten, same regime
    assert len(thinned) <= len(result)
