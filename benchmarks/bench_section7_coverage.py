"""E5 -- Section 7's coverage and rule-count claims.

Paper: "DTAS ... is capable of synthesizing a wide range of RTL
components, including bitwise logic gates and multiplexers, binary and
BCD decoders and encoders, n-bit adders and comparators, n-bit
arithmetic logic units, shifters, n-by-m multipliers, and up/down
counters.  These components are supported by 86 rules written in the
DTAS Design Language.  DTAS requires nine library-specific design rules
to fully utilize the subset of cells from LSI Logic."
"""

import pytest

from repro.api import Session
from repro.core.library_rules import lsi_rules
from repro.core.rulebase import standard_rulebase
from repro.core.specs import (
    adder_spec,
    alu_spec,
    comparator_spec,
    counter_spec,
    make_spec,
    mux_spec,
)
from repro.sim import check_combinational

FAMILIES = [
    ("bitwise gates", make_spec("GATE", 16, kind="NOR", n_inputs=3)),
    ("multiplexers", mux_spec(6, 8)),
    ("binary decoder", make_spec("DECODER", 4)),
    ("BCD decoder", make_spec("DECODER", 4, n_outputs=10)),
    ("binary encoder", make_spec("ENCODER", 4, n_inputs=16, valid=True)),
    ("BCD encoder", make_spec("ENCODER", 4, n_inputs=10, valid=True)),
    ("n-bit adder", adder_spec(20)),
    ("n-bit comparator", comparator_spec(10)),
    ("n-bit ALU", alu_spec(16)),
    ("shifter", make_spec("SHIFTER", 8, ops=("SHL", "SHR", "ROL", "ROR"))),
    ("n-by-m multiplier", make_spec("MULT", 6, width_b=4)),
]


def synthesize_all(lsi):
    session = Session(lsi)
    results = []
    for label, spec in FAMILIES:
        results.append((label, spec, session.synthesize(spec).result))
    return results


def test_section7_component_coverage(benchmark, lsi):
    results = benchmark.pedantic(synthesize_all, args=(lsi,),
                                 iterations=1, rounds=2)
    print()
    print("Section 7: component families DTAS synthesizes")
    print("=" * 60)
    print(f"{'family':<22} {'alts':>5} {'smallest':>10} {'fastest':>9}")
    for label, spec, result in results:
        print(f"{label:<22} {len(result):>5} "
              f"{result.smallest().area:>9.0f}g "
              f"{result.fastest().delay:>8.1f}ns")
        check_combinational(spec, result.smallest().tree(),
                            vectors=12).assert_ok()
    assert len(results) == len(FAMILIES)


def test_section7_counter_coverage(lsi):
    session = Session(lsi)
    spec = counter_spec(8, enable=True)
    result = session.synthesize(spec).result
    assert len(result) >= 1
    from repro.sim import check_sequential

    def onehot(v):
        if v.get("CLOAD"):
            v["CUP"] = v["CDOWN"] = 0
        elif v.get("CUP"):
            v["CDOWN"] = 0
        return v

    check_sequential(spec, result.smallest().tree(), cycles=24,
                     constrain=onehot).assert_ok()


def test_rule_counts():
    """Generic rules in the paper's regime (86); exactly 9 LSI rules."""
    generic = standard_rulebase()
    library = lsi_rules()
    print()
    print(f"generic rules: {len(generic)} (paper: 86)")
    print(f"LSI library-specific rules: {len(library)} (paper: 9)")
    assert len(library) == 9
    assert 50 <= len(generic) <= 120
