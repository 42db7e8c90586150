"""E8 -- LOLA library retargeting (section 7's future direction).

DTAS is pointed at a new vendor library; LOLA regenerates the
library-specific rules from abstract design principles, and synthesis
quality is compared against running with the generic rules alone.
"""

import pytest

from repro.api import Session
from repro.core.rulebase import standard_rulebase
from repro.core.specs import adder_spec, register_spec
from repro.lola import adapt
from repro.lola.assistant import adapt_rulebase
from repro.sim import check_combinational
from repro.techlib import vendor2_library


def retarget_and_synthesize():
    library = vendor2_library()
    rulebase = standard_rulebase()
    report = adapt_rulebase(rulebase, library)
    session = Session(library, rulebase=rulebase)
    result = session.synthesize(adder_spec(32)).result
    return report, result


def test_lola_retarget(benchmark):
    report, result = benchmark.pedantic(retarget_and_synthesize,
                                        iterations=1, rounds=3)
    print()
    print(report.describe())
    print(result.table())
    assert len(report.rules) >= 5
    spec = adder_spec(32)
    check_combinational(spec, result.smallest().tree(), vectors=12).assert_ok()


def test_lola_improves_on_generic_rules():
    """The LOLA rules must genuinely help: with them, the 32-bit adder
    can use the library's 8-bit adder cells; without them the generic
    halving rules still work but the ripple-8 structure (4 cells) must
    appear among LOLA's alternatives."""
    library = vendor2_library()
    with_lola = standard_rulebase()
    adapt_rulebase(with_lola, library)
    session = Session(library, rulebase=with_lola)
    result = session.synthesize(adder_spec(32)).result
    uses_add8 = any("AADD8" in alt.cell_counts()
                    for alt in result.alternatives)
    assert uses_add8
    print(f"\n  retargeted alternatives: {len(result)}; "
          f"AADD8 used: {uses_add8}")


def test_lola_regenerates_lsi_knowledge(lsi):
    """Pointed at the LSI library, LOLA reproduces the hand-written
    rule kinds (ripple-4/2/1, quad mux, radix trees, register packing,
    comparator chains)."""
    report = adapt(lsi, prefix="auto")
    names = {rule.name for rule in report.rules}
    expected = {"auto-add-ripple4", "auto-add-ripple2", "auto-add-ripple1",
                "auto-addsub-chain2", "auto-mux2-slice4", "auto-mux2-slice2",
                "auto-mux-radix4", "auto-mux-radix8", "auto-reg-pack",
                "auto-cmp-chain4", "auto-counter-chain4"}
    assert expected <= names
    print(f"\n  LOLA generated {len(report.rules)} rules for the LSI "
          f"library (hand count: 9 + counter cascade)")
