"""Cost audit of the whole serving catalogue.

Every alternative of all 24 catalogue requests (adder, ALU, comparator
and counter at widths 16, 32 and 64, under ``pareto`` and
``tradeoff:0.05``) is re-costed from its design tree alone: leaf cell
areas summed, pin-to-pin delays composed bottom-up by the graph-walk
oracle in ``tests/reference_engine.py``.  Hierarchical costing is exact
(a decomposition's delay is the max-plus composition of its children's
matrices), so every reported area and arc delay must match exactly.
About 300 alternatives; a few seconds of audit time.
"""

from tests.reference_engine import audit_alternative

from repro.api import Session

FAMILIES = ("adder", "alu", "comparator", "counter")
WIDTHS = (16, 32, 64)
FILTERS = ("pareto", "tradeoff:0.05")


def test_catalogue_costs_audit_exactly():
    audited = 0
    mismatches = {}
    for family in FAMILIES:
        for width in WIDTHS:
            for perf_filter in FILTERS:
                spec = f"{family}:{width}"
                job = Session(library="lsi_logic",
                              perf_filter=perf_filter).synthesize(spec)
                for alt in job.alternatives:
                    audited += 1
                    problems = audit_alternative(alt)
                    if problems:
                        mismatches[(spec, perf_filter, alt.index)] = problems
    print(f"\naudited {audited} alternatives of "
          f"{len(FAMILIES) * len(WIDTHS) * len(FILTERS)} requests, "
          f"{len(mismatches)} mismatches")
    assert audited >= 24
    assert mismatches == {}
