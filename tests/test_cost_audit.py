"""Cost audit: every emitted alternative's reported area and delays
equal the ones recomputed from its design tree alone.

The audit (:func:`reference_engine.audit_alternative`) sums leaf cell
areas and composes pin-to-pin delays bottom-up with the graph-walk
oracle :func:`reference_engine.port_delay_matrix`, which shares no code
with the compiled timing kernels.  It runs over the width-16 catalogue
(four families, both catalogue filters) as computed fresh, as revived
from a warm node store, and as answered by one shared session.
"""

from types import SimpleNamespace

import pytest
from reference_engine import audit_alternative

from repro.api import Session
from repro.core.configs import make_configuration

FAMILIES = ("adder", "alu", "comparator", "counter")
FILTERS = ("pareto", "tradeoff:0.05")
SPECS = [f"{family}:16" for family in FAMILIES]


def _audit(job):
    assert len(job.alternatives) >= 1
    return {alt.index: problems for alt in job.alternatives
            if (problems := audit_alternative(alt))}


@pytest.mark.parametrize("perf_filter", FILTERS)
@pytest.mark.parametrize("spec", SPECS)
def test_width16_catalogue_costs_audit_exactly(spec, perf_filter):
    job = Session(library="lsi_logic", perf_filter=perf_filter).synthesize(spec)
    assert _audit(job) == {}


@pytest.mark.parametrize("perf_filter", FILTERS)
def test_node_store_warm_answers_audit_exactly(tmp_path, perf_filter):
    """Options revived from persisted node entries cost what the tree
    they denote costs."""
    path = tmp_path / "nodes.sqlite"
    for spec in SPECS:
        Session(library="lsi_logic", perf_filter=perf_filter,
                node_store=path).synthesize(spec)
    for spec in SPECS:
        warm = Session(library="lsi_logic", perf_filter=perf_filter,
                       node_store=path)
        job = warm.synthesize(spec)
        assert warm.node_store.stats()["hits"] >= 1
        assert _audit(job) == {}


@pytest.mark.parametrize("perf_filter", FILTERS)
def test_shared_session_answers_audit_exactly(perf_filter):
    """One session answering the catalogue in a row memoizes option
    lists across requests; each answer still costs exactly."""
    session = Session(library="lsi_logic", perf_filter=perf_filter)
    for job in session.map(SPECS):
        assert _audit(job) == {}


def test_audit_reports_a_wrong_cost():
    """The audit is not vacuous: a reported area or arc delay that is
    off by half a unit is named."""
    alt = Session(library="lsi_logic").synthesize("adder:16").alternatives[0]
    config = alt.config
    delays = config.delay_matrix()
    arc = max(delays, key=delays.get)

    def forged(area, arc_delay):
        wrong = make_configuration(area, {**delays, arc: arc_delay},
                                   dict(config.choices))
        return SimpleNamespace(config=wrong, tree=alt.tree)

    assert audit_alternative(forged(config.area, delays[arc])) == []
    assert audit_alternative(forged(config.area + 0.5, delays[arc])) == [
        f"area {config.area + 0.5!r} != recomputed {config.area!r}"]
    problems = audit_alternative(forged(config.area, delays[arc] + 0.5))
    assert problems[0] == (f"delay {arc}: {delays[arc] + 0.5!r} != "
                           f"recomputed {delays[arc]!r}")
    assert problems[1].startswith("worst delay")
