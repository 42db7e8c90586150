"""Result parity: compiled-timing + row-costed evaluation must produce
exactly the configurations the seed's direct algorithm produced.

``ReferenceSpace`` (``tests/reference_engine.py``) overrides the
evaluation hot path with the seed implementation (materializing cross
product, per-combination ``port_delay_matrix`` graph builds) on top of
the shared expansion machinery.  Every workload asserts full ``Configuration`` equality --
areas, delay matrices, and choice tuples, bit for bit -- not just
matching (area, delay) summaries.
"""

import pytest
from reference_engine import ReferenceSpace, reference_combine

from repro.api import Session
from repro.core import ParetoFilter, TopKFilter, TradeoffFilter
from repro.core.configs import make_configuration
from repro.core.specs import adder_spec, alu_spec, comparator_spec, counter_spec
from repro.netlist.timing import port_delay_matrix
from repro.techlib import lsi_logic_library


@pytest.fixture(scope="module")
def lsi():
    return lsi_logic_library()


def _both_engines(lsi, spec, perf_filter_factory):
    session = Session(lsi, perf_filter=perf_filter_factory())
    new = session.space.alternatives(spec)
    reference = ReferenceSpace(session.rulebase, lsi, perf_filter_factory())
    old = reference.alternatives(spec)
    return new, old


@pytest.mark.parametrize(
    "spec,filter_factory",
    [
        (adder_spec(16), ParetoFilter),
        (adder_spec(16), lambda: TradeoffFilter(0.05)),
        (counter_spec(8), ParetoFilter),
        (alu_spec(16), ParetoFilter),
        (alu_spec(16), lambda: TopKFilter(4)),
        (comparator_spec(8), ParetoFilter),
    ],
    ids=["adder16-pareto", "adder16-tradeoff", "counter8-pareto",
         "alu16-pareto", "alu16-top4", "comparator8-pareto"],
)
def test_engine_parity(lsi, spec, filter_factory):
    new, old = _both_engines(lsi, spec, filter_factory)
    assert len(new) == len(old)
    for new_config, old_config in zip(new, old):
        assert new_config.area == old_config.area
        assert new_config.delays == old_config.delays
        assert new_config.choices == old_config.choices
        assert new_config.delay == old_config.delay


def test_netlist_evaluation_parity(lsi):
    """evaluate_netlist goes through the same compiled path; check it
    against per-spec reference evaluation composed by hand."""
    from repro.core.specs import make_spec, port_signature
    from repro.netlist import Netlist
    from repro.netlist.ports import in_port, out_port

    netlist = Netlist("pair")
    a = netlist.add_port(in_port("A", 8))
    b = netlist.add_port(in_port("B", 8))
    s = netlist.add_port(out_port("S", 8))
    o = netlist.add_port(out_port("O", 8))
    add = adder_spec(8, carry_in=False, carry_out=False)
    gate = make_spec("GATE", 8, kind="AND", n_inputs=2)
    netlist.add_module("u0", add, port_signature(add),
                       {"A": a.ref(), "B": b.ref(), "S": s.ref()})
    netlist.add_module("u1", gate, port_signature(gate),
                       {"I0": a.ref(), "I1": b.ref(), "O": o.ref()})

    session = Session(lsi, perf_filter=ParetoFilter())
    new = session.space.evaluate_netlist(netlist)

    reference = ReferenceSpace(session.rulebase, lsi, ParetoFilter())
    option_lists = [reference.configs(add), reference.configs(gate)]
    results = []
    for chosen, merged in reference_combine(option_lists):
        by_spec = {add: chosen[0], gate: chosen[1]}
        area = sum(by_spec[m.spec].area for m in netlist.modules)
        delays = port_delay_matrix(
            netlist, lambda inst: by_spec[inst.spec].delay_matrix()
        )
        results.append(make_configuration(area, delays, merged))
    old = ParetoFilter().select(results)

    assert [(c.area, c.delays, c.choices) for c in new] == [
        (c.area, c.delays, c.choices) for c in old
    ]
