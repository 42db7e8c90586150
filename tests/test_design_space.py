"""Tests for design-space expansion, evaluation, and statistics."""

import pytest

from repro.core import DesignSpace, ParetoFilter
from repro.core.design_space import SynthesisError
from repro.core.rulebase import standard_rulebase
from repro.core.specs import adder_spec, gate_spec, make_spec, mux_spec
from repro.techlib import CellLibrary, lsi_logic_library


@pytest.fixture(scope="module")
def space():
    from repro.core.library_rules import lsi_rules

    rulebase = standard_rulebase()
    rulebase.extend(lsi_rules())
    return DesignSpace(rulebase, lsi_logic_library(), ParetoFilter())


class TestExpansion:
    def test_cell_and_decomp_impls(self, space):
        node = space.expand(gate_spec("AND", 2))
        kinds = {impl.kind for impl in node.impls}
        assert kinds == {"cell", "decomp"}

    def test_idempotent(self, space):
        spec = adder_spec(8)
        node1 = space.expand(spec)
        node2 = space.expand(spec)
        assert node1 is node2

    def test_submodules_expanded(self, space):
        space.expand(adder_spec(8))
        sub = make_spec("ADD", 4, carry_in=True, group_carry=True)
        assert sub in space.nodes
        assert make_spec("CLA_GEN", 1, groups=2) in space.nodes

    def test_stats(self, space):
        space.expand(adder_spec(8))
        stats = space.stats()
        assert stats["spec_nodes"] > 10
        assert stats["implementations"] >= stats["spec_nodes"]


def test_rules_for_index_matches_full_scan():
    """The ctype index answers every catalogue spec's lookup with the
    rules (and order) a full ``applies_to`` scan gives, and a rule
    added after a lookup is found by the next one."""
    from repro.api.registry import parse_spec
    from repro.core.library_rules import lsi_rules
    from repro.core.rules import Rule

    rulebase = standard_rulebase()
    rulebase.extend(lsi_rules())
    space = DesignSpace(rulebase, lsi_logic_library(), ParetoFilter())
    for family in ("adder", "alu", "comparator", "counter"):
        for width in (16, 32, 64):
            space.expand(parse_spec(f"{family}:{width}"))
    assert len(space.nodes) > 100
    for spec in space.nodes:
        assert rulebase.rules_for(spec) == [
            rule for rule in rulebase if rule.applies_to(spec)]

    spec = adder_spec(8)
    before = rulebase.rules_for(spec)
    late = Rule("late_adder", spec.ctype, lambda s, ctx: [],
                guard=lambda s: s.width == 8)
    rulebase.add(late)
    assert rulebase.rules_for(spec) == before + [late]
    assert late not in rulebase.rules_for(adder_spec(4))


class TestEvaluation:
    def test_configs_sorted_and_pareto(self, space):
        configs = space.configs(adder_spec(16))
        areas = [c.area for c in configs]
        delays = [c.delay for c in configs]
        assert areas == sorted(areas)
        assert delays == sorted(delays, reverse=True)

    def test_s1_consistency_in_results(self, space):
        """Every returned configuration chooses exactly one impl per
        spec it involves."""
        for config in space.configs(adder_spec(16)):
            seen = {}
            for spec, impl in config.choices:
                assert seen.setdefault(spec, impl) == impl

    def test_materialize_matches_choice(self, space):
        spec = adder_spec(8)
        config = space.configs(spec)[0]
        tree = space.materialize(spec, config)
        assert tree.spec == spec
        assert tree.impl.index == config.chosen_impl(spec)
        assert tree.cell_counts()

    def test_unimplementable_raises_with_context(self):
        empty = CellLibrary("empty")
        space = DesignSpace(standard_rulebase(), empty, ParetoFilter())
        with pytest.raises(SynthesisError, match="cannot implement"):
            space.alternatives(adder_spec(4))

    def test_unconstrained_size_explodes(self, space):
        """Paper section 5: without search control the 16-bit adder has
        'several hundred thousand to several million' designs -- ours
        has at least that."""
        count = space.unconstrained_size(adder_spec(16))
        assert count > 100_000

    def test_constrained_space_is_tiny(self, space):
        configs = space.configs(adder_spec(16))
        assert 5 <= len(configs) <= 20


class TestNetlistEvaluation:
    def test_evaluate_netlist(self, space):
        from repro.core.specs import port_signature
        from repro.netlist import Netlist
        from repro.netlist.ports import in_port, out_port

        netlist = Netlist("two_adders")
        a = netlist.add_port(in_port("A", 8))
        b = netlist.add_port(in_port("B", 8))
        c = netlist.add_port(in_port("C", 8))
        o = netlist.add_port(out_port("O", 8))
        mid = netlist.add_net("mid", 8)
        spec = make_spec("ADD", 8)
        netlist.add_module("add1", spec, port_signature(spec),
                           {"A": a.ref(), "B": b.ref(), "S": mid.ref()})
        netlist.add_module("add2", spec, port_signature(spec),
                           {"A": mid.ref(), "B": c.ref(), "S": o.ref()})
        configs = space.evaluate_netlist(netlist)
        assert configs
        # Both adders share the spec, so S1 halves the space and the
        # area is exactly twice one adder's.
        one = space.configs(spec)
        assert any(abs(c.area - 2 * s.area) < 1e-6
                   for c in configs for s in one)
