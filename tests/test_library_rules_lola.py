"""Tests for the nine LSI library-specific rules and LOLA retargeting."""

import pytest

from repro.api import Session
from repro.core.library_rules import lsi_rules
from repro.core.rules import RuleContext
from repro.core.rulebase import standard_rulebase
from repro.core.specs import adder_spec, counter_spec, make_spec, mux_spec, register_spec
from repro.lola import adapt
from repro.lola.assistant import adapt_rulebase
from repro.netlist.validate import validate_netlist
from repro.sim import check_combinational, check_sequential
from repro.techlib import lsi_logic_library, vendor2_library

CTX = RuleContext(lsi_logic_library())


class TestLsiRules:
    def test_exactly_nine(self):
        """Paper section 7: DTAS requires nine library-specific rules
        for the LSI subset."""
        rules = lsi_rules()
        assert len(rules) == 9
        assert all(rule.library_specific for rule in rules)

    def test_ripple4_uses_add4_chunks(self):
        rule = next(r for r in lsi_rules() if r.name == "lsi-add-ripple4")
        spec = adder_spec(10)
        netlists = rule.apply(spec, CTX)
        netlist = netlists[0]
        validate_netlist(netlist)
        widths = sorted(m.spec.width for m in netlist.modules)
        assert widths == [2, 4, 4]

    def test_reg_pack_greedy(self):
        rule = next(r for r in lsi_rules() if r.name == "lsi-reg-pack")
        spec = register_spec(13)
        netlist = rule.apply(spec, CTX)[0]
        widths = sorted(m.spec.width for m in netlist.modules)
        assert widths == [1, 4, 8]

    def test_mux_radix8(self):
        rule = next(r for r in lsi_rules() if r.name == "lsi-mux-radix8")
        spec = mux_spec(16, 1)
        netlist = rule.apply(spec, CTX)[0]
        validate_netlist(netlist)
        counts = {}
        for m in netlist.modules:
            counts[m.spec.get("n_inputs")] = counts.get(m.spec.get("n_inputs"), 0) + 1
        assert counts == {2: 8, 8: 1}

    def test_cmp_chain(self):
        rule = next(r for r in lsi_rules() if r.name == "lsi-cmp-chain4")
        spec = make_spec("COMPARATOR", 12, ops=("EQ", "LT", "GT"))
        netlist = rule.apply(spec, CTX)[0]
        validate_netlist(netlist)
        assert len(netlist.modules) == 3

    @pytest.mark.parametrize("name", [r.name for r in lsi_rules()])
    def test_every_rule_yields_valid_netlists(self, name):
        rule = next(r for r in lsi_rules() if r.name == name)
        samples = {
            "ADD": adder_spec(16),
            "ADDSUB": make_spec("ADDSUB", 8, carry_out=True),
            "MUX": mux_spec(2, 16) if "quad" in name else mux_spec(16, 1),
            "REG": register_spec(16),
            "COMPARATOR": make_spec("COMPARATOR", 16, ops=("EQ", "LT", "GT")),
            "COUNTER": counter_spec(16, enable=True),
        }
        spec = samples[rule.ctype]
        assert rule.applies_to(spec)
        for netlist in rule.apply(spec, CTX):
            validate_netlist(netlist)


class TestLola:
    def test_adapts_vendor2(self):
        report = adapt(vendor2_library())
        names = {rule.name for rule in report.rules}
        assert "acme-add-ripple8" in names
        assert "acme-reg-pack" in names
        assert "acme-counter-chain8" in names

    def test_lsi_adaptation_covers_handwritten_knowledge(self):
        """LOLA pointed at the LSI library regenerates the same kinds of
        rules the paper's engineers wrote by hand."""
        report = adapt(lsi_logic_library(), prefix="auto")
        names = {rule.name for rule in report.rules}
        for expected in ("auto-add-ripple4", "auto-add-ripple2",
                         "auto-add-ripple1", "auto-mux2-slice4",
                         "auto-mux-radix8", "auto-reg-pack",
                         "auto-cmp-chain4"):
            assert expected in names

    def test_describe(self):
        report = adapt(vendor2_library())
        text = report.describe()
        assert "ACME" in text and "adder-ripple-chain" in text

    def test_adapt_rulebase_idempotent(self):
        rulebase = standard_rulebase()
        before = len(rulebase)
        adapt_rulebase(rulebase, vendor2_library())
        mid = len(rulebase)
        adapt_rulebase(rulebase, vendor2_library())
        assert len(rulebase) == mid > before

    def test_retargeted_synthesis_verifies(self):
        rulebase = standard_rulebase()
        adapt_rulebase(rulebase, vendor2_library())
        session = Session(vendor2_library(), rulebase=rulebase)
        spec = adder_spec(16)
        result = session.synthesize(spec).result
        check_combinational(spec, result.smallest().tree(),
                            vectors=16).assert_ok()
        reg = register_spec(20)
        result = session.synthesize(reg).result
        check_sequential(reg, result.smallest().tree(), cycles=20).assert_ok()

    def test_vendor2_counter_through_cell(self):
        rulebase = standard_rulebase()
        adapt_rulebase(rulebase, vendor2_library())
        session = Session(vendor2_library(), rulebase=rulebase)
        spec = counter_spec(16, enable=True)
        result = session.synthesize(spec).result

        def onehot(v):
            if v.get("CLOAD"):
                v["CUP"] = v["CDOWN"] = 0
            elif v.get("CUP"):
                v["CDOWN"] = 0
            return v

        check_sequential(spec, result.smallest().tree(), cycles=32,
                         constrain=onehot).assert_ok()
