"""Per-rule equivalence tests: arithmetic decomposition rules."""

import random

import pytest

from repro.core.rules import RuleContext
from repro.core.rulebase import arithmetic
from repro.core.specs import adder_spec, make_spec
from repro.genus.behavior import combinational_eval
from repro.netlist.validate import validate_netlist
from repro.sim.simulator import NetlistSimulator

CTX = RuleContext()


def apply_and_check(rule_name, spec, vectors):
    rules = {r.name: r for r in arithmetic.rules()}
    rule = rules[rule_name]
    assert rule.applies_to(spec), f"{rule_name} !~ {spec}"
    netlists = rule.apply(spec, CTX)
    assert netlists
    for netlist in netlists:
        validate_netlist(netlist)
        sim = NetlistSimulator(netlist)
        for inputs in vectors:
            expected = combinational_eval(spec, inputs)
            actual = sim.outputs(inputs)
            for name, value in expected.items():
                assert actual[name] == value, (
                    f"{netlist.name}.{name}: {inputs} -> {actual[name]}, "
                    f"expected {value}"
                )
    return netlists


def arith_vectors(spec, count=20, seed=3):
    rng = random.Random(seed)
    from repro.core.specs import port_signature
    from repro.netlist.ports import PinKind

    ports = [p for p in port_signature(spec) if p.is_input]
    vectors = []
    for _ in range(count):
        vectors.append({p.name: rng.randrange(1 << p.width) for p in ports})
    # Corners.
    vectors.append({p.name: (1 << p.width) - 1 for p in ports})
    vectors.append({p.name: 0 for p in ports})
    return vectors


class TestAdderRules:
    @pytest.mark.parametrize("width", [2, 3, 8, 13])
    def test_ripple_halves(self, width):
        spec = adder_spec(width)
        apply_and_check("add-ripple-halves", spec, arith_vectors(spec))

    def test_full_adder_gates(self):
        spec = adder_spec(1)
        apply_and_check("add-fa-gates", spec, arith_vectors(spec, 8))

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_cla(self, width):
        spec = adder_spec(width)
        netlists = apply_and_check("add-cla", spec, arith_vectors(spec))
        assert len(netlists) >= 1  # groups of 4 and/or 2

    def test_cla_with_group_carry_output(self):
        spec = make_spec("ADD", 16, carry_in=True, group_carry=True)
        apply_and_check("add-cla", spec, arith_vectors(spec))

    @pytest.mark.parametrize("width", [8, 12])
    def test_carry_select(self, width):
        spec = adder_spec(width)
        apply_and_check("add-carry-select", spec, arith_vectors(spec))

    def test_gp_wrap(self):
        spec = make_spec("ADD", 4, carry_in=True, group_carry=True)
        apply_and_check("add-gp-wrap", spec, arith_vectors(spec))

    def test_no_carry_ports(self):
        spec = make_spec("ADD", 8)  # no CI, no CO
        apply_and_check("add-ripple-halves", spec, arith_vectors(spec))


class TestSubAddsub:
    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_sub_via_add(self, width):
        spec = make_spec("SUB", width, carry_out=True)
        apply_and_check("sub-via-add", spec, arith_vectors(spec))

    def test_sub_with_ci(self):
        spec = make_spec("SUB", 8, carry_in=True, carry_out=True)
        apply_and_check("sub-via-add", spec, arith_vectors(spec))

    @pytest.mark.parametrize("width", [4, 8])
    def test_addsub_via_add(self, width):
        spec = make_spec("ADDSUB", width, carry_out=True)
        apply_and_check("addsub-via-add", spec, arith_vectors(spec))

    def test_addsub_with_ci(self):
        spec = make_spec("ADDSUB", 8, carry_in=True, carry_out=True)
        apply_and_check("addsub-via-add", spec, arith_vectors(spec))

    def test_addsub_halves(self):
        spec = make_spec("ADDSUB", 8, carry_out=True)
        apply_and_check("addsub-halves", spec, arith_vectors(spec))


class TestIncDec:
    @pytest.mark.parametrize("rule,ctype", [
        ("inc-via-add", "INC"), ("dec-via-add", "DEC"),
        ("inc-ha-chain", "INC"), ("dec-borrow-chain", "DEC"),
    ])
    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_rules(self, rule, ctype, width):
        spec = make_spec(ctype, width, carry_out=True)
        apply_and_check(rule, spec, arith_vectors(spec))


class TestClaGen:
    @pytest.mark.parametrize("groups", [2, 3, 4])
    def test_sop(self, groups):
        spec = make_spec("CLA_GEN", 1, groups=groups)
        apply_and_check("cla-gen-sop", spec, arith_vectors(spec, 30))
