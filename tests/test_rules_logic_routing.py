"""Per-rule equivalence tests: gate and mux/interconnect rules.

Every rule is applied directly to a spec and the resulting netlist is
(1) structurally valid and (2) functionally equivalent to the generic
behavioral model, simulated with generic semantics for the modules.
"""

import pytest

from repro.core.rules import RuleContext
from repro.core.rulebase import logic, routing
from repro.core.specs import gate_spec, make_spec, mux_spec
from repro.genus.behavior import combinational_eval
from repro.netlist.validate import validate_netlist
from repro.sim.simulator import NetlistSimulator

CTX = RuleContext()


def apply_rule(rules_module, rule_name, spec):
    rules = {r.name: r for r in rules_module.rules()}
    rule = rules[rule_name]
    assert rule.applies_to(spec), f"{rule_name} does not apply to {spec}"
    netlists = rule.apply(spec, CTX)
    assert netlists
    for netlist in netlists:
        validate_netlist(netlist)
    return netlists


def assert_equivalent(spec, netlist, vectors):
    sim = NetlistSimulator(netlist)
    for inputs in vectors:
        expected = combinational_eval(spec, inputs)
        actual = sim.outputs(inputs)
        for name, value in expected.items():
            assert actual[name] == value, (
                f"{netlist.name}: {name} mismatch on {inputs}: "
                f"expected {value}, got {actual[name]}"
            )


def gate_vectors(n, width, count=16):
    import random

    rng = random.Random(7)
    vectors = []
    for _ in range(count):
        vectors.append({f"I{i}": rng.randrange(1 << width) for i in range(n)})
    return vectors


GATE_RULES = [
    ("gate-bitslice", "AND", 2, 4),
    ("gate-bitslice", "XNOR", 2, 8),
    ("gate-input-tree", "AND", 5, 1),
    ("gate-input-tree", "NAND", 4, 2),
    ("gate-input-tree", "NOR", 3, 1),
    ("gate-input-tree", "XNOR", 4, 1),
    ("gate-input-tree", "XOR", 6, 1),
    ("and-from-nand", "AND", 2, 3),
    ("or-from-nor", "OR", 2, 3),
    ("or-demorgan", "OR", 2, 1),
    ("and-demorgan", "AND", 2, 1),
    ("xnor-from-xor", "XNOR", 2, 2),
    ("xor-from-nand", "XOR", 2, 2),
    ("not-from-nand", "NOT", 1, 4),
    ("nand-from-nor", "NAND", 2, 1),
    ("buf-from-inv", "BUF", 1, 4),
]


@pytest.mark.parametrize("rule_name,kind,n,width", GATE_RULES)
def test_gate_rule_equivalence(rule_name, kind, n, width):
    spec = gate_spec(kind, n_inputs=n, width=width)
    for netlist in apply_rule(logic, rule_name, spec):
        assert_equivalent(spec, netlist,
                          gate_vectors(1 if kind in ("NOT", "BUF") else n, width))


def mux_vectors(n, width, count=20):
    import random

    rng = random.Random(11)
    vectors = []
    from repro.core.specs import sel_width

    for _ in range(count):
        v = {f"I{i}": rng.randrange(1 << width) for i in range(n)}
        v["S"] = rng.randrange(1 << sel_width(n))
        vectors.append(v)
    return vectors


MUX_RULES = [
    ("mux-bitslice", 2, 8),
    ("mux-bitslice", 4, 4),
    ("mux-pad", 3, 4),
    ("mux-pad", 5, 2),
    ("mux-tree", 4, 4),
    ("mux-tree", 8, 2),
    ("mux2-gates", 2, 4),
]


@pytest.mark.parametrize("rule_name,n,width", MUX_RULES)
def test_mux_rule_equivalence(rule_name, n, width):
    spec = mux_spec(n, width)
    for netlist in apply_rule(routing, rule_name, spec):
        assert_equivalent(spec, netlist, mux_vectors(n, width))


def test_selector_as_mux():
    spec = make_spec("SELECTOR", 4, n_inputs=4)
    for netlist in apply_rule(routing, "selector-as-mux", spec):
        assert_equivalent(spec, netlist, mux_vectors(4, 4))


def test_tristate_and_bus():
    spec = make_spec("TRISTATE", 4)
    for netlist in apply_rule(routing, "tristate-gates", spec):
        assert_equivalent(spec, netlist, [
            {"I": 9, "OE": 1}, {"I": 9, "OE": 0}, {"I": 15, "OE": 1},
        ])
    bus = make_spec("BUS", 4, n_drivers=3)
    for netlist in apply_rule(routing, "bus-structural", bus):
        assert_equivalent(bus, netlist, [
            {"I0": 1, "I1": 2, "I2": 4, "OE0": 1, "OE1": 0, "OE2": 0},
            {"I0": 1, "I1": 2, "I2": 4, "OE0": 0, "OE1": 1, "OE2": 1},
            {"I0": 5, "I1": 0, "I2": 0, "OE0": 0, "OE1": 0, "OE2": 0},
        ])


def test_wired_or_and_buffers():
    spec = make_spec("WIRED_OR", 4, n_inputs=3)
    for netlist in apply_rule(routing, "wired-or-gates", spec):
        assert_equivalent(spec, netlist,
                          [{"I0": 1, "I1": 2, "I2": 8}, {"I0": 0, "I1": 0, "I2": 0}])
    buf = make_spec("BUFFER", 8)
    for netlist in apply_rule(routing, "buffer-as-gate", buf):
        assert_equivalent(buf, netlist, [{"I": 200}, {"I": 0}])
