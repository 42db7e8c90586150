"""Per-rule equivalence tests: encoders/decoders, comparators,
shifters, multipliers, ALUs, storage, counters."""

import random

import pytest

from repro.core.rules import RuleContext
from repro.core.rulebase import (
    alu,
    comparators,
    counters,
    encoding,
    multipliers,
    shifters,
    storage,
)
from repro.core.specs import (
    ALU16_OPS,
    comparator_spec,
    counter_spec,
    make_spec,
    port_signature,
    register_spec,
)
from repro.genus.behavior import combinational_eval
from repro.netlist.validate import validate_netlist
from repro.sim.simulator import NetlistSimulator, SpecComponent

CTX = RuleContext()


def rand_vectors(spec, count=20, seed=5):
    rng = random.Random(seed)
    ports = [p for p in port_signature(spec) if p.is_input
             and p.kind.value != "clock"]
    vectors = [{p.name: rng.randrange(1 << p.width) for p in ports}
               for _ in range(count)]
    vectors.append({p.name: 0 for p in ports})
    vectors.append({p.name: (1 << p.width) - 1 for p in ports})
    return vectors


def apply_and_check(module, rule_name, spec, vectors=None):
    rules = {r.name: r for r in module.rules()}
    rule = rules[rule_name]
    assert rule.applies_to(spec), f"{rule_name} !~ {spec}"
    netlists = rule.apply(spec, CTX)
    assert netlists
    vectors = vectors or rand_vectors(spec)
    for netlist in netlists:
        validate_netlist(netlist)
        sim = NetlistSimulator(netlist)
        for inputs in vectors:
            expected = combinational_eval(spec, inputs)
            actual = sim.outputs(inputs)
            for name, value in expected.items():
                assert actual[name] == value, (
                    f"{netlist.name}.{name}: {inputs} -> "
                    f"{actual[name]} != {value}"
                )
    return netlists


class TestDecoders:
    @pytest.mark.parametrize("width,enable", [(2, False), (3, True), (4, False)])
    def test_minterms(self, width, enable):
        spec = make_spec("DECODER", width, enable=enable or None)
        apply_and_check(encoding, "decoder-minterms", spec)

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_tree(self, width):
        spec = make_spec("DECODER", width)
        apply_and_check(encoding, "decoder-tree", spec)

    def test_tree_with_enable(self):
        spec = make_spec("DECODER", 3, enable=True)
        apply_and_check(encoding, "decoder-tree", spec)

    def test_bcd_decoder(self):
        spec = make_spec("DECODER", 4, n_outputs=10)
        apply_and_check(encoding, "decoder-tree", spec)

    def test_one_bit(self):
        spec = make_spec("DECODER", 1, enable=True)
        apply_and_check(encoding, "decoder-1bit", spec)


class TestEncoders:
    @pytest.mark.parametrize("width,n_in", [(2, 4), (3, 8), (4, 16)])
    def test_tree(self, width, n_in):
        spec = make_spec("ENCODER", width, n_inputs=n_in, valid=True)
        apply_and_check(encoding, "encoder-tree", spec, rand_vectors(spec, 40))

    def test_bcd_encoder_pads(self):
        spec = make_spec("ENCODER", 4, n_inputs=10, valid=True)
        apply_and_check(encoding, "encoder-pad", spec, rand_vectors(spec, 40))

    def test_base(self):
        spec = make_spec("ENCODER", 1, n_inputs=2, valid=True)
        apply_and_check(encoding, "encoder-2to1", spec)


class TestComparators:
    @pytest.mark.parametrize("width", [2, 4, 7])
    def test_halves(self, width):
        spec = comparator_spec(width)
        apply_and_check(comparators, "cmp-halves", spec)

    def test_bit_gates(self):
        apply_and_check(comparators, "cmp-bit-gates", comparator_spec(1))

    def test_cascade_combine(self):
        spec = comparator_spec(4, cascaded=True)
        apply_and_check(comparators, "cmp-cascade-combine", spec)

    def test_tie_cascade(self):
        spec = comparator_spec(4)
        apply_and_check(comparators, "cmp-tie-cascade", spec)

    def test_derived_ops(self):
        spec = comparator_spec(4, ("EQ", "NE", "LE", "GE", "ZEROP"))
        apply_and_check(comparators, "cmp-derived-ops", spec)

    @pytest.mark.parametrize("width", [4, 8])
    def test_via_sub(self, width):
        spec = comparator_spec(width)
        apply_and_check(comparators, "cmp-via-sub", spec)


class TestShifters:
    def test_shifter_mux(self):
        spec = make_spec("SHIFTER", 8, ops=("SHL", "SHR", "ROL", "ROR"))
        apply_and_check(shifters, "shifter-mux", spec)

    def test_shifter_asr(self):
        spec = make_spec("SHIFTER", 8, ops=("ASR", "SHR"))
        apply_and_check(shifters, "shifter-mux", spec)

    @pytest.mark.parametrize("op", ["SHL", "SHR", "ROL", "ROR", "ASR"])
    def test_barrel_stages(self, op):
        spec = make_spec("BARREL_SHIFTER", 8, ops=(op,))
        apply_and_check(shifters, "barrel-stages", spec)

    @pytest.mark.parametrize("op", ["SHL", "SHR"])
    def test_barrel_flat(self, op):
        spec = make_spec("BARREL_SHIFTER", 8, ops=(op,))
        apply_and_check(shifters, "barrel-flat", spec)

    def test_barrel_multi(self):
        spec = make_spec("BARREL_SHIFTER", 8, ops=("SHL", "SHR"))
        apply_and_check(shifters, "barrel-multi-op", spec)

    def test_barrel_non_pow2_width(self):
        spec = make_spec("BARREL_SHIFTER", 5, ops=("SHL",))
        apply_and_check(shifters, "barrel-stages", spec)


class TestMultipliers:
    def test_base(self):
        spec = make_spec("MULT", 1, width_b=1)
        apply_and_check(multipliers, "mult-base", spec)

    @pytest.mark.parametrize("wa,wb", [(2, 2), (4, 4), (5, 3), (3, 5)])
    def test_array(self, wa, wb):
        spec = make_spec("MULT", wa, width_b=wb)
        apply_and_check(multipliers, "mult-row-base", spec)

    @pytest.mark.parametrize("width", [4, 6])
    def test_split(self, width):
        spec = make_spec("MULT", width, width_b=width)
        apply_and_check(multipliers, "mult-split", spec)


class TestAluRules:
    def test_16fn_split(self):
        spec = make_spec("ALU", 8, ops=ALU16_OPS, carry_in=True,
                         carry_out=True)
        apply_and_check(alu, "alu-16fn-split", spec, rand_vectors(spec, 60))

    def test_arith4_with_ci(self):
        spec = make_spec("ALU", 8, ops=("ADD", "SUB", "INC", "DEC"),
                         carry_in=True, carry_out=True)
        apply_and_check(alu, "alu-arith4", spec, rand_vectors(spec, 40))

    def test_arith4_without_ci(self):
        spec = make_spec("ALU", 8, ops=("ADD", "SUB", "INC", "DEC"))
        apply_and_check(alu, "alu-arith4", spec, rand_vectors(spec, 40))

    def test_logic8(self):
        spec = make_spec("ALU", 8, ops=alu.LOGIC8)
        apply_and_check(alu, "alu-logic8", spec, rand_vectors(spec, 40))

    def test_addsub2(self):
        spec = make_spec("ALU", 8, ops=("ADD", "SUB"), carry_out=True)
        apply_and_check(alu, "alu-addsub2", spec)

    def test_logic_bitslice(self):
        spec = make_spec("ALU", 4, ops=alu.LOGIC8)
        apply_and_check(alu, "alu-logic-bitslice", spec, rand_vectors(spec, 30))


def sequential_check(module, rule_name, spec, cycles=40, constrain=None,
                     seed=9):
    """Lockstep equivalence for sequential rules."""
    rules = {r.name: r for r in module.rules()}
    rule = rules[rule_name]
    assert rule.applies_to(spec)
    netlists = rule.apply(spec, CTX)
    assert netlists
    rng = random.Random(seed)
    ports = [p for p in port_signature(spec) if p.is_input
             and p.kind.value != "clock"]
    for netlist in netlists:
        validate_netlist(netlist)
        golden = SpecComponent(spec)
        g_state = golden.reset()
        sim = NetlistSimulator(netlist)
        m_state = sim.reset()
        for _ in range(cycles):
            inputs = {p.name: rng.randrange(1 << p.width) for p in ports}
            if constrain:
                inputs = constrain(inputs)
            expected = golden.outputs(inputs, g_state)
            actual = sim.outputs(inputs, m_state)
            for name, value in expected.items():
                assert actual[name] == value, (
                    f"{netlist.name}.{name}: {inputs} -> "
                    f"{actual[name]} != {value}"
                )
            g_state = golden.next_state(inputs, g_state)
            m_state = sim.next_state(inputs, m_state)


def onehot_counter(v):
    if v.get("CLOAD"):
        v["CUP"] = v["CDOWN"] = 0
    elif v.get("CUP"):
        v["CDOWN"] = 0
    return v


class TestStorageRules:
    @pytest.mark.parametrize("width", [2, 5, 8])
    def test_reg_halves(self, width):
        sequential_check(storage, "reg-halves", register_spec(width))

    def test_reg_halves_with_enable(self):
        sequential_check(storage, "reg-halves", register_spec(8, enable=True))

    def test_reg_enable_mux(self):
        sequential_check(storage, "reg-enable-mux",
                         register_spec(8, enable=True))

    def test_reg_complement_out(self):
        spec = make_spec("REG", 4, complement_out=True)
        sequential_check(storage, "reg-complement-out", spec)

    def test_shift_reg(self):
        sequential_check(storage, "shift-reg-structural",
                         make_spec("SHIFT_REG", 8))

    def test_regfile(self):
        spec = make_spec("REGFILE", 8, n_words=4)
        sequential_check(storage, "regfile-structural", spec, cycles=60)

    def test_memory(self):
        spec = make_spec("MEMORY", 4, n_words=8)
        sequential_check(storage, "memory-structural", spec, cycles=60)

    def test_memory_non_pow2_words(self):
        spec = make_spec("MEMORY", 4, n_words=10)
        sequential_check(storage, "memory-structural", spec, cycles=60)


class TestCounterRules:
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_structural(self, width):
        spec = counter_spec(width, enable=True)
        sequential_check(counters, "counter-structural", spec,
                         constrain=onehot_counter)

    def test_structural_with_carry_out(self):
        spec = counter_spec(4, enable=True).with_attrs(carry_out=True)
        sequential_check(counters, "counter-structural", spec,
                         constrain=onehot_counter)

    def test_structural_up_only(self):
        spec = counter_spec(4, ops=("COUNT_UP",), enable=True)
        sequential_check(counters, "counter-structural", spec)

    def test_cascade_via_library_rule(self):
        from repro.core.library_rules import counter_chain_rule

        spec = counter_spec(8, enable=True)
        rule = counter_chain_rule("t-counter-chain4", 4)
        assert rule.applies_to(spec)
        netlists = rule.apply(spec, CTX)
        rng = random.Random(2)
        ports = [p for p in port_signature(spec) if p.is_input
                 and p.kind.value != "clock"]
        for netlist in netlists:
            validate_netlist(netlist)
            golden = SpecComponent(spec)
            g_state = golden.reset()
            sim = NetlistSimulator(netlist)
            m_state = sim.reset()
            for _ in range(80):
                inputs = onehot_counter(
                    {p.name: rng.randrange(1 << p.width) for p in ports})
                assert (sim.outputs(inputs, m_state)["O0"]
                        == golden.outputs(inputs, g_state)["O0"])
                g_state = golden.next_state(inputs, g_state)
                m_state = sim.next_state(inputs, m_state)
