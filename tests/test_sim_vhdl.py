"""Tests for the simulator substrate and the VHDL translator."""

import pytest

from repro.api import Session
from repro.core.specs import (
    adder_spec,
    alu_spec,
    counter_spec,
    gate_spec,
    make_spec,
    mux_spec,
    port_signature,
    register_spec,
)
from repro.netlist import Netlist, Port
from repro.netlist.nets import Concat, Const
from repro.netlist.ports import clock_port, in_port, out_port
from repro.sim import NetlistSimulator, SimulationError
from repro.sim.simulator import SpecComponent
from repro.techlib import lsi_logic_library
from repro.vhdl import behavioral_model, check_vhdl, design_tree_vhdl, netlist_vhdl
from repro.vhdl.behavioral import TEMPLATED_CTYPES
from repro.vhdl.checker import VhdlCheckError
from repro.vhdl.names import NameScope, vhdl_identifier


class TestSimulator:
    def test_missing_input_reported(self):
        netlist = Netlist("t")
        a = netlist.add_port(in_port("A"))
        o = netlist.add_port(out_port("O"))
        spec = gate_spec("NOT")
        netlist.add_module("g", spec, port_signature(spec),
                           {"I0": a.ref(), "O": o.ref()})
        with pytest.raises(SimulationError, match="missing input"):
            NetlistSimulator(netlist).outputs({})

    def test_true_loop_detected(self):
        """A ring oscillator (inverter feeding itself) never settles."""
        netlist = Netlist("osc")
        o = netlist.add_port(out_port("O"))
        spec = gate_spec("NOT")
        netlist.add_module("g1", spec, port_signature(spec),
                           {"I0": o.ref(), "O": o.ref()})
        with pytest.raises(SimulationError, match="settle"):
            NetlistSimulator(netlist).outputs({})

    def test_concat_and_const_endpoints(self):
        netlist = Netlist("cat")
        a = netlist.add_port(in_port("A", 2))
        o = netlist.add_port(out_port("O", 4))
        spec = gate_spec("BUF", width=4)
        inst = netlist.add_module("g", spec, port_signature(spec),
                                  {"O": o.ref()})
        inst.connect("I0", Concat((a.ref(), Const(0b10, 2))))
        out = NetlistSimulator(netlist).outputs({"A": 0b01})
        assert out["O"] == 0b1001

    def test_stable_feedback_through_register(self):
        """reg Q -> mux -> reg D settles (no false loop)."""
        netlist = Netlist("hold")
        d = netlist.add_port(in_port("D", 4))
        en = netlist.add_port(in_port("EN"))
        netlist.add_port(clock_port())
        q = netlist.add_port(out_port("Q", 4))
        d_eff = netlist.add_net("d_eff", 4)
        mux = mux_spec(2, 4)
        netlist.add_module("m", mux, port_signature(mux),
                           {"I0": q.ref(), "I1": d.ref(), "S": en.ref(),
                            "O": d_eff.ref()})
        reg = register_spec(4)
        netlist.add_module("r", reg, port_signature(reg),
                           {"D": d_eff.ref(), "Q": q.ref(),
                            "CLK": netlist.port_net("CLK").ref()})
        sim = NetlistSimulator(netlist)
        state = sim.reset()
        _, state = sim.step({"D": 9, "EN": 1}, state)
        out, state = sim.step({"D": 3, "EN": 0}, state)
        assert out["Q"] == 9
        out, _ = sim.step({"D": 3, "EN": 0}, state)
        assert out["Q"] == 9


class TestNames:
    def test_identifier_cleaning(self):
        assert vhdl_identifier("ALU<64>(ci,co)") == "ALU_64_ci_co"
        assert vhdl_identifier("2fast") == "n_2fast"
        assert vhdl_identifier("signal") == "signal_x"
        assert vhdl_identifier("") == "unnamed"

    def test_scope_uniquifies(self):
        scope = NameScope()
        a = scope.name("x y")
        b = scope.name("x_y")
        assert a != b
        assert scope.name("x y") == a


class TestStructuralVhdl:
    def test_netlist_emission(self):
        netlist = Netlist("top")
        a = netlist.add_port(in_port("A", 4))
        o = netlist.add_port(out_port("O", 4))
        spec = gate_spec("NOT", width=4)
        netlist.add_module("g", spec, port_signature(spec),
                           {"I0": a.ref(), "O": o.ref()})
        text = netlist_vhdl(netlist)
        counts = check_vhdl(text)
        assert counts["entities"] == 1 and counts["instances"] == 1
        assert "bit_vector(3 downto 0)" in text

    def test_design_tree_emission(self):
        session = Session(lsi_logic_library())
        result = session.synthesize(adder_spec(16)).result
        text = design_tree_vhdl(result.fastest().tree())
        counts = check_vhdl(text)
        assert counts["entities"] >= 2
        assert "leaf cells:" in text

    def test_adapter_for_tied_pins(self):
        session = Session(lsi_logic_library())
        spec = make_spec("ADD", 4, carry_out=True)  # CI tie needed
        result = session.synthesize(spec).result
        smallest = result.smallest()
        if smallest.tree().is_leaf:
            text = design_tree_vhdl(smallest.tree())
            assert "adapter" in text
            check_vhdl(text)

    def test_slices_and_concats_render(self):
        session = Session(lsi_logic_library())
        result = session.synthesize(alu_spec(8)).result
        text = design_tree_vhdl(result.smallest().tree())
        check_vhdl(text)
        assert "downto" in text

    def test_checker_catches_unclosed(self):
        with pytest.raises(VhdlCheckError):
            check_vhdl("entity foo is\n  port (a : in bit);\n")

    def test_checker_catches_undeclared_component(self):
        bad = (
            "entity t is\nend t;\n"
            "architecture structure of t is\nbegin\n"
            "  u0 : mystery\n    port map (a => b);\nend structure;\n"
        )
        with pytest.raises(VhdlCheckError, match="undeclared"):
            check_vhdl(bad)


class TestBehavioralVhdl:
    @pytest.mark.parametrize("ctype", TEMPLATED_CTYPES)
    def test_templates_emit_checked_vhdl(self, ctype):
        samples = {
            "GATE": gate_spec("NAND", 3, width=4),
            "MUX": mux_spec(4, 8),
            "SELECTOR": make_spec("SELECTOR", 4, n_inputs=4),
            "DECODER": make_spec("DECODER", 3, enable=True),
            "ADD": adder_spec(8),
            "SUB": make_spec("SUB", 8, carry_out=True),
            "INC": make_spec("INC", 8),
            "DEC": make_spec("DEC", 8),
            "ADDSUB": make_spec("ADDSUB", 8, carry_in=True, carry_out=True),
            "ALU": alu_spec(8),
            "COMPARATOR": make_spec("COMPARATOR", 8, ops=("EQ", "LT", "GT")),
            "REG": register_spec(8, enable=True, async_reset=True),
            "COUNTER": counter_spec(8, enable=True),
            "MULT": make_spec("MULT", 4, width_b=4),
        }
        text = behavioral_model(samples[ctype])
        counts = check_vhdl(text)
        assert counts["entities"] == 1

    def test_untemplated_raises(self):
        with pytest.raises(ValueError, match="no behavioral VHDL"):
            behavioral_model(make_spec("STACK", 8))

    def test_alu_model_lists_all_ops(self):
        text = behavioral_model(alu_spec(8))
        for op in ("ADD", "LIMPL", "ZEROP"):
            assert f"-- {op}" in text
