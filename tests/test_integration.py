"""Integration tests: the full Figure-1 flow, end to end.

Behavioral program -> HLS (schedule/allocate/bind) -> GENUS netlist +
state table -> DTAS (functional decomposition + technology mapping into
the LSI library) -> control compiler -> everything verified by
simulation against the behavioral intent.
"""

import math

import pytest

from repro.control import compile_controller
from repro.control.compiler import ControllerSimulator
from repro.api import Session
from repro.core.specs import alu_spec
from repro.hls import Assign, If, Program, While, hls_synthesize
from repro.hls.synthesize import FsmdSimulator
from repro.sim import check_combinational
from repro.sim.simulator import NetlistSimulator, TreeComponent
from repro.techlib import lsi_logic_library
from repro.vhdl import check_vhdl, design_tree_vhdl, netlist_vhdl


def gcd_program():
    p = Program("gcd", width=8)
    a_in = p.input("a_in")
    b_in = p.input("b_in")
    a = p.variable("a")
    b = p.variable("b")
    p.output("result", a)
    p.body = [
        Assign(a, a_in),
        Assign(b, b_in),
        While(a.ne(b), [
            If(a.gt(b), [Assign(a, a - b)], [Assign(b, b - a)]),
        ]),
    ]
    return p


@pytest.fixture(scope="module")
def flow():
    hls = hls_synthesize(gcd_program())
    session = Session(lsi_logic_library())
    mapped = session.synthesize(hls.datapath.netlist).result
    controller = compile_controller(hls.state_table)
    return hls, session, mapped, controller


class TestFigure1Flow:
    def test_datapath_maps_into_library(self, flow):
        hls, session, mapped, controller = flow
        assert len(mapped) >= 1
        assert mapped.smallest().area > 0

    def test_mapped_datapath_behaves_like_generic(self, flow):
        """Map every module of the datapath, then run the FSMD with
        mapped components in place of generic ones."""
        hls, session, mapped, controller = flow
        config = mapped.smallest().config

        def component_for(inst):
            tree = session.space.materialize(inst.spec, config)
            return TreeComponent(tree)

        mapped_sim = NetlistSimulator(hls.datapath.netlist, component_for)
        generic_sim = NetlistSimulator(hls.datapath.netlist)

        table = hls.state_table
        m_state = mapped_sim.reset()
        g_state = generic_sim.reset()
        state_name = table.reset_state
        inputs = {"a_in": 84, "b_in": 36}
        for _ in range(60):
            row = table.row(state_name)
            controls = {s.name: row.assertions.get(s.name, s.default)
                        for s in table.signals}
            stimulus = dict(inputs)
            stimulus.update(controls)
            g_out = generic_sim.outputs(stimulus, g_state)
            m_out = mapped_sim.outputs(stimulus, m_state)
            assert g_out == m_out, f"divergence in state {state_name}"
            g_state = generic_sim.next_state(stimulus, g_state)
            m_state = mapped_sim.next_state(stimulus, m_state)
            t = row.transition
            if t.kind == "goto":
                state_name = t.next_state
            elif t.kind == "branch":
                taken = bool(g_out[t.status]) == t.polarity
                state_name = t.if_true if taken else t.if_false
            else:
                break
        assert g_out["result"] == math.gcd(84, 36)

    def test_gate_controller_drives_gcd(self, flow):
        hls, session, mapped, controller = flow
        dp = NetlistSimulator(hls.datapath.netlist)
        dp_state = dp.reset()
        csim = ControllerSimulator(controller)
        inputs = {"a_in": 126, "b_in": 72}
        for _ in range(200):
            controls = csim.outputs({s: 0 for s in hls.state_table.statuses})
            stimulus = dict(inputs)
            stimulus.update({s.name: controls[s.name]
                             for s in hls.state_table.signals})
            outs = dp.outputs(stimulus, dp_state)
            if controls["DONE"]:
                assert outs["result"] == math.gcd(126, 72)
                return
            statuses = {s: outs[s] for s in hls.state_table.statuses}
            dp_state = dp.next_state(stimulus, dp_state)
            csim.cycle(statuses)
        raise AssertionError("controller never reached DONE")

    def test_vhdl_of_both_sides(self, flow):
        hls, session, mapped, controller = flow
        dp_text = netlist_vhdl(hls.datapath.netlist)
        check_vhdl(dp_text)
        ctrl_text = netlist_vhdl(controller.netlist)
        check_vhdl(ctrl_text)

    def test_figure3_experiment_shape(self):
        """The headline experiment, asserted at test scale (16-bit):
        multiple alternatives, big delay span, cheap mid points."""
        session = Session(lsi_logic_library(),
                          perf_filter="tradeoff:0.05")
        spec = alu_spec(16)
        result = session.synthesize(spec).result
        assert len(result) >= 3
        base = result.smallest()
        fastest = result.fastest()
        reduction = (base.delay - fastest.delay) / base.delay
        assert reduction > 0.5
        check_combinational(spec, base.tree(), vectors=20).assert_ok()
        check_combinational(spec, fastest.tree(), vectors=20).assert_ok()

    def test_full_system_report(self, flow):
        hls, session, mapped, controller = flow
        assert "controller" in controller.report()
        assert hls.report()
        vhdl = design_tree_vhdl(
            session.synthesize(alu_spec(8)).result.smallest().tree())
        assert check_vhdl(vhdl)["entities"] >= 2
