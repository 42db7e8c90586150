"""Compiled timing programs must match the direct graph walker
bit-for-bit -- including sequential netlists with @clk virtual-pin
arcs -- while rebuilding nothing between evaluations."""

import pytest
from reference_engine import run_matrices

from repro.core.specs import adder_spec, gate_spec, make_spec, port_signature
from repro.netlist import Netlist, TimingProgram, compile_timing, port_delay_matrix
from repro.netlist.ports import clock_port, in_port, out_port
from repro.netlist.timing import CLK_PIN, TimingCycleError


def program_matrix(netlist, delays, slot_of=None):
    program = compile_timing(netlist, slot_of=slot_of)
    return run_matrices(
        program,
        [delays(inst) for inst in _slot_representatives(program, netlist)],
    )


def _slot_representatives(program, netlist):
    """One module instance per program slot, in slot order."""
    reps = {}
    for inst, slot in zip(netlist.modules, program.module_slots):
        reps.setdefault(slot, inst)
    return [reps[slot] for slot in range(len(program.slot_keys))]


def _chain(n, delay=1.0):
    netlist = Netlist("chain")
    a = netlist.add_port(in_port("A"))
    o = netlist.add_port(out_port("O"))
    spec = gate_spec("BUF")
    prev = a
    for i in range(n):
        nxt = o if i == n - 1 else netlist.add_net(f"w{i}", 1)
        netlist.add_module(f"b{i}", spec, port_signature(spec),
                           {"I0": prev.ref(), "O": nxt.ref()})
        prev = nxt
    return netlist, lambda inst: {("I0", "O"): delay}


def _ripple16():
    netlist = Netlist("rip")
    a = netlist.add_port(in_port("A", 16))
    b = netlist.add_port(in_port("B", 16))
    s = netlist.add_port(out_port("S", 16))
    co = netlist.add_port(out_port("CO"))
    ci = netlist.add_port(in_port("CI"))
    spec = adder_spec(4)
    carry = ci
    for i in range(4):
        nxt = co if i == 3 else netlist.add_net(f"c{i}", 1)
        netlist.add_module(
            f"a{i}", spec, port_signature(spec),
            {"A": a[4 * i:4 * i + 4], "B": b[4 * i:4 * i + 4],
             "CI": carry.ref(), "S": s[4 * i:4 * i + 4], "CO": nxt.ref()},
        )
        carry = nxt
    cell = {("A", "S"): 5.0, ("B", "S"): 5.0, ("CI", "S"): 4.0,
            ("A", "CO"): 5.5, ("B", "CO"): 5.5, ("CI", "CO"): 3.0}
    return netlist, lambda inst: cell


def _registered_pipe():
    netlist = Netlist("pipe")
    a = netlist.add_port(in_port("D"))
    netlist.add_port(clock_port())
    q = netlist.add_port(out_port("Q"))
    mid = netlist.add_net("mid", 1)
    rq = netlist.add_net("rq", 1)
    buf = gate_spec("BUF")
    reg = make_spec("REG", 1)
    netlist.add_module("b0", buf, port_signature(buf),
                       {"I0": a.ref(), "O": mid.ref()})
    netlist.add_module("r0", reg, port_signature(reg),
                       {"D": mid.ref(), "CLK": netlist.port_net("CLK").ref(),
                        "Q": rq.ref()})
    netlist.add_module("b1", buf, port_signature(buf),
                       {"I0": rq.ref(), "O": q.ref()})
    delays = {
        "b0": {("I0", "O"): 2.0},
        "b1": {("I0", "O"): 3.0},
        "r0": {("D", CLK_PIN): 1.0, (CLK_PIN, "Q"): 1.5},
    }
    return netlist, lambda inst: delays[inst.name]


class TestParityWithDirectEngine:
    def test_chain(self):
        netlist, delays = _chain(5, 2.0)
        assert program_matrix(netlist, delays) == port_delay_matrix(netlist, delays)

    def test_ripple_adder(self):
        netlist, delays = _ripple16()
        assert program_matrix(netlist, delays) == port_delay_matrix(netlist, delays)

    def test_parallel_paths(self):
        netlist = Netlist("par")
        a = netlist.add_port(in_port("A"))
        o = netlist.add_port(out_port("O"))
        slow = netlist.add_net("slow", 1)
        spec2 = gate_spec("OR", 2)
        spec1 = gate_spec("BUF")
        netlist.add_module("s", spec1, port_signature(spec1),
                           {"I0": a.ref(), "O": slow.ref()})
        netlist.add_module("m", spec2, port_signature(spec2),
                           {"I0": a.ref(), "I1": slow.ref(), "O": o.ref()})
        delays = {"s": {("I0", "O"): 9.0},
                  "m": {("I0", "O"): 1.0, ("I1", "O"): 1.0}}
        fn = lambda inst: delays[inst.name]
        assert program_matrix(netlist, fn) == port_delay_matrix(netlist, fn)

    def test_sequential_clk_arcs(self):
        """@clk virtual-pin arcs: setup, clk-to-q, and the split that
        prevents a false combinational D -> Q path."""
        netlist, delays = _registered_pipe()
        matrix = program_matrix(netlist, delays)
        assert matrix == port_delay_matrix(netlist, delays)
        assert ("D", "Q") not in matrix
        assert matrix[("D", CLK_PIN)] == pytest.approx(3.0)
        assert matrix[(CLK_PIN, "Q")] == pytest.approx(4.5)

    def test_reg_to_reg_cycle_delay(self):
        netlist = Netlist("r2r")
        netlist.add_port(clock_port())
        q = netlist.add_port(out_port("Q"))
        q0 = netlist.add_net("q0", 1)
        d1 = netlist.add_net("d1", 1)
        reg = make_spec("REG", 1)
        buf = gate_spec("BUF")
        clk = netlist.port_net("CLK").ref()
        netlist.add_module("r0", reg, port_signature(reg),
                           {"D": q0.ref(), "CLK": clk, "Q": q0.ref()})
        netlist.add_module("g", buf, port_signature(buf),
                           {"I0": q0.ref(), "O": d1.ref()})
        netlist.add_module("r1", reg, port_signature(reg),
                           {"D": d1.ref(), "CLK": clk, "Q": q.ref()})
        delays = {
            "r0": {("D", CLK_PIN): 1.0, (CLK_PIN, "Q"): 2.0},
            "r1": {("D", CLK_PIN): 1.0, (CLK_PIN, "Q"): 2.0},
            "g": {("I0", "O"): 5.0},
        }
        fn = lambda inst: delays[inst.name]
        matrix = program_matrix(netlist, fn)
        assert matrix == port_delay_matrix(netlist, fn)
        assert matrix[(CLK_PIN, CLK_PIN)] == pytest.approx(8.0)

    def test_cycle_detected(self):
        netlist = Netlist("loop")
        o = netlist.add_port(out_port("O"))
        w = netlist.add_net("w", 1)
        spec = gate_spec("NOT")
        netlist.add_module("g1", spec, port_signature(spec),
                           {"I0": w.ref(), "O": o.ref()})
        netlist.add_module("g2", spec, port_signature(spec),
                           {"I0": o.ref(), "O": w.ref()})
        with pytest.raises(TimingCycleError):
            program_matrix(netlist, lambda inst: {("I0", "O"): 1.0})


class TestProgramReuse:
    def test_kernel_cached_per_arc_signature(self):
        netlist, _ = _chain(4)
        program = TimingProgram(netlist)
        keys = (("I0", "O"),)
        arcs = (keys,) * 4
        first = program.kernel(arcs).run([(1.0,)] * 4)
        second = program.kernel(arcs).run([(2.5,)] * 4)
        assert first[("A", "O")] == pytest.approx(4.0)
        assert second[("A", "O")] == pytest.approx(10.0)
        assert program.kernel_count == 1

    def test_new_signature_new_kernel(self):
        netlist, _ = _ripple16()
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        assert len(program.slot_keys) == 1  # all four blocks share a spec
        full = (("A", "CO"), ("A", "S"), ("B", "CO"), ("B", "S"),
                ("CI", "CO"), ("CI", "S"))
        sparse = (("A", "S"), ("B", "S"))
        program.kernel((full,)).run([(5.5, 5.0, 5.5, 5.0, 3.0, 4.0)])
        program.kernel((sparse,)).run([(5.0, 5.0)])
        assert program.kernel_count == 2

    def test_slot_sharing_by_spec(self):
        """With spec slots, one matrix feeds every instance of a spec --
        and results still match the per-instance walker."""
        netlist, delays = _ripple16()
        by_spec = program_matrix(netlist, delays,
                                 slot_of=lambda inst: inst.spec)
        assert by_spec == port_delay_matrix(netlist, delays)
        assert by_spec[("A", "CO")] == pytest.approx(14.5)

    def test_total_area_matches_instance_walk(self):
        netlist, _ = _ripple16()
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        # module_slots maps each instance to its slot, in instance
        # order: the walk the design space sums areas over
        assert program.module_slots == (0, 0, 0, 0)
        areas_by_slot = [102.5]
        assert sum(areas_by_slot[slot] for slot in program.module_slots) \
            == pytest.approx(4 * 102.5)
