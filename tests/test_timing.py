"""Hand-worked delays from the production timing engine.

Each scenario runs one compiled kernel of a
:class:`~repro.netlist.TimingProgram` through ``run_batch``, the call
the design space makes; ``tests/test_timing_program.py`` checks the
same scenarios against the direct oracle in ``reference_engine``.
"""

from types import SimpleNamespace

import pytest

from repro.core.specs import adder_spec, gate_spec, make_spec, port_signature
from repro.netlist import Netlist, TimingCycleError, compile_timing
from repro.netlist.ports import clock_port, in_port, out_port
from repro.netlist.timing_program import CLK_PIN


def engine_delays(netlist, delays):
    """``(delay matrix, worst delay)`` of one row that gives each
    instance the delay matrix ``delays(instance)``."""
    program = compile_timing(netlist)
    items = [tuple(sorted(delays(inst).items())) for inst in netlist.modules]
    kernel = program.kernel(tuple(tuple(k for k, _ in it) for it in items))
    row = [SimpleNamespace(area=0.0, delay_values=tuple(v for _, v in it))
           for it in items]
    [(_, worst, values)] = kernel.run_batch([row], 1)
    return dict(zip(kernel.keys, values)), worst


def delay_matrix(netlist, delays):
    return engine_delays(netlist, delays)[0]


def _chain(n, delay=1.0):
    """n buffers in a row, each with the given delay."""
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
    delays = lambda inst: {("I0", "O"): delay}
    return netlist, delays


class TestCombinational:
    def test_chain_accumulates(self):
        netlist, delays = _chain(5, 2.0)
        matrix = delay_matrix(netlist, delays)
        assert matrix[("A", "O")] == pytest.approx(10.0)

    def test_single_module(self):
        netlist, delays = _chain(1, 3.5)
        assert delay_matrix(netlist, delays)[("A", "O")] == pytest.approx(3.5)

    def test_parallel_paths_take_max(self):
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
        delays = {"s": {("I0", "O"): 9.0}, "m": {("I0", "O"): 1.0, ("I1", "O"): 1.0}}
        matrix = delay_matrix(netlist, lambda i: delays[i.name])
        assert matrix[("A", "O")] == pytest.approx(10.0)

    def test_ripple_adder_carry_chain(self):
        """Four 4-bit adders rippled: CI->CO chains dominate."""
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
        matrix = delay_matrix(netlist, lambda i: cell)
        # A -> CO of last block: 5.5 + 3*3.0
        assert matrix[("A", "CO")] == pytest.approx(14.5)
        # A -> S through the chain: 5.5 + 2*3 + 4.0
        assert matrix[("A", "S")] == pytest.approx(15.5)

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
            delay_matrix(netlist, lambda i: {("I0", "O"): 1.0})


class TestSequential:
    def _registered_pipe(self):
        """in -> buf -> reg -> buf -> out"""
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
        return netlist, lambda i: delays[i.name]

    def test_register_breaks_path(self):
        netlist, delays = self._registered_pipe()
        matrix = delay_matrix(netlist, delays)
        assert ("D", "Q") not in matrix

    def test_setup_and_clk_to_q_arcs(self):
        netlist, delays = self._registered_pipe()
        matrix = delay_matrix(netlist, delays)
        assert matrix[("D", CLK_PIN)] == pytest.approx(3.0)   # 2.0 + setup
        assert matrix[(CLK_PIN, "Q")] == pytest.approx(4.5)   # clk_to_q + 3.0

    def test_reg_to_reg_cycle_delay(self):
        """reg -> logic -> reg measures the clock-period bound."""
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
        matrix = delay_matrix(netlist, lambda i: delays[i.name])
        assert matrix[(CLK_PIN, CLK_PIN)] == pytest.approx(8.0)  # 2 + 5 + 1
        assert all(CLK_PIN in pair for pair in matrix)  # no port-to-port path

    def test_no_false_d_to_q_through_clk(self):
        """Splitting the virtual pin prevents D->@clk->Q chaining."""
        netlist, delays = self._registered_pipe()
        matrix, worst = engine_delays(netlist, delays)
        assert worst == max(matrix.values())
        assert worst < 2.0 + 1.0 + 1.5 + 3.0

