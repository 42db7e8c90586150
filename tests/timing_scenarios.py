"""Hand-built timing scenarios shared by the timing tests.

Each builder returns ``(netlist, delays)``, where ``delays(instance)``
is the delay matrix that instance weighs.  ``tests/test_timing.py``
checks hand-worked numbers on them through the production kernels;
``tests/test_timing_program.py`` checks the compiled programs against
the direct oracle ``reference_engine.port_delay_matrix`` on the same
netlists.
"""

from repro.core.specs import adder_spec, gate_spec, make_spec, port_signature
from repro.netlist import Netlist
from repro.netlist.ports import clock_port, in_port, out_port
from repro.netlist.timing_program import CLK_PIN

#: The per-block delays of :func:`ripple16`'s 4-bit adders.
RIPPLE_BLOCK = {("A", "S"): 5.0, ("B", "S"): 5.0, ("CI", "S"): 4.0,
                ("A", "CO"): 5.5, ("B", "CO"): 5.5, ("CI", "CO"): 3.0}


def chain(n, delay=1.0):
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
    return netlist, lambda inst: {("I0", "O"): delay}


def parallel_paths():
    """A -> OR directly, and A -> a 9 ns buffer -> OR: the slow path
    sets A -> O."""
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
    return netlist, lambda inst: delays[inst.name]


def ripple16():
    """Four 4-bit adders rippled through their carries, every block
    weighing :data:`RIPPLE_BLOCK`."""
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
    return netlist, lambda inst: RIPPLE_BLOCK


def registered_pipe():
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
    return netlist, lambda inst: delays[inst.name]


def reg_to_reg():
    """reg -> buf -> reg: the register-to-register path that bounds
    the clock period."""
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
    return netlist, lambda inst: delays[inst.name]


def not_loop():
    """Two inverters in a combinational loop: a timing cycle."""
    netlist = Netlist("loop")
    o = netlist.add_port(out_port("O"))
    w = netlist.add_net("w", 1)
    spec = gate_spec("NOT")
    netlist.add_module("g1", spec, port_signature(spec),
                       {"I0": w.ref(), "O": o.ref()})
    netlist.add_module("g2", spec, port_signature(spec),
                       {"I0": o.ref(), "O": w.ref()})
    return netlist, lambda inst: {("I0", "O"): 1.0}
