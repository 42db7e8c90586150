"""Unit tests for ports, module instances, netlists, and validation."""

import pytest

from repro.core.specs import gate_spec, make_spec, port_signature
from repro.netlist import (
    Concat,
    Const,
    Direction,
    Net,
    Netlist,
    NetlistError,
    PinKind,
    Port,
    validate_netlist,
)
from repro.netlist.ports import clock_port, control_port, in_port, out_port


class TestPort:
    def test_validation(self):
        with pytest.raises(ValueError):
            Port("", 1, Direction.IN)
        with pytest.raises(ValueError):
            Port("a", 0, Direction.IN)

    def test_helpers(self):
        assert in_port("A", 4).is_input
        assert out_port("O").is_output
        assert clock_port().kind is PinKind.CLOCK
        assert control_port("S", 2).kind is PinKind.CONTROL

    def test_sequential_boundary(self):
        assert clock_port().is_sequential_boundary
        assert not in_port("A").is_sequential_boundary

    def test_flipped(self):
        assert Direction.IN.flipped() is Direction.OUT

    def test_describe(self):
        assert "A[4] in" in in_port("A", 4).describe()


class TestNetlistConstruction:
    def test_ports_get_backing_nets(self):
        netlist = Netlist("t")
        net = netlist.add_port(in_port("A", 4))
        assert netlist.port_net("A") is net
        assert net.width == 4

    def test_duplicate_port_rejected(self):
        netlist = Netlist("t")
        netlist.add_port(in_port("A"))
        with pytest.raises(ValueError):
            netlist.add_port(out_port("A"))

    def test_net_names_uniquified(self):
        netlist = Netlist("t")
        a1 = netlist.add_net("x", 1)
        a2 = netlist.add_net("x", 1)
        assert a1.name != a2.name

    def test_module_names_uniquified(self):
        netlist = Netlist("t")
        spec = gate_spec("NOT")
        m1 = netlist.add_module("g", spec, port_signature(spec))
        m2 = netlist.add_module("g", spec, port_signature(spec))
        assert m1.name != m2.name

    def test_connect_width_mismatch(self):
        netlist = Netlist("t")
        spec = gate_spec("NOT", width=4)
        inst = netlist.add_module("g", spec, port_signature(spec))
        wrong = netlist.add_net("w", 2)
        with pytest.raises(ValueError):
            inst.connect("I0", wrong.ref())

    def test_unknown_pin(self):
        netlist = Netlist("t")
        spec = gate_spec("NOT")
        inst = netlist.add_module("g", spec, port_signature(spec))
        with pytest.raises(KeyError):
            inst.port("NOPE")


def _inverter_netlist():
    netlist = Netlist("inv_wrap")
    a = netlist.add_port(in_port("A"))
    o = netlist.add_port(out_port("O"))
    spec = gate_spec("NOT")
    netlist.add_module("g", spec, port_signature(spec),
                       {"I0": a.ref(), "O": o.ref()})
    return netlist


class TestValidate:
    def test_clean_passes(self):
        validate_netlist(_inverter_netlist())

    def test_unconnected_input(self):
        netlist = Netlist("t")
        netlist.add_port(out_port("O"))
        spec = gate_spec("NOT")
        netlist.add_module("g", spec, port_signature(spec),
                           {"O": netlist.port_net("O").ref()})
        with pytest.raises(NetlistError, match="unconnected"):
            validate_netlist(netlist)

    def test_undriven_output_port(self):
        netlist = Netlist("t")
        netlist.add_port(out_port("O"))
        with pytest.raises(NetlistError, match="undriven"):
            validate_netlist(netlist)
        validate_netlist(netlist, require_driven_outputs=False)

    def test_double_driver(self):
        netlist = Netlist("t")
        a = netlist.add_port(in_port("A"))
        o = netlist.add_port(out_port("O"))
        spec = gate_spec("NOT")
        for name in ("g1", "g2"):
            netlist.add_module(name, spec, port_signature(spec),
                               {"I0": a.ref(), "O": o.ref()})
        with pytest.raises(NetlistError, match="driven by both"):
            validate_netlist(netlist)

    def test_const_on_output_pin(self):
        netlist = Netlist("t")
        a = netlist.add_port(in_port("A"))
        spec = gate_spec("NOT")
        inst = netlist.add_module("g", spec, port_signature(spec))
        inst.connect("I0", a.ref())
        inst.connections["O"] = Const(0, 1)
        with pytest.raises(NetlistError, match="constant"):
            validate_netlist(netlist)

    def test_width_mismatch_reported(self):
        netlist = Netlist("t")
        a = netlist.add_port(in_port("A", 2))
        spec = gate_spec("NOT", width=2)
        inst = netlist.add_module("g", spec, port_signature(spec))
        inst.connections["I0"] = a[0]  # bypass connect() check
        with pytest.raises(NetlistError, match="width mismatch"):
            validate_netlist(netlist)

    def test_error_lists_all_problems(self):
        netlist = Netlist("t")
        netlist.add_port(out_port("O", 2))
        spec = gate_spec("NOT")
        netlist.add_module("g", spec, port_signature(spec))
        try:
            validate_netlist(netlist)
            raise AssertionError("expected NetlistError")
        except NetlistError as err:
            assert len(err.problems) >= 2


def _not_gate(netlist, name, width=1, **connections):
    """A NOT gate whose pins are set directly, skipping connect()'s
    width check, so malformed wiring reaches the validator."""
    spec = gate_spec("NOT", width=width)
    inst = netlist.add_module(name, spec, port_signature(spec))
    inst.connections.update(connections)
    return inst


def _unconnected_input():
    netlist = Netlist("t")
    o = netlist.add_port(out_port("O"))
    _not_gate(netlist, "g", O=o.ref())
    return netlist


def _input_width_mismatch():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A", 2))
    o = netlist.add_port(out_port("O", 2))
    _not_gate(netlist, "g", 2, I0=a[0], O=o.ref())
    return netlist


def _output_width_mismatch():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A", 2))
    o = netlist.add_port(out_port("O", 2))
    _not_gate(netlist, "g", 2, I0=a.ref(), O=o[0])
    return netlist


def _output_port_width_mismatch():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A"))
    o = netlist.add_port(out_port("O"))
    _not_gate(netlist, "g", I0=a.ref(), O=o.ref())
    netlist.ports[1] = out_port("O", 3)  # re-declared over the 1-bit net
    return netlist


def _const_in_concat_output():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A", 2))
    o = netlist.add_port(out_port("O"))
    _not_gate(netlist, "g", 2, I0=a.ref(), O=Concat((o.ref(), Const(0))))
    return netlist


def _three_drivers():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A"))
    o = netlist.add_port(out_port("O"))
    for name in ("g1", "g2", "g3"):
        _not_gate(netlist, name, I0=a.ref(), O=o.ref())
    return netlist


def _drives_input_port():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A", 2))
    o = netlist.add_port(out_port("O", 2))
    _not_gate(netlist, "g", 2, I0=a.ref(), O=Concat((o[0], a[1])))
    return netlist


def _duplicate_bit_in_endpoint():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A", 2))
    o = netlist.add_port(out_port("O", 2))
    _not_gate(netlist, "g", 2, I0=a.ref(), O=Concat((o[0], o[0])))
    return netlist


def _partially_undriven_slice():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A", 4))
    o = netlist.add_port(out_port("O", 4))
    w = netlist.add_net("w", 4)
    _not_gate(netlist, "lo", 2, I0=a[0:2], O=w[0:2])
    _not_gate(netlist, "r", 4, I0=w.ref(), O=o.ref())
    return netlist


def _undriven_output_port():
    netlist = Netlist("t")
    netlist.add_port(out_port("O", 2))
    return netlist


def _several_errors():
    netlist = Netlist("t")
    a = netlist.add_port(in_port("A"))
    o = netlist.add_port(out_port("O"))
    netlist.add_port(out_port("P", 2))
    w = netlist.add_net("w", 1)
    x = netlist.add_net("x", 2)
    _not_gate(netlist, "g1", O=o.ref())
    _not_gate(netlist, "g2", I0=a.ref(), O=o.ref())
    _not_gate(netlist, "g3", 2, I0=a.ref(), O=x.ref())
    _not_gate(netlist, "g4", 2, I0=Concat((w.ref(), a.ref())),
              O=Concat((netlist.port_net("P")[1], Const(1))))
    netlist.ports.append(netlist.ports[0])
    return netlist


# Exact NetlistError.problems lists, in order: the messages and their
# order are part of the validator's contract.
EXACT_PROBLEMS = [
    ("unconnected_input", _unconnected_input, True,
     ["module 'g': input pin 'I0' unconnected"]),
    ("input_width_mismatch", _input_width_mismatch, True,
     ["module 'g' pin 'I0': width mismatch (pin 2, endpoint 1)"]),
    ("output_width_mismatch", _output_width_mismatch, True,
     ["module 'g' pin 'O': width mismatch (pin 2, endpoint 1)",
      "output port 'O' reads undriven net 'O' bit 0",
      "output port 'O' reads undriven net 'O' bit 1"]),
    ("output_port_width_mismatch", _output_port_width_mismatch, True,
     ["port 'O' width 3 != backing net width 1"]),
    ("const_in_concat_output", _const_in_concat_output, True,
     ["module 'g': output pin 'O' wired to a constant",
      "output port 'O' reads undriven net 'O' bit 0"]),
    ("second_and_third_driver", _three_drivers, True,
     ["net 'O' bit 0 driven by both g1.O and g2.O",
      "net 'O' bit 0 driven by both g1.O and g3.O"]),
    ("drives_input_port", _drives_input_port, True,
     ["net 'A' bit 1 driven by both input port A and g.O",
      "output port 'O' reads undriven net 'O' bit 1"]),
    ("duplicate_bit_in_endpoint", _duplicate_bit_in_endpoint, True,
     ["net 'O' bit 0 driven by both g.O and g.O",
      "output port 'O' reads undriven net 'O' bit 1"]),
    ("partially_undriven_slice", _partially_undriven_slice, True,
     ["module 'r' pin 'I0' reads undriven net 'w' bit 2",
      "module 'r' pin 'I0' reads undriven net 'w' bit 3"]),
    ("undriven_output_required", _undriven_output_port, True,
     ["output port 'O' reads undriven net 'O' bit 0",
      "output port 'O' reads undriven net 'O' bit 1"]),
    ("undriven_output_allowed", _undriven_output_port, False, []),
    ("several_errors", _several_errors, True,
     ["duplicate port names",
      "net 'A' bit 0 driven by both input port A and input port A",
      "module 'g1': input pin 'I0' unconnected",
      "net 'O' bit 0 driven by both g1.O and g2.O",
      "module 'g3' pin 'I0': width mismatch (pin 2, endpoint 1)",
      "module 'g4': output pin 'O' wired to a constant",
      "module 'g4' pin 'I0' reads undriven net 'w' bit 0",
      "output port 'P' reads undriven net 'P' bit 0",
      "output port 'P' reads undriven net 'P' bit 1"]),
    ("several_errors_outputs_optional", _several_errors, False,
     ["duplicate port names",
      "net 'A' bit 0 driven by both input port A and input port A",
      "module 'g1': input pin 'I0' unconnected",
      "net 'O' bit 0 driven by both g1.O and g2.O",
      "module 'g3' pin 'I0': width mismatch (pin 2, endpoint 1)",
      "module 'g4': output pin 'O' wired to a constant",
      "module 'g4' pin 'I0' reads undriven net 'w' bit 0"]),
]


@pytest.mark.parametrize(
    "build,require_driven_outputs,expected",
    [case[1:] for case in EXACT_PROBLEMS],
    ids=[case[0] for case in EXACT_PROBLEMS],
)
def test_validate_exact_problems(build, require_driven_outputs, expected):
    netlist = build()
    if not expected:
        validate_netlist(netlist, require_driven_outputs)
        return
    with pytest.raises(NetlistError) as info:
        validate_netlist(netlist, require_driven_outputs)
    assert info.value.problems == expected
