"""Structural well-formedness checks for netlists.

``validate_netlist`` is called on every netlist a DTAS rule produces (in
tests and, cheaply, at expansion time) and on every netlist HLS emits.
It catches the classic wiring bugs: width mismatches, floating input
pins, multiply-driven bits, and constants driving output pins.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.nets import (
    Net,
    const_bits,
    endpoint_bits,
    endpoint_masks,
    endpoint_width,
)
from repro.netlist.netlist import ModuleInst, Netlist


class NetlistError(Exception):
    """A structural problem in a netlist; the message lists every issue."""

    def __init__(self, netlist_name: str, problems: List[str]) -> None:
        self.netlist_name = netlist_name
        self.problems = problems
        listing = "\n  - ".join(problems)
        super().__init__(f"netlist {netlist_name!r} has {len(problems)} problem(s):\n  - {listing}")


def _contains_const(endpoint) -> bool:
    return any(bit is not None for bit in const_bits(endpoint))


def _add_driver_masks(endpoint, drivers: Dict[int, int]) -> Tuple[bool, bool]:
    """Fold an output endpoint's bits into per-net driver bitmasks.

    Returns ``(has_const_bit, clash)`` where ``clash`` is True when any
    bit was already driven (including duplicates inside this endpoint).
    """
    has_const = clash = False
    for net, mask in endpoint_masks(endpoint):
        if net is None:
            has_const = True
            continue
        key = id(net)
        existing = drivers.get(key, 0)
        if existing & mask:
            clash = True
        drivers[key] = existing | mask
    return has_const, clash


def _read_undriven(endpoint, drivers: Dict[int, int]) -> bool:
    """True when the endpoint reads any net bit with no driver."""
    return any(
        net is not None and mask & ~drivers.get(id(net), 0)
        for net, mask in endpoint_masks(endpoint)
    )


def _netlist_is_clean(netlist: Netlist, require_driven_outputs: bool) -> bool:
    """Bitmask fast pass over exactly the conditions the slow pass
    reports.  Returns True when the netlist is provably well-formed;
    any suspected problem returns False and the caller re-runs the
    per-bit pass to produce the exact messages."""
    port_names = [p.name for p in netlist.ports]
    if len(port_names) != len(set(port_names)):
        return False

    drivers: Dict[int, int] = {}
    for port in netlist.input_ports():
        backing = netlist.port_net(port.name)
        if backing.width != port.width:
            return False
        key = id(backing)
        mask = (1 << backing.width) - 1
        if drivers.get(key, 0) & mask:
            return False
        drivers[key] = drivers.get(key, 0) | mask

    reads: List = []
    for inst in netlist.modules:
        for pin in inst.ports:
            endpoint = inst.connections.get(pin.name)
            if endpoint is None:
                if pin.is_input:
                    return False
                continue  # dangling outputs are allowed
            if endpoint_width(endpoint) != pin.width:
                return False
            if pin.is_output:
                has_const, clash = _add_driver_masks(endpoint, drivers)
                if has_const or clash:
                    return False
            else:
                reads.append(endpoint)

    for endpoint in reads:
        if _read_undriven(endpoint, drivers):
            return False
    if require_driven_outputs:
        for port in netlist.output_ports():
            backing = netlist.port_net(port.name)
            mask = (1 << backing.width) - 1
            if mask & ~drivers.get(id(backing), 0):
                return False
    return True


def validate_netlist(netlist: Netlist, require_driven_outputs: bool = True) -> None:
    """Raise :class:`NetlistError` if the netlist is malformed.

    Checks performed:

    1. every module input pin is connected, with matching width;
    2. module output pins connect only to net slices (no constants);
    3. no net bit has more than one driver;
    4. every net bit read by a module input pin or an output port has
       exactly one driver (when ``require_driven_outputs``);
    5. port names are unique and port widths match their backing nets.

    A bitmask-based fast pass handles the (overwhelmingly common) clean
    case without per-bit bookkeeping; only netlists with a suspected
    problem take the per-bit pass that assembles exact messages.
    """
    if _netlist_is_clean(netlist, require_driven_outputs):
        return
    problems: List[str] = []

    port_names = [p.name for p in netlist.ports]
    if len(port_names) != len(set(port_names)):
        problems.append("duplicate port names")

    # Per-bit driver census.  Keyed by (id(net), bit).
    driver_count: Dict[Tuple[int, int], int] = {}
    driver_who: Dict[Tuple[int, int], str] = {}

    def add_driver(net: Net, bit: int, who: str) -> None:
        key = (id(net), bit)
        driver_count[key] = driver_count.get(key, 0) + 1
        if driver_count[key] > 1:
            problems.append(
                f"net {net.name!r} bit {bit} driven by both "
                f"{driver_who[key]} and {who}"
            )
        else:
            driver_who[key] = who

    for port in netlist.input_ports():
        backing = netlist.port_net(port.name)
        if backing.width != port.width:
            problems.append(f"port {port.name!r} width {port.width} != backing net width {backing.width}")
        for bit in range(backing.width):
            add_driver(backing, bit, f"input port {port.name}")

    for inst in netlist.modules:
        for pin in inst.ports:
            endpoint = inst.connections.get(pin.name)
            if endpoint is None:
                if pin.is_input:
                    problems.append(f"module {inst.name!r}: input pin {pin.name!r} unconnected")
                continue  # dangling outputs are allowed
            if endpoint_width(endpoint) != pin.width:
                problems.append(
                    f"module {inst.name!r} pin {pin.name!r}: width mismatch "
                    f"(pin {pin.width}, endpoint {endpoint_width(endpoint)})"
                )
                continue
            if pin.is_output:
                if _contains_const(endpoint):
                    problems.append(
                        f"module {inst.name!r}: output pin {pin.name!r} wired to a constant"
                    )
                    continue
                for bit_index, atom in enumerate(endpoint_bits(endpoint)):
                    if atom is not None:
                        add_driver(atom[0], atom[1], f"{inst.name}.{pin.name}")

    # Readers: module input pins and netlist output ports.
    def check_read(endpoint, who: str) -> None:
        for atom, cbit in zip(endpoint_bits(endpoint), const_bits(endpoint)):
            if cbit is not None:
                continue
            net, bit = atom
            if driver_count.get((id(net), bit), 0) == 0:
                problems.append(f"{who} reads undriven net {net.name!r} bit {bit}")

    for inst in netlist.modules:
        for pin in inst.input_pins():
            endpoint = inst.connections.get(pin.name)
            if endpoint is not None and endpoint_width(endpoint) == pin.width:
                check_read(endpoint, f"module {inst.name!r} pin {pin.name!r}")

    if require_driven_outputs:
        for port in netlist.output_ports():
            backing = netlist.port_net(port.name)
            check_read(backing.ref(), f"output port {port.name!r}")

    if problems:
        raise NetlistError(netlist.name, problems)
