"""Structural well-formedness checks for netlists.

``validate_netlist`` is called on every netlist a DTAS rule produces
(once per process, when the rule cache entry is built) and on every
netlist HLS emits.  It catches the classic wiring bugs: width
mismatches, floating input pins, multiply-driven bits, and constants
driving output pins.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.netlist.nets import Endpoint, Net, endpoint_bits, endpoint_masks
from repro.netlist.netlist import Netlist, NetlistError


def _undriven_bits(endpoint: Endpoint,
                   drivers: Dict[int, int]) -> Sequence[Tuple[Net, int]]:
    """The net bits ``endpoint`` reads that have no driver, LSB first."""
    for net, mask in endpoint_masks(endpoint):
        if net is not None and mask & ~drivers.get(id(net), 0):
            return [atom for atom in endpoint_bits(endpoint)
                    if atom is not None
                    and not drivers.get(id(atom[0]), 0) >> atom[1] & 1]
    return ()


def validate_netlist(netlist: Netlist, require_driven_outputs: bool = True) -> None:
    """Raise :class:`NetlistError` if the netlist is malformed.

    Checks performed:

    1. every module input pin is connected, with matching width;
    2. module output pins connect only to net slices (no constants);
    3. no net bit has more than one driver;
    4. every net bit read by a module input pin or an output port has
       exactly one driver (when ``require_driven_outputs``);
    5. port names are unique and port widths match their backing nets.

    Driven bits are kept as one bitmask per net.  Messages are built
    only where a check fails: an endpoint that clashes with an earlier
    driver takes back its mask writes and re-adds its bits one at a
    time, naming the first driver of each clashing bit.
    """
    problems: List[str] = []
    port_names = [p.name for p in netlist.ports]
    if len(port_names) != len(set(port_names)):
        problems.append("duplicate port names")

    drivers: Dict[int, int] = {}  # id(net) -> mask of driven bits
    driven: List[Tuple[Endpoint, str]] = []  # every driver, in order

    def first_driver(net: Net, bit: int, who: str) -> str:
        for endpoint, earlier in driven:
            if (net, bit) in endpoint_bits(endpoint):
                return earlier
        return who  # the bit repeats inside ``who``'s own endpoint

    def drive(endpoint: Endpoint, who: str) -> bool:
        """Add a driver's bits; False, adding nothing, on a constant."""
        written: List[Tuple[int, int]] = []
        clash = constant = False
        for net, mask in endpoint_masks(endpoint):
            if net is None:
                constant = True
                break
            key = id(net)
            existing = drivers.get(key, 0)
            clash = clash or bool(existing & mask)
            written.append((key, existing))
            drivers[key] = existing | mask
        if not (clash or constant):
            driven.append((endpoint, who))
            return True
        for key, existing in reversed(written):
            drivers[key] = existing
        if constant:
            return False
        for net, bit in endpoint_bits(endpoint):
            key = id(net)
            existing = drivers.get(key, 0)
            if existing >> bit & 1:
                problems.append(
                    f"net {net.name!r} bit {bit} driven by both "
                    f"{first_driver(net, bit, who)} and {who}"
                )
            else:
                drivers[key] = existing | 1 << bit
        driven.append((endpoint, who))
        return True

    for port in netlist.ports:
        backing = netlist.port_net(port.name)
        if backing.width != port.width:
            problems.append(f"port {port.name!r} width {port.width} != backing net width {backing.width}")
    for port in netlist.input_ports():
        drive(netlist.port_net(port.name).ref(), f"input port {port.name}")

    reads = []
    for inst in netlist.modules:
        for pin in inst.ports:
            endpoint = inst.connections.get(pin.name)
            if endpoint is None:
                if pin.is_input:
                    problems.append(f"module {inst.name!r}: input pin {pin.name!r} unconnected")
                continue  # dangling outputs are allowed
            if endpoint.width != pin.width:
                problems.append(
                    f"module {inst.name!r} pin {pin.name!r}: width mismatch "
                    f"(pin {pin.width}, endpoint {endpoint.width})"
                )
            elif pin.is_input:
                reads.append((endpoint, inst.name, pin.name))
            elif not drive(endpoint, f"{inst.name}.{pin.name}"):
                problems.append(
                    f"module {inst.name!r}: output pin {pin.name!r} wired to a constant"
                )

    for endpoint, inst_name, pin_name in reads:
        for net, bit in _undriven_bits(endpoint, drivers):
            problems.append(f"module {inst_name!r} pin {pin_name!r} "
                            f"reads undriven net {net.name!r} bit {bit}")
    if require_driven_outputs:
        for port in netlist.output_ports():
            for net, bit in _undriven_bits(netlist.port_net(port.name).ref(), drivers):
                problems.append(f"output port {port.name!r} reads undriven net {net.name!r} bit {bit}")

    if problems:
        raise NetlistError(netlist.name, problems)
