"""Module instances and hierarchical netlists.

A :class:`Netlist` is one level of structure: named ports, internal
nets, and a list of :class:`ModuleInst`.  Each module instance carries
its own port signature and a connection map from pin names to endpoints.

The *meaning* of a module (its component specification) is stored as an
opaque ``spec`` object -- in this reproduction it is always a
``repro.core.specs.ComponentSpec`` -- so the netlist substrate has no
dependency on DTAS.

:meth:`Netlist.freeze` makes a finished netlist read-only: its port,
net and module lists become tuples, every instance's connection map a
read-only mapping, and every structural mutator raises
:class:`NetlistError`.  The design space freezes each rule netlist
before sharing it process-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.netlist.nets import Endpoint, Net, endpoint_width
from repro.netlist.ports import Direction, Port


class NetlistError(Exception):
    """A structural problem in a netlist; the message lists every issue."""

    def __init__(self, netlist_name: str, problems: List[str]) -> None:
        self.netlist_name = netlist_name
        self.problems = problems
        listing = "\n  - ".join(problems)
        super().__init__(f"netlist {netlist_name!r} has {len(problems)} problem(s):\n  - {listing}")


@dataclass
class ModuleInst:
    """An instance of a component inside a netlist.

    ``ports`` is the instance's full port signature; ``connections``
    maps pin names to endpoints in the enclosing netlist.
    """

    name: str
    spec: object
    ports: Tuple[Port, ...]
    connections: Dict[str, Endpoint] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._ports_by_name = {p.name: p for p in self.ports}
        if len(self._ports_by_name) != len(self.ports):
            raise ValueError(f"module {self.name!r}: duplicate pin names")

    def port(self, pin: str) -> Port:
        """Look up a pin by name."""
        port = self._ports_by_name.get(pin)
        if port is None:
            raise KeyError(f"module {self.name!r} has no pin {pin!r}")
        return port

    def connect(self, pin: str, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` to ``pin``, checking the width; a frozen
        instance raises :class:`NetlistError`."""
        if type(self.connections) is MappingProxyType:
            raise NetlistError(self.name,
                               [f"frozen: cannot connect pin {pin!r}"])
        port = self.port(pin)
        if endpoint_width(endpoint) != port.width:
            raise ValueError(
                f"module {self.name!r} pin {pin!r}: width mismatch "
                f"(pin {port.width}, endpoint {endpoint_width(endpoint)})"
            )
        self.connections[pin] = endpoint

    def input_pins(self) -> Iterable[Port]:
        return (p for p in self.ports if p.is_input)

    def output_pins(self) -> Iterable[Port]:
        return (p for p in self.ports if p.is_output)


class Netlist:
    """One level of structural hierarchy.

    Every netlist port is backed by an internal net of the same name and
    width, so rule code can treat ports and internal wiring uniformly:
    ``netlist.port_net("A")`` is a :class:`Net` that module pins connect
    to.
    """

    def __init__(self, name: str, doc: str = "") -> None:
        self.name = name
        self.doc = doc
        #: Lists while the netlist is built; tuples once it is frozen.
        self.ports: List[Port] = []
        self.nets: List[Net] = []
        self.modules: List[ModuleInst] = []
        self.frozen = False
        self._port_nets: Dict[str, Net] = {}
        self._nets_by_name: Dict[str, Net] = {}
        self._modules_by_name: Dict[str, ModuleInst] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Make the netlist read-only (idempotent): the port, net and
        module lists become tuples, each instance's connections a
        read-only mapping, and :meth:`add_port`, :meth:`add_net`,
        :meth:`add_module` and :meth:`ModuleInst.connect` raise
        :class:`NetlistError`."""
        if self.frozen:
            return
        self.ports = tuple(self.ports)
        self.nets = tuple(self.nets)
        self.modules = tuple(self.modules)
        for inst in self.modules:
            inst.connections = MappingProxyType(inst.connections)
        self.frozen = True

    def _check_mutable(self, what: str) -> None:
        if self.frozen:
            raise NetlistError(self.name, [f"frozen: cannot add {what}"])

    def add_port(self, port: Port) -> Net:
        """Declare a netlist port; returns its backing net."""
        self._check_mutable(f"port {port.name!r}")
        if port.name in self._port_nets:
            raise ValueError(f"netlist {self.name!r}: duplicate port {port.name!r}")
        self.ports.append(port)
        net = self.add_net(port.name, port.width)
        self._port_nets[port.name] = net
        return net

    def add_ports(self, ports: Iterable[Port]) -> None:
        for port in ports:
            self.add_port(port)

    def add_net(self, name: str, width: int = 1) -> Net:
        """Create an internal net with a unique name."""
        self._check_mutable(f"net {name!r}")
        unique = name
        counter = 1
        while unique in self._nets_by_name:
            unique = f"{name}_{counter}"
            counter += 1
        net = Net(unique, width)
        self.nets.append(net)
        self._nets_by_name[unique] = net
        return net

    def add_module(
        self,
        name: str,
        spec: object,
        ports: Iterable[Port],
        connections: Optional[Mapping[str, Endpoint]] = None,
    ) -> ModuleInst:
        """Instantiate a component; connections may be completed later
        with :meth:`ModuleInst.connect`."""
        self._check_mutable(f"module {name!r}")
        unique = name
        counter = 1
        while unique in self._modules_by_name:
            unique = f"{name}_{counter}"
            counter += 1
        inst = ModuleInst(unique, spec, tuple(ports))
        for pin, endpoint in dict(connections or {}).items():
            inst.connect(pin, endpoint)
        self.modules.append(inst)
        self._modules_by_name[unique] = inst
        return inst

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"netlist {self.name!r} has no port {name!r}")

    def has_port(self, name: str) -> bool:
        return name in self._port_nets

    def port_net(self, name: str) -> Net:
        """The net backing a netlist port."""
        return self._port_nets[name]

    def net(self, name: str) -> Net:
        return self._nets_by_name[name]

    def module(self, name: str) -> ModuleInst:
        return self._modules_by_name[name]

    def input_ports(self) -> List[Port]:
        return [p for p in self.ports if p.is_input]

    def output_ports(self) -> List[Port]:
        return [p for p in self.ports if p.is_output]

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, ports={len(self.ports)}, "
            f"nets={len(self.nets)}, modules={len(self.modules)})"
        )

