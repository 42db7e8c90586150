"""Hierarchical functional simulation.

Evaluation is cycle-based over unsigned integers: combinational logic
settles by fixpoint iteration (which needs no dependency analysis and
detects true combinational loops by non-convergence), then sequential
state advances on the simulated clock edge.

Three component adapters share one protocol (``outputs`` /
``next_state`` / ``reset``):

- :class:`SpecComponent` -- a generic GENUS component, evaluated by the
  behavioral models in :mod:`repro.genus.behavior`;
- :class:`CellComponent` -- a technology cell binding (a cell is a spec
  plus pin ties, so it evaluates through the same semantics);
- :class:`TreeComponent` -- a DTAS :class:`~repro.core.design_space.
  DesignTree`, evaluated structurally through its decomposition
  netlists.

Verifying a mapped design against its generic model is then just
running :class:`SpecComponent` and :class:`TreeComponent` side by side
(:mod:`repro.sim.equivalence`).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.design_space import DesignTree
from repro.core.mapper import CellBinding
from repro.core.specs import ComponentSpec
from repro.genus import behavior
from repro.netlist.nets import Concat, Const, Endpoint
from repro.netlist.netlist import ModuleInst, Netlist
from repro.netlist.ports import PinKind


class SimulationError(Exception):
    """Evaluation failed (true combinational loop, missing input...)."""


def _mask(width: int) -> int:
    return (1 << width) - 1


class SpecComponent:
    """Generic behavioral evaluation of one component spec."""

    def __init__(self, spec: ComponentSpec) -> None:
        self.spec = spec
        self.is_sequential = spec.is_sequential

    def reset(self):
        if self.is_sequential:
            return behavior.sequential_reset(self.spec)
        return None

    def outputs(self, inputs: Mapping[str, int], state) -> Dict[str, int]:
        if self.is_sequential:
            return behavior.sequential_outputs(self.spec, inputs, state)
        return behavior.combinational_eval(self.spec, inputs)

    def next_state(self, inputs: Mapping[str, int], state):
        if not self.is_sequential:
            return state
        return behavior.sequential_next(self.spec, inputs, state)


class CellComponent:
    """A library cell chosen by the mapper, with its pin adaptations."""

    def __init__(self, binding: CellBinding) -> None:
        self.binding = binding
        self.inner = SpecComponent(binding.cell.spec)
        self.is_sequential = self.inner.is_sequential
        self._tied = dict(binding.tied)

    def reset(self):
        return self.inner.reset()

    def _full_inputs(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        merged = dict(self._tied)
        merged.update(inputs)
        return merged

    def outputs(self, inputs: Mapping[str, int], state) -> Dict[str, int]:
        return self.inner.outputs(self._full_inputs(inputs), state)

    def next_state(self, inputs: Mapping[str, int], state):
        return self.inner.next_state(self._full_inputs(inputs), state)


class NetlistSimulator:
    """Fixpoint evaluation of one netlist level.

    ``component_for`` maps each module instance to a component adapter;
    the default uses the generic behavioral models, which is what
    simulating a GENUS netlist means.
    """

    def __init__(
        self,
        netlist: Netlist,
        component_for: Optional[Callable[[ModuleInst], object]] = None,
    ) -> None:
        self.netlist = netlist
        factory = component_for or (lambda inst: SpecComponent(inst.spec))
        self.components = {inst.name: factory(inst) for inst in netlist.modules}
        self.is_sequential = any(
            c.is_sequential for c in self.components.values()
        )

    # ------------------------------------------------------------------
    def reset(self) -> Dict[str, object]:
        """Initial hierarchical state: module name -> component state."""
        return {name: comp.reset() for name, comp in self.components.items()}

    # ------------------------------------------------------------------
    def _read_endpoint(self, endpoint: Endpoint, nets: Dict[int, int]) -> int:
        if isinstance(endpoint, Const):
            return endpoint.value
        if isinstance(endpoint, Concat):
            offset = 0
            value = 0
            for part in endpoint.parts:
                value |= self._read_endpoint(part, nets) << offset
                offset += part.width
            return value
        return (nets.get(id(endpoint.net), 0) >> endpoint.lsb) & _mask(endpoint.width)

    def _write_endpoint(self, endpoint: Endpoint, value: int,
                        nets: Dict[int, int]) -> None:
        """Store ``value`` into the endpoint's net bits; constant bits
        take nothing."""
        if isinstance(endpoint, Const):
            return
        if isinstance(endpoint, Concat):
            for part in endpoint.parts:
                self._write_endpoint(part, value, nets)
                value >>= part.width
            return
        mask = _mask(endpoint.width) << endpoint.lsb
        key = id(endpoint.net)
        nets[key] = (nets.get(key, 0) & ~mask) | ((value << endpoint.lsb) & mask)

    def _inputs(self, inst: ModuleInst, nets: Dict[int, int]) -> Dict[str, int]:
        """The values on an instance's connected non-clock input pins."""
        inputs = {}
        for pin in inst.input_pins():
            if pin.kind is PinKind.CLOCK:
                continue
            endpoint = inst.connections.get(pin.name)
            if endpoint is not None:
                inputs[pin.name] = self._read_endpoint(endpoint, nets)
        return inputs

    def settle(
        self,
        port_inputs: Mapping[str, int],
        state: Optional[Dict[str, object]] = None,
    ) -> Tuple[Dict[str, int], Dict[int, int]]:
        """Fixpoint-evaluate combinational logic; returns (port outputs,
        settled net values)."""
        if state is None:
            state = self.reset()
        nets: Dict[int, int] = {}
        for port in self.netlist.input_ports():
            if port.kind is PinKind.CLOCK:
                continue
            if port.name not in port_inputs:
                raise SimulationError(
                    f"netlist {self.netlist.name!r}: missing input {port.name!r}"
                )
            backing = self.netlist.port_net(port.name)
            nets[id(backing)] = port_inputs[port.name] & _mask(port.width)

        for _ in range(len(self.netlist.modules) + 3):
            changed = False
            for inst in self.netlist.modules:
                component = self.components[inst.name]
                outputs = component.outputs(self._inputs(inst, nets),
                                            state.get(inst.name))
                for pin_name, value in outputs.items():
                    endpoint = inst.connections.get(pin_name)
                    if endpoint is None:
                        continue
                    before = self._read_endpoint(endpoint, nets)
                    masked = value & _mask(inst.port(pin_name).width)
                    if before != masked:
                        self._write_endpoint(endpoint, masked, nets)
                        changed = True
            if not changed:
                break
        else:
            raise SimulationError(
                f"netlist {self.netlist.name!r} did not settle "
                f"(combinational loop?)"
            )

        port_outputs = {}
        for port in self.netlist.output_ports():
            backing = self.netlist.port_net(port.name)
            port_outputs[port.name] = nets.get(id(backing), 0) & _mask(port.width)
        return port_outputs, nets

    def outputs(self, port_inputs: Mapping[str, int],
                state: Optional[Dict[str, object]] = None) -> Dict[str, int]:
        outputs, _ = self.settle(port_inputs, state)
        return outputs

    def _clock_edge(self, nets: Dict[int, int],
                    state: Dict[str, object]) -> Dict[str, object]:
        """Every instance's state after the edge, from settled nets."""
        return {
            inst.name: self.components[inst.name].next_state(
                self._inputs(inst, nets), state.get(inst.name))
            for inst in self.netlist.modules
        }

    def next_state(
        self, port_inputs: Mapping[str, int], state: Dict[str, object]
    ) -> Dict[str, object]:
        """State after one clock edge (inputs held through the edge)."""
        _, nets = self.settle(port_inputs, state)
        return self._clock_edge(nets, state)

    def step(
        self, port_inputs: Mapping[str, int], state: Dict[str, object]
    ) -> Tuple[Dict[str, int], Dict[str, object]]:
        """One clock cycle: (outputs before the edge, next state)."""
        outputs, nets = self.settle(port_inputs, state)
        return outputs, self._clock_edge(nets, state)


class TreeComponent:
    """Adapter that evaluates a DTAS design tree structurally."""

    def __init__(self, tree: DesignTree) -> None:
        self.tree = tree
        if tree.is_leaf:
            self._leaf = CellComponent(tree.impl.binding)
            self._sim = None
            self.is_sequential = self._leaf.is_sequential
        else:
            self._leaf = None
            children = tree.children

            def factory(inst: ModuleInst):
                return TreeComponent(children[inst.name])

            self._sim = NetlistSimulator(tree.impl.netlist, factory)
            self.is_sequential = self._sim.is_sequential

    def reset(self):
        if self._leaf is not None:
            return self._leaf.reset()
        return self._sim.reset()

    def outputs(self, inputs: Mapping[str, int], state) -> Dict[str, int]:
        if self._leaf is not None:
            return self._leaf.outputs(inputs, state)
        return self._sim.outputs(inputs, state)

    def next_state(self, inputs: Mapping[str, int], state):
        if self._leaf is not None:
            return self._leaf.next_state(inputs, state)
        return self._sim.next_state(inputs, state)

    def step(self, inputs: Mapping[str, int], state):
        outputs = self.outputs(inputs, state)
        return outputs, self.next_state(inputs, state)


def evaluate_tree(tree: DesignTree, inputs: Mapping[str, int]) -> Dict[str, int]:
    """Combinationally evaluate a materialized design tree."""
    component = TreeComponent(tree)
    return component.outputs(inputs, component.reset())
