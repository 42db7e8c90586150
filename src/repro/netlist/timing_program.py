"""Compiled timing programs: evaluate one netlist's delays many times.

DTAS computes the delay of a hierarchical implementation structurally:
every module instance contributes pin-to-pin arcs (from its chosen
implementation's delay matrix, ``(input_pin, output_pin)`` to
nanoseconds) and every net contributes zero-delay arcs from its driver
to its readers.  The worst port-to-port delay over this DAG is the
implementation's delay -- which is why a ripple-carry adder built from
4-bit adder cells is slow (the CI->CO arcs chain) while a
carry-look-ahead structure is fast.

Sequential timing uses a *virtual pin*: :data:`CLK_PIN` (``"@clk"``)
stands for the clock edge inside a component.  A sequential cell
publishes arcs ``(D, "@clk") = setup`` and ``("@clk", Q) = clk_to_q``,
and a netlist's delays then include ``(in, "@clk")``, ``("@clk", out)``
and ``("@clk", "@clk")`` -- the last being the register-to-register
path that bounds the clock period.  Because these entries appear in
the result, hierarchical composition of sequential components needs no
special cases.

The DTAS evaluation inner loop asks the *same structural question* of
the *same netlist* once per surviving configuration combination -- for
a node with thousands of combinations, thousands of identical graph
constructions if the DAG were rebuilt per call.  A
:class:`TimingProgram` splits the work by what actually varies:

- **Compile once per netlist**: intern every timing node (ports and
  module pins, with the ``@clk`` virtual pin split into a source and a
  sink half so a register's D -> @clk and @clk -> Q arcs do not chain
  into a false D -> Q path), walk the endpoint structure to extract the
  zero-delay wiring arcs, and record the source ports and sink labels.
- **Compile once per arc signature**: the set of pin-to-pin arcs a
  combination contributes depends only on *which* delay-matrix keys its
  chosen implementations publish, not on the weights.  Combinations
  overwhelmingly share a handful of key sets, so the internal arcs,
  the topological order, and the flattened edge columns (``array('i')``,
  no per-edge objects) are cached per signature (a tuple of per-slot
  arc-key tuples), and on first use the kernel generates one
  straight-line Python function from them by value numbering: every
  source starts at the same ``+0.0``, so each arrival time is an
  expression over slot weights, and equal expressions -- across nodes
  and sources -- share one SSA local.
- **Per evaluation**: call that function on a block of rows, each one
  chosen configuration per slot.  It reads each slot's delay values
  straight off the configuration and returns per row the summed area,
  the worst delay and the delay values -- no weight matrices, graph,
  ordering or interpretive work at all.  It is the only longest-path
  implementation; numpy is never imported.

Instances are grouped into *slots* (by default one slot per instance;
the design-space evaluator passes ``slot_of=lambda inst: inst.spec`` so
all instances of one component specification share the configuration
chosen for that specification, which is exactly search control S1).

The program computes bit-identical results to the direct per-bit graph
walk ``port_delay_matrix`` that ``tests/reference_engine.py`` keeps as
its oracle: arrival times are prefix sums along identical paths
combined with ``max``, both of which are order-independent in IEEE
float arithmetic, and a shared SSA local is exact because equal operands
give equal sums and, with no NaN and no ``-0.0`` arrival, a maximum over
equal values is that value (see :meth:`_Kernel._compile`).
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from collections import defaultdict
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

from repro.netlist.nets import endpoint_masks
from repro.netlist.netlist import ModuleInst, Netlist

#: Virtual pin name standing for the clock edge inside a component.
CLK_PIN = "@clk"

#: Timing node: ("port", port_name) | ("pin", inst_name, pin_name)
Node = Tuple

#: Per-slot arc keys: the (input_pin, output_pin) pairs of a delay
#: matrix, in a stable order.
ArcKeys = Tuple[Tuple[str, str], ...]


class TimingCycleError(Exception):
    """The netlist contains a combinational cycle."""


#: Generated kernel functions by the SHA-256 digest of their source
#: text (the text itself is dropped once compiled).  The code names
#: values, slots and keys by number only, so structurally equal
#: kernels -- a decomposition reused across widths (adder:64 from two
#: adder:32s wires up like adder:32 from two adder:16s) -- share one
#: function; an entry lives as long as some kernel holds its function.
_FUNCTIONS: "weakref.WeakValueDictionary[bytes, Callable]" = (
    weakref.WeakValueDictionary())


def _tuple(names: Iterable[str]) -> str:
    """Tuple display (or unpacking target) source for ``names``."""
    names = list(names)
    return ", ".join(names) + ("," if len(names) == 1 else "")


class _BatchPlan:
    """Per-kernel layout the compiled function is generated from.

    Reachability of a (source, sink) pair is *structural*: every delay
    weight is a finite float, so which pairs carry a value depends only
    on the edge graph, never on the weights.  That lets the result keys
    be fixed (and sorted) once per kernel, each with its contributor
    (source row, node) pairs, and lets the generated function relax
    exactly the edges each source reaches.
    """

    __slots__ = ("keys", "contribs", "source_edges")

    def __init__(self, keys, contribs, source_edges) -> None:
        #: Sorted (source, sink) result keys -- the same set for any
        #: weight rows.
        self.keys = keys
        #: Parallel to ``keys``: tuple of (source row, node id) pairs
        #: whose arrival times max-merge into that key.
        self.contribs = contribs
        #: Per source row, the indices (into the topological edge list)
        #: of the edges reachable from that source.
        self.source_edges = source_edges


class _Weights:
    """A stand-in chosen configuration for :meth:`_Kernel.run`: one
    slot's delay weights and no area."""

    __slots__ = ("delay_values",)
    area = 0.0

    def __init__(self, delay_values: Sequence[float]) -> None:
        self.delay_values = delay_values


class _Kernel:
    """Everything evaluation needs for one arc signature: flattened
    edges in topological order plus the sources and labeled sinks, and
    the program's instance-to-slot map (the area fold's order).

    Edge ``e`` runs from node ``edge_u[e]`` to ``edge_v[e]`` and weighs
    ``delay_values[edge_index[e]]`` of slot ``edge_slot[e]``'s chosen
    configuration; a wiring arc has slot ``-1`` and weighs nothing.
    The four columns are ``array('i')``: no per-edge objects."""

    __slots__ = (
        "n_nodes", "edge_u", "edge_v", "edge_slot", "edge_index",
        "sources", "labeled", "module_slots", "_compiled", "arc_id",
    )

    def __init__(
        self,
        n_nodes: int,
        edge_u: "array[int]",
        edge_v: "array[int]",
        edge_slot: "array[int]",
        edge_index: "array[int]",
        sources: List[Tuple[str, int]],
        labeled: List[Tuple[int, str]],
        module_slots: Tuple[int, ...],
    ) -> None:
        self.n_nodes = n_nodes
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_slot = edge_slot
        self.edge_index = edge_index
        self.sources = sources
        self.labeled = labeled
        self.module_slots = module_slots
        #: (result keys, generated function), built on first use.
        self._compiled: Optional[Tuple[Tuple[Tuple[str, str], ...],
                                       Callable]] = None
        #: The id of :attr:`keys` in the id table of the
        #: :meth:`TimingProgram.kernel_for` call that reached this
        #: kernel (None until one has).
        self.arc_id: Optional[int] = None

    @property
    def keys(self) -> Tuple[Tuple[str, str], ...]:
        """The sorted (source, sink) result pairs, the same for every
        row: the layout of each row's delay values."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        return compiled[0]

    def run(
        self, values: Sequence[Sequence[float]]
    ) -> Dict[Tuple[str, str], float]:
        """Longest-path delays for one set of per-slot weights (a
        one-row :meth:`run_batch`)."""
        _, _, delays = self.run_batch(
            [tuple(map(_Weights, values))], 1)[0]
        return dict(zip(self.keys, delays))

    def run_batch(
        self, chosen_rows: Sequence[Sequence[object]], n: int
    ) -> List[Tuple[float, float, Tuple[float, ...]]]:
        """Cost a block of ``n`` rows (``n == len(chosen_rows)``; a
        block with ``n <= 0`` costs nothing).

        Each row holds one chosen configuration per slot; the kernel
        reads a configuration's ``area`` and ``delay_values`` (parallel
        to that slot's arc keys in the kernel's signature).  Returns one
        ``(area, delay, values)`` per row: ``area`` is the left fold
        ``0.0 + area(slot of instance 0) + area(slot of instance 1) ...``
        over the instances in netlist order (the float addition sequence
        of ``functools.reduce(operator.add, ..., 0.0)``, never ``sum``),
        ``values`` are the longest-path delays parallel to :attr:`keys`,
        and ``delay`` is their maximum (``0.0`` with no keys), as
        ``max`` would pick it.  The work is one call of the kernel's
        generated function (see :meth:`_compile`).
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        if n <= 0:
            return []
        return compiled[1](chosen_rows)

    # -- compilation ---------------------------------------------------
    def _build_plan(self) -> _BatchPlan:
        """Derive the structural result layout (see :class:`_BatchPlan`)
        by propagating reachability once per source."""
        edge_u, edge_v = self.edge_u, self.edge_v
        contrib_map: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        source_edges: List[List[int]] = []
        for row, (source_name, src) in enumerate(self.sources):
            reach = [False] * self.n_nodes
            reach[src] = True
            edges: List[int] = []
            for eid, (u, v) in enumerate(zip(edge_u, edge_v)):
                if reach[u]:
                    reach[v] = True
                    edges.append(eid)
            source_edges.append(edges)
            for nid, label in self.labeled:
                if nid != src and reach[nid]:
                    contrib_map.setdefault((source_name, label), []).append(
                        (row, nid))
        keys = tuple(sorted(contrib_map))
        contribs = tuple(tuple(contrib_map[key]) for key in keys)
        return _BatchPlan(keys, contribs, source_edges)

    def _compile(self) -> Tuple[Tuple[Tuple[str, str], ...], Callable]:
        """Generate and ``exec`` one straight-line function for this
        kernel's plan, by value numbering.

        Every source starts at the same ``+0.0``, so each arrival time
        is a pure expression over slot weights: ``x + w`` along an arc,
        the maximum over a node's incoming arcs.  Numbering equal
        expressions once (across nodes *and* sources) leaves one SSA
        local per distinct value: a 64-slice bitslice whose instances
        share one slot computes ``0.0 + w0_0`` once, not 64 times, and
        a maximum over one distinct value is that value, no code at
        all.  Edges whose head reaches none of the source's sinks are
        never numbered, and a zero-weight wiring arc passes its tail's
        value on unchanged.

        The function loops over rows of chosen configurations.  Per row
        it unpacks each used slot's ``delay_values`` once, then computes
        the numbered values in order -- ``v = u + w`` for a sum and
        ``v = a; if b > v: v = b ...`` for a maximum, which takes over
        the local of an operand nothing else reads -- and returns the
        key values, their maximum (``0.0`` with no keys) and the area,
        unrolled as ``0.0 + c0.area + c1.area ...`` in ``module_slots``
        order, the addition sequence of a left fold.

        Bit-identical to the interpretive sweep.  Equal operands give
        bit-equal sums.  ``max`` returns one of its inputs, so every
        arrival is the left-to-right sum along one path; with no NaN
        (weights are finite) and no ``-0.0`` arrival (the source starts
        at ``+0.0``, and a rounded sum is ``-0.0`` only when both
        addends are), equal floats are equal bits, so a maximum does
        not depend on the order or repetition of its operands.  That
        makes dropping ``+ 0.0`` on wiring arcs exact too: ``x + 0.0``
        is ``x`` for every float but ``-0.0``.
        """
        plan = self._build_plan()
        edge_u, edge_v = self.edge_u, self.edge_v
        edge_slot, edge_index = self.edge_slot, self.edge_index
        sinks_of: List[List[Tuple[int, int]]] = [[] for _ in self.sources]
        for k, pairs in enumerate(plan.contribs):
            for row, nid in pairs:
                sinks_of[row].append((k, nid))

        # Value 0 is the sources' +0.0; every later value is a sum
        # ("+", value, slot, index) or a maximum ("max", values...) over
        # earlier values, numbered once.
        exprs: List[Tuple] = [("0.0",)]
        numbers: Dict[Tuple, int] = {}

        def number(expr: Tuple) -> int:
            value = numbers.get(expr)
            if value is None:
                value = numbers[expr] = len(exprs)
                exprs.append(expr)
            return value

        def maximum(values: Iterable[int]) -> int:
            distinct = sorted(set(values))
            if len(distinct) == 1:
                return distinct[0]
            return number(("max", *distinct))

        def settle(nid: int, value: Dict[int, int],
                   incoming: Dict[int, List[int]]) -> int:
            """Node ``nid``'s value, once all its arcs are in."""
            held = value.get(nid)
            if held is None:
                held = value[nid] = maximum(incoming.pop(nid))
            return held

        key_values: List[List[int]] = [[] for _ in plan.keys]
        for row, (_, src) in enumerate(self.sources):
            sinks = sinks_of[row]
            if not sinks:
                continue
            # Reverse walk: keep an edge only if its head is live.
            live = {nid for _, nid in sinks}
            kept: List[int] = []
            for eid in reversed(plan.source_edges[row]):
                if edge_v[eid] in live:
                    kept.append(eid)
                    live.add(edge_u[eid])
            # Edges run in topological order of their tails, so a node's
            # arcs are all in before the first edge leaves it.
            value = {src: 0}
            incoming: Dict[int, List[int]] = defaultdict(list)
            for eid in reversed(kept):
                arrival = settle(edge_u[eid], value, incoming)
                slot = edge_slot[eid]
                if slot >= 0:  # a wiring arc (slot -1) adds nothing
                    arrival = number(("+", arrival, slot, edge_index[eid]))
                incoming[edge_v[eid]].append(arrival)
            for k, nid in sinks:
                key_values[k].append(settle(nid, value, incoming))
        keys = [maximum(values) for values in key_values]
        worst = maximum(keys) if keys else 0

        # Count reads, from the results back, so a maximum can take over
        # an operand's local when nothing else reads it.
        reads = [0] * len(exprs)
        for result in (*keys, worst):
            reads[result] += 1
        for vn in range(len(exprs) - 1, 0, -1):
            expr = exprs[vn]
            if reads[vn]:
                for operand in (expr[1:2] if expr[0] == "+" else expr[1:]):
                    reads[operand] += 1
        names = ["0.0"] * len(exprs)
        weights: Dict[Tuple[int, int], str] = {}
        body: List[str] = []
        for vn in range(1, len(exprs)):
            if not reads[vn]:
                continue
            expr = exprs[vn]
            if expr[0] == "+":
                _, operand, slot, index = expr
                w = weights.setdefault((slot, index), f"w{slot}_{index}")
                local = names[vn] = f"v{vn}"
                body.append(f"{local} = {names[operand]} + {w}")
                continue
            operands = expr[1:]
            owned = next((op for op in operands if op and reads[op] == 1),
                         None)
            if owned is None:
                local = f"v{vn}"
                body.append(f"{local} = {names[operands[0]]}")
                owned = operands[0]
            else:
                local = names[owned]
            names[vn] = local
            body.extend(f"if {names[op]} > {local}: {local} = {names[op]}"
                        for op in operands if op != owned)
        # Each slot's arc count, to unpack its weights in one step.
        arcs: Dict[int, int] = {}
        for slot, index in zip(edge_slot, edge_index):
            if slot >= 0 and index >= arcs.get(slot, 0):
                arcs[slot] = index + 1
        n_slots = max(self.module_slots, default=-1) + 1
        lines = ["def kernel(rows):",
                 "    block = []",
                 "    append = block.append"]
        if n_slots:
            targets = _tuple(f"c{slot}" for slot in range(n_slots))
            lines.append(f"    for {targets} in rows:")
        else:
            lines.append("    for _ in rows:")
        for slot in sorted({slot for slot, _ in weights}):
            unpacked = _tuple(weights.get((slot, index), "_")
                              for index in range(arcs[slot]))
            lines.append(f"        {unpacked} = c{slot}.delay_values")
        lines.extend("        " + line for line in body)
        area = "".join(f" + c{slot}.area" for slot in self.module_slots)
        results = _tuple(names[vn] for vn in keys)
        lines.append(
            f"        append((0.0{area}, {names[worst]}, ({results})))")
        lines.append("    return block")
        source = "\n".join(lines)
        digest = hashlib.sha256(source.encode()).digest()
        function = _FUNCTIONS.get(digest)
        if function is None:
            namespace: Dict[str, Callable] = {}
            exec(compile(source, "<timing kernel>", "exec"), namespace)
            function = _FUNCTIONS[digest] = namespace["kernel"]
        return plan.keys, function


class TimingProgram:
    """A netlist compiled for repeated delay-matrix evaluation.

    Parameters
    ----------
    netlist:
        The netlist to compile.  The program assumes the netlist is not
        structurally mutated afterwards.
    slot_of:
        Maps each :class:`ModuleInst` to a hashable slot key; instances
        with the same key receive the same delay matrix per evaluation.
        Defaults to the instance name (every instance its own slot).
        Slot order is first-seen instance order.

    Programs are process-local: ``slot_of`` is consumed at compile
    time, but each kernel's generated function is built by ``exec``
    and the arc-id lookup table of :meth:`kernel_for` keys on
    process-local ids, so a program is never pickled.
    """

    def __init__(
        self,
        netlist: Netlist,
        slot_of: Optional[Callable[[ModuleInst], Hashable]] = None,
    ) -> None:
        self.netlist = netlist
        self._node_index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._kernels: Dict[Tuple[ArcKeys, ...], _Kernel] = {}
        #: The same kernels by a caller's tuple of per-slot arc ids
        #: (:meth:`kernel_for`).  Ids are process-local.
        self._by_ids: Dict[Tuple[int, ...], _Kernel] = {}

        # --- slots -----------------------------------------------------
        slot_index: Dict[Hashable, int] = {}
        slot_keys: List[Hashable] = []
        module_slots: List[int] = []
        slot_instances: List[List[str]] = []
        for inst in netlist.modules:
            key = inst.name if slot_of is None else slot_of(inst)
            slot = slot_index.get(key)
            if slot is None:
                slot = slot_index[key] = len(slot_keys)
                slot_keys.append(key)
                slot_instances.append([])
            module_slots.append(slot)
            slot_instances[slot].append(inst.name)
        self.slot_keys: Tuple[Hashable, ...] = tuple(slot_keys)
        self.module_slots: Tuple[int, ...] = tuple(module_slots)
        self._slot_instances = slot_instances

        # --- wiring arcs ----------------------------------------------
        # The per-bit driver -> reader edges, computed at slice
        # granularity: per net, (node, bitmask) entries for
        # drivers and readers; an arc exists where the masks intersect.
        node = self._node
        net_drivers: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        net_readers: Dict[int, List[Tuple[int, int]]] = defaultdict(list)

        port_sources: List[Tuple[str, int]] = []
        for port in netlist.input_ports():
            if port.is_sequential_boundary:
                continue
            nid = node(("port", port.name))
            port_sources.append((port.name, nid))
            backing = netlist.port_net(port.name)
            net_drivers[id(backing)].append((nid, (1 << backing.width) - 1))

        port_labels: List[Tuple[int, str]] = []
        for port in netlist.output_ports():
            nid = node(("port", port.name))
            port_labels.append((nid, port.name))
            backing = netlist.port_net(port.name)
            net_readers[id(backing)].append((nid, (1 << backing.width) - 1))

        for inst in netlist.modules:
            connections = inst.connections
            for pin in inst.ports:
                endpoint = connections.get(pin.name)
                if endpoint is None or pin.is_sequential_boundary:
                    continue
                nid = node(("pin", inst.name, pin.name))
                table = net_readers if pin.is_input else net_drivers
                for net, mask in endpoint_masks(endpoint):
                    if net is not None:
                        table[id(net)].append((nid, mask))

        wire_u, wire_v = array("i"), array("i")
        seen = set()
        for key, drivers in net_drivers.items():
            readers = net_readers.get(key)
            if not readers:
                continue
            for driver, dmask in drivers:
                for reader, rmask in readers:
                    if dmask & rmask:
                        pair = (driver, reader)
                        if pair not in seen:
                            seen.add(pair)
                            wire_u.append(driver)
                            wire_v.append(reader)
        self._wire_u, self._wire_v = wire_u, wire_v
        self._port_sources = port_sources
        self._port_labels = port_labels

    # ------------------------------------------------------------------
    def _node(self, node: Node) -> int:
        nid = self._node_index.get(node)
        if nid is None:
            nid = self._node_index[node] = len(self._nodes)
            self._nodes.append(node)
        return nid

    @property
    def kernel_count(self) -> int:
        """Number of distinct arc signatures compiled so far."""
        return len(self._kernels)

    # ------------------------------------------------------------------
    def _compile_kernel(self, signature: Tuple[ArcKeys, ...]) -> _Kernel:
        node = self._node
        edges: List[Tuple[int, int, int, int]] = []  # (u, v, slot, index)
        for slot, arc_keys in enumerate(signature):
            for inst_name in self._slot_instances[slot]:
                for index, (pin_in, pin_out) in enumerate(arc_keys):
                    # Split the virtual clock pin into a source node and
                    # a sink node so (D -> @clk) and (@clk -> Q) arcs do
                    # not chain into a false combinational D -> Q path.
                    src_pin = "@clk:out" if pin_in == CLK_PIN else pin_in
                    dst_pin = "@clk:in" if pin_out == CLK_PIN else pin_out
                    u = node(("pin", inst_name, src_pin))
                    v = node(("pin", inst_name, dst_pin))
                    edges.append((u, v, slot, index))
        clk_source_ids = sorted({u for u, _, _, _ in edges
                                 if self._nodes[u][-1] == "@clk:out"})
        for u, v in zip(self._wire_u, self._wire_v):
            edges.append((u, v, -1, 0))

        n = len(self._nodes)
        indegree = [0] * n
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for eid, (u, v, _, _) in enumerate(edges):
            adjacency[u].append(eid)
            indegree[v] += 1
        stack = [nid for nid in range(n) if indegree[nid] == 0]
        topo_pos = [-1] * n
        placed = 0
        while stack:
            u = stack.pop()
            topo_pos[u] = placed
            placed += 1
            for eid in adjacency[u]:
                v = edges[eid][1]
                indegree[v] -= 1
                if indegree[v] == 0:
                    stack.append(v)
        if placed != n:
            cyclic = sorted(
                str(self._nodes[nid]) for nid in range(n) if indegree[nid] > 0
            )[:8]
            raise TimingCycleError(
                f"combinational cycle through: {', '.join(cyclic)}"
            )

        ordered = sorted(range(len(edges)), key=lambda eid: topo_pos[edges[eid][0]])
        columns = [array("i", [edges[eid][i] for eid in ordered])
                   for i in range(4)]

        sources = list(self._port_sources)
        sources.extend((CLK_PIN, nid) for nid in clk_source_ids)
        labeled = list(self._port_labels)
        for nid in range(n):
            entry = self._nodes[nid]
            if entry[0] == "pin" and entry[2] == "@clk:in":
                labeled.append((nid, CLK_PIN))
        return _Kernel(n, *columns, sources, labeled, self.module_slots)

    # ------------------------------------------------------------------
    def kernel(self, arc_keys_by_slot: Tuple[ArcKeys, ...]) -> _Kernel:
        """The compiled kernel for one arc signature (cached)."""
        kernel = self._kernels.get(arc_keys_by_slot)
        if kernel is None:
            kernel = self._compile_kernel(arc_keys_by_slot)
            self._kernels[arc_keys_by_slot] = kernel
        return kernel

    def kernel_for(self, arc_ids: Tuple[int, ...], table: Any) -> _Kernel:
        """The kernel of the signature whose per-slot arc keys are
        ``table.values[i]`` for each ``i`` in ``arc_ids`` (cached by the
        id tuple, which hashes without touching a string).  ``table`` is
        the caller's id table of arc keys (``values`` and ``id_of``, as
        :class:`repro.core.configs.IdTable`); the kernel's
        :attr:`~_Kernel.arc_id` is set to the id of its result keys in
        it, once, when the id tuple is first seen."""
        kernel = self._by_ids.get(arc_ids)
        if kernel is None:
            arc_keys = table.values
            kernel = self._by_ids[arc_ids] = self.kernel(
                tuple([arc_keys[arc] for arc in arc_ids]))
            kernel.arc_id = table.id_of(kernel.keys)
        return kernel


def compile_timing(
    netlist: Netlist,
    slot_of: Optional[Callable[[ModuleInst], Hashable]] = None,
) -> TimingProgram:
    """Compile ``netlist`` into a reusable :class:`TimingProgram`."""
    return TimingProgram(netlist, slot_of=slot_of)
