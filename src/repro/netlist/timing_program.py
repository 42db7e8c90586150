"""Compiled timing programs: evaluate one netlist's delays many times.

:func:`repro.netlist.timing.port_delay_matrix` rebuilds the timing DAG
and its topological order from scratch on every call.  That is the
right tool for one-off questions (reports, critical paths), but the
DTAS evaluation inner loop asks the *same structural question* of the
*same netlist* once per surviving configuration combination -- for a
node with thousands of combinations that is thousands of identical
graph constructions.

A :class:`TimingProgram` splits the work by what actually varies:

- **Compile once per netlist**: intern every timing node (ports and
  module pins, with the ``@clk`` virtual pin split into a source and a
  sink half exactly as in :mod:`repro.netlist.timing`), walk the
  endpoint structure to extract the zero-delay wiring arcs, and record
  the source ports and sink labels.
- **Compile once per arc signature**: the set of pin-to-pin arcs a
  combination contributes depends only on *which* delay-matrix keys its
  chosen implementations publish, not on the weights.  Combinations
  overwhelmingly share a handful of key sets, so the internal arcs,
  the topological order, and the flattened edge arrays are cached per
  signature (a tuple of per-slot arc-key tuples).
- **Per evaluation**: substitute the per-slot delay weights into the
  flattened edge arrays and propagate arrival times -- no graph or
  ordering work at all.

Instances are grouped into *slots* (by default one slot per instance;
the design-space evaluator passes ``slot_of=lambda inst: inst.spec`` so
all instances of one component specification share the configuration
chosen for that specification, which is exactly search control S1).

The program computes bit-identical results to ``port_delay_matrix``:
arrival times are prefix sums along identical paths combined with
``max``, both of which are order-independent in IEEE float arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add as _add
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.netlist.nets import endpoint_masks
from repro.netlist.netlist import ModuleInst, Netlist

try:  # optional fast path only; the stdlib batch sweep is the contract
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None

#: Virtual pin name standing for the clock edge inside a component.
#: (Canonically re-exported by :mod:`repro.netlist.timing`.)
CLK_PIN = "@clk"

#: Timing node, as in :mod:`repro.netlist.timing`:
#:   ("port", port_name) | ("pin", inst_name, pin_name)
Node = Tuple

#: Per-slot arc keys: the (input_pin, output_pin) pairs of a delay
#: matrix, in a stable order.
ArcKeys = Tuple[Tuple[str, str], ...]

_NEG_INF = float("-inf")


class TimingCycleError(Exception):
    """The netlist contains a combinational cycle.

    Defined here (rather than in :mod:`repro.netlist.timing`) so the
    compiled engine has no import cycle; ``timing`` re-exports it.
    """


#: Soft bound on the (sources x nodes x rows) scratch a single batched
#: propagation may allocate; ``run_batch`` chunks its rows so wide
#: netlists cannot blow memory no matter what block size callers pick.
_BATCH_ELEMENTS = 1 << 21


class _BatchPlan:
    """Per-kernel layout shared by every ``run_batch`` call.

    Reachability of a (source, sink) pair is *structural*: every delay
    weight is a finite float, so which pairs carry a value depends only
    on the edge graph, never on the weights.  That lets the result keys
    be fixed (and sorted) once per kernel, each with its contributor
    (source row, node) pairs -- a batched run then fills a dense
    (keys x rows) matrix instead of rebuilding a dict per combination.
    """

    __slots__ = ("keys", "contribs", "source_edges", "np_cache")

    def __init__(self, keys, contribs, source_edges) -> None:
        #: Sorted (source, sink) result keys -- exactly
        #: ``tuple(sorted(run(...).keys()))`` for any weight set.
        self.keys = keys
        #: Parallel to ``keys``: tuple of (source row, node id) pairs
        #: whose arrival times max-merge into that key.
        self.contribs = contribs
        #: Per source row, the edge indices reachable from that source
        #: (the batched sweep skips the rest -- the same work the per-row
        #: ``run``'s ``du != neg`` guard avoids).
        self.source_edges = source_edges
        #: Lazily built numpy views of the edge arrays (None until the
        #: numpy path first runs).
        self.np_cache = None


class _Kernel:
    """Everything evaluation needs for one arc signature: flattened
    edges in topological order plus the sources and labeled sinks."""

    __slots__ = (
        "n_nodes", "edge_u", "edge_v", "edge_ref",
        "sources", "labeled", "_plan",
    )

    def __init__(
        self,
        n_nodes: int,
        edge_u: List[int],
        edge_v: List[int],
        edge_ref: List[Tuple[int, int]],
        sources: List[Tuple[str, int]],
        labeled: List[Tuple[int, str]],
    ) -> None:
        self.n_nodes = n_nodes
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_ref = edge_ref
        self.sources = sources
        self.labeled = labeled
        self._plan: Optional[_BatchPlan] = None

    # -- pickling ------------------------------------------------------
    def __getstate__(self):
        """The batch plan stays process-local (it may hold numpy
        arrays); shipped kernels rebuild it lazily on first batched
        run, keeping programs picklable by construction."""
        return {
            name: getattr(self, name)
            for name in self.__slots__ if name != "_plan"
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._plan = None

    def run(
        self, values: Sequence[Sequence[float]]
    ) -> Dict[Tuple[str, str], float]:
        """Longest-path propagation with the given per-slot weights."""
        neg = _NEG_INF
        weights = [
            0.0 if slot < 0 else values[slot][index]
            for slot, index in self.edge_ref
        ]
        edge_u, edge_v = self.edge_u, self.edge_v
        result: Dict[Tuple[str, str], float] = {}
        for source_name, src in self.sources:
            dist = [neg] * self.n_nodes
            dist[src] = 0.0
            for u, v, w in zip(edge_u, edge_v, weights):
                du = dist[u]
                if du != neg:
                    t = du + w
                    if t > dist[v]:
                        dist[v] = t
            for nid, label in self.labeled:
                if nid == src:
                    continue
                value = dist[nid]
                if value != neg:
                    key = (source_name, label)
                    prev = result.get(key)
                    if prev is None or value > prev:
                        result[key] = value
        return result

    # -- batched evaluation --------------------------------------------
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
        plan = _BatchPlan(keys, contribs, source_edges)
        self._plan = plan  # benign race: equal plans, last write wins
        return plan

    def run_batch(
        self, values: Sequence[Sequence[float]], rows: int
    ) -> Tuple[Tuple[Tuple[str, str], ...], List[List[float]]]:
        """Longest-path propagation for a whole block of weight rows.

        ``values[s]`` is a flat row-major matrix (``array('d')`` /
        memoryview / any indexable float sequence) of shape
        ``rows x len(arc_keys of slot s)``.  Returns ``(keys, block)``:
        ``keys`` are the sorted (source, sink) result pairs -- the same
        set :meth:`run` would produce for any of the rows -- and
        ``block[r]`` lists row ``r``'s delays parallel to ``keys``.
        Results are bit-identical to per-row :meth:`run` calls: every
        row propagates the same prefix sums along the same topological
        edge list, merged with order-independent ``max``.
        """
        plan = self._plan
        if plan is None:
            plan = self._build_plan()
        if rows <= 0:
            return plan.keys, []
        chunk = max(1, _BATCH_ELEMENTS
                    // max(1, len(self.sources) * self.n_nodes))
        if rows <= chunk:
            if _np is not None:
                return plan.keys, self._run_batch_np(plan, values, rows)
            return plan.keys, self._run_batch_py(plan, values, rows)
        arc_counts = [
            len(mat) // rows if rows else 0 for mat in values
        ]
        block: List[List[float]] = []
        for start in range(0, rows, chunk):
            stop = min(rows, start + chunk)
            part = [
                mat[start * n:stop * n]
                for mat, n in zip(values, arc_counts)
            ]
            if _np is not None:
                block.extend(self._run_batch_np(plan, part, stop - start))
            else:
                block.extend(self._run_batch_py(plan, part, stop - start))
        return plan.keys, block

    def _run_batch_py(
        self, plan: _BatchPlan, values: Sequence[Sequence[float]], rows: int
    ) -> List[List[float]]:
        """Stdlib batch sweep: one pass over the topological edge list
        per source, with each edge relaxing all rows at once."""
        neg = _NEG_INF
        edge_u, edge_v, edge_ref = self.edge_u, self.edge_v, self.edge_ref
        arc_counts = [len(mat) // rows for mat in values]
        # Gather each edge's weight row once, shared by every source.
        zero_row = [0.0] * rows
        weight_rows: List[List[float]] = []
        for slot, index in edge_ref:
            if slot < 0:
                weight_rows.append(zero_row)
            else:
                mat, n = values[slot], arc_counts[slot]
                weight_rows.append([mat[r * n + index] for r in range(rows)])
        n_keys = len(plan.keys)
        block = [[neg] * n_keys for _ in range(rows)]
        dist: List[Optional[List[float]]] = [None] * self.n_nodes
        for row, (_, src) in enumerate(self.sources):
            edges = plan.source_edges[row]
            if not edges:
                continue
            touched = [src]
            dist[src] = [0.0] * rows
            for eid in edges:
                u, v = edge_u[eid], edge_v[eid]
                du = dist[u]
                w = weight_rows[eid]
                dv = dist[v]
                if dv is None:
                    touched.append(v)
                    dist[v] = [a + b for a, b in zip(du, w)]
                else:
                    dist[v] = [
                        t if t > b else b
                        for t, b in zip(map(_add, du, w), dv)
                    ]
            for k, pairs in enumerate(plan.contribs):
                for source_row, nid in pairs:
                    if source_row != row:
                        continue
                    dn = dist[nid]
                    for r in range(rows):
                        value = dn[r]
                        out = block[r]
                        if value > out[k]:
                            out[k] = value
            for nid in touched:
                dist[nid] = None
        return block

    def _run_batch_np(
        self, plan: _BatchPlan, values: Sequence[Sequence[float]], rows: int
    ) -> List[List[float]]:
        """Numpy fast path: identical arithmetic (elementwise add and
        max over float64 match the per-row sequence bit for bit;
        ``-inf + w`` stays ``-inf``, standing in for the per-row
        ``run``'s reachability guard)."""
        cache = plan.np_cache
        if cache is None:
            n_edges = len(self.edge_u)
            slot_gather: List[Tuple[int, object, object]] = []
            by_slot: Dict[int, List[Tuple[int, int]]] = {}
            for eid, (slot, index) in enumerate(self.edge_ref):
                if slot >= 0:
                    by_slot.setdefault(slot, []).append((eid, index))
            for slot, pairs in by_slot.items():
                eids = _np.array([p[0] for p in pairs], dtype=_np.intp)
                cols = _np.array([p[1] for p in pairs], dtype=_np.intp)
                slot_gather.append((slot, eids, cols))
            src_rows = _np.array([src for _, src in self.sources],
                                 dtype=_np.intp)
            gathers = tuple(
                (_np.array([c[0] for c in pairs], dtype=_np.intp),
                 _np.array([c[1] for c in pairs], dtype=_np.intp))
                for pairs in plan.contribs
            )
            cache = plan.np_cache = (n_edges, tuple(slot_gather), src_rows,
                                     gathers)
        n_edges, slot_gather, src_rows, gathers = cache
        arc_counts = [len(mat) // rows for mat in values]
        weights = _np.zeros((n_edges, rows))
        for slot, eids, cols in slot_gather:
            mat = _np.frombuffer(values[slot], dtype=_np.float64)
            weights[eids] = mat.reshape(rows, arc_counts[slot])[:, cols].T
        n_sources = len(self.sources)
        dist = _np.full((n_sources, self.n_nodes, rows), _NEG_INF)
        dist[_np.arange(n_sources), src_rows] = 0.0
        maximum, add = _np.maximum, _np.add
        for u, v, w in zip(self.edge_u, self.edge_v, weights):
            dv = dist[:, v]
            maximum(add(dist[:, u], w), dv, out=dv)
        out = _np.empty((len(plan.keys), rows))
        for k, (rows_idx, nids) in enumerate(gathers):
            out[k] = dist[rows_idx, nids].max(axis=0)
        return out.T.tolist()


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

    Programs are picklable by construction (``slot_of`` is consumed at
    compile time, never stored), so the multiprocessing evaluation
    backend and future remote workers can ship compiled programs
    whole: the interned node table, wiring arcs, and any already
    compiled per-signature kernels travel with the program, and
    evaluation on the receiving side is bit-identical (prefix sums and
    ``max`` over identical paths).  Keep the invariant that nothing
    stored here is process-local: no lambdas, no weakrefs, no
    id()-keyed tables.
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
        # Same edges timing._build_graph derives per bit, computed at
        # slice granularity: per net, (node, bitmask) entries for
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

        wire_edges: List[Tuple[int, int]] = []
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
                            wire_edges.append(pair)
        self._wire_edges = wire_edges
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
        for u, v in self._wire_edges:
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
        edge_u = [edges[eid][0] for eid in ordered]
        edge_v = [edges[eid][1] for eid in ordered]
        edge_ref = [(edges[eid][2], edges[eid][3]) for eid in ordered]

        sources = list(self._port_sources)
        sources.extend((CLK_PIN, nid) for nid in clk_source_ids)
        labeled = list(self._port_labels)
        for nid in range(n):
            entry = self._nodes[nid]
            if entry[0] == "pin" and entry[2] == "@clk:in":
                labeled.append((nid, CLK_PIN))
        return _Kernel(n, edge_u, edge_v, edge_ref, sources, labeled)

    # ------------------------------------------------------------------
    def kernel(self, arc_keys_by_slot: Tuple[ArcKeys, ...]) -> _Kernel:
        """The compiled kernel for one arc signature (cached)."""
        kernel = self._kernels.get(arc_keys_by_slot)
        if kernel is None:
            kernel = self._compile_kernel(arc_keys_by_slot)
            self._kernels[arc_keys_by_slot] = kernel
        return kernel


def compile_timing(
    netlist: Netlist,
    slot_of: Optional[Callable[[ModuleInst], Hashable]] = None,
) -> TimingProgram:
    """Compile ``netlist`` into a reusable :class:`TimingProgram`."""
    return TimingProgram(netlist, slot_of=slot_of)
