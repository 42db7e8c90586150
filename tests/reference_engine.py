"""Reference engines the parity tests compare the production engine to.

The production design space has one S1 costing path:
:func:`repro.core.configs.enumerate_rows` enumerates the capped rows and
``DesignSpace._evaluate_combinations`` costs them in blocks through
``_Kernel.run_batch``, which calls the kernel's generated function.
This module keeps independent oracles for it, none of which production
code imports:

- :func:`reference_run` -- the interpretive longest-path sweep over a
  kernel's topological edge list, one row at a time.  It is the oracle
  for the generated function.
- :class:`ScalarSpace` -- the per-combination engine: a streaming
  cross product (:func:`iter_compatible`), an own-choice merge after
  it, one :func:`reference_run` per combination, and the filters'
  ``select``.  It is the oracle for enumeration order and the
  combination cap.
- :func:`port_delay_matrix` -- the direct longest-path engine: it
  builds a netlist's per-bit timing DAG and walks it on every call.  It
  is the oracle for :class:`repro.netlist.timing_program.TimingProgram`.
- :class:`ReferenceSpace` -- the seed algorithm: a materializing cross
  product (:func:`reference_combine`) and one :func:`port_delay_matrix`
  graph build per combination.
- :func:`audit_alternative` -- the cost audit: it recomputes an emitted
  alternative's area and pin-to-pin delays from its design tree alone
  and compares them exactly with the reported configuration.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

from repro.core import configs
from repro.core.configs import (
    Choice,
    Configuration,
    make_configuration,
    resolve_order,
)
from repro.core.design_space import DesignSpace, DesignTree
from repro.core.specs import ComponentSpec
from repro.netlist.nets import endpoint_bits
from repro.netlist.netlist import ModuleInst, Netlist
from repro.netlist.timing_program import CLK_PIN, TimingCycleError


def merge_choices(
    parts: Iterable[Mapping[ComponentSpec, int]]
) -> Optional[Dict[ComponentSpec, int]]:
    """Merge choice maps from sibling modules.

    Returns ``None`` when two parts pick different implementations for
    the same specification -- the combination is rejected, enforcing S1.
    """
    merged: Dict[ComponentSpec, int] = {}
    for part in parts:
        for spec, impl in part.items():
            existing = merged.get(spec)
            if existing is None:
                merged[spec] = impl
            elif existing != impl:
                return None
    return merged


def iter_compatible(
    option_lists,
    limit: Optional[int] = None,
    order="lex",
) -> Iterator[Tuple[Tuple[Configuration, ...], Dict[ComponentSpec, int]]]:
    """Stream the S1-consistent cross product of per-spec options.

    Yields ``(chosen configurations, merged choice map)`` in nested-loop
    order, pruning conflicting prefixes as early as possible; ``limit``
    stops the enumeration after that many combinations.  The yielded
    map is reused between iterations; copy it if it must outlive the
    loop body (:func:`combine_compatible` does).
    """
    if limit is not None and limit <= 0:
        return
    count = len(option_lists)
    order_fn = resolve_order(order)
    lists = [order_fn(options, limit) for options in option_lists]

    merged: Dict[ComponentSpec, int] = {}
    chosen: List[Optional[Configuration]] = [None] * count
    emitted = 0

    def walk(depth: int):
        nonlocal emitted
        if depth == count:
            yield tuple(chosen), merged
            emitted += 1
            return
        for config in lists[depth]:
            chosen[depth] = config
            added: List[ComponentSpec] = []
            consistent = True
            for spec, impl in config.choices:
                existing = merged.get(spec)
                if existing is None:
                    merged[spec] = impl
                    added.append(spec)
                elif existing != impl:
                    consistent = False
                    break
            if consistent:
                yield from walk(depth + 1)
            for spec in added:
                del merged[spec]
            if limit is not None and emitted >= limit:
                return

    yield from walk(0)


def combine_compatible(option_lists, limit: Optional[int] = None,
                       order="lex"):
    """Materialized form of :func:`iter_compatible`; each result owns
    its choice map."""
    return [(chosen, dict(merged))
            for chosen, merged in iter_compatible(option_lists, limit=limit,
                                                  order=order)]


def reference_combine(option_lists):
    """The seed's materializing cross product, in nested-loop order."""
    results = [((), {})]
    for options in option_lists:
        extended = []
        for chosen, merged in results:
            for option in options:
                combined = merge_choices([merged, option.choice_map()])
                if combined is None:
                    continue
                extended.append((chosen + (option,), combined))
        results = extended
        if not results:
            break
    return results


def row_choices(chosen: Tuple[Configuration, ...],
                merged: Mapping[ComponentSpec, int],
                own_choice: Optional[Mapping[ComponentSpec, int]] = None
                ) -> Optional[Tuple[Choice, ...]]:
    """The canonical choice items the row ``(chosen, merged)`` must get
    (:func:`row_items`): ``merged`` plus the own entries, sorted by spec
    sort key, or ``None`` on an own-choice conflict."""
    choices = dict(merged)
    for spec, impl in (own_choice or {}).items():
        if choices.setdefault(spec, impl) != impl:
            return None
    return tuple(sorted(choices.items(), key=lambda kv: kv[0].sort_key))


def row_items(rows, own_choice: Optional[Mapping[ComponentSpec, int]] = None
              ) -> List[Tuple[Tuple[Configuration, ...],
                              Optional[Tuple[Choice, ...]]]]:
    """Rows of :func:`repro.core.configs.enumerate_rows` in the form
    :func:`row_choices` gives: ``(chosen, merged choice items)``, with
    ``None`` items for a row that failed the own-choice check.  The
    items come from :func:`repro.core.configs.merge_choices`, which
    builds them for S2 survivors in production."""
    own = tuple(own_choice.items()) if own_choice else ()
    return [(chosen, configs.merge_choices(chosen, own) if ok else None)
            for chosen, ok in rows]


def reference_run(kernel, values) -> Dict[Tuple[str, str], float]:
    """Longest-path delays of ``kernel`` for one set of per-slot
    weights (``values[slot][index]``): an interpretive sweep over the
    kernel's whole topological edge list per source."""
    neg = float("-inf")
    weights = [
        0.0 if slot < 0 else values[slot][index]
        for slot, index in zip(kernel.edge_slot, kernel.edge_index)
    ]
    edge_u, edge_v = kernel.edge_u, kernel.edge_v
    result: Dict[Tuple[str, str], float] = {}
    for source_name, src in kernel.sources:
        dist = [neg] * kernel.n_nodes
        dist[src] = 0.0
        for u, v, w in zip(edge_u, edge_v, weights):
            du = dist[u]
            if du != neg:
                t = du + w
                if t > dist[v]:
                    dist[v] = t
        for nid, label in kernel.labeled:
            if nid == src:
                continue
            value = dist[nid]
            if value != neg:
                key = (source_name, label)
                prev = result.get(key)
                if prev is None or value > prev:
                    result[key] = value
    return result


def run_matrices(program, matrices, run=reference_run):
    """Delay matrix of ``program`` for one delay-matrix mapping per
    slot: ``run(kernel, values)`` (default :func:`reference_run`) on
    the kernel of the mappings' arc signature."""
    items = [tuple(sorted(matrix.items())) for matrix in matrices]
    kernel = program.kernel(tuple(tuple(k for k, _ in it) for it in items))
    return run(kernel, [tuple(v for _, v in it) for it in items])


DelayMatrix = Mapping[Tuple[str, str], float]
DelayFn = Callable[[ModuleInst], DelayMatrix]

# Graph nodes:
#   ("port", port_name)          -- a netlist port (either direction)
#   ("pin", inst_name, pin_name) -- a module pin (pin may be CLK_PIN)
Node = Tuple


def _build_graph(
    netlist: Netlist, module_delays: DelayFn
) -> Tuple[Dict[Node, List[Tuple[Node, float]]], List[Node]]:
    """Return (adjacency, all nodes) of the timing DAG."""
    edges: Dict[Node, List[Tuple[Node, float]]] = defaultdict(list)
    nodes: List[Node] = []
    seen = set()

    def touch(node: Node) -> Node:
        if node not in seen:
            seen.add(node)
            nodes.append(node)
        return node

    # Module-internal arcs from the delay matrices.  The virtual clock
    # pin is split into a source node (clk-to-q arcs leave it) and a
    # sink node (setup arcs enter it); otherwise a register's
    # (D -> @clk) and (@clk -> Q) arcs would chain into a false
    # combinational D -> Q path.
    for inst in netlist.modules:
        matrix = module_delays(inst)
        for (pin_in, pin_out), delay in matrix.items():
            src_pin = "@clk:out" if pin_in == CLK_PIN else pin_in
            dst_pin = "@clk:in" if pin_out == CLK_PIN else pin_out
            src = touch(("pin", inst.name, src_pin))
            dst = touch(("pin", inst.name, dst_pin))
            edges[src].append((dst, float(delay)))

    # Wiring arcs: per net bit, driver -> every reader, zero delay.
    bit_drivers: Dict[Tuple[int, int], List[Node]] = defaultdict(list)
    bit_readers: Dict[Tuple[int, int], List[Node]] = defaultdict(list)

    for port in netlist.input_ports():
        if port.is_sequential_boundary:
            continue
        node = touch(("port", port.name))
        backing = netlist.port_net(port.name)
        for bit in range(backing.width):
            bit_drivers[(id(backing), bit)].append(node)

    for port in netlist.output_ports():
        node = touch(("port", port.name))
        backing = netlist.port_net(port.name)
        for bit in range(backing.width):
            bit_readers[(id(backing), bit)].append(node)

    for inst in netlist.modules:
        for pin in inst.ports:
            endpoint = inst.connections.get(pin.name)
            if endpoint is None or pin.is_sequential_boundary:
                continue
            node = touch(("pin", inst.name, pin.name))
            table = bit_readers if pin.is_input else bit_drivers
            for atom in endpoint_bits(endpoint):
                if atom is not None:
                    table[(id(atom[0]), atom[1])].append(node)

    wire_edges = set()
    for key, drivers in bit_drivers.items():
        for driver in drivers:
            for reader in bit_readers.get(key, ()):
                if (driver, reader) not in wire_edges:
                    wire_edges.add((driver, reader))
                    edges[driver].append((reader, 0.0))

    return edges, nodes


def _topological_order(
    edges: Dict[Node, List[Tuple[Node, float]]], nodes: List[Node]
) -> List[Node]:
    indegree: Dict[Node, int] = {node: 0 for node in nodes}
    for src, outs in edges.items():
        for dst, _ in outs:
            indegree[dst] += 1
    queue = [node for node in nodes if indegree[node] == 0]
    order: List[Node] = []
    while queue:
        node = queue.pop()
        order.append(node)
        for dst, _ in edges.get(node, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                queue.append(dst)
    if len(order) != len(nodes):
        cyclic = sorted(str(n) for n, d in indegree.items() if d > 0)[:8]
        raise TimingCycleError(f"combinational cycle through: {', '.join(cyclic)}")
    return order


def _node_label(node: Node, output_names: set) -> str:
    """Sink label for the result matrix: a port name or CLK_PIN.
    Returns '' for nodes that are neither."""
    if node[0] == "port":
        return node[1] if node[1] in output_names else ""
    if node[2] == "@clk:in":
        return CLK_PIN
    return ""


def port_delay_matrix(netlist: Netlist, module_delays: DelayFn) -> Dict[Tuple[str, str], float]:
    """Worst-case delay between timing endpoints of a netlist.

    Endpoints are the netlist's own data ports plus the virtual
    :data:`CLK_PIN`.  The result maps ``(source, sink)`` to
    nanoseconds, where source is an input-port name or ``"@clk"`` and
    sink is an output-port name or ``"@clk"``.  Only pairs connected by
    an actual path appear.
    """
    edges, nodes = _build_graph(netlist, module_delays)
    order = _topological_order(edges, nodes)
    output_names = {p.name for p in netlist.output_ports()}
    node_set = set(nodes)

    sources: List[Tuple[str, Node]] = []
    for port in netlist.input_ports():
        if port.is_sequential_boundary:
            continue
        node = ("port", port.name)
        if node in node_set:
            sources.append((port.name, node))
    for node in nodes:
        if node[0] == "pin" and node[2] == "@clk:out" and edges.get(node):
            sources.append((CLK_PIN, node))

    result: Dict[Tuple[str, str], float] = {}
    for source_name, src_node in sources:
        dist: Dict[Node, float] = {src_node: 0.0}
        for node in order:
            if node not in dist:
                continue
            base = dist[node]
            for dst, weight in edges.get(node, ()):
                candidate = base + weight
                if candidate > dist.get(dst, float("-inf")):
                    dist[dst] = candidate
        for node, value in dist.items():
            if node is src_node:
                continue
            label = _node_label(node, output_names)
            if not label:
                continue
            key = (source_name, label)
            if value > result.get(key, float("-inf")):
                result[key] = value
    return result


class ScalarSpace(DesignSpace):
    """The per-combination S1 costing loop and ``select`` filtering."""

    def _select(self, candidates):
        return self.perf_filter.select(candidates)

    def _evaluate_combinations(self, program, option_lists, own_choice,
                               own_items):
        # ``own_items`` is ``own_choice`` in the production records'
        # form; this oracle merges from ``own_choice`` itself.
        results = []
        for chosen, merged in iter_compatible(
            option_lists,
            limit=self.max_combinations,
            order=self.order,
        ):
            choices = dict(merged)
            if own_choice is not None:
                conflict = False
                for own_spec, own_impl in own_choice.items():
                    existing = choices.get(own_spec)
                    if existing is not None and existing != own_impl:
                        conflict = True
                        break
                    choices[own_spec] = own_impl
                if conflict:
                    continue
            area = 0
            for slot in program.module_slots:
                area += chosen[slot].area
            delays = reference_run(
                program.kernel(tuple(c.arc_keys for c in chosen)),
                [c.delay_values for c in chosen],
            )
            results.append(make_configuration(area, delays, choices))
        self.combinations_costed += len(results)
        return results


class ReferenceSpace(DesignSpace):
    """The seed evaluation algorithm (pre-compiled-timing)."""

    def _decomp_configs(self, spec, impl):
        netlist = impl.netlist
        distinct_specs = []
        for module in netlist.modules:
            if module.spec not in distinct_specs:
                distinct_specs.append(module.spec)
        option_lists = []
        for sub in distinct_specs:
            options = self.configs(sub)
            if not options:
                return []
            option_lists.append(options)

        combos = reference_combine(option_lists)
        if len(combos) > self.max_combinations:
            combos = combos[: self.max_combinations]

        results = []
        for chosen, merged in combos:
            by_spec = dict(zip(distinct_specs, chosen))
            own = merge_choices([merged, {spec: impl.index}])
            if own is None:
                continue
            area = sum(by_spec[m.spec].area for m in netlist.modules)
            delays = port_delay_matrix(
                netlist, lambda inst: by_spec[inst.spec].delay_matrix()
            )
            results.append(make_configuration(area, delays, own))
        return results


# ---------------------------------------------------------------------------
# Cost audit
# ---------------------------------------------------------------------------

def tree_cost(tree: DesignTree,
              memo: Optional[Dict[ComponentSpec, Tuple[float, DelayMatrix]]]
              = None) -> Tuple[float, DelayMatrix]:
    """A design tree's (area, delay matrix), recomputed bottom-up.

    A leaf costs its cell's area and delay matrix.  A decomposition's
    area is the sum of its module instances' areas, and its delays are
    :func:`port_delay_matrix` over its netlist with each instance
    weighted by its subtree's matrix: the max-plus composition of the
    children's pin-to-pin matrices.  S1 gives every spec one
    implementation in a design, so equal specs have equal subtrees and
    ``memo`` (keyed by spec) costs each once."""
    if memo is None:
        memo = {}
    cost = memo.get(tree.spec)
    if cost is not None:
        return cost
    if tree.is_leaf:
        cell = tree.impl.binding.cell
        cost = (cell.area, cell.delay_matrix())
    else:
        children = {name: tree_cost(child, memo)
                    for name, child in tree.children.items()}
        modules = tree.impl.netlist.modules
        area = sum(children[module.name][0] for module in modules)
        delays = port_delay_matrix(
            tree.impl.netlist, lambda inst: children[inst.name][1])
        cost = (area, delays)
    memo[tree.spec] = cost
    return cost


def audit_alternative(alt) -> List[str]:
    """Differences between an alternative's reported cost and its cost
    recomputed from :meth:`alt.tree` by :func:`tree_cost` (empty when
    area, every arc delay and the worst delay match exactly)."""
    config = alt.config
    area, delays = tree_cost(alt.tree())
    problems = []
    if area != config.area:
        problems.append(f"area {config.area!r} != recomputed {area!r}")
    reported = config.delay_matrix()
    if reported != delays:
        for arc in sorted(set(reported) | set(delays)):
            if reported.get(arc) != delays.get(arc):
                problems.append(f"delay {arc}: {reported.get(arc)!r} != "
                                f"recomputed {delays.get(arc)!r}")
    worst = max(delays.values(), default=0.0)
    if config.delay != worst:
        problems.append(f"worst delay {config.delay!r} != recomputed {worst!r}")
    return problems

