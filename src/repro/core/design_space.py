"""The DTAS design space: an acyclic graph of specifications and
alternative implementations.

From the paper (section 5): "Functional decomposition is implemented
with a rule-based system that expands the space of component
decompositions.  This design space is represented as an acyclic graph.
Nodes consist of component specifications and alternative component
implementations.  Each component implementation corresponds to a
library cell or to a netlist of modules."

Expansion interleaves rule application with technology mapping: every
specification node is first matched against the cell library
(:mod:`repro.core.mapper`), then decomposed by every applicable rule,
recursing into the module specifications of each decomposition.  Each
rule netlist is validated and frozen (:meth:`Netlist.freeze`: every
later mutation raises) once per process, when the rule cache entry is
built.  A node's children through one decomposition are defined in one
place, :attr:`Implementation.children`: the netlist's distinct module
specs, which are also the slots of its timing program.  Expansion,
evaluation and reachability all walk that tuple, so each child is
visited once per decomposition rather than once per module instance.

The expanded graph is process-wide too: one :class:`_ExpansionGraph`
per library and rule sequence (:attr:`~repro.core.rules.RuleBase.key`)
holds every reached spec's node and implementation records.  A space
binds one graph, the one of its rulebase's rules at its first
:meth:`DesignSpace.expand`, and links the nodes a root reaches into its
own ``nodes``; it reruns no rule match and builds no implementation.
A rule added to a rulebase reaches the next space, never a live one.
The graph is the one record of what a root reaches: per-request
statistics count it and are memoized on the shared root node, and a
cell binding's configuration is built once per implementation record.

Evaluation computes, bottom-up, the set of costed
:class:`~repro.core.configs.Configuration` alternatives per node, with
both search controls applied:

- S1 (implementation consistency) through choice-map merging, and
- S2 (performance filtering) through the node-level filter.

The evaluation inner loop is engineered for the paper's scale claim
(hundreds of thousands to millions of raw alternatives):

- each decomposition netlist is compiled once into a
  :class:`~repro.netlist.timing_program.TimingProgram` (graph
  structure, wiring arcs, and per-arc-signature topological orders),
  so costing a combination only substitutes delay weights;
- the S1 cross product is enumerated as capped rows
  (:func:`~repro.core.configs.enumerate_rows`), so ``max_combinations``
  bounds the enumeration work itself; consistency is checked on
  process-wide integer spec ids, and sibling specs that cannot conflict
  skip the check entirely.  A row is only its chosen configurations
  and an S1 flag.  Most decompositions have one option per module:
  that single row is decided with set operations over the chosen
  configurations' spec ids and choice pairs, own choice included
  (the early exit of ``enumerate_rows``);
- rows sharing an arc signature (grouped by tuples of process-wide arc
  ids, which also find the kernel) go straight to that kernel's
  ``run_batch``: its generated function reads the chosen
  configurations' delay values and areas itself and returns each
  row's area, worst delay and delays, so no weight matrices are built.
  A single row is a group of one: one kernel lookup, one ``run_batch``
  of one row.  The results become
  :class:`~repro.core.configs.CostRecord` objects, which the S2
  filter's ``select_block`` ranks on area and delay (a lone candidate,
  which every filter keeps, is not ranked); only the survivors get
  merged choices, built by plain construction with no pair tuple and
  no table lookup, so the costing and filtering path hashes no spec;
- rule applications, cell matchings, expanded nodes and compiled
  programs are pure functions of (rule, spec, library) and are cached
  process-wide, so repeated syntheses (benchmarks, serving, LOLA
  retargeting sweeps) skip re-expansion;
- with an attached node store (:mod:`repro.nodestore`, via
  :meth:`DesignSpace.attach_node_store`), every decomposition node's
  filtered option list is probed in a persistent content-addressed
  cache before its S1 cross product runs and published after --
  subtree-level work sharing across requests and processes,
  bit-identical to plain evaluation.

Evaluation is one sequential pass per request.  Parallelism lives
across requests, in the fleet (:mod:`repro.fleet`), not inside one.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.configs import (
    ARC_IDS,
    Configuration,
    CostRecord,
    enumerate_rows,
    make_configuration,
    own_pairs,
    resolve_order,
)
from repro.core.filters import ParetoFilter, PerformanceFilter
from repro.core.mapper import CellBinding, matching_cells
from repro.core.rules import Rule, RuleBase, RuleContext
from repro.core.specs import ComponentSpec
from repro.netlist.netlist import Netlist
from repro.netlist.timing_program import TimingProgram
from repro.netlist.validate import validate_netlist

if False:  # typing only; avoids a circular import with repro.techlib
    from repro.techlib.cells import CellLibrary


_arc_id = attrgetter("arc_id")
_module_spec = attrgetter("spec")


class SynthesisError(Exception):
    """No implementation exists for a specification; the message names
    the leaf specifications that could not be implemented."""


# ---------------------------------------------------------------------------
# Process-wide expansion caches.
#
# Rule application and cell matching are pure functions of
# (rule builder, spec, library) / (spec, library), and a node's
# implementations of (rule sequence, spec, library): builders derive the
# decomposition from the frozen spec plus the library's width catalog,
# and a rule-produced netlist is frozen before it is cached.  Every
# DTAS instance used to redo this work from scratch -- and a benchmark
# or serving process creates many instances over the same rulebase and
# library.  Caches are keyed *per library object* through a
# WeakKeyDictionary, so retiring a library (e.g. a LOLA retargeting
# sweep building one library per data book) releases its entire
# expansion state; within a library, keys hold the builder/spec objects
# themselves, so entries can never alias across distinct objects with
# reused addresses.
# ---------------------------------------------------------------------------

_EXPANSION_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

# Guards the phase clocks.  A space runs on one thread at a time, but
# not always the same one (a serving process runs each session's jobs
# on its executor threads).
_PHASE_LOCK = threading.Lock()
# Serializes growing a shared expansion graph (reads take no lock).
_GRAPH_LOCK = threading.Lock()


class _LibraryCache:
    __slots__ = ("rules", "cells", "graphs")

    def __init__(self) -> None:
        self.rules: Dict[tuple, List[Netlist]] = {}
        self.cells: Dict[ComponentSpec, List[CellBinding]] = {}
        #: :attr:`RuleBase.key` -> that rule sequence's expansion graph.
        self.graphs: Dict[tuple, _ExpansionGraph] = {}


def _library_cache(library) -> _LibraryCache:
    cache = _EXPANSION_CACHES.get(library)
    if cache is None:
        cache = _EXPANSION_CACHES[library] = _LibraryCache()
    return cache


def _cached_rule_netlists(rule, spec: ComponentSpec,
                          context: RuleContext) -> List[Netlist]:
    """The rule's netlists for ``spec``, validated and frozen once when
    the entry is first built: a shared netlist cannot change under the
    timing programs compiled from it, so it is never rechecked."""
    cache = _library_cache(context.library)
    key = (rule.builder, spec)
    netlists = cache.rules.get(key)
    if netlists is None:
        netlists = rule.apply(spec, context)
        for netlist in netlists:
            validate_netlist(netlist)
            netlist.freeze()
        cache.rules[key] = netlists
    return netlists


def _cached_matching_cells(spec: ComponentSpec, library) -> List[CellBinding]:
    cache = _library_cache(library)
    bindings = cache.cells.get(spec)
    if bindings is None:
        bindings = cache.cells[spec] = matching_cells(spec, library)
    return bindings


@dataclass(eq=False)
class Implementation:
    """One alternative implementation of a specification: either a
    library-cell binding or a decomposition netlist.

    Implementations live in the process-wide expansion graph
    (:class:`_ExpansionGraph`) and are shared by every design space
    over the same library and rule sequence: treat them as read-only.
    ``netlist`` is a frozen rule netlist, owned by the process-wide
    rule cache."""

    index: int
    spec: ComponentSpec
    kind: str  # "cell" | "decomp"
    binding: Optional[CellBinding] = None
    netlist: Optional[Netlist] = None
    rule_name: str = ""

    @property
    def label(self) -> str:
        if self.kind == "cell":
            return f"cell:{self.binding.cell.name}"
        return f"rule:{self.rule_name}"

    # Per-implementation data, built on first use and kept: the netlist
    # is frozen, so none of it can go stale.  Every row this
    # implementation costs carries the same own S1 entry, and a cell
    # binding is one configuration process-wide.
    @cached_property
    def children(self) -> Tuple[ComponentSpec, ...]:
        """The decomposition's children: its netlist's distinct module
        specs in first-seen instance order (the slots of its timing
        program); none for a cell binding."""
        if self.netlist is None:
            return ()
        return tuple(dict.fromkeys(
            module.spec for module in self.netlist.modules))

    @cached_property
    def timing_program(self) -> Optional[TimingProgram]:
        """The decomposition netlist's timing program, one slot per
        distinct module spec (S1 forces every instance of a spec onto
        the same configuration), compiled on first costing and reused
        for every combination; none for a cell binding."""
        if self.netlist is None:
            return None
        return TimingProgram(self.netlist, slot_of=_module_spec)
    @cached_property
    def own_choice(self) -> Dict[ComponentSpec, int]:
        """``{spec: index}``, this implementation's own S1 entry."""
        return {self.spec: self.index}

    @cached_property
    def own_items(self) -> Tuple[Tuple[int, Tuple[ComponentSpec, int]], ...]:
        """:func:`~repro.core.configs.own_pairs` of :attr:`own_choice`:
        the own entry every cost record of this implementation
        carries."""
        return own_pairs(self.own_choice.items())

    @cached_property
    def cell_configuration(self) -> Configuration:
        """A cell binding's one configuration."""
        cell = self.binding.cell
        return make_configuration(cell.area, cell.delay_matrix(),
                                  {self.spec: self.index})


@dataclass
class SpecNode:
    """A specification node and its alternative implementations."""

    spec: ComponentSpec
    impls: List[Implementation] = field(default_factory=list)
    expanded: bool = False
    #: :meth:`DesignSpace.stats_for` of this node alone, memoized on
    #: the shared node (what it reaches is fixed by its graph).
    stats: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False)


def _expand_node(spec: ComponentSpec, rulebase: RuleBase,
                 context: RuleContext) -> SpecNode:
    """``spec``'s implementations: its cell bindings, then every
    applicable rule's netlists, indexed in that order."""
    impls: List[Implementation] = []
    for binding in _cached_matching_cells(spec, context.library):
        impls.append(Implementation(len(impls), spec, "cell", binding=binding))
    for rule in rulebase.rules_for(spec):
        for netlist in _cached_rule_netlists(rule, spec, context):
            impls.append(Implementation(
                len(impls), spec, "decomp", netlist=netlist,
                rule_name=rule.name))
    return SpecNode(spec, impls, expanded=True)


class _ExpansionGraph:
    """One rule sequence's expansion graph over one library, shared by
    every design space in the process: each reached spec's expanded
    :class:`SpecNode`, and per expanded root the nodes it reaches.

    Rule application and cell matching are pure functions of (rule,
    spec, library), and the rule sequence (:attr:`RuleBase.key`, which
    the graph keeps as its rules) fixes which rules apply to every spec,
    so a node and its links to its children are the same in every space
    over that sequence.  The graph only grows; growth takes
    :data:`_GRAPH_LOCK`, reads take none."""

    __slots__ = ("rules", "nodes", "reach")

    def __init__(self, rules: Tuple[Rule, ...]) -> None:
        #: A rulebase holding exactly this graph's rules: a rule added
        #: to the caller's rulebase later never expands a node here.
        self.rules = RuleBase()
        self.rules.extend(rules)
        self.nodes: Dict[ComponentSpec, SpecNode] = {}
        self.reach: Dict[ComponentSpec, Tuple[SpecNode, ...]] = {}

    def reached(self, root: ComponentSpec,
                context: RuleContext) -> Tuple[SpecNode, ...]:
        """The nodes ``root`` reaches (itself first), expanding the
        ones the graph does not hold yet."""
        reach = self.reach.get(root)
        if reach is None:
            with _GRAPH_LOCK:
                reach = self.reach.get(root)
                if reach is None:
                    reach = self.reach[root] = self._walk(root, context)
        return reach

    def _walk(self, root: ComponentSpec,
              context: RuleContext) -> Tuple[SpecNode, ...]:
        nodes = self.nodes
        found: Dict[ComponentSpec, SpecNode] = {}
        pending = [root]
        while pending:
            spec = pending.pop()
            if spec in found:
                continue
            node = nodes.get(spec)
            if node is None:
                node = nodes[spec] = _expand_node(spec, self.rules, context)
            found[spec] = node
            for impl in node.impls:
                pending.extend(impl.children)
        return tuple(found.values())


@dataclass
class DesignTree:
    """A fully-chosen hierarchical design: the paper's 'hierarchical
    netlist that traces the top-down design of the input netlist into
    subcomponents', with leaves bound to library cells."""

    spec: ComponentSpec
    impl: Implementation
    children: Dict[str, "DesignTree"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.impl.kind == "cell"

    def cell_counts(self) -> Dict[str, int]:
        """Leaf cell usage, cell name -> count."""
        if self.is_leaf:
            return {self.impl.binding.cell.name: 1}
        totals: Dict[str, int] = {}
        for child in self.children.values():
            for name, count in child.cell_counts().items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children.values())

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = f"{pad}{self.spec} <- {self.impl.label}"
        lines = [line]
        if not self.is_leaf:
            for name, child in sorted(self.children.items()):
                lines.append(f"{pad}  [{name}]")
                lines.append(child.describe(indent + 2))
        return "\n".join(lines)


class DesignSpace:
    """Expansion and evaluation of the DTAS design space."""

    def __init__(
        self,
        rulebase: RuleBase,
        library: CellLibrary,
        perf_filter: Optional[PerformanceFilter] = None,
        max_combinations: Optional[int] = None,
        order: str = "lex",
    ) -> None:
        self.rulebase = rulebase
        self.library = library
        self.perf_filter = perf_filter or ParetoFilter()
        if max_combinations is None:
            max_combinations = 20000
        if max_combinations < 1:
            raise ValueError(
                f"max_combinations must be at least 1, got {max_combinations}")
        self._max_combinations = max_combinations
        #: S1 enumeration order: a name in
        #: :data:`~repro.core.configs.ORDERINGS` (checked here, so a
        #: bad one fails at construction).
        resolve_order(order)
        self.order = order
        #: Total S1-consistent combinations costed by this space (rows
        #: that survived the own-choice conflict check and went through
        #: a timing kernel); benchmarks report combinations/second.
        self.combinations_costed = 0
        self.context = RuleContext(library)
        self.nodes: Dict[ComponentSpec, SpecNode] = {}
        self.failures: Dict[ComponentSpec, str] = {}
        self._configs: Dict[ComponentSpec, List[Configuration]] = {}
        self._count_memo: Dict[ComponentSpec, int] = {}
        #: Optional persistent per-node option cache
        #: (:class:`repro.nodestore.NodeStore`); attach with
        #: :meth:`attach_node_store`.  ``None`` = evaluate everything.
        self.node_store = None
        #: The space half of every node fingerprint (None = detached).
        self.node_space_key: Optional[str] = None
        self._node_keys: Dict[ComponentSpec, str] = {}
        #: Cumulative per-phase wall time (seconds) spent in this
        #: space: ``expand`` (rule matching + technology mapping),
        #: ``node_probe``/``node_publish`` (the per-node option cache),
        #: ``enumerate_cost`` (the S1 cross product through the timing
        #: kernels), ``filter`` (S2 selection, including building the
        #: survivors' configurations).  Callers snapshot
        #: before/after a request to get that request's breakdown
        #: (:meth:`snapshot_phases`); increments go through
        #: ``_PHASE_LOCK``.  Never nested: only the outermost
        #: ``expand`` clocks, and the other phases do not re-enter
        #: (child subtrees are evaluated in their own ``configs``
        #: calls), so summing phases never double-counts.
        self.phase_seconds: Dict[str, float] = {}
        # Re-entrancy guard: specs mid-evaluation on the current call
        # stack.  One space runs on one thread at a time, so a spec
        # found here is a decomposition cycle.
        self._evaluating: Set[ComponentSpec] = set()
        # The shared expansion graph this space links its nodes from,
        # bound at the first expansion (see :meth:`_reached`).
        self._graph: Optional[_ExpansionGraph] = None

    @property
    def max_combinations(self) -> int:
        """The per-node cap on the S1 cross product (20000 unless the
        space was built with another).  Read-only: node keys embed the
        cap the space was built with, so changing it later would
        publish capped lists under another cap's key."""
        return self._max_combinations

    def _phase_add(self, phase: str, seconds: float) -> None:
        with _PHASE_LOCK:
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds)

    def snapshot_phases(self) -> Dict[str, float]:
        """A point-in-time copy of the cumulative phase clocks;
        subtract two snapshots for one request's breakdown."""
        with _PHASE_LOCK:
            return dict(self.phase_seconds)

    # ------------------------------------------------------------------
    # expansion (rules + technology mapping)
    # ------------------------------------------------------------------
    def expand(self, spec: ComponentSpec) -> SpecNode:
        """Expand a specification node (idempotent): link every node it
        reaches in this space's expansion graph, which expands the ones
        no space has reached yet."""
        node = self.nodes.get(spec)
        if node is not None:
            return node
        phase_start = time.perf_counter()
        try:
            nodes = self.nodes
            link = nodes.setdefault
            for shared in self._reached(spec):
                link(shared.spec, shared)
            return nodes[spec]
        finally:
            self._phase_add("expand", time.perf_counter() - phase_start)

    def _reached(self, root: ComponentSpec) -> Tuple[SpecNode, ...]:
        """The nodes ``root`` reaches in this space's graph: the
        process-wide graph of the rulebase's rules when the space first
        expanded.  The space stays bound to it, so a rule added to the
        rulebase later reaches the next space, never this one (whose
        nodes and ``configs`` memo were built without it)."""
        graph = self._graph
        if graph is None:
            key = self.rulebase.key
            graphs = _library_cache(self.library).graphs
            graph = graphs.get(key)
            if graph is None:
                graph = graphs.setdefault(key, _ExpansionGraph(key))
            self._graph = graph
        return graph.reached(root, self.context)

    # ------------------------------------------------------------------
    # the node cache (subtree-level persistent work sharing)
    # ------------------------------------------------------------------
    def attach_node_store(self, store, space_key: str) -> None:
        """Attach a persistent per-node option cache
        (:class:`repro.nodestore.NodeStore`).

        ``space_key`` is the engine-side fingerprint half every node
        key embeds (:func:`repro.nodestore.fingerprint.session_space_key`);
        the caller computes it because it digests the session's
        library and rulebase, which the space does not name."""
        self.node_store = store
        self.node_space_key = space_key
        self._node_keys = {}

    def _node_key(self, spec: ComponentSpec) -> str:
        key = self._node_keys.get(spec)
        if key is None:
            from repro.nodestore.fingerprint import node_key

            key = self._node_keys[spec] = node_key(self.node_space_key, spec)
        return key

    @staticmethod
    def _node_cacheable(node: SpecNode) -> bool:
        """Only nodes with at least one decomposition are cached:
        their option lists cost an S1 cross product plus structural
        timing to rebuild, while a pure-cell node's list is one
        configuration per binding -- cheaper to recompute than to
        round-trip through JSON, and caching it would multiply entry
        counts by the gate leaves every subtree shares."""
        return any(impl.kind == "decomp" for impl in node.impls)

    def _node_cache_probe(
        self, spec: ComponentSpec, node: SpecNode
    ) -> Optional[List[Configuration]]:
        """A cache-served option list for ``spec``, or None.

        A hit returns revived canonical configurations in the exact
        order a fresh evaluation would produce (list order is part of
        the persisted payload).  The children themselves are *not*
        evaluated -- that is the entire saving -- but they are already
        expanded, so per-request statistics and materialization are
        unchanged."""
        if not node.impls or not self._node_cacheable(node):
            return None
        phase_start = time.perf_counter()
        try:
            return self.node_store.load_options(
                self._node_key(spec), spec, expected_impls=len(node.impls))
        finally:
            self._phase_add("node_probe",
                            time.perf_counter() - phase_start)

    def _node_cache_publish(
        self, spec: ComponentSpec, node: SpecNode,
        selected: List[Configuration], programs: int,
    ) -> None:
        if not selected or not self._node_cacheable(node):
            return
        phase_start = time.perf_counter()
        try:
            self.node_store.save_options(
                self._node_key(spec), spec, selected,
                impls=len(node.impls), programs=programs)
        finally:
            self._phase_add("node_publish",
                            time.perf_counter() - phase_start)

    # ------------------------------------------------------------------
    # evaluation (costed configurations with S1 + S2)
    # ------------------------------------------------------------------
    def configs(self, spec: ComponentSpec) -> List[Configuration]:
        """Filtered configurations for a specification (memoized).

        With a node store attached, the persistent cache is probed
        after expansion and before evaluation, and freshly computed
        lists are published back -- so a different request (or another
        worker process) that already evaluated this subtree spares this
        one the S1 cross product entirely."""
        cached = self._configs.get(spec)
        if cached is not None:
            return cached
        if spec in self._evaluating:
            # A decomposition cycle: treat as unimplementable through
            # this path; the offending implementation is dropped.
            return []
        node = self.nodes.get(spec)
        if node is None:
            node = self.expand(spec)
        self._evaluating.add(spec)
        try:
            if self.node_store is not None:
                loaded = self._node_cache_probe(spec, node)
                if loaded is not None:
                    self._configs[spec] = loaded
                    return loaded
            candidates: list = []
            # Decompositions costed here: each compiled (or reused) its
            # timing program.
            programs = 0
            for impl in node.impls:
                if impl.kind == "cell":
                    candidates.append(impl.cell_configuration)
                    continue
                records = self._decomp_configs(spec, impl)
                if records is not None:
                    programs += 1
                    candidates.extend(records)
            selected = self._select(candidates)
            if not selected:
                self.failures.setdefault(
                    spec,
                    "no matching cell and no applicable rule"
                    if not node.impls
                    else "all implementations failed downstream",
                )
            self._configs[spec] = selected
            if self.node_store is not None:
                self._node_cache_publish(spec, node, selected, programs)
            return selected
        finally:
            self._evaluating.discard(spec)

    def _select(self, candidates: list) -> List[Configuration]:
        """Apply the performance filter to a node's candidates: cell
        :class:`Configuration` objects mixed with the
        :class:`~repro.core.configs.CostRecord` objects of evaluated
        rows.  The filter's ``select_block`` ranks the mixed block on
        area and delay, and only its survivors become configurations.
        Every filter keeps a lone candidate, so one is not ranked."""
        phase_start = time.perf_counter()
        try:
            if len(candidates) > 1:
                candidates = self.perf_filter.select_block(candidates)
            return [c.configuration() if c.__class__ is CostRecord else c
                    for c in candidates]
        finally:
            self._phase_add("filter", time.perf_counter() - phase_start)

    def _decomp_configs(
        self, spec: ComponentSpec, impl: Implementation
    ) -> Optional[List[CostRecord]]:
        """The cost records of one decomposition's S1 rows, or ``None``
        when some module is unimplementable (nothing is costed)."""
        program = impl.timing_program
        memo = self._configs
        option_lists = []
        for sub in program.slot_keys:
            options = memo.get(sub)
            if options is None:
                options = self.configs(sub)
            if not options:
                return None  # some module is unimplementable
            option_lists.append(options)
        return self._evaluate_combinations(
            program, option_lists, impl.own_choice, impl.own_items)

    def _evaluate_combinations(
        self,
        program: TimingProgram,
        option_lists: List[List[Configuration]],
        own_choice: Optional[Dict[ComponentSpec, int]],
        own_items: Tuple[Tuple[int, Tuple[ComponentSpec, int]], ...],
    ) -> List[CostRecord]:
        """Cost every S1-consistent combination of module options.

        Materialize the (capped) S1 rows, group them by their tuple of
        per-slot arc ids, hand each group's rows straight to one
        ``run_batch`` call of that signature's kernel (which reads the
        chosen configurations' areas and delay values itself), and
        return one :class:`~repro.core.configs.CostRecord` per costed
        row, in enumeration order; each record carries ``own_items``
        (:func:`~repro.core.configs.own_pairs` of ``own_choice``) and
        its kernel's arc id.  A single row is a group of one.
        :meth:`_select` turns the survivors into configurations.
        """
        phase_start = time.perf_counter()
        try:
            rows = enumerate_rows(option_lists, self.max_combinations,
                                  self.order, own_choice)
            results: List[Optional[CostRecord]] = [None] * len(rows)
            groups: Dict[tuple, List[int]] = {}
            groups_get = groups.get
            for index, (chosen, ok) in enumerate(rows):
                if not ok:
                    continue  # own-choice conflict: counted, never costed
                key = tuple(map(_arc_id, chosen))
                group = groups_get(key)
                if group is None:
                    groups[key] = [index]
                else:
                    group.append(index)
            costed = 0
            for arc_ids, indices in groups.items():
                kernel = program.kernel_for(arc_ids, ARC_IDS)
                chosen_rows = [rows[index][0] for index in indices]
                costs = kernel.run_batch(chosen_rows, len(indices))
                keys = kernel.keys
                arc_id = kernel.arc_id
                costed += len(indices)
                for index, chosen, (area, delay, values) in zip(
                        indices, chosen_rows, costs):
                    results[index] = CostRecord(
                        area, delay, keys, arc_id, values, chosen, own_items)
            self.combinations_costed += costed
            return [record for record in results if record is not None]
        finally:
            self._phase_add("enumerate_cost",
                            time.perf_counter() - phase_start)

    # ------------------------------------------------------------------
    # top-level entry points
    # ------------------------------------------------------------------
    def alternatives(self, spec: ComponentSpec) -> List[Configuration]:
        """Expand and evaluate a single component specification."""
        selected = self.configs(spec)
        if not selected:
            raise SynthesisError(self._failure_message(spec))
        return selected

    def evaluate_netlist(self, netlist: Netlist) -> List[Configuration]:
        """Alternatives for a whole input netlist of GENUS instances.

        The netlist is treated exactly like a decomposition: one
        configuration per S1-consistent, filter-surviving combination
        of module implementations, costed with structural timing.
        """
        # The caller owns this netlist and may mutate it between calls,
        # so compile a fresh program per evaluation (one compile per
        # call; every combination within the call still reuses it).
        program = TimingProgram(netlist, slot_of=_module_spec)
        option_lists = []
        for sub in program.slot_keys:
            options = self.configs(sub)
            if not options:
                raise SynthesisError(self._failure_message(sub))
            option_lists.append(options)
        results = self._evaluate_combinations(program, option_lists,
                                              None, ())
        return self._select(results)

    def _failure_message(self, spec: ComponentSpec) -> str:
        self.configs(spec)
        leaves = [
            f"{s} ({why})"
            for s, why in sorted(self.failures.items(), key=lambda kv: str(kv[0]))
            if not self.nodes.get(s) or not self.nodes[s].impls
        ] or [f"{s} ({why})" for s, why in self.failures.items()]
        listing = "; ".join(leaves[:6])
        return f"cannot implement {spec}: {listing}"

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def materialize(self, spec: ComponentSpec, config: Configuration) -> DesignTree:
        """Build the hierarchical design tree a configuration denotes.

        Expands the node on demand: a configuration loaded from the
        result store is served without any engine work, and only if the
        caller then asks for the tree is the (deterministic) expansion
        run, whose implementation indexing the stored choice map was
        recorded against."""
        choice = config.chosen_impl(spec)
        if choice is None:
            raise SynthesisError(f"configuration does not choose an impl for {spec}")
        impl = self.expand(spec).impls[choice]
        tree = DesignTree(spec, impl)
        if impl.kind == "decomp":
            for module in impl.netlist.modules:
                tree.children[module.name] = self.materialize(module.spec, config)
        return tree

    # ------------------------------------------------------------------
    # statistics (paper section 5 sizing claims)
    # ------------------------------------------------------------------
    def unconstrained_size(self, spec: ComponentSpec) -> int:
        """Size of the design space *without* search control: 'the
        product of the number of alternative implementations for each
        module in the netlist', summed over this spec's alternatives."""
        memo = self._count_memo
        in_progress: set = set()

        def count(s: ComponentSpec) -> int:
            if s in memo:
                return memo[s]
            if s in in_progress:
                return 0
            node = self.expand(s)
            in_progress.add(s)
            total = 0
            for impl in node.impls:
                if impl.kind == "cell":
                    total += 1
                else:
                    product = 1
                    for module in impl.netlist.modules:
                        sub = count(module.spec)
                        if sub == 0:
                            product = 0
                            break
                        product *= sub
                    total += product
            in_progress.discard(s)
            memo[s] = total
            return total

        return count(spec)

    def stats(self) -> Dict[str, int]:
        return _node_counts(list(self.nodes.values()))

    def stats_for(self, roots: Iterable[ComponentSpec]) -> Dict[str, int]:
        """:meth:`stats` restricted to the subgraph reachable from
        ``roots`` in this space's expansion graph -- a *deterministic
        function of the request*, unlike the whole-space counts, which
        depend on whatever else the session evaluated before.  Per-job
        stats (and therefore stored result payloads and served JSON
        bodies) use this, so a batch session, the serve pool, and a
        fresh single-request process all report identical numbers for
        the same request.  For a single-request space the two views
        coincide: expansion only links nodes reachable from the root.

        One root's counts are memoized on its shared node (what a node
        reaches is fixed by its graph); several roots count the union
        of what each reaches."""
        roots = list(roots)
        if len(roots) == 1:
            reached = self._reached(roots[0])
            node = reached[0]
            if node.stats is None:
                node.stats = _node_counts(reached)
            return dict(node.stats)
        union: Dict[ComponentSpec, SpecNode] = {}
        for root in roots:
            for node in self._reached(root):
                union.setdefault(node.spec, node)
        return _node_counts(list(union.values()))


def _node_counts(nodes: Sequence[SpecNode]) -> Dict[str, int]:
    return {
        "spec_nodes": len(nodes),
        "implementations": sum(len(n.impls) for n in nodes),
        "cell_bindings": sum(
            1 for n in nodes for i in n.impls if i.kind == "cell"),
        "decompositions": sum(
            1 for n in nodes for i in n.impls if i.kind == "decomp"),
    }
