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
recursing into the module specifications of each decomposition.  A
node's children through one decomposition are defined in one place,
:func:`distinct_module_specs`: the netlist's distinct module specs,
built once per rule netlist and process-wide.  Expansion, evaluation
and reachability all walk that tuple, so each child is visited once
per decomposition rather than once per module instance.

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
  and an S1 flag;
- rows sharing an arc signature (grouped by tuples of process-wide arc
  ids, which also find the kernel) go straight to that kernel's
  ``run_batch``: its generated function reads the chosen
  configurations' delay values and areas itself and returns each
  row's area, worst delay and delays, so no weight matrices are built.
  The results become :class:`~repro.core.configs.CostRecord` objects,
  which the S2 filter's ``select_block`` ranks on area and delay; only
  the survivors get merged choice items and an interned configuration,
  and interning keys on spec ids, so the costing and filtering path
  hashes no spec;
- rule applications, cell matchings, and compiled programs are pure
  functions of (rule, spec, library) and are cached process-wide, so
  repeated syntheses (benchmarks, serving, LOLA retargeting sweeps)
  skip re-expansion;
- configurations are interned process-wide
  (:mod:`repro.core.interning`), so node-store and result-store loads
  land as canonical objects;
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
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.configs import (
    ARC_IDS,
    Configuration,
    CostRecord,
    enumerate_rows,
    make_configuration,
    resolve_order,
)
from repro.core.filters import ParetoFilter, PerformanceFilter
from repro.core.mapper import CellBinding, matching_cells
from repro.core.rules import RuleBase, RuleContext
from repro.core.specs import ComponentSpec
from repro.netlist.netlist import Netlist
from repro.netlist.timing_program import TimingProgram
from repro.netlist.validate import validate_netlist

if False:  # typing only; avoids a circular import with repro.techlib
    from repro.techlib.cells import CellLibrary


_arc_id = attrgetter("arc_id")
_connections = attrgetter("connections")


def _configuration(candidate) -> Configuration:
    """A filter survivor as a configuration (cost records materialize;
    configurations pass through)."""
    if isinstance(candidate, CostRecord):
        return candidate.configuration()
    return candidate


class SynthesisError(Exception):
    """No implementation exists for a specification; the message names
    the leaf specifications that could not be implemented."""


# ---------------------------------------------------------------------------
# Process-wide expansion caches.
#
# Rule application and cell matching are pure functions of
# (rule builder, spec, library) / (spec, library): builders derive the
# decomposition from the frozen spec plus the library's width catalog,
# and nothing in the system mutates a rule-produced netlist after
# construction.  Every DTAS instance used to redo this work from
# scratch -- and a benchmark or serving process creates many instances
# over the same rulebase and library.  Caches are keyed *per library
# object* through a WeakKeyDictionary, so retiring a library (e.g. a
# LOLA retargeting sweep building one library per data book) releases
# its entire expansion state; within a library, keys hold the
# builder/spec objects themselves, so entries can never alias across
# distinct objects with reused addresses.
# ---------------------------------------------------------------------------

_EXPANSION_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

# Guards node_stats increments and the phase clocks.  A space runs on
# one thread at a time, but not always the same one (a serving process
# runs each session's jobs on its executor threads).
_NODE_STATS_LOCK = threading.Lock()


class _LibraryCache:
    __slots__ = ("rules", "cells")

    def __init__(self) -> None:
        self.rules: Dict[tuple, List[Netlist]] = {}
        self.cells: Dict[ComponentSpec, List[CellBinding]] = {}


def _library_cache(library) -> _LibraryCache:
    cache = _EXPANSION_CACHES.get(library)
    if cache is None:
        cache = _EXPANSION_CACHES[library] = _LibraryCache()
    return cache


def _cached_rule_netlists(rule, spec: ComponentSpec,
                          context: RuleContext) -> List[Netlist]:
    """The rule's netlists for ``spec``, validated once when the entry
    is first built."""
    cache = _library_cache(context.library)
    key = (rule.builder, spec)
    netlists = cache.rules.get(key)
    if netlists is None:
        netlists = rule.apply(spec, context)
        for netlist in netlists:
            validate_netlist(netlist)
        cache.rules[key] = netlists
    return netlists


def _cached_matching_cells(spec: ComponentSpec, library) -> List[CellBinding]:
    cache = _library_cache(library)
    bindings = cache.cells.get(spec)
    if bindings is None:
        bindings = cache.cells[spec] = matching_cells(spec, library)
    return bindings


def _structure_token(netlist: Netlist) -> Tuple[int, int, int, int]:
    """Cheap fingerprint of a netlist's structure, used to detect (most)
    mutations of a rule-produced netlist.  Rule netlists are shared
    process-wide and must not be mutated (see :class:`Implementation`);
    this token catches added modules/nets/ports/connections as a
    defense-in-depth recompile trigger.  Rewiring an existing pin to a
    different endpoint is not detectable at this cost."""
    return (
        len(netlist.modules),
        len(netlist.nets),
        len(netlist.ports),
        sum(map(len, map(_connections, netlist.modules))),
    )


def distinct_module_specs(netlist: Netlist) -> Tuple[ComponentSpec, ...]:
    """The distinct module specs of a rule netlist, in first-seen
    instance order: a node's children through this decomposition, and
    the slot order of its spec timing program.  Built once per netlist,
    process-wide, and attached beside the timing program, so the walks
    over a node's children (expansion, evaluation, reachability) visit
    each child once instead of once per module instance.  Same
    read-only contract as :func:`_spec_timing_program`."""
    children = netlist.__dict__.get("_spec_children")
    if children is None:
        children = netlist._spec_children = tuple(
            dict.fromkeys(module.spec for module in netlist.modules))
    return children


def _spec_timing_program(netlist: Netlist) -> TimingProgram:
    """The netlist's compiled timing program with one slot per distinct
    module spec (S1 forces every instance of a spec onto the same
    configuration).  Attached to the netlist so rule-cache hits across
    DTAS instances share the compiled structure and its kernels.

    Only call this for netlists that are structurally frozen -- rule
    products are; externally supplied netlists may be mutated by their
    owners and must compile a fresh program per evaluation instead."""
    token = _structure_token(netlist)
    program = getattr(netlist, "_spec_timing_program", None)
    if program is None or getattr(netlist, "_spec_timing_token", None) != token:
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        netlist._spec_timing_program = program
        netlist._spec_timing_token = token
        # A recompile refreshes the children too: they are the slots.
        netlist._spec_children = program.slot_keys
    return program


@dataclass
class Implementation:
    """One alternative implementation of a specification: either a
    library-cell binding or a decomposition netlist.

    ``netlist`` is owned by the process-wide rule cache and shared by
    every DTAS instance over the same library: treat it as read-only.
    Mutating it corrupts later syntheses (a structure fingerprint
    catches additions and forces a recompile, but rewired endpoints are
    not detectable cheaply)."""

    index: int
    spec: ComponentSpec
    kind: str  # "cell" | "decomp"
    binding: Optional[CellBinding] = None
    netlist: Optional[Netlist] = None
    rule_name: str = ""
    #: Compiled timing program for the decomposition netlist, built on
    #: first evaluation and reused for every subsequent combination.
    timing_program: Optional[TimingProgram] = field(
        default=None, repr=False, compare=False
    )

    @property
    def label(self) -> str:
        if self.kind == "cell":
            return f"cell:{self.binding.cell.name}"
        return f"rule:{self.rule_name}"


@dataclass
class SpecNode:
    """A specification node and its alternative implementations."""

    spec: ComponentSpec
    impls: List[Implementation] = field(default_factory=list)
    expanded: bool = False


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
        order: object = "lex",
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
        #: S1 enumeration order: ``"lex"``, ``"frontier"``, or a
        #: callable reordering one option list (resolved once).
        self.order = resolve_order(order)
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
        #: Per-space node-cache counters (the attached store keeps its
        #: own process-wide totals; these are this space's share).
        #: Increments go through the module-level ``_NODE_STATS_LOCK``.
        self.node_stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "published": 0}
        #: Cumulative per-phase wall time (seconds) spent in this
        #: space: ``expand`` (rule matching + technology mapping),
        #: ``node_probe``/``node_publish`` (the per-node option cache),
        #: ``enumerate_cost`` (the S1 cross product through the timing
        #: kernels), ``filter`` (S2 selection, including building the
        #: survivors' configurations).  Callers snapshot
        #: before/after a request to get that request's breakdown
        #: (:meth:`snapshot_phases`); increments go through the same
        #: lock as ``node_stats``.  Never nested: only the outermost
        #: ``expand`` clocks, and the other phases do not re-enter
        #: (child subtrees are evaluated in their own ``configs``
        #: calls), so summing phases never double-counts.
        self.phase_seconds: Dict[str, float] = {}
        # Re-entrancy guards: specs mid-expansion / mid-evaluation on
        # the current call stack.  One space runs on one thread at a
        # time, so a spec found here is a decomposition cycle.
        self._expanding: Set[ComponentSpec] = set()
        self._evaluating: Set[ComponentSpec] = set()

    @property
    def max_combinations(self) -> int:
        """The per-node cap on the S1 cross product (20000 unless the
        space was built with another).  Read-only: node keys embed the
        cap the space was built with, so changing it later would
        publish capped lists under another cap's key."""
        return self._max_combinations

    def _phase_add(self, phase: str, seconds: float) -> None:
        with _NODE_STATS_LOCK:
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds)

    def snapshot_phases(self) -> Dict[str, float]:
        """A point-in-time copy of the cumulative phase clocks;
        subtract two snapshots for one request's breakdown."""
        with _NODE_STATS_LOCK:
            return dict(self.phase_seconds)

    # ------------------------------------------------------------------
    # expansion (rules + technology mapping)
    # ------------------------------------------------------------------
    def expand(self, spec: ComponentSpec) -> SpecNode:
        """Expand a specification node (idempotent)."""
        node = self.nodes.get(spec)
        if node is not None and node.expanded:
            return node
        if node is None:
            node = SpecNode(spec)
            self.nodes[spec] = node
        if spec in self._expanding:
            return node  # completed by the ancestor call
        # Only the outermost expansion clocks the
        # "expand" phase: recursive child expansions are inside its
        # window, so timing them too would double-count.
        outermost = not self._expanding
        phase_start = time.perf_counter() if outermost else 0.0
        self._expanding.add(spec)
        try:
            impls: List[Implementation] = []
            for binding in _cached_matching_cells(spec, self.library):
                impls.append(
                    Implementation(len(impls), spec, "cell", binding=binding)
                )
            for rule in self.rulebase.rules_for(spec):
                for netlist in _cached_rule_netlists(rule, spec,
                                                     self.context):
                    impls.append(
                        Implementation(
                            len(impls), spec, "decomp",
                            netlist=netlist, rule_name=rule.name,
                        )
                    )
            node.impls = impls
            node.expanded = True
            nodes = self.nodes
            for impl in impls:
                if impl.kind == "decomp":
                    for child in distinct_module_specs(impl.netlist):
                        known = nodes.get(child)
                        if known is None or not known.expanded:
                            self.expand(child)
        finally:
            self._expanding.discard(spec)
            if outermost:
                self._phase_add("expand",
                                time.perf_counter() - phase_start)
        return node

    # ------------------------------------------------------------------
    # the node cache (subtree-level persistent work sharing)
    # ------------------------------------------------------------------
    def attach_node_store(self, store, space_key: Optional[str]) -> None:
        """Attach a persistent per-node option cache
        (:class:`repro.nodestore.NodeStore`).

        ``space_key`` is the engine-side fingerprint half every node
        key embeds (:func:`repro.nodestore.fingerprint.session_space_key`);
        a ``None`` key means this space's configuration cannot be
        canonicalized, and the cache stays detached -- node caching is
        an optimization that degrades to plain evaluation, never a
        correctness risk.  The caller owns computing the key because
        only it knows the order *name* (the space holds the resolved
        callable)."""
        if store is None or space_key is None:
            self.node_store = None
            self.node_space_key = None
        else:
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

        A hit returns canonical interned configurations in the exact
        order a fresh evaluation would produce (list order is part of
        the persisted payload).  The children themselves are *not*
        evaluated -- that is the entire saving -- but they are already
        expanded, so per-request statistics and materialization are
        unchanged."""
        if not node.impls or not self._node_cacheable(node):
            return None
        phase_start = time.perf_counter()
        try:
            options = self.node_store.load_options(
                self._node_key(spec), spec, expected_impls=len(node.impls))
            if options is None:
                with _NODE_STATS_LOCK:
                    self.node_stats["misses"] += 1
                return None
            with _NODE_STATS_LOCK:
                self.node_stats["hits"] += 1
            return options
        finally:
            self._phase_add("node_probe",
                            time.perf_counter() - phase_start)

    def _node_cache_publish(
        self, spec: ComponentSpec, node: SpecNode,
        selected: List[Configuration],
    ) -> None:
        if not selected or not self._node_cacheable(node):
            return
        phase_start = time.perf_counter()
        try:
            programs = sum(
                1 for impl in node.impls if impl.timing_program is not None)
            if self.node_store.save_options(
                self._node_key(spec), spec, selected,
                impls=len(node.impls), programs=programs):
                with _NODE_STATS_LOCK:
                    self.node_stats["published"] += 1
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
        if node is None or not node.expanded:
            node = self.expand(spec)
        self._evaluating.add(spec)
        try:
            if self.node_store is not None:
                loaded = self._node_cache_probe(spec, node)
                if loaded is not None:
                    self._configs[spec] = loaded
                    return loaded
            candidates: list = []
            for impl in node.impls:
                candidates.extend(self._impl_configs(spec, impl))
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
                self._node_cache_publish(spec, node, selected)
            return selected
        finally:
            self._evaluating.discard(spec)

    def _select(self, candidates: list) -> List[Configuration]:
        """Apply the performance filter to a node's candidates: cell
        :class:`Configuration` objects mixed with the
        :class:`~repro.core.configs.CostRecord` objects of evaluated
        rows.  A filter with ``select_block`` ranks the mixed block on
        area and delay, and only its survivors become configurations;
        a third-party filter without it gets every candidate as a
        configuration and runs ``select``, which returns the same
        survivors in the same order."""
        phase_start = time.perf_counter()
        try:
            block = getattr(self.perf_filter, "select_block", None)
            if block is None:
                return self.perf_filter.select(
                    [_configuration(c) for c in candidates])
            return [_configuration(c) for c in block(candidates)]
        finally:
            self._phase_add("filter", time.perf_counter() - phase_start)

    def _impl_configs(self, spec: ComponentSpec, impl: Implementation) -> list:
        """One implementation's S2 candidates: a configuration for a
        cell binding, cost records for a decomposition."""
        if impl.kind == "cell":
            cell = impl.binding.cell
            return [
                make_configuration(
                    cell.area, cell.delay_matrix(), {spec: impl.index}
                )
            ]
        return self._decomp_configs(spec, impl)

    def _decomp_configs(
        self, spec: ComponentSpec, impl: Implementation
    ) -> List[CostRecord]:
        netlist = impl.netlist
        memo = self._configs
        option_lists = []
        for sub in distinct_module_specs(netlist):
            options = memo.get(sub)
            if options is None:
                options = self.configs(sub)
            if not options:
                return []  # some module is unimplementable
            option_lists.append(options)

        program = impl.timing_program
        if program is None:
            program = impl.timing_program = _spec_timing_program(netlist)

        return self._evaluate_combinations(
            program, option_lists, {spec: impl.index}
        )

    def _evaluate_combinations(
        self,
        program: TimingProgram,
        option_lists: List[List[Configuration]],
        own_choice: Optional[Dict[ComponentSpec, int]],
    ) -> List[CostRecord]:
        """Cost every S1-consistent combination of module options.

        Materialize the (capped) S1 rows, group them by their tuple of
        per-slot arc ids, hand each group's rows straight to one
        ``run_batch`` call of that signature's kernel (which reads the
        chosen configurations' areas and delay values itself), and
        return one :class:`~repro.core.configs.CostRecord` per costed
        row, in enumeration order.  :meth:`_select` turns the survivors
        into configurations.
        """
        phase_start = time.perf_counter()
        try:
            rows = enumerate_rows(
                option_lists,
                limit=self.max_combinations,
                order=self.order,
                own_choice=own_choice,
            )
            own_items = tuple(own_choice.items()) if own_choice else ()
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
            arc_keys = ARC_IDS.values
            costed = 0
            for arc_ids, indices in groups.items():
                kernel = program.kernel_for(arc_ids, arc_keys)
                chosen_rows = [rows[index][0] for index in indices]
                costs = kernel.run_batch(chosen_rows, len(indices))
                keys = kernel.keys
                costed += len(indices)
                for index, chosen, (area, delay, values) in zip(
                        indices, chosen_rows, costs):
                    results[index] = CostRecord(
                        area, delay, keys, values, chosen, own_items)
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
        distinct_specs = list(dict.fromkeys(m.spec for m in netlist.modules))
        option_lists = []
        for sub in distinct_specs:
            options = self.configs(sub)
            if not options:
                raise SynthesisError(self._failure_message(sub))
            option_lists.append(options)
        # The caller owns this netlist and may mutate it between calls,
        # so compile a fresh program per evaluation (one compile per
        # call; every combination within the call still reuses it).
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        results = self._evaluate_combinations(program, option_lists, None)
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
        return {
            "spec_nodes": len(self.nodes),
            "implementations": sum(len(n.impls) for n in self.nodes.values()),
            "cell_bindings": sum(
                1 for n in self.nodes.values() for i in n.impls if i.kind == "cell"
            ),
            "decompositions": sum(
                1 for n in self.nodes.values() for i in n.impls if i.kind == "decomp"
            ),
        }

    def reachable_nodes(self, roots: Iterable[ComponentSpec]) -> List[SpecNode]:
        """The expanded nodes reachable from ``roots`` through
        decomposition module specs -- the subgraph one request
        actually touches, independent of whatever else this space
        evaluated.  The single traversal behind every per-request
        statistic (:meth:`stats_for`, the store's timing metadata), so
        the notion of "reachable" cannot drift between them."""
        seen: Set[ComponentSpec] = set()
        queue = list(roots)
        found: List[SpecNode] = []
        while queue:
            spec = queue.pop()
            if spec in seen:
                continue
            seen.add(spec)
            node = self.nodes.get(spec)
            if node is None:
                continue
            found.append(node)
            for impl in node.impls:
                if impl.kind == "decomp":
                    queue.extend(distinct_module_specs(impl.netlist))
        return found

    def stats_for(self, roots: Iterable[ComponentSpec]) -> Dict[str, int]:
        """:meth:`stats` restricted to the subgraph reachable from
        ``roots`` -- a *deterministic function of the request*, unlike
        the whole-space counts, which depend on whatever else the
        session evaluated before.  Per-job stats (and therefore stored
        result payloads and served JSON bodies) use this, so a batch
        session, the serve pool, and a fresh single-request process all
        report identical numbers for the same request.  For a
        single-request space the two views coincide: expansion only
        creates nodes reachable from the root."""
        nodes = self.reachable_nodes(roots)
        return {
            "spec_nodes": len(nodes),
            "implementations": sum(len(n.impls) for n in nodes),
            "cell_bindings": sum(
                1 for n in nodes for i in n.impls if i.kind == "cell"),
            "decompositions": sum(
                1 for n in nodes for i in n.impls if i.kind == "decomp"),
        }
