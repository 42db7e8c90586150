"""Work-sharing parallel evaluation of design-space subtrees.

``DesignSpace.configs`` is a memoized bottom-up walk; the units of
work are *specs*, and two specs with no shared descendants can be
evaluated in any order -- or at the same time.  This module
topologically partitions the expanded spec graph under a root into
independent subtree tasks and evaluates them in forked worker
processes, prefilling the design space's ``_configs`` memo so the
final sequential pass only has the top-level residue left to do.

The one backend is a fork-based :mod:`multiprocessing` pool.  Workers
are forked *after* expansion, so they inherit the expanded nodes, rule
caches, and compiled timing programs for free; each worker evaluates
its subtree and ships back the newly computed configurations, which
are picklable by design (:class:`~repro.core.configs.Configuration`
re-interns on load, so results land as canonical parent-process
instances).  Where ``fork`` is not available (e.g. Windows), nothing
is farmed out (``stats["backend"] == "none"``) and the sequential walk
answers alone, with the same results.

Scheduling is largest-subtree-first: tasks are ordered by descendant
count and handed to whichever worker is free (work sharing), which
approximates longest-processing-time scheduling without needing a cost
model.  Subtrees may overlap in their deep, cheap leaves (gates are
shared by everything); overlapping work is recomputed rather than
coordinated, and the first result wins.

Parity caveat: the shipped rulebases do produce decomposition cycles
(the ``_evaluating`` guard of ``DesignSpace.configs`` fires on
``comparator:16``, ``alu:64`` and ``adder:16``), and the guard drops
the implementation that closes a cycle as seen from the evaluation
stack, so an option list can depend on evaluation order.  A fork
worker starts each subtree task with an empty guard, where the
sequential walk would have the task's ancestors on it.  That
``jobs > 1`` answers the 24-item catalogue exactly like ``jobs=1`` is
therefore a *measured* fact, pinned by
``test_fork_jobs4_answers_the_catalogue_like_jobs1``, not a guarantee.
The same order dependence makes a shared session's answers differ from
a fresh one's (the strict xfail
``test_shared_session_answer_matches_fresh_session``).
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.design_space import distinct_module_specs
from repro.core.specs import ComponentSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.configs import Configuration
    from repro.core.design_space import DesignSpace


# ---------------------------------------------------------------------------
# Topological partitioning
# ---------------------------------------------------------------------------

def child_specs(space: "DesignSpace", spec: ComponentSpec) -> List[ComponentSpec]:
    """Distinct module specs across the decomposition implementations
    of ``spec``, in first-seen order."""
    node = space.nodes.get(spec)
    if node is None:
        node = space.expand(spec)
    seen: Dict[ComponentSpec, None] = {}
    for impl in node.impls:
        if impl.kind == "decomp":
            seen.update(dict.fromkeys(distinct_module_specs(impl.netlist)))
    return list(seen)


def descendant_counts(
    space: "DesignSpace", roots: Sequence[ComponentSpec]
) -> Dict[ComponentSpec, int]:
    """Number of distinct specs in each subtree (the task weight used
    for largest-first scheduling), computed over the expanded DAG."""
    sets: Dict[ComponentSpec, Set[ComponentSpec]] = {}

    def closure(spec: ComponentSpec, stack: Set[ComponentSpec]) -> Set[ComponentSpec]:
        cached = sets.get(spec)
        if cached is not None:
            return cached
        if spec in stack:
            return set()  # cycle: counted by the enclosing call
        stack.add(spec)
        acc: Set[ComponentSpec] = {spec}
        for child in child_specs(space, spec):
            acc |= closure(child, stack)
        stack.discard(spec)
        sets[spec] = acc
        return acc

    for root in roots:
        closure(root, set())
    return {spec: len(members) for spec, members in sets.items()}


def partition_subtrees(
    space: "DesignSpace",
    roots: Sequence[ComponentSpec],
    min_tasks: int,
) -> List[ComponentSpec]:
    """Independent subtree tasks under ``roots``, heaviest first.

    The first partition level is the distinct module specs of the
    roots' decompositions; when that yields too few tasks to keep
    ``min_tasks`` workers busy, one more level is pulled in (keeping
    the originals -- a worker that lands a parent subtree simply
    covers its children's results first).  Specs already memoized in
    the design space are skipped.
    """
    frontier: Dict[ComponentSpec, None] = {}
    for root in roots:
        space.expand(root)
        for child in child_specs(space, root):
            frontier.setdefault(child, None)
    if len(frontier) < min_tasks:
        for spec in list(frontier):
            for child in child_specs(space, spec):
                frontier.setdefault(child, None)
    tasks = [spec for spec in frontier if spec not in space._configs]
    if not tasks:
        return []
    weights = descendant_counts(space, tasks)
    order = {spec: position for position, spec in enumerate(tasks)}
    tasks.sort(key=lambda spec: (-weights.get(spec, 1), order[spec]))
    return tasks


# ---------------------------------------------------------------------------
# Fork workers
# ---------------------------------------------------------------------------

# Fork inheritance channel: set immediately before the pool is
# created, cleared after, under _FORK_LOCK so concurrent sessions
# cannot fork each other's space (or None).
# Workers read these module globals as copied at fork time; the
# _FORK_SENT_* totals are *mutated in the worker* so each task ships
# only the counter and clock increments the parent has not seen from
# this worker yet.
_FORK_SPACE: "DesignSpace" = None
_FORK_SENT_NODE_STATS: Dict[str, int] = {}
_FORK_SENT_PHASES: Dict[str, float] = {}
_FORK_SENT_COMBINATIONS = 0
_FORK_LOCK = threading.Lock()

#: What a fork worker ships back: the configurations it computed, its
#: node-cache counter increments (the worker probes and publishes the
#: shared :class:`repro.nodestore.NodeStore` through its own post-fork
#: connection), its phase-clock increments, and its increment of
#: ``combinations_costed``.  Without the last three, work done inside
#: workers would be invisible to the parent's stats.  All parts are
#: deltas: a long-lived worker must not re-pickle everything it has
#: computed since fork on every task.
_WorkerDelta = Tuple[
    Dict[ComponentSpec, List["Configuration"]],
    Dict[str, int],
    Dict[str, float],
    int,
]


def _fork_worker(spec: ComponentSpec) -> _WorkerDelta:
    global _FORK_SENT_COMBINATIONS
    space = _FORK_SPACE
    # Snapshot-diff: ship only what *this task* memoized.  Anything an
    # earlier task of this worker computed is already in the memo (and
    # was shipped then); the parent's pre-fork memo was inherited.
    known = frozenset(space._configs)
    space.configs(spec)
    configs = {
        sub: options
        for sub, options in space._configs.items()
        if options and sub not in known
    }
    node_stats: Dict[str, int] = {}
    for key, value in space.node_stats.items():
        sent_value = _FORK_SENT_NODE_STATS.get(key, 0)
        if value != sent_value:
            node_stats[key] = value - sent_value
            _FORK_SENT_NODE_STATS[key] = value
    phases: Dict[str, float] = {}
    for key, value in space.snapshot_phases().items():
        sent_seconds = _FORK_SENT_PHASES.get(key, 0.0)
        if value != sent_seconds:
            phases[key] = value - sent_seconds
            _FORK_SENT_PHASES[key] = value
    combinations = space.combinations_costed - _FORK_SENT_COMBINATIONS
    _FORK_SENT_COMBINATIONS = space.combinations_costed
    return configs, node_stats, phases, combinations


def _process_prefill(space: "DesignSpace", tasks: Sequence[ComponentSpec],
                     jobs: int) -> None:
    global _FORK_SPACE, _FORK_SENT_NODE_STATS, _FORK_SENT_PHASES, \
        _FORK_SENT_COMBINATIONS
    context = multiprocessing.get_context("fork")
    with _FORK_LOCK:
        _FORK_SPACE = space
        # Seed with the parent's pre-fork counters so workers do not
        # ship back what the parent already knows.
        _FORK_SENT_NODE_STATS = dict(space.node_stats)
        _FORK_SENT_PHASES = space.snapshot_phases()
        _FORK_SENT_COMBINATIONS = space.combinations_costed
        try:
            with context.Pool(processes=min(jobs, len(tasks))) as pool:
                for configs, node_stats, phases, combinations in \
                        pool.imap_unordered(
                            _fork_worker, tasks, chunksize=1):
                    for spec, options in configs.items():
                        # First result wins (see the parity caveat in
                        # the module docstring).  Empty results are not
                        # installed -- the sequential pass recomputes
                        # them so failure diagnostics populate.
                        if spec not in space._configs:
                            space._configs[spec] = options
                    # Fold the child's counter and clock increments in
                    # so the parent's stats cover work done in workers.
                    for key, delta in node_stats.items():
                        space.node_stats[key] = \
                            space.node_stats.get(key, 0) + delta
                    for key, seconds in phases.items():
                        space._phase_add(key, seconds)
                    space.combinations_costed += combinations
        finally:
            _FORK_SPACE = None
            _FORK_SENT_NODE_STATS = {}
            _FORK_SENT_PHASES = {}
            _FORK_SENT_COMBINATIONS = 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parallel_prefill(space: "DesignSpace",
                     roots: Iterable[ComponentSpec]) -> Dict[str, int]:
    """Evaluate the subtrees under ``roots`` with ``space.jobs``
    workers, prefilling the configuration memo.

    Called by :meth:`DesignSpace.alternatives` and
    :meth:`DesignSpace.evaluate_netlist` when ``jobs > 1``; safe to
    call directly.  Returns scheduling counters (also stored on
    ``space.last_parallel_stats`` for observability).
    """
    roots = list(roots)
    jobs = space.jobs
    tasks = partition_subtrees(space, roots, min_tasks=2 * jobs)
    stats = {"jobs": jobs, "tasks": len(tasks), "backend": "none"}
    if tasks and jobs > 1 and \
            "fork" in multiprocessing.get_all_start_methods():
        _process_prefill(space, tasks, jobs)
        stats["backend"] = "process"
    space.last_parallel_stats = stats
    return stats
