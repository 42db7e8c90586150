"""Configurations: costed, globally-consistent implementation choices.

DTAS's first search-control principle (S1) says a design may not
contain "two or more modules with the same component specification that
are not instances of the same component implementation".  We implement
that exactly: a :class:`Configuration` carries the full mapping
*specification -> chosen implementation* for the subtree it describes,
and combining configurations from sibling modules rejects conflicting
choices.

A configuration also carries its cost: total area (equivalent NAND
gates) and the full input-to-output pin delay matrix (nanoseconds), so
parents can run structural timing over their decomposition netlists.
The scalar worst-delay summary is computed once at construction (it is
the sort key of every filter pass), and per-spec choice lookup is
backed by a lazily built dictionary so materializing a design tree is
linear rather than quadratic in tree size.

Configurations are *interned* (:mod:`repro.core.interning`):
:func:`make_configuration` returns one canonical instance per distinct
(area, delays, choices) value, so equality between interned instances
is an O(1) identity check, duplicate allocation disappears from the
keep-all ablations, and every lazy per-object cache is computed once
process-wide.

S1 bookkeeping runs on small integers, never on specs.  Each distinct
spec value gets one process-wide *spec id* (:func:`spec_id`, cached on
the spec object), and each configuration lazily caches its
``(spec id, impl)`` pairs (:attr:`Configuration.id_choices`) and the
set of its spec ids (:attr:`Configuration.spec_ids`).  Likewise each
distinct arc signature gets one process-wide *arc id*
(:attr:`Configuration.arc_id`), so the costing loop groups rows by
tuples of small ints.  The id tables only grow, are filled under a lock,
and never leave the process: specs and configurations pickle by value.

Combining sibling options is one function, :func:`enumerate_rows`: it
enumerates the S1-consistent cross product depth first and stops at
the combination cap, so the cap bounds the work performed, not just the
length of a list that was already fully materialized.  Sibling spec-id
sets are analysed up front: an option list whose specs appear in no
other list can never conflict, so its options are appended with no
comparisons at all; for lists that *can* conflict, each option's
shared ``(spec id, impl)`` pairs are extracted once and checked
against the running merge.  A row is only ``(chosen configurations,
s1_ok)``: the merged choice items are built later, and only for the
rows whose costs survive the S2 filter (:class:`CostRecord`,
:func:`merge_choices`).

Enumeration order is pluggable: the default ``"lex"`` order walks the
option lists exactly as given (the seed semantics, and what keeps
benchmark results byte-identical), while ``"frontier"`` reorders each
option list by Pareto rank so a ``limit`` keeps the best designs
instead of the lexicographically first, and ``"auto"``
(:func:`adaptive_order`) keeps a short lex prefix ahead of the
frontier tail so tiny caps retain the knee region *and* the delay
corner.

The search controls that shape a node's option list are exactly
three: the S2 filter, the enumeration order and the combination cap
(``limit`` here, ``max_combinations`` on the design space).  Both
cache keys (:mod:`repro.store.fingerprint`) name those three and
nothing else.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.interning import CONFIGURATIONS
from repro.core.specs import ComponentSpec

Choice = Tuple[ComponentSpec, int]  # (specification, implementation index)
DelayItems = Tuple[Tuple[Tuple[str, str], float], ...]


class ChoiceTuple(tuple):
    """A choice tuple that caches its hash.

    Plain tuples recompute their hash on every use, and a choice
    tuple's hash walks every spec's (Python-level) ``__hash__``.  The
    intern table hashes the choices part of its key on every lookup --
    twice on a miss (probe, then insert) -- so :func:`merge_choices`
    (and the node store's payload decoder) build choice items as
    ``ChoiceTuple`` and pay the spec walk once per instance instead of
    once per dictionary operation.  Equality and the hash *value* are
    exactly the underlying tuple's, so mixing with plain tuples
    (unpickled payloads, hand-built configurations) stays transparent;
    pickles degrade to plain tuples so a cached hash (which embeds the
    per-process string-hash seed) never crosses a process boundary.
    """

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_h")
        if h is None:
            h = d["_h"] = tuple.__hash__(self)
        return h

    def __reduce__(self):
        return (tuple, (tuple(self),))


# ---------------------------------------------------------------------------
# Process-wide id tables
# ---------------------------------------------------------------------------

class IdTable:
    """A grow-only, thread-safe key -> small int table.

    Ids are dense (0, 1, 2, ...) in first-seen order and are only
    meaningful inside the process that assigned them; nothing that
    pickles ever carries one.  Reads are a plain dict probe; a miss
    takes the lock, so two threads seeing the same new key agree on its
    id."""

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        #: id -> the value recorded with it (by default its key).
        self.values: List[object] = []
        self._lock = threading.Lock()

    def id_of(self, key: Hashable, value: object = None) -> int:
        """The id of ``key``; a new key records ``value`` (default: the
        key itself) under its id in :attr:`values`."""
        ident = self._ids.get(key)
        if ident is None:
            with self._lock:
                ident = self._ids.get(key)
                if ident is None:
                    ident = self._ids[key] = len(self.values)
                    self.values.append(key if value is None else value)
        return ident

    def _reinit_lock(self) -> None:
        """Post-fork hook: a fork can snapshot the lock held."""
        self._lock = threading.Lock()


#: Spec ids, keyed by the spec's field values (not the spec object, so
#: the table never pins a spec the weak spec intern table would free);
#: each id's value is the spec's ``sort_key``.
SPEC_IDS = IdTable()
#: Arc-signature ids, keyed by a delay matrix's ``arc_keys`` tuple.
ARC_IDS = IdTable()

if hasattr(os, "register_at_fork"):  # POSIX: keep forked workers safe
    os.register_at_fork(after_in_child=SPEC_IDS._reinit_lock)
    os.register_at_fork(after_in_child=ARC_IDS._reinit_lock)


_first = itemgetter(0)
_second = itemgetter(1)


def spec_id(spec: ComponentSpec) -> int:
    """The process-wide small-int id of ``spec``'s value, cached on the
    spec object.  Equal specs share one id, whether or not they are the
    same (interned) object."""
    ident = spec.__dict__.get("_spec_id")
    if ident is None:
        ident = SPEC_IDS.id_of((spec.ctype, spec.width, spec.attrs),
                               spec.sort_key)
        object.__setattr__(spec, "_spec_id", ident)
    return ident


#: An order backend reorders one option list; ``None`` keeps the list
#: as given (lexicographic enumeration).
OrderFn = Callable[[Sequence["Configuration"]], List["Configuration"]]


@dataclass(frozen=True, eq=False)
class Configuration:
    """One consistent, costed implementation choice for a spec subtree.

    Equality and hashing are by value -- (area, delays, choices) --
    with an identity fast path that the intern table makes effective:
    configurations built through :func:`make_configuration` share one
    canonical instance per value, so the equal case is `a is b`.
    """

    area: float
    delays: DelayItems
    choices: Tuple[Choice, ...]
    #: Scalar summary (worst pin-to-pin delay), precomputed because it
    #: is read on every filter sort key and dominance comparison.  It is
    #: derived from ``delays``, so it is excluded from equality/hash.
    delay: float = field(default=-1.0, compare=False)

    def __post_init__(self) -> None:
        if self.delay < 0.0:
            object.__setattr__(
                self, "delay", max((d for _, d in self.delays), default=0.0)
            )

    # -- identity ------------------------------------------------------
    @property
    def interned_id(self) -> Optional[int]:
        """Stable small-int identity assigned by the intern table, or
        ``None`` for instances built outside it."""
        return self.__dict__.get("_intern_id")

    def __eq__(self, other: object) -> bool:
        # Identity first: interned equal configurations are the same
        # object, so the common case never compares tuples.  (No
        # "both-interned => unequal" shortcut: InternTable.clear() may
        # leave equal canonical instances from different table
        # generations alive, and they must still compare equal.)
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            self.area == other.area
            and self.delays == other.delays
            and self.choices == other.choices
        )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.area, self.delays, self.choices))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- cost views ----------------------------------------------------
    def delay_matrix(self) -> Dict[Tuple[str, str], float]:
        return dict(self.delays)

    @property
    def arc_keys(self) -> Tuple[Tuple[str, str], ...]:
        """The (input, output) pairs of the delay matrix, in ``delays``
        order -- the arc signature used by compiled timing kernels."""
        cached = self.__dict__.get("_arc_keys")
        if cached is None:
            cached = tuple(k for k, _ in self.delays)
            object.__setattr__(self, "_arc_keys", cached)
        return cached

    # The S1 and costing loops read the next four; ``cached_property``
    # stores into the instance dict, so a warm read is a plain attribute
    # load rather than a property call.
    @cached_property
    def delay_values(self) -> Tuple[float, ...]:
        """The delay weights, parallel to :attr:`arc_keys`."""
        return tuple(v for _, v in self.delays)

    @cached_property
    def arc_id(self) -> int:
        """The process-wide id of :attr:`arc_keys` (:data:`ARC_IDS`):
        the costing loop groups rows by tuples of these."""
        return ARC_IDS.id_of(self.arc_keys)

    @cached_property
    def id_choices(self) -> Tuple[Tuple[int, int], ...]:
        """``(spec id, impl)`` pairs, parallel to ``choices`` -- the
        form the S1 combiner checks consistency in."""
        return tuple([(spec_id(spec), impl) for spec, impl in self.choices])

    @cached_property
    def spec_ids(self) -> frozenset:
        """The ids of the specs this configuration binds.  The S1
        combiner unions these per option list to find which lists can
        conflict at all."""
        return frozenset(map(_first, self.id_choices))

    def choice_map(self) -> Dict[ComponentSpec, int]:
        return dict(self.choices)

    def chosen_impl(self, spec: ComponentSpec) -> Optional[int]:
        table = self.__dict__.get("_impl_by_spec")
        if table is None:
            table = dict(self.choices)
            object.__setattr__(self, "_impl_by_spec", table)
        return table.get(spec)

    def describe(self) -> str:
        return f"area={self.area:.0f} gates, delay={self.delay:.1f} ns"

    # -- pickling ------------------------------------------------------
    def __reduce__(self):
        """Pickle by value only -- none of the lazily built caches (and
        never ``_intern_id``, which is process-specific) enter the
        payload; unpickling re-interns, so configurations shipped back
        from a multiprocessing worker land as canonical instances of
        the receiving process."""
        return (_restore_configuration, (self.area, self.delays, self.choices))


def _restore_configuration(area, delays, choices) -> Configuration:
    """Unpickle target: rebuild through the intern table."""
    return CONFIGURATIONS.revive_parts(area, delays, choices, Configuration)


def revive_configuration(
    area: float,
    delays: Mapping[Tuple[str, str], float],
    choices: Mapping[ComponentSpec, int],
) -> Configuration:
    """Re-intern a configuration loaded from outside the process (the
    result store's JSON payloads use this).  Same normalization as
    :func:`make_configuration`, same canonical instance -- a loaded
    configuration equal to a freshly computed one *is* that object --
    but counted separately by the intern table's ``revived`` stat."""
    delay_items = tuple(sorted(delays.items()))
    choice_items = ChoiceTuple(
        sorted(choices.items(), key=lambda kv: kv[0].sort_key))
    return CONFIGURATIONS.revive_parts(
        float(area), delay_items, choice_items, Configuration
    )


def make_configuration(
    area: float,
    delays: Mapping[Tuple[str, str], float],
    choices: Mapping[ComponentSpec, int],
) -> Configuration:
    """Normalized, interned constructor (sorted, hashable tuples; one
    canonical instance per value process-wide)."""
    delay_items = tuple(sorted(delays.items()))
    choice_items = ChoiceTuple(
        sorted(choices.items(), key=lambda kv: kv[0].sort_key))
    return CONFIGURATIONS.intern_parts(
        float(area), delay_items, choice_items, Configuration
    )


def make_configuration_parts(
    area: float,
    delay_items: DelayItems,
    choice_items: Tuple[Choice, ...],
    delay: float,
) -> Configuration:
    """Interned constructor for *already canonical* parts.

    The batched evaluator builds its delay items pre-sorted (the kernel
    result layout is sorted once per arc signature), merges choice items
    in sorted order, and knows the worst-delay scalar from the block's
    value columns -- so the normalizing sorts and the ``__post_init__``
    scan of :func:`make_configuration` would be pure overhead.  The
    caller owns canonicality: parts must equal what
    :func:`make_configuration` would produce for the same value.
    """
    return CONFIGURATIONS.intern_parts(
        area, delay_items, choice_items, Configuration, delay
    )


# ---------------------------------------------------------------------------
# Enumeration orders
# ---------------------------------------------------------------------------

def pareto_rank_order(options: Sequence[Configuration]) -> List[Configuration]:
    """Reorder one option list frontier-first for cap-bounded search.

    Non-dominated sorting on (area, worst delay): rank 0 is the Pareto
    frontier of the list, rank 1 the frontier of what remains, and so
    on.  Within each rank the points are emitted in a *two-ended
    sweep* -- smallest-area first, then fastest, then the next point
    from each end alternately -- so that even a very short prefix of
    the list contains both cost corners, not just the cheap-and-slow
    end.  Lexicographic enumeration over sorted lists explores the
    small-area corner of every sibling before it ever reaches a fast
    option of the first one; seeding each list this way is what lets
    ``limit`` keep the best designs (both corners of the composed
    frontier) instead of the lexicographically first.

    Deterministic: ties are broken by (area, delay, original index).
    """
    n = len(options)
    if n <= 1:
        return list(options)
    by_cost = sorted(range(n), key=lambda i: (options[i].area,
                                              options[i].delay, i))
    remaining = by_cost
    rank_groups: List[List[int]] = []
    while remaining:
        best_delay = float("inf")
        group: List[int] = []
        leftover: List[int] = []
        for i in remaining:
            if options[i].delay < best_delay - 1e-12:
                group.append(i)
                best_delay = options[i].delay
            else:
                leftover.append(i)
        rank_groups.append(group)
        remaining = leftover
    ordered: List[int] = []
    for group in rank_groups:
        lo, hi = 0, len(group) - 1
        take_lo = True
        while lo <= hi:
            if take_lo:
                ordered.append(group[lo])
                lo += 1
            else:
                ordered.append(group[hi])
                hi -= 1
            take_lo = not take_lo
    return [options[i] for i in ordered]


#: How many original-order options the ``auto`` order keeps in front
#: of the frontier tail.  Three is measured, not guessed: on ALU64 at
#: ``max_combinations=10`` a prefix of 3 keeps lex's knee-region best
#: area-delay product (115756 gate-ns, vs 245590 for pure frontier)
#: while the frontier tail still reaches the 28.6 ns delay corner that
#: lex misses (34.2 ns); shorter prefixes lose the knee, longer ones
#: re-create lex's corner blindness under tiny caps.
AUTO_LEX_PREFIX = 3


def adaptive_order(options: Sequence[Configuration],
                   limit: Optional[int] = None) -> List[Configuration]:
    """Cap-adaptive enumeration order: lex prefix + frontier tail.

    Under a combination cap the two built-in orders fail in opposite
    corners: ``lex`` explores the lexicographically-early combinations
    (preserving the knee region the seed semantics find) but never
    reaches a fast option of a late list, while ``frontier``
    (:func:`pareto_rank_order`) seeds both cost corners but spends the
    tiny-cap budget hopping between extremes and thins the knee.  This
    order keeps each list's first :data:`AUTO_LEX_PREFIX` options in
    their original positions -- so the capped enumeration still covers
    the lex-early region -- and appends the remaining options in
    frontier order, so the delay corner is seeded right behind them.

    It is *limit-aware* (:func:`enumerate_rows` passes its cap): with
    no cap there is nothing to ration and the list is kept as given,
    preserving the byte-stable seed semantics; with a cap smaller than
    the prefix the prefix shrinks to the cap (a budget of 2 should not
    be spent entirely on lex replay).
    """
    n = len(options)
    if limit is None or n <= 2:
        return list(options)
    keep = min(n, max(1, min(AUTO_LEX_PREFIX, limit)))
    head = list(options[:keep])
    head_ids = {id(option) for option in head}
    tail = [option for option in pareto_rank_order(options)
            if id(option) not in head_ids]
    return head + tail


#: Marks an order callable whose signature is ``(options, limit)``:
#: :func:`enumerate_rows` passes its combination cap so the order can
#: ration the prefix (see :func:`adaptive_order`).
adaptive_order.limit_aware = True  # type: ignore[attr-defined]


#: Built-in enumeration orders (``None`` = keep the given list order).
#: This is the *engine-level* table: only built-ins live here, and the
#: engine otherwise takes order callables directly.  Name-based
#: third-party orders register in :data:`repro.api.registry.ORDERS`
#: and are resolved to callables at the Session/CLI layer.
ORDERINGS: Dict[str, Optional[OrderFn]] = {
    "lex": None,
    "frontier": pareto_rank_order,
    "auto": adaptive_order,
}


def resolve_order(order: Union[str, OrderFn, None]) -> Optional[OrderFn]:
    """Resolve an order designator: ``None``/``"lex"`` mean no
    reordering, ``"frontier"`` the Pareto-rank order, and a callable
    passes through (the extension point name-registered backends use)."""
    if order is None:
        return None
    if callable(order):
        return order
    try:
        return ORDERINGS[order]
    except KeyError:
        raise ValueError(
            f"unknown enumeration order {order!r}; "
            f"known: {', '.join(sorted(ORDERINGS))}"
        ) from None


# ---------------------------------------------------------------------------
# The S1 combiner
# ---------------------------------------------------------------------------

#: One combination row: the chosen configurations, one per option list,
#: and whether the row passed the caller's own-choice S1 check (a row
#: that failed it still counted against the cap; it is never costed).
Row = Tuple[Tuple[Configuration, ...], bool]


def enumerate_rows(
    option_lists: Sequence[Sequence[Configuration]],
    limit: Optional[int] = None,
    order: Union[str, OrderFn, None] = None,
    own_choice: Optional[Mapping[ComponentSpec, int]] = None,
) -> List[Row]:
    """The S1-consistent cross product of per-spec options, as rows.

    Rows come in nested-loop order over the option lists (after the
    ``order`` transform), and a conflicting prefix is pruned at the
    depth where it first conflicts.  ``limit`` aborts the enumeration at the cap, so the cap
    bounds both the work and this list's memory.  Each row is the
    chosen configurations plus an ``s1_ok`` flag; the merged choice
    items are not built here (:func:`merge_choices` builds them for the
    rows that survive S2).

    Consistency is checked on process-wide spec ids
    (:attr:`Configuration.id_choices`): the merge map holds
    ``spec id -> impl`` for the *tracked* specs only -- those that
    appear in two lists' universes, plus own specs some child also
    binds -- and a list whose universe touches no tracked spec skips
    the merge entirely.

    ``own_choice`` is the caller's own (spec -> impl) entries: a row
    whose children pin an own spec to a different impl is an S1
    conflict -- it still counts against ``limit`` (the check runs after
    the row is enumerated) but comes back with ``s1_ok=False`` so the
    caller skips costing it.
    """
    if limit is not None and limit <= 0:
        return []
    count = len(option_lists)
    # Which option lists can conflict at all?  A spec can collide only
    # when it appears in the spec-id universes of two different lists.
    universes: List[set] = []
    for options in option_lists:
        universe: set = set()
        for config in options:
            universe |= config.spec_ids
        universes.append(universe)
    shared: set = set()
    seen: set = set()
    for universe in universes:
        shared |= universe & seen
        seen |= universe

    lists: List[Sequence[Configuration]] = list(option_lists)
    order_fn = resolve_order(order)
    if order_fn is not None:
        if getattr(order_fn, "limit_aware", False):
            lists = [order_fn(options, limit) for options in lists]
        else:
            lists = [order_fn(options) for options in lists]

    rows: List[Row] = []
    if count == 0:
        # No sibling lists: exactly one empty combination.
        rows.append(((), True))
        return rows

    # Own entries that some child also binds: the only ones that can
    # conflict, so the only ones checked per row.  Tracking them too
    # changes no sibling pruning -- a spec private to one list never
    # conflicts between siblings -- it only makes the own check exact.
    own_checks: List[Tuple[int, int]] = []
    if own_choice:
        for spec, impl in own_choice.items():
            ident = spec_id(spec)
            if ident in seen:
                own_checks.append((ident, impl))
    tracked = shared.union(ident for ident, _ in own_checks)
    checked = [not universe.isdisjoint(tracked) for universe in universes]
    # Per-depth memo of each option's tracked pairs, parallel to the
    # option lists and filled lazily: position indexing keeps the inner
    # loop free of dictionary probes.
    tracked_tables: List[list] = [[None] * len(options) for options in lists]

    merged: Dict[int, int] = {}
    merged_get = merged.get
    chosen: List[Optional[Configuration]] = [None] * count
    rows_append = rows.append
    done = False
    limit_n = -1 if limit is None else limit

    def emit() -> None:
        nonlocal done
        ok = True
        for ident, impl in own_checks:
            existing = merged_get(ident)
            if existing is not None and existing != impl:
                ok = False
                break
        rows_append((tuple(chosen), ok))
        if len(rows) == limit_n:
            done = True

    def walk(depth: int) -> None:
        nonlocal done
        options = lists[depth]
        last = depth + 1 == count
        if not checked[depth]:
            # No spec of this list appears anywhere else: conflicts are
            # impossible, so no merge bookkeeping at all.
            if last and not own_checks:
                for config in options:
                    chosen[depth] = config
                    rows_append((tuple(chosen), True))
                    if len(rows) == limit_n:
                        done = True
                        return
                return
            for config in options:
                chosen[depth] = config
                if last:
                    emit()
                else:
                    walk(depth + 1)
                if done:
                    return
            return
        table = tracked_tables[depth]
        for index, config in enumerate(options):
            items = table[index]
            if items is None:
                items = table[index] = [
                    pair for pair in config.id_choices if pair[0] in tracked]
            consistent = True
            to_add: List[int] = []
            for ident, impl in items:
                existing = merged_get(ident)
                if existing is None:
                    to_add.append(ident)
                elif existing != impl:
                    consistent = False
                    break
            if consistent:
                for ident, impl in items:
                    merged[ident] = impl
                chosen[depth] = config
                if last:
                    emit()
                else:
                    walk(depth + 1)
                for ident in to_add:
                    del merged[ident]
            if done:
                return

    walk(0)
    # ``walk`` reaches itself through its closure cell.  Unbinding it
    # breaks that cycle, so this call's state is freed by reference
    # counting now instead of piling up for the cyclic collector.
    walk = None  # noqa: F841
    return rows


def merge_choices(chosen: Sequence[Configuration],
                  own_items: Sequence[Choice] = ()) -> Tuple[Choice, ...]:
    """The canonical choice items of an S1-consistent row: each spec's
    first occurrence in depth order over ``chosen``, then the own
    entries not already bound, sorted by spec sort key -- ready for
    :func:`make_configuration_parts`.  Only meaningful for a row whose
    ``s1_ok`` is true (its duplicate specs agree on the impl)."""
    return _merge(chosen, own_items)[1]


def _merge(chosen: Sequence[Configuration], own_items: Sequence[Choice]
           ) -> Tuple[Tuple[int, ...], Tuple[Choice, ...]]:
    """:func:`merge_choices` plus the spec ids parallel to its items."""
    # spec id -> choice, filled lowest precedence first so each update
    # overwrites with an earlier occurrence: own entries, then the
    # chosen configurations deepest first.
    merged: Dict[int, Choice] = {
        spec_id(choice[0]): choice for choice in own_items}
    for config in reversed(chosen):
        merged.update(zip(map(_first, config.id_choices), config.choices))
    ordered = sorted(merged, key=SPEC_IDS.values.__getitem__)
    return tuple(ordered), ChoiceTuple(map(merged.__getitem__, ordered))


class CostRecord:
    """The costs of one evaluated row, before it is a configuration.

    The S2 filters' ``select_block`` ranks candidates on ``area`` and
    ``delay`` alone, so the costing loop hands them these records and
    only the survivors pay for their merged choice items and an intern
    lookup (:meth:`configuration`).  A record never leaves the design
    space that built it."""

    __slots__ = ("area", "delay", "keys", "values", "chosen", "own")

    def __init__(self, area: float, delay: float,
                 keys: Tuple[Tuple[str, str], ...], values: Sequence[float],
                 chosen: Tuple[Configuration, ...],
                 own: Tuple[Choice, ...]) -> None:
        self.area = area
        self.delay = delay
        #: The kernel's result arc keys (sorted) and the row's values.
        self.keys = keys
        self.values = values
        self.chosen = chosen
        self.own = own

    def configuration(self) -> Configuration:
        """The interned configuration this record denotes.

        The record already holds what three of the configuration's lazy
        caches would derive -- the ``(spec id, impl)`` pairs of the
        merged choices, the arc keys and the delay values -- so they are
        handed over (they are value-determined, so an interned instance
        that has them already keeps equal ones)."""
        ids, choices = _merge(self.chosen, self.own)
        config = make_configuration_parts(
            self.area, tuple(zip(self.keys, self.values)), choices,
            self.delay)
        caches = config.__dict__
        caches.setdefault("id_choices",
                          tuple(zip(ids, map(_second, choices))))
        caches.setdefault("_arc_keys", self.keys)
        caches.setdefault("delay_values", tuple(self.values))
        return config
