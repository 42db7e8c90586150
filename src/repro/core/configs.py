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
process-wide.  The intern key and :meth:`Configuration.__hash__` use
the ``(spec id, impl)`` pairs in place of the choices: spec ids are by
value, so the key is equivalent and hashes no spec.

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
length of a list that was already fully materialized.  Most nodes take
an early exit: when every list holds one option, the one row is
decided with set operations over the chosen configurations' spec ids
and ``(spec id, impl)`` pairs, own choice included.  Otherwise
sibling spec-id sets are analysed up front: an option list whose specs
appear in no other list can never conflict, so its options are
appended with no comparisons at all; for lists that *can* conflict,
each option's shared ``(spec id, impl)`` pairs are extracted once and
checked against the running merge.  A row is only ``(chosen
configurations, s1_ok)``: the merged choice items are built later, and
only for the rows whose costs survive the S2 filter
(:class:`CostRecord`, :func:`merge_choices`).

Enumeration order is one of three names (:data:`ORDERINGS`): the
default ``"lex"`` order walks the option lists exactly as given (the
seed semantics, and what keeps benchmark results byte-identical),
while ``"frontier"`` reorders each option list by Pareto rank so a
``limit`` keeps the best designs instead of the lexicographically
first, and ``"auto"`` (:func:`adaptive_order`) keeps a short lex
prefix ahead of the frontier tail so tiny caps retain the knee region
*and* the delay corner.

The search controls that shape a node's option list are exactly
three: the S2 filter, the enumeration order and the combination cap
(``limit`` here, ``max_combinations`` on the design space).  Both
cache keys (:mod:`repro.store.fingerprint`) name those three and
nothing else.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.interning import CONFIGURATIONS
from repro.core.specs import ComponentSpec

Choice = Tuple[ComponentSpec, int]  # (specification, implementation index)
DelayItems = Tuple[Tuple[Tuple[str, str], float], ...]


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


#: Spec ids, keyed by the spec's field values (not the spec object, so
#: the table never pins a spec the weak spec intern table would free);
#: each id's value is the spec's ``sort_key``.
SPEC_IDS = IdTable()
#: Arc-signature ids, keyed by a delay matrix's ``arc_keys`` tuple.
ARC_IDS = IdTable()


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
        # Spec ids are by value, so equal choices have equal id pairs;
        # hashing the ids touches no spec.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.area, self.delays, self.id_choices))
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
        form the S1 combiner checks consistency in, and the choices
        part of the intern key and the hash."""
        return _id_choices(self.choices)

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
        payload; unpickling re-interns, so a configuration pickled in
        another process lands as the receiving process's canonical
        instance."""
        return (_restore_configuration, (self.area, self.delays, self.choices))


def _id_choices(choices: Sequence[Choice]) -> Tuple[Tuple[int, int], ...]:
    return tuple([(spec_id(spec), impl) for spec, impl in choices])


def _restore_configuration(area, delays, choices) -> Configuration:
    """Unpickle target: rebuild through the intern table."""
    return CONFIGURATIONS.revive_parts(
        area, delays, choices, _id_choices(choices), Configuration)


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
    choice_items = tuple(
        sorted(choices.items(), key=lambda kv: kv[0].sort_key))
    return CONFIGURATIONS.revive_parts(
        float(area), delay_items, choice_items, _id_choices(choice_items),
        Configuration)


def make_configuration(
    area: float,
    delays: Mapping[Tuple[str, str], float],
    choices: Mapping[ComponentSpec, int],
) -> Configuration:
    """Normalized, interned constructor (sorted, hashable tuples; one
    canonical instance per value process-wide)."""
    delay_items = tuple(sorted(delays.items()))
    choice_items = tuple(
        sorted(choices.items(), key=lambda kv: kv[0].sort_key))
    return CONFIGURATIONS.intern_parts(
        float(area), delay_items, choice_items, _id_choices(choice_items),
        Configuration)


# ---------------------------------------------------------------------------
# Enumeration orders
# ---------------------------------------------------------------------------

def pareto_rank_order(options: Sequence[Configuration],
                      limit: Optional[int] = None) -> List[Configuration]:
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
    The order is the same under every ``limit``.
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

    It uses the cap :func:`enumerate_rows` passes every order: with
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


def lex_order(options: Sequence[Configuration],
              limit: Optional[int] = None) -> Sequence[Configuration]:
    """Enumeration order of the option lists (seed semantics;
    byte-stable results)."""
    return options


#: The enumeration orders, by name: each reorders one option list
#: given the combination cap (``None`` = uncapped).  ``lex`` is the
#: engine default; both cache keys name the order.
ORDERINGS: Dict[str, Callable[..., Sequence[Configuration]]] = {
    "lex": lex_order,
    "frontier": pareto_rank_order,
    "auto": adaptive_order,
}


def resolve_order(order: str) -> Callable[..., Sequence[Configuration]]:
    """The order function :data:`ORDERINGS` names ``order``: a
    non-string is a ``TypeError``, an unknown name a ``ValueError``."""
    if not isinstance(order, str):
        raise TypeError(
            f"order must be a name ({', '.join(ORDERINGS)}), got "
            f"{type(order).__name__}")
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
    order: str = "lex",
    own_choice: Optional[Mapping[ComponentSpec, int]] = None,
) -> List[Row]:
    """The S1-consistent cross product of per-spec options, as rows.

    Rows come in nested-loop order over the option lists (after the
    :data:`ORDERINGS` function ``order`` names), and a conflicting
    prefix is pruned at the depth where it first conflicts.  ``limit``
    aborts the enumeration at the cap, so the cap bounds both the work
    and this list's memory.  Each row is the
    chosen configurations plus an ``s1_ok`` flag; the merged choice
    items are not built here (:func:`merge_choices` builds them for the
    rows that survive S2).

    Consistency is checked on process-wide spec ids
    (:attr:`Configuration.id_choices`): the merge map holds
    ``spec id -> impl`` for the *tracked* specs only -- those that
    appear in two lists' universes, plus own specs some child also
    binds -- and a list whose universe touches no tracked spec skips
    the merge entirely.  With one option per list, the one row is
    decided by :func:`_one_row`.

    ``own_choice`` is the caller's own (spec -> impl) entries: a row
    whose children pin an own spec to a different impl is an S1
    conflict -- it still counts against ``limit`` (the check runs after
    the row is enumerated) but comes back with ``s1_ok=False`` so the
    caller skips costing it.
    """
    if limit is not None and limit <= 0:
        return []
    sizes = list(map(len, option_lists))
    if sizes.count(1) == len(sizes):
        return _one_row(option_lists, own_choice)
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

    order_fn = resolve_order(order)
    lists = [order_fn(options, limit) for options in option_lists]

    rows: List[Row] = []

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


def _one_row(option_lists: Sequence[Sequence[Configuration]],
             own_choice: Optional[Mapping[ComponentSpec, int]]
             ) -> List[Row]:
    """:func:`enumerate_rows` when every list holds one option (or
    there is no list): the one row, or none when two siblings bind a
    spec to different impls.  Every order keeps a one-option list as it
    is, and a cap of at least one keeps the row."""
    chosen = tuple([options[0] for options in option_lists])
    ids: set = set()
    bound = 0
    for config in chosen:
        spec_ids = config.spec_ids
        ids |= spec_ids
        bound += len(spec_ids)
    pairs: Optional[set] = None
    if bound != len(ids):
        # Some spec is bound twice: consistent only if both bindings
        # are one (spec id, impl) pair.
        pairs = set().union(*[config.id_choices for config in chosen])
        if len(pairs) != len(ids):
            return []
    ok = True
    if own_choice:
        for spec, impl in own_choice.items():
            ident = spec_id(spec)
            if ident in ids:
                if pairs is None:
                    pairs = set().union(
                        *[config.id_choices for config in chosen])
                if (ident, impl) not in pairs:
                    ok = False
    return [(chosen, ok)]


def merge_choices(chosen: Sequence[Configuration],
                  own_items: Sequence[Choice] = ()) -> Tuple[Choice, ...]:
    """The canonical choice items of an S1-consistent row: each spec's
    first occurrence in depth order over ``chosen``, then the own
    entries not already bound, sorted by spec sort key -- the choices
    of the row's configuration.  Only meaningful for a row whose
    ``s1_ok`` is true (its duplicate specs agree on the impl)."""
    return _merge(chosen, own_pairs(own_items))[1]


def own_pairs(own_items: Iterable[Choice]) -> Tuple[Tuple[int, Choice], ...]:
    """``(spec id, choice)`` for each own choice: the form
    :class:`CostRecord` carries its own entries in."""
    return tuple([(spec_id(choice[0]), choice) for choice in own_items])


def _merge(chosen: Sequence[Configuration],
           own: Sequence[Tuple[int, Choice]]
           ) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Choice, ...]]:
    """:func:`merge_choices` as ``(id_choices, choices)``; ``own`` is
    :func:`own_pairs` of the own entries."""
    # spec id -> choice, filled lowest precedence first so each update
    # overwrites with an earlier occurrence: own entries, then the
    # chosen configurations deepest first.
    merged: Dict[int, Choice] = dict(own)
    for config in reversed(chosen):
        merged.update(zip(map(_first, config.id_choices), config.choices))
    ordered = sorted(merged, key=SPEC_IDS.values.__getitem__)
    choices = tuple(map(merged.__getitem__, ordered))
    return tuple(zip(ordered, map(_second, choices))), choices


class CostRecord:
    """The costs of one evaluated row, before it is a configuration.

    The S2 filters' ``select_block`` ranks candidates on ``area`` and
    ``delay`` alone, so the costing loop hands them these records and
    only the survivors pay for their merged choice items and an intern
    lookup (:meth:`configuration`).  ``own`` holds the own entries as
    :func:`own_pairs`.  A record never leaves the design space that
    built it."""

    __slots__ = ("area", "delay", "keys", "values", "chosen", "own")

    def __init__(self, area: float, delay: float,
                 keys: Tuple[Tuple[str, str], ...], values: Tuple[float, ...],
                 chosen: Tuple[Configuration, ...],
                 own: Tuple[Tuple[int, Choice], ...]) -> None:
        self.area = area
        self.delay = delay
        #: The kernel's result arc keys (sorted) and the row's values.
        self.keys = keys
        self.values = values
        self.chosen = chosen
        self.own = own

    def configuration(self) -> Configuration:
        """The interned configuration this record denotes.

        The record already holds what the configuration's lazy caches
        would derive -- the ``(spec id, impl)`` pairs and spec ids of
        the merged choices, the arc keys, their arc id and the delay
        values -- so a fresh instance gets them handed over instead of
        computing each on first touch.  They are value-determined, so
        an interned instance that has them already keeps equal ones."""
        id_choices, choices = _merge(self.chosen, self.own)
        keys = self.keys
        config = CONFIGURATIONS.intern_parts(
            self.area, tuple(zip(keys, self.values)), choices, id_choices,
            Configuration, self.delay)
        caches = config.__dict__
        if "arc_id" not in caches:
            caches["_arc_keys"] = keys
            caches["delay_values"] = self.values
            caches["arc_id"] = ARC_IDS.id_of(keys)
            caches["spec_ids"] = frozenset(map(_first, id_choices))
        return config
