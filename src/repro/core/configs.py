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

Combining sibling options is one function, :func:`enumerate_rows`: it
enumerates the S1-consistent cross product depth first and stops at
the combination cap, so the cap bounds the work performed, not just the
length of a list that was already fully materialized.  Sibling
specification sets are analysed up front: an option list whose specs
appear in no other list can never conflict, so its options are appended
with no comparisons at all; for lists that *can* conflict, each
option's shared choices are extracted once and checked against the
running merge by small integer spec ranks.

Enumeration order is pluggable: the default ``"lex"`` order walks the
option lists exactly as given (the seed semantics, and what keeps
benchmark results byte-identical), while ``"frontier"`` reorders each
option list by Pareto rank so a ``limit`` keeps the best designs
instead of the lexicographically first, and ``"auto"``
(:func:`adaptive_order`) keeps a short lex prefix ahead of the
frontier tail so tiny caps retain the knee region *and* the delay
corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
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
    twice on a miss (probe, then insert) -- so :func:`enumerate_rows`
    builds rows' choice items as ``ChoiceTuple`` and pays the spec walk
    once per instance instead of once per dictionary operation.
    Equality and the hash *value* are exactly the underlying tuple's,
    so mixing with plain tuples (unpickled payloads, hand-built
    configurations) stays transparent; pickles degrade to plain tuples
    so a cached hash (which embeds the per-process string-hash seed)
    never crosses a process boundary.
    """

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_h")
        if h is None:
            h = d["_h"] = tuple.__hash__(self)
        return h

    def __reduce__(self):
        return (tuple, (tuple(self),))

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

    @property
    def delay_values(self) -> Tuple[float, ...]:
        """The delay weights, parallel to :attr:`arc_keys`."""
        cached = self.__dict__.get("_delay_values")
        if cached is None:
            cached = tuple(v for _, v in self.delays)
            object.__setattr__(self, "_delay_values", cached)
        return cached

    def choice_map(self) -> Dict[ComponentSpec, int]:
        return dict(self.choices)

    @property
    def choice_specs(self) -> frozenset:
        """The specs this configuration binds, as a cached frozenset.

        The S1 combiners union these per option list to find which
        lists can conflict at all; caching on the (interned, shared)
        configuration makes that a C-level set union instead of a
        re-scan of every choice tuple on every evaluation."""
        cached = self.__dict__.get("_choice_specs")
        if cached is None:
            cached = frozenset(spec for spec, _ in self.choices)
            object.__setattr__(self, "_choice_specs", cached)
        return cached

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


def prune_dominated_options(
    options: Sequence[Configuration],
    shared_specs: Optional[set] = None,
) -> List[Configuration]:
    """Drop options that are *interchangeable-for-the-worse*.

    Two options are interchangeable for S1 composition when their
    choices agree on every spec in ``shared_specs`` -- the specs that
    can also appear in sibling option lists; choices on specs private
    to this list can never cause a conflict elsewhere.  Among
    interchangeable options, one that is at least as good in area and
    in every delay arc (same arc-key set) and strictly better somewhere
    dominates: every combination the worse option could contribute, the
    better one contributes at pointwise-lower cost.

    With ``shared_specs=None`` the *full* choice map must agree -- the
    conservative form used directly in tests.  Opt-in because a
    dominated combination can still tie the dominating one on the
    scalar (area, worst-delay) pair, so downstream filter tie-breaking
    may keep a different (cost-equivalent) representative than
    unpruned evaluation.
    """

    def footprint(option: Configuration) -> Tuple[Choice, ...]:
        if shared_specs is None:
            return option.choices
        return tuple(c for c in option.choices if c[0] in shared_specs)

    kept: List[Configuration] = []
    kept_footprints: List[Tuple[Choice, ...]] = []
    for option in options:
        own_footprint = footprint(option)
        dominated = False
        for other, other_footprint in zip(kept, kept_footprints):
            if other_footprint != own_footprint:
                continue
            if other.arc_keys != option.arc_keys:
                continue
            if other.area > option.area:
                continue
            values, other_values = option.delay_values, other.delay_values
            if any(o > v for o, v in zip(other_values, values)):
                continue
            if other.area < option.area or any(
                o < v for o, v in zip(other_values, values)
            ):
                dominated = True
                break
        if not dominated:
            kept.append(option)
            kept_footprints.append(own_footprint)
    return kept


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

#: One combination row: the chosen configurations plus the
#: canonically-sorted merged choice items (``None`` = rejected by the
#: caller's own-choice S1 check; the row still counted against the cap).
Row = Tuple[Tuple[Configuration, ...], Optional[Tuple[Choice, ...]]]


def enumerate_rows(
    option_lists: Sequence[Sequence[Configuration]],
    limit: Optional[int] = None,
    prune_dominated: bool = False,
    order: Union[str, OrderFn, None] = None,
    own_choice: Optional[Mapping[ComponentSpec, int]] = None,
) -> List[Row]:
    """The S1-consistent cross product of per-spec options, as rows.

    Rows come in nested-loop order over the option lists (after the
    optional dominance pruning and the ``order`` transform), and a
    conflicting prefix is pruned at the depth where it first
    conflicts.  ``limit`` aborts the enumeration at the cap, so the cap
    bounds both the work and this list's memory.  Each row carries the
    chosen configurations plus the merged choice items already in
    canonical sorted order, ready for :func:`make_configuration_parts`.
    When two lists bind the same spec to the same impl, the row keeps
    one entry for it.  The sort
    never compares two specs: every spec of the node gets a small
    integer *rank* in sort-key order (equal sort keys imply equal
    specs, so the rank map is order-preserving and injective), each
    option's choices are decorated once with a packed
    ``(rank, depth, position)`` integer key, and a row's items are one
    integer sort over the per-depth runs at emit time.  S1 consistency
    bookkeeping runs over the same ranks, so the hot loop hashes small
    ints, not specs.  Only rows that actually contain a duplicated spec
    pay a dedup pass.

    ``own_choice`` folds the caller's own (spec -> impl) entries into
    every row after the merge: a row whose children pin an own spec to
    a different impl is an S1 conflict -- it still counts against
    ``limit`` (the check runs after the row is enumerated) but its
    choice items are ``None`` so the caller skips costing it.
    """
    if limit is not None and limit <= 0:
        return []
    count = len(option_lists)
    # Which option lists can conflict at all?  A spec can collide only
    # when it appears in the choice universes of two different lists.
    universes: List[set] = []
    for options in option_lists:
        universe: set = set()
        for config in options:
            universe |= config.choice_specs
        universes.append(universe)
    shared: set = set()
    seen: set = set()
    for universe in universes:
        shared |= universe & seen
        seen |= universe

    lists: List[Sequence[Configuration]] = (
        [prune_dominated_options(options, shared) for options in option_lists]
        if prune_dominated
        else list(option_lists)
    )
    order_fn = resolve_order(order)
    if order_fn is not None:
        if getattr(order_fn, "limit_aware", False):
            lists = [order_fn(options, limit) for options in lists]
        else:
            lists = [order_fn(options) for options in lists]

    own_items: Tuple[Choice, ...] = ()
    if own_choice:
        own_items = tuple(
            sorted(own_choice.items(), key=lambda kv: kv[0].sort_key))
    rows: List[Row] = []
    if count == 0:
        # No sibling lists: exactly one empty combination, whose
        # choices are the caller's own entries.
        rows.append(((), own_items))
        return rows

    # The merge map tracks every spec that can appear twice in one row:
    # the shared set, plus own specs present in some child universe (so
    # own-vs-child conflicts are caught against the full merge).
    # Widening beyond ``shared`` changes no sibling pruning -- a spec
    # private to one list can never conflict between siblings -- it
    # only makes the own-choice check exact.
    tracked = shared
    if own_items:
        extra = {spec for spec, _ in own_items
                 if any(spec in universe for universe in universes)}
        extra -= shared
        if extra:
            tracked = shared | extra
    checked = [bool(universe & tracked) for universe in universes]

    # Integer spec ranks in sort-key order.  Each entry's packed key is
    # (rank, depth, j) with strides wide enough that integer comparison
    # equals lexicographic tuple comparison; keys are unique within a
    # row (one config per depth, j indexes its choices), so the emit
    # sort never falls through to comparing the payload.
    all_specs: set = set()
    for universe in universes:
        all_specs |= universe
    all_specs.update(spec for spec, _ in own_items)
    rank_of = {
        spec: rank
        for rank, spec in enumerate(
            sorted(all_specs, key=lambda s: s.sort_key))
    }
    # Identity fast path for rank lookups: specs are interned by
    # :func:`make_spec`, so a config's choice spec is almost always
    # *the* object sitting in the universe sets; an int-keyed get then
    # skips the (Python-level) spec hash.  Equal-but-distinct spec
    # objects fall back to the value-keyed map, so nothing relies on
    # the interning.
    rank_by_id = {id(spec): rank for spec, rank in rank_of.items()}
    rank_by_id_get = rank_by_id.get
    tracked_ranks = {rank_of[spec] for spec in tracked}
    j_stride = len(own_items) + 1
    for options in lists:
        for config in options:
            width = len(config.choices) + 1
            if width > j_stride:
                j_stride = width
    depth_stride = count + 2
    rank_stride = depth_stride * j_stride

    own_run = [
        (rank_of[spec] * rank_stride + count * j_stride + j, (spec, impl))
        for j, (spec, impl) in enumerate(own_items)
    ]
    own_rank_items = [(rank_of[spec], impl) for spec, impl in own_items]

    # Per-depth memo tables parallel to the option lists, filled
    # lazily: position indexing keeps the innermost loops free of both
    # id() calls and dictionary probes.
    run_tables: List[list] = [[None] * len(options) for options in lists]
    tracked_tables: List[list] = [[None] * len(options) for options in lists]

    merged: Dict[int, int] = {}
    merged_get = merged.get
    chosen: List[Optional[Configuration]] = [None] * count
    #: The flat stack of the current prefix's decorated entries; walk
    #: extends it per depth and truncates on unwind, so emit only pays
    #: one sorted copy per row.
    entries: list = []
    rows_append = rows.append
    done = False
    limit_n = -1 if limit is None else limit

    def emit(multiplicity: int) -> None:
        nonlocal done
        duplicates = multiplicity - len(merged)
        if own_rank_items:
            for rank, impl in own_rank_items:
                existing = merged_get(rank)
                if existing is not None:
                    if existing != impl:
                        rows_append((tuple(chosen), None))
                        if len(rows) == limit_n:
                            done = True
                        return
                    duplicates += 1
            ent = entries + own_run
            ent.sort()
        else:
            ent = sorted(entries)
        if duplicates:
            # Equal specs share one rank (the rank map is value-keyed),
            # so duplicates are adjacent after the sort and detected by
            # integer division alone; keep the first occurrence (lowest
            # depth; the impls of duplicates are equal by construction).
            deduped = []
            prev_rank = -1
            for entry in ent:
                rank = entry[0] // rank_stride
                if rank == prev_rank:
                    continue
                prev_rank = rank
                deduped.append(entry)
            ent = deduped
        rows_append(
            (tuple(chosen), ChoiceTuple([entry[1] for entry in ent])))
        if len(rows) == limit_n:
            done = True

    def decorated_run(table: list, index: int,
                      config: Configuration, depth_off: int) -> list:
        run: list = []
        append = run.append
        j = depth_off
        for choice in config.choices:
            rank = rank_by_id_get(id(choice[0]))
            if rank is None:
                rank = rank_of[choice[0]]
            append((rank * rank_stride + j, choice))
            j += 1
        table[index] = run
        return run

    def tracked_items(table: list, index: int,
                      config: Configuration) -> list:
        items: list = []
        append = items.append
        for spec, impl in config.choices:
            rank = rank_by_id_get(id(spec))
            if rank is None:
                rank = rank_of[spec]
            if rank in tracked_ranks:
                append((rank, impl))
        table[index] = items
        return items

    def walk(depth: int, multiplicity: int) -> None:
        options = lists[depth]
        last = depth + 1 == count
        run_table = run_tables[depth]
        depth_off = depth * j_stride
        base = len(entries)
        extend = entries.extend
        if not checked[depth]:
            # No spec of this list appears anywhere else: conflicts are
            # impossible, so no merge bookkeeping at all.
            index = 0
            for config in options:
                run = run_table[index]
                if run is None:
                    run = decorated_run(run_table, index, config, depth_off)
                index += 1
                chosen[depth] = config
                extend(run)
                if last:
                    emit(multiplicity)
                else:
                    walk(depth + 1, multiplicity)
                del entries[base:]
                if done:
                    return
        else:
            tracked_table = tracked_tables[depth]
            index = 0
            for config in options:
                items = tracked_table[index]
                if items is None:
                    items = tracked_items(tracked_table, index, config)
                consistent = True
                to_add: List[int] = []
                for rank, impl in items:
                    existing = merged_get(rank)
                    if existing is None:
                        to_add.append(rank)
                    elif existing != impl:
                        consistent = False
                        break
                if consistent:
                    for rank, impl in items:
                        merged[rank] = impl
                    run = run_table[index]
                    if run is None:
                        run = decorated_run(
                            run_table, index, config, depth_off)
                    chosen[depth] = config
                    extend(run)
                    if last:
                        emit(multiplicity + len(items))
                    else:
                        walk(depth + 1, multiplicity + len(items))
                    del entries[base:]
                    for rank in to_add:
                        del merged[rank]
                index += 1
                if done:
                    return

    walk(0, 0)
    return rows
