"""The S1 combiner, :func:`repro.core.configs.enumerate_rows`:
conflict rejection, cap-bounded work, orders, and parity with
the streaming and materializing cross products of
``tests/reference_engine.py``."""

import pickle
import random
import sys

import pytest
from reference_engine import (
    combine_compatible,
    iter_compatible,
    reference_combine,
    row_choices,
    row_items,
)

from repro.core.configs import (
    enumerate_rows,
    make_configuration,
    merge_choices,
    spec_id,
)
from repro.core.specs import ComponentSpec, adder_spec, gate_spec, mux_spec


def test_spec_and_config_pickles_drop_process_local_caches():
    """Cached hashes embed the per-process string-hash seed; pickles
    must not carry them (another process would get stale hashes and
    silent dict-lookup misses).  Specs and configurations
    both pickle by value only (``__reduce__``) and re-intern on load,
    so a same-process round trip returns the canonical instance
    itself and a cross-process load rebuilds every cache fresh."""
    import pickletools

    spec = adder_spec(16)
    hash(spec)
    spec.sort_key
    spec_id(spec)
    # The payload carries only (ctype, width, attrs): no cached hash or
    # sort key can ever reach another process, even though the
    # same-process round trip hands back the canonical (cache-warm)
    # instance itself.
    spec_payload = pickle.dumps(spec)
    spec_ops = " ".join(
        str(arg) for _, arg, _ in pickletools.genops(spec_payload) if arg
    )
    for cache_key in ("_hash", "_sort_key", "_spec_id"):
        assert cache_key not in spec_ops
    clone = pickle.loads(spec_payload)
    assert clone is spec  # re-interned to the canonical spec
    assert clone == spec and hash(clone) == hash(spec)

    config = make_configuration(10, {("A", "O"): 3.0}, {spec: 1})
    config.delays, config.id_choices, config.chosen_impl(spec), hash(config)
    # The payload carries only (area, delays, choices) -- no part or
    # view name, no spec or arc id -- so nothing process-local can
    # leak to a worker.
    payload = pickle.dumps(config)
    opcodes = " ".join(
        str(arg) for _, arg, _ in pickletools.genops(payload) if arg
    )
    for cache_key in ("arc_keys", "delay_values", "_impl_by_spec",
                      "_hash", "_spec_id", "arc_id", "ids",
                      "id_choices"):
        assert cache_key not in opcodes
    config_clone = pickle.loads(payload)
    assert config_clone == config and hash(config_clone) == hash(config)
    assert pickle.loads(payload) is config_clone  # revived to one instance
    assert config_clone.chosen_impl(clone) == 1


def _cfg(area, delay, choices=None):
    return make_configuration(area, {("A", "O"): delay}, choices or {})


def _reference_combine(option_lists):
    return reference_combine(option_lists)


def _enumerate(option_lists, **kwargs):
    """:func:`enumerate_rows` in the ``(chosen, choice items or None)``
    form the oracles give (:func:`row_items`)."""
    return row_items(enumerate_rows(option_lists, **kwargs),
                     kwargs.get("own_choice"))


def _as_rows(combos, own_choice=None):
    """(chosen, merged map) combinations in the :func:`_enumerate`
    form."""
    return [(chosen, row_choices(chosen, merged, own_choice))
            for chosen, merged in combos]


def _expected_rows(option_lists, limit=None, order="lex", own_choice=None):
    """What :func:`_enumerate` must return, derived from the streaming
    oracle (own-choice conflicts stay in as ``None`` rows and count
    against the cap, so the cap applies after the merge)."""
    return _as_rows(
        [(chosen, dict(merged)) for chosen, merged in iter_compatible(
            option_lists, limit=limit, order=order)],
        own_choice)


class TestConflictRejection:
    def test_same_spec_diagonal_only(self):
        spec = adder_spec(4)
        options = [_cfg(1, 1, {spec: 0}), _cfg(2, 2, {spec: 1})]
        combos = list(iter_compatible([options, options]))
        assert len(combos) == 2
        for chosen, merged in combos:
            assert chosen[0].chosen_impl(spec) == chosen[1].chosen_impl(spec)
        rows = _enumerate([options, options])
        assert rows == _expected_rows([options, options])
        assert [row[1] for row in rows] == [((spec, 0),), ((spec, 1),)]

    def test_disjoint_specs_full_product(self):
        a_spec, m_spec = adder_spec(4), mux_spec(2, 4)
        option_a = [_cfg(1, 1, {a_spec: 0}), _cfg(2, 2, {a_spec: 1})]
        option_b = [_cfg(1, 1, {m_spec: 0}), _cfg(2, 2, {m_spec: 1})]
        assert len(list(iter_compatible([option_a, option_b]))) == 4
        assert len(_enumerate([option_a, option_b])) == 4

    def test_transitive_conflict_through_shared_leaf(self):
        """Two siblings that only clash through a deeper shared spec."""
        leaf = gate_spec("NAND")
        left, right = adder_spec(4), mux_spec(2, 4)
        option_a = [_cfg(1, 1, {left: 0, leaf: 0}), _cfg(2, 2, {left: 0, leaf: 1})]
        option_b = [_cfg(1, 1, {right: 0, leaf: 1})]
        # combine_compatible copies each merged map (the raw iterator
        # reuses its dict between yields).
        combos = combine_compatible([option_a, option_b])
        assert len(combos) == 1
        assert combos[0][1][leaf] == 1
        rows = _enumerate([option_a, option_b])
        assert rows == _as_rows(combos)
        assert dict(rows[0][1])[leaf] == 1

    def test_empty_option_list_kills_product(self):
        assert list(iter_compatible([[_cfg(1, 1)], []])) == []
        assert _enumerate([[_cfg(1, 1)], []]) == []
        assert _enumerate([[], [_cfg(1, 1)]]) == []

    def test_no_lists_yields_empty_combo(self):
        combos = list(iter_compatible([]))
        assert combos == [((), {})]
        assert _enumerate([]) == [((), ())]
        own = {adder_spec(4): 2}
        assert _enumerate([], own_choice=own) == [
            ((), ((adder_spec(4), 2),))]


class TestOrderAndParity:
    def test_matches_reference_order(self):
        a, b, c = adder_spec(4), adder_spec(8), mux_spec(2, 4)
        shared = gate_spec("NAND")
        lists = [
            [_cfg(1, 1, {a: 0, shared: 0}), _cfg(2, 2, {a: 1, shared: 1})],
            [_cfg(3, 1, {b: 0, shared: 1}), _cfg(4, 2, {b: 1, shared: 0})],
            [_cfg(5, 1, {c: 0}), _cfg(6, 2, {c: 1})],
        ]
        expected = _reference_combine(lists)
        got = combine_compatible(lists)
        assert [(ch, m) for ch, m in got] == expected
        assert _enumerate(lists) == _as_rows(expected)

    def test_cap_is_prefix_of_full_enumeration(self):
        a, b = adder_spec(4), mux_spec(2, 4)
        lists = [
            [_cfg(i, i, {a: i}) for i in range(4)],
            [_cfg(i, i, {b: i}) for i in range(4)],
        ]
        full = combine_compatible(lists)
        capped = combine_compatible(lists, limit=5)
        assert capped == full[:5]
        assert _enumerate(lists, limit=5) == _enumerate(lists)[:5]
        assert _enumerate(lists, limit=5) == _as_rows(capped)
        assert _enumerate(lists, limit=0) == []

    def test_cap_bounds_work_not_just_output(self):
        """A cross product of a million combinations must not be
        enumerated when only ten are requested."""
        specs = [gate_spec("AND", 2, w + 1) for w in range(6)]
        lists = [
            [_cfg(i, i, {spec: i}) for i in range(10)] for spec in specs
        ]  # 10^6 combos
        seen = 0
        for _ in iter_compatible(lists, limit=10):
            seen += 1
        assert seen == 10
        rows = _enumerate(lists, limit=10)
        assert rows == _expected_rows(lists, limit=10)

    def test_yielded_map_is_reused_but_wrapper_copies(self):
        a = adder_spec(4)
        lists = [[_cfg(0, 0, {a: 0}), _cfg(1, 1, {a: 1})]]
        maps = [m for _, m in iter_compatible(lists)]
        assert maps[0] is maps[1]  # documented reuse
        copies = [m for _, m in combine_compatible(lists)]
        assert copies[0] is not copies[1]
        assert copies[0] == {a: 0} and copies[1] == {a: 1}
        # merge_choices builds one immutable choice tuple per row
        rows = _enumerate(lists)
        assert [row[1] for row in rows] == [((a, 0),), ((a, 1),)]
        assert rows[0][1] is not rows[1][1]


class TestEnumerationOrders:
    def _lists(self):
        a, b = adder_spec(4), mux_spec(2, 4)
        # Deliberately unsorted, with dominated interior points.
        return [
            [_cfg(5, 1, {a: 0}), _cfg(1, 5, {a: 1}), _cfg(3, 3, {a: 2}),
             _cfg(4, 4, {a: 3})],
            [_cfg(2, 2, {b: 0}), _cfg(6, 6, {b: 1})],
        ]

    def test_lex_is_default_and_preserves_list_order(self):
        lists = self._lists()
        default = combine_compatible(lists)
        lex = combine_compatible(lists, order="lex")
        assert default == lex == _reference_combine(lists)
        assert _enumerate(lists) == _enumerate(lists, order="lex") \
            == _as_rows(lex)

    def test_frontier_order_is_deterministic(self):
        from repro.core.configs import pareto_rank_order

        lists = self._lists()
        first = combine_compatible(lists, order="frontier")
        second = combine_compatible(lists, order="frontier")
        assert first == second
        # and matches the reference cross product over reordered lists
        reordered = [pareto_rank_order(options) for options in lists]
        assert first == _reference_combine(reordered)
        assert _enumerate(lists, order="frontier") == _as_rows(first)

    def test_frontier_order_same_combination_set_uncapped(self):
        lists = self._lists()
        lex = {tuple(m.items()) for _, m in
               iter_compatible(lists, order="lex")}
        frontier = {tuple(m.items()) for _, m in
                    iter_compatible(lists, order="frontier")}
        assert lex == frontier
        assert {row[1] for row in _enumerate(lists, order="lex")} == \
            {row[1] for row in _enumerate(lists, order="frontier")}

    def test_frontier_rank_then_two_ended_sweep(self):
        from repro.core.configs import pareto_rank_order

        a = adder_spec(4)
        frontier_pts = [_cfg(1, 9, {a: 0}), _cfg(5, 5, {a: 1}),
                        _cfg(9, 1, {a: 2})]
        dominated = [_cfg(9, 9, {a: 3})]
        ordered = pareto_rank_order(frontier_pts + dominated)
        # rank 0 first: smallest-area, then fastest, then interior;
        # the dominated point comes last.
        assert [c.area for c in ordered] == [1, 9, 5, 9]
        assert ordered[-1] is dominated[0]

    def test_capped_frontier_prefix_contains_both_corners(self):
        lists = self._lists()
        capped = combine_compatible(lists, limit=3, order="frontier")
        areas = [sum(c.area for c in chosen) for chosen, _ in capped]
        delays = [max(c.delay for c in chosen) for chosen, _ in capped]
        full = combine_compatible(lists)
        best_area = min(sum(c.area for c in chosen) for chosen, _ in full)
        best_delay = min(max(c.delay for c in chosen) for chosen, _ in full)
        assert min(areas) == best_area
        assert min(delays) == best_delay
        assert _enumerate(lists, limit=3, order="frontier") == \
            _as_rows(capped)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown enumeration order"):
            list(iter_compatible(self._lists(), order="zigzag"))
        with pytest.raises(ValueError, match="unknown enumeration order"):
            _enumerate(self._lists(), order="zigzag")


class TestCapSemantics:
    def test_limit_hit_mid_stream_after_conflict_rejections(self):
        """The cap counts *yielded* combinations; conflicting prefixes
        rejected along the way do not consume it."""
        shared = gate_spec("NAND")
        a, b = adder_spec(4), mux_spec(2, 4)
        lists = [
            [_cfg(i, i, {a: i, shared: i % 2}) for i in range(4)],
            [_cfg(i, i, {b: i, shared: 0}) for i in range(3)],
        ]
        full = combine_compatible(lists)
        assert 0 < len(full) < 12  # conflicts rejected some combos
        capped = combine_compatible(lists, limit=3)
        assert capped == full[:3]
        assert _enumerate(lists, limit=3) == _as_rows(capped)

    def test_disjoint_sibling_fast_path_matches_checked_path(self):
        """Sibling lists with no shared specs take the no-compare merge
        path; output must equal the reference exactly."""
        a, b, c = adder_spec(4), adder_spec(8), mux_spec(2, 4)
        lists = [
            [_cfg(1, 1, {a: 0}), _cfg(2, 2, {a: 1})],
            [_cfg(3, 3, {b: 0})],
            [_cfg(4, 4, {c: 0}), _cfg(5, 5, {c: 1})],
        ]
        assert combine_compatible(lists) == _reference_combine(lists)
        # and the cap is an exact prefix on the fast path too
        assert combine_compatible(lists, limit=2) == \
            _reference_combine(lists)[:2]
        assert _enumerate(lists) == _as_rows(_reference_combine(lists))
        assert _enumerate(lists, limit=2) == \
            _as_rows(_reference_combine(lists)[:2])

    def test_deterministic_output_under_both_orders(self):
        lists = self._mixed_lists()
        for order in ("lex", "frontier"):
            runs = [combine_compatible(lists, limit=4, order=order)
                    for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]
            rows = [_enumerate(lists, limit=4, order=order)
                    for _ in range(3)]
            assert rows[0] == rows[1] == rows[2] == _as_rows(runs[0])

    def _mixed_lists(self):
        shared = gate_spec("NAND")
        a, b = adder_spec(4), mux_spec(2, 4)
        return [
            [_cfg(4, 1, {a: 0, shared: 0}), _cfg(1, 4, {a: 1, shared: 1}),
             _cfg(2, 2, {a: 2, shared: 0})],
            [_cfg(1, 1, {b: 0, shared: 0}), _cfg(2, 2, {b: 1, shared: 1})],
        ]

    def test_own_choice_rejected_rows_count_against_cap(self):
        """A row whose children pin the caller's own spec to another
        impl is an S1 conflict: it comes back as a ``None`` row and
        still consumes the cap, so the cap bounds enumerated rows, not
        costed ones."""
        own = adder_spec(4)
        b = mux_spec(2, 4)
        lists = [
            [_cfg(1, 1, {own: 1}), _cfg(2, 2, {own: 0}),
             _cfg(3, 3, {own: 1})],
            [_cfg(1, 1, {b: 0}), _cfg(2, 2, {b: 1})],
        ]
        own_choice = {own: 0}
        rows = _enumerate(lists, own_choice=own_choice)
        assert rows == _expected_rows(lists, own_choice=own_choice)
        assert [row[1] is None for row in rows] == [
            True, True, False, False, True, True]
        # the raw rows carry only the chosen configurations and the flag
        raw = enumerate_rows(lists, own_choice=own_choice)
        assert [chosen for chosen, _ in raw] == [chosen for chosen, _ in rows]
        assert [ok for _, ok in raw] == [
            False, False, True, True, False, False]
        capped = _enumerate(lists, limit=3, own_choice=own_choice)
        assert capped == rows[:3]
        assert [row[1] is None for row in capped] == [True, True, False]
        # the own entry joins every surviving row's sorted choices
        assert rows[2][1] == tuple(sorted(
            {own: 0, b: 0}.items(), key=lambda kv: kv[0].sort_key))


@pytest.mark.parametrize("seed", range(12))
def test_rows_match_streaming_oracle_fuzz(seed):
    """Seeded random option lists over a small spec pool (so siblings
    share specs and conflict), with caps, orders, and own choices: :func:`enumerate_rows` must return exactly the rows the
    streaming oracle enumerates, in order."""
    rng = random.Random(seed)
    pool = [adder_spec(4), adder_spec(8), mux_spec(2, 4), gate_spec("NAND"),
            gate_spec("XOR"), gate_spec("AND", 2, 4)]
    lists = []
    for _ in range(rng.randint(1, 4)):
        options = []
        for _ in range(rng.randint(2, 5)):
            specs = rng.sample(pool, rng.randint(1, 3))
            options.append(_cfg(rng.randint(1, 9), rng.randint(1, 9),
                                {spec: rng.randint(0, 1) for spec in specs}))
        lists.append(options)
    limit = rng.choice([None, None, 1, 5, 20])
    order = rng.choice([None, "lex", "frontier", "auto"])
    rng.random()  # a retired draw: every seed keeps its later draws
    own_choice = ({rng.choice(pool): rng.randint(0, 1)}
                  if rng.random() < 0.7 else None)
    kwargs = {"limit": limit, "own_choice": own_choice}
    if order is not None:  # None: the default order
        kwargs["order"] = order
    assert _enumerate(lists, **kwargs) == _expected_rows(lists, **kwargs)


def _distinct_copy(spec):
    """An equal spec that is not the interned instance."""
    return ComponentSpec(spec.ctype, spec.width, spec.attrs)


@pytest.mark.parametrize("seed", range(12))
def test_merge_choices_matches_row_choices_fuzz(seed):
    """Seeded random option lists with shared and own specs (some of
    them equal-but-distinct spec objects): for every S1-consistent
    combination of the oracle, :func:`merge_choices` gives exactly the
    choice items :func:`row_choices` derives from the merged map."""
    rng = random.Random(1000 + seed)
    pool = [adder_spec(4), adder_spec(8), mux_spec(2, 4), gate_spec("NAND"),
            gate_spec("XOR"), gate_spec("AND", 2, 4)]
    lists = []
    for _ in range(rng.randint(1, 4)):
        options = []
        for _ in range(rng.randint(1, 4)):
            specs = rng.sample(pool, rng.randint(1, 4))
            choices = {}
            for spec in specs:
                if rng.random() < 0.3:
                    spec = _distinct_copy(spec)
                choices[spec] = rng.randint(0, 1)
            options.append(_cfg(rng.randint(1, 9), rng.randint(1, 9),
                                choices))
        lists.append(options)
    own_spec = rng.choice(pool)
    own_choice = {own_spec if rng.random() < 0.5
                  else _distinct_copy(own_spec): rng.randint(0, 1)}
    own_items = tuple(own_choice.items())
    checked = 0
    for chosen, merged in combine_compatible(lists):
        expected = row_choices(chosen, merged, own_choice)
        if expected is None:
            continue  # own-choice conflict: merge_choices never sees it
        assert merge_choices(chosen, own_items) == expected
        assert merge_choices(chosen) == row_choices(chosen, merged)
        checked += 1
    rows = _enumerate(lists, own_choice=own_choice)
    assert rows == _expected_rows(lists, own_choice=own_choice)
    assert checked == sum(items is not None for _, items in rows)


def test_spec_ids_are_value_keyed_under_concurrency():
    """Eight threads map 200 specs each to ids at once, interned and
    equal-but-distinct objects mixed: equal specs get one id, distinct
    specs distinct ids."""
    import threading

    fresh = [adder_spec(9000 + width) for width in range(200)]
    barrier = threading.Barrier(8)
    found = [None] * 8

    def work(slot):
        rng = random.Random(slot)
        specs = [spec if rng.random() < 0.5 else _distinct_copy(spec)
                 for spec in fresh]
        order = list(range(len(specs)))
        rng.shuffle(order)
        barrier.wait(timeout=60)
        ids = {}
        for index in order:
            ids[index] = spec_id(specs[index])
        found[slot] = ids

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often: misses race in the table
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for ids in found:
        assert ids == found[0]
    assert len(set(found[0].values())) == len(fresh)
    assert [spec_id(spec) for spec in fresh] == [
        found[0][index] for index in range(len(fresh))]


@pytest.mark.parametrize("seed", range(24))
def test_one_option_rows_match_streaming_oracle_fuzz(seed):
    """Every option list holds exactly one option -- the shape most
    decompositions have -- drawn from a small shared spec pool, so
    siblings conflict with each other and with the own choice.  Under
    all three orders and caps None and 1, :func:`enumerate_rows` must
    return exactly the rows the streaming oracle enumerates."""
    rng = random.Random(5000 + seed)
    pool = [adder_spec(4), adder_spec(8), mux_spec(2, 4), gate_spec("NAND"),
            gate_spec("XOR")]
    lists = []
    for _ in range(rng.randint(0, 4)):
        specs = rng.sample(pool, rng.randint(1, 2))
        lists.append([_cfg(rng.randint(1, 9), rng.randint(1, 9),
                           {spec: rng.randint(0, 1) for spec in specs})])
    own_choice = ({rng.choice(pool): rng.randint(0, 1)}
                  if rng.random() < 0.8 else None)
    for order in ("lex", "frontier", "auto"):
        for limit in (None, 1):
            kwargs = {"limit": limit, "order": order,
                      "own_choice": own_choice}
            assert _enumerate(lists, **kwargs) == \
                _expected_rows(lists, **kwargs)
