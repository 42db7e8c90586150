"""Tests for search control: performance filters (S2) and
configuration consistency (S1)."""

import pytest
from hypothesis import given, strategies as st
from reference_engine import combine_compatible, merge_choices, row_items

from repro.core.configs import (
    Configuration,
    enumerate_rows,
    make_configuration,
)
from repro.core.filters import KeepAllFilter, ParetoFilter, TopKFilter, TradeoffFilter
from repro.core.specs import adder_spec, mux_spec


def _cfg(area, delay, choices=None):
    return make_configuration(area, {("A", "O"): delay}, choices or {})


points = st.lists(
    st.tuples(st.floats(1, 1000), st.floats(0.1, 100)), min_size=1, max_size=40
)


class TestParetoFilter:
    def test_dominated_removed(self):
        configs = [_cfg(10, 10), _cfg(12, 12), _cfg(8, 20), _cfg(20, 5)]
        kept = ParetoFilter().select(configs)
        assert [(c.area, c.delay) for c in kept] == [(8, 20), (10, 10), (20, 5)]

    def test_duplicates_collapse(self):
        kept = ParetoFilter().select([_cfg(5, 5), _cfg(5, 5)])
        assert len(kept) == 1

    @given(points)
    def test_frontier_properties(self, raw):
        configs = [_cfg(a, d) for a, d in raw]
        kept = ParetoFilter().select(configs)
        assert kept, "frontier never empty for non-empty input"
        # No kept point dominates another kept point.
        for x in kept:
            for y in kept:
                if x is not y:
                    assert not (x.area <= y.area and x.delay < y.delay)
        # The global minima survive.
        min_area = min(c.area for c in configs)
        min_delay = min(c.delay for c in configs)
        assert any(c.area == min_area for c in kept)
        assert any(abs(c.delay - min_delay) < 1e-9 for c in kept)

    @given(points)
    def test_frontier_subset_of_input(self, raw):
        configs = [_cfg(a, d) for a, d in raw]
        kept = ParetoFilter().select(configs)
        assert all(k in configs for k in kept)


class TestTradeoffFilter:
    def test_extremes_kept(self):
        configs = [_cfg(10, 100), _cfg(11, 99.5), _cfg(12, 99.2), _cfg(50, 10)]
        kept = TradeoffFilter(0.05).select(configs)
        areas = [c.area for c in kept]
        assert 10 in areas and 50 in areas
        assert 11 not in areas  # 0.5% gain is not favorable

    def test_validation(self):
        with pytest.raises(ValueError):
            TradeoffFilter(1.5)

    @given(points)
    def test_subset_of_pareto(self, raw):
        configs = [_cfg(a, d) for a, d in raw]
        pareto = ParetoFilter().select(configs)
        kept = TradeoffFilter(0.1).select(configs)
        assert all(k in pareto for k in kept)


class TestTopKFilter:
    def test_bounded(self):
        configs = [_cfg(10 + i, 100 - i) for i in range(20)]
        kept = TopKFilter(5).select(configs)
        assert len(kept) == 5
        assert kept[0].area == 10 and kept[-1].area == 29

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKFilter(0)

    def test_keepall_sorts(self):
        configs = [_cfg(5, 1), _cfg(1, 5)]
        kept = KeepAllFilter().select(configs)
        assert [c.area for c in kept] == [1, 5]


class TestConfigurations:
    def test_delay_is_worst_arc(self):
        config = make_configuration(
            10, {("A", "O"): 3.0, ("B", "O"): 7.0}, {})
        assert config.delay == 7.0

    def test_choice_lookup(self):
        spec = adder_spec(4)
        config = make_configuration(1, {}, {spec: 2})
        assert config.chosen_impl(spec) == 2
        assert config.chosen_impl(adder_spec(8)) is None

    def test_merge_consistent(self):
        a_spec, m_spec = adder_spec(4), mux_spec(2, 4)
        merged = merge_choices([{a_spec: 1}, {m_spec: 0}, {a_spec: 1}])
        assert merged == {a_spec: 1, m_spec: 0}
        # the combiner keeps one entry for a spec two siblings agree on
        rows = row_items(enumerate_rows([[_cfg(1, 1, {a_spec: 1})],
                                         [_cfg(1, 1, {m_spec: 0})],
                                         [_cfg(1, 1, {a_spec: 1})]]))
        assert len(rows) == 1
        assert dict(rows[0][1]) == merged and len(rows[0][1]) == 2

    def test_merge_conflict_rejected(self):
        """Search control S1: same spec, different impl -> reject."""
        spec = adder_spec(4)
        assert merge_choices([{spec: 1}, {spec: 2}]) is None
        assert enumerate_rows([[_cfg(1, 1, {spec: 1})],
                               [_cfg(1, 1, {spec: 2})]]) == []
        # and against the caller's own choice: a counted, uncosted row
        assert row_items(enumerate_rows([[_cfg(1, 1, {spec: 1})]],
                                        own_choice={spec: 2}),
                         {spec: 2})[0][1] is None

    def test_combine_compatible_prunes(self):
        spec = adder_spec(4)
        option_a = [_cfg(1, 1, {spec: 0}), _cfg(2, 2, {spec: 1})]
        option_b = [_cfg(1, 1, {spec: 0}), _cfg(2, 2, {spec: 1})]
        combos = combine_compatible([option_a, option_b])
        # Only the consistent diagonal survives: (0,0) and (1,1).
        assert len(combos) == 2
        for chosen, merged in combos:
            assert chosen[0].chosen_impl(spec) == chosen[1].chosen_impl(spec)
        rows = enumerate_rows([option_a, option_b])
        assert [chosen for chosen, _ in rows] == [
            chosen for chosen, _ in combos]

    def test_combine_independent_full_product(self):
        a_spec, m_spec = adder_spec(4), mux_spec(2, 4)
        option_a = [_cfg(1, 1, {a_spec: 0}), _cfg(2, 2, {a_spec: 1})]
        option_b = [_cfg(1, 1, {m_spec: 0}), _cfg(2, 2, {m_spec: 1})]
        assert len(combine_compatible([option_a, option_b])) == 4
        assert len(enumerate_rows([option_a, option_b])) == 4

    def test_describe(self):
        assert "gates" in _cfg(10, 5).describe()
