"""Tests for reports, describe helpers, and the databook round-trip of
LOLA-relevant metadata (small utilities the other suites skim past)."""

import pytest

from repro.api import Session
from repro.core.report import cell_usage_report, figure3_points, figure3_report
from repro.core.rulebase import standard_rulebase
from repro.core.rules import even_splits
from repro.core.specs import adder_spec
from repro.techlib import lsi_logic_library


@pytest.fixture(scope="module")
def result():
    return Session(lsi_logic_library()).synthesize(adder_spec(16)).result


class TestFigure3Report:
    def test_points_relative_to_smallest(self, result):
        points = figure3_points(result)
        assert points[0][2] == 0.0 and points[0][3] == 0.0
        for area, delay, d_area, d_delay in points[1:]:
            assert d_area >= 0.0
            assert d_delay <= 0.0

    def test_report_text(self, result):
        text = figure3_report(result, "test title")
        assert "test title" in text
        assert "alternatives:" in text
        assert "design space:" in text

    def test_cell_usage(self, result):
        text = cell_usage_report(result.smallest())
        assert "count" in text
        assert any(name in text for name in ("ADD1", "ADD2", "ADD4"))


class TestRulebaseIntrospection:
    def test_rule_names_unique(self):
        rulebase = standard_rulebase()
        names = [rule.name for rule in rulebase]
        assert len(names) == len(set(names))

    def test_rules_carry_descriptions_or_docstrings(self):
        for rule in standard_rulebase():
            assert rule.description or rule.builder.__doc__, rule.name

    def test_duplicate_rule_rejected(self):
        rulebase = standard_rulebase()
        first = next(iter(rulebase))
        with pytest.raises(ValueError):
            rulebase.add(first)

    def test_repr(self):
        assert "generic=" in repr(standard_rulebase())


class TestEvenSplits:
    def test_exact(self):
        assert even_splits(8, 4) == [(0, 4), (4, 4)]

    def test_remainder(self):
        assert even_splits(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_single(self):
        assert even_splits(3, 4) == [(0, 3)]


class TestDesignSpaceReportingHooks:
    def test_stats_shape(self, result):
        for key in ("spec_nodes", "implementations", "cell_bindings",
                    "decompositions"):
            assert key in result.stats

    def test_alternative_describe(self, result):
        text = result.smallest().describe()
        assert "gates" in text and "ns" in text
