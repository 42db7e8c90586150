"""End-to-end DTAS tests: synthesis + materialization + verification."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core import TradeoffFilter
from repro.core.design_space import SynthesisError
from repro.core.specs import (
    ALU16_OPS,
    adder_spec,
    alu_spec,
    comparator_spec,
    counter_spec,
    make_spec,
    mux_spec,
    register_spec,
)
from repro.sim import check_combinational, check_sequential
from repro.techlib import CellLibrary, lsi_logic_library


@pytest.fixture(scope="module")
def session():
    return Session(lsi_logic_library())


class TestSynthesisBasics:
    def test_result_sorted_by_area(self, session):
        result = session.synthesize(adder_spec(16)).result
        areas = [a.area for a in result.alternatives]
        assert areas == sorted(areas)

    def test_smallest_and_fastest(self, session):
        result = session.synthesize(adder_spec(16)).result
        assert result.smallest().area <= result.fastest().area
        assert result.fastest().delay <= result.smallest().delay

    def test_cell_counts_consistent_with_area(self, session):
        result = session.synthesize(adder_spec(8)).result
        lib = lsi_logic_library()
        for alt in result.alternatives:
            total = sum(lib.cell(name).area * count
                        for name, count in alt.cell_counts().items())
            assert total == pytest.approx(alt.area)

    def test_table_renders(self, session):
        result = session.synthesize(adder_spec(8)).result
        text = result.table()
        assert "d-delay" in text and "+0%" in text

    def test_runtime_recorded(self, session):
        result = session.synthesize(adder_spec(8)).result
        assert result.runtime_seconds >= 0.0

    def test_unmappable_raises(self):
        gates_only = lsi_logic_library().subset(["INV", "NAND2"])
        session = Session(CellLibrary("tiny", gates_only.cells()))
        with pytest.raises(SynthesisError):
            session.synthesize(register_spec(4)).result

    def test_convenience_function(self):
        result = Session(lsi_logic_library(),
                         perf_filter=TradeoffFilter(0.05)).synthesize(
            adder_spec(8)).result
        assert len(result) >= 2


#: The component families of paper section 7: "bitwise logic gates and
#: multiplexers, binary and BCD decoders and encoders, n-bit adders and
#: comparators, n-bit arithmetic logic units, shifters, n-by-m
#: multipliers, and up/down counters."
SECTION7_SPECS = [
    ("gates", make_spec("GATE", 16, kind="NAND", n_inputs=3)),
    ("muxes", mux_spec(6, 8)),
    ("bin-decoder", make_spec("DECODER", 4)),
    ("bcd-decoder", make_spec("DECODER", 4, n_outputs=10)),
    ("bin-encoder", make_spec("ENCODER", 4, n_inputs=16, valid=True)),
    ("bcd-encoder", make_spec("ENCODER", 4, n_inputs=10, valid=True)),
    ("adder", adder_spec(24)),
    ("comparator", comparator_spec(12)),
    ("alu", alu_spec(16)),
    ("shifter", make_spec("SHIFTER", 8, ops=("SHL", "SHR", "ROL", "ROR"))),
    ("barrel", make_spec("BARREL_SHIFTER", 16, ops=("SHL", "SHR"))),
    ("multiplier", make_spec("MULT", 5, width_b=7)),
]


@pytest.mark.parametrize("label,spec", SECTION7_SPECS,
                         ids=[s[0] for s in SECTION7_SPECS])
def test_section7_family_synthesizes_and_verifies(session, label, spec):
    result = session.synthesize(spec).result
    assert len(result) >= 1
    # Verify the extreme alternatives functionally.
    for alt in {id(result.smallest()): result.smallest(),
                id(result.fastest()): result.fastest()}.values():
        check_combinational(spec, alt.tree(), vectors=24).assert_ok()


def test_section7_counter(session):
    spec = counter_spec(8, enable=True)
    result = session.synthesize(spec).result

    def onehot(v):
        if v.get("CLOAD"):
            v["CUP"] = v["CDOWN"] = 0
        elif v.get("CUP"):
            v["CDOWN"] = 0
        return v

    for alt in result.alternatives:
        check_sequential(spec, alt.tree(), cycles=32,
                         constrain=onehot).assert_ok()


class TestDesignTrees:
    def test_tree_depth_reasonable(self, session):
        result = session.synthesize(adder_spec(16)).result
        tree = result.smallest().tree()
        assert 2 <= tree.depth() <= 12

    def test_describe(self, session):
        result = session.synthesize(adder_spec(8)).result
        text = result.smallest().tree().describe()
        assert "ADD<8>" in text

    def test_leaves_are_library_cells(self, session):
        lib = lsi_logic_library()
        result = session.synthesize(mux_spec(4, 4)).result
        for name in result.smallest().cell_counts():
            assert name in lib


@settings(max_examples=10, deadline=None)
@given(width=st.integers(2, 24))
def test_adder_any_width_verifies(width):
    """Property: DTAS maps adders of arbitrary width correctly."""
    session = Session(lsi_logic_library())
    spec = adder_spec(width)
    result = session.synthesize(spec).result
    check_combinational(spec, result.smallest().tree(), vectors=12).assert_ok()


@settings(max_examples=8, deadline=None)
@given(n=st.integers(2, 9), width=st.integers(1, 8))
def test_mux_any_shape_verifies(n, width):
    session = Session(lsi_logic_library())
    spec = mux_spec(n, width)
    result = session.synthesize(spec).result
    check_combinational(spec, result.fastest().tree(), vectors=12).assert_ok()
