"""Tests for cell libraries: the LSI subset, databook format, gates."""

import pytest

from repro.core.specs import adder_spec, gate_spec, make_spec
from repro.netlist.timing_program import CLK_PIN
from repro.techlib import (
    CellLibrary,
    RTLCell,
    dump_databook,
    load_databook,
    lsi_logic_library,
    vendor2_library,
)
from repro.techlib.cells import make_cell
from repro.techlib.databook import DatabookError
from repro.techlib.gates import find_gate, gate_fanins, gate_inventory, has_flip_flop


class TestLsiLibrary:
    def test_exactly_30_cells(self):
        assert len(lsi_logic_library()) == 30

    def test_paper_named_cells_present(self):
        """The cells the paper lists: 2:1/4:2/8:4 muxes, 1/2/4-bit
        adders, CLA generator, 2-bit adder/subtractor, DFFs, 4/8-bit
        registers."""
        lib = lsi_logic_library()
        for name in ("MUX21", "MUX22", "MUX24", "ADD1", "ADD2", "ADD4",
                     "CLA4", "ADSU2", "DFF1", "REG4", "REG8"):
            assert name in lib, name

    def test_adder_widths(self):
        assert lsi_logic_library().widths_of_ctype("ADD") == [1, 2, 4]

    def test_ripple_ratio_sane(self):
        """CI->CO per bit must beat A->S per bit or look-ahead never wins."""
        lib = lsi_logic_library()
        add4 = lib.cell("ADD4")
        matrix = add4.delay_matrix()
        assert matrix[("CI", "CO")] < matrix[("A", "S")]

    def test_sequential_cells_have_clk_arcs(self):
        reg8 = lsi_logic_library().cell("REG8")
        matrix = reg8.delay_matrix()
        assert (CLK_PIN, "Q") in matrix and ("D", CLK_PIN) in matrix

    def test_cached_singleton(self):
        assert lsi_logic_library() is lsi_logic_library()
        assert lsi_logic_library(fresh=True) is not lsi_logic_library()

    def test_ctypes_inventory(self):
        ctypes = lsi_logic_library().ctypes()
        for ctype in ("GATE", "MUX", "ADD", "ADDSUB", "CLA_GEN", "REG",
                      "COUNTER", "COMPARATOR", "DECODER", "ENCODER"):
            assert ctype in ctypes


class TestCellModel:
    def test_unknown_delay_pin_rejected(self):
        with pytest.raises(ValueError, match="unknown input pin"):
            make_cell("X", adder_spec(4), 10.0, delays={("Z", "S"): 1.0})
        with pytest.raises(ValueError, match="unknown output pin"):
            make_cell("X", adder_spec(4), 10.0, delays={("A", "Z"): 1.0})

    def test_uniform_delay_fills_matrix(self):
        cell = make_cell("G", gate_spec("NAND", 3), 1.5, uniform_delay=0.9)
        assert cell.delay_matrix()[("I2", "O")] == 0.9
        assert cell.worst_delay() == 0.9

    def test_duplicate_cell_rejected(self):
        lib = CellLibrary("t")
        cell = make_cell("G", gate_spec("NOT"), 1.0, uniform_delay=0.5)
        lib.add(cell)
        with pytest.raises(ValueError):
            lib.add(cell)

    def test_subset(self):
        lib = lsi_logic_library()
        small = lib.subset(["INV", "NAND2"])
        assert len(small) == 2 and "INV" in small


class TestDatabook:
    def test_roundtrip_lsi(self):
        lib = lsi_logic_library()
        text = dump_databook(lib)
        loaded = load_databook(text)
        assert len(loaded) == len(lib)
        for cell in lib.cells():
            other = loaded.cell(cell.name)
            assert other.spec == cell.spec, cell.name
            assert other.area == cell.area
            assert other.delay_matrix() == cell.delay_matrix()
            assert other.clk_to_q == cell.clk_to_q

    def test_roundtrip_vendor2(self):
        lib = vendor2_library()
        loaded = load_databook(dump_databook(lib))
        assert {c.name for c in loaded.cells()} == {c.name for c in lib.cells()}

    def test_minimal_cell(self):
        text = """
LIBRARY tiny
CELL X1 "an inverter"
  TYPE GATE WIDTH 1
  ATTR kind=NOT n_inputs=1
  AREA 1.0
  DELAY I0 O 0.5
END
"""
        lib = load_databook(text)
        cell = lib.cell("X1")
        assert cell.description == "an inverter"
        assert cell.spec.get("kind") == "NOT"

    def test_missing_type_rejected(self):
        with pytest.raises(DatabookError, match="no TYPE"):
            load_databook("CELL X\n  AREA 1\nEND\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(DatabookError, match="unknown keyword"):
            load_databook("WIBBLE x\n")

    def test_tuple_attrs(self):
        text = ("CELL C\n  TYPE COMPARATOR WIDTH 4\n"
                "  ATTR ops=EQ,LT,GT cascaded=1\n  AREA 5\nEND\n")
        cell = load_databook(text).cell("C")
        assert cell.spec.ops == ("EQ", "LT", "GT")
        assert cell.spec.get("cascaded") is True


class TestGateHelpers:
    def test_find_gate(self):
        lib = lsi_logic_library()
        assert find_gate(lib, "NAND", 2).name == "NAND2"
        assert find_gate(lib, "NAND", 8) is None

    def test_fanins(self):
        assert gate_fanins(lsi_logic_library(), "NAND") == [2, 3, 4]

    def test_inventory(self):
        inventory = gate_inventory(lsi_logic_library())
        assert inventory["NOT"] == [1]

    def test_has_flip_flop(self):
        assert has_flip_flop(lsi_logic_library())
