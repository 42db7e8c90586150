"""Compiled timing programs must match the direct graph walker
(``reference_engine.port_delay_matrix``) bit-for-bit -- including
sequential netlists with @clk virtual-pin arcs -- while rebuilding
nothing between evaluations."""

import dis
import json
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest
from reference_engine import port_delay_matrix, reference_run, run_matrices
from timing_scenarios import (
    chain,
    not_loop,
    parallel_paths,
    reg_to_reg,
    registered_pipe,
    ripple16,
)

from repro.core.rulebase.logic import gate_bitslice
from repro.core.rules import RuleContext
from repro.core.specs import gate_spec
from repro.netlist import TimingCycleError, TimingProgram, compile_timing
from repro.netlist import timing_program
from repro.netlist.timing_program import CLK_PIN

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def program_matrix(netlist, delays, slot_of=None):
    """The program's delay matrix through the reference sweep, after
    checking that the kernel's generated function agrees exactly."""
    program = compile_timing(netlist, slot_of=slot_of)
    matrices = [delays(inst)
                for inst in _slot_representatives(program, netlist)]
    expected = run_matrices(program, matrices)
    assert run_matrices(program, matrices,
                        run=lambda kernel, values: kernel.run(values)) \
        == expected
    return expected


def _slot_representatives(program, netlist):
    """One module instance per program slot, in slot order."""
    reps = {}
    for inst, slot in zip(netlist.modules, program.module_slots):
        reps.setdefault(slot, inst)
    return [reps[slot] for slot in range(len(program.slot_keys))]


class TestParityWithDirectEngine:
    def test_chain(self):
        netlist, delays = chain(5, 2.0)
        assert program_matrix(netlist, delays) == port_delay_matrix(netlist, delays)

    def test_ripple_adder(self):
        netlist, delays = ripple16()
        assert program_matrix(netlist, delays) == port_delay_matrix(netlist, delays)

    def test_parallel_paths(self):
        netlist, delays = parallel_paths()
        assert program_matrix(netlist, delays) == port_delay_matrix(netlist, delays)

    def test_sequential_clk_arcs(self):
        """@clk virtual-pin arcs: setup, clk-to-q, and the split that
        prevents a false combinational D -> Q path."""
        netlist, delays = registered_pipe()
        matrix = program_matrix(netlist, delays)
        assert matrix == port_delay_matrix(netlist, delays)
        assert ("D", "Q") not in matrix
        assert matrix[("D", CLK_PIN)] == pytest.approx(3.0)
        assert matrix[(CLK_PIN, "Q")] == pytest.approx(4.5)

    def test_reg_to_reg_cycle_delay(self):
        netlist, delays = reg_to_reg()
        matrix = program_matrix(netlist, delays)
        assert matrix == port_delay_matrix(netlist, delays)
        assert matrix[(CLK_PIN, CLK_PIN)] == pytest.approx(8.0)

    def test_cycle_detected(self):
        with pytest.raises(TimingCycleError):
            program_matrix(*not_loop())


class TestProgramReuse:
    def test_kernel_cached_per_arc_signature(self):
        netlist, _ = chain(4)
        program = TimingProgram(netlist)
        keys = (("I0", "O"),)
        arcs = (keys,) * 4
        first = program.kernel(arcs).run([(1.0,)] * 4)
        second = program.kernel(arcs).run([(2.5,)] * 4)
        assert first[("A", "O")] == pytest.approx(4.0)
        assert second[("A", "O")] == pytest.approx(10.0)
        assert program.kernel_count == 1

    def test_new_signature_new_kernel(self):
        netlist, _ = ripple16()
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        assert len(program.slot_keys) == 1  # all four blocks share a spec
        full = (("A", "CO"), ("A", "S"), ("B", "CO"), ("B", "S"),
                ("CI", "CO"), ("CI", "S"))
        sparse = (("A", "S"), ("B", "S"))
        program.kernel((full,)).run([(5.5, 5.0, 5.5, 5.0, 3.0, 4.0)])
        program.kernel((sparse,)).run([(5.0, 5.0)])
        assert program.kernel_count == 2

    def test_slot_sharing_by_spec(self):
        """With spec slots, one matrix feeds every instance of a spec --
        and results still match the per-instance walker."""
        netlist, delays = ripple16()
        by_spec = program_matrix(netlist, delays,
                                 slot_of=lambda inst: inst.spec)
        assert by_spec == port_delay_matrix(netlist, delays)
        assert by_spec[("A", "CO")] == pytest.approx(14.5)

    def test_total_area_matches_instance_walk(self):
        netlist, _ = ripple16()
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        # module_slots maps each instance to its slot, in instance
        # order: the walk the design space sums areas over
        assert program.module_slots == (0, 0, 0, 0)
        areas_by_slot = [102.5]
        assert sum(areas_by_slot[slot] for slot in program.module_slots) \
            == pytest.approx(4 * 102.5)


# ---------------------------------------------------------------------------
# lean kernels: value-numbered code, array-backed tables
# ---------------------------------------------------------------------------

#: A cold catalogue pass (the perfbench ``explore_cold`` set-up: four
#: families at widths 16, 32 and 64 under two filters) in a fresh
#: interpreter, reporting the distinct generated kernel functions and
#: their total source lines (a function's last line number is its
#: source's line count).
CATALOGUE_PASS = """
import json
from repro.api import Session
from repro.api.registry import parse_spec
from repro.netlist import timing_program

functions = {}
compile_kernel = timing_program._Kernel._compile

def recording(self):
    keys, function = compile_kernel(self)
    functions[id(function)] = function
    return keys, function

timing_program._Kernel._compile = recording
for family in ("adder", "alu", "comparator", "counter"):
    for width in (16, 32, 64):
        for perf_filter in ("pareto", "tradeoff:0.05"):
            Session(library="lsi_logic", perf_filter=perf_filter).synthesize(
                parse_spec(f"{family}:{width}"))
lines = sum(max(line for *_, line in function.__code__.co_lines()
                if line is not None)
            for function in functions.values())
print(json.dumps({"kernels": len(functions), "lines": lines}))
"""


def _code_shape(kernel):
    """(source lines, ``>`` comparisons) of a kernel's generated
    function."""
    kernel.keys  # compile
    code = kernel._compiled[1].__code__
    lines = max(line for *_, line in code.co_lines() if line is not None)
    compares = sum(ins.opname == "COMPARE_OP"
                   for ins in dis.get_instructions(code))
    return lines, compares


def _bitslice_kernel(width):
    netlist = next(iter(gate_bitslice(gate_spec("AND", 2, width),
                                      RuleContext())))
    program = compile_timing(netlist, slot_of=lambda inst: inst.spec)
    assert program.module_slots == (0,) * width
    return program.kernel(((("I0", "O"), ("I1", "O")),))


class TestLeanKernels:
    def test_catalogue_codegen_budget(self):
        """Generated kernel source for a cold catalogue pass stays
        pinned: 13,798 lines over 144 distinct kernels, one SSA local
        per distinct value, within a budget of 17,000 lines."""
        proc = subprocess.run(
            [sys.executable, "-c", CATALOGUE_PASS],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        budget = json.loads(proc.stdout.splitlines()[-1])
        assert budget["lines"] <= 17_000
        assert budget == {"kernels": 144, "lines": 13_798}

    def test_bitslice_kernel_size_is_width_independent(self):
        """Every instance of a one-slot bitslice computes the same
        arrivals, so a 64-slice kernel relaxes no more than a 16-slice
        one -- and still matches the interpretive sweep."""
        narrow, wide = _bitslice_kernel(16), _bitslice_kernel(64)
        assert _code_shape(wide) == _code_shape(narrow)
        for kernel in (narrow, wide):
            for values in ([(1.5, 2.25)], [(2.0, 2.0)], [(0.0, 0.0)]):
                assert kernel.run(values) == reference_run(kernel, values)

    def test_second_signature_compiles_on_int_array_tables(self):
        """Wiring and kernel edge tables are ``array('i')``; a program
        that already compiled one signature compiles a second one that
        costs rows exactly as the interpretive sweep does.  The
        function cache keeps digests, not source text."""
        netlist, _ = ripple16()
        program = TimingProgram(netlist, slot_of=lambda inst: inst.spec)
        full = (("A", "CO"), ("A", "S"), ("B", "CO"), ("B", "S"),
                ("CI", "CO"), ("CI", "S"))
        sparse = (("A", "S"), ("B", "S"), ("CI", "CO"))
        program.kernel((full,)).run([(5.5, 5.0, 5.5, 5.0, 3.0, 4.0)])
        assert isinstance(program._wire_u, array)
        assert program.kernel_count == 1
        kernel = program.kernel((sparse,))
        assert program.kernel_count == 2
        for column in (kernel.edge_u, kernel.edge_v, kernel.edge_slot,
                       kernel.edge_index):
            assert isinstance(column, array) and column.typecode == "i"
        rows = [(SimpleNamespace(area=float(i), delay_values=values),)
                for i, values in enumerate([(5.0, 5.0, 3.0), (1.0, 2.0, 2.0),
                                            (0.0, 0.0, 0.0), (7.5, 1.0, 9.0)])]
        got = kernel.run_batch(rows, len(rows))
        for (chosen,), (_, _, delays) in zip(rows, got):
            assert delays == tuple(
                reference_run(kernel, [chosen.delay_values])[key]
                for key in kernel.keys)
        assert timing_program._FUNCTIONS
        assert all(isinstance(key, bytes) and len(key) == 32
                   for key in timing_program._FUNCTIONS.keys())
