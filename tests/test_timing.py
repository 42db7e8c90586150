"""Hand-worked delays from the production timing engine.

Each scenario (built in ``tests/timing_scenarios.py``) runs one compiled
kernel of a :class:`~repro.netlist.TimingProgram` through
``run_batch``, the call the design space makes;
``tests/test_timing_program.py`` checks the same scenarios against the
direct oracle in ``reference_engine``.
"""

from types import SimpleNamespace

import pytest
from timing_scenarios import (
    chain,
    not_loop,
    parallel_paths,
    reg_to_reg,
    registered_pipe,
    ripple16,
)

from repro.netlist import TimingCycleError, compile_timing
from repro.netlist.timing_program import CLK_PIN


def engine_delays(netlist, delays):
    """``(delay matrix, worst delay)`` of one row that gives each
    instance the delay matrix ``delays(instance)``."""
    program = compile_timing(netlist)
    items = [tuple(sorted(delays(inst).items())) for inst in netlist.modules]
    kernel = program.kernel(tuple(tuple(k for k, _ in it) for it in items))
    row = [SimpleNamespace(area=0.0, delay_values=tuple(v for _, v in it))
           for it in items]
    [(_, worst, values)] = kernel.run_batch([row], 1)
    return dict(zip(kernel.keys, values)), worst


def delay_matrix(netlist, delays):
    return engine_delays(netlist, delays)[0]


class TestCombinational:
    def test_chain_accumulates(self):
        netlist, delays = chain(5, 2.0)
        matrix = delay_matrix(netlist, delays)
        assert matrix[("A", "O")] == pytest.approx(10.0)

    def test_single_module(self):
        netlist, delays = chain(1, 3.5)
        assert delay_matrix(netlist, delays)[("A", "O")] == pytest.approx(3.5)

    def test_parallel_paths_take_max(self):
        matrix = delay_matrix(*parallel_paths())
        assert matrix[("A", "O")] == pytest.approx(10.0)

    def test_ripple_adder_carry_chain(self):
        """Four 4-bit adders rippled: CI->CO chains dominate."""
        matrix = delay_matrix(*ripple16())
        # A -> CO of last block: 5.5 + 3*3.0
        assert matrix[("A", "CO")] == pytest.approx(14.5)
        # A -> S through the chain: 5.5 + 2*3 + 4.0
        assert matrix[("A", "S")] == pytest.approx(15.5)

    def test_cycle_detected(self):
        with pytest.raises(TimingCycleError):
            delay_matrix(*not_loop())


class TestSequential:
    def test_register_breaks_path(self):
        matrix = delay_matrix(*registered_pipe())
        assert ("D", "Q") not in matrix

    def test_setup_and_clk_to_q_arcs(self):
        matrix = delay_matrix(*registered_pipe())
        assert matrix[("D", CLK_PIN)] == pytest.approx(3.0)   # 2.0 + setup
        assert matrix[(CLK_PIN, "Q")] == pytest.approx(4.5)   # clk_to_q + 3.0

    def test_reg_to_reg_cycle_delay(self):
        """reg -> logic -> reg measures the clock-period bound."""
        matrix = delay_matrix(*reg_to_reg())
        assert matrix[(CLK_PIN, CLK_PIN)] == pytest.approx(8.0)  # 2 + 5 + 1
        assert all(CLK_PIN in pair for pair in matrix)  # no port-to-port path

    def test_no_false_d_to_q_through_clk(self):
        """Splitting the virtual pin prevents D->@clk->Q chaining."""
        matrix, worst = engine_delays(*registered_pipe())
        assert worst == max(matrix.values())
        assert worst < 2.0 + 1.0 + 1.5 + 3.0
