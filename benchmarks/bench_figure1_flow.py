"""E6 -- Figure 1: the full system flow.

Behavioral spec -> HLS (allocation, scheduling, binding, connectivity
binding) -> GENUS netlist + state sequencing table -> DTAS maps the
datapath into LSI cells, the control compiler maps the state table into
gates -> the composed machine still computes GCD.
"""

import math

import pytest

from repro.control import compile_controller
from repro.api import Session
from repro.hls import Assign, If, Program, While, hls_synthesize
from repro.hls.synthesize import FsmdSimulator
from repro.techlib import lsi_logic_library


def gcd_program():
    p = Program("gcd", width=8)
    a_in = p.input("a_in")
    b_in = p.input("b_in")
    a = p.variable("a")
    b = p.variable("b")
    p.output("result", a)
    p.body = [
        Assign(a, a_in),
        Assign(b, b_in),
        While(a.ne(b), [
            If(a.gt(b), [Assign(a, a - b)], [Assign(b, b - a)]),
        ]),
    ]
    return p


def full_flow():
    hls = hls_synthesize(gcd_program())
    session = Session(lsi_logic_library())
    mapped = session.synthesize(hls.datapath.netlist).result
    controller = compile_controller(hls.state_table)
    return hls, mapped, controller


def test_figure1_flow(benchmark):
    hls, mapped, controller = benchmark.pedantic(full_flow, iterations=1,
                                                 rounds=3)
    print()
    print("Figure 1: end-to-end system flow (GCD)")
    print("=" * 45)
    print(hls.report())
    print(f"  datapath mapped: {len(mapped)} alternatives, smallest "
          f"{mapped.smallest().area:.0f} gates / "
          f"{mapped.smallest().delay:.1f} ns")
    print("  " + controller.report().replace("\n", "\n  "))

    sim = FsmdSimulator(hls)
    out, cycles = sim.run({"a_in": 84, "b_in": 36})
    print(f"  executed: gcd(84, 36) = {out['result']} in {cycles} cycles")
    assert out["result"] == math.gcd(84, 36)
    assert len(mapped) >= 1
