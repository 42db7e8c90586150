"""Hierarchical RTL netlist substrate.

This subpackage provides the structural representation shared by every
other part of the reproduction:

- :mod:`repro.netlist.ports` -- typed ports (direction and pin kind),
- :mod:`repro.netlist.nets` -- nets and connection endpoints (slices,
  concatenations, constants),
- :mod:`repro.netlist.netlist` -- module instances and netlists,
- :mod:`repro.netlist.validate` -- structural well-formedness checks,
- :mod:`repro.netlist.timing_program` -- longest-path timing over a
  netlist given per-module pin-to-pin delays, compiled once per netlist
  into a reusable program (the design-space hot path).

High-level synthesis emits netlists of GENUS instances; every DTAS
decomposition rule emits one of these netlists; the VHDL translator and
the functional simulator both consume them.
"""

from repro.netlist.nets import Concat, Const, Net, NetRef, endpoint_bits, endpoint_width
from repro.netlist.netlist import ModuleInst, Netlist, NetlistError
from repro.netlist.ports import Direction, PinKind, Port
from repro.netlist.timing_program import TimingCycleError, TimingProgram, compile_timing
from repro.netlist.validate import validate_netlist

__all__ = [
    "Concat",
    "Const",
    "Direction",
    "ModuleInst",
    "Net",
    "NetRef",
    "Netlist",
    "NetlistError",
    "PinKind",
    "Port",
    "TimingCycleError",
    "TimingProgram",
    "compile_timing",
    "endpoint_bits",
    "endpoint_width",
    "validate_netlist",
]
