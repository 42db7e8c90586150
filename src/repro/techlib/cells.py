"""RTL cell and cell-library model.

The paper's central matching idea: "Technology mapping is performed
using the functional specification of library cells, as opposed to a
DAG description of their Boolean behavior."  Accordingly an
:class:`RTLCell` is just a :class:`~repro.core.specs.ComponentSpec`
with a name, an area, and a pin-to-pin delay matrix -- no gate network.

Delay matrices map ``(input_pin, output_pin)`` to nanoseconds; pairs
with no combinational arc (e.g. through a flip-flop's clock boundary)
are simply absent.  ``clk_to_q`` covers the sequential case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.specs import ComponentSpec, port_signature
from repro.netlist.ports import PinKind


@dataclass(frozen=True)
class RTLCell:
    """One data-book cell."""

    name: str
    spec: ComponentSpec
    area: float
    delays: Tuple[Tuple[Tuple[str, str], float], ...]
    clk_to_q: float = 0.0
    setup: float = 0.0
    description: str = ""

    def delay_matrix(self) -> Dict[Tuple[str, str], float]:
        return dict(self.delays)

    def worst_delay(self) -> float:
        return max((d for _, d in self.delays), default=self.clk_to_q)

    def __str__(self) -> str:
        return f"{self.name} ({self.spec}) {self.area:.0f} gates"


def make_cell(
    name: str,
    spec: ComponentSpec,
    area: float,
    delays: Optional[Mapping[Tuple[str, str], float]] = None,
    uniform_delay: Optional[float] = None,
    clk_to_q: float = 0.0,
    setup: float = 0.0,
    description: str = "",
) -> RTLCell:
    """Create a cell, validating the delay matrix against the spec.

    ``uniform_delay`` fills the full combinational matrix (every
    non-clock input to every output) with one value; explicit entries in
    ``delays`` override it.
    """
    from repro.netlist.timing_program import CLK_PIN

    ports = port_signature(spec)
    inputs = [p for p in ports if p.is_input and not p.is_sequential_boundary]
    outputs = [p for p in ports if p.is_output]
    matrix: Dict[Tuple[str, str], float] = {}
    if uniform_delay is not None and not spec.is_sequential:
        for pin_in in inputs:
            for pin_out in outputs:
                matrix[(pin_in.name, pin_out.name)] = uniform_delay
    if spec.is_sequential:
        # Publish setup and clock-to-output arcs through the virtual
        # clock pin so register-to-register paths compose structurally.
        for pin_in in inputs:
            matrix[(pin_in.name, CLK_PIN)] = setup
        for pin_out in outputs:
            matrix[(CLK_PIN, pin_out.name)] = clk_to_q
    if delays:
        input_names = {p.name for p in inputs} | {CLK_PIN}
        output_names = {p.name for p in outputs} | {CLK_PIN}
        for (pin_in, pin_out), value in delays.items():
            if pin_in not in input_names:
                raise ValueError(f"cell {name}: unknown input pin {pin_in!r} in delays")
            if pin_out not in output_names:
                raise ValueError(f"cell {name}: unknown output pin {pin_out!r} in delays")
            matrix[(pin_in, pin_out)] = value
    return RTLCell(
        name=name,
        spec=spec,
        area=float(area),
        delays=tuple(sorted(matrix.items())),
        clk_to_q=clk_to_q,
        setup=setup,
        description=description,
    )


class CellLibrary:
    """A named collection of RTL cells (one vendor data book subset)."""

    def __init__(self, name: str, cells: Iterable[RTLCell] = ()) -> None:
        self.name = name
        self._cells: Dict[str, RTLCell] = {}
        for cell in cells:
            self.add(cell)

    def add(self, cell: RTLCell) -> None:
        if cell.name in self._cells:
            raise ValueError(f"library {self.name!r}: duplicate cell {cell.name!r}")
        self._cells[cell.name] = cell

    def cell(self, name: str) -> RTLCell:
        return self._cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self.cells())

    def cells(self) -> List[RTLCell]:
        return [self._cells[name] for name in sorted(self._cells)]

    def cells_of_ctype(self, ctype: str) -> List[RTLCell]:
        return [c for c in self.cells() if c.spec.ctype == ctype]

    def ctypes(self) -> List[str]:
        return sorted({c.spec.ctype for c in self.cells()})

    def widths_of_ctype(self, ctype: str) -> List[int]:
        """Distinct widths available for a component type (ascending).
        Used by library-specific rules and by LOLA."""
        return sorted({c.spec.width for c in self.cells_of_ctype(ctype)})

    def subset(self, names: Iterable[str], name: Optional[str] = None) -> "CellLibrary":
        picked = [self._cells[n] for n in names]
        return CellLibrary(name or f"{self.name}-subset", picked)

    def __repr__(self) -> str:
        return f"CellLibrary({self.name!r}, cells={len(self._cells)})"
