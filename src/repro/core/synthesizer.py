"""DTAS synthesis results.

The paper's section 5 output is "a set of hierarchical,
library-specific netlists that represent alternative implementations
of the components in the input netlist".  :class:`SynthesisResult`
holds that set as :class:`DesignAlternative` points, each able to
materialize its hierarchical netlist; :class:`repro.api.Session`
produces them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.configs import Configuration
from repro.core.design_space import DesignSpace, DesignTree, SynthesisError
from repro.core.specs import ComponentSpec


@dataclass
class DesignAlternative:
    """One surviving point of the design space, with its cost and the
    means to materialize its full hierarchical netlist."""

    index: int
    config: Configuration
    _space: DesignSpace = field(repr=False, default=None)
    _spec: Optional[ComponentSpec] = field(repr=False, default=None)

    @property
    def area(self) -> float:
        return self.config.area

    @property
    def delay(self) -> float:
        return self.config.delay

    def tree(self) -> DesignTree:
        """The hierarchical design this alternative denotes."""
        if self._spec is None:
            raise SynthesisError("netlist-level alternatives have no single root")
        return self._space.materialize(self._spec, self.config)

    def cell_counts(self) -> Dict[str, int]:
        return self.tree().cell_counts()

    def describe(self) -> str:
        return f"#{self.index}: area {self.area:7.0f} gates, delay {self.delay:6.1f} ns"


@dataclass
class SynthesisResult:
    """Alternatives (sorted by area), plus design-space statistics."""

    alternatives: List[DesignAlternative]
    stats: Dict[str, int]
    runtime_seconds: float
    spec: Optional[ComponentSpec] = None
    #: Wall-clock seconds per engine phase for *this* request (expand,
    #: node_probe, enumerate_cost, filter, node_publish) -- a snapshot
    #: delta of :attr:`DesignSpace.phase_seconds`, kept separate from
    #: ``stats`` (which must stay deterministic run to run).  Empty for
    #: results deserialized from old store payloads.
    phases: Dict[str, float] = field(default_factory=dict)

    def smallest(self) -> DesignAlternative:
        return min(self.alternatives, key=lambda a: (a.area, a.delay))

    def fastest(self) -> DesignAlternative:
        return min(self.alternatives, key=lambda a: (a.delay, a.area))

    def __len__(self) -> int:
        return len(self.alternatives)

    def table(self) -> str:
        """Figure-3 style table: each design with its area/delay and the
        percentage change relative to the smallest design
        (:func:`~repro.core.report.figure3_points`)."""
        from repro.core.report import figure3_points

        lines = [
            f"{'design':>8} {'area':>8} {'delay':>8} {'d-area':>8} {'d-delay':>8}"
        ]
        for alt, (area, delay, d_area, d_delay) in zip(
                self.alternatives, figure3_points(self)):
            lines.append(
                f"{alt.index:>8} {area:>8.0f} {delay:>8.1f} "
                f"{d_area:>+7.0f}% {d_delay:>+7.0f}%"
            )
        return "\n".join(lines)
