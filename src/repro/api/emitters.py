"""Built-in output emitters.

An emitter renders one :class:`~repro.api.requests.SynthesisJob` as
text; emitters are selected by name through the fixed table
:data:`repro.api.registry.EMITTERS` (``job.emit("report", "vhdl")``,
``repro synth --emit vhdl,report``).
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

from repro.api.requests import SynthesisJob


# ---------------------------------------------------------------------------
# ASCII scatter plot (shared with examples/alu_design_space.py)
# ---------------------------------------------------------------------------

def ascii_plot(points: Sequence[Tuple[float, ...]], width: int = 60,
               height: int = 16) -> str:
    """Delay-vs-area scatter, mirroring Figure 3's axes.

    Accepts ``(area, delay, ...)`` tuples (extra trailing fields such
    as the Figure-3 percentage deltas are ignored) and degrades
    gracefully on degenerate inputs: an empty list renders a note
    instead of raising on ``min()``, and a single point (zero-width
    axis ranges) collapses onto one grid cell.
    """
    if not points:
        return "(no design points to plot)"
    areas = [p[0] for p in points]
    delays = [p[1] for p in points]
    a_lo, a_hi = min(areas), max(areas)
    d_lo, d_hi = min(delays), max(delays)
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    for point in points:
        area, delay = point[0], point[1]
        x = int((area - a_lo) / (a_hi - a_lo or 1) * width)
        y = int((delay - d_lo) / (d_hi - d_lo or 1) * height)
        grid[height - y][x] = "*"
    lines = [f"{d_hi:8.1f} ns |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 11 + "|" + "".join(row))
    if height >= 1:
        lines.append(f"{d_lo:8.1f} ns |" + "".join(grid[-1]))
    lines.append(" " * 12 + "-" * (width + 1))
    lines.append(f"{'':12}{a_lo:<10.0f}{'area (gates)':^38}{a_hi:>10.0f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The emitters
# ---------------------------------------------------------------------------

def emit_report(job: SynthesisJob) -> str:
    return job.report()


def emit_plot(job: SynthesisJob) -> str:
    return ascii_plot(job.points())


def emit_vhdl(job: SynthesisJob) -> str:
    if job.spec is not None:
        return job.vhdl()
    # Netlist-level jobs have no single root tree; emit the structural
    # VHDL of the GENUS input netlist instead.
    from repro.vhdl import netlist_vhdl

    netlist = job.request.netlist
    if netlist is None and job.hls is not None:
        netlist = job.hls.datapath.netlist
    if netlist is None:
        raise ValueError("job has neither a root spec nor a netlist")
    return netlist_vhdl(netlist)


def emit_behavioral_vhdl(job: SynthesisJob) -> str:
    return job.behavioral_vhdl()


def emit_json(job: SynthesisJob) -> str:
    payload = {
        "request": {"kind": job.request.kind, "label": job.request.label},
        "spec": str(job.spec) if job.spec is not None else None,
        "alternatives": [
            {
                "index": alt.index,
                "area": alt.area,
                "delay": alt.delay,
                "d_area_pct": round(d_area, 4),
                "d_delay_pct": round(d_delay, 4),
            }
            for alt, (_, _, d_area, d_delay) in zip(job.alternatives,
                                                    job.points())
        ],
        "space": job.stats,
        "runtime_seconds": job.runtime_seconds,
        # Wall-clock engine-phase breakdown: like runtime_seconds it is
        # timing, not behavior -- byte-compare tests normalize it away
        # alongside runtime_seconds.
        "phases": job.phases,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def emit_cells(job: SynthesisJob) -> str:
    from repro.core.report import cell_usage_report

    blocks: List[str] = []
    smallest, fastest = job.smallest(), job.fastest()
    pairs = [("smallest", smallest)]
    if fastest is not smallest:
        pairs.append(("fastest", fastest))
    for label, alt in pairs:
        blocks.append(f"[{label}] {alt.describe()}\n{cell_usage_report(alt)}")
    return "\n\n".join(blocks)
