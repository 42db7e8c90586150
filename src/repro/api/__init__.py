"""``repro.api`` -- the supported entry point to the whole flow.

The Dutt & Kipps pipeline (LEGEND generator descriptions and GENUS
specs into DTAS expansion, S1/S2 filtering, and VHDL/report emission)
is driven through one object: a :class:`Session` binds a cell library,
a rulebase policy, and a performance filter, owns every engine cache,
and amortizes them across jobs.  Inputs arrive as typed
:class:`SynthesisRequest` objects (a GENUS spec, a netlist, LEGEND
source text, or an HLS behavioral program); results come back as
:class:`SynthesisJob` objects carrying alternatives, Pareto points,
reports, and lazy VHDL.

Quickstart::

    from repro.api import Session

    session = Session(library="lsi_logic")
    job = session.synthesize("alu:64")        # or a ComponentSpec, ...
    print(job.report())
    print(job.vhdl())                          # smallest alternative

Batch runs share the session's design space and compiled-timing
caches::

    jobs = session.map(["adder:16", "adder:32", "alu:16"])

Backends are built-ins chosen by name from the fixed tables of
:mod:`repro.api.registry` (``python -m repro list`` prints them); the
same names drive the CLI (``python -m repro synth --spec alu:64
--library lsi_logic --emit vhdl,report``).
"""

from repro.api.registry import (
    EMITTERS,
    FILTERS,
    LIBRARIES,
    ORDERS,
    RULEBASES,
    SPECS,
    Registry,
    RegistryError,
    create_node_store,
    create_store,
    parse_spec,
)
from repro.api.requests import SynthesisJob, SynthesisRequest
from repro.api.session import Session
from repro.api.emitters import ascii_plot

__all__ = [
    "EMITTERS",
    "FILTERS",
    "LIBRARIES",
    "ORDERS",
    "RULEBASES",
    "SPECS",
    "Registry",
    "RegistryError",
    "Session",
    "SynthesisJob",
    "SynthesisRequest",
    "ascii_plot",
    "create_node_store",
    "create_store",
    "parse_spec",
]
