"""Reproduction of Dutt & Kipps, "Bridging High-Level Synthesis to RTL
Technology Libraries" (UC Irvine TR 91-28 / DAC 1991).

Subpackages:

- :mod:`repro.api`     -- the supported entry point: sessions, typed
  requests, registries, emitters, and the ``python -m repro`` CLI
- :mod:`repro.genus`   -- GENUS generic component library
- :mod:`repro.legend`  -- LEGEND generator-description language
- :mod:`repro.core`    -- DTAS functional synthesis (the contribution)
- :mod:`repro.techlib` -- RTL cell libraries (reconstructed LSI subset)
- :mod:`repro.netlist` -- hierarchical netlist substrate
- :mod:`repro.sim`     -- functional simulation / equivalence checking
- :mod:`repro.vhdl`    -- structural and behavioral VHDL emission
- :mod:`repro.hls`     -- high-level synthesis front end
- :mod:`repro.control` -- control compiler (QM + gate mapping)
- :mod:`repro.lola`    -- library retargeting assistant

Quickstart::

    from repro.api import Session

    session = Session(library="lsi_logic")
    job = session.synthesize("alu:64")
    print(job.report())

or, from the shell::

    python -m repro synth --spec alu:64 --library lsi_logic --emit report
"""

__version__ = "1.0.0"
