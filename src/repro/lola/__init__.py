"""LOLA -- the Logic Learning Assistant.

Paper section 7: "To ease the task of moving DTAS into new cell
libraries, we are developing LOLA... LOLA is invoked when DTAS is
presented with a new cell library or as technology upgrades cause
changes in a familiar library.  LOLA applies abstract design principles
to generate library-specific rules."

This package implements that loop: each *principle* inspects the cell
inventory of a library and, when it applies, instantiates the matching
rule factory from :mod:`repro.core.library_rules` at the widths the
library actually offers.
"""

from repro.lola.assistant import AdaptationReport, adapt, adapt_rulebase
from repro.lola.principles import ALL_PRINCIPLES, Principle

__all__ = ["ALL_PRINCIPLES", "AdaptationReport", "Principle", "adapt",
           "adapt_rulebase"]
