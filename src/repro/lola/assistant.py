"""The LOLA adaptation driver.

``adapt(library)`` runs every abstract design principle against a cell
library and returns the generated library-specific rules together with
a report of what fired and why -- LOLA "then uses these generated rules
to modify DTAS's rule base so that DTAS can take advantage of the
library changes" (paper section 7), which here means extending a
rulebase in place.

``adapt_rulebase(rulebase, library)`` extends a rulebase in place; the
``lola`` rulebase policy of :mod:`repro.api.registry` does exactly that
for a session.  Moving to a new data book means building a new
:class:`repro.api.Session` with the adapted rulebase: it expands afresh
against the new library, while rule applications, cell matchings and
compiled timing programs are cached process-wide, so a sweep over many
data books does not rebuild what they share.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.rules import Rule, RuleBase
from repro.lola.principles import ALL_PRINCIPLES, Principle
from repro.techlib.cells import CellLibrary


@dataclass
class AdaptationReport:
    """What LOLA generated for one library."""

    library_name: str
    fired: Dict[str, List[str]] = field(default_factory=dict)
    rules: List[Rule] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"LOLA adaptation for library {self.library_name!r}:"]
        for principle, rule_names in sorted(self.fired.items()):
            if rule_names:
                lines.append(f"  {principle}: {', '.join(rule_names)}")
            else:
                lines.append(f"  {principle}: (no matching cells)")
        lines.append(f"  total library-specific rules: {len(self.rules)}")
        return "\n".join(lines)


def adapt(
    library: CellLibrary,
    principles: Optional[Sequence[Principle]] = None,
    prefix: Optional[str] = None,
) -> AdaptationReport:
    """Generate library-specific rules for a (new) cell library."""
    prefix = prefix or library.name.split("-")[0].lower()
    report = AdaptationReport(library.name)
    for principle in principles or ALL_PRINCIPLES:
        rules = principle.generate(library, prefix)
        report.fired[principle.name] = [rule.name for rule in rules]
        report.rules.extend(rules)
    return report


#: library -> its adaptation, so every rulebase adapted to one library
#: holds the same rule objects: the design space's process-wide caches
#: (rule netlists by builder, expansion graphs by rule sequence) then
#: serve each new session instead of growing by one entry per session.
_ADAPTATIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def adapt_rulebase(rulebase: RuleBase, library: CellLibrary) -> AdaptationReport:
    """Extend a rulebase in place with LOLA-generated rules (skipping
    names already present, so re-adaptation is idempotent).  The
    rules are generated once per library and shared, as is the
    returned report."""
    report = _ADAPTATIONS.get(library)
    if report is None:
        report = _ADAPTATIONS.setdefault(library, adapt(library))
    existing = {rule.name for rule in rulebase}
    for rule in report.rules:
        if rule.name not in existing:
            rulebase.add(rule)
    return report
