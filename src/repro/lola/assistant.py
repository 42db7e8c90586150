"""The LOLA adaptation driver.

``adapt(library)`` runs every abstract design principle against a cell
library and returns the generated library-specific rules together with
a report of what fired and why -- LOLA "then uses these generated rules
to modify DTAS's rule base so that DTAS can take advantage of the
library changes" (paper section 7), which here means passing them to
:class:`repro.api.Session` as ``extra_rules`` or extending a rulebase
in place.

``retarget_space(space, library)`` is the *incremental* path: instead
of rebuilding a design space from scratch for every data book, it
rebinds the leaf cells of an already-expanded space against the new
library, keeps the decomposition skeleton and its compiled timing
programs, and invalidates only memoized costs -- so a retargeting
sweep over many data books pays expansion once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.design_space import DesignSpace
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


def adapt_rulebase(rulebase: RuleBase, library: CellLibrary) -> AdaptationReport:
    """Extend a rulebase in place with LOLA-generated rules (skipping
    names already present, so re-adaptation is idempotent)."""
    report = adapt(library)
    existing = {rule.name for rule in rulebase}
    for rule in report.rules:
        if rule.name not in existing:
            rulebase.add(rule)
    return report


@dataclass
class RetargetReport:
    """What an incremental retarget touched."""

    library_name: str
    #: Counters from :meth:`DesignSpace.rebind_library`: expanded nodes
    #: visited, nodes whose cell bindings changed, memoized config sets
    #: invalidated, compiled timing programs preserved.
    rebind: Dict[str, int] = field(default_factory=dict)
    #: LOLA rule adaptation run against the new library (when
    #: requested); the generated rules apply to specs expanded *after*
    #: the retarget -- already-expanded nodes keep their skeleton.
    adaptation: Optional[AdaptationReport] = None

    def describe(self) -> str:
        lines = [
            f"incremental retarget to {self.library_name!r}:",
            f"  nodes: {self.rebind.get('nodes', 0)}, "
            f"rebound: {self.rebind.get('rebound_nodes', 0)}, "
            f"costs invalidated: {self.rebind.get('invalidated', 0)}, "
            f"timing programs kept: {self.rebind.get('programs_kept', 0)}",
        ]
        if self.adaptation is not None:
            lines.append(self.adaptation.describe())
        return "\n".join(lines)


def retarget_space(
    space: DesignSpace,
    library: CellLibrary,
    adapt_rules: bool = True,
) -> RetargetReport:
    """Incrementally retarget an expanded design space to ``library``.

    Leaf cell bindings are recomputed against the new data book, the
    generic decomposition skeleton and every compiled timing program
    survive, and only memoized costs are invalidated -- the next
    synthesis re-costs rebound leaves and their dependents instead of
    re-expanding.  With ``adapt_rules`` the rulebase is extended with
    LOLA-generated library-specific rules, which take effect for specs
    expanded after the retarget (the reused skeleton is deliberately
    left as derived; a from-scratch expansion against the new library
    may discover different decompositions).
    """
    report = RetargetReport(library.name)
    report.rebind = space.rebind_library(library)
    if adapt_rules:
        report.adaptation = adapt_rulebase(space.rulebase, library)
    return report
