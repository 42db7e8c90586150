"""DTAS -- rule-based functional synthesis of generic RTL components.

This package is the paper's primary contribution: it maps netlists of
generic (GENUS) component instances into hierarchical, library-specific
netlists through functional decomposition and technology mapping by
functional matching, with search control via implementation consistency
and performance filters.

Public entry points:

- :class:`repro.core.specs.ComponentSpec` -- the representation language
  shared by generic components and library cells,
- :class:`repro.core.design_space.DesignSpace` -- expansion and
  evaluation of the design space,
- :class:`repro.core.synthesizer.SynthesisResult` -- the costed
  alternatives of one request,
- :mod:`repro.core.filters` -- performance filters (search control S2).

Synthesis itself is driven through :class:`repro.api.Session`.
"""

from repro.core.specs import ComponentSpec, make_spec, port_signature
from repro.core.filters import (
    KeepAllFilter,
    ParetoFilter,
    PerformanceFilter,
    TopKFilter,
    TradeoffFilter,
)
from repro.core.configs import Configuration, pareto_rank_order
from repro.core.design_space import DesignSpace, Implementation, SpecNode
from repro.core.interning import intern_configuration, intern_stats
from repro.core.parallel import parallel_prefill
from repro.core.rules import Rule, RuleBase
from repro.core.synthesizer import SynthesisResult

# Load the rule-family modules eagerly: session construction otherwise
# pays the module-exec cost of ten rulebase modules inside the first
# synthesis call, which is exactly where serving latency matters.  The
# Rule objects themselves are still built lazily on first use.
# (These imports must come last -- the rule modules import
# repro.core.rules/specs.)
from repro.core import library_rules as _library_rules  # noqa: E402,F401
from repro.core import rulebase as _rulebase  # noqa: E402,F401
from repro.core.rulebase import (  # noqa: E402,F401
    alu as _alu,
    arithmetic as _arithmetic,
    comparators as _comparators,
    counters as _counters,
    encoding as _encoding,
    logic as _logic,
    multipliers as _multipliers,
    routing as _routing,
    shifters as _shifters,
    storage as _storage,
)

__all__ = [
    "ComponentSpec",
    "Configuration",
    "DesignSpace",
    "Implementation",
    "KeepAllFilter",
    "ParetoFilter",
    "PerformanceFilter",
    "Rule",
    "RuleBase",
    "SpecNode",
    "SynthesisResult",
    "TopKFilter",
    "TradeoffFilter",
    "intern_configuration",
    "intern_stats",
    "make_spec",
    "pareto_rank_order",
    "parallel_prefill",
    "port_signature",
]
