"""The built-in backends of the flow, one fixed table per kind.

The session layer selects every pluggable piece by *string*: cell
libraries (``lsi_logic``, ``vendor2``), rulebase policies (``auto``,
``standard``, ``lola``), performance filters (``pareto``,
``tradeoff:0.05``), enumeration orders (``lex``, ``frontier``,
``auto``), output emitters (``report``, ``vhdl``, ``json``) and spec
shorthands (``alu:64``).  Each kind is one :class:`Registry` built
once at import from the built-ins; ``repro list`` prints them, and
there is no registration.  Names fold through :func:`canonical_name`.

Filters and orders are names only, because both cache keys name them;
a cell library or a rulebase may also be passed as an object (the
LOLA flow builds both per data book).  :func:`search_defaults` is the
one parse of the five search parameters that come from outside (an
HTTP body, an operator's defaults) into a canonical
:class:`SessionKey`, and :func:`session_key` the pool key built on it.
"""

from __future__ import annotations

import difflib
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.api import emitters
from repro.core.configs import ORDERINGS
from repro.core.filters import (
    KeepAllFilter,
    ParetoFilter,
    TopKFilter,
    TradeoffFilter,
)
from repro.core.rulebase import standard_rulebase
from repro.core.specs import (
    adder_spec,
    alu_spec,
    comparator_spec,
    counter_spec,
    mux_spec,
    register_spec,
)
from repro.techlib import lsi_logic_library, vendor2_library


class RegistryError(KeyError):
    """Unknown backend name, or a designator its factory rejects."""

    def __str__(self) -> str:
        # KeyError.__str__ renders the message repr-quoted; undo that.
        return str(self.args[0]) if self.args else ""


def canonical_name(name: str) -> str:
    """The one folding of backend names: case-insensitive, ``-`` and
    ``_`` interchangeable, surrounding blanks ignored."""
    return name.strip().lower().replace("-", "_")


class Registry:
    """A fixed name -> factory table of one kind of backend.

    ``kind`` names the backend in error messages; ``signature``
    documents the factory calling convention; ``entries`` maps each
    name to its ``(factory, description)``.
    """

    def __init__(self, kind: str, signature: str,
                 entries: Dict[str, Tuple[Callable, str]]) -> None:
        self.kind = kind
        self.signature = signature
        self._entries = {canonical_name(name): entry
                         for name, entry in entries.items()}

    def get(self, name: str) -> Callable:
        """The factory of ``name``."""
        entry = self._entries.get(canonical_name(name))
        if entry is None:
            raise RegistryError(self._unknown_message(name))
        return entry[0]

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke the factory of ``name``."""
        return self.get(name)(*args, **kwargs)

    def describe(self, name: str) -> str:
        entry = self._entries.get(canonical_name(name))
        return "" if entry is None else entry[1]

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return canonical_name(name) in self._entries

    def __repr__(self) -> str:
        return f"Registry({self.kind}: {', '.join(self.names())})"

    def _unknown_message(self, name: str) -> str:
        known = self.names()
        message = f"unknown {self.kind} {name!r}; known: {', '.join(known)}"
        close = difflib.get_close_matches(canonical_name(name), known, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        return message


# ---------------------------------------------------------------------------
# The tables
# ---------------------------------------------------------------------------

def _auto_rulebase(library):
    rulebase = standard_rulebase()
    if library.name.startswith("LSI"):
        from repro.core.library_rules import lsi_rules

        rulebase.extend(lsi_rules())
    return rulebase


def _standard_rulebase(library):
    return standard_rulebase()


def _lola_rulebase(library):
    from repro.lola.assistant import adapt_rulebase

    rulebase = standard_rulebase()
    adapt_rulebase(rulebase, library)
    return rulebase


def _without_argument(name: str, filter_class: type) -> Callable:
    """The factory of a filter that takes no argument: ``pareto:3``
    is an error, not ``pareto``."""
    def build(arg: Optional[str] = None):
        if arg is not None:
            raise RegistryError(
                f"filter {name!r} takes no argument, got {name}:{arg}")
        return filter_class()
    return build


#: Cell libraries.  Factory convention: ``() -> CellLibrary``.
LIBRARIES = Registry("library", "() -> CellLibrary", {
    "lsi_logic": (lsi_logic_library,
                  "30-cell LSI Logic 1.5-micron subset (the paper's)"),
    "vendor2": (vendor2_library,
                "ACME 1.0-micron library (LOLA retargeting target)"),
})

#: Rulebase policies.  Factory convention:
#: ``(library: CellLibrary) -> RuleBase`` -- the policy sees the target
#: library so it can add library-specific rules.
RULEBASES = Registry("rulebase", "(library) -> RuleBase", {
    "auto": (_auto_rulebase,
             "standard rules + the LSI-specific nine on LSI libraries"),
    "standard": (_standard_rulebase,
                 "the generic decomposition rulebase only"),
    "lola": (_lola_rulebase,
             "standard rules + LOLA-adapted library-specific rules"),
})

#: Performance filters (search control S2).  Factory convention:
#: ``(arg: Optional[str]) -> PerformanceFilter`` where ``arg`` is the
#: text after ``:`` in designators like ``tradeoff:0.05`` (None when
#: absent).
FILTERS = Registry("filter", "(arg: str | None) -> PerformanceFilter", {
    "pareto": (_without_argument("pareto", ParetoFilter),
               "area/delay Pareto frontier"),
    "tradeoff": (lambda arg=None: TradeoffFilter(
                     0.05 if arg is None else float(arg)),
                 "frontier thinned to >=arg fractional delay gains "
                 "(tradeoff:0.05)"),
    "top_k": (lambda arg=None: TopKFilter(8 if arg is None else int(arg)),
              "at most k frontier points, extremes first (top_k:4)"),
    "keep_all": (_without_argument("keep_all", KeepAllFilter),
                 "no pruning (ablation; expect blow-up)"),
})

#: S1 enumeration orders: the functions of
#: :data:`repro.core.configs.ORDERINGS`, each described by its
#: docstring's summary.  Factory convention: ``(options, limit) ->
#: options`` reorders one option list.  Sessions take an order by name
#: (:func:`create_order`).
ORDERS = Registry("order", "(options, limit) -> options", {
    name: (order, " ".join(order.__doc__.split("\n\n")[0].split()))
    for name, order in ORDERINGS.items()
})

#: Output emitters.  Factory convention: ``(job: SynthesisJob) -> str``
#: (the factory *is* the emitter; it renders one job as text).
EMITTERS = Registry("emitter", "(job) -> str", {
    "report": (emitters.emit_report, "Figure-3 style area/delay table"),
    "plot": (emitters.emit_plot,
             "ASCII delay-vs-area scatter of the surviving points"),
    "vhdl": (emitters.emit_vhdl,
             "structural VHDL (smallest alternative; GENUS netlist for "
             "netlist/HLS jobs)"),
    "behavioral_vhdl": (emitters.emit_behavioral_vhdl,
                        "behavioral VHDL model of the root spec"),
    "json": (emitters.emit_json, "machine-readable alternatives + stats"),
    "cells": (emitters.emit_cells,
              "leaf-cell usage of the smallest and fastest alternatives"),
})

#: Component-spec shorthands.  Factory convention:
#: ``(width: int) -> ComponentSpec`` for names like ``alu:64``.
SPECS = Registry("spec", "(width: int) -> ComponentSpec", {
    "adder": (adder_spec, "n-bit binary adder"),
    "alu": (alu_spec, "n-bit 16-function ALU (paper Figure 3)"),
    "counter": (counter_spec, "n-bit up/down/load counter with enable"),
    "register": (register_spec, "n-bit D register"),
    "comparator": (comparator_spec,
                   "n-bit magnitude comparator (EQ LT GT)"),
    "mux": (lambda width: mux_spec(4, width),
            "4-to-1 multiplexer of the given data width"),
})


def create_filter(spec: Optional[str]):
    """Build the filter a designator names: ``None`` means ``pareto``,
    and a string like ``"tradeoff:0.05"`` is split on ``:`` into a
    name and its argument.  Anything else is a ``TypeError``: both
    cache keys name the filter."""
    if spec is None:
        spec = "pareto"
    if not isinstance(spec, str):
        raise TypeError(
            f"perf_filter must be a designator such as 'pareto' or "
            f"'tradeoff:0.05', got {type(spec).__name__}")
    name, _, arg = spec.partition(":")
    return FILTERS.create(name, arg or None)


def create_order(spec: Optional[str]) -> str:
    """The canonical name of an enumeration order: ``None`` means
    ``lex``, an unknown name is a :class:`RegistryError` and anything
    but a string a ``TypeError``: both cache keys name the order."""
    if spec is None:
        return "lex"
    if not isinstance(spec, str):
        raise TypeError(
            f"order must be a name ({', '.join(ORDERS.names())}), got "
            f"{type(spec).__name__}")
    ORDERS.get(spec)  # an unknown name raises, listing the known ones
    return canonical_name(spec)


#: Sanity bound on a combination cap that comes from outside.
MAX_COMBINATIONS_LIMIT = 10_000_000


class SessionKey(NamedTuple):
    """One search configuration in canonical form (see
    :func:`session_key`); the field defaults are the engine's."""

    library: str = "lsi_logic"
    rulebase: str = "auto"
    filter: str = "pareto"
    order: str = "lex"
    max_combinations: int = 20000


#: The session parameters, in key order.
SESSION_PARAMS = SessionKey._fields


def _canonical_param(name: str, value: Any) -> Any:
    """One session parameter in its canonical spelling (None is the
    engine default); a bad value raises ``ValueError``/``RegistryError``."""
    if value is None:
        return SessionKey._field_defaults[name]
    if name == "max_combinations":
        # An integer or a decimal string ("40"); int() alone would also
        # read JSON true as 1 and 2.9 as 2.
        try:
            if isinstance(value, (bool, float)):
                raise TypeError(value)
            cap = int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"max_combinations must be an integer, got {value!r}")
        if not 1 <= cap <= MAX_COMBINATIONS_LIMIT:
            raise ValueError(
                f"max_combinations must be in [1, {MAX_COMBINATIONS_LIMIT}]")
        return cap
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string name")
    if name == "filter":
        # The filter token as a designator: spellings of one filter
        # build equal filters, and the designator builds it again.
        from repro.store.fingerprint import filter_token

        filter_name, params = filter_token(create_filter(value))
        return ":".join([filter_name, *map(str, params.values())])
    if name == "order":
        return create_order(value)
    (LIBRARIES if name == "library" else RULEBASES).get(value)
    return canonical_name(value)


#: The libraries on which the ``auto`` rulebase adds the LSI-specific
#: rules (:func:`_auto_rulebase`); on any other it builds exactly the
#: ``standard`` rulebase.
_AUTO_LSI_LIBRARIES = ("lsi_logic",)


def search_defaults(params: Dict[str, Any],
                    defaults: SessionKey = SessionKey()) -> SessionKey:
    """The one parse of the search parameters from outside (an HTTP
    body, an operator's defaults): each of :data:`SESSION_PARAMS` that
    ``params`` names is validated and folded, the others come from
    ``defaults``.  A rulebase keeps its policy name, so an operator's
    default ``auto`` stays ``auto`` whichever library a request
    names."""
    return SessionKey(*(
        _canonical_param(name, params[name]) if name in params else default
        for name, default in zip(SESSION_PARAMS, defaults)))


def session_key(params: Dict[str, Any],
                defaults: SessionKey = SessionKey()) -> SessionKey:
    """The pool key of one search configuration: :func:`search_defaults`
    with the rulebase policy folded against the library (``auto`` is
    ``standard`` on a library where it adds no rules).  Spellings of
    one configuration give equal keys, so they share a pooled session,
    a fleet worker and a fingerprint; the key loads no library."""
    key = search_defaults(params, defaults)
    if key.rulebase == "auto" and key.library not in _AUTO_LSI_LIBRARIES:
        return key._replace(rulebase="standard")
    return key


def create_library(spec: Any):
    """Resolve a library designator: a CellLibrary passes through, a
    string is looked up in :data:`LIBRARIES`."""
    if isinstance(spec, str):
        return LIBRARIES.create(spec)
    return spec


def create_rulebase(spec: Any, library) -> Any:
    """Resolve a rulebase designator against the target ``library``:
    None means the ``auto`` policy, a string names a policy, and a
    RuleBase object passes through."""
    if spec is None:
        spec = "auto"
    if isinstance(spec, str):
        return RULEBASES.create(spec, library)
    return spec


# ---------------------------------------------------------------------------
# Cache designators
# ---------------------------------------------------------------------------

#: The URL schemes and the bare names a cache designator may use; the
#: error that rejects any other lists them.  A ``fault+`` scheme opens
#: its base scheme's table with a fault policy attached
#: (:mod:`repro.resilience.faults`).
_CACHE_SCHEMES = ("fault+memory", "fault+sqlite", "memory", "sqlite")
_CACHE_NAMES = ("default", "memory")


def _resolve_cache(spec: Any, kind: str):
    """The cache of ``kind`` (``"results"`` or ``"nodes"``) that
    ``spec`` designates, in any form :func:`create_store` lists: the one
    resolver behind :func:`create_store` and :func:`create_node_store`.

    An unknown scheme, a malformed URL or a bad query parameter raises
    :class:`RegistryError` (CLI exit 2), and an object of any other
    type ``TypeError``.  Store code is imported here, so importing the
    registry loads none."""
    if spec is None:
        return None
    from repro.nodestore import NodeStore
    from repro.resilience import FaultPolicy
    from repro.store import (
        ResultStore,
        parse_store_url,
        split_url_query,
        sqlite_url_path,
    )

    results = kind == "results"
    sqlite = ResultStore if results else NodeStore
    noun = "store" if results else "node store"
    if isinstance(spec, sqlite):
        return spec
    if spec is True or isinstance(spec, Path):
        return sqlite(None if spec is True else spec)
    if not isinstance(spec, str):
        raise TypeError(
            f"cannot open a {noun} from {type(spec).__name__}: expected "
            f"None, True, a path, or a {sqlite.__name__}")
    url = parse_store_url(spec)
    if url is None:
        name = spec.strip().lower()
        if name in _CACHE_NAMES:
            return sqlite(None if name == "default" else ":memory:")
        return sqlite(spec)
    scheme, rest = url
    if scheme not in _CACHE_SCHEMES:
        raise RegistryError(
            f"unknown {noun} URL scheme {scheme!r} in {spec!r}; known "
            f"schemes: {', '.join(_CACHE_SCHEMES)} (known {noun} names: "
            f"{', '.join(_CACHE_NAMES)})")
    faulted = scheme.startswith("fault+")
    busy_timeout_ms, policy = 10_000, None
    try:
        path, params = split_url_query(rest, spec)
        if scheme.endswith("memory"):
            if path not in ("", "//") or (params and not faulted):
                raise ValueError(
                    f"store URL {spec!r} is malformed: the {scheme} "
                    f"scheme takes no path (use "
                    f"'{scheme}:{'?...' if faulted else ''}')")
            path = ":memory:"
        else:
            path = sqlite_url_path(path, spec)
            text = params.pop("busy_timeout_ms", None)
            if text is not None:
                try:
                    busy_timeout_ms = int(text)
                except ValueError:
                    raise ValueError(
                        f"store URL {spec!r}: busy_timeout_ms must be an "
                        f"integer number of milliseconds, got {text!r}"
                    ) from None
                if busy_timeout_ms < 1:
                    raise ValueError(
                        f"store URL {spec!r}: busy_timeout_ms must be "
                        f">= 1, got {busy_timeout_ms}")
        if faulted:
            policy = FaultPolicy.from_params(params, spec)
        elif params:
            raise ValueError(
                f"store URL {spec!r} has unknown query parameter(s): "
                f"{', '.join(sorted(params))} (known: busy_timeout_ms)")
    except ValueError as error:
        raise RegistryError(str(error)) from None
    return sqlite(path, busy_timeout_ms=busy_timeout_ms, policy=policy)


def create_store(spec: Any):
    """Resolve a result-store designator: ``None`` means no store, a
    live :class:`~repro.store.ResultStore` passes through, ``True`` or
    ``"default"`` opens the default file (``$REPRO_STORE`` or
    ``~/.cache/repro/store.sqlite``), ``"memory"`` ephemeral SQLite, a
    URL (``sqlite:///abs.sqlite``,
    ``sqlite://rel.sqlite?busy_timeout_ms=500``, ``memory:``,
    ``fault+sqlite://path?fail_rate=0.5``, ``fault+memory:?...``) the
    table its scheme names, and any other string or path that SQLite
    file."""
    return _resolve_cache(spec, "results")


def create_node_store(spec: Any):
    """Resolve a node-store designator exactly like
    :func:`create_store`, to a :class:`~repro.nodestore.NodeStore` --
    a path opens the ``nodes`` table in that SQLite file, which may be,
    and by default is, the same file a
    :class:`~repro.store.ResultStore` uses."""
    return _resolve_cache(spec, "nodes")


def parse_spec(text: str):
    """Parse a ``name:width`` shorthand (``alu:64``) into a
    :class:`~repro.core.specs.ComponentSpec` via :data:`SPECS`."""
    name, sep, width_text = text.partition(":")
    if not sep:
        raise RegistryError(
            f"spec shorthand {text!r} must look like 'name:width' "
            f"(e.g. 'alu:64'); known names: {', '.join(SPECS.names())}"
        )
    try:
        width = int(width_text)
    except ValueError:
        raise RegistryError(
            f"spec shorthand {text!r}: width {width_text!r} is not an integer"
        ) from None
    if width < 1:
        raise RegistryError(f"spec shorthand {text!r}: width must be >= 1")
    return SPECS.create(name, width)

