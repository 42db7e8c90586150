"""Name-based registries for the pluggable pieces of the flow.

The session layer selects backends by *string*: cell libraries
(``lsi_logic``, ``vendor2``), rulebase policies (``auto``, ``standard``,
``lola``), performance filters (``pareto``, ``tradeoff:0.05``), output
emitters (``report``, ``vhdl``, ``json``), and spec shorthands
(``alu:64``).  Third-party code extends the system by registering its
own factory under a new name -- no session or CLI change required::

    from repro.api import registry

    @registry.LIBRARIES.register("acme3")
    def _acme3():
        return load_databook(ACME3_SOURCE)

Every registry maps a name to a zero-or-more-argument factory; the
conventions per registry are documented on the module-level instances
below.
"""

from __future__ import annotations

import difflib
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


class RegistryError(KeyError):
    """Unknown or duplicate registry name."""

    def __str__(self) -> str:
        # KeyError.__str__ renders the message repr-quoted; undo that.
        return str(self.args[0]) if self.args else ""


class Registry:
    """A string -> factory table with decorator registration.

    ``kind`` names what is being registered (used in error messages);
    ``signature`` documents the factory calling convention.
    """

    def __init__(self, kind: str, signature: str = "()") -> None:
        self.kind = kind
        self.signature = signature
        self._factories: Dict[str, Callable] = {}
        self._descriptions: Dict[str, str] = {}
        # Registration is guarded: the serve layer imports plugin-style
        # registrations from executor threads, and concurrent decorator
        # registration must neither corrupt the tables nor let two
        # threads silently claim the same name.
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------
    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        description: str = "",
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``.

        Usable directly (``reg.register("x", fn)``) or as a decorator
        (``@reg.register("x")``).  Names are case-insensitive and
        ``-``/``_`` are interchangeable.
        """
        key = self._canon(name)

        def _install(fn: Callable) -> Callable:
            with self._lock:
                if key in self._factories and not replace:
                    raise RegistryError(
                        f"{self.kind} {name!r} is already registered "
                        f"(pass replace=True to override)"
                    )
                self._factories[key] = fn
                doc = (fn.__doc__ or "").strip()
                self._descriptions[key] = description or (
                    doc.splitlines()[0] if doc else "")
            return fn

        if factory is None:
            return _install
        return _install(factory)

    def unregister(self, name: str) -> None:
        key = self._canon(name)
        with self._lock:
            self._factories.pop(key, None)
            self._descriptions.pop(key, None)

    # -- lookup --------------------------------------------------------
    # Reads take the same lock as registration: names()/iteration must
    # never see a dict mid-mutation from another thread (sorted() over
    # a changing dict raises), and a get concurrent with a replace must
    # return either the old or the new factory, never crash.
    def get(self, name: str) -> Callable:
        """The raw factory registered under ``name``."""
        key = self._canon(name)
        with self._lock:
            factory = self._factories.get(key)
        if factory is None:
            raise RegistryError(self._unknown_message(name))
        return factory

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke the factory registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def describe(self, name: str) -> str:
        with self._lock:
            return self._descriptions.get(self._canon(name), "")

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        key = self._canon(name)
        with self._lock:
            return key in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self.kind}: {', '.join(self.names()) or 'empty'})"

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _canon(name: str) -> str:
        return name.strip().lower().replace("-", "_")

    def _unknown_message(self, name: str) -> str:
        known = self.names()
        message = f"unknown {self.kind} {name!r}; known: {', '.join(known)}"
        close = difflib.get_close_matches(self._canon(name), known, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        return message


# ---------------------------------------------------------------------------
# The registries
# ---------------------------------------------------------------------------

#: Cell libraries.  Factory convention: ``() -> CellLibrary``.
LIBRARIES = Registry("library", "() -> CellLibrary")

#: Rulebase policies.  Factory convention:
#: ``(library: CellLibrary) -> RuleBase`` -- the policy sees the target
#: library so it can add library-specific rules.
RULEBASES = Registry("rulebase", "(library) -> RuleBase")

#: Performance filters (search control S2).  Factory convention:
#: ``(arg: Optional[str]) -> PerformanceFilter`` where ``arg`` is the
#: text after ``:`` in specs like ``tradeoff:0.05`` (None when absent).
FILTERS = Registry("filter", "(arg: str | None) -> PerformanceFilter")

#: Output emitters.  Factory convention: ``(job: SynthesisJob) -> str``
#: (the factory *is* the emitter; it renders one job as text).
EMITTERS = Registry("emitter", "(job) -> str")

#: Component-spec shorthands.  Factory convention:
#: ``(width: int) -> ComponentSpec`` for names like ``alu:64``.
SPECS = Registry("spec", "(width: int) -> ComponentSpec")

#: S1 enumeration orders for the streaming combiner.  Factory
#: convention: ``() -> Optional[callable]`` returning a function that
#: reorders one option list (``None`` = keep list order).  The order is
#: one of the three search controls (with the filter and
#: ``max_combinations``), and both cache keys name it, so sessions take
#: it by name only: third-party orders registered here are usable as
#: ``Session(order="name")`` and ``--order name`` exactly like
#: built-ins.  Names resolve at this layer (:func:`create_order`).
ORDERS = Registry("order", "() -> Optional[callable]")


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------

def _register_builtins() -> None:
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

    LIBRARIES.register(
        "lsi_logic", lsi_logic_library,
        description="30-cell LSI Logic 1.5-micron subset (the paper's)")
    LIBRARIES.register(
        "vendor2", vendor2_library,
        description="ACME 1.0-micron library (LOLA retargeting target)")

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

    RULEBASES.register(
        "auto", _auto_rulebase,
        description="standard rules + the LSI-specific nine on LSI libraries")
    RULEBASES.register(
        "standard", _standard_rulebase,
        description="the generic decomposition rulebase only")
    RULEBASES.register(
        "lola", _lola_rulebase,
        description="standard rules + LOLA-adapted library-specific rules")

    FILTERS.register(
        "pareto", lambda arg=None: ParetoFilter(),
        description="area/delay Pareto frontier")
    FILTERS.register(
        "tradeoff", lambda arg=None: TradeoffFilter(
            float(arg) if arg is not None else 0.05),
        description="frontier thinned to >=arg fractional delay gains "
                    "(tradeoff:0.05)")
    FILTERS.register(
        "top_k", lambda arg=None: TopKFilter(int(arg) if arg is not None else 8),
        description="at most k frontier points, extremes first (top_k:4)")
    FILTERS.register(
        "keep_all", lambda arg=None: KeepAllFilter(),
        description="no pruning (ablation; expect blow-up)")

    from repro.core.configs import adaptive_order, pareto_rank_order

    ORDERS.register(
        "lex", lambda: None,
        description="enumeration order of the option lists (seed "
                    "semantics; byte-stable results)")
    ORDERS.register(
        "frontier", lambda: pareto_rank_order,
        description="Pareto-rank + two-ended sweep seeding, so "
                    "max_combinations keeps the best designs")
    ORDERS.register(
        "auto", lambda: adaptive_order,
        description="cap-adaptive: lex prefix + frontier tail, so tiny "
                    "caps keep the knee region and the delay corner")

    SPECS.register("adder", adder_spec, description="n-bit binary adder")
    SPECS.register("alu", alu_spec,
                   description="n-bit 16-function ALU (paper Figure 3)")
    SPECS.register("counter", counter_spec,
                   description="n-bit up/down/load counter with enable")
    SPECS.register("register", register_spec, description="n-bit D register")
    SPECS.register("comparator", comparator_spec,
                   description="n-bit magnitude comparator (EQ LT GT)")
    SPECS.register("mux", lambda width: mux_spec(4, width),
                   description="4-to-1 multiplexer of the given data width")

    # Emitters live in repro.api.emitters; importing it registers them.
    from repro.api import emitters as _emitters  # noqa: F401


def create_filter(spec: Any):
    """Resolve a filter designator: an object passes through, a string
    like ``"tradeoff:0.05"`` is split on ``:`` and looked up."""
    if spec is None:
        return FILTERS.create("pareto", None)
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        return FILTERS.create(name, arg or None)
    return spec


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
#: error that rejects any other lists them.  A ``fault+`` scheme puts
#: its base scheme's backend behind fault injection
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
    from repro.resilience import (
        FaultInjectingNodeStore,
        FaultInjectingStore,
        FaultPolicy,
    )
    from repro.store import (
        NodeStoreBackend,
        ResultStore,
        StoreBackend,
        parse_store_url,
        split_url_query,
        sqlite_url_path,
    )

    results = kind == "results"
    backend = StoreBackend if results else NodeStoreBackend
    sqlite = ResultStore if results else NodeStore
    noun = "store" if results else "node store"
    if isinstance(spec, backend):
        return spec
    if spec is True or isinstance(spec, Path):
        return sqlite(None if spec is True else spec)
    if not isinstance(spec, str):
        raise TypeError(
            f"cannot open a {noun} from {type(spec).__name__}: expected "
            f"None, True, a path, or a {backend.__name__}")
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
    busy_timeout_ms = 10_000
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
    cache = sqlite(path, busy_timeout_ms=busy_timeout_ms)
    if not faulted:
        return cache
    return (FaultInjectingStore if results else FaultInjectingNodeStore)(
        cache, policy)


def create_store(spec: Any):
    """Resolve a result-store designator: ``None`` means no store, a
    ``StoreBackend`` passes through, ``True`` or ``"default"`` opens the
    default file (``$REPRO_STORE`` or ``~/.cache/repro/store.sqlite``),
    ``"memory"`` ephemeral SQLite, a URL (``sqlite:///abs.sqlite``,
    ``sqlite://rel.sqlite?busy_timeout_ms=500``, ``memory:``,
    ``fault+sqlite://path?fail_rate=0.5``, ``fault+memory:?...``) the
    backend its scheme names, and any other string or path that SQLite
    file."""
    return _resolve_cache(spec, "results")


def create_node_store(spec: Any):
    """Resolve a node-store designator exactly like
    :func:`create_store`, to a ``NodeStoreBackend`` -- a path opens the
    ``nodes`` table in that SQLite file, which may be, and by default
    is, the same file a :class:`~repro.store.ResultStore` uses."""
    return _resolve_cache(spec, "nodes")


def create_order(spec: Optional[str]):
    """Resolve an enumeration-order name: None passes through (engine
    default) and a string is looked up in :data:`ORDERS`.  Anything
    else is a ``TypeError``: an order is keyed by its name."""
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise TypeError(
            f"order must be a name registered in ORDERS, got "
            f"{type(spec).__name__}")
    return ORDERS.create(spec)


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


_register_builtins()
