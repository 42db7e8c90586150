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

#: Result stores (persistent, content-addressed result caches; see
#: :mod:`repro.store`).  Factory convention: ``() -> ResultStore``.
#: Built-ins: ``default`` (the on-disk store at
#: ``$REPRO_STORE``/``~/.cache/repro/store.sqlite``) and ``memory``
#: (ephemeral per-process SQLite, for tests and opt-out serving).
STORES = Registry("store", "() -> ResultStore")

#: Node stores (persistent per-node option caches for subtree-level
#: work sharing; see :mod:`repro.nodestore`).  Factory convention:
#: ``() -> NodeStore``.  Built-ins: ``default`` (the ``nodes`` table in
#: the default result-store file) and ``memory`` (ephemeral
#: per-process SQLite, for tests and opt-out serving).
NODE_STORES = Registry("node store", "() -> NodeStore")

#: Store backend URL schemes (see :mod:`repro.store.backend`).  One
#: registry serves result stores *and* node stores: the factory
#: convention is ``(rest: str, url: str, kind: str) -> backend`` where
#: ``rest`` is everything after ``scheme:``, ``url`` is the full
#: designator (for error messages), and ``kind`` is ``"results"`` or
#: ``"nodes"`` -- so one URL (``sqlite:///path``) designates whichever
#: cache the call site wants, and both kinds can co-locate.  Built-ins:
#: ``sqlite`` (the default file backend) and ``memory`` (ephemeral).
#: Third-party backends register a scheme here and become usable as
#: ``--store scheme://...`` everywhere with no engine changes.
STORE_SCHEMES = Registry("store URL scheme",
                         "(rest, url, kind: 'results'|'nodes') -> backend")

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
# Cache kinds: the one place a kind picks its classes
# ---------------------------------------------------------------------------

def _cache_kind(kind: str):
    """``(names, backend ABC, SQLite class, fault wrapper)`` for one
    cache kind, ``"results"`` or ``"nodes"``.  Imported lazily so that
    importing the registry loads no store code."""
    from repro.nodestore import NodeStore
    from repro.resilience import FaultInjectingNodeStore, FaultInjectingStore
    from repro.store import NodeStoreBackend, ResultStore, StoreBackend

    return {
        "results": (STORES, StoreBackend, ResultStore, FaultInjectingStore),
        "nodes": (NODE_STORES, NodeStoreBackend, NodeStore,
                  FaultInjectingNodeStore),
    }[kind]


def _open_cache(kind: str, path: Any = None, **options):
    """The SQLite backend of ``kind`` on ``path`` (None: the default
    file) -- the constructor behind every built-in name and scheme."""
    return _cache_kind(kind)[2](path, **options)


def _pop_busy_timeout(params: Dict[str, str], url: str) -> int:
    text = params.pop("busy_timeout_ms", None)
    if text is None:
        return 10_000
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"store URL {url!r}: busy_timeout_ms must be an "
            f"integer number of milliseconds, got {text!r}") from None
    if value < 1:
        raise ValueError(
            f"store URL {url!r}: busy_timeout_ms must be >= 1, "
            f"got {value}")
    return value


def _sqlite_scheme(memory: bool, faulted: bool) -> Callable:
    """The :data:`STORE_SCHEMES` factory of one built-in scheme: a
    SQLite file (``busy_timeout_ms`` may be set) or ephemeral SQLite
    (no path), optionally behind a :class:`FaultPolicy` built from the
    rest of the query."""

    def factory(rest: str, url: str, kind: str):
        from repro.resilience import FaultPolicy
        from repro.store import split_url_query, sqlite_url_path

        try:
            path, params = split_url_query(rest, url)
            options: Dict[str, Any] = {}
            if memory:
                name = "fault+memory" if faulted else "memory"
                if path not in ("", "//") or (params and not faulted):
                    raise ValueError(
                        f"store URL {url!r} is malformed: the {name} "
                        f"scheme takes no path (use "
                        f"'{name}:{'?...' if faulted else ''}')")
                path = ":memory:"
            else:
                path = sqlite_url_path(path, url)
                options["busy_timeout_ms"] = _pop_busy_timeout(params, url)
            if faulted:
                policy = FaultPolicy.from_params(params, url)
            elif params:
                raise ValueError(
                    f"store URL {url!r} has unknown query parameter(s): "
                    f"{', '.join(sorted(params))} (known: busy_timeout_ms)")
        except ValueError as error:
            raise RegistryError(str(error)) from None
        backend = _open_cache(kind, path, **options)
        return _cache_kind(kind)[3](backend, policy) if faulted else backend

    return factory


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

    STORES.register(
        "default", lambda: _open_cache("results"),
        description="on-disk store at $REPRO_STORE or "
                    "~/.cache/repro/store.sqlite")
    STORES.register(
        "memory", lambda: _open_cache("results", ":memory:"),
        description="ephemeral in-process SQLite store (tests, opt-out)")
    NODE_STORES.register(
        "default", lambda: _open_cache("nodes"),
        description="nodes table co-located with the default result "
                    "store file")
    NODE_STORES.register(
        "memory", lambda: _open_cache("nodes", ":memory:"),
        description="ephemeral in-process SQLite node cache (tests)")

    STORE_SCHEMES.register(
        "sqlite", _sqlite_scheme(memory=False, faulted=False),
        description="one SQLite file (sqlite:///abs/path.sqlite or "
                    "sqlite://relative.sqlite?busy_timeout_ms=500); the "
                    "default backend")
    STORE_SCHEMES.register(
        "memory", _sqlite_scheme(memory=True, faulted=False),
        description="ephemeral per-process SQLite (memory:)")
    STORE_SCHEMES.register(
        "fault+sqlite", _sqlite_scheme(memory=False, faulted=True),
        description="SQLite behind deterministic fault injection "
                    "(fault+sqlite://path?fail_rate=&latency_ms=&"
                    "corrupt_rate=&seed=&fail_first=)")
    STORE_SCHEMES.register(
        "fault+memory", _sqlite_scheme(memory=True, faulted=True),
        description="ephemeral SQLite behind fault injection "
                    "(fault+memory:?fail_rate=...)")

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


def _create_from_url(spec: str, kind: str, names: "Registry"):
    """Resolve a URL-style store designator through
    :data:`STORE_SCHEMES`, or return ``None`` when ``spec`` is not a
    URL at all (a bare name or path -- the caller's business).

    An *unknown scheme* and a *malformed URL* both raise
    :class:`RegistryError` listing the registered schemes and names --
    the same exit-2 contract bare-name typos get from the CLI."""
    from repro.store import parse_store_url

    url = parse_store_url(spec)
    if url is None:
        return None
    scheme, rest = url
    try:
        factory = STORE_SCHEMES.get(scheme)
    except RegistryError:
        raise RegistryError(
            f"unknown {names.kind} URL scheme {scheme!r} in {spec!r}; "
            f"registered schemes: {', '.join(STORE_SCHEMES.names())} "
            f"(registered {names.kind} names: {', '.join(names.names())})"
        ) from None
    return factory(rest, spec, kind)


def _create_cache(spec: Any, kind: str):
    """Resolve a designator of either cache kind (the body of
    :func:`create_store` and :func:`create_node_store`)."""
    if spec is None:
        return None
    names, backend, sqlite, _ = _cache_kind(kind)
    if isinstance(spec, backend):
        return spec
    if isinstance(spec, str):
        from_url = _create_from_url(spec, kind, names)
        if from_url is not None:
            return from_url
        if spec in names:
            return names.create(spec)
    if spec is True or isinstance(spec, (str, Path)):
        return sqlite(None if spec is True else spec)
    raise TypeError(
        f"cannot open a {names.kind} from {type(spec).__name__}: expected "
        f"None, True, a path, or a {backend.__name__}")


def create_store(spec: Any):
    """Resolve a result-store designator: ``None`` means no store, a
    ``StoreBackend`` passes through, a registered name (``"default"``,
    ``"memory"``) is looked up in :data:`STORES`, a URL
    (``sqlite:///path``, ``memory:``) resolves through
    :data:`STORE_SCHEMES`, and any other string/path (or ``True`` for
    the default location) opens that SQLite file directly."""
    return _create_cache(spec, "results")


def create_node_store(spec: Any):
    """Resolve a node-store designator exactly like
    :func:`create_store`, against :data:`NODE_STORES` and
    ``NodeStoreBackend`` -- a path opens the ``nodes`` table in that
    SQLite file, which may be, and by default is, the same file a
    :class:`~repro.store.ResultStore` uses."""
    return _create_cache(spec, "nodes")


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
