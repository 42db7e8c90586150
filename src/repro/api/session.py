"""The session layer: one object that owns the whole flow.

A :class:`Session` binds a cell library, a rulebase policy, and a
performance-filter policy, and owns every process-level cache the
engine uses -- the expanded :class:`~repro.core.design_space.DesignSpace`
(spec nodes, filtered configurations), the compiled timing programs,
cached rule applications, and cell matchings keyed per library.  One
session amortizes those caches across many jobs: ``synthesize`` runs a
single request, ``map`` runs a batch through the same design space, so
later requests reuse every subtree earlier ones expanded.

Backends are built-ins selected by name through
:mod:`repro.api.registry`::

    from repro.api import Session

    session = Session(library="lsi_logic", perf_filter="tradeoff:0.05")
    job = session.synthesize("alu:64")
    print(job.report())
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.api.registry import (
    create_filter,
    create_library,
    create_node_store,
    create_order,
    create_rulebase,
    create_store,
)
from repro.api.requests import SynthesisJob, SynthesisRequest
from repro.core.design_space import DesignSpace, DesignTree
from repro.core.rules import RuleBase
from repro.core.specs import ComponentSpec
from repro.core.synthesizer import DesignAlternative, SynthesisResult
from repro.netlist.netlist import Netlist

#: Anything ``synthesize``/``map`` accept as a target.
RequestLike = Union[SynthesisRequest, ComponentSpec, Netlist, str, Any]


class Session:
    """A configured synthesis workbench.

    Parameters
    ----------
    library:
        The target cell library: a ``CellLibrary`` or a built-in name
        (``"lsi_logic"``, ``"vendor2"``).
    rulebase:
        The decomposition rules: a ``RuleBase``, a built-in policy
        name (``"auto"``, ``"standard"``, ``"lola"``), or None for the
        ``auto`` policy (standard rules, plus the nine LSI-specific
        rules when the library is the LSI subset).
    perf_filter:
        Search control (S2): a designator of a built-in filter,
        ``"pareto"`` (None, the default), ``"tradeoff:0.05"``,
        ``"top_k:4"`` or ``"keep_all"``.  Like ``order`` it is a name
        only (an object is a ``TypeError``): both cache keys name it.
    max_combinations:
        Per-node cap on the streamed S1 cross product (at least 1);
        None keeps the engine default.  Fixed for the session's life.
    order:
        S1 enumeration order: a name in
        :data:`~repro.api.registry.ORDERS` (``"lex"``, the default for
        None, ``"frontier"``, ``"auto"``).  ``"frontier"`` makes
        ``max_combinations`` keep the best designs instead of the
        lexicographically first.
    store:
        Persistent result store (see :mod:`repro.store`): ``None``
        (default) disables persistence; ``True`` or ``"default"`` (the
        default location), ``"memory"``, a path, a URL
        (:func:`~repro.api.registry.create_store`) or a live
        :class:`~repro.store.ResultStore` enables it.  With a store, every
        content-addressable request is first looked up by its
        canonical fingerprint -- a hit skips expansion and evaluation
        entirely and returns revived canonical configurations --
        and every computed result is written back for the next
        process.
    node_store:
        Persistent *per-node* option cache (see :mod:`repro.nodestore`):
        the designators of ``store``, or a live
        :class:`~repro.nodestore.NodeStore`.
        Where the result store shares whole requests, the node cache
        shares expanded *subtrees*: during evaluation every
        decomposition node is probed before its S1 cross product runs
        and published after, so a different request over an
        overlapping subgraph -- in this process or another sharing the
        file -- reuses this one's leaves.  Results are byte-identical
        with the cache on, off, or half-warm.

    The library and rulebase are fixed when the session is built, and
    so are the filter, the order and ``max_combinations`` (the only
    search controls): together they make up the :attr:`search_token`
    both caches key on.  To synthesize against another library, build
    another session (with :func:`repro.lola.adapt_rulebase` for the
    paper's LOLA flow); it may share this one's stores, whose keys
    keep the two libraries apart.

    A request is evaluated in one sequential bottom-up pass.
    Parallelism lives across requests, in the fleet (``repro fleet``,
    :mod:`repro.fleet`), whose workers share the stores.
    """

    def __init__(
        self,
        library: Any = "lsi_logic",
        rulebase: Any = None,
        perf_filter: Optional[str] = None,
        *,
        max_combinations: Optional[int] = None,
        order: Optional[str] = None,
        store: Any = None,
        node_store: Any = None,
    ) -> None:
        self.library = create_library(library)
        self.rulebase: RuleBase = create_rulebase(rulebase, self.library)
        self.perf_filter = create_filter(perf_filter)
        self.space = DesignSpace(
            self.rulebase,
            self.library,
            self.perf_filter,
            max_combinations=max_combinations,
            order=create_order(order),
        )
        self._legend_libraries: Dict[str, Any] = {}
        self.jobs_run = 0
        self.store = create_store(store)
        self.node_store = create_node_store(node_store)
        if self.node_store is not None:
            from repro.nodestore import session_space_key

            self.space.attach_node_store(self.node_store,
                                         session_space_key(self))

    # ------------------------------------------------------------------
    # synthesis
    # ------------------------------------------------------------------
    def synthesize(self, target: RequestLike, *,
                   fingerprint: Optional[str] = None) -> SynthesisJob:
        """Run one request (or raw target; see
        :meth:`SynthesisRequest.coerce`) through the design space.

        With a :attr:`store`, content-addressable requests are first
        looked up by fingerprint: a hit is served without expansion or
        evaluation (``job.from_store`` is True and its configurations
        are revived canonical instances); a miss runs the engine
        and persists the result for the next process.  ``fingerprint``
        lets a caller that already computed :meth:`fingerprint` for
        this exact request (the serve layer, for coalescing) skip the
        recomputation; passing a wrong one corrupts the store."""
        request = SynthesisRequest.coerce(target)
        if self.store is None:
            fingerprint = None  # nothing to look up or persist in
        elif fingerprint is None:
            fingerprint = self.fingerprint(request)
        if fingerprint is not None:
            job = self._load_stored(fingerprint, request)
            if job is not None:
                self.jobs_run += 1
                return job
        handler = getattr(self, f"_run_{request.kind}")
        job = handler(request)
        self.jobs_run += 1
        if fingerprint is not None:
            self._store_job(fingerprint, job)
        return job

    def map(self, targets: Iterable[RequestLike]) -> List[SynthesisJob]:
        """Batch synthesis: every request runs through *this* session's
        design space, so shared subtrees (a 16-bit adder inside two
        different ALUs, say) are expanded, costed, and filtered once."""
        return [self.synthesize(target) for target in targets]

    # -- per-kind handlers --------------------------------------------
    def _run_spec(self, request: SynthesisRequest) -> SynthesisJob:
        result = self._synthesize_spec(request.spec)
        return SynthesisJob(request, result, session=self)

    def _run_netlist(self, request: SynthesisRequest) -> SynthesisJob:
        result = self._synthesize_netlist(request.netlist)
        return SynthesisJob(request, result, session=self)

    def _run_legend(self, request: SynthesisRequest) -> SynthesisJob:
        component = self._elaborate_legend(request)
        result = self._synthesize_spec(component.spec)
        # Default labels get upgraded to the elaborated component's
        # name -- on a copy, never mutating the caller's request.
        if not request.label or request.label == (request.generator or "legend"):
            request = replace(request, label=component.name)
        return SynthesisJob(request, result, session=self, component=component)

    def _run_hls(self, request: SynthesisRequest) -> SynthesisJob:
        from repro.hls import hls_synthesize

        hls = hls_synthesize(request.program, request.constraints)
        result = self._synthesize_netlist(hls.datapath.netlist)
        return SynthesisJob(request, result, session=self, hls=hls)

    # -- engine calls --------------------------------------------------
    # Per-job stats are restricted to the subgraph the request reaches
    # (`stats_for`), never the whole-space counts: a session's space
    # accumulates nodes across jobs, and a stored/served result must
    # not depend on what else the producing session happened to run.
    def _synthesize_spec(self, spec: ComponentSpec) -> SynthesisResult:
        before = self.space.snapshot_phases()
        start = time.perf_counter()
        configs = self.space.alternatives(spec)
        elapsed = time.perf_counter() - start
        alternatives = [
            DesignAlternative(i, config, self.space, spec)
            for i, config in enumerate(configs)
        ]
        return SynthesisResult(alternatives, self.space.stats_for([spec]),
                               elapsed, spec,
                               phases=self._phase_delta(before))

    def _synthesize_netlist(self, netlist: Netlist) -> SynthesisResult:
        before = self.space.snapshot_phases()
        start = time.perf_counter()
        configs = self.space.evaluate_netlist(netlist)
        elapsed = time.perf_counter() - start
        alternatives = [
            DesignAlternative(i, config, self.space, None)
            for i, config in enumerate(configs)
        ]
        roots = list(dict.fromkeys(m.spec for m in netlist.modules))
        return SynthesisResult(alternatives, self.space.stats_for(roots),
                               elapsed, phases=self._phase_delta(before))

    def _phase_delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """This request's phase breakdown: the space's cumulative phase
        clocks minus the ``before`` snapshot (memoized subtrees cost
        nothing, so a warm-space request legitimately shows near-zero
        phases)."""
        return {
            phase: total - before.get(phase, 0.0)
            for phase, total in sorted(self.space.snapshot_phases().items())
            if total - before.get(phase, 0.0) > 0.0
        }

    def _elaborate_legend(self, request: SynthesisRequest):
        """LEGEND source -> GENUS component (libraries cached per
        source text, so batch runs parse each description once)."""
        from repro.legend import build_library

        source = request.legend_source
        library = self._legend_libraries.get(source)
        if library is None:
            library = build_library(source, name="session-legend")
            self._legend_libraries[source] = library
        names = library.declared_generator_names()
        name = request.generator or (names[0] if names else None)
        if name is None:
            from repro.legend.errors import LegendError

            raise LegendError("LEGEND source declares no generators")
        return library.generate(name, **request.params)

    # ------------------------------------------------------------------
    # the result store
    # ------------------------------------------------------------------
    @cached_property
    def search_token(self) -> List[Any]:
        """The library and rulebase digests plus the search controls
        (filter, order name, ``max_combinations``) that both cache keys
        are digests over (:func:`repro.store.fingerprint.search_token`);
        computed once, since all of these are fixed when the session is
        built."""
        from repro.store.fingerprint import search_token

        return search_token(self)

    def fingerprint(self, target: RequestLike) -> Optional[str]:
        """The store key this session would use for ``target``, or
        ``None`` when the request is not content-addressable (netlist
        requests)."""
        from repro.store.fingerprint import session_fingerprint

        request = SynthesisRequest.coerce(target)
        return session_fingerprint(self, request)

    def _load_stored(self, fingerprint: str,
                     request: SynthesisRequest) -> Optional[SynthesisJob]:
        from repro.store.serialize import jsonable_payload, payload_to_job

        # A store failure is already a miss (repro.store.store's rule).
        payload = self.store.get(fingerprint)
        if payload is None or not jsonable_payload(payload):
            return None
        try:
            job = payload_to_job(payload, request, self)
        except (KeyError, TypeError, ValueError):
            # A malformed entry must degrade to a cache miss, never
            # break synthesis; the engine recomputes and overwrites it.
            return None
        # The store covers what is expensive -- expansion and evaluation
        # -- but a job also carries cheap frontend artifacts the payload
        # does not: the HLS result (schedule, state table, datapath
        # netlist; what the vhdl emitter renders) and the elaborated
        # LEGEND component.  A lazy loader rebuilds them on first
        # access, so a warm job is indistinguishable from a cold one
        # while the serving path (which reads neither) pays nothing.
        if request.kind == "hls":
            def _artifacts(request=request):
                from repro.hls import hls_synthesize

                return None, hls_synthesize(request.program,
                                            request.constraints)

            job._artifact_loader = _artifacts
        elif request.kind == "legend":
            def _artifacts(request=request):
                return self._elaborate_legend(request), None

            job._artifact_loader = _artifacts
        return job

    def _store_job(self, fingerprint: str, job: SynthesisJob) -> None:
        from repro.store.serialize import job_to_payload

        # A failed write counts under the store's ``errors``; a result
        # we cannot persist is still a result.
        self.store.put(fingerprint, job_to_payload(job),
                       label=job.request.describe(), body=job.json_body())

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def materialize(self, spec: ComponentSpec,
                    alt: DesignAlternative) -> DesignTree:
        return self.space.materialize(spec, alt.config)

    def describe(self) -> str:
        return (
            f"Session(library={self.library.name}, "
            f"rules={len(self.rulebase)}, filter={self.perf_filter.name}, "
            f"jobs={self.jobs_run})"
        )

    def __repr__(self) -> str:
        return self.describe()
