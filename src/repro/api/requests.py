"""Typed requests and results for the session layer.

A :class:`SynthesisRequest` names *what* to synthesize -- a GENUS
:class:`~repro.core.specs.ComponentSpec`, a whole
:class:`~repro.netlist.netlist.Netlist`, LEGEND generator-description
source text, or an HLS behavioral :class:`~repro.hls.ir.Program` --
in one uniform envelope the :class:`~repro.api.session.Session`
dispatches on.  A :class:`SynthesisJob` is the corresponding result:
the surviving design alternatives plus Pareto points, Figure-3 reports,
and lazy VHDL emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.design_space import DesignTree, SynthesisError
from repro.core.specs import ComponentSpec
from repro.core.synthesizer import DesignAlternative, SynthesisResult
from repro.netlist.netlist import Netlist

#: The input forms a request can carry, in dispatch order.
REQUEST_KINDS = ("spec", "netlist", "legend", "hls")


@dataclass(frozen=True)
class SynthesisRequest:
    """One unit of synthesis work, in any of the four input languages.

    Build requests with the ``from_*`` constructors (or pass raw
    objects straight to :meth:`Session.synthesize`, which coerces them
    through :meth:`coerce`):

    - :meth:`from_spec` -- a GENUS component specification;
    - :meth:`from_netlist` -- a netlist of GENUS instances (each
      distinct module spec is mapped, sharing the design space);
    - :meth:`from_legend` -- LEGEND source text; the named generator is
      elaborated with ``params`` and its component spec is synthesized;
    - :meth:`from_hls` -- a behavioral program; high-level synthesis
      produces the GENUS datapath netlist which is then mapped.

    Requests are frozen: the service's resolution memo hands one
    request object to every repeat of a body.
    """

    kind: str
    label: str = ""
    spec: Optional[ComponentSpec] = None
    netlist: Optional[Netlist] = None
    legend_source: Optional[str] = None
    generator: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    program: Any = None
    constraints: Any = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}; expected one of "
                f"{', '.join(REQUEST_KINDS)}"
            )

    # -- constructors --------------------------------------------------
    @classmethod
    def from_spec(cls, spec: ComponentSpec, label: str = "") -> "SynthesisRequest":
        return cls(kind="spec", spec=spec, label=label or str(spec))

    @classmethod
    def from_netlist(cls, netlist: Netlist, label: str = "") -> "SynthesisRequest":
        return cls(kind="netlist", netlist=netlist,
                   label=label or getattr(netlist, "name", "netlist"))

    @classmethod
    def from_legend(
        cls,
        source: str,
        generator: Optional[str] = None,
        label: str = "",
        params: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ) -> "SynthesisRequest":
        """``params`` and keyword arguments both feed the generator;
        the explicit dict exists so parameter names that collide with
        this signature (``label``, ``generator``, ``source`` -- all
        legal LEGEND identifiers) can still be passed, e.g. by the
        serve layer relaying client JSON."""
        merged = dict(params or {})
        merged.update(kwargs)
        return cls(kind="legend", legend_source=source, generator=generator,
                   params=merged, label=label or (generator or "legend"))

    @classmethod
    def from_hls(cls, program: Any, constraints: Any = None,
                 label: str = "") -> "SynthesisRequest":
        return cls(kind="hls", program=program, constraints=constraints,
                   label=label or getattr(program, "name", "hls"))

    @classmethod
    def coerce(cls, target: Any) -> "SynthesisRequest":
        """Wrap a raw synthesis target in a request.

        Accepts an existing request (returned unchanged), a
        ``ComponentSpec``, a ``Netlist``, an HLS ``Program``, or a
        string -- multi-line strings are treated as LEGEND source,
        single-line ones as ``name:width`` spec shorthand (``alu:64``).
        """
        if isinstance(target, cls):
            return target
        if isinstance(target, ComponentSpec):
            return cls.from_spec(target)
        if isinstance(target, Netlist):
            return cls.from_netlist(target)
        from repro.hls.ir import Program

        if isinstance(target, Program):
            return cls.from_hls(target)
        if isinstance(target, str):
            # LEGEND descriptions are inherently multi-line; single-line
            # strings are always spec shorthands (so a name like
            # "pulse_generator:8" never trips the LEGEND path).
            if "\n" in target:
                return cls.from_legend(target)
            from repro.api.registry import parse_spec

            return cls.from_spec(parse_spec(target), label=target)
        raise TypeError(
            f"cannot synthesize {type(target).__name__}: expected a "
            f"SynthesisRequest, ComponentSpec, Netlist, hls Program, "
            f"LEGEND source text, or 'name:width' shorthand"
        )

    def describe(self) -> str:
        return f"{self.kind}:{self.label}"

    # -- content addressing -------------------------------------------
    def token(self) -> Optional[list]:
        """Canonical JSON-able token of *what* this request asks for:
        the root spec, the LEGEND (source digest, generator, params)
        triple, or the HLS program structure.  ``None`` for requests
        that are not content-addressable -- netlist requests (the
        caller owns and may mutate the netlist) and HLS programs with
        constructs the canonical walker does not know.  This is the
        request-side half of the result store's fingerprint; the
        session folds in the engine-side digests."""
        from repro.store.fingerprint import request_token

        return request_token(self)

    def digest(self) -> Optional[str]:
        """SHA-256 hex digest of :meth:`token` (stable across processes
        and hash seeds), or ``None`` when not content-addressable."""
        from repro.store.fingerprint import digest as _digest

        token = self.token()
        return None if token is None else _digest(token)


class SynthesisJob:
    """The result of one request: alternatives plus derived artifacts.

    Wraps the legacy :class:`~repro.core.synthesizer.SynthesisResult`
    (kept as the canonical alternatives container so existing report
    helpers keep working) and adds Pareto points, report/emitter
    dispatch, and lazy VHDL.  ``component`` is set for LEGEND requests
    (the elaborated GENUS component), ``hls`` for behavioral requests
    (the full :class:`~repro.hls.synthesize.HLSResult`).
    """

    def __init__(
        self,
        request: SynthesisRequest,
        result: SynthesisResult,
        session: Any = None,
        component: Any = None,
        hls: Any = None,
    ) -> None:
        self.request = request
        self.result = result
        self.session = session
        self._component = component
        self._hls = hls
        #: True when this job was answered from the result store
        #: without running expansion or evaluation.
        self.from_store = False
        #: Store-hit jobs get a thunk that rebuilds the cheap frontend
        #: artifacts (elaborated LEGEND component / HLS result) on
        #: first access instead of on every hit -- the serving path's
        #: JSON body reads neither.
        self._artifact_loader = None
        self._json_body: Optional[str] = None

    def _load_artifacts(self) -> None:
        loader, self._artifact_loader = self._artifact_loader, None
        if loader is not None:
            self._component, self._hls = loader()

    @property
    def component(self):
        """The elaborated GENUS component (LEGEND requests); rebuilt
        lazily on store-hit jobs."""
        if self._component is None:
            self._load_artifacts()
        return self._component

    @property
    def hls(self):
        """The full HLS result (behavioral requests); rebuilt lazily
        on store-hit jobs."""
        if self._hls is None:
            self._load_artifacts()
        return self._hls

    # -- the alternatives ---------------------------------------------
    @property
    def alternatives(self) -> List[DesignAlternative]:
        return self.result.alternatives

    @property
    def spec(self) -> Optional[ComponentSpec]:
        return self.result.spec

    @property
    def stats(self) -> Dict[str, int]:
        return self.result.stats

    @property
    def runtime_seconds(self) -> float:
        return self.result.runtime_seconds

    @property
    def phases(self) -> Dict[str, float]:
        """Per-phase engine seconds for this request (see
        :attr:`repro.core.synthesizer.SynthesisResult.phases`)."""
        return self.result.phases

    def __len__(self) -> int:
        return len(self.result)

    def __iter__(self) -> Iterator[DesignAlternative]:
        return iter(self.result.alternatives)

    def smallest(self) -> DesignAlternative:
        return self.result.smallest()

    def fastest(self) -> DesignAlternative:
        return self.result.fastest()

    def alternative(self, index: int) -> DesignAlternative:
        for alt in self.result.alternatives:
            if alt.index == index:
                return alt
        raise SynthesisError(f"no alternative #{index}")

    # -- derived artifacts --------------------------------------------
    def points(self) -> List[Tuple[float, float, float, float]]:
        """(area, delay, d_area%, d_delay%) per alternative, relative to
        the smallest design -- the quantities Figure 3 annotates."""
        from repro.core.report import figure3_points

        return figure3_points(self.result)

    def table(self) -> str:
        return self.result.table()

    def report(self, title: Optional[str] = None) -> str:
        """The Figure-3 style report block."""
        from repro.core.report import figure3_report

        return figure3_report(self.result, title or self.title())

    def title(self) -> str:
        return f"DTAS alternatives for {self.request.label}"

    def tree(self, alt: Optional[DesignAlternative] = None) -> DesignTree:
        """Materialize one alternative's hierarchical design (the
        smallest by default)."""
        return (alt or self.smallest()).tree()

    def vhdl(self, alt: Optional[DesignAlternative] = None) -> str:
        """Structural VHDL for one alternative (lazy; the smallest by
        default)."""
        from repro.vhdl import design_tree_vhdl

        return design_tree_vhdl(self.tree(alt))

    def behavioral_vhdl(self) -> str:
        """Behavioral VHDL model of the request's component spec."""
        if self.result.spec is None:
            raise SynthesisError(
                "behavioral VHDL needs a single root spec; this job "
                "synthesized a whole netlist"
            )
        from repro.vhdl import behavioral_model

        return behavioral_model(self.result.spec)

    def emit(self, *names: str) -> str:
        """Render this job through named emitters (see
        :data:`repro.api.registry.EMITTERS`), joined by blank lines."""
        from repro.api.registry import EMITTERS

        if not names:
            names = ("report",)
        return "\n\n".join(EMITTERS.create(name, self) for name in names)

    def json_body(self) -> str:
        """The ``json`` emitter's rendering, computed once per job: the
        body the result store persists and the body the serve layer
        answers with are this one string."""
        if self._json_body is None:
            from repro.api.registry import EMITTERS

            self._json_body = EMITTERS.create("json", self)
        return self._json_body

    def __repr__(self) -> str:
        return (f"SynthesisJob({self.request.describe()}: "
                f"{len(self)} alternatives)")
