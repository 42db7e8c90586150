"""Result payloads: configurations and jobs as JSON, and back.

The store persists everything a warm process needs to answer a request
without touching the engine: the surviving configurations (full value
-- area, delay matrix, choice map), the design-space statistics and
runtime the original job recorded, the rendered Figure-3 report, and
timing-program metadata.

The load path is the important one: configurations are rebuilt through
:mod:`repro.core.interning` (via
:func:`~repro.core.configs.revive_configuration`), so a warm-loaded
``Configuration`` is *the canonical interned instance* -- identical
(``is``) to a freshly computed equal one, with the same O(1) equality
and shared lazy caches.  Specs are rebuilt through
:func:`repro.core.specs.make_spec`, which re-freezes the JSON lists
into the canonical attribute tuples, so choice maps key correctly
against live design-space nodes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.store.fingerprint import spec_token

#: Payload format version (stored inside every payload *and* folded
#: into the fingerprint via FINGERPRINT_SCHEMA; the double check makes
#: a mixed-version store fail safe on both paths).
#: v2 added ``phases`` (the producer's per-phase engine timing, so a
#: warm body stays byte-identical to the body the engine run emitted);
#: v1 entries self-heal to a miss.
PAYLOAD_SCHEMA = 2


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def spec_from_token(token: List[Any]):
    """Rebuild a ComponentSpec from :func:`spec_token` output."""
    from repro.core.specs import make_spec

    ctype, width, attrs = token
    return make_spec(ctype, width, **{key: value for key, value in attrs})


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def config_to_jsonable(config) -> Dict[str, Any]:
    return {
        "area": config.area,
        "delays": [[list(pins), delay] for pins, delay in config.delays],
        "choices": [[spec_token(spec), impl] for spec, impl in config.choices],
    }


def config_from_jsonable(data: Dict[str, Any]):
    """Rebuild -- and re-intern -- one configuration.

    Goes through :func:`~repro.core.configs.revive_configuration`, so
    the returned object is the process-canonical interned instance: if
    an equal configuration already exists (computed fresh, unpickled
    from a worker, or loaded earlier), that exact object comes back.
    """
    from repro.core.configs import revive_configuration

    delays = {tuple(pins): delay for pins, delay in data["delays"]}
    choices = {spec_from_token(token): impl
               for token, impl in data["choices"]}
    return revive_configuration(data["area"], delays, choices)


# ---------------------------------------------------------------------------
# Whole jobs
# ---------------------------------------------------------------------------

def _timing_metadata(job, space) -> Dict[str, int]:
    """Compiled-program counts over the subgraph *this request*
    reaches.  Like the stats field (``DesignSpace.stats_for``), the
    payload must be a deterministic function of the request: a serving
    session's space accumulates nodes across jobs, and whole-space
    counts would make identical fingerprints carry different payloads
    depending on producer history."""
    if space is None:
        return {"programs_compiled": 0, "spec_nodes": 0}
    if job.spec is not None:
        roots = [job.spec]
    elif job.hls is not None:
        roots = [m.spec for m in job.hls.datapath.netlist.modules]
    else:
        roots = []
    nodes = space.reachable_nodes(roots)
    return {
        "programs_compiled": space.programs_compiled(nodes),
        "spec_nodes": len(nodes),
    }


def job_to_payload(job) -> Dict[str, Any]:
    """Serialize a finished :class:`~repro.api.requests.SynthesisJob`.

    Captures the request envelope (kind + final label -- LEGEND jobs
    upgrade their label during elaboration and the warm path must
    reproduce that), the root spec, the ordered alternatives, the stats
    and runtime the JSON emitter echoes, the rendered report, and
    timing-program metadata -- every field a deterministic function of
    the request alone.
    """
    space = job.session.space if job.session is not None else None
    return {
        "schema": PAYLOAD_SCHEMA,
        "request": {"kind": job.request.kind, "label": job.request.label},
        "spec": spec_token(job.spec) if job.spec is not None else None,
        "alternatives": [config_to_jsonable(alt.config)
                         for alt in job.alternatives],
        "stats": dict(job.stats),
        "runtime_seconds": job.runtime_seconds,
        "phases": dict(job.phases),
        "report": job.report(),
        "timing": _timing_metadata(job, space),
    }


def payload_to_job(payload: Dict[str, Any], request, session):
    """Rebuild a SynthesisJob from a stored payload.

    The alternatives carry re-interned canonical configurations and are
    bound to the session's design space: cost views, reports, and the
    JSON emitter work immediately without any engine work, while
    materialization (``tree()``/``vhdl()``) expands the space on first
    use -- expansion is deterministic, so the stored choice maps index
    the same implementation lists a fresh run would build.
    """
    from dataclasses import replace

    from repro.api.requests import SynthesisJob
    from repro.core.synthesizer import DesignAlternative, SynthesisResult

    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise ValueError(
            f"store payload schema {payload.get('schema')!r} does not match "
            f"this build's {PAYLOAD_SCHEMA}"
        )
    spec = (spec_from_token(payload["spec"])
            if payload.get("spec") is not None else None)
    alternatives = [
        DesignAlternative(i, config_from_jsonable(data), session.space, spec)
        for i, data in enumerate(payload["alternatives"])
    ]
    result = SynthesisResult(
        alternatives,
        dict(payload["stats"]),
        payload["runtime_seconds"],
        spec,
        phases=dict(payload.get("phases", {})),
    )
    stored_label = payload.get("request", {}).get("label", "")
    if stored_label and stored_label != request.label:
        request = replace(request, label=stored_label)
    job = SynthesisJob(request, result, session=session)
    job.from_store = True
    return job


def jsonable_payload(payload: Optional[Dict[str, Any]]) -> bool:
    """Cheap structural sanity check used before serving a payload."""
    return (
        isinstance(payload, dict)
        and payload.get("schema") == PAYLOAD_SCHEMA
        and isinstance(payload.get("alternatives"), list)
        and isinstance(payload.get("stats"), dict)
    )
