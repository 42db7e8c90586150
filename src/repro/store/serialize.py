"""The one configuration codec, and the result payloads built on it.

Both cache tables persist ordered lists of configurations -- a node
row one spec node's options (:mod:`repro.nodestore.store`), a result
row one request's alternatives -- through :func:`encode_configs` and
:func:`decode_configs`.  A result payload (:func:`job_to_payload`)
adds what a warm process needs to answer without the engine: the
statistics and runtime the original job recorded, the rendered
Figure-3 report, and timing-program metadata.

The load path is the important one: configurations are rebuilt by
value and revived through :mod:`repro.core.interning`
(``CONFIGURATIONS.revive``), so every load of one stored value in a
process lands on one canonical instance, equal (``==``) to a freshly
computed configuration of that value.  Specs are rebuilt
through :func:`repro.core.specs.make_spec`, so choice maps key
correctly against live design-space nodes.  Every index the decoder
follows is range-checked and every choice list must be in canonical
order: a corrupt list decodes to ``None`` (a miss the caller heals by
recomputing), never to wrong configurations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.configs import Configuration
from repro.core.interning import CONFIGURATIONS
from repro.store.fingerprint import spec_token

#: Result payload format version, checked on every load: a payload of
#: another version is a miss, recomputed and overwritten.  Fingerprints
#: digest only :data:`repro.store.fingerprint.FINGERPRINT_SCHEMA`, so
#: a bump here keeps every key; bump
#: :data:`repro.store.store.STORE_SCHEMA` with it to empty an older
#: file's ``results`` table on open.  v2 added ``phases`` (so a warm
#: body stays byte-identical to the engine run's); v3 stores
#: ``alternatives`` through :func:`encode_configs`.
PAYLOAD_SCHEMA = 3


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

def _index(value: Any, bound: int) -> bool:
    """Whether ``value`` is an int position in ``[0, bound)``: Python
    slicing and negative indexing would accept anything else silently,
    decoding a corrupt list into wrong configurations."""
    return type(value) is int and 0 <= value < bound


def encode_configs(configs: Sequence[Any]) -> Dict[str, Any]:
    """The JSON block for an ordered list of configurations: ``sigs``,
    ``specs`` and ``options``.

    Three layers of redundancy come out: (1) the configurations of one
    list carry the same few delay-arc signatures, so signatures are
    dictionary-encoded and each option stores an index plus its value
    row; (2) the spec tokens the choices name repeat across options,
    so each distinct spec (by its spec id, ``Configuration.ids``) is
    spelled once in ``specs`` and choices store its position; (3) S1
    enumeration yields siblings that share long choice prefixes, so
    each option's sorted choice list is stored as (shared-prefix
    length, differing tail) against the previous option."""
    sigs: List[list] = []
    sig_index: Dict[int, int] = {}
    tokens: List[Any] = []
    spec_pos: Dict[int, int] = {}
    encoded: List[list] = []
    prev_pairs: List[list] = []
    for config in configs:
        si = sig_index.get(config.arc_id)
        if si is None:
            si = sig_index[config.arc_id] = len(sigs)
            sigs.append([list(pins) for pins in config.arc_keys])
        pairs = []
        for ident, (choice_spec, impl) in zip(config.ids, config.choices):
            pos = spec_pos.get(ident)
            if pos is None:
                pos = spec_pos[ident] = len(tokens)
                tokens.append(spec_token(choice_spec))
            pairs.append([pos, impl])
        prefix = 0
        limit = min(len(pairs), len(prev_pairs))
        while prefix < limit and pairs[prefix] == prev_pairs[prefix]:
            prefix += 1
        encoded.append([config.area, si, list(config.delay_values),
                        prefix, pairs[prefix:]])
        prev_pairs = pairs
    return {"sigs": sigs, "specs": tokens, "options": encoded}


def decode_configs(block: Any) -> Optional[List[Any]]:
    """Decode and revive an :func:`encode_configs` block (extra keys
    are ignored), or ``None`` when it fails any check.  The revived
    objects are the process-canonical instances of their values,
    counted by the intern table's ``revived`` stat."""
    if not (isinstance(block, dict)
            and isinstance(block.get("sigs"), list)
            and isinstance(block.get("specs"), list)
            and isinstance(block.get("options"), list)):
        return None
    try:
        specs = [spec_from_token(token) for token in block["specs"]]
        keys = [choice_spec.sort_key for choice_spec in specs]
        sigs = [tuple(tuple(pins) for pins in sig) for sig in block["sigs"]]
        revive = CONFIGURATIONS.revive
        configs: List[Any] = []
        prev_pairs: list = []
        for area, si, values, prefix, tail in block["options"]:
            if not (_index(si, len(sigs))
                    and _index(prefix, len(prev_pairs) + 1)):
                return None
            # Reconstruct the full sorted choice list from the delta.
            # The choices must be in the canonical, strictly increasing
            # sort_key order: a reordered list would revive as a
            # second, unequal configuration of one value.
            pairs = prev_pairs[:prefix]
            for pos, impl in tail:
                if not (_index(pos, len(specs))
                        and type(impl) is int and impl >= 0
                        and (not pairs or keys[pairs[-1][0]] < keys[pos])):
                    return None
                pairs.append((pos, impl))
            prev_pairs = pairs
            sig = sigs[si]
            if len(sig) != len(values):
                return None
            configs.append(revive(Configuration(
                float(area), tuple(zip(sig, map(float, values))),
                [(specs[pos], impl) for pos, impl in pairs])))
        return configs
    except (IndexError, KeyError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Whole jobs
# ---------------------------------------------------------------------------

def job_to_payload(job) -> Dict[str, Any]:
    """Serialize a finished :class:`~repro.api.requests.SynthesisJob`.

    Captures the request envelope (kind + final label -- LEGEND jobs
    upgrade their label during elaboration and the warm path must
    reproduce that), the root spec, the ordered alternatives, the stats
    and runtime the JSON emitter echoes, and the rendered report.  Apart
    from the wall-clock ``runtime_seconds`` and ``phases``, every field
    is a function of the fingerprint alone: nothing records what the
    producing process or its node store had evaluated before.
    """
    return {
        "schema": PAYLOAD_SCHEMA,
        "request": {"kind": job.request.kind, "label": job.request.label},
        "spec": spec_token(job.spec) if job.spec is not None else None,
        "alternatives": encode_configs(
            [alt.config for alt in job.alternatives]),
        "stats": dict(job.stats),
        "runtime_seconds": job.runtime_seconds,
        "phases": dict(job.phases),
        "report": job.report(),
    }


def payload_to_job(payload: Dict[str, Any], request, session):
    """Rebuild a SynthesisJob from a stored payload; ``ValueError``
    when its alternatives fail to decode (the session's miss: the
    engine recomputes and overwrites the entry).

    The alternatives carry revived canonical configurations and are
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
    configs = decode_configs(payload["alternatives"])
    if configs is None:
        raise ValueError("stored alternatives do not decode")
    spec = (spec_from_token(payload["spec"])
            if payload.get("spec") is not None else None)
    alternatives = [DesignAlternative(i, config, session.space, spec)
                    for i, config in enumerate(configs)]
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
        and isinstance(payload.get("alternatives"), dict)
        and isinstance(payload.get("stats"), dict)
    )
