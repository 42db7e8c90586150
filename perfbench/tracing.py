"""Benchmark-side spans around the calls into each layer of ``repro``.

``install_engine(recorder)`` (and, in a server, ``install_server``)
replaces the entry points of each layer with wrappers that record one
span per call: ``(id, parent id, request id, name, start, end,
note)``.  Spans stay in memory; the caller writes them out when the
run ends.  Nothing under ``src/`` knows about this module.

The parent of a span is the innermost open span of the same task or
thread (a context variable).  Executor threads do not inherit the
event loop's context, so the serve wrappers hand the request's context
across by request object: ``Session.fingerprint`` runs on the loop and
records it, ``_probe_store``/``_run_job`` pick it up on the executor
thread.  The gaps between those handoffs are the request's
``serve.queue_wait`` spans (executor queue plus session lock).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Request:
    """One traced request: a numeric id, the client's id for it (from
    the ``X-Perfbench-Req`` header, or set in-process) and its HTTP
    status."""

    __slots__ = ("rid", "client", "status")

    def __init__(self, rid: int, client: str = "") -> None:
        self.rid = rid
        self.client = client
        self.status = 0


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.requests: Dict[int, Request] = {}
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        #: (open span id, Request or None) of the running task/thread.
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, None))
        #: id(SynthesisRequest) -> [parent span id, Request, handoff time]
        self.handoffs: Dict[int, List[Any]] = {}

    def new_request(self, client: str = "") -> Request:
        req = Request(next(self._rids), client)
        self.requests[req.rid] = req
        return req

    def add(self, name: str, parent: int, req: Optional[Request],
            start: float, end: float, note: float = 0) -> int:
        sid = next(self._ids)
        self.spans.append((sid, parent, req.rid if req else 0, name,
                           start, end, note))
        return sid

    def span(self, name: str, fn: Callable, args, kwargs,
             note: Optional[Callable] = None, req: Optional[Request] = None,
             parent: Optional[int] = None):
        """Run ``fn`` inside a span; ``note(args, result)`` (evaluated
        after the clock stops) attaches one number to it."""
        cur_parent, cur_req = self.current.get()
        if req is None:
            req = cur_req
        if parent is None:
            parent = cur_parent
        sid = next(self._ids)
        token = self.current.set((sid, req))
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self.current.reset(token)
            self.spans.append((sid, parent, req.rid if req else 0, name,
                               start, end,
                               note(args, result) if note else 0))

    async def aspan(self, name: str, fn: Callable, args, kwargs,
                    note: Optional[Callable] = None,
                    req: Optional[Request] = None):
        cur_parent, cur_req = self.current.get()
        if req is None:
            req = cur_req
        sid = next(self._ids)
        token = self.current.set((sid, req))
        start = perf_counter()
        result = None
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self.current.reset(token)
            self.spans.append((sid, cur_parent, req.rid if req else 0, name,
                               start, end,
                               note(args, result) if note else 0))

    def dump(self) -> Dict[str, Any]:
        return {"spans": self.spans,
                "requests": {rid: [r.client, r.status]
                             for rid, r in self.requests.items()}}


def _wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]):
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make(original))
    setattr(owner, attr, wrapper)


def _sync(rec: Recorder, name: str, note: Optional[Callable] = None):
    def make(fn):
        def wrapper(*args, **kwargs):
            return rec.span(name, fn, args, kwargs, note)
        return wrapper
    return make


def _hit(args, result) -> int:
    return 0 if result is None else 1


def _rows(args, result) -> int:
    return args[2] if len(args) > 2 else 1


def install_engine(rec: Recorder) -> None:
    """Wrap the engine, session and store layers (every process that
    synthesizes)."""
    from repro.api import session as session_mod
    from repro.core import design_space, filters
    from repro.netlist import timing_program
    from repro.nodestore import store as nodestore_mod
    from repro.store import serialize
    from repro.store import store as store_mod

    space = design_space.DesignSpace

    def unless_memoized(name: str, done: Callable[[Any, Any], bool]):
        """A span only for calls that do work: a memo hit (most calls
        of the recursive walk) returns at once and stays in its
        caller's self time instead of costing a span."""
        def make(fn):
            def wrapper(self, spec):
                if done(self, spec):
                    return fn(self, spec)
                return rec.span(name, fn, (self, spec), {})
            return wrapper
        return make

    def expanded(self, spec) -> bool:
        node = self.nodes.get(spec)
        return node is not None and node.expanded

    _wrap(space, "expand", unless_memoized("core.expand", expanded))
    _wrap(space, "configs", unless_memoized(
        "core.configs", lambda self, spec: spec in self._configs))
    _wrap(design_space, "enumerate_rows", _sync(rec, "core.enumerate"))
    for cls in (filters.KeepAllFilter, filters.ParetoFilter,
                filters.TradeoffFilter, filters.TopKFilter):
        _wrap(cls, "select", _sync(rec, "core.filter"))
        _wrap(cls, "select_block", _sync(rec, "core.filter"))
    kernel = timing_program._Kernel
    _wrap(kernel, "run", _sync(rec, "netlist.kernel", lambda a, r: 1))
    _wrap(kernel, "run_batch", _sync(rec, "netlist.kernel", _rows))

    session = session_mod.Session
    _wrap(session, "__init__", _sync(rec, "api.session"))

    def synthesize(fn):
        def wrapper(self, *args, **kwargs):
            before = self.space.combinations_costed
            return rec.span(
                "api.synthesize", fn, (self,) + args, kwargs,
                lambda a, r: self.space.combinations_costed - before)
        return wrapper

    _wrap(session, "synthesize", synthesize)

    def fingerprint(fn):
        def wrapper(self, target, *args, **kwargs):
            result = rec.span("api.fingerprint", fn, (self, target) + args,
                              kwargs)
            parent, req = rec.current.get()
            rec.handoffs[id(target)] = [parent, req, perf_counter()]
            return result
        return wrapper

    _wrap(session, "fingerprint", fingerprint)

    _wrap(store_mod.ResultStore, "get", _sync(rec, "store.get", _hit))
    _wrap(store_mod.ResultStore, "put", _sync(rec, "store.put"))
    _wrap(serialize, "payload_to_job", _sync(rec, "store.revive"))
    _wrap(serialize, "job_to_payload", _sync(rec, "store.encode"))
    nodes = nodestore_mod.NodeStore
    _wrap(nodes, "load_options", _sync(rec, "nodestore.load", _hit))
    _wrap(nodes, "save_options", _sync(rec, "nodestore.save"))


def install_server(rec: Recorder) -> None:
    """Wrap the HTTP and service layers of ``repro.serve``."""
    from repro.serve import server as server_mod

    server_cls = server_mod.ReproServer
    service = server_mod.SynthesisService

    def handle(fn):
        async def wrapper(*args, **kwargs):
            return await rec.aspan("serve.request", fn, args, kwargs,
                                   req=rec.new_request())
        return wrapper

    def read_request(fn):
        async def wrapper(*args, **kwargs):
            parsed = await rec.aspan("serve.parse", fn, args, kwargs)
            _, req = rec.current.get()
            if parsed is not None and req is not None:
                req.client = parsed[4].get("x-perfbench-req", "")
            return parsed
        return wrapper

    def response(fn):
        def wrapper(status, *args, **kwargs):
            _, req = rec.current.get()
            if req is not None:
                req.status = status
            return fn(status, *args, **kwargs)
        return wrapper

    def handed_off(name: str, done: Callable[[Any], bool]):
        """Executor-side wrapper: adopt the request's loop context,
        record the wait since the last handoff as queue time."""
        def make(fn):
            def wrapper(self, session, request, *args, **kwargs):
                entry = rec.handoffs.get(id(request))
                if entry is None:
                    return fn(self, session, request, *args, **kwargs)
                parent, req, mark = entry
                rec.add("serve.queue_wait", parent, req, mark, perf_counter())
                result = None
                try:
                    result = rec.span(name, fn,
                                      (self, session, request) + args,
                                      kwargs, req=req, parent=parent)
                    return result
                finally:
                    entry[2] = perf_counter()
                    if done(result):
                        rec.handoffs.pop(id(request), None)
            return wrapper
        return make

    _wrap(server_cls, "_handle", handle)
    _wrap(server_cls, "_read_request", read_request)
    _wrap(server_mod, "_response", response)
    _wrap(service, "_probe_store",
          handed_off("serve.probe", lambda result: result is not None))
    _wrap(service, "_run_job", handed_off("serve.engine", lambda result: True))
    _wrap(service, "_emit", _sync(rec, "api.emit"))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

#: metric -> (span name, "self" | "incl"): "self" sums each span's
#: duration minus the time its child spans cover (the right sum for
#: recursive calls, whose children are the same layer), "incl" sums
#: whole durations.
TIMED = {
    "core.expand_ms": ("core.expand", "self"),
    "core.enumerate_ms": ("core.enumerate", "incl"),
    "core.assemble_ms": ("core.configs", "self"),
    "core.filter_ms": ("core.filter", "self"),
    "netlist.kernel_ms": ("netlist.kernel", "incl"),
    "api.session_ms": ("api.session", "incl"),
    "api.synthesize_ms": ("api.synthesize", "self"),
    "api.fingerprint_ms": ("api.fingerprint", "incl"),
    "api.emit_ms": ("api.emit", "incl"),
    "store.get_ms": ("store.get", "incl"),
    "store.revive_ms": ("store.revive", "incl"),
    "store.put_ms": ("store.put", "incl"),
    "store.encode_ms": ("store.encode", "incl"),
    "nodestore.load_ms": ("nodestore.load", "incl"),
    "nodestore.save_ms": ("nodestore.save", "incl"),
    "serve.parse_ms": ("serve.parse", "incl"),
    "serve.queue_wait_ms": ("serve.queue_wait", "incl"),
    "serve.probe_ms": ("serve.probe", "incl"),
    "serve.engine_ms": ("serve.engine", "incl"),
    "serve.request_ms": ("serve.request", "incl"),
}

#: The span that covers a whole request on the system's side; its self
#: time is the request time no layer span accounts for.
ROOTS = ("serve.request", "explore.request")


def summarize(spans: List[Tuple], rids: set) -> Dict[str, Dict[str, float]]:
    """Per-layer totals over the requests in ``rids``.

    Returns ``{metric: {"total": ms or count, "count": spans}}`` for
    every timed metric plus the counted ones (``netlist.rows``,
    ``core.combinations``, hit counts) and ``unattributed_ms``."""
    children: Dict[int, float] = defaultdict(float)
    for sid, parent, rid, name, start, end, note in spans:
        if parent and rid in rids:
            children[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    notes: Dict[str, float] = defaultdict(float)
    for sid, parent, rid, name, start, end, note in spans:
        if rid not in rids:
            continue
        duration = end - start
        own = duration - children.get(sid, 0.0)
        totals[name + "|incl"] += duration
        totals[name + "|self"] += own
        counts[name] += 1
        notes[name] += note
    out: Dict[str, Dict[str, float]] = {}
    for metric, (name, mode) in TIMED.items():
        out[metric] = {"total": 1000.0 * totals[name + "|" + mode],
                       "count": counts[name]}
    out["unattributed_ms"] = {
        "total": 1000.0 * sum(totals[r + "|self"] for r in ROOTS),
        "count": sum(counts[r] for r in ROOTS)}
    out["netlist.rows"] = {"total": notes["netlist.kernel"],
                           "count": counts["netlist.kernel"]}
    out["core.combinations"] = {"total": notes["api.synthesize"],
                                "count": counts["api.synthesize"]}
    for name in ("store.get", "nodestore.load"):
        out[name + ".hits"] = {"total": notes[name], "count": counts[name]}
    return out


def request_durations(spans: List[Tuple], name: str) -> Dict[int, float]:
    """rid -> duration (s) of the request's ``name`` span."""
    return {rid: end - start for _, _, rid, n, start, end, _ in spans
            if n == name}
