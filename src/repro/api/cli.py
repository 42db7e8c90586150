"""The ``repro`` command-line interface.

Runs the full flow from the shell on top of :class:`repro.api.Session`;
every backend (library, rulebase, filter, emitter, spec shorthand) is
resolved by name through :mod:`repro.api.registry`::

    python -m repro synth --spec alu:64 --library lsi_logic --emit vhdl,report
    python -m repro synth --spec adder:16 --spec adder:32 --emit report
    python -m repro synth --legend counter.lgd --generator COUNTER \\
        --param GC_INPUT_WIDTH=8 --emit report
    python -m repro list
    python -m repro serve --port 8473
    python -m repro warm --spec alu:64 --spec adder:16
    python -m repro warm --nodes --spec alu:64
    python -m repro cache info
    python -m repro cache prune --max-mb 64
    python -m repro cache nodes info
    python -m repro serve --port 8473 --trace --access-log
    python -m repro trace tail --url http://127.0.0.1:8473 --min-ms 10
    python -m repro trace show TRACE_ID --url http://127.0.0.1:8473

Multiple ``--spec``/``--legend`` targets run as one batch through a
single session, sharing the expanded design space and every compiled
timing program (the cache-amortized serving path).  ``serve`` puts the
long-running HTTP service (:mod:`repro.serve`) in front of the same
sessions; ``warm`` prefills the persistent result store
(:mod:`repro.store`) and ``cache`` maintains it.

Unknown backend names (library, rulebase, filter, order, emitter,
spec) and bad store or node-store URLs must exit with status 2 and a
message listing the known names -- never a raw ``KeyError``
traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api import registry
from repro.api.requests import SynthesisRequest

PROG = "repro"


def _parse_param(text: str) -> Any:
    """CLI ``K=V`` values: int when possible, else bare string."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", action="append", default=[], metavar="NAME:WIDTH",
        help="component shorthand such as alu:64 or adder:16 "
             "(repeatable; see 'repro list specs')")
    parser.add_argument(
        "--legend", action="append", default=[], metavar="FILE", type=Path,
        help="LEGEND source file to elaborate and map (repeatable)")
    parser.add_argument(
        "--generator", metavar="NAME",
        help="generator name inside the LEGEND source (default: first)")
    parser.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="generator parameter for --legend (repeatable), "
             "e.g. GC_INPUT_WIDTH=8")


def _cap(text: str) -> int:
    """``--max-combinations``: an integer of at least 1, else a usage
    error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--library", default="lsi_logic", metavar="NAME",
        help="target cell library (default: lsi_logic)")
    parser.add_argument(
        "--rulebase", default=None, metavar="NAME",
        help="rulebase policy: auto (default), standard, lola")
    parser.add_argument(
        "--filter", default="pareto", metavar="NAME[:ARG]", dest="perf_filter",
        help="performance filter, e.g. pareto, tradeoff:0.05, top_k:4, "
             "keep_all (default: pareto)")
    parser.add_argument(
        "--max-combinations", type=_cap, default=None, metavar="N",
        help="cap on the per-node S1 cross product (N >= 1)")
    parser.add_argument(
        "--order", default=None, metavar="NAME",
        help="S1 enumeration order: lex (default), frontier or auto "
             "(see 'repro list orders'); frontier makes "
             "--max-combinations keep the best designs")


#: The designators ``--store`` and ``--node-store`` accept (resolved
#: by :func:`repro.api.registry.create_store`/``create_node_store``).
_CACHE_DESIGNATORS = (
    "default (the on-disk store file), memory (ephemeral), an SQLite "
    "file path, or a URL: sqlite:///abs/path.sqlite or "
    "sqlite://relative.sqlite, either with an optional "
    "?busy_timeout_ms=MS; memory:; or fault+sqlite://PATH?fail_rate=R "
    "or fault+memory:?fail_rate=R (fault injection, see "
    "repro.resilience.faults)")


def _add_store_arg(parser: argparse.ArgumentParser, default,
                   help_suffix: str = "") -> None:
    parser.add_argument(
        "--store", default=default, metavar="NAME|PATH|URL",
        help="result store: " + _CACHE_DESIGNATORS + help_suffix)


def _add_node_store_arg(parser: argparse.ArgumentParser, default,
                        help_suffix: str = "") -> None:
    parser.add_argument(
        "--node-store", default=default, metavar="NAME|PATH|URL",
        help="per-node option cache for subtree-level work sharing "
             "(may be the result store's file): " + _CACHE_DESIGNATORS
             + help_suffix)


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="S",
        help="per-request deadline in seconds (default: unbounded); "
             "a request that exceeds it gets a 504, and clients can "
             "tighten it per call with an X-Repro-Deadline-Ms header")
    parser.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive store failures before the circuit breaker "
             "opens and serving goes engine-only (default: 5)")
    parser.add_argument(
        "--breaker-reset", type=float, default=30.0, metavar="S",
        help="seconds an open breaker waits before a half-open probe "
             "(default: 30)")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="trace every request (shorthand for --trace-sample 1.0)")
    parser.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="fraction of requests to trace, 0.0-1.0 (default: 0.0 = "
             "tracing off; traced requests get an X-Repro-Trace-Id "
             "response header and land in GET /debug/traces)")
    parser.add_argument(
        "--trace-ring", type=int, default=256, metavar="N",
        help="finished spans kept in memory for /debug/traces "
             "(default: 256)")
    parser.add_argument(
        "--trace-export", default=None, metavar="PATH",
        help="also append every finished span as one JSON line to PATH")
    parser.add_argument(
        "--access-log", nargs="?", const="-", default=None, metavar="PATH",
        help="write one structured JSON line per request (endpoint, "
             "status, duration, source, trace id); with no PATH (or "
             "'-') lines go to stdout, otherwise to PATH with "
             "size-bounded rotation (see --access-log-max-mb)")
    parser.add_argument(
        "--access-log-max-mb", type=float, default=64.0, metavar="MB",
        help="rotate a file access log to PATH.1 when it would exceed "
             "MB megabytes (default: 64; 0 = never rotate)")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """History sampling + SLO flags (shared by serve and fleet)."""
    parser.add_argument(
        "--history", action="store_true",
        help="sample /metrics into bounded in-process time-series "
             "rings and serve GET /metrics/history (the data source "
             "for /debug/dashboard and 'repro top')")
    parser.add_argument(
        "--history-interval", type=float, default=5.0, metavar="S",
        help="seconds between history samples (default: 5)")
    parser.add_argument(
        "--history-retention", type=float, default=3600.0, metavar="S",
        help="seconds of history kept per series (default: 3600)")
    parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="declare an SLO, repeatable; SPEC is "
             "[NAME=]availability:TARGET:WINDOW (e.g. "
             "availability:99.9:5m) or [NAME=]latency:pQQ:THRESHOLD:"
             "WINDOW[:ENDPOINT] (e.g. latency:p99:250ms:5m); "
             "objectives are burn-rate evaluated and served at "
             "GET /slo (implies --history)")
    parser.add_argument(
        "--slo-file", default=None, metavar="PATH",
        help="load objectives from a JSON file "
             "({\"objectives\": [...]}; see README)")


def _add_server_args(parser: argparse.ArgumentParser, fleet: bool) -> None:
    """The flags ``serve`` and ``fleet`` share, in help order; the
    fleet's router/worker wording and its ``--workers`` flag are the
    only differences."""
    router = "router " if fleet else ""
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                        help=f"{router}bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help=f"{router}TCP port (default: 8473; 0 = ephemeral)"
             + ("; workers always bind ephemeral local ports" if fleet
                else ""))
    if fleet:
        parser.add_argument("--workers", type=int, default=2, metavar="N",
                            help="worker processes to spawn (default: 2)")
    _add_engine_args(parser)
    _add_store_arg(parser, default="default",
                   help_suffix=(" shared by every worker" if fleet else "")
                   + " (default: the shared on-disk store)")
    parser.add_argument("--no-store", action="store_true",
                        help="serve without any persistent store")
    _add_node_store_arg(parser, default="auto",
                        help_suffix=" (default: auto = the nodes table "
                                    "in the result store's file)")
    parser.add_argument("--no-node-store", action="store_true",
                        help="serve without the per-node option cache")
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="on SIGTERM/SIGINT, wait up to S seconds for in-flight "
             "requests before "
             + ("stopping the workers" if fleet else
                "closing the stores and exiting") + " (default: 10)")
    _add_resilience_args(parser)
    _add_trace_args(parser)
    _add_obs_args(parser)


def _trace_sample(args: argparse.Namespace) -> float:
    """--trace-sample wins; bare --trace means sample everything."""
    if args.trace_sample is not None:
        return args.trace_sample
    return 1.0 if args.trace else 0.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="DTAS functional synthesis (Dutt & Kipps, DAC'91) -- "
                    "map generic RTL components into a cell library.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    synth = sub.add_parser(
        "synth",
        help="synthesize one or more targets through a shared session",
        description="Synthesize component specs and/or LEGEND generators "
                    "into the target cell library, then render each job "
                    "through the requested emitters.",
    )
    _add_target_args(synth)
    _add_engine_args(synth)
    synth.add_argument(
        "--emit", default="report", metavar="NAMES",
        help="comma-separated emitters (default: report; "
             "see 'repro list emitters')")
    _add_store_arg(synth, default=None,
                   help_suffix=" (default: no persistence)")
    _add_node_store_arg(synth, default=None,
                        help_suffix=" (default: no node cache)")
    synth.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write emitted text to PATH instead of stdout")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived HTTP synthesis service",
        description="Serve POST /synthesize and /batch (json-emitter "
                    "schema) plus GET /healthz and /metrics.  One session "
                    "per engine configuration, identical in-flight "
                    "requests coalesced, store hits served without the "
                    "engine.  Engine flags set the service defaults; "
                    "requests may override them per call.",
    )
    _add_server_args(serve, fleet=False)

    fleet = sub.add_parser(
        "fleet",
        help="run a multi-worker serving tier (router + N serve workers)",
        description="Spawn and supervise N 'repro serve' worker processes "
                    "sharing one store, and route POST /synthesize by "
                    "consistent hashing so identical requests land on the "
                    "same worker (coalescing stays exact fleet-wide).  "
                    "POST /batch is split per item; GET /metrics "
                    "aggregates every worker plus the router's own "
                    "counters.  Crashed workers restart with backoff; "
                    "SIGTERM drains the router, then the workers.",
    )
    _add_server_args(fleet, fleet=True)
    fleet.add_argument(
        "--chaos", default=None, metavar="MODE:PERIOD",
        help="fault-injection harness: kill-worker:PERIOD SIGKILLs one "
             "ready worker (round-robin) every PERIOD seconds, "
             "exercising supervised restart and failover retries "
             "(e.g. kill-worker:8)")

    warm = sub.add_parser(
        "warm",
        help="prefill the result store with the given targets",
        description="Run targets through a store-backed session so later "
                    "processes (and the serve endpoints) answer them "
                    "without expansion or evaluation.  Exits 1 (with a "
                    "per-target summary) when any target fails.",
    )
    _add_target_args(warm)
    _add_engine_args(warm)
    _add_store_arg(warm, default="default",
                   help_suffix=" (default: the shared on-disk store)")
    warm.add_argument(
        "--nodes", action="store_true",
        help="also publish per-node option lists, so *overlapping* "
             "future requests start half-warm (see 'repro cache nodes')")
    _add_node_store_arg(warm, default=None,
                        help_suffix=" (default with --nodes: the nodes "
                                     "table in the result store's file)")

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the persistent result store",
        description="Inspect (info, list), bound (prune --max-mb), or "
                    "empty (clear) the content-addressed result store.  "
                    "'cache nodes info|list|prune|clear' maintains the "
                    "per-node option cache sharing the same file "
                    "(prune budgets are shared: --max-mb bounds result "
                    "and node payloads together).",
    )
    cache.add_argument(
        "action",
        choices=["info", "list", "show", "prune", "clear", "nodes"],
        help="what to do ('nodes' takes its own sub-action)")
    cache.add_argument(
        "fingerprint", nargs="?", default=None, metavar="ARG",
        help="show: entry to display (any unambiguous prefix); "
             "nodes: sub-action (info, list, prune, clear)")
    _add_store_arg(cache, default="default",
                   help_suffix=" (default: the shared on-disk store)")
    cache.add_argument(
        "--max-mb", type=float, default=None, metavar="MB",
        help="prune: evict least-recently-used entries until the "
             "payload total fits this many megabytes")

    trace = sub.add_parser(
        "trace",
        help="inspect recent request traces on a running server",
        description="Query GET /debug/traces on a running 'repro serve' "
                    "or 'repro fleet' instance (started with --trace or "
                    "--trace-sample).  'tail' lists recent traces one "
                    "per line; 'show TRACE_ID' renders one trace's span "
                    "tree.",
    )
    trace.add_argument(
        "action", choices=["tail", "show"],
        help="tail: list recent traces; show: render one trace")
    trace.add_argument(
        "trace_id", nargs="?", default=None, metavar="TRACE_ID",
        help="show: the trace id (from tail, a response's "
             "X-Repro-Trace-Id header, or the access log)")
    trace.add_argument(
        "--url", default="http://127.0.0.1:8473", metavar="URL",
        help="server base URL (default: http://127.0.0.1:8473)")
    trace.add_argument(
        "--min-ms", type=float, default=0.0, metavar="MS",
        help="tail: only traces at least this long (default: 0)")
    trace.add_argument(
        "--status", default=None, metavar="CODE",
        help="tail: only traces whose root finished with this status")
    trace.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="tail: maximum traces to list (default: 20)")

    top = sub.add_parser(
        "top",
        help="live ANSI terminal view of a running serving tier",
        description="Poll GET /metrics/history (and /slo) on a running "
                    "'repro serve' or 'repro fleet' started with "
                    "--history or --slo, and redraw an ANSI frame with "
                    "request-rate/p99/hit sparklines, gauges, SLO burn "
                    "states, and recent events.  --once prints a single "
                    "frame and exits (CI-friendly).",
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8473", metavar="URL",
        help="server base URL (default: http://127.0.0.1:8473)")
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between redraws (default: 2)")
    top.add_argument(
        "--window", type=float, default=300.0, metavar="S",
        help="seconds of history per sparkline (default: 300)")
    top.add_argument(
        "--once", action="store_true",
        help="render one frame and exit")
    top.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI colors (frames still render)")

    list_parser = sub.add_parser(
        "list",
        help="show the built-in backends",
        description="Show the built-in libraries, rulebases, filters, "
                    "emitters, spec shorthands, and orders.",
    )
    list_parser.add_argument(
        "what", nargs="?", default="all",
        choices=["all", "libraries", "rulebases", "filters", "emitters",
                 "specs", "orders"],
        help="which kind to show (default: all)")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _collect_requests(args: argparse.Namespace, command: str,
                      stem_labels: bool = True
                      ) -> Optional[List[SynthesisRequest]]:
    """The --spec/--legend targets as requests, or None after printing
    a usage error (the caller exits 2).

    ``stem_labels``: label LEGEND requests with the source file's stem
    (nice in synth reports).  ``warm`` turns it off: the label is part
    of the store fingerprint, and the serve layer's default label is
    the generator name -- a stem-labeled warm entry would never be hit
    by an HTTP request for the same source."""
    if not args.spec and not args.legend:
        print(f"{PROG} {command}: nothing to do -- pass --spec "
              f"and/or --legend", file=sys.stderr)
        return None
    params: Dict[str, Any] = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"{PROG} {command}: --param {item!r} is not K=V",
                  file=sys.stderr)
            return None
        params[key] = _parse_param(value)
    requests: List[SynthesisRequest] = []
    for shorthand in args.spec:
        requests.append(SynthesisRequest.from_spec(
            registry.parse_spec(shorthand), label=shorthand))
    for path in args.legend:
        requests.append(SynthesisRequest.from_legend(
            path.read_text(), generator=args.generator,
            label=path.stem if stem_labels else "", params=params))
    return requests


def _cmd_synth(args: argparse.Namespace) -> int:
    # KeyError is in every backend-resolution catch because
    # RegistryError subclasses it: an unknown name (the error lists the
    # known ones) or a rejected designator exits 2 with a message,
    # never a traceback.
    try:
        requests = _collect_requests(args, "synth")
        if requests is None:
            return 2
        emit_names = [name for name in args.emit.split(",") if name]
        for name in emit_names:
            registry.EMITTERS.get(name)  # fail fast on typos

        from repro.api.session import Session

        session = Session(
            library=args.library,
            rulebase=args.rulebase,
            perf_filter=args.perf_filter,
            max_combinations=args.max_combinations,
            order=args.order,
            store=args.store,
            node_store=args.node_store,
        )
    except (KeyError, OSError, ValueError) as error:
        print(f"{PROG} synth: {error}", file=sys.stderr)
        return 2

    from repro.core.design_space import SynthesisError
    from repro.legend.errors import LegendError

    try:
        jobs = session.map(requests)
    # ValueError covers the genus elaboration errors (GeneratorError,
    # ParamError subclass it): a bad --generator or --param must report
    # cleanly, not traceback.
    except (SynthesisError, LegendError, ValueError) as error:
        print(f"{PROG} synth: {error}", file=sys.stderr)
        return 1

    blocks: List[str] = []
    for job in jobs:
        blocks.append(job.emit(*emit_names))
    text = "\n\n".join(blocks)
    if args.output is not None:
        try:
            args.output.write_text(text + "\n")
        except OSError as error:
            print(f"{PROG} synth: cannot write {args.output}: {error}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` and ``repro fleet``: one HTTP server over the
    local service or over a worker fleet.  ``serve`` never imports
    :mod:`repro.fleet`."""
    import asyncio

    from repro.serve import (
        DEFAULT_PORT,
        ReproServer,
        SynthesisService,
        run_until_signalled,
    )

    prog = f"{PROG} {args.command}"
    if args.command == "fleet" and args.workers < 1:
        print(f"{prog}: --workers must be >= 1", file=sys.stderr)
        return 2
    store = None if args.no_store else args.store
    common = dict(
        store=store,
        node_store=None if args.no_node_store else args.node_store,
        defaults={
            "library": args.library,
            "rulebase": args.rulebase,
            "filter": args.perf_filter,
            "order": args.order,
            "max_combinations": args.max_combinations,
        },
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        trace_sample=_trace_sample(args),
        trace_ring=args.trace_ring,
        trace_export=args.trace_export,
        access_log=args.access_log,
        access_log_max_mb=args.access_log_max_mb,
    )
    errors: tuple = (KeyError, OSError, ValueError)
    try:
        if args.command == "fleet":
            from repro.fleet import FleetError, FleetService

            errors += (FleetError,)
            backend: Any = FleetService(
                workers=args.workers,
                worker_host=(args.host if args.host != "0.0.0.0"
                             else "127.0.0.1"),
                worker_drain_timeout=args.drain_timeout,
                request_deadline=args.request_timeout,
                chaos=args.chaos, **common)

            def ready_note() -> str:  # worker ports exist once started
                ports = ", ".join(str(worker.port)
                                  for worker in backend.workers)
                return (f"with {args.workers} worker(s) "
                        f"(worker ports: {ports}; store: {store})")
            closed = "workers stopped"
        else:
            backend = SynthesisService(
                request_timeout=args.request_timeout, **common)
            path = (backend.store.path if backend.store is not None
                    else "disabled")

            def ready_note() -> str:
                return f"(store: {path})"
            closed = "stores closed"
        server = ReproServer(
            backend, host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            history=args.history, history_interval=args.history_interval,
            history_retention=args.history_retention, slo=args.slo,
            slo_file=args.slo_file)
        asyncio.run(run_until_signalled(
            server, prog, ready_note, args.drain_timeout, closed))
    except errors as error:
        print(f"{prog}: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"{prog}: shutting down", file=sys.stderr)
    return 0


def _cmd_warm(args: argparse.Namespace) -> int:
    import time

    try:
        requests = _collect_requests(args, "warm", stem_labels=False)
        if requests is None:
            return 2

        store = registry.create_store(args.store)
        if store is None:
            print(f"{PROG} warm: no result store to warm", file=sys.stderr)
            return 2
        # --nodes publishes per-node option lists alongside the
        # results; without an explicit --node-store they land in the
        # same file, where prune budgets are shared.
        node_designator = args.node_store
        if node_designator is None and args.nodes:
            node_designator = store.path

        from repro.api.session import Session

        session = Session(
            library=args.library,
            rulebase=args.rulebase,
            perf_filter=args.perf_filter,
            max_combinations=args.max_combinations,
            order=args.order,
            store=store,
            node_store=node_designator,
        )
    except (KeyError, OSError, ValueError) as error:
        print(f"{PROG} warm: {error}", file=sys.stderr)
        return 2

    from repro.core.design_space import SynthesisError
    from repro.legend.errors import LegendError

    failed: List[str] = []
    for request in requests:
        start = time.perf_counter()
        try:
            job = session.synthesize(request)
        except (SynthesisError, LegendError, ValueError) as error:
            print(f"  {request.describe():<32} FAILED: {error}",
                  file=sys.stderr)
            failed.append(request.describe())
            continue
        elapsed = (time.perf_counter() - start) * 1e3
        state = "hit " if job.from_store else ("miss" if session.fingerprint(
            request) else "skip")
        print(f"  {request.describe():<32} {state}  {elapsed:8.1f} ms  "
              f"{len(job)} alternatives")
    info = session.store.info()
    print(f"store {info['path']}: {info['entries']} entries, "
          f"{info['payload_bytes'] / 1e6:.2f} MB")
    if session.node_store is not None:
        nstats = session.node_cache_stats()
        ninfo = session.node_store.info()
        print(f"node cache {ninfo['path']}: {ninfo['entries']} entries "
              f"({nstats['published']} published, {nstats['hits']} hits "
              f"this run)")
    warmed = len(requests) - len(failed)
    print(f"warmed {warmed}/{len(requests)} targets"
          + (f", {len(failed)} failed" if failed else ""))
    if failed:
        # The summary goes to stderr too: a cron/CI caller that only
        # captures stderr still sees *which* targets are cold, and the
        # nonzero exit makes the failure impossible to miss.
        print(f"{PROG} warm: {len(failed)} of {len(requests)} targets "
              f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


#: The wording of one cache kind's ``repro cache`` output: command,
#: metadata column, empty-list line, prune line, clear line.
_CACHE_TEXT = {
    "results": ("cache", "label", "(store is empty)",
                "pruned {removed} entries; {remaining} remain ({mb:.2f} MB)",
                "cleared {} entries"),
    "nodes": ("cache nodes", "spec", "(node cache is empty)",
              "pruned {removed} entries (results and nodes share the "
              "budget); {remaining} node entries remain ({mb:.2f} MB "
              "total)",
              "cleared {} node entries"),
}


def _cache_maintenance(action: str, cache, kind: str,
                       max_mb: Optional[float]) -> int:
    """``info | list | prune | clear`` on either cache kind."""
    command, column, empty, pruned, cleared = _CACHE_TEXT[kind]
    if action == "info":
        info = cache.info()
        print(f"path:     {info['path']}")
        print(f"schema:   {info['schema']}")
        print(f"entries:  {info['entries']}")
        print(f"payload:  {info['payload_bytes'] / 1e6:.2f} MB")
        print(f"hits:     {info['hits']}")
        return 0
    if action == "list":
        entries = cache.entries()
        if not entries:
            print(empty)
            return 0
        print(f"{'fingerprint':<16} {'size':>8} {'hits':>5}  {column}")
        for entry in entries:
            print(f"{entry['fingerprint'][:16]:<16} "
                  f"{entry['size_bytes']:>8} {entry['hits']:>5}  "
                  f"{entry[column]}")
        return 0
    if action == "prune":
        if max_mb is None:
            print(f"{PROG} {command} prune: pass --max-mb", file=sys.stderr)
            return 2
        try:
            result = cache.prune(max_mb)
        except ValueError as error:
            print(f"{PROG} {command} prune: {error}", file=sys.stderr)
            return 2
        print(pruned.format(removed=result["removed"],
                            remaining=result["remaining"],
                            mb=result["payload_bytes"] / 1e6))
        return 0
    print(cleared.format(cache.clear()))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    try:
        store = registry.create_store(args.store)
    except (KeyError, OSError, ValueError) as error:
        print(f"{PROG} cache: {error}", file=sys.stderr)
        return 2
    if store is None:
        print(f"{PROG} cache: no store selected", file=sys.stderr)
        return 2

    if args.action == "nodes":
        # The per-node option cache that shares the result store's file.
        action = args.fingerprint or "info"
        if action not in ("info", "list", "prune", "clear"):
            print(f"{PROG} cache nodes: unknown action {action!r} "
                  f"(expected info, list, prune, or clear)", file=sys.stderr)
            return 2
        try:
            nodes = registry.create_node_store(store.path)
        except (KeyError, OSError, ValueError) as error:
            print(f"{PROG} cache nodes: {error}", file=sys.stderr)
            return 2
        return _cache_maintenance(action, nodes, "nodes", args.max_mb)

    if args.action == "show":
        # The persisted artifacts -- label, stats, and the rendered
        # figure-3 report -- without loading any engine code.
        if not args.fingerprint:
            print(f"{PROG} cache show: pass a fingerprint prefix "
                  f"(see 'repro cache list')", file=sys.stderr)
            return 2
        matches = [entry for entry in store.entries()
                   if entry["fingerprint"].startswith(args.fingerprint)]
        if not matches:
            print(f"{PROG} cache show: no entry matches "
                  f"{args.fingerprint!r}", file=sys.stderr)
            return 2
        if len(matches) > 1:
            print(f"{PROG} cache show: {args.fingerprint!r} is ambiguous "
                  f"({len(matches)} entries)", file=sys.stderr)
            return 2
        entry = matches[0]
        payload = store.peek(entry["fingerprint"]) or {}
        print(f"fingerprint: {entry['fingerprint']}")
        print(f"label:       {entry['label']}")
        print(f"hits:        {entry['hits']}")
        print(f"size:        {entry['size_bytes']} bytes")
        timing = payload.get("timing", {})
        print(f"engine:      {payload.get('runtime_seconds', 0.0) * 1e3:.1f} "
              f"ms over {timing.get('spec_nodes', 0)} spec nodes, "
              f"{timing.get('programs_compiled', 0)} compiled programs")
        report = payload.get("report")
        if report:
            print()
            print(report)
        return 0
    return _cache_maintenance(args.action, store, "results", args.max_mb)


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace tail|show`` against a running server's
    ``/debug/traces`` (stdlib http.client; no engine imports)."""
    import http.client
    import json as json_module
    import urllib.parse as parse

    from repro.obs.trace import format_trace

    parsed = parse.urlsplit(args.url if "//" in args.url
                            else f"http://{args.url}")
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 8473

    query: Dict[str, Any] = {}
    if args.action == "show":
        if not args.trace_id:
            print(f"{PROG} trace show: pass a TRACE_ID "
                  f"(see 'repro trace tail')", file=sys.stderr)
            return 2
        query["trace_id"] = args.trace_id
        query["limit"] = 1
    else:
        if args.min_ms:
            query["min_ms"] = args.min_ms
        if args.status is not None:
            query["status"] = args.status
        query["limit"] = args.limit
    path = "/debug/traces"
    if query:
        path += "?" + parse.urlencode(query)

    try:
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        conn.close()
    except (OSError, http.client.HTTPException) as error:
        print(f"{PROG} trace: cannot reach {host}:{port}: {error}",
              file=sys.stderr)
        return 2
    if response.status != 200:
        print(f"{PROG} trace: server answered {response.status}: "
              f"{body.decode('utf-8', errors='replace')}", file=sys.stderr)
        return 2
    traces = json_module.loads(body).get("traces", [])

    if args.action == "show":
        if not traces:
            print(f"{PROG} trace show: no trace {args.trace_id!r} in the "
                  f"server's ring (it may have been evicted; raise "
                  f"--trace-ring on the server)", file=sys.stderr)
            return 1
        print(format_trace(traces[0]))
        return 0
    if not traces:
        print("(no traces recorded; start the server with --trace or "
              "--trace-sample and send a /synthesize request)")
        return 0
    for trace in traces:
        spans = trace.get("spans", [])
        print(f"{trace.get('trace_id', ''):<34} "
              f"{str(trace.get('status')):>5}  "
              f"{trace.get('duration_ms') or 0.0:10.2f} ms  "
              f"{len(spans):3d} spans  {trace.get('root') or ''}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top`` — ANSI terminal view over ``/metrics/history``."""
    from repro.obs.top import run_top

    url = args.url if "//" in args.url else f"http://{args.url}"
    return run_top(url, interval=args.interval, once=args.once,
                   window=args.window, color=not args.no_color)


def _cmd_list(args: argparse.Namespace) -> int:
    sections = {
        "libraries": registry.LIBRARIES,
        "rulebases": registry.RULEBASES,
        "filters": registry.FILTERS,
        "emitters": registry.EMITTERS,
        "specs": registry.SPECS,
        "orders": registry.ORDERS,
    }
    selected = sections if args.what == "all" else {args.what: sections[args.what]}
    blocks = []
    for title, reg in selected.items():
        lines = [f"{title}:"]
        for name in reg.names():
            description = reg.describe(name)
            lines.append(f"  {name:<16} {description}".rstrip())
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command in ("serve", "fleet"):
        return _cmd_serve(args)
    if args.command == "warm":
        return _cmd_warm(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "list":
        return _cmd_list(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
