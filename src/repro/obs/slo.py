"""Declarative SLOs evaluated as multi-window burn rates over a
:class:`~repro.obs.timeseries.MetricsHistory`.

An objective declares a target over a window -- "99.9% of traffic
succeeds over 5 minutes" or "99% of /synthesize requests finish under
250 ms over 5 minutes".  The engine turns each into the standard
error-budget arithmetic:

* ``budget = 1 - target/100`` -- the fraction of events allowed to be
  bad over the window;
* ``burn = bad_fraction / budget`` -- how many times faster than
  sustainable the budget is being spent (1.0 = exactly on budget);
* two windows are consulted -- the **slow** window is the objective's
  own, the **fast** window is ``window/6`` (floored at two sampling
  intervals) -- and the effective burn is their **minimum**: paging
  requires the burn to be high *recently* (fast) **and** sustained
  (slow), the same AND-of-windows rule SRE burn-rate alerts use, so a
  single bad scrape cannot page and a long-running incident cannot
  hide behind an old quiet hour.

States are ``ok`` / ``warn`` / ``page`` with hysteresis: entering a
state uses the configured threshold, leaving it requires dropping
below ``0.9x`` that threshold, so a burn sitting exactly on the line
does not flap.  Transitions are recorded as events in the history
ring and (when a tracer is live) as force-sampled trace events --
`/debug/traces` then shows *when* the SLO turned alongside the
requests that turned it.

Objectives come from ``--slo`` flag specs or a JSON file::

    availability:99.9:5m             # 99.9% non-5xx over 5 minutes
    latency:p99:250ms:5m             # p99 of /synthesize under 250 ms
    slow=latency:p95:2s:10m:/batch   # named, explicit endpoint

    {"objectives": [{"name": "avail", "kind": "availability",
                     "target": 99.9, "window": "5m"}]}

Everything is stdlib-only and fake-clock testable through the
history's injected clock.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Objective",
    "SLOEngine",
    "SLOError",
    "parse_objective",
    "parse_duration",
    "load_objectives",
    "STATE_ORDER",
    "DEFAULT_WARN_BURN",
    "DEFAULT_PAGE_BURN",
]

#: Severity order for the worst-of reduction in /healthz.
STATE_ORDER = ("ok", "warn", "page")

#: Default burn-rate thresholds: the classic 5%-of-budget-in-an-hour
#: page (14.4x) and a 6x early warning.
DEFAULT_WARN_BURN = 6.0
DEFAULT_PAGE_BURN = 14.4

#: Leaving a state requires the burn to drop below ``enter * 0.9``.
HYSTERESIS = 0.9

_DURATION_PATTERN = re.compile(r"^(\d+(?:\.\d+)?)(ms|s|m|h|d)?$")
_DURATION_SCALE = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0,
                   "d": 86400.0, None: 1.0}


class SLOError(ValueError):
    """A malformed objective spec or file."""


def parse_duration(text: str) -> float:
    """``"250ms"`` / ``"5m"`` / ``"30"`` -> seconds (bare numbers are
    seconds)."""
    match = _DURATION_PATTERN.match(str(text).strip())
    if not match:
        raise SLOError(f"bad duration {text!r} (want e.g. 30s, 5m, 250ms)")
    return float(match.group(1)) * _DURATION_SCALE[match.group(2)]


class Objective:
    """One declarative objective.  ``kind`` is ``availability`` (bad =
    5xx response) or ``latency`` (bad = request over ``threshold_ms``
    on ``endpoint``); ``target`` is the good-fraction percentage (a
    ``latency:p99`` spec *is* target 99.0)."""

    def __init__(self, name: str, kind: str, target: float,
                 window_seconds: float, endpoint: str = "/synthesize",
                 threshold_ms: Optional[float] = None,
                 warn_burn: float = DEFAULT_WARN_BURN,
                 page_burn: float = DEFAULT_PAGE_BURN) -> None:
        if kind not in ("availability", "latency"):
            raise SLOError(f"unknown SLO kind {kind!r}")
        if not 0.0 < target < 100.0:
            raise SLOError(f"target must be in (0, 100), got {target}")
        if window_seconds <= 0:
            raise SLOError(f"window must be positive, got {window_seconds}")
        if kind == "latency" and (threshold_ms is None or threshold_ms <= 0):
            raise SLOError("latency objectives need a positive threshold")
        if not 0.0 < warn_burn <= page_burn:
            raise SLOError(
                f"need 0 < warn_burn <= page_burn, got {warn_burn}"
                f"/{page_burn}")
        self.name = name
        self.kind = kind
        self.target = float(target)
        self.window_seconds = float(window_seconds)
        self.endpoint = endpoint
        self.threshold_ms = (float(threshold_ms)
                             if threshold_ms is not None else None)
        self.warn_burn = float(warn_burn)
        self.page_burn = float(page_burn)

    @property
    def budget(self) -> float:
        return 1.0 - self.target / 100.0

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name, "kind": self.kind, "target": self.target,
            "window_seconds": self.window_seconds,
            "warn_burn": self.warn_burn, "page_burn": self.page_burn,
        }
        if self.kind == "latency":
            out["endpoint"] = self.endpoint
            out["threshold_ms"] = self.threshold_ms
        return out


def parse_objective(spec: str) -> Objective:
    """One ``--slo`` flag value -> :class:`Objective`.

    Grammar (``NAME=`` prefix optional)::

        [NAME=]availability:TARGET:WINDOW
        [NAME=]latency:pQQ:THRESHOLD:WINDOW[:ENDPOINT]
    """
    text = spec.strip()
    name = None
    if "=" in text.split(":", 1)[0]:
        name, _, text = text.partition("=")
        name = name.strip()
        text = text.strip()
    parts = text.split(":")
    kind = parts[0].strip().lower() if parts else ""
    try:
        if kind == "availability":
            if len(parts) != 3:
                raise SLOError(
                    f"availability spec wants availability:TARGET:WINDOW, "
                    f"got {spec!r}")
            target = float(parts[1])
            window = parse_duration(parts[2])
            return Objective(name or f"availability-{parts[1]}",
                             "availability", target, window)
        if kind == "latency":
            if len(parts) not in (4, 5) or not parts[1].lower().startswith(
                    "p"):
                raise SLOError(
                    f"latency spec wants latency:pQQ:THRESHOLD:WINDOW"
                    f"[:ENDPOINT], got {spec!r}")
            target = float(parts[1][1:])
            threshold_ms = parse_duration(parts[2]) * 1000.0
            window = parse_duration(parts[3])
            endpoint = parts[4] if len(parts) == 5 else "/synthesize"
            if endpoint and not endpoint.startswith("/"):
                endpoint = "/" + endpoint
            return Objective(
                name or f"latency-{parts[1].lower()}-{parts[2]}",
                "latency", target, window, endpoint=endpoint,
                threshold_ms=threshold_ms)
    except SLOError:
        raise
    except (TypeError, ValueError) as error:
        raise SLOError(f"bad SLO spec {spec!r}: {error}")
    raise SLOError(
        f"unknown SLO kind in {spec!r}; want availability:... or "
        f"latency:...")


def _objective_from_dict(entry: Dict[str, Any]) -> Objective:
    if not isinstance(entry, dict):
        raise SLOError(f"objective entries must be objects, got {entry!r}")
    kind = entry.get("kind", "availability")
    target = entry.get("target")
    quantile = entry.get("quantile")
    if target is None and isinstance(quantile, str) and \
            quantile.lower().startswith("p"):
        target = float(quantile[1:])
    if target is None:
        raise SLOError(f"objective needs a target: {entry!r}")
    window = entry.get("window", entry.get("window_seconds"))
    if window is None:
        raise SLOError(f"objective needs a window: {entry!r}")
    window_seconds = (float(window) if isinstance(window, (int, float))
                      else parse_duration(window))
    threshold = entry.get("threshold_ms")
    if threshold is None and entry.get("threshold") is not None:
        threshold = parse_duration(str(entry["threshold"])) * 1000.0
    return Objective(
        entry.get("name") or f"{kind}-{target}",
        kind, float(target), window_seconds,
        endpoint=entry.get("endpoint", "/synthesize"),
        threshold_ms=threshold,
        warn_burn=float(entry.get("warn_burn", DEFAULT_WARN_BURN)),
        page_burn=float(entry.get("page_burn", DEFAULT_PAGE_BURN)))


def load_objectives(specs: Optional[Sequence[str]] = None,
                    path: Optional[str] = None) -> List[Objective]:
    """Objectives from ``--slo`` flag specs plus an optional JSON file
    (``{"objectives": [...]}`` or a bare list), de-duplicated by
    name (later wins)."""
    objectives: List[Objective] = []
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as error:
            raise SLOError(f"cannot read SLO file {path}: {error}")
        except ValueError as error:
            raise SLOError(f"{path}: not valid JSON: {error}")
        entries = data.get("objectives") if isinstance(data, dict) else data
        if not isinstance(entries, list):
            raise SLOError(
                f"{path}: want a list or {{\"objectives\": [...]}}")
        objectives.extend(_objective_from_dict(entry) for entry in entries)
    for spec in specs or ():
        objectives.append(parse_objective(spec))
    by_name: Dict[str, Objective] = {}
    for objective in objectives:
        by_name[objective.name] = objective
    return list(by_name.values())


class _ObjectiveState:
    def __init__(self) -> None:
        self.state = "ok"
        self.transitions = 0
        self.last_transition: Optional[Dict[str, Any]] = None
        self.burn_fast = 0.0
        self.burn_slow = 0.0
        self.bad_fraction = 0.0
        self.events_total = 0.0


class SLOEngine:
    """Evaluates objectives against a history; owns the per-objective
    state machines.  ``evaluate`` is called once per sampling tick by
    the :class:`~repro.obs.timeseries.HistorySampler` (and lazily by
    ``payload`` so `/slo` never serves stale state)."""

    def __init__(self, history: Any, objectives: Sequence[Objective],
                 tracer: Optional[Any] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.history = history
        self.objectives = list(objectives)
        self.tracer = tracer
        self.clock = clock or history.clock
        self._states = {obj.name: _ObjectiveState()
                        for obj in self.objectives}
        self.evaluated_at: Optional[float] = None

    # -- measurement ---------------------------------------------------
    def fast_window(self, objective: Objective) -> float:
        return max(2.0 * self.history.interval,
                   objective.window_seconds / 6.0)

    def _bad_fraction(self, objective: Objective, window: float,
                      now: float) -> tuple:
        """``(bad_fraction, total_events)`` over one trailing window."""
        history = self.history
        if objective.kind == "availability":
            # traffic_by_status counts only the real serving endpoints
            # (scrapes and dashboards do not dilute the denominator).
            total = history.counter_delta("traffic:total", window, now=now)
            bad = history.counter_delta("traffic:5xx", window, now=now)
        else:
            counts, _ = history.hist_delta(
                objective.endpoint, window, now=now)
            edges = history.hist_edges(objective.endpoint)
            total = float(sum(counts))
            threshold_s = (objective.threshold_ms or 0.0) / 1000.0
            good = 0.0
            for i, edge in enumerate(edges):
                if edge <= threshold_s and i < len(counts):
                    good += counts[i]
            bad = max(0.0, total - good)
        if total <= 0:
            return 0.0, 0.0
        return bad / total, total

    # -- state machine -------------------------------------------------
    def _next_state(self, objective: Objective, current: str,
                    burn: float) -> str:
        target = ("page" if burn >= objective.page_burn else
                  "warn" if burn >= objective.warn_burn else "ok")
        if STATE_ORDER.index(target) >= STATE_ORDER.index(current):
            return target
        # Demotion needs to clear the hysteresis exit threshold of
        # every state being left, one level at a time is fine here
        # because thresholds are ordered.
        state = current
        if state == "page" and burn < objective.page_burn * HYSTERESIS:
            state = "warn"
        if state == "warn" and burn < objective.warn_burn * HYSTERESIS:
            state = "ok"
        return state

    def evaluate(self, now: Optional[float] = None) -> Dict[str, str]:
        """One tick: recompute burns, advance state machines, record
        transitions.  Returns ``{objective: state}``."""
        now = self.clock() if now is None else now
        self.evaluated_at = now
        out: Dict[str, str] = {}
        for objective in self.objectives:
            state = self._states[objective.name]
            fast = self.fast_window(objective)
            frac_fast, _ = self._bad_fraction(objective, fast, now)
            frac_slow, total = self._bad_fraction(
                objective, objective.window_seconds, now)
            budget = objective.budget
            state.burn_fast = frac_fast / budget if budget > 0 else 0.0
            state.burn_slow = frac_slow / budget if budget > 0 else 0.0
            state.bad_fraction = frac_slow
            state.events_total = total
            # AND of windows: page only when the burn is bad *now*
            # (fast) and has been bad long enough to matter (slow).
            burn = min(state.burn_fast, state.burn_slow)
            new = self._next_state(objective, state.state, burn)
            if new != state.state:
                self._record_transition(objective, state, new, burn, now)
            out[objective.name] = state.state
        return out

    def _record_transition(self, objective: Objective,
                           state: _ObjectiveState, new: str,
                           burn: float, now: float) -> None:
        previous = state.state
        state.state = new
        state.transitions += 1
        record = {
            "objective": objective.name, "from": previous, "to": new,
            "burn": round(burn, 4), "burn_fast": round(state.burn_fast, 4),
            "burn_slow": round(state.burn_slow, 4),
        }
        state.last_transition = dict(record, ts=now)
        self.history.add_event("slo_transition", now=now, **record)
        tracer = self.tracer
        if tracer is not None and getattr(tracer, "enabled", False):
            # Force-sampled: an SLO turning is always worth a span,
            # whatever the request sample rate.
            span = tracer.start_trace(
                f"slo {objective.name}", force=True)
            span.set(**record)
            span.finish(new)

    # -- rendering -----------------------------------------------------
    def overall_state(self) -> str:
        worst = "ok"
        for state in self._states.values():
            if STATE_ORDER.index(state.state) > STATE_ORDER.index(worst):
                worst = state.state
        return worst

    def payload(self, now: Optional[float] = None,
                evaluate: bool = True) -> Dict[str, Any]:
        """The ``GET /slo`` body (evaluates first by default, so a
        poll between sampler ticks is never stale)."""
        if evaluate:
            self.evaluate(now)
        objectives = []
        for objective in self.objectives:
            state = self._states[objective.name]
            entry = objective.describe()
            entry.update({
                "state": state.state,
                "burn_fast": state.burn_fast,
                "burn_slow": state.burn_slow,
                "burn": min(state.burn_fast, state.burn_slow),
                "fast_window_seconds": self.fast_window(objective),
                "bad_fraction": state.bad_fraction,
                "budget": objective.budget,
                "events_in_window": state.events_total,
                "transitions": state.transitions,
                "last_transition": state.last_transition,
            })
            objectives.append(entry)
        return {
            "overall": self.overall_state(),
            "evaluated_at": self.evaluated_at,
            "objectives": objectives,
        }

    def metrics_section(self) -> Dict[str, Any]:
        """The compact form embedded in the metrics payload for the
        Prometheus exposition (no evaluation here -- the exposition
        must render what the last tick saw)."""
        return {
            "overall": self.overall_state(),
            "objectives": [
                {
                    "name": objective.name,
                    "state": self._states[objective.name].state,
                    "burn_fast": self._states[objective.name].burn_fast,
                    "burn_slow": self._states[objective.name].burn_slow,
                    "transitions":
                        self._states[objective.name].transitions,
                }
                for objective in self.objectives
            ],
        }
