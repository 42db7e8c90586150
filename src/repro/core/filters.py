"""Performance filters -- DTAS search control, principle S2.

From the paper (section 5): "we apply performance filters to eliminate
all but the 'best' alternative implementations of each component
specification in the design hierarchy", and (section 6) "the
performance filter used in this example accepts all design alternatives
that make favorable tradeoffs between area (in equivalent NAND gates)
and delay (in nanoseconds)".

A filter maps a list of :class:`~repro.core.configs.Configuration` to
the retained subset.  Filters are applied at *every specification node*
of the design space, which is what keeps the cross-product of module
alternatives from exploding (the paper's 16-bit adder drops from
hundreds of thousands of designs to ten).

The four filters here are the only ones: sessions, the CLI and the
service select them by designator (``pareto``, ``tradeoff:0.05``,
``top_k:4``, ``keep_all``) through :data:`repro.api.registry.FILTERS`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Protocol, Sequence

from repro.core.configs import Configuration


class PerformanceFilter(Protocol):
    """What the design space and the cache keys need of a filter.

    ``name`` and the scalar attributes make the filter's cache-key
    token (:func:`repro.store.fingerprint.filter_token`).  The design
    space calls ``select_block`` once per evaluated node with
    configurations mixed with :class:`~repro.core.configs.CostRecord`
    objects, which carry only ``area`` and ``delay`` of the
    filter-facing fields, so it must select on those two alone; the
    design space turns its survivors into configurations.  Each
    built-in aliases it to ``select``.

    A filter must keep a lone candidate: the design space does not
    call it for a node with one candidate."""

    name: str

    def select(self, configs: Sequence[Configuration]) -> List[Configuration]:
        """Return the retained configurations, sorted by (area, delay)."""
        ...

    def select_block(self, configs: Sequence) -> List:
        """``select`` over configurations and cost records alike."""
        ...


_area_delay = attrgetter("area", "delay")


def _sorted(configs: Iterable[Configuration]) -> List[Configuration]:
    """(area, delay)-sorted copy; ``sorted`` is stable, so ties in both
    coordinates keep their input (enumeration) order."""
    return sorted(configs, key=_area_delay)


def pareto_frontier(sorted_configs: Sequence[Configuration]) -> List[Configuration]:
    """Frontier of an already (area, delay)-sorted configuration list.

    Shared by every frontier-based filter so the sort happens exactly
    once per ``select`` call.  The result is itself sorted by
    (area, delay): area strictly increases and delay strictly decreases
    along the frontier.
    """
    frontier: List[Configuration] = []
    best_delay = float("inf")
    for config in sorted_configs:
        if config.delay < best_delay - 1e-12:
            frontier.append(config)
            best_delay = config.delay
    return frontier


class KeepAllFilter:
    """No pruning (used by the ablation benchmarks; expect blow-up)."""

    name = "keep-all"

    def select(self, configs: Sequence[Configuration]) -> List[Configuration]:
        return _sorted(configs)

    select_block = select


class ParetoFilter:
    """Keep the area/delay Pareto frontier.

    A configuration survives unless some other configuration is at
    least as good in both area and delay and strictly better in one.
    Ties on both axes keep the first representative only (they are
    interchangeable for downstream composition).
    """

    name = "pareto"

    def select(self, configs: Sequence[Configuration]) -> List[Configuration]:
        return pareto_frontier(_sorted(configs))

    select_block = select


class TradeoffFilter:
    """Pareto frontier thinned to *favorable* tradeoffs.

    Walking the frontier from the smallest design upward in area, a
    configuration is kept only when it reduces delay by at least
    ``min_delay_gain`` (fractional) relative to the last kept one.  The
    smallest and the fastest designs are always kept.  This mirrors the
    paper's Figure-3 filter, which retains five designs spanning
    +34 % area / -81 % delay.
    """

    name = "tradeoff"

    def __init__(self, min_delay_gain: float = 0.05) -> None:
        if not 0.0 <= min_delay_gain < 1.0:
            raise ValueError("min_delay_gain must be in [0, 1)")
        self.min_delay_gain = min_delay_gain

    def select(self, configs: Sequence[Configuration]) -> List[Configuration]:
        return self._thin(pareto_frontier(_sorted(configs)))

    select_block = select

    def _thin(self, frontier: List[Configuration]) -> List[Configuration]:
        if len(frontier) <= 2:
            return frontier
        kept = [frontier[0]]
        fastest = min(frontier, key=lambda c: c.delay)
        for config in frontier[1:]:
            last = kept[-1]
            if last.delay <= 0:
                break
            gain = (last.delay - config.delay) / last.delay
            if gain >= self.min_delay_gain or config is fastest:
                kept.append(config)
        if fastest not in kept:
            kept.append(fastest)
        # ``kept`` is a subsequence of the frontier (plus possibly the
        # fastest, i.e. largest-area, point appended last), so it is
        # already in (area, delay) order -- no re-sort needed.
        return kept


class TopKFilter:
    """Keep at most ``k`` Pareto configurations, preferring the extremes
    and then the largest delay gaps (a budgeted variant used in the
    ablation experiments)."""

    name = "top-k"

    def __init__(self, k: int = 8) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def select(self, configs: Sequence[Configuration]) -> List[Configuration]:
        return self._top(pareto_frontier(_sorted(configs)))

    select_block = select

    def _top(self, frontier: List[Configuration]) -> List[Configuration]:
        if len(frontier) <= self.k:
            return frontier
        kept = {0, len(frontier) - 1}
        # Greedily add the points with the largest delay drop from their
        # cheaper neighbor, preserving the spread of the frontier.
        gaps = sorted(
            range(1, len(frontier) - 1),
            key=lambda i: frontier[i - 1].delay - frontier[i].delay,
            reverse=True,
        )
        for index in gaps:
            if len(kept) >= self.k:
                break
            kept.add(index)
        return [frontier[i] for i in sorted(kept)]
