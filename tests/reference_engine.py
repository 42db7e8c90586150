"""Reference engines the parity tests compare the production engine to.

The production design space has one S1 costing path:
:func:`repro.core.configs.enumerate_rows` enumerates the capped rows and
``DesignSpace._evaluate_combinations`` costs them in blocks through
``_Kernel.run_batch``, which calls the kernel's generated function.
This module keeps independent oracles for it, none of which production
code imports:

- :func:`reference_run` -- the interpretive longest-path sweep over a
  kernel's topological edge list, one row at a time.  It is the oracle
  for the generated function.
- :class:`ScalarSpace` -- the per-combination engine: a streaming
  cross product (:func:`iter_compatible`), an own-choice merge after
  it, one :func:`reference_run` per combination, and the filters'
  ``select``.  It is the oracle for enumeration order and the
  combination cap.
- :class:`ReferenceSpace` -- the seed algorithm: a materializing cross
  product (:func:`reference_combine`) and one ``port_delay_matrix``
  graph build per combination.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core import configs
from repro.core.configs import (
    Choice,
    Configuration,
    make_configuration,
    resolve_order,
)
from repro.core.design_space import DesignSpace
from repro.core.specs import ComponentSpec
from repro.netlist.timing import port_delay_matrix


def merge_choices(
    parts: Iterable[Mapping[ComponentSpec, int]]
) -> Optional[Dict[ComponentSpec, int]]:
    """Merge choice maps from sibling modules.

    Returns ``None`` when two parts pick different implementations for
    the same specification -- the combination is rejected, enforcing S1.
    """
    merged: Dict[ComponentSpec, int] = {}
    for part in parts:
        for spec, impl in part.items():
            existing = merged.get(spec)
            if existing is None:
                merged[spec] = impl
            elif existing != impl:
                return None
    return merged


def iter_compatible(
    option_lists,
    limit: Optional[int] = None,
    order=None,
) -> Iterator[Tuple[Tuple[Configuration, ...], Dict[ComponentSpec, int]]]:
    """Stream the S1-consistent cross product of per-spec options.

    Yields ``(chosen configurations, merged choice map)`` in nested-loop
    order, pruning conflicting prefixes as early as possible; ``limit``
    stops the enumeration after that many combinations.  The yielded
    map is reused between iterations; copy it if it must outlive the
    loop body (:func:`combine_compatible` does).
    """
    if limit is not None and limit <= 0:
        return
    count = len(option_lists)
    lists = list(option_lists)
    order_fn = resolve_order(order)
    if order_fn is not None:
        if getattr(order_fn, "limit_aware", False):
            lists = [order_fn(options, limit) for options in lists]
        else:
            lists = [order_fn(options) for options in lists]

    merged: Dict[ComponentSpec, int] = {}
    chosen: List[Optional[Configuration]] = [None] * count
    emitted = 0

    def walk(depth: int):
        nonlocal emitted
        if depth == count:
            yield tuple(chosen), merged
            emitted += 1
            return
        for config in lists[depth]:
            chosen[depth] = config
            added: List[ComponentSpec] = []
            consistent = True
            for spec, impl in config.choices:
                existing = merged.get(spec)
                if existing is None:
                    merged[spec] = impl
                    added.append(spec)
                elif existing != impl:
                    consistent = False
                    break
            if consistent:
                yield from walk(depth + 1)
            for spec in added:
                del merged[spec]
            if limit is not None and emitted >= limit:
                return

    yield from walk(0)


def combine_compatible(option_lists, limit: Optional[int] = None,
                       order=None):
    """Materialized form of :func:`iter_compatible`; each result owns
    its choice map."""
    return [(chosen, dict(merged))
            for chosen, merged in iter_compatible(option_lists, limit=limit,
                                                  order=order)]


def reference_combine(option_lists):
    """The seed's materializing cross product, in nested-loop order."""
    results = [((), {})]
    for options in option_lists:
        extended = []
        for chosen, merged in results:
            for option in options:
                combined = merge_choices([merged, option.choice_map()])
                if combined is None:
                    continue
                extended.append((chosen + (option,), combined))
        results = extended
        if not results:
            break
    return results


def row_choices(chosen: Tuple[Configuration, ...],
                merged: Mapping[ComponentSpec, int],
                own_choice: Optional[Mapping[ComponentSpec, int]] = None
                ) -> Optional[Tuple[Choice, ...]]:
    """The canonical choice items the row ``(chosen, merged)`` must get
    (:func:`row_items`): ``merged`` plus the own entries, sorted by spec
    sort key, or ``None`` on an own-choice conflict."""
    choices = dict(merged)
    for spec, impl in (own_choice or {}).items():
        if choices.setdefault(spec, impl) != impl:
            return None
    return tuple(sorted(choices.items(), key=lambda kv: kv[0].sort_key))


def row_items(rows, own_choice: Optional[Mapping[ComponentSpec, int]] = None
              ) -> List[Tuple[Tuple[Configuration, ...],
                              Optional[Tuple[Choice, ...]]]]:
    """Rows of :func:`repro.core.configs.enumerate_rows` in the form
    :func:`row_choices` gives: ``(chosen, merged choice items)``, with
    ``None`` items for a row that failed the own-choice check.  The
    items come from :func:`repro.core.configs.merge_choices`, which
    builds them for S2 survivors in production."""
    own = tuple(own_choice.items()) if own_choice else ()
    return [(chosen, configs.merge_choices(chosen, own) if ok else None)
            for chosen, ok in rows]


def reference_run(kernel, values) -> Dict[Tuple[str, str], float]:
    """Longest-path delays of ``kernel`` for one set of per-slot
    weights (``values[slot][index]``): an interpretive sweep over the
    kernel's whole topological edge list per source."""
    neg = float("-inf")
    weights = [
        0.0 if slot < 0 else values[slot][index]
        for slot, index in kernel.edge_ref
    ]
    edge_u, edge_v = kernel.edge_u, kernel.edge_v
    result: Dict[Tuple[str, str], float] = {}
    for source_name, src in kernel.sources:
        dist = [neg] * kernel.n_nodes
        dist[src] = 0.0
        for u, v, w in zip(edge_u, edge_v, weights):
            du = dist[u]
            if du != neg:
                t = du + w
                if t > dist[v]:
                    dist[v] = t
        for nid, label in kernel.labeled:
            if nid == src:
                continue
            value = dist[nid]
            if value != neg:
                key = (source_name, label)
                prev = result.get(key)
                if prev is None or value > prev:
                    result[key] = value
    return result


def run_matrices(program, matrices, run=reference_run):
    """Delay matrix of ``program`` for one delay-matrix mapping per
    slot: ``run(kernel, values)`` (default :func:`reference_run`) on
    the kernel of the mappings' arc signature."""
    items = [tuple(sorted(matrix.items())) for matrix in matrices]
    kernel = program.kernel(tuple(tuple(k for k, _ in it) for it in items))
    return run(kernel, [tuple(v for _, v in it) for it in items])


class ScalarSpace(DesignSpace):
    """The per-combination S1 costing loop and ``select`` filtering."""

    def _select(self, candidates):
        return self.perf_filter.select(candidates)

    def _evaluate_combinations(self, program, option_lists, own_choice):
        results = []
        for chosen, merged in iter_compatible(
            option_lists,
            limit=self.max_combinations,
            order=self.order,
        ):
            choices = dict(merged)
            if own_choice is not None:
                conflict = False
                for own_spec, own_impl in own_choice.items():
                    existing = choices.get(own_spec)
                    if existing is not None and existing != own_impl:
                        conflict = True
                        break
                    choices[own_spec] = own_impl
                if conflict:
                    continue
            area = 0
            for slot in program.module_slots:
                area += chosen[slot].area
            delays = reference_run(
                program.kernel(tuple(c.arc_keys for c in chosen)),
                [c.delay_values for c in chosen],
            )
            results.append(make_configuration(area, delays, choices))
        self.combinations_costed += len(results)
        return results


class ReferenceSpace(DesignSpace):
    """The seed evaluation algorithm (pre-compiled-timing)."""

    def _decomp_configs(self, spec, impl):
        netlist = impl.netlist
        distinct_specs = []
        for module in netlist.modules:
            if module.spec not in distinct_specs:
                distinct_specs.append(module.spec)
        option_lists = []
        for sub in distinct_specs:
            options = self.configs(sub)
            if not options:
                return []
            option_lists.append(options)

        combos = reference_combine(option_lists)
        if len(combos) > self.max_combinations:
            combos = combos[: self.max_combinations]

        results = []
        for chosen, merged in combos:
            by_spec = dict(zip(distinct_specs, chosen))
            own = merge_choices([merged, {spec: impl.index}])
            if own is None:
                continue
            area = sum(by_spec[m.spec].area for m in netlist.modules)
            delays = port_delay_matrix(
                netlist, lambda inst: by_spec[inst.spec].delay_matrix()
            )
            results.append(make_configuration(area, delays, own))
        return results
