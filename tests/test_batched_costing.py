"""Batched S1 costing parity: the row evaluator, one kernel call per
arc-signature group, must be bit-identical to the per-combination
oracle ``ScalarSpace`` of ``tests/reference_engine.py`` -- same
survivor configurations (same *objects*, via interning), same order,
same emitter output -- across filters, enumeration orders and
perturbed delay books.

Also fuzzes the kernels' generated functions against the interpretive
oracle ``reference_run`` and a left-fold area sum (exact floats, every
block size) and covers the invariants the
row path leans on (canonical interned specs, canonical merged choice
items).
"""

import dataclasses
import pickle
import random
from collections import Counter
from functools import reduce
from operator import add

import pytest
from reference_engine import ScalarSpace, reference_run

from repro.api import Session
from repro.core.configs import (
    make_configuration,
    merge_choices,
)
from repro.core.design_space import DesignSpace
from repro.core.filters import KeepAllFilter, ParetoFilter
from repro.core.library_rules import lsi_rules
from repro.core.rulebase import standard_rulebase
from repro.core.specs import (
    adder_spec,
    alu_spec,
    comparator_spec,
    counter_spec,
    gate_spec,
    make_spec,
)
from repro.netlist.timing_program import CLK_PIN, compile_timing
from repro.techlib import lsi_logic_library
from repro.techlib.cells import CellLibrary

def _space(library=None, perf_filter=None, engine=DesignSpace,
           order=None, **kwargs) -> DesignSpace:
    """A space over the LSI rulebase; ``order=None`` keeps the
    engine's default order."""
    rulebase = standard_rulebase()
    rulebase.extend(lsi_rules())
    if order is not None:
        kwargs["order"] = order
    return engine(rulebase, library or lsi_logic_library(),
                  perf_filter or ParetoFilter(), **kwargs)


def _perturbed_library(seed: int) -> CellLibrary:
    """A delay-book variant: every cell's delays and area scaled by a
    seeded random factor.  Exercises arc values the checked-in book
    never produces, so the parity fuzz is not just replaying the one
    blessed workload."""
    rng = random.Random(seed)
    cells = []
    for cell in lsi_logic_library(fresh=True):
        factor = rng.uniform(0.5, 1.8)
        cells.append(dataclasses.replace(
            cell,
            area=round(cell.area * rng.uniform(0.6, 1.5), 1),
            delays=tuple((pins, round(delay * factor, 2))
                         for pins, delay in cell.delays),
        ))
    return CellLibrary(f"perturbed-{seed}", cells)


def _fingerprint(options):
    return [(c.area, c.delay, c.delays, c.choices) for c in options]


# ---------------------------------------------------------------------------
# parity fuzz
# ---------------------------------------------------------------------------

#: Per delay-book seed, the (filter, order, combination cap) it runs:
#: keep-all and Pareto, under the frontier, lex and default orders.
#: Keep-all without a cap on a perturbed book can explode; the cap is
#: always finite so the fuzz stays a test, not a benchmark.
FUZZ_DRAWS = {
    7: (KeepAllFilter, "frontier", 40),
    23: (ParetoFilter, "lex", 40),
    91: (KeepAllFilter, None, 40),
}


@pytest.mark.parametrize("seed", sorted(FUZZ_DRAWS))
def test_batched_parity_fuzz_perturbed_delay_books(seed):
    spec = adder_spec(8)
    library = _perturbed_library(seed)
    perf_filter, order, cap = FUZZ_DRAWS[seed]
    scalar = _space(library, perf_filter(), engine=ScalarSpace, order=order,
                    max_combinations=cap).alternatives(spec)
    batched = _space(library, perf_filter(), order=order,
                     max_combinations=cap).alternatives(spec)
    assert _fingerprint(scalar) == _fingerprint(batched)
    for a, b in zip(scalar, batched):
        assert a is b  # interning: bit-identical means same object


@pytest.mark.parametrize("order", [None, "lex", "frontier", "auto"])
def test_batched_parity_every_order(order):
    spec = adder_spec(8)
    scalar = _space(perf_filter=KeepAllFilter(), engine=ScalarSpace,
                    order=order, max_combinations=300).alternatives(spec)
    assert len(scalar) > 0
    batched = _space(perf_filter=KeepAllFilter(), order=order,
                     max_combinations=300).alternatives(spec)
    assert _fingerprint(scalar) == _fingerprint(batched)


def test_batched_parity_with_emitters():
    def job_for(engine=DesignSpace):
        session = Session(library="lsi_logic", perf_filter="tradeoff:0.05")
        # ScalarSpace adds no state, so the oracle swaps in in place
        session.space.__class__ = engine
        return session.synthesize(alu_spec(16))

    import json as json_module
    import re

    strip_runtime = re.compile(r"in \d+\.\d+ s")
    scalar = job_for(engine=ScalarSpace)
    batched = job_for()
    assert _fingerprint([a.config for a in scalar.result.alternatives]) \
        == _fingerprint([a.config for a in batched.result.alternatives])
    assert strip_runtime.sub("", scalar.emit("report")) == \
        strip_runtime.sub("", batched.emit("report"))
    bodies = []
    for job in (scalar, batched):
        payload = json_module.loads(job.emit("json"))
        payload.pop("runtime_seconds", None)  # wall clock, never parity
        payload.pop("phases", None)           # wall clock too
        bodies.append(payload)
    assert bodies[0] == bodies[1]


def test_combinations_costed_counter_matches_scalar():
    spec = comparator_spec(16)
    scalar = _space(perf_filter=KeepAllFilter(), engine=ScalarSpace,
                    max_combinations=200)
    scalar.alternatives(spec)
    assert scalar.combinations_costed > 0
    batched = _space(perf_filter=KeepAllFilter(), max_combinations=200)
    batched.alternatives(spec)
    assert batched.combinations_costed == scalar.combinations_costed


# ---------------------------------------------------------------------------
# configurations only for S2 survivors
# ---------------------------------------------------------------------------

def test_configurations_built_for_s2_survivors_only():
    """Costed rows reach the filter as cost records; only the cell
    bindings and the rows the filter keeps cost an intern lookup."""
    from repro.core.interning import intern_stats

    space = _space()
    before = intern_stats()
    space.alternatives(adder_spec(16))
    after = intern_stats()
    lookups = (after["hits"] + after["misses"]
               - before["hits"] - before["misses"])
    cells = sum(1 for node in space.nodes.values()
                for impl in node.impls if impl.kind == "cell")
    selected = sum(len(options) for options in space._configs.values())
    assert space.combinations_costed > selected
    assert 0 < lookups <= cells + selected


# ---------------------------------------------------------------------------
# the generated kernel function against the interpretive oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_pool():
    """Every (kernel, arc signature) compiled while evaluating a small
    rule catalogue -- real netlists, clocked ones (counters) among
    them, and width-16 ripple and bitslice decompositions whose many
    instances share one slot, so value numbering merges their
    arrivals -- plus each one recompiled with one slot per instance, so
    sibling instances get unequal weights and keys fed by several
    sinks or ``@clk`` sources see unequal contributions."""
    space = _space(max_combinations=200)
    for spec in (adder_spec(8), alu_spec(8), comparator_spec(8),
                 counter_spec(8), adder_spec(16), gate_spec("XOR", 2, 16)):
        space.alternatives(spec)
    pool = {}
    for node in space.nodes.values():
        for impl in node.impls:
            program = impl.timing_program
            if program is None:
                continue
            per_instance = compile_timing(impl.netlist)
            for signature, kernel in program._kernels.items():
                pool[id(kernel)] = (kernel, signature)
                spread = tuple(signature[slot]
                               for slot in program.module_slots)
                pool[(id(kernel), "instance")] = (
                    per_instance.kernel(spread), spread)
    kernels = list(pool.values())
    keys = [key for kernel, _ in kernels for key in kernel.keys]
    # the @clk pin is split into a source and a sink half, and most
    # kernels propagate from several sources
    assert any(source == CLK_PIN for source, _ in keys)
    assert any(sink == CLK_PIN for _, sink in keys)
    assert sum(len(kernel.sources) > 1 for kernel, _ in kernels) > 1
    # width-16 decompositions with every instance in one slot
    assert any(max(Counter(kernel.module_slots).values(), default=0) >= 16
               for kernel, _ in kernels)
    return kernels


class _Option:
    """A stand-in chosen configuration: all a kernel reads of one."""

    __slots__ = ("area", "delay_values")

    def __init__(self, area, delay_values):
        self.area = area
        self.delay_values = delay_values


#: Areas whose sum depends on the order of addition: a left fold over
#: (1e16, 1.0, 1.0) is 1e16, over (1.0, 1.0, 1e16) it is 1e16 + 2, and
#: compensated summation (``sum`` on Python >= 3.12) gives the exact
#: 1e16 + 2 in either order.
ORDER_SENSITIVE_AREAS = (1e16, 1.0, -1e16, 3.0)

#: Delay weights for tied rows: few values, so slots carry equal
#: weights and maxima tie.
TIED_WEIGHTS = (0.0, 1.5, 4.0)


def _weights(rng, arcs, mode, shared):
    if mode == "uniform":
        return tuple(rng.uniform(0.0, 20.0) for _ in arcs)
    if mode == "tied":
        return tuple(rng.choice(TIED_WEIGHTS) for _ in arcs)
    return (shared,) * len(arcs)  # every weight of the row equal


def _random_rows(rng, signature, rows):
    """Rows of stand-in configurations: half with uniform weights, a
    quarter drawing every weight from :data:`TIED_WEIGHTS`, a quarter
    with one weight for every arc of every slot."""
    out = []
    for _ in range(rows):
        mode = rng.choice(("uniform", "uniform", "tied", "equal"))
        shared = rng.uniform(0.0, 20.0)
        out.append(tuple(
            _Option(rng.choice(ORDER_SENSITIVE_AREAS)
                    if rng.random() < 0.75 else rng.uniform(0.0, 50.0),
                    _weights(rng, arcs, mode, shared))
            for arcs in signature))
    return out


def _expected_cost(kernel, row):
    """The oracle's (area, delay, values) of one row."""
    delays = reference_run(kernel, [option.delay_values for option in row])
    values = tuple(delays[key] for key in kernel.keys)
    assert kernel.keys == tuple(sorted(delays))
    area = reduce(add, (row[slot].area for slot in kernel.module_slots), 0.0)
    return area, max(values) if values else 0.0, values


@pytest.mark.parametrize("rows", [1, 2, 7, 300])
def test_generated_kernel_matches_reference_run(kernel_pool, rows):
    rng = random.Random(1000 + rows)
    order_sensitive = tied = 0
    for kernel, signature in kernel_pool:
        chosen_rows = _random_rows(rng, signature, rows)
        costs = kernel.run_batch(chosen_rows, rows)
        assert len(costs) == rows
        for row, got in zip(chosen_rows, costs):
            assert got == _expected_cost(kernel, row)  # exact floats
            areas = [row[slot].area for slot in kernel.module_slots]
            if sum(reversed(areas)) != got[0]:
                order_sensitive += 1
            if len(set(got[2])) < len(got[2]):
                tied += 1
    # the draws do reach rows where another addition order differs,
    # and rows where distinct keys tie
    assert order_sensitive > 0
    assert tied > 0


def test_generated_kernel_no_keys_costs_delay_zero():
    """A netlist with no output reachable from an input still costs its
    area; its delay is 0.0, as ``max`` over no values defaults to."""
    from repro.netlist import Netlist
    from repro.netlist.ports import in_port, out_port
    from repro.core.specs import make_spec, port_signature

    netlist = Netlist("cut")
    a = netlist.add_port(in_port("A", 1))
    y = netlist.add_port(out_port("Y", 1))
    gate = make_spec("GATE", 1, kind="NOT", n_inputs=1)
    sink = netlist.add_net("sink", 1)
    netlist.add_module("u0", gate, port_signature(gate),
                       {"I0": a.ref(), "O": sink.ref()})
    netlist.add_module("u1", gate, port_signature(gate),
                       {"I0": sink.ref(), "O": y.ref()})
    kernel = compile_timing(netlist).kernel(((), ()))
    assert kernel.keys == ()
    rows = [(_Option(1e16, ()), _Option(1.0, ()))]
    assert kernel.run_batch(rows, 1) == [(1e16, 0.0, ())]


@pytest.mark.parametrize("rows", [0, -1])
def test_generated_kernel_empty_block(kernel_pool, rows):
    for kernel, signature in kernel_pool:
        keys = kernel.keys
        assert kernel.run_batch(
            _random_rows(random.Random(1), signature, 1), rows) == []
        assert kernel.keys == keys


# ---------------------------------------------------------------------------
# pickling invariants under interning
# ---------------------------------------------------------------------------

def test_spec_pickle_round_trip_is_canonical():
    spec = adder_spec(8)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone is spec
    # an equal spec built from scratch pickles to the same canonical
    # instance too (the intern table, not pickle memoization)
    fresh = make_spec(spec.ctype, spec.width, **dict(spec.attrs))
    assert pickle.loads(pickle.dumps(fresh)) is spec


def test_merge_choices_returns_canonical_sorted_pairs():
    """A row's merged choice items are exactly the choices
    :func:`make_configuration` normalizes the same map to: a plain
    tuple of (spec, impl) pairs sorted by spec sort key."""
    a, b, c, own = (adder_spec(4), alu_spec(4), comparator_spec(4),
                    counter_spec(4))
    first = make_configuration(1.0, {("A", "S"): 1.0}, {c: 1, a: 0})
    second = make_configuration(2.0, {("A", "S"): 2.0}, {b: 2, a: 0})
    items = merge_choices([first, second], ((own, 3),))
    assert type(items) is tuple
    assert items == make_configuration(
        0.0, {}, {a: 0, b: 2, c: 1, own: 3}).choices
    assert list(items) == sorted(items, key=lambda kv: kv[0].sort_key)
    assert pickle.loads(pickle.dumps(items)) == items
