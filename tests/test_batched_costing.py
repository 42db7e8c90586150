"""Batched S1 costing parity: the row evaluator, one kernel call per
arc-signature group, must be bit-identical to the per-combination
oracle ``ScalarSpace`` of ``tests/reference_engine.py`` -- same
survivor configurations (same *objects*, via interning), same order,
same emitter output -- across filters, enumeration orders, fork-worker
counts, and perturbed delay books.

Also fuzzes the kernels' generated functions against the interpretive
oracle ``reference_run`` (exact floats, every block size, pickled
kernels recompiling) and covers the pickling invariants the row path
leans on (canonical interned specs, ``ChoiceTuple`` degrading to a
plain tuple).
"""

import dataclasses
import multiprocessing
import pickle
import random
from array import array

import pytest
from reference_engine import ScalarSpace, reference_run

from repro.api import Session
from repro.core.configs import ChoiceTuple, Configuration, make_configuration
from repro.core.design_space import DesignSpace
from repro.core.filters import KeepAllFilter, ParetoFilter
from repro.core.library_rules import lsi_rules
from repro.core.rulebase import standard_rulebase
from repro.core.specs import (
    adder_spec,
    alu_spec,
    comparator_spec,
    counter_spec,
    make_spec,
)
from repro.netlist.timing_program import CLK_PIN, compile_timing
from repro.techlib import lsi_logic_library
from repro.techlib.cells import CellLibrary

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The one parallel backend, as ``last_parallel_stats`` names it.
BACKENDS = [pytest.param("process", marks=pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"))]


def _space(library=None, perf_filter=None, engine=DesignSpace,
           **kwargs) -> DesignSpace:
    rulebase = standard_rulebase()
    rulebase.extend(lsi_rules())
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_parity_with_jobs_and_emitters(jobs, backend):
    def job_for(engine=DesignSpace):
        session = Session(library="lsi_logic", perf_filter="tradeoff:0.05",
                          jobs=jobs)
        # ScalarSpace adds no state, so the oracle swaps in in place
        session.space.__class__ = engine
        job = session.synthesize(alu_spec(16))
        if jobs > 1:
            assert session.space.last_parallel_stats["backend"] == backend
        return job

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


class _SelectOnlyFilter:
    """A third-party filter without ``select_block``."""

    def __init__(self):
        self.seen = []

    def select(self, configs):
        self.seen.append([type(c) for c in configs])
        return ParetoFilter().select(configs)


@pytest.mark.parametrize("spec", [adder_spec(16), alu_spec(16)],
                         ids=["adder16", "alu16"])
def test_select_only_filter_sees_configurations(spec):
    select_only = _SelectOnlyFilter()
    got = _space(perf_filter=select_only).alternatives(spec)
    assert select_only.seen
    assert {kind for kinds in select_only.seen for kind in kinds} == {
        Configuration}
    expected = _space().alternatives(spec)
    assert _fingerprint(got) == _fingerprint(expected)
    for a, b in zip(got, expected):
        assert a is b


# ---------------------------------------------------------------------------
# the generated kernel function against the interpretive oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_pool():
    """Every (kernel, arc signature) compiled while evaluating a small
    rule catalogue -- real netlists, clocked ones (counters) among
    them -- plus each one recompiled with one slot per instance, so
    sibling instances get unequal weights and keys fed by several
    sinks or ``@clk`` sources see unequal contributions."""
    space = _space(max_combinations=200)
    for spec in (adder_spec(8), alu_spec(8), comparator_spec(8),
                 counter_spec(8)):
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
    keys = [key for kernel, _ in kernels for key in kernel.run_batch([], 0)[0]]
    # the @clk pin is split into a source and a sink half, and most
    # kernels propagate from several sources
    assert any(source == CLK_PIN for source, _ in keys)
    assert any(sink == CLK_PIN for _, sink in keys)
    assert sum(len(kernel.sources) > 1 for kernel, _ in kernels) > 1
    return kernels


def _random_matrices(rng, signature, rows):
    return [array("d", [rng.uniform(0.0, 20.0)
                        for _ in range(rows * len(arcs))])
            for arcs in signature]


@pytest.mark.parametrize("rows", [1, 2, 7, 300])
def test_generated_kernel_matches_reference_run(kernel_pool, rows):
    rng = random.Random(1000 + rows)
    for kernel, signature in kernel_pool:
        matrices = _random_matrices(rng, signature, rows)
        keys, block = kernel.run_batch(matrices, rows)
        assert len(block) == rows
        for r, got in enumerate(block):
            expected = reference_run(kernel, [
                mat[r * len(arcs):(r + 1) * len(arcs)]
                for mat, arcs in zip(matrices, signature)])
            assert keys == tuple(sorted(expected))
            assert got == [expected[key] for key in keys]  # exact floats


@pytest.mark.parametrize("rows", [0, -1])
def test_generated_kernel_empty_block(kernel_pool, rows):
    for kernel, signature in kernel_pool:
        keys, block = kernel.run_batch(
            _random_matrices(random.Random(1), signature, 1), rows)
        assert block == []
        assert keys == kernel.run_batch([], 0)[0]


def test_pickled_kernel_recompiles_to_the_same_block(kernel_pool):
    rng = random.Random(5)
    for kernel, signature in kernel_pool:
        if not any(source == CLK_PIN for source, _ in kernel.sources):
            continue
        matrices = _random_matrices(rng, signature, 7)
        compiled = kernel.run_batch(matrices, 7)
        assert kernel._compiled is not None
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._compiled is None  # the function never travels
        assert clone.run_batch(matrices, 7) == compiled
        assert clone._compiled is not None


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


def test_choice_tuple_hash_caches_and_pickles_as_tuple():
    items = make_configuration(
        4.0, {("a", "y"): 1.0}, {adder_spec(4): 0}).choices
    assert isinstance(items, ChoiceTuple)
    assert hash(items) == hash(tuple(items))
    assert items == tuple(items)
    revived = pickle.loads(pickle.dumps(items))
    assert type(revived) is tuple  # per-process hash cache never ships
    assert revived == tuple(items)
