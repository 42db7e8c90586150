"""Batched S1 costing parity: the row evaluator, at every chunk size
(``DesignSpace(batch=N)``, ``1`` included), must be bit-identical to
the per-combination oracle ``ScalarSpace`` of
``tests/reference_engine.py`` -- same survivor configurations (same
*objects*, via interning), same order, same emitter output -- across
filters, enumeration orders, worker counts/backends, and perturbed
delay books.

Also covers the kernel-level ``run_batch`` contract (stdlib vs numpy vs
per-row ``run``, chunked blocks) and the pickling invariants the row
path leans on (canonical interned specs, ``ChoiceTuple`` degrading to a
plain tuple).
"""

import dataclasses
import multiprocessing
import pickle
import random

import pytest
from reference_engine import ScalarSpace

from repro.api import Session
from repro.core.configs import ChoiceTuple, make_configuration
from repro.core.design_space import DEFAULT_BATCH, DesignSpace
from repro.core.filters import (
    KeepAllFilter,
    ParetoFilter,
    TopKFilter,
    TradeoffFilter,
)
from repro.core.library_rules import lsi_rules
from repro.core.rulebase import standard_rulebase
from repro.core.specs import adder_spec, alu_spec, comparator_spec, make_spec
from repro.netlist import timing_program as tp
from repro.techlib import lsi_logic_library
from repro.techlib.cells import CellLibrary

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

BACKENDS = ["thread"] + (["process"] if HAS_FORK else [])


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

@pytest.mark.parametrize("seed", [7, 23, 91])
def test_batched_parity_fuzz_perturbed_delay_books(seed):
    spec = adder_spec(8)
    rng = random.Random(seed * 1000 + 1)
    library = _perturbed_library(seed)
    perf_filter, batch, order = (
        rng.choice([KeepAllFilter, ParetoFilter, TradeoffFilter,
                    lambda: TopKFilter(5)])(),
        rng.choice([1, 2, 17, DEFAULT_BATCH]),
        rng.choice([None, "lex", "frontier", "auto"]),
    )
    # keep-all without a cap on a perturbed book can explode; the cap
    # is always finite so the fuzz stays a test, not a benchmark
    cap = rng.choice([40, 500])
    scalar = _space(library, perf_filter, engine=ScalarSpace, order=order,
                    max_combinations=cap).alternatives(spec)
    batched = _space(library, type(perf_filter)()
                     if not isinstance(perf_filter, TopKFilter)
                     else TopKFilter(5),
                     batch=batch, order=order,
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
    for batch in (1, DEFAULT_BATCH):
        batched = _space(perf_filter=KeepAllFilter(), batch=batch,
                         order=order, max_combinations=300).alternatives(spec)
        assert _fingerprint(scalar) == _fingerprint(batched)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_parity_with_jobs_and_emitters(jobs, backend):
    def job_for(batch, engine=DesignSpace):
        session = Session(library="lsi_logic", perf_filter="tradeoff:0.05",
                          jobs=jobs, parallel_backend=backend, batch=batch)
        # ScalarSpace adds no state, so the oracle swaps in in place
        session.space.__class__ = engine
        return session.synthesize(alu_spec(16))

    import json as json_module
    import re

    strip_runtime = re.compile(r"in \d+\.\d+ s")
    scalar = job_for(None, engine=ScalarSpace)
    for batched in (job_for(1), job_for(DEFAULT_BATCH)):
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
    for batch in (1, 32):
        batched = _space(perf_filter=KeepAllFilter(), batch=batch,
                         max_combinations=200)
        batched.alternatives(spec)
        assert batched.combinations_costed == scalar.combinations_costed


# ---------------------------------------------------------------------------
# kernel-level run_batch
# ---------------------------------------------------------------------------

def _compiled_node_kernel():
    """One real compiled kernel plus a block of its live weight rows,
    pulled from an evaluated node of the adder space."""
    from array import array

    space = _space(perf_filter=KeepAllFilter(), max_combinations=200)
    spec = adder_spec(8)
    space.alternatives(spec)
    node = space.nodes[spec]
    impl = next(i for i in node.impls if i.timing_program is not None)
    program = impl.timing_program
    # One slot per *distinct* module spec -- the same slotting
    # _decomp_configs evaluates with (instances of one spec share).
    distinct = list(dict.fromkeys(m.spec for m in impl.netlist.modules))
    option_lists = [space.alternatives(sub) for sub in distinct]
    combos = []
    for first in option_lists[0][:4]:
        row = [first] + [options[0] for options in option_lists[1:]]
        combos.append(row)
    signature = tuple(c.arc_keys for c in combos[0])
    kernel = program.kernel(signature)
    matrices = []
    for slot in range(len(signature)):
        mat = array("d")
        for row in combos:
            mat.extend(row[slot].delay_values)
        matrices.append(mat)
    return kernel, signature, matrices, combos


def test_run_batch_matches_per_row_run_stdlib_and_numpy(monkeypatch):
    kernel, signature, matrices, combos = _compiled_node_kernel()
    keys, block = kernel.run_batch(matrices, len(combos))
    per_row = [kernel.run([row[s].delay_values
                           for s in range(len(signature))])
               for row in combos]
    for got, expected in zip(block, per_row):
        assert list(zip(keys, got)) == list(expected.items()) \
            or dict(zip(keys, got)) == dict(expected)
    if tp._np is not None:
        monkeypatch.setattr(tp, "_np", None)
        keys_py, block_py = kernel.run_batch(matrices, len(combos))
        assert keys_py == keys
        assert block_py == block  # bit-identical, not approximately


def test_run_batch_chunked_block_is_identical(monkeypatch):
    kernel, signature, matrices, combos = _compiled_node_kernel()
    keys, whole = kernel.run_batch(matrices, len(combos))
    monkeypatch.setattr(tp, "_BATCH_ELEMENTS", 1)  # force chunk size 1
    keys_chunked, chunked = kernel.run_batch(matrices, len(combos))
    assert keys_chunked == keys
    assert chunked == whole


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
