"""Configuration interning and pickle round trips.

The intern table guarantees one canonical instance per distinct
(area, delays, choices) value, holds entries weakly (retired
configurations are released), and is what makes equality an O(1)
identity check between interned instances.  Pickles must round-trip
``Configuration`` and ``TimingProgram`` by value so the multiprocessing
backend (and any future remote worker) can ship them.
"""

import gc
import pickle

from reference_engine import run_matrices

from repro.core.configs import Configuration, make_configuration
from repro.core.interning import CONFIGURATIONS, intern_configuration, intern_stats
from repro.core.specs import adder_spec, gate_spec


class TestInterning:
    def test_equal_values_same_object(self):
        spec = adder_spec(4)
        first = make_configuration(7, {("A", "S"): 2.5}, {spec: 1})
        second = make_configuration(7.0, {("A", "S"): 2.5}, {spec: 1})
        assert first is second
        assert first.interned_id is not None
        assert first.interned_id == second.interned_id

    def test_distinct_values_distinct_objects_and_ids(self):
        spec = adder_spec(4)
        a = make_configuration(7, {("A", "S"): 2.5}, {spec: 0})
        b = make_configuration(7, {("A", "S"): 2.5}, {spec: 1})
        assert a is not b
        assert a != b
        assert a.interned_id != b.interned_id

    def test_lazy_caches_shared_across_all_users(self):
        spec = adder_spec(4)
        a = make_configuration(9, {("A", "S"): 1.0}, {spec: 0})
        _ = a.arc_keys, a.delay_values, a.chosen_impl(spec)
        b = make_configuration(9, {("A", "S"): 1.0}, {spec: 0})
        assert b.__dict__.get("_arc_keys") is a.arc_keys

    def test_uninterned_equality_falls_back_to_fields(self):
        spec = adder_spec(4)
        raw = Configuration(5.0, ((("A", "S"), 1.0),), ((spec, 0),))
        assert raw.interned_id is None
        interned = make_configuration(5, {("A", "S"): 1.0}, {spec: 0})
        assert raw == interned and interned == raw
        assert hash(raw) == hash(interned)
        other = Configuration(5.0, ((("A", "S"), 1.0),), ((spec, 1),))
        assert raw != other

    def test_intern_configuration_canonicalizes_raw_instances(self):
        spec = adder_spec(4)
        canonical = make_configuration(11, {("A", "S"): 1.5}, {spec: 0})
        raw = Configuration(11.0, ((("A", "S"), 1.5),), ((spec, 0),))
        assert intern_configuration(raw) is canonical
        assert intern_configuration(canonical) is canonical

    def test_stats_count_hits_and_misses(self):
        spec = gate_spec("XOR")
        before = intern_stats()
        # Hold the reference: the table is weak, so a dropped result
        # would be collected before the second lookup could hit it.
        first = make_configuration(123.25, {("I0", "O"): 9.75}, {spec: 0})
        mid = intern_stats()
        assert mid["misses"] == before["misses"] + 1
        second = make_configuration(123.25, {("I0", "O"): 9.75}, {spec: 0})
        after = intern_stats()
        assert after["hits"] == mid["hits"] + 1
        assert first is second

    def test_entries_released_when_unreferenced(self):
        spec = gate_spec("NOR")
        config = make_configuration(7771.5, {("I0", "O"): 31.125}, {spec: 0})
        key = (config.area, config.delays, config.choices)
        assert key in CONFIGURATIONS._table
        del config
        gc.collect()
        assert key not in CONFIGURATIONS._table


class TestPickleRoundTrips:
    def test_configuration_same_process_returns_canonical(self):
        spec = adder_spec(8)
        config = make_configuration(42, {("A", "S"): 3.25}, {spec: 2})
        clone = pickle.loads(pickle.dumps(config))
        assert clone is config

    def test_configuration_value_round_trip(self):
        """Simulate a cross-process round trip: rebuild from the pickle
        payload with the intern table cleared, as a fresh worker
        process would."""
        spec = adder_spec(8)
        config = make_configuration(43, {("A", "S"): 3.25, ("B", "S"): 4.5},
                                    {spec: 1, gate_spec("AND"): 0})
        payload = pickle.dumps(config)
        CONFIGURATIONS.clear()
        clone = pickle.loads(payload)
        assert clone is not config
        assert clone.interned_id is not None
        assert (clone.area, clone.delays, clone.choices, clone.delay) == \
            (config.area, config.delays, config.choices, config.delay)
        assert clone == config  # uninterned-vs-interned field comparison

    def test_configuration_list_round_trip_preserves_identity_structure(self):
        spec = adder_spec(8)
        a = make_configuration(1, {("A", "S"): 1.0}, {spec: 0})
        b = make_configuration(2, {("A", "S"): 2.0}, {spec: 1})
        batch = [a, b, a]
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert clone[0] is clone[2]

    def test_timing_program_round_trip_evaluates_identically(self):
        from repro.core.design_space import DesignSpace
        from repro.core.filters import ParetoFilter
        from repro.core.library_rules import lsi_rules
        from repro.core.rulebase import standard_rulebase
        from repro.core.specs import adder_spec as mk_adder
        from repro.techlib import lsi_logic_library

        rulebase = standard_rulebase()
        rulebase.extend(lsi_rules())
        space = DesignSpace(rulebase, lsi_logic_library(), ParetoFilter())
        space.alternatives(mk_adder(8))
        node = space.nodes[mk_adder(8)]
        program = next(impl.timing_program for impl in node.impls
                       if impl.kind == "decomp" and impl.timing_program)
        assert program.kernel_count > 0  # compiled kernels travel too

        clone = pickle.loads(pickle.dumps(program))
        assert clone.slot_keys == program.slot_keys
        assert clone.module_slots == program.module_slots
        assert clone.kernel_count == program.kernel_count
        matrices = [
            {(pin_in, pin_out): 1.0 + slot * 0.5
             for pin_in in ("A", "B") for pin_out in ("S",)}
            for slot in range(len(program.slot_keys))
        ]
        assert run_matrices(clone, matrices) == \
            run_matrices(program, matrices)

    def test_timing_program_round_trip_standalone(self):
        from repro.netlist import Netlist
        from repro.netlist.ports import in_port, out_port
        from repro.netlist.timing_program import compile_timing
        from repro.core.specs import make_spec, port_signature

        netlist = Netlist("chain")
        a = netlist.add_port(in_port("A", 4))
        y = netlist.add_port(out_port("Y", 4))
        mid = netlist.add_net("mid", 4)
        gate = make_spec("GATE", 4, kind="NOT", n_inputs=1)
        netlist.add_module("u0", gate, port_signature(gate),
                           {"I0": a.ref(), "O": mid.ref()})
        netlist.add_module("u1", gate, port_signature(gate),
                           {"I0": mid.ref(), "O": y.ref()})
        program = compile_timing(netlist, slot_of=lambda inst: inst.spec)
        expected = run_matrices(program, [{("I0", "O"): 2.0}])
        clone = pickle.loads(pickle.dumps(program))
        assert run_matrices(clone, [{("I0", "O"): 2.0}]) == expected
        assert expected == {("A", "Y"): 4.0}
