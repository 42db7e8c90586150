"""Configuration interning on the revive edge, and pickle round trips.

The engine builds configurations by plain construction; the intern
table only sees values arriving from outside the process (store loads
and unpickling).  It guarantees one canonical instance per distinct
revived (area, delays, choices) value and holds entries weakly
(retired configurations are released).  Pickles round-trip a
``Configuration`` by value and land on the receiving process's
canonical instance.
"""

import gc
import pickle
import weakref

from repro.core.configs import Configuration, make_configuration
from repro.core.interning import CONFIGURATIONS, intern_stats
from repro.core.specs import adder_spec, gate_spec

revive = CONFIGURATIONS.revive


class TestInterning:
    def test_equal_values_same_object(self):
        spec = adder_spec(4)
        built = make_configuration(7, {("A", "S"): 2.5}, {spec: 1})
        again = make_configuration(7.0, {("A", "S"): 2.5}, {spec: 1})
        assert built == again and built is not again  # plain construction
        first = revive(built)
        assert first is built
        assert revive(again) is first

    def test_distinct_values_distinct_objects_and_ids(self):
        spec = adder_spec(4)
        a = revive(make_configuration(7, {("A", "S"): 2.5}, {spec: 0}))
        b = revive(make_configuration(7, {("A", "S"): 2.5}, {spec: 1}))
        assert a is not b
        assert a != b
        assert a.ids == b.ids and a.id_choices != b.id_choices

    def test_lazy_caches_shared_across_all_users(self):
        spec = adder_spec(4)
        a = revive(make_configuration(9, {("A", "S"): 1.0}, {spec: 0}))
        _ = a.delays, a.id_choices, a.chosen_impl(spec)
        b = revive(make_configuration(9, {("A", "S"): 1.0}, {spec: 0}))
        assert b.__dict__.get("delays") is a.delays

    def test_uninterned_equality_falls_back_to_fields(self):
        spec = adder_spec(4)
        raw = Configuration(5.0, ((("A", "S"), 1.0),), ((spec, 0),))
        interned = revive(make_configuration(5, {("A", "S"): 1.0}, {spec: 0}))
        assert raw is not interned
        assert raw == interned and interned == raw
        assert hash(raw) == hash(interned)
        other = Configuration(5.0, ((("A", "S"), 1.0),), ((spec, 1),))
        assert raw != other

    def test_stats_count_hits_and_misses(self):
        spec = gate_spec("XOR")
        before = intern_stats()
        # Plain construction never touches the table.
        built = make_configuration(123.25, {("I0", "O"): 9.75}, {spec: 0})
        assert intern_stats() == before
        # Hold the reference: the table is weak, so a dropped result
        # would be collected before the second lookup could hit it.
        first = revive(built)
        mid = intern_stats()
        assert mid["misses"] == before["misses"] + 1
        second = revive(
            make_configuration(123.25, {("I0", "O"): 9.75}, {spec: 0}))
        after = intern_stats()
        assert after["hits"] == mid["hits"] + 1
        assert after["revived"] == before["revived"] + 2
        assert first is second

    def test_entries_released_when_unreferenced(self):
        spec = gate_spec("NOR")
        gc.collect()
        size = len(CONFIGURATIONS)
        config = revive(
            make_configuration(7771.5, {("I0", "O"): 31.125}, {spec: 0}))
        assert len(CONFIGURATIONS) == size + 1
        ref = weakref.ref(config)
        del config
        gc.collect()
        assert ref() is None
        assert len(CONFIGURATIONS) == size


class TestPickleRoundTrips:
    def test_configuration_same_process_returns_canonical(self):
        spec = adder_spec(8)
        config = make_configuration(42, {("A", "S"): 3.25}, {spec: 2})
        payload = pickle.dumps(config)
        clone = pickle.loads(payload)
        assert clone == config and hash(clone) == hash(config)
        assert pickle.loads(payload) is clone

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
        assert (clone.area, clone.delays, clone.choices, clone.delay) == \
            (config.area, config.delays, config.choices, config.delay)
        assert clone == config

    def test_configuration_list_round_trip_preserves_identity_structure(self):
        spec = adder_spec(8)
        a = make_configuration(1, {("A", "S"): 1.0}, {spec: 0})
        b = make_configuration(2, {("A", "S"): 2.0}, {spec: 1})
        batch = [a, b, a]
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert clone[0] is clone[2]
