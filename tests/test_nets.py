"""Unit tests for nets, slices, constants, and concatenations."""

import pytest
from hypothesis import given, strategies as st

from repro.netlist.nets import (
    Concat,
    Const,
    Net,
    NetRef,
    endpoint_bits,
    endpoint_width,
)


class TestNet:
    def test_basic(self):
        net = Net("a", 8)
        assert net.width == 8
        assert repr(net).startswith("Net")

    def test_identity_equality(self):
        assert Net("a", 4) != Net("a", 4)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Net("", 4)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Net("a", 0)

    def test_index_single_bit(self):
        net = Net("a", 8)
        ref = net[3]
        assert (ref.lsb, ref.msb, ref.width) == (3, 3, 1)

    def test_slice_half_open(self):
        net = Net("a", 8)
        ref = net[0:4]
        assert (ref.lsb, ref.msb, ref.width) == (0, 3, 4)

    def test_slice_defaults(self):
        net = Net("a", 8)
        assert net[:].width == 8
        assert net[4:].width == 4

    def test_slice_step_rejected(self):
        with pytest.raises(ValueError):
            Net("a", 8)[0:4:2]

    def test_whole_ref(self):
        net = Net("a", 5)
        assert net.ref().is_whole


class TestNetRef:
    def test_out_of_range(self):
        net = Net("a", 4)
        with pytest.raises(ValueError):
            NetRef(net, 0, 4)

    def test_inverted_bounds(self):
        net = Net("a", 4)
        with pytest.raises(ValueError):
            NetRef(net, 3, 1)

    def test_negative_lsb(self):
        net = Net("a", 4)
        with pytest.raises(ValueError):
            NetRef(net, -1, 2)

    @given(width=st.integers(1, 64), data=st.data())
    def test_any_legal_slice(self, width, data):
        net = Net("x", width)
        lsb = data.draw(st.integers(0, width - 1))
        msb = data.draw(st.integers(lsb, width - 1))
        ref = NetRef(net, lsb, msb)
        assert ref.width == msb - lsb + 1
        assert list(endpoint_bits(ref)) == [(net, b) for b in range(lsb, msb + 1)]


class TestConst:
    def test_value_fits(self):
        Const(3, 2)
        with pytest.raises(ValueError):
            Const(4, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Const(-1, 2)

    def test_bits_are_none(self):
        assert list(endpoint_bits(Const(5, 3))) == [None, None, None]


class TestConcat:
    def test_width_sums(self):
        a, b = Net("a", 3), Net("b", 2)
        cat = Concat((a.ref(), b.ref()))
        assert cat.width == 5

    def test_lsb_first_order(self):
        a, b = Net("a", 2), Net("b", 1)
        cat = Concat((a.ref(), b.ref()))
        bits = list(endpoint_bits(cat))
        assert bits == [(a, 0), (a, 1), (b, 0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Concat(())

    def test_nested(self):
        a, b = Net("a", 1), Net("b", 1)
        inner = Concat((a.ref(),))
        outer = Concat((inner, b.ref(), Const(1, 2)))
        assert outer.width == 4
        assert list(endpoint_bits(outer)) == [(a, 0), (b, 0), None, None]


def test_endpoint_width_dispatch():
    net = Net("a", 4)
    assert endpoint_width(net.ref()) == 4
    assert endpoint_width(Const(0, 2)) == 2
    assert endpoint_width(Concat((net[0], Const(1, 1)))) == 2
