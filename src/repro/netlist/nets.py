"""Nets and connection endpoints.

A *net* is a named bundle of wires.  Module pins and netlist ports are
connected to *endpoints*, which are one of:

- :class:`NetRef` -- a contiguous bit-slice of a net (possibly the whole
  net),
- :class:`Concat` -- a concatenation of endpoints (stored LSB-first, so
  ``Concat((a, b))`` has ``a`` in the low bits),
- :class:`Const` -- a constant value, used to tie unused control pins.

Bit-slicing and concatenation are what let DTAS decomposition rules wire
a 16-bit adder out of four 4-bit adders without inserting explicit
split/merge pseudo-components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union


@dataclass(eq=False)
class Net:
    """A named bundle of ``width`` wires inside one netlist.

    Nets use identity equality: two nets with the same name in different
    netlists are different wires.
    """

    name: str
    width: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("net name must be non-empty")
        if self.width < 1:
            raise ValueError(f"net {self.name!r}: width must be >= 1, got {self.width}")

    def __getitem__(self, index: Union[int, slice]) -> "NetRef":
        """Slice the net.  ``net[3]`` is bit 3; ``net[0:4]`` is bits 0..3
        (Python half-open convention on the high end)."""
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise ValueError("net slices must have step 1")
            lsb = 0 if index.start is None else index.start
            stop = self.width if index.stop is None else index.stop
            return NetRef(self, lsb, stop - 1)
        return NetRef(self, index, index)

    def ref(self) -> "NetRef":
        """Reference to the whole net."""
        return NetRef(self, 0, self.width - 1)

    def __repr__(self) -> str:
        return f"Net({self.name!r}, width={self.width})"


@dataclass(frozen=True)
class NetRef:
    """A contiguous slice ``[msb:lsb]`` of a net (inclusive bounds)."""

    net: Net
    lsb: int
    msb: int

    def __post_init__(self) -> None:
        if self.lsb < 0 or self.msb < self.lsb:
            raise ValueError(f"bad slice [{self.msb}:{self.lsb}] of {self.net.name}")
        if self.msb >= self.net.width:
            raise ValueError(
                f"slice [{self.msb}:{self.lsb}] exceeds net {self.net.name!r} "
                f"of width {self.net.width}"
            )

    @property
    def width(self) -> int:
        return self.msb - self.lsb + 1

    @property
    def is_whole(self) -> bool:
        return self.lsb == 0 and self.msb == self.net.width - 1

    def __repr__(self) -> str:
        if self.is_whole:
            return f"NetRef({self.net.name})"
        return f"NetRef({self.net.name}[{self.msb}:{self.lsb}])"


@dataclass(frozen=True)
class Const:
    """A constant driver, e.g. a tied-off control pin.

    ``value`` is interpreted as an unsigned integer over ``width`` bits.
    """

    value: int
    width: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("constant width must be >= 1")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"constant {self.value} does not fit in {self.width} bits")


@dataclass(frozen=True)
class Concat:
    """LSB-first concatenation of endpoints."""

    parts: Tuple["Endpoint", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("concatenation must have at least one part")

    @property
    def width(self) -> int:
        return sum(endpoint_width(p) for p in self.parts)


Endpoint = Union[NetRef, Const, Concat]


def endpoint_width(endpoint: Endpoint) -> int:
    """Width in bits of any endpoint."""
    return endpoint.width


def endpoint_bits(endpoint: Endpoint) -> Iterator[Optional[Tuple[Net, int]]]:
    """Yield per-bit atoms of an endpoint, LSB first.

    Each atom is a ``(net, bit_index)`` pair, or ``None`` for a constant
    bit.  The validator names the bits of a wiring problem this way;
    code that only folds wiring uses :func:`endpoint_masks`.
    """
    if isinstance(endpoint, NetRef):
        for bit in range(endpoint.lsb, endpoint.msb + 1):
            yield (endpoint.net, bit)
    elif isinstance(endpoint, Const):
        for _ in range(endpoint.width):
            yield None
    elif isinstance(endpoint, Concat):
        for part in endpoint.parts:
            yield from endpoint_bits(part)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not an endpoint: {endpoint!r}")


def endpoint_masks(endpoint: Endpoint) -> Iterator[Tuple[Optional[Net], int]]:
    """Yield slice-granular ``(net, bitmask)`` atoms of an endpoint.

    The bitmask is in the net's own bit space (``net[5:3]`` yields mask
    ``0b111000``).  Constant parts yield ``(None, width)`` so callers
    can detect them without a second walk.  This is the slice-granular
    sibling of :func:`endpoint_bits`; the timing compiler and the
    netlist validator both fold wiring at this granularity.
    """
    if isinstance(endpoint, NetRef):
        yield endpoint.net, ((1 << endpoint.width) - 1) << endpoint.lsb
    elif isinstance(endpoint, Const):
        yield None, endpoint.width
    elif isinstance(endpoint, Concat):
        for part in endpoint.parts:
            yield from endpoint_masks(part)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not an endpoint: {endpoint!r}")

