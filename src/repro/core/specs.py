"""Component specifications: the representation language of DTAS.

The paper's key idea for technology mapping is that *library cells and
generic components are described in the same functional representation
language*:

    "The functionality of library cells, i.e., their type, bit-width,
    and other characteristics, is described with the same representation
    language used in recognizing and decomposing GENUS components."

:class:`ComponentSpec` is that language.  A spec is a frozen, hashable
value object: a component type (``ctype``), a bit-width, and a sorted
tuple of attributes.  Hashability is load-bearing: the DTAS design space
is an acyclic graph whose nodes are specs, and the paper's first
search-control principle ("two modules with the same component
specification must be instances of the same implementation") falls out
of using specs as dictionary keys.

:func:`port_signature` derives the full port list of any spec, so that
netlists, simulation, VHDL emission, and timing all agree on interfaces.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.netlist.ports import Direction, PinKind, Port

# ---------------------------------------------------------------------------
# Operation names (shared vocabulary with repro.genus.behavior)
# ---------------------------------------------------------------------------

ARITH_OPS = ("ADD", "SUB", "INC", "DEC")
COMPARE_OPS = ("EQ", "NE", "LT", "GT", "LE", "GE", "ZEROP")
LOGIC_OPS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "LNOT", "LIMPL", "BUF")
SHIFT_OPS = ("SHL", "SHR", "ASR", "ROL", "ROR")
COUNTER_OPS = ("LOAD", "COUNT_UP", "COUNT_DOWN")

#: The 16 functions of the paper's Figure-3 ALU, in the paper's order.
ALU16_OPS = (
    "ADD", "SUB", "INC", "DEC",
    "EQ", "LT", "GT", "ZEROP",
    "AND", "OR", "NAND", "NOR",
    "XOR", "XNOR", "LNOT", "LIMPL",
)

GATE_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF")

#: Attributes that are boolean capabilities; values are normalized with
#: bool() so specs built from text (LEGEND, databooks) compare equal to
#: specs built in code.
BOOL_ATTRS = frozenset({
    "carry_in", "carry_out", "group_carry", "enable", "async_reset",
    "async_set", "complement_out", "valid", "cascaded",
})

#: Component types with sequential behavior (clocked state).
SEQUENTIAL_CTYPES = frozenset(
    {"REG", "COUNTER", "REGFILE", "STACK", "FIFO", "MEMORY", "SHIFT_REG"}
)

#: Component types in the GENUS "interface" class.
INTERFACE_CTYPES = frozenset({"PORT", "BUFFER", "TRISTATE", "CLOCK_DRIVER", "SCHMITT"})

#: Component types in the GENUS "miscellaneous" class.
MISC_CTYPES = frozenset({"BUS", "DELAY", "CONCAT", "EXTRACT", "CLOCK_GEN", "WIRED_OR", "CONST"})


def sel_width(n_choices: int) -> int:
    """Number of select bits needed to address ``n_choices`` options."""
    if n_choices < 2:
        return 1
    return max(1, math.ceil(math.log2(n_choices)))


def _freeze(value: Any) -> Hashable:
    """Normalize attribute values into hashable, canonical forms."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, bool) or isinstance(value, (int, str, float)) or value is None:
        return value
    raise TypeError(f"attribute value {value!r} is not hashable-normalizable")


@dataclass(frozen=True)
class ComponentSpec:
    """A functional component specification.

    Use :func:`make_spec` rather than the constructor so attribute
    values are normalized and validated against the catalog.
    """

    ctype: str
    width: int = 1
    attrs: Tuple[Tuple[str, Hashable], ...] = ()

    def __hash__(self) -> int:
        """Field-tuple hash, cached: specs key every design-space dict
        (nodes, configs, choice maps), so the tuple rebuild that the
        generated dataclass hash performs each call is measurable."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.ctype, self.width, self.attrs))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        """Pickle by field value only and re-intern on load.

        None of the lazy caches enter the payload (``_hash`` embeds the
        per-process string-hash seed, so shipping it would silently
        break dict lookups in the receiving process), and unpickling
        lands on the canonical interned instance, so specs pickled in
        another process keep the identity fast paths effective."""
        return (_restore_spec, (self.ctype, self.width, self.attrs))

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def has(self, key: str) -> bool:
        return any(k == key for k, _ in self.attrs)

    @property
    def ops(self) -> Tuple[str, ...]:
        """The operation list, for op-bearing specs (ALU, shifter...)."""
        return tuple(self.get("ops", ()))

    @property
    def is_sequential(self) -> bool:
        return self.ctype in SEQUENTIAL_CTYPES

    @property
    def sort_key(self) -> Tuple[str, int, str]:
        """A cheap, total ordering key over specs (computed once per
        spec object).  Attribute values may mix types, so the attrs part
        falls back to ``repr``, which is faithful for the normalized
        primitive/tuple forms :func:`make_spec` stores."""
        cached = self.__dict__.get("_sort_key")
        if cached is None:
            cached = (self.ctype, self.width, repr(self.attrs))
            object.__setattr__(self, "_sort_key", cached)
        return cached

    def with_attrs(self, **changes: Any) -> "ComponentSpec":
        """A copy of this spec with some attributes replaced/added."""
        merged = dict(self.attrs)
        merged.update(changes)
        return make_spec(self.ctype, changes.pop("width", self.width), **merged)

    def describe(self) -> str:
        """Compact one-line form used in reports, e.g.
        ``ALU<64>(ci,co,ops=16)``."""
        parts = []
        for key, value in self.attrs:
            if isinstance(value, bool):
                if value:
                    parts.append(key)
            elif isinstance(value, tuple):
                parts.append(f"{key}={len(value)}")
            else:
                parts.append(f"{key}={value}")
        inner = ",".join(parts)
        return f"{self.ctype}<{self.width}>({inner})"

    def __str__(self) -> str:
        return self.describe()


# Weakly held canonical instances: equal specs built through
# :func:`make_spec` are the *same object*, so the engine's many
# spec-keyed dictionaries (design-space nodes, merged choice maps, the
# S1 combiner's rank tables) resolve lookups on the identity fast path
# instead of falling through to field-tuple comparison.  Identity is an
# optimization only -- nothing relies on it (specs restored from
# pickles or built directly still compare by value).
_SPEC_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_SPEC_INTERN_LOCK = threading.Lock()


def make_spec(ctype: str, width: int = 1, **attrs: Any) -> ComponentSpec:
    """Create a normalized :class:`ComponentSpec`.

    Attribute values are frozen (lists become tuples), ``None`` values
    are dropped, and keys are stored sorted so equal specs compare and
    hash equal regardless of construction order.  The returned instance
    is canonical process-wide (interned weakly by value).
    """
    if width < 1:
        raise ValueError(f"{ctype}: width must be >= 1, got {width}")
    cleaned = {}
    for key, value in attrs.items():
        if value is None:
            continue
        if key in BOOL_ATTRS:
            value = bool(value)
        cleaned[key] = _freeze(value)
    frozen = tuple(sorted(cleaned.items()))
    key = (ctype, width, frozen)
    with _SPEC_INTERN_LOCK:
        spec = _SPEC_INTERN.get(key)
        if spec is not None:
            return spec
    spec = ComponentSpec(ctype, width, frozen)
    # Fail fast on unknown ctypes / malformed attrs by deriving ports.
    port_signature(spec)
    with _SPEC_INTERN_LOCK:
        return _SPEC_INTERN.setdefault(key, spec)


def _restore_spec(ctype: str, width: int,
                  attrs: Tuple[Tuple[str, Hashable], ...]) -> ComponentSpec:
    """Unpickle target: land on the canonical interned instance.

    The fields were normalized and validated when the spec was first
    built, so this skips :func:`make_spec`'s cleaning and port
    derivation."""
    key = (ctype, width, attrs)
    with _SPEC_INTERN_LOCK:
        spec = _SPEC_INTERN.get(key)
        if spec is not None:
            return spec
    spec = ComponentSpec(ctype, width, attrs)
    with _SPEC_INTERN_LOCK:
        return _SPEC_INTERN.setdefault(key, spec)


# ---------------------------------------------------------------------------
# Port signatures
# ---------------------------------------------------------------------------

def _in(name: str, width: int = 1, kind: PinKind = PinKind.DATA) -> Port:
    return Port(name, width, Direction.IN, kind)


def _out(name: str, width: int = 1) -> Port:
    return Port(name, width, Direction.OUT, PinKind.DATA)


def _gate_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    kind = spec.get("kind")
    if kind not in GATE_KINDS:
        raise ValueError(f"GATE requires kind in {GATE_KINDS}, got {kind!r}")
    n_inputs = spec.get("n_inputs", 1 if kind in ("NOT", "BUF") else 2)
    if kind in ("NOT", "BUF") and n_inputs != 1:
        raise ValueError(f"{kind} gate must have exactly 1 input")
    if kind not in ("NOT", "BUF") and n_inputs < 2:
        raise ValueError(f"{kind} gate needs >= 2 inputs")
    ports = [_in(f"I{i}", spec.width) for i in range(n_inputs)]
    ports.append(_out("O", spec.width))
    return tuple(ports)


def _mux_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    n_inputs = spec.get("n_inputs", 2)
    if n_inputs < 2:
        raise ValueError("MUX needs >= 2 inputs")
    ports = [_in(f"I{i}", spec.width) for i in range(n_inputs)]
    ports.append(_in("S", sel_width(n_inputs), PinKind.CONTROL))
    ports.append(_out("O", spec.width))
    return tuple(ports)


def _decoder_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    n_outputs = spec.get("n_outputs", 1 << spec.width)
    ports = [_in("I", spec.width)]
    if spec.get("enable", False):
        ports.append(_in("EN", 1, PinKind.ENABLE))
    ports.append(_out("O", n_outputs))
    return tuple(ports)


def _encoder_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    n_inputs = spec.get("n_inputs", 1 << spec.width)
    ports = [_in("I", n_inputs), _out("O", spec.width)]
    if spec.get("valid", False):
        ports.append(_out("V", 1))
    return tuple(ports)


def _adder_like_ports(spec: ComponentSpec, has_mode: bool) -> Tuple[Port, ...]:
    ports = [_in("A", spec.width), _in("B", spec.width)]
    if spec.get("carry_in", False):
        ports.append(_in("CI", 1))
    if has_mode:
        ports.append(_in("M", 1, PinKind.CONTROL))
    ports.append(_out("S", spec.width))
    if spec.get("carry_out", False):
        ports.append(_out("CO", 1))
    if spec.get("group_carry", False):
        # Generate/propagate outputs for carry-look-ahead structures.
        ports.append(_out("G", 1))
        ports.append(_out("P", 1))
    return tuple(ports)


def _unary_arith_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ports = [_in("A", spec.width)]
    if spec.get("carry_in", False):
        ports.append(_in("CI", 1))
    ports.append(_out("S", spec.width))
    if spec.get("carry_out", False):
        ports.append(_out("CO", 1))
    return tuple(ports)


def _alu_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ops = spec.ops
    if not ops:
        raise ValueError("ALU spec requires a non-empty 'ops' attribute")
    ports = [
        _in("A", spec.width),
        _in("B", spec.width),
        _in("S", sel_width(len(ops)), PinKind.CONTROL),
    ]
    if spec.get("carry_in", False):
        ports.append(_in("CI", 1))
    ports.append(_out("O", spec.width))
    if spec.get("carry_out", False):
        ports.append(_out("CO", 1))
    return tuple(ports)


def _comparator_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ops = spec.ops or ("EQ", "LT", "GT")
    ports = [_in("A", spec.width), _in("B", spec.width)]
    if spec.get("cascaded", False):
        # Cascade inputs from the less-significant stage.
        for op in ops:
            ports.append(_in(f"{op}_IN", 1))
    for op in ops:
        ports.append(_out(op, 1))
    return tuple(ports)


def _shifter_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ops = spec.ops or ("SHL", "SHR")
    ports = [_in("A", spec.width)]
    ports.append(_in("S", sel_width(len(ops)), PinKind.CONTROL))
    ports.append(_in("SI", 1))  # serial fill-in bit
    ports.append(_out("O", spec.width))
    return tuple(ports)


def _barrel_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ops = spec.ops or ("SHL",)
    ports = [_in("A", spec.width), _in("SH", sel_width(spec.width))]
    if len(ops) > 1:
        ports.append(_in("S", sel_width(len(ops)), PinKind.CONTROL))
    ports.append(_out("O", spec.width))
    return tuple(ports)


def _mult_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    width_b = spec.get("width_b", spec.width)
    return (
        _in("A", spec.width),
        _in("B", width_b),
        _out("P", spec.width + width_b),
    )


def _div_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    return (
        _in("A", spec.width),
        _in("B", spec.width),
        _out("Q", spec.width),
        _out("R", spec.width),
    )


def _reg_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ports = [_in("D", spec.width), _in("CLK", 1, PinKind.CLOCK)]
    if spec.get("enable", False):
        ports.append(_in("CEN", 1, PinKind.ENABLE))
    if spec.get("async_reset", False):
        ports.append(_in("ARST", 1, PinKind.ASYNC))
    ports.append(_out("Q", spec.width))
    if spec.get("complement_out", False):
        ports.append(_out("QN", spec.width))
    return tuple(ports)


def _shift_reg_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ports = [
        _in("D", spec.width),
        _in("SI", 1),
        _in("CLK", 1, PinKind.CLOCK),
        _in("MODE", 2, PinKind.CONTROL),  # hold / load / shift-left / shift-right
        _out("Q", spec.width),
        _out("SO", 1),
    ]
    return tuple(ports)


def _counter_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    ops = spec.ops or COUNTER_OPS
    ports = []
    if "LOAD" in ops:
        ports.append(_in("I0", spec.width))
    ports.append(_in("CLK", 1, PinKind.CLOCK))
    if spec.get("enable", False):
        ports.append(_in("CEN", 1, PinKind.ENABLE))
    for op, pin in (("LOAD", "CLOAD"), ("COUNT_UP", "CUP"), ("COUNT_DOWN", "CDOWN")):
        if op in ops:
            ports.append(_in(pin, 1, PinKind.CONTROL))
    if spec.get("async_set", False):
        ports.append(_in("ASET", 1, PinKind.ASYNC))
    if spec.get("async_reset", False):
        ports.append(_in("ARESET", 1, PinKind.ASYNC))
    ports.append(_out("O0", spec.width))
    if spec.get("carry_out", False):
        ports.append(_out("CO", 1))
    return tuple(ports)


def _regfile_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    n_words = spec.get("n_words", 4)
    abits = sel_width(n_words)
    ports = [_in("CLK", 1, PinKind.CLOCK)]
    for i in range(spec.get("n_write", 1)):
        ports += [
            _in(f"WA{i}", abits),
            _in(f"WD{i}", spec.width),
            _in(f"WE{i}", 1, PinKind.ENABLE),
        ]
    for i in range(spec.get("n_read", 1)):
        ports += [_in(f"RA{i}", abits), _out(f"RD{i}", spec.width)]
    return tuple(ports)


def _memory_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    n_words = spec.get("n_words", 16)
    abits = sel_width(n_words)
    return (
        _in("CLK", 1, PinKind.CLOCK),
        _in("ADDR", abits),
        _in("DIN", spec.width),
        _in("WE", 1, PinKind.ENABLE),
        _out("DOUT", spec.width),
    )


def _stack_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    return (
        _in("CLK", 1, PinKind.CLOCK),
        _in("DIN", spec.width),
        _in("PUSH", 1, PinKind.CONTROL),
        _in("POP", 1, PinKind.CONTROL),
        _out("DOUT", spec.width),
        _out("EMPTY", 1),
        _out("FULL", 1),
    )


def _cla_gen_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    groups = spec.get("groups", 4)
    return (
        _in("G", groups),
        _in("P", groups),
        _in("CI", 1),
        _out("C", groups),  # C[i] = carry out of group i
        _out("GG", 1),
        _out("GP", 1),
    )


def _interface_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    if spec.ctype == "TRISTATE":
        return (_in("I", spec.width), _in("OE", 1, PinKind.ENABLE), _out("O", spec.width))
    if spec.ctype == "PORT":
        if spec.get("direction", "in") == "in":
            return (_out("O", spec.width),)
        return (_in("I", spec.width),)
    # BUFFER, CLOCK_DRIVER, SCHMITT: unit-gain single input/output.
    return (_in("I", spec.width), _out("O", spec.width))


def _misc_ports(spec: ComponentSpec) -> Tuple[Port, ...]:
    if spec.ctype == "CONCAT":
        widths = spec.get("part_widths", (spec.width,))
        ports = [_in(f"I{i}", w) for i, w in enumerate(widths)]
        ports.append(_out("O", sum(widths)))
        return tuple(ports)
    if spec.ctype == "EXTRACT":
        src_width = spec.get("src_width", spec.width)
        return (_in("I", src_width), _out("O", spec.width))
    if spec.ctype == "CONST":
        return (_out("O", spec.width),)
    if spec.ctype == "CLOCK_GEN":
        return (_out("CLK", 1),)
    if spec.ctype == "WIRED_OR":
        n_inputs = spec.get("n_inputs", 2)
        ports = [_in(f"I{i}", spec.width) for i in range(n_inputs)]
        ports.append(_out("O", spec.width))
        return tuple(ports)
    if spec.ctype == "BUS":
        n_drivers = spec.get("n_drivers", 2)
        ports = [_in(f"I{i}", spec.width) for i in range(n_drivers)]
        ports += [_in(f"OE{i}", 1, PinKind.ENABLE) for i in range(n_drivers)]
        ports.append(_out("O", spec.width))
        return tuple(ports)
    # DELAY
    return (_in("I", spec.width), _out("O", spec.width))


_SIGNATURES = {
    "GATE": _gate_ports,
    "MUX": _mux_ports,
    "SELECTOR": _mux_ports,
    "DECODER": _decoder_ports,
    "ENCODER": _encoder_ports,
    "ADD": lambda s: _adder_like_ports(s, has_mode=False),
    "SUB": lambda s: _adder_like_ports(s, has_mode=False),
    "ADDSUB": lambda s: _adder_like_ports(s, has_mode=True),
    "INC": _unary_arith_ports,
    "DEC": _unary_arith_ports,
    "ALU": _alu_ports,
    "COMPARATOR": _comparator_ports,
    "SHIFTER": _shifter_ports,
    "BARREL_SHIFTER": _barrel_ports,
    "MULT": _mult_ports,
    "DIV": _div_ports,
    "REG": _reg_ports,
    "SHIFT_REG": _shift_reg_ports,
    "COUNTER": _counter_ports,
    "REGFILE": _regfile_ports,
    "MEMORY": _memory_ports,
    "STACK": _stack_ports,
    "FIFO": _stack_ports,
    "CLA_GEN": _cla_gen_ports,
    "PORT": _interface_ports,
    "BUFFER": _interface_ports,
    "TRISTATE": _interface_ports,
    "CLOCK_DRIVER": _interface_ports,
    "SCHMITT": _interface_ports,
    "BUS": _misc_ports,
    "DELAY": _misc_ports,
    "CONCAT": _misc_ports,
    "EXTRACT": _misc_ports,
    "CLOCK_GEN": _misc_ports,
    "WIRED_OR": _misc_ports,
    "CONST": _misc_ports,
}

#: Every component type DTAS and GENUS know about.
KNOWN_CTYPES = tuple(sorted(_SIGNATURES))


# Weakly keyed so signatures live exactly as long as some equal spec
# object does: lookups hit across equal specs (hash/eq based), but a
# retired spec population (e.g. a finished retargeting sweep) releases
# its entries instead of pinning them for the process lifetime.
_SIGNATURE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def port_signature(spec: ComponentSpec) -> Tuple[Port, ...]:
    """Derive the full, ordered port list of a component specification.

    Signatures are pure functions of the (frozen) spec and are derived
    for every spec construction and module instantiation, so results
    are cached.  The returned tuple is shared: treat it as read-only.
    """
    cached = _SIGNATURE_CACHE.get(spec)
    if cached is not None:
        return cached
    handler = _SIGNATURES.get(spec.ctype)
    if handler is None:
        raise ValueError(f"unknown component type {spec.ctype!r}")
    ports = handler(spec)
    _SIGNATURE_CACHE[spec] = ports
    return ports


def data_input_names(spec: ComponentSpec) -> Tuple[str, ...]:
    """Names of the spec's data-kind input ports."""
    return tuple(
        p.name for p in port_signature(spec) if p.is_input and p.kind is PinKind.DATA
    )


def output_names(spec: ComponentSpec) -> Tuple[str, ...]:
    """Names of the spec's output ports."""
    return tuple(p.name for p in port_signature(spec) if p.is_output)


# ---------------------------------------------------------------------------
# Convenience spec constructors used throughout the code base and tests
# ---------------------------------------------------------------------------

def adder_spec(width: int, carry_in: bool = True, carry_out: bool = True,
               group_carry: bool = False) -> ComponentSpec:
    """An n-bit binary adder."""
    return make_spec("ADD", width, carry_in=carry_in, carry_out=carry_out,
                     group_carry=group_carry or None)


def alu_spec(width: int, ops: Iterable[str] = ALU16_OPS,
             carry_in: bool = True, carry_out: bool = True) -> ComponentSpec:
    """An n-bit multifunction ALU (defaults to the paper's 16 functions)."""
    return make_spec("ALU", width, ops=tuple(ops), carry_in=carry_in,
                     carry_out=carry_out)


def mux_spec(n_inputs: int, width: int) -> ComponentSpec:
    """An n-to-1 multiplexer of the given data width."""
    return make_spec("MUX", width, n_inputs=n_inputs)


def register_spec(width: int, enable: bool = False, async_reset: bool = False) -> ComponentSpec:
    """An n-bit D register."""
    return make_spec("REG", width, enable=enable or None, async_reset=async_reset or None)


def counter_spec(width: int, ops: Iterable[str] = COUNTER_OPS,
                 style: str = "SYNCHRONOUS", enable: bool = True) -> ComponentSpec:
    """An n-bit up/down/load counter."""
    return make_spec("COUNTER", width, ops=tuple(ops), style=style,
                     enable=enable or None)


def comparator_spec(width: int, ops: Iterable[str] = ("EQ", "LT", "GT"),
                    cascaded: bool = False) -> ComponentSpec:
    """An n-bit magnitude comparator."""
    return make_spec("COMPARATOR", width, ops=tuple(ops), cascaded=cascaded or None)


def gate_spec(kind: str, n_inputs: int = 2, width: int = 1) -> ComponentSpec:
    """A (possibly bitwise) logic gate."""
    if kind in ("NOT", "BUF"):
        n_inputs = 1
    return make_spec("GATE", width, kind=kind, n_inputs=n_inputs)
