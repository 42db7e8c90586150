"""The DTAS rule engine.

Functional decomposition "is implemented with a rule-based system that
expands the space of component decompositions" (paper section 5).  A
:class:`Rule` targets one component type, guards on the specification,
and builds one or more decomposition netlists whose modules are
themselves component specifications.  :class:`RuleBase` holds the
generic rules (the paper has 86) plus library-specific rules (the paper
needs 9 for the LSI Logic subset).

:class:`DecompBuilder` is the helper rules use to assemble their
netlists: it creates the netlist with the target spec's own port
signature, and offers compact net/instance wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.specs import ComponentSpec, port_signature
from repro.netlist.nets import Concat, Const, Endpoint, Net, NetRef
from repro.netlist.netlist import ModuleInst, Netlist

PinValue = Union[Net, NetRef, Const, Concat, int, Sequence]


class RuleContext:
    """What a rule may consult while building decompositions.

    ``library`` is the target cell library (library-specific rules read
    available widths from it; generic rules should not need it).
    """

    def __init__(self, library=None) -> None:
        self.library = library

    def widths_of(self, ctype: str) -> List[int]:
        """Widths the target library offers for a component type."""
        if self.library is None:
            return []
        return self.library.widths_of_ctype(ctype)


@dataclass(eq=False)
class Rule:
    """One functional-decomposition rule.

    ``builder`` returns an iterable of decomposition netlists for the
    spec (most rules return one; style rules may return several).
    ``library_specific`` marks the rules that encode knowledge about a
    particular data book (the paper's "nine library-specific design
    rules").  A rule compares and hashes by identity, so a tuple of
    rules (:attr:`RuleBase.key`) can key a cache.
    """

    name: str
    ctype: str
    builder: Callable[[ComponentSpec, RuleContext], Iterable[Netlist]]
    guard: Optional[Callable[[ComponentSpec], bool]] = None
    library_specific: bool = False
    description: str = ""

    def applies_to(self, spec: ComponentSpec) -> bool:
        if spec.ctype != self.ctype:
            return False
        if self.guard is not None and not self.guard(spec):
            return False
        return True

    def apply(self, spec: ComponentSpec, context: RuleContext) -> List[Netlist]:
        netlists = list(self.builder(spec, context))
        for netlist in netlists:
            netlist.doc = netlist.doc or self.name
        return netlists


class RuleBase:
    """An ordered collection of decomposition rules."""

    def __init__(self, name: str = "dtas-rules") -> None:
        self.name = name
        self._rules: List[Rule] = []
        self._names: Dict[str, Rule] = {}
        #: ctype -> its rules in insertion order (:meth:`rules_for`).
        self._by_ctype: Dict[str, List[Rule]] = {}
        self._key: Optional[Tuple[Rule, ...]] = None

    @property
    def key(self) -> Tuple[Rule, ...]:
        """The rules in insertion order, as one hashable value (rules
        hash by identity), built once per :meth:`add`.  Two rulebases
        holding the same rule objects in the same order have equal
        keys; the design space keys its process-wide expansion graph
        by it, and a space stays bound to the graph of the key it first
        expanded with, so a rule added later reaches the next space,
        never a live one."""
        key = self._key
        if key is None:
            key = self._key = tuple(self._rules)
        return key

    def add(self, rule: Rule) -> None:
        if rule.name in self._names:
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self._key = None
        self._rules.append(rule)
        self._names[rule.name] = rule
        self._by_ctype.setdefault(rule.ctype, []).append(rule)

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    def rule(self, name: str) -> Rule:
        return self._names[name]

    def rules_for(self, spec: ComponentSpec) -> List[Rule]:
        """The rules that apply to ``spec``, in insertion order: the
        ctype index narrows the candidates, then each guard decides
        (the same answer as :meth:`Rule.applies_to` over every rule)."""
        return [rule for rule in self._by_ctype.get(spec.ctype, ())
                if rule.guard is None or rule.guard(spec)]

    def generic_rules(self) -> List[Rule]:
        return [rule for rule in self._rules if not rule.library_specific]

    def library_rules(self) -> List[Rule]:
        return [rule for rule in self._rules if rule.library_specific]

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __repr__(self) -> str:
        return (
            f"RuleBase({self.name!r}, generic={len(self.generic_rules())}, "
            f"library={len(self.library_rules())})"
        )


class DecompBuilder:
    """Fluent construction of one decomposition netlist.

    The netlist's own ports are created from the target specification's
    port signature, so every decomposition automatically has the same
    interface as the component it implements.
    """

    def __init__(self, spec: ComponentSpec, name: str) -> None:
        self.spec = spec
        self.netlist = Netlist(name)
        self.netlist.add_ports(port_signature(spec))

    # ------------------------------------------------------------------
    def port(self, name: str) -> Net:
        """Backing net of one of the decomposition's ports."""
        return self.netlist.port_net(name)

    def has_port(self, name: str) -> bool:
        return self.netlist.has_port(name)

    def net(self, name: str, width: int = 1) -> Net:
        return self.netlist.add_net(name, width)

    def nets(self, prefix: str, count: int, width: int = 1) -> List[Net]:
        return [self.net(f"{prefix}{i}", width) for i in range(count)]

    def inst(self, name: str, spec: ComponentSpec, **pins: PinValue) -> ModuleInst:
        """Instantiate a module spec and wire its pins.

        Pin values may be nets, slices, constants, integers (interpreted
        as constants of the pin's width), or sequences (concatenated
        LSB-first).
        """
        module = self.netlist.add_module(name, spec, port_signature(spec))
        for pin, value in pins.items():
            module.connect(pin, self._endpoint(value, module.port(pin).width))
        return module

    def connect(self, module: ModuleInst, pin: str, value: PinValue) -> None:
        module.connect(pin, self._endpoint(value, module.port(pin).width))

    def _endpoint(self, value: PinValue, width: int) -> Endpoint:
        if isinstance(value, Net):
            return value.ref()
        if isinstance(value, (NetRef, Const, Concat)):
            return value
        if isinstance(value, bool):
            return Const(int(value), width)
        if isinstance(value, int):
            return Const(value, width)
        if isinstance(value, (list, tuple)):
            parts = tuple(self._endpoint(v, _part_width(v)) for v in value)
            return Concat(parts)
        raise TypeError(f"cannot convert {value!r} to an endpoint")

    def done(self) -> Netlist:
        return self.netlist


def _part_width(value: PinValue) -> int:
    if isinstance(value, Net):
        return value.width
    if isinstance(value, (NetRef, Const, Concat)):
        return value.width
    if isinstance(value, (int, bool)):
        return 1  # bare ints inside concats are single bits
    if isinstance(value, (list, tuple)):
        return sum(_part_width(v) for v in value)
    raise TypeError(f"cannot size {value!r}")


def even_splits(width: int, part: int) -> List[Tuple[int, int]]:
    """(lsb, width) chunks covering ``width`` bits in ``part``-bit
    groups, LSB first; the final chunk may be narrower."""
    chunks = []
    lsb = 0
    while lsb < width:
        chunk = min(part, width - lsb)
        chunks.append((lsb, chunk))
        lsb += chunk
    return chunks
