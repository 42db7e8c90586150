"""Component binding and connectivity binding.

Builds the GENUS datapath netlist from a schedule:

- every program variable gets a register; block-local temporaries share
  registers through left-edge allocation over their state intervals;
- operations bind to functional units per (class, width):
  arithmetic -> ADDSUB, comparisons -> COMPARATOR, logic -> one GATE
  unit per kind, shifts -> SHIFTER;
- connectivity binding inserts a mux wherever a functional-unit operand
  or register input has more than one source across states, and records
  which select value each state must assert.

The result carries the netlist, the control-signal catalogue (with per
state assertion values), and the status signals the controller branches
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.specs import make_spec, mux_spec, port_signature, sel_width
from repro.hls.cdfg import Branch, CDFG, Halt, Jump, Op
from repro.hls.ir import ARITH_OPS, CMP_OPS, LOGIC_OPS, SHIFT_OPS
from repro.hls.schedule import Allocation, Schedule
from repro.netlist.nets import Concat, Const, Endpoint, Net
from repro.netlist.netlist import Netlist
from repro.netlist.ports import Direction, PinKind, Port

#: comparison operator -> (status output, polarity); polarity False
#: means the branch tests the complement.
CMP_STATUS = {
    "==": ("EQ", True), "!=": ("EQ", False),
    "<": ("LT", True), ">=": ("LT", False),
    ">": ("GT", True), "<=": ("GT", False),
}


@dataclass
class ControlSignal:
    """One control input of the datapath."""

    name: str
    width: int
    default: int = 0
    #: state name -> asserted value (absent states use the default).
    values: Dict[str, int] = field(default_factory=dict)


@dataclass
class StatusSignal:
    """One 1-bit status output of the datapath (a comparator output)."""

    name: str
    source: str  # description, e.g. "cmp0.EQ"


@dataclass
class Datapath:
    netlist: Netlist
    controls: Dict[str, ControlSignal]
    statuses: List[StatusSignal]
    #: (block, step) -> state name
    state_names: Dict[Tuple[str, int], str]
    #: op uid -> (status signal name, polarity) for branch conditions
    branch_status: Dict[int, Tuple[str, bool]]
    register_count: int = 0


class _SourceMux:
    """Accumulates the per-state sources of one datapath input point."""

    def __init__(self, name: str, width: int) -> None:
        self.name = name
        self.width = width
        self.sources: List = []       # endpoint keys, stable order
        self.endpoints: List[Endpoint] = []
        self.per_state: Dict[str, int] = {}

    def add(self, state: str, key, endpoint: Endpoint) -> None:
        if key in self.sources:
            index = self.sources.index(key)
        else:
            index = len(self.sources)
            self.sources.append(key)
            self.endpoints.append(endpoint)
        existing = self.per_state.get(state)
        if existing is not None and existing != index:
            raise ValueError(
                f"{self.name}: conflicting sources in state {state}"
            )
        self.per_state[state] = index


class DatapathBuilder:
    def __init__(self, schedule: Schedule, width: int, name: str) -> None:
        self.schedule = schedule
        self.cdfg = schedule.cdfg
        self.width = width
        self.netlist = Netlist(f"{name}_datapath")
        self.controls: Dict[str, ControlSignal] = {}
        self.statuses: List[StatusSignal] = []
        self.state_names: Dict[Tuple[str, int], str] = {}
        self.branch_status: Dict[int, Tuple[str, bool]] = {}
        self._reg_nets: Dict[str, Net] = {}      # register name -> Q net
        self._reg_width: Dict[str, int] = {}
        self._reg_d: Dict[str, _SourceMux] = {}  # register D sources
        self._reg_we: Dict[str, ControlSignal] = {}
        self._fu: Dict[Tuple, Dict] = {}         # (class/kind, width, idx)
        self._temp_reg: Dict[int, str] = {}      # temp id -> register name

    # ------------------------------------------------------------------
    # state enumeration
    # ------------------------------------------------------------------
    def _enumerate_states(self) -> None:
        for block in self.cdfg.blocks:
            scheduled = self.schedule.blocks[block.name]
            for step in range(scheduled.n_steps):
                self.state_names[(block.name, step)] = f"{block.name}_s{step}"

    # ------------------------------------------------------------------
    # registers
    # ------------------------------------------------------------------
    def _add_register(self, name: str, width: int) -> None:
        if name in self._reg_nets:
            return
        q = self.netlist.add_net(f"q_{name}", width)
        self._reg_nets[name] = q
        self._reg_width[name] = width
        self._reg_d[name] = _SourceMux(f"reg {name} D", width)
        we = ControlSignal(f"we_{name}", 1, default=0)
        self._reg_we[name] = we
        self.controls[we.name] = we

    def _bind_temps(self) -> None:
        """Left-edge sharing of temporary registers.

        A temporary's interval runs from its defining state to its last
        consuming state (global state order)."""
        order = list(self.state_names.values())
        index_of = {name: i for i, name in enumerate(order)}

        intervals: Dict[int, Tuple[int, int, int]] = {}  # temp -> (lo, hi, w)
        for block in self.cdfg.blocks:
            scheduled = self.schedule.blocks[block.name]
            for step, ops in enumerate(scheduled.steps):
                state = index_of[self.state_names[(block.name, step)]]
                for op in ops:
                    if op.target[0] == "temp":
                        uid = op.target[1]
                        lo, hi, w = intervals.get(
                            uid, (state, state, op.target[2]))
                        intervals[uid] = (min(lo, state), max(hi, state), w)
                    for operand in (op.left, op.right):
                        if operand[0] == "temp":
                            uid = operand[1]
                            if uid in intervals:
                                lo, hi, w = intervals[uid]
                                intervals[uid] = (lo, max(hi, state), w)

        # Classic left-edge, per width.
        by_width: Dict[int, List[Tuple[int, int, int]]] = {}
        for uid, (lo, hi, w) in intervals.items():
            by_width.setdefault(w, []).append((lo, hi, uid))
        for width, items in sorted(by_width.items()):
            items.sort()
            tracks: List[Tuple[int, str]] = []  # (last hi, register name)
            for lo, hi, uid in items:
                placed = False
                for i, (end, reg_name) in enumerate(tracks):
                    if end < lo:
                        tracks[i] = (hi, reg_name)
                        self._temp_reg[uid] = reg_name
                        placed = True
                        break
                if not placed:
                    reg_name = f"tmp{len(tracks)}_{width}"
                    tracks.append((hi, reg_name))
                    self._temp_reg[uid] = reg_name
                    self._add_register(reg_name, width)

    # ------------------------------------------------------------------
    # value endpoints
    # ------------------------------------------------------------------
    def _value_endpoint(self, ref, width: int) -> Tuple:
        """(key, endpoint) of a CDFG value reference, width-adjusted."""
        kind = ref[0]
        if kind == "const":
            return (("const", ref[1], width), Const(ref[1] & ((1 << width) - 1),
                                                    width))
        if kind == "input":
            net = self.netlist.port_net(ref[1])
            return (("input", ref[1]), self._fit(net, width))
        if kind == "var":
            net = self._reg_nets[ref[1]]
            return (("reg", ref[1]), self._fit(net, width))
        if kind == "temp":
            reg_name = self._temp_reg[ref[1]]
            net = self._reg_nets[reg_name]
            return (("reg", reg_name), self._fit(net, width))
        raise ValueError(f"bad value ref {ref!r}")

    def _fit(self, net: Net, width: int) -> Endpoint:
        if net.width == width:
            return net.ref()
        if net.width > width:
            return net[0:width]
        return Concat((net.ref(), Const(0, width - net.width)))

    # ------------------------------------------------------------------
    # functional units
    # ------------------------------------------------------------------
    def _fu_key(self, op: Op) -> Tuple:
        if op.op in ARITH_OPS:
            return ("arith", op.width)
        if op.op in CMP_OPS:
            return ("cmp", max(op.left[2], op.right[2]))
        if op.op in LOGIC_OPS:
            return ("logic", LOGIC_OPS[op.op], op.width)
        return ("shift", op.width)

    def _get_fu(self, key: Tuple, index: int) -> Dict:
        full_key = key + (index,)
        if full_key in self._fu:
            return self._fu[full_key]
        n = len(self._fu)
        kind = key[0]
        if kind == "arith":
            width = key[1]
            out = self.netlist.add_net(f"fu{n}_s", width)
            spec = make_spec("ADDSUB", width)
            mode = ControlSignal(f"m_fu{n}", 1, default=0)
            self.controls[mode.name] = mode
            unit = {
                "kind": kind, "spec": spec, "out": out, "mode": mode,
                "a": _SourceMux(f"fu{n}.A", width),
                "b": _SourceMux(f"fu{n}.B", width),
                "name": f"fu{n}_addsub",
            }
        elif kind == "cmp":
            width = key[1]
            eq = self.netlist.add_net(f"fu{n}_eq", 1)
            lt = self.netlist.add_net(f"fu{n}_lt", 1)
            gt = self.netlist.add_net(f"fu{n}_gt", 1)
            spec = make_spec("COMPARATOR", width, ops=("EQ", "LT", "GT"))
            unit = {
                "kind": kind, "spec": spec, "eq": eq, "lt": lt, "gt": gt,
                "a": _SourceMux(f"fu{n}.A", width),
                "b": _SourceMux(f"fu{n}.B", width),
                "name": f"fu{n}_cmp", "width": width,
            }
        elif kind == "logic":
            gate_kind, width = key[1], key[2]
            out = self.netlist.add_net(f"fu{n}_o", width)
            spec = make_spec("GATE", width, kind=gate_kind, n_inputs=2)
            unit = {
                "kind": kind, "spec": spec, "out": out,
                "a": _SourceMux(f"fu{n}.I0", width),
                "b": _SourceMux(f"fu{n}.I1", width),
                "name": f"fu{n}_{gate_kind.lower()}",
            }
        else:  # shift
            width = key[1]
            out = self.netlist.add_net(f"fu{n}_o", width)
            spec = make_spec("SHIFTER", width, ops=("SHL", "SHR"))
            sel = ControlSignal(f"s_fu{n}_op", 1, default=0)
            self.controls[sel.name] = sel
            unit = {
                "kind": kind, "spec": spec, "out": out, "sel": sel,
                "a": _SourceMux(f"fu{n}.A", width),
                "b": None, "name": f"fu{n}_shift",
            }
        self._fu[full_key] = unit
        return unit

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self, program) -> Datapath:
        for ref in program.inputs:
            self.netlist.add_port(Port(ref.name, ref.width, Direction.IN))
        self.netlist.add_port(Port("CLK", 1, Direction.IN, PinKind.CLOCK))

        self._enumerate_states()
        for ref in program.variables:
            self._add_register(ref.name, ref.width)
        self._bind_temps()

        # Walk the schedule: bind ops to units, record sources.
        for block in self.cdfg.blocks:
            scheduled = self.schedule.blocks[block.name]
            for step, ops in enumerate(scheduled.steps):
                state = self.state_names[(block.name, step)]
                class_counters: Dict[Tuple, int] = {}
                for op in ops:
                    key = self._fu_key(op)
                    index = class_counters.get(key, 0)
                    class_counters[key] = index + 1
                    unit = self._get_fu(key, index)
                    self._bind_op(op, unit, state)

        # Branch conditions -> status signals.
        for block in self.cdfg.blocks:
            term = block.terminator
            if isinstance(term, Branch):
                self._record_branch(block, term)

        # Materialize muxes and units.
        self._emit_registers()
        self._emit_fus()

        # Outputs.
        for name, source in program.outputs:
            out_net = self.netlist.add_port(Port(name, source.width,
                                                 Direction.OUT))
            self.netlist.add_module(
                f"buf_{name}", make_spec("GATE", source.width, kind="BUF",
                                         n_inputs=1),
                port_signature(make_spec("GATE", source.width, kind="BUF",
                                         n_inputs=1)),
                {"I0": self._reg_nets[source.name].ref(),
                 "O": out_net.ref()},
            )

        # Control ports (after all signals are known).
        for sig in self.controls.values():
            self.netlist.add_port(
                Port(sig.name, sig.width, Direction.IN, PinKind.CONTROL)
            )
        self._wire_control_ports()
        for status in self.statuses:
            pass  # status ports were created in _record_branch

        return Datapath(
            netlist=self.netlist,
            controls=self.controls,
            statuses=self.statuses,
            state_names=self.state_names,
            branch_status=self.branch_status,
            register_count=len(self._reg_nets),
        )

    # ------------------------------------------------------------------
    def _bind_op(self, op: Op, unit: Dict, state: str) -> None:
        kind = unit["kind"]
        width = unit["spec"].width if kind != "cmp" else unit["width"]
        key_a, ep_a = self._value_endpoint(op.left, width)
        unit["a"].add(state, key_a, ep_a)
        if kind == "shift":
            amount = op.right
            if amount[0] != "const" or amount[1] != 1:
                raise ValueError("only shift-by-one is supported in the DSL")
            unit["sel"].values[state] = 0 if op.op == "<<" else 1
        else:
            key_b, ep_b = self._value_endpoint(op.right, width)
            unit["b"].add(state, key_b, ep_b)
        if kind == "arith":
            unit["mode"].values[state] = 0 if op.op == "+" else 1

        # Where does the result go?
        if op.target[0] in ("var", "temp"):
            if op.target[0] == "var":
                reg_name = op.target[1]
            else:
                reg_name = self._temp_reg[op.target[1]]
            reg_width = self._reg_width[reg_name]
            result = self._result_endpoint(op, unit, reg_width)
            self._reg_d[reg_name].add(state, ("fu", unit["name"], op.op), result)
            self._reg_we[reg_name].values[state] = 1

    def _result_endpoint(self, op: Op, unit: Dict, width: int) -> Endpoint:
        kind = unit["kind"]
        if kind == "cmp":
            out_net, polarity = {
                "==": (unit["eq"], True), "!=": (unit["eq"], False),
                "<": (unit["lt"], True), ">=": (unit["lt"], False),
                ">": (unit["gt"], True), "<=": (unit["gt"], False),
            }[op.op]
            bit = out_net.ref()
            if not polarity:
                inv = self.netlist.add_net(f"n_{out_net.name}", 1)
                spec = make_spec("GATE", 1, kind="NOT", n_inputs=1)
                self.netlist.add_module(
                    f"inv_{out_net.name}", spec, port_signature(spec),
                    {"I0": bit, "O": inv.ref()},
                )
                bit = inv.ref()
            if width == 1:
                return bit
            return Concat((bit, Const(0, width - 1)))
        out = unit["out"]
        if out.width == width:
            return out.ref()
        if out.width > width:
            return out[0:width]
        return Concat((out.ref(), Const(0, width - out.width)))

    def _record_branch(self, block, term: Branch) -> None:
        cond = term.cond
        producer = None
        for op in block.ops:
            if op.target == cond:
                producer = op
                break
        if producer is None or producer.op not in CMP_STATUS:
            raise ValueError(
                f"block {block.name!r}: branch condition must be a comparison"
            )
        # Locate the unit this op was bound to by replaying the binding
        # walk (deterministic counters per step).
        scheduled = self.schedule.blocks[block.name]
        step = scheduled.step_of(producer.uid)
        class_counters: Dict[Tuple, int] = {}
        unit = None
        for op in scheduled.steps[step]:
            key = self._fu_key(op)
            index = class_counters.get(key, 0)
            class_counters[key] = index + 1
            if op.uid == producer.uid:
                unit = self._fu[key + (index,)]
        output, polarity = CMP_STATUS[producer.op]
        net = unit[output.lower()]
        status_name = f"st_{net.name}"
        if all(s.name != status_name for s in self.statuses):
            port_net = self.netlist.add_port(
                Port(status_name, 1, Direction.OUT)
            )
            spec = make_spec("GATE", 1, kind="BUF", n_inputs=1)
            self.netlist.add_module(
                f"buf_{status_name}", spec, port_signature(spec),
                {"I0": net.ref(), "O": port_net.ref()},
            )
            self.statuses.append(StatusSignal(status_name,
                                              f"{unit['name']}.{output}"))
        self.branch_status[producer.uid] = (status_name, polarity)

    # ------------------------------------------------------------------
    def _emit_mux(self, name: str, mux: _SourceMux,
                  width: int) -> Tuple[Endpoint, Optional[ControlSignal]]:
        """Materialize one source mux; returns (driving endpoint, select
        signal or None when single-source)."""
        if not mux.sources:
            return Const(0, width), None
        if len(mux.sources) == 1:
            return mux.endpoints[0], None
        bits = sel_width(len(mux.sources))
        sel = ControlSignal(f"s_{name}", bits, default=0)
        sel.values = dict(mux.per_state)
        self.controls[sel.name] = sel
        out = self.netlist.add_net(f"mx_{name}", width)
        spec = mux_spec(len(mux.sources), width)
        connections = {"O": out.ref()}
        module = self.netlist.add_module(f"mux_{name}", spec,
                                         port_signature(spec), connections)
        for i, endpoint in enumerate(mux.endpoints):
            module.connect(f"I{i}", endpoint)
        self._mux_sel_pins.append((module, sel.name))
        return out.ref(), sel

    def _emit_registers(self) -> None:
        self._mux_sel_pins: List = getattr(self, "_mux_sel_pins", [])
        self._control_pins: List = []
        for name, q in self._reg_nets.items():
            width = self._reg_width[name]
            d_endpoint, _sel = self._emit_mux(f"{name}_d", self._reg_d[name],
                                              width)
            spec = make_spec("REG", width, enable=True)
            module = self.netlist.add_module(
                f"reg_{name}", spec, port_signature(spec), {"Q": q.ref()}
            )
            module.connect("D", d_endpoint)
            self._control_pins.append((module, "CEN", f"we_{name}"))
            self._clk_pins = getattr(self, "_clk_pins", [])
            self._clk_pins.append(module)

    def _emit_fus(self) -> None:
        for full_key, unit in self._fu.items():
            kind = unit["kind"]
            spec = unit["spec"]
            width = spec.width
            a_endpoint, _ = self._emit_mux(f"{unit['name']}_a", unit["a"],
                                           width)
            module = self.netlist.add_module(unit["name"], spec,
                                             port_signature(spec), {})
            if kind == "cmp":
                module.connect("A", a_endpoint)
                b_endpoint, _ = self._emit_mux(f"{unit['name']}_b", unit["b"],
                                               width)
                module.connect("B", b_endpoint)
                module.connect("EQ", unit["eq"].ref())
                module.connect("LT", unit["lt"].ref())
                module.connect("GT", unit["gt"].ref())
            elif kind == "arith":
                module.connect("A", a_endpoint)
                b_endpoint, _ = self._emit_mux(f"{unit['name']}_b", unit["b"],
                                               width)
                module.connect("B", b_endpoint)
                module.connect("S", unit["out"].ref())
                self._control_pins.append((module, "M", unit["mode"].name))
            elif kind == "logic":
                module.connect("I0", a_endpoint)
                b_endpoint, _ = self._emit_mux(f"{unit['name']}_b", unit["b"],
                                               width)
                module.connect("I1", b_endpoint)
                module.connect("O", unit["out"].ref())
            else:  # shift
                module.connect("A", a_endpoint)
                module.connect("SI", Const(0, 1))
                module.connect("O", unit["out"].ref())
                self._control_pins.append((module, "S", unit["sel"].name))

    def _wire_control_ports(self) -> None:
        for module, pin, signal in self._control_pins:
            module.connect(pin, self.netlist.port_net(signal).ref())
        for module, signal in self._mux_sel_pins:
            module.connect("S", self.netlist.port_net(signal).ref())
        for module in getattr(self, "_clk_pins", []):
            module.connect("CLK", self.netlist.port_net("CLK").ref())


def build_datapath(program, schedule: Schedule) -> Datapath:
    """Component + connectivity binding for a scheduled program."""
    builder = DatapathBuilder(schedule, program.width, program.name)
    return builder.build(program)
