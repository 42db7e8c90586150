"""Generic behavioral semantics for every GENUS component type.

This module is the single source of truth for what components *do*.  It
is used three ways, mirroring the paper's use of simulatable behavioral
models:

1. GENUS behavioral models (``Component.behavior``) evaluate here;
2. technology-library cells simulate through the same functions (a cell
   *is* a component spec with area/delay attached);
3. the equivalence checker in :mod:`repro.sim` compares a mapped,
   hierarchical DTAS design against these semantics.

All values are plain unsigned integers masked to their port widths.

Arithmetic conventions (chosen so generic semantics are realizable by
adder-based datapaths, see tests/test_behavior.py):

- ``SUB`` computes ``a + ~b + ci`` (two's complement); when the spec has
  no carry-in pin, ``ci`` defaults to 1 so ``SUB`` is exact ``a - b``.
- ``INC`` computes ``a + 1 + ci`` and ``DEC`` computes ``a - 1 + ci``
  (carry defaults to 0 without a CI pin).
- Comparison operations place their 1-bit result in bit 0 of the output.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.specs import ComponentSpec, port_signature, sel_width

State = Dict[str, object]
Values = Dict[str, int]


def mask(width: int) -> int:
    return (1 << width) - 1


def _bit(value: int, index: int) -> int:
    return (value >> index) & 1


# ---------------------------------------------------------------------------
# Operation semantics (shared by ALU, ADD/SUB, comparators, shifters)
# ---------------------------------------------------------------------------

def default_carry_in(op: str) -> int:
    """Carry-in assumed when a spec has no CI pin."""
    return 1 if op == "SUB" else 0


def alu_op(op: str, a: int, b: int, ci: int, width: int) -> Tuple[int, int]:
    """Evaluate one ALU operation; returns ``(result, carry_out)``."""
    m = mask(width)
    a &= m
    b &= m
    if op == "ADD":
        total = a + b + ci
    elif op == "SUB":
        total = a + (~b & m) + ci
    elif op == "INC":
        total = a + 1 + ci
    elif op == "DEC":
        total = a + m + ci  # a - 1 + ci mod 2^w, with real carry
    elif op == "EQ":
        return (1 if a == b else 0), 0
    elif op == "NE":
        return (1 if a != b else 0), 0
    elif op == "LT":
        return (1 if a < b else 0), 0
    elif op == "GT":
        return (1 if a > b else 0), 0
    elif op == "LE":
        return (1 if a <= b else 0), 0
    elif op == "GE":
        return (1 if a >= b else 0), 0
    elif op == "ZEROP":
        return (1 if a == 0 else 0), 0
    elif op == "AND":
        return a & b, 0
    elif op == "OR":
        return a | b, 0
    elif op == "NAND":
        return (~(a & b)) & m, 0
    elif op == "NOR":
        return (~(a | b)) & m, 0
    elif op == "XOR":
        return a ^ b, 0
    elif op == "XNOR":
        return (~(a ^ b)) & m, 0
    elif op == "LNOT":
        return (~a) & m, 0
    elif op == "LIMPL":
        return ((~a) | b) & m, 0
    elif op == "BUF":
        return a, 0
    else:
        raise ValueError(f"unknown ALU operation {op!r}")
    return total & m, (total >> width) & 1


def gate_op(kind: str, inputs: List[int], width: int) -> int:
    """Evaluate a (bitwise) logic gate over its input list."""
    m = mask(width)
    if kind == "NOT":
        return (~inputs[0]) & m
    if kind == "BUF":
        return inputs[0] & m
    acc = inputs[0] & m
    if kind in ("AND", "NAND"):
        for v in inputs[1:]:
            acc &= v
    elif kind in ("OR", "NOR"):
        for v in inputs[1:]:
            acc |= v
    elif kind in ("XOR", "XNOR"):
        for v in inputs[1:]:
            acc ^= v
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    if kind in ("NAND", "NOR", "XNOR"):
        acc = ~acc
    return acc & m


def shift_op(op: str, a: int, width: int, amount: int = 1, serial_in: int = 0) -> int:
    """Evaluate a shift/rotate of ``amount`` positions."""
    m = mask(width)
    a &= m
    if amount < 0:
        raise ValueError("shift amount must be non-negative")
    if op == "SHL":
        fill = (serial_in * mask(min(amount, width))) if amount else 0
        return ((a << amount) | fill) & m
    if op == "SHR":
        fill = (serial_in * mask(min(amount, width))) << max(width - amount, 0) if amount else 0
        return ((a >> amount) | fill) & m
    if op == "ASR":
        sign = _bit(a, width - 1)
        shifted = a >> amount
        if sign and amount:
            shifted |= mask(min(amount, width)) << max(width - amount, 0)
        return shifted & m
    if op == "ROL":
        amount %= width
        return ((a << amount) | (a >> (width - amount))) & m if amount else a
    if op == "ROR":
        amount %= width
        return ((a >> amount) | (a << (width - amount))) & m if amount else a
    raise ValueError(f"unknown shift operation {op!r}")


# ---------------------------------------------------------------------------
# Combinational component evaluation
# ---------------------------------------------------------------------------

def _eval_gate(spec: ComponentSpec, inputs: Values) -> Values:
    kind = spec.get("kind")
    n = spec.get("n_inputs", 1 if kind in ("NOT", "BUF") else 2)
    values = [inputs[f"I{i}"] for i in range(n)]
    return {"O": gate_op(kind, values, spec.width)}


def _eval_mux(spec: ComponentSpec, inputs: Values) -> Values:
    n = spec.get("n_inputs", 2)
    sel = inputs["S"] & mask(sel_width(n))
    if sel >= n:
        return {"O": 0}
    return {"O": inputs[f"I{sel}"] & mask(spec.width)}


def _eval_decoder(spec: ComponentSpec, inputs: Values) -> Values:
    n_outputs = spec.get("n_outputs", 1 << spec.width)
    enable = inputs.get("EN", 1) if spec.get("enable", False) else 1
    index = inputs["I"] & mask(spec.width)
    if not enable or index >= n_outputs:
        return {"O": 0}
    return {"O": 1 << index}


def _eval_encoder(spec: ComponentSpec, inputs: Values) -> Values:
    n_inputs = spec.get("n_inputs", 1 << spec.width)
    value = inputs["I"] & mask(n_inputs)
    out: Values = {}
    if value == 0:
        out["O"] = 0
        if spec.get("valid", False):
            out["V"] = 0
        return out
    out["O"] = value.bit_length() - 1  # highest-priority (highest index)
    if spec.get("valid", False):
        out["V"] = 1
    return out


def _arith_ci(spec: ComponentSpec, inputs: Values, op: str) -> int:
    if spec.get("carry_in", False):
        return inputs.get("CI", 0) & 1
    return default_carry_in(op)


def _eval_add_sub(spec: ComponentSpec, inputs: Values, op: str) -> Values:
    ci = _arith_ci(spec, inputs, op)
    result, carry = alu_op(op, inputs["A"], inputs["B"], ci, spec.width)
    out = {"S": result}
    if spec.get("carry_out", False):
        out["CO"] = carry
    if spec.get("group_carry", False):
        m = mask(spec.width)
        a, b = inputs["A"] & m, (inputs["B"] if op == "ADD" else (~inputs["B"])) & m
        # Group generate/propagate of the (possibly complemented) operands.
        g, p = a & b, a | b
        gen, prop = 0, 1
        for i in range(spec.width):
            gen = _bit(g, i) | (_bit(p, i) & gen)
            prop &= _bit(p, i)
        out["G"] = gen
        out["P"] = prop
    return out


def _eval_addsub(spec: ComponentSpec, inputs: Values) -> Values:
    sub_mode = inputs.get("M", 0) & 1
    op = "SUB" if sub_mode else "ADD"
    if spec.get("carry_in", False):
        ci = inputs.get("CI", 0) & 1
    else:
        ci = default_carry_in(op)
    result, carry = alu_op(op, inputs["A"], inputs["B"], ci, spec.width)
    out = {"S": result}
    if spec.get("carry_out", False):
        out["CO"] = carry
    return out


def _eval_unary_arith(spec: ComponentSpec, inputs: Values, op: str) -> Values:
    ci = _arith_ci(spec, inputs, op)
    result, carry = alu_op(op, inputs["A"], 0, ci, spec.width)
    out = {"S": result}
    if spec.get("carry_out", False):
        out["CO"] = carry
    return out


def _eval_alu(spec: ComponentSpec, inputs: Values) -> Values:
    ops = spec.ops
    sel = inputs["S"] & mask(sel_width(len(ops)))
    out: Values = {}
    if sel >= len(ops):
        out["O"] = 0
        if spec.get("carry_out", False):
            out["CO"] = 0
        return out
    op = ops[sel]
    ci = _arith_ci(spec, inputs, op)
    result, carry = alu_op(op, inputs["A"], inputs["B"], ci, spec.width)
    out["O"] = result
    if spec.get("carry_out", False):
        out["CO"] = carry
    return out


def _eval_comparator(spec: ComponentSpec, inputs: Values) -> Values:
    ops = spec.ops or ("EQ", "LT", "GT")
    m = mask(spec.width)
    a, b = inputs["A"] & m, inputs["B"] & m
    eq, lt, gt = int(a == b), int(a < b), int(a > b)
    zerop = int(a == 0)
    if spec.get("cascaded", False):
        eq_in = inputs.get("EQ_IN", 1) & 1 if "EQ" in ops else 1
        lt_in = inputs.get("LT_IN", 0) & 1 if "LT" in ops else 0
        gt_in = inputs.get("GT_IN", 0) & 1 if "GT" in ops else 0
        zp_in = inputs.get("ZEROP_IN", 1) & 1 if "ZEROP" in ops else 1
        lt = lt | (eq & lt_in)
        gt = gt | (eq & gt_in)
        eq = eq & eq_in
        zerop = zerop & zp_in
    table = {
        "EQ": eq, "NE": 1 - eq, "LT": lt, "GT": gt,
        "LE": lt | eq, "GE": gt | eq, "ZEROP": zerop,
    }
    return {op: table[op] for op in ops}


def _eval_shifter(spec: ComponentSpec, inputs: Values) -> Values:
    ops = spec.ops or ("SHL", "SHR")
    sel = inputs["S"] & mask(sel_width(len(ops)))
    if sel >= len(ops):
        return {"O": 0}
    serial = inputs.get("SI", 0) & 1
    return {"O": shift_op(ops[sel], inputs["A"], spec.width, 1, serial)}


def _eval_barrel(spec: ComponentSpec, inputs: Values) -> Values:
    ops = spec.ops or ("SHL",)
    amount = inputs["SH"] & mask(sel_width(spec.width))
    if len(ops) > 1:
        sel = inputs["S"] & mask(sel_width(len(ops)))
        if sel >= len(ops):
            return {"O": 0}
        op = ops[sel]
    else:
        op = ops[0]
    return {"O": shift_op(op, inputs["A"], spec.width, amount)}


def _eval_mult(spec: ComponentSpec, inputs: Values) -> Values:
    width_b = spec.get("width_b", spec.width)
    a = inputs["A"] & mask(spec.width)
    b = inputs["B"] & mask(width_b)
    return {"P": a * b}


def _eval_div(spec: ComponentSpec, inputs: Values) -> Values:
    m = mask(spec.width)
    a, b = inputs["A"] & m, inputs["B"] & m
    if b == 0:
        return {"Q": m, "R": a}
    return {"Q": a // b, "R": a % b}


def _eval_cla_gen(spec: ComponentSpec, inputs: Values) -> Values:
    groups = spec.get("groups", 4)
    g, p, ci = inputs["G"], inputs["P"], inputs.get("CI", 0) & 1
    carries = 0
    carry = ci
    for i in range(groups):
        carry = _bit(g, i) | (_bit(p, i) & carry)
        carries |= carry << i
    gg = 0
    for i in range(groups):
        gg = _bit(g, i) | (_bit(p, i) & gg)
    gp = 1
    for i in range(groups):
        gp &= _bit(p, i)
    return {"C": carries, "GG": gg, "GP": gp}


def _eval_misc(spec: ComponentSpec, inputs: Values) -> Values:
    ctype = spec.ctype
    m = mask(spec.width)
    if ctype == "CONCAT":
        widths = spec.get("part_widths", (spec.width,))
        acc, offset = 0, 0
        for i, w in enumerate(widths):
            acc |= (inputs[f"I{i}"] & mask(w)) << offset
            offset += w
        return {"O": acc}
    if ctype == "EXTRACT":
        lsb = spec.get("lsb", 0)
        return {"O": (inputs["I"] >> lsb) & m}
    if ctype == "CONST":
        return {"O": spec.get("value", 0) & m}
    if ctype == "WIRED_OR":
        n = spec.get("n_inputs", 2)
        acc = 0
        for i in range(n):
            acc |= inputs[f"I{i}"]
        return {"O": acc & m}
    if ctype == "TRISTATE":
        return {"O": (inputs["I"] & m) if inputs.get("OE", 0) & 1 else 0}
    if ctype == "BUS":
        n = spec.get("n_drivers", 2)
        acc = 0
        for i in range(n):
            if inputs.get(f"OE{i}", 0) & 1:
                acc |= inputs[f"I{i}"]
        return {"O": acc & m}
    if ctype in ("BUFFER", "DELAY", "SCHMITT", "CLOCK_DRIVER"):
        return {"O": inputs["I"] & m}
    raise ValueError(f"no combinational semantics for {ctype!r}")


_COMBINATIONAL: Dict[str, Callable[[ComponentSpec, Values], Values]] = {
    "GATE": _eval_gate,
    "MUX": _eval_mux,
    "SELECTOR": _eval_mux,
    "DECODER": _eval_decoder,
    "ENCODER": _eval_encoder,
    "ADD": lambda s, i: _eval_add_sub(s, i, "ADD"),
    "SUB": lambda s, i: _eval_add_sub(s, i, "SUB"),
    "ADDSUB": _eval_addsub,
    "INC": lambda s, i: _eval_unary_arith(s, i, "INC"),
    "DEC": lambda s, i: _eval_unary_arith(s, i, "DEC"),
    "ALU": _eval_alu,
    "COMPARATOR": _eval_comparator,
    "SHIFTER": _eval_shifter,
    "BARREL_SHIFTER": _eval_barrel,
    "MULT": _eval_mult,
    "DIV": _eval_div,
    "CLA_GEN": _eval_cla_gen,
    "CONCAT": _eval_misc,
    "EXTRACT": _eval_misc,
    "CONST": _eval_misc,
    "WIRED_OR": _eval_misc,
    "TRISTATE": _eval_misc,
    "BUS": _eval_misc,
    "BUFFER": _eval_misc,
    "DELAY": _eval_misc,
    "SCHMITT": _eval_misc,
    "CLOCK_DRIVER": _eval_misc,
}


def combinational_eval(spec: ComponentSpec, inputs: Mapping[str, int]) -> Values:
    """Evaluate a combinational component.

    ``inputs`` maps input port names to unsigned integers; the result
    maps every output port name to its value, masked to port width.
    """
    handler = _COMBINATIONAL.get(spec.ctype)
    if handler is None:
        raise ValueError(f"{spec.ctype} is not combinational")
    outputs = handler(spec, dict(inputs))
    signature = {p.name: p.width for p in port_signature(spec) if p.is_output}
    return {name: value & mask(signature[name]) for name, value in outputs.items()}


# ---------------------------------------------------------------------------
# Sequential component semantics (two-phase: outputs, then clock edge)
# ---------------------------------------------------------------------------

def sequential_reset(spec: ComponentSpec) -> State:
    """Initial state of a sequential component."""
    ctype = spec.ctype
    if ctype in ("REG", "COUNTER", "SHIFT_REG"):
        return {"q": 0}
    if ctype == "REGFILE":
        return {"words": [0] * spec.get("n_words", 4)}
    if ctype == "MEMORY":
        return {"words": [0] * spec.get("n_words", 16)}
    if ctype in ("STACK", "FIFO"):
        return {"items": []}
    raise ValueError(f"{ctype} is not sequential")


def sequential_outputs(spec: ComponentSpec, inputs: Mapping[str, int], state: State) -> Values:
    """Combinational outputs of a sequential component for the current
    state (sampled before the clock edge)."""
    ctype = spec.ctype
    m = mask(spec.width)
    if ctype == "REG":
        out = {"Q": state["q"] & m}
        if spec.get("complement_out", False):
            out["QN"] = (~state["q"]) & m
        return out
    if ctype == "SHIFT_REG":
        return {"Q": state["q"] & m, "SO": _bit(state["q"], spec.width - 1)}
    if ctype == "COUNTER":
        out = {"O0": state["q"] & m}
        if spec.get("carry_out", False):
            enable = inputs.get("CEN", 1) & 1 if spec.get("enable", False) else 1
            up = inputs.get("CUP", 0) & 1
            down = inputs.get("CDOWN", 0) & 1
            terminal_up = enable and up and state["q"] == m
            terminal_down = enable and down and state["q"] == 0
            out["CO"] = int(bool(terminal_up or terminal_down))
        return out
    if ctype == "REGFILE":
        words = state["words"]
        out = {}
        for i in range(spec.get("n_read", 1)):
            addr = inputs.get(f"RA{i}", 0)
            out[f"RD{i}"] = (words[addr] & m) if addr < len(words) else 0
        return out
    if ctype == "MEMORY":
        words = state["words"]
        addr = inputs.get("ADDR", 0)
        return {"DOUT": (words[addr] & m) if addr < len(words) else 0}
    if ctype in ("STACK", "FIFO"):
        items = state["items"]
        depth = spec.get("depth", 16)
        if not items:
            dout = 0
        elif ctype == "STACK":
            dout = items[-1]
        else:
            dout = items[0]
        return {
            "DOUT": dout & m,
            "EMPTY": int(not items),
            "FULL": int(len(items) >= depth),
        }
    raise ValueError(f"{ctype} is not sequential")


def sequential_next(spec: ComponentSpec, inputs: Mapping[str, int], state: State) -> State:
    """State after one rising clock edge."""
    ctype = spec.ctype
    m = mask(spec.width)
    if ctype == "REG":
        if spec.get("async_reset", False) and inputs.get("ARST", 0) & 1:
            return {"q": 0}
        enable = inputs.get("CEN", 1) & 1 if spec.get("enable", False) else 1
        if enable:
            return {"q": inputs["D"] & m}
        return dict(state)
    if ctype == "SHIFT_REG":
        mode = inputs.get("MODE", 0) & 3
        q = state["q"] & m
        si = inputs.get("SI", 0) & 1
        if mode == 1:
            q = inputs["D"] & m
        elif mode == 2:  # shift left
            q = ((q << 1) | si) & m
        elif mode == 3:  # shift right
            q = (q >> 1) | (si << (spec.width - 1))
        return {"q": q}
    if ctype == "COUNTER":
        if spec.get("async_set", False) and inputs.get("ASET", 0) & 1:
            return {"q": m}
        if spec.get("async_reset", False) and inputs.get("ARESET", 0) & 1:
            return {"q": 0}
        enable = inputs.get("CEN", 1) & 1 if spec.get("enable", False) else 1
        if not enable:
            return dict(state)
        ops = spec.ops or ("LOAD", "COUNT_UP", "COUNT_DOWN")
        q = state["q"] & m
        if "LOAD" in ops and inputs.get("CLOAD", 0) & 1:
            q = inputs.get("I0", 0) & m
        elif "COUNT_UP" in ops and inputs.get("CUP", 0) & 1:
            q = (q + 1) & m
        elif "COUNT_DOWN" in ops and inputs.get("CDOWN", 0) & 1:
            q = (q - 1) & m
        return {"q": q}
    if ctype == "REGFILE":
        words = list(state["words"])
        for i in range(spec.get("n_write", 1)):
            if inputs.get(f"WE{i}", 0) & 1:
                addr = inputs.get(f"WA{i}", 0)
                if addr < len(words):
                    words[addr] = inputs.get(f"WD{i}", 0) & m
        return {"words": words}
    if ctype == "MEMORY":
        words = list(state["words"])
        if inputs.get("WE", 0) & 1:
            addr = inputs.get("ADDR", 0)
            if addr < len(words):
                words[addr] = inputs.get("DIN", 0) & m
        return {"words": words}
    if ctype in ("STACK", "FIFO"):
        items = list(state["items"])
        depth = spec.get("depth", 16)
        push = inputs.get("PUSH", 0) & 1
        pop = inputs.get("POP", 0) & 1
        if pop and items:
            if ctype == "STACK":
                items.pop()
            else:
                items.pop(0)
        if push and len(items) < depth:
            items.append(inputs.get("DIN", 0) & m)
        return {"items": items}
    raise ValueError(f"{ctype} is not sequential")
