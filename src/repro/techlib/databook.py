"""A text "databook" format for RTL cell libraries.

The paper's flow treats data-book components as RTL library cells; this
module gives the reproduction a concrete interchange format so new
libraries can be loaded without writing Python::

    LIBRARY ACME-1.0u
    CELL AADD8  "8-bit adder"
      TYPE ADD WIDTH 8
      ATTR carry_in=1 carry_out=1 group_carry=1
      AREA 68.0
      DELAY A S 7.4
      DELAY CI CO 6.2
      SEQ clk_to_q=1.0 setup=0.8
    END

Attribute values: integers stay integers, ``a,b,c`` becomes a tuple,
known boolean capabilities are normalized by ``make_spec``, everything
else is a string.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.specs import make_spec
from repro.techlib.cells import CellLibrary, RTLCell, make_cell


class DatabookError(ValueError):
    """Malformed databook text; the message carries the line number."""


def _parse_value(text: str):
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        return text


def load_databook(text: str) -> CellLibrary:
    """Parse databook text into a :class:`CellLibrary`."""
    library_name = "databook"
    cells: List[RTLCell] = []

    name: Optional[str] = None
    description = ""
    ctype: Optional[str] = None
    width = 1
    attrs: Dict[str, object] = {}
    area = 0.0
    delays: Dict[Tuple[str, str], float] = {}
    clk_to_q = 0.0
    setup = 0.0

    def flush(line_no: int) -> None:
        nonlocal name
        if name is None:
            return
        if ctype is None:
            raise DatabookError(f"line {line_no}: cell {name!r} has no TYPE")
        spec = make_spec(ctype, width, **attrs)
        cells.append(
            make_cell(name, spec, area, delays=delays or None,
                      clk_to_q=clk_to_q, setup=setup, description=description)
        )
        name = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].upper()
        try:
            if keyword == "LIBRARY":
                library_name = fields[1]
            elif keyword == "CELL":
                flush(line_no)
                name = fields[1]
                quoted = raw.split('"')
                description = quoted[1] if len(quoted) >= 3 else ""
                ctype, width, attrs = None, 1, {}
                area, delays, clk_to_q, setup = 0.0, {}, 0.0, 0.0
            elif keyword == "TYPE":
                ctype = fields[1].upper()
                if len(fields) >= 4 and fields[2].upper() == "WIDTH":
                    width = int(fields[3])
            elif keyword == "ATTR":
                for pair in fields[1:]:
                    key, _, value = pair.partition("=")
                    attrs[key] = _parse_value(value)
            elif keyword == "AREA":
                area = float(fields[1])
            elif keyword == "DELAY":
                delays[(fields[1], fields[2])] = float(fields[3])
            elif keyword == "SEQ":
                for pair in fields[1:]:
                    key, _, value = pair.partition("=")
                    if key == "clk_to_q":
                        clk_to_q = float(value)
                    elif key == "setup":
                        setup = float(value)
                    else:
                        raise DatabookError(
                            f"line {line_no}: unknown SEQ field {key!r}"
                        )
            elif keyword == "END":
                flush(line_no)
            else:
                raise DatabookError(f"line {line_no}: unknown keyword {keyword!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, DatabookError):
                raise
            raise DatabookError(f"line {line_no}: {exc}") from exc
    flush(len(text.splitlines()) + 1)
    return CellLibrary(library_name, cells)


def dump_databook(library: CellLibrary) -> str:
    """Render a library back to databook text (round-trips with
    :func:`load_databook`)."""
    from repro.netlist.timing_program import CLK_PIN

    lines = [f"LIBRARY {library.name}"]
    for cell in library.cells():
        header = f"CELL {cell.name}"
        if cell.description:
            header += f'  "{cell.description}"'
        lines.append(header)
        lines.append(f"  TYPE {cell.spec.ctype} WIDTH {cell.spec.width}")
        if cell.spec.attrs:
            rendered = []
            for key, value in cell.spec.attrs:
                if isinstance(value, bool):
                    value = int(value)
                elif isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                rendered.append(f"{key}={value}")
            lines.append(f"  ATTR {' '.join(rendered)}")
        lines.append(f"  AREA {cell.area}")
        for (pin_in, pin_out), value in cell.delays:
            if CLK_PIN in (pin_in, pin_out):
                continue  # regenerated from SEQ on load
            lines.append(f"  DELAY {pin_in} {pin_out} {value}")
        if cell.clk_to_q or cell.setup:
            lines.append(f"  SEQ clk_to_q={cell.clk_to_q} setup={cell.setup}")
        lines.append("END")
    return "\n".join(lines) + "\n"
