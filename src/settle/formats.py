"""Grid text/JSON parsing and rendering.

Text format: one line per row, north row first, '#' = house, '.' = empty,
with an optional header line "rows cols boundary".  JSON format:
{"rows": m, "cols": n, "boundary": "free"|"bricked", "cells": [[0|1,...],...]}.
"""
from __future__ import annotations

import json
import re
from enum import Enum

from .errors import ParseError
from .grid import Boundary, Configuration, Dims


class RenderStyle(Enum):
    ASCII_PLAIN = "plain"
    ASCII_UNICODE = "unicode"
    SVG = "svg"


_HEADER_RE = re.compile(r"^\s*(\d+)\s+(\d+)\s+(free|bricked)\s*$")


def _parse_json(text: str) -> Configuration:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict):
        raise ParseError("JSON grid must be an object")
    for key in ("rows", "cols", "boundary", "cells"):
        if key not in obj:
            raise ParseError(f"JSON grid missing key {key!r}")
    try:
        boundary = Boundary(obj["boundary"])
    except ValueError:
        raise ParseError(f"unknown boundary {obj['boundary']!r}")
    m, n = obj["rows"], obj["cols"]
    # type(...) is int: JSON's true and false load as bools, an int subclass
    if not (type(m) is int and type(n) is int):
        raise ParseError("rows and cols must be integers")
    cells = obj["cells"]
    if not isinstance(cells, list) or len(cells) != m:
        raise ParseError(f"expected {m} cell rows, got {len(cells) if isinstance(cells, list) else type(cells).__name__}")
    bits = []
    for i, row in enumerate(cells, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"cell row has wrong length (expected {n})", line=i)
        mask = 0
        for j, v in enumerate(row, start=1):
            if type(v) is not int or v not in (0, 1):
                raise ParseError(f"cell value must be 0 or 1, got {v!r}", line=i, column=j)
            mask |= v << (j - 1)
        bits.append(mask)
    return Configuration(Dims(m, n, boundary), tuple(bits))


def parse_grid(text: str, boundary: Boundary = Boundary.FREE) -> Configuration:
    """Parse a grid in text or JSON format.

    A header line or JSON "boundary" field wins over the `boundary` argument,
    which only supplies the default for bare grids.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)

    lines = text.splitlines()
    start = 0
    declared: tuple[int, int] | None = None
    if lines:
        header = _HEADER_RE.match(lines[0])
        if header:
            declared = (int(header.group(1)), int(header.group(2)))
            boundary = Boundary(header.group(3))
            start = 1

    rows: list[int] = []
    width: int | None = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = "".join(line.split())  # whitespace inside a row is tolerated
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"ragged row: expected {width} cells, got {len(cells)}", line=lineno
            )
        mask = 0
        for col, ch in enumerate(cells, start=1):
            if ch == "#":
                mask |= 1 << (col - 1)
            elif ch != ".":
                raise ParseError(f"unexpected character {ch!r}", line=lineno, column=col)
        rows.append(mask)

    if not rows:
        raise ParseError("no grid rows found")
    assert width is not None
    if declared is not None and (len(rows), width) != declared:
        raise ParseError(
            f"header declares {declared[0]}x{declared[1]} but body is {len(rows)}x{width}",
            line=1,
        )
    return Configuration(Dims(len(rows), width, boundary), tuple(rows))


def _row_text(config: Configuration, i: int) -> str:
    bits = config.row_bits[i - 1]
    return "".join("#" if bits >> (j - 1) & 1 else "." for j in range(1, config.dims.cols + 1))


def _render_plain(config: Configuration, header: bool) -> str:
    d = config.dims
    out = []
    if header:
        out.append(f"{d.rows} {d.cols} {d.boundary.value}")
    out.extend(_row_text(config, i) for i in range(1, d.rows + 1))
    return "\n".join(out) + "\n"


def _render_unicode(config: Configuration) -> str:
    d = config.dims
    top = "┌" + "─" * d.cols + "┐"
    bottom = "└" + "─" * d.cols + "┘"
    body = [f"│{_row_text(config, i)}│" for i in range(1, d.rows + 1)]
    return "\n".join([top, *body, bottom]) + "\n"


def _render_svg(config: Configuration) -> str:
    d = config.dims
    cell = 20
    margin = 10
    arrow_h = 26
    width = d.cols * cell + 2 * margin
    height = d.rows * cell + 2 * margin + arrow_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    # north arrow, centered above the grid
    cx = width // 2
    parts.append(
        f'<line x1="{cx}" y1="{arrow_h - 4}" x2="{cx}" y2="6" stroke="black" stroke-width="2"/>'
    )
    parts.append(f'<path d="M {cx - 5} 10 L {cx} 2 L {cx + 5} 10 Z" fill="black"/>')
    parts.append(f'<text x="{cx + 8}" y="12" font-size="10" font-family="sans-serif">N</text>')
    for i in range(1, d.rows + 1):
        for j in range(1, d.cols + 1):
            x = margin + (j - 1) * cell
            y = arrow_h + margin + (i - 1) * cell
            fill = "#444444" if config.is_occupied(i, j) else "white"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="black" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(config: Configuration, style: RenderStyle = RenderStyle.ASCII_PLAIN, header: bool = False) -> str:
    """Render a configuration; deterministic, north row first."""
    if style is RenderStyle.ASCII_PLAIN:
        return _render_plain(config, header)
    if style is RenderStyle.ASCII_UNICODE:
        return _render_unicode(config)
    return _render_svg(config)


def to_json_dict(config: Configuration) -> dict:
    """The JSON-format dict for a configuration."""
    d = config.dims
    return {
        "rows": d.rows,
        "cols": d.cols,
        "boundary": d.boundary.value,
        "cells": [
            [(config.row_bits[i] >> j) & 1 for j in range(d.cols)] for i in range(d.rows)
        ],
    }


def render_json(config: Configuration) -> str:
    return json.dumps(to_json_dict(config)) + "\n"
