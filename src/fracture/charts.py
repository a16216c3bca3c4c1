"""Canonical JSON serialization and chart rendering.

The JSON form is byte stable: keys are sorted, the cell and edge arrays
are ordered by bidegree, and every value is an integer or a string, so
equal modules serialize to identical bytes.  Cells record rank, torsion
exponents and a flag, "verified" or "boundary-unverified"; these strings
belong to this format alone, as a module keeps just the set of its
unverified cells.  A zero cell appears only when unverified.  Edges
record the stored action matrices with canonical entries.  Realization
reports also carry a provenance entry per assembled cell holding the
kernel and cokernel parts and whether the extension between them is
split.

Charts draw the stem i rightward and the weight j upward.  A filled dot
is a torsion summand of exponent 1 and an open box is a free summand.
A digit from 2 to 9 is the exponent of a single larger cyclic summand
("*" past 9).  A cell with two summands shows "=", with three "≡", and
beyond that the summand count as a numeral ("#" past 9).  ASCII marks
an unverified zero with "?"; SVG draws unverified cells gray.  Edges
are drawn solid for the Euler-degree actions rho and a, dotted for v1;
every other action stays in the JSON only.

>>> from fracture.bigraded import BigradedModule, PGroup, Window
>>> m = BigradedModule(2, Window(0, 1, 0, 0), {(0, 0): PGroup(2, 1)})
>>> emit_json(m)
b'{"cells":[{"flags":["verified"],"i":0,"j":0,"rank":1,"torsion":[]}],"edges":[],"prime":2,"window":{"imax":1,"imin":0,"jmax":0,"jmin":0}}\\n'
>>> print(render_ascii(m), end="")
0 +□
  ++-
   i = 0..1
"""

from __future__ import annotations

import json

from .assembler import AssemblyReport
from .bigraded import (
    KNOWN_MULTIPLIER_DEGREES,
    BiDegree,
    BigradedModule,
    PGroup,
    PHom,
    Window,
)

FLAG_VERIFIED = "verified"
FLAG_BOUNDARY = "boundary-unverified"

ASCII_CANVAS = 200

GLYPH_DOT = "·"
GLYPH_BOX = "□"
GLYPH_PAIR = "="
GLYPH_TRIPLE = "≡"


def _group_json(g):
    return {"rank": g.rank, "torsion": list(g.torsion)}


def _charted_degrees(module):
    return sorted({*module.cells, *module.unverified})


def chart_payload(obj):
    """The serializable dict behind emit_json, for callers that want data."""
    report = obj if isinstance(obj, AssemblyReport) else None
    module = report.result if report is not None else obj
    w = module.window
    cells = []
    for d in _charted_degrees(module):
        g = module.cell(d)
        entry = {
            "i": d.i,
            "j": d.j,
            "rank": g.rank,
            "torsion": list(g.torsion),
            "flags": [FLAG_BOUNDARY if d in module.unverified else FLAG_VERIFIED],
        }
        if report is not None and d in report.parts:
            part = report.parts[d]
            entry["provenance"] = {
                "kernel": _group_json(part.kernel),
                "cokernel": _group_json(part.cokernel),
                "extension": part.extension,
            }
        cells.append(entry)
    edges = []
    for name, d in sorted(module.actions, key=lambda k: (k[1][0], k[1][1], k[0])):
        matrix = module.actions[(name, d)].entries
        edges.append({"from": [d.i, d.j], "mult": name, "matrix": [list(r) for r in matrix]})
    payload = {
        "prime": module.prime,
        "window": {"imin": w.imin, "imax": w.imax, "jmin": w.jmin, "jmax": w.jmax},
        "cells": cells,
        "edges": edges,
    }
    unknown = {
        name: list(deg)
        for name, deg in sorted(module.multipliers.items())
        if KNOWN_MULTIPLIER_DEGREES.get(name) != tuple(deg)
    }
    if unknown:
        payload["multipliers"] = unknown
    if module.caveats:
        payload["caveats"] = list(module.caveats)
    return payload


def emit_json(obj):
    """Canonical JSON bytes of a module or an assembly report.

    Identical inputs give identical bytes across runs: keys are sorted
    and arrays carry a fixed order, so the output is diffable and safe
    to hash.
    """
    return (json.dumps(chart_payload(obj), sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _integers(x, where):
    """x, an int or nested lists of ints, with lists as tuples; else a ValueError naming where."""
    if isinstance(x, list):
        return tuple(_integers(y, where) for y in x)
    if type(x) is not int:
        raise ValueError(f"{where}: {x!r} is not an integer")
    return x


def _fields(entry, keys, where):
    """The values of entry at keys, in order; a non-object or a missing key is a ValueError naming where."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: {entry!r} is not an object")
    for key in keys:
        if key not in entry:
            raise ValueError(f"{where}: no {key!r}")
    return [entry[key] for key in keys]


def _degree(x, where):
    """x, a list of two ints, as a BiDegree; else a ValueError naming where."""
    pair = _integers(x, where)
    if not isinstance(pair, tuple) or len(pair) != 2 or not all(type(c) is int for c in pair):
        raise ValueError(f"{where}: {x!r} is not a degree [i, j]")
    return BiDegree(*pair)


def load_json(data):
    """Rebuild a BigradedModule from emit_json output.

    Provenance entries are display data and are not reloaded; loading
    the emission of a report gives its result module.  Emission of the
    loaded module reproduces the module emission byte for byte.  What
    this format never writes is refused with a ValueError naming the
    field, cell or edge: a non-object or a missing field, an unknown flag,
    a non-integer number, a degree that is not a pair, a group or matrix
    that PGroup or PHom refuses, a cell outside the window or listed twice,
    and an edge whose endpoint is not a listed cell.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    payload = json.loads(data)
    prime, w, listed = _fields(payload, ("prime", "window", "cells"), "chart")
    prime = _integers(prime, "prime")
    window = Window(*_integers(_fields(w, ("imin", "imax", "jmin", "jmax"), "window"), "window"))
    cells = {}
    unverified = set()
    for entry in listed:
        where = f"cell ({entry.get('i')!r}, {entry.get('j')!r})" if isinstance(entry, dict) else "cell"
        i, j, rank, torsion = _integers(_fields(entry, ("i", "j", "rank", "torsion"), where), where)
        d = BiDegree(i, j)
        if not window.contains(d):
            raise ValueError(f"{where}: outside the window {tuple(window)}")
        if d in cells:
            raise ValueError(f"{where}: listed twice")
        try:
            cells[d] = PGroup(prime, rank, torsion)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        for flag in entry.get("flags") or ():
            if flag == FLAG_BOUNDARY:
                unverified.add(d)
            elif flag != FLAG_VERIFIED:
                raise ValueError(f"{where}: unknown flag {flag!r}")
    multipliers = {n: _degree(deg, f"multiplier {n}") for n, deg in payload.get("multipliers", {}).items()}
    actions = {}
    for edge in payload.get("edges", ()):
        name, start, matrix = _fields(edge, ("mult", "from", "matrix"), f"edge {edge!r}")
        if name not in multipliers:
            deg = KNOWN_MULTIPLIER_DEGREES.get(name)
            if deg is None:
                raise ValueError(f"edge multiplier {name!r} has no known degree")
            multipliers[name] = BiDegree(*deg)
        where = f"edge {name} from {tuple(start) if isinstance(start, list) else start!r}"
        d = _degree(start, where)
        t = d + multipliers[name]
        for c in (d, t):
            if c not in cells:
                raise ValueError(f"{where}: endpoint {tuple(c)} is not a listed cell")
        entries = _integers(matrix, where)
        try:
            actions[(name, d)] = PHom(cells[d], cells[t], entries)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    caveats = tuple(payload.get("caveats", ()))
    return BigradedModule(prime, window, cells, actions, multipliers, unverified, caveats)


def _glyph(group, verified=True):
    """One display character for one cell.

    >>> _glyph(PGroup(2, 0, (1,)))
    '·'
    >>> _glyph(PGroup(2, 0, (3,)))
    '3'
    >>> _glyph(PGroup(2, 0, (1, 1)))
    '='
    """
    if group.is_zero():
        return " " if verified else "?"
    n = group.ngens
    if n == 1:
        if group.rank:
            return GLYPH_BOX
        e = group.torsion[0]
        if e == 1:
            return GLYPH_DOT
        return str(e) if e <= 9 else "*"
    if n == 2:
        return GLYPH_PAIR
    if n == 3:
        return GLYPH_TRIPLE
    return str(n) if n <= 9 else "#"


def render_ascii(module):
    """One character per bidegree of the module's window, j increasing upward.

    The row prefix labels j and the axis column switches to "+" on the
    j = 0 row; the bottom border marks the i = 0 column the same way.
    """
    w = module.window
    if w.width + 1 > ASCII_CANVAS or w.height + 1 > ASCII_CANVAS:
        raise ValueError(
            f"window {tuple(w)} overflows the ascii canvas of {ASCII_CANVAS} cells per side"
        )
    label = max(len(str(w.jmin)), len(str(w.jmax)))
    lines = []
    for j in range(w.jmax, w.jmin - 1, -1):
        axis = "+" if j == 0 else "|"
        row = "".join(
            _glyph(module.cell((i, j)), (i, j) not in module.unverified) for i in range(w.imin, w.imax + 1)
        )
        lines.append(f"{j:>{label}} {axis}{row}".rstrip())
    border = "".join("+" if i == 0 else "-" for i in range(w.imin, w.imax + 1))
    lines.append(" " * label + " +" + border)
    lines.append(" " * label + f"  i = {w.imin}..{w.imax}")
    return "\n".join(lines) + "\n"


def render_svg(module):
    """Deterministic SVG 1.1 of the module's window, glyphs on a 24 px lattice.

    Edges are drawn under the glyphs, rho and a as solid segments and v1
    dotted; unverified cells come out gray.
    """
    w = module.window
    s = 24

    def x(i):
        return (i - w.imin + 1) * s

    def y(j):
        return (w.jmax - j + 1) * s

    width = (w.width + 2) * s
    height = (w.height + 2) * s
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
    ]
    if w.imin <= 0 <= w.imax:
        out.append(
            f'<line x1="{x(0)}" y1="{y(w.jmax) - s // 2}" x2="{x(0)}"'
            f' y2="{y(w.jmin) + s // 2}" stroke="#cccccc" stroke-width="1"/>'
        )
    if w.jmin <= 0 <= w.jmax:
        out.append(
            f'<line x1="{x(w.imin) - s // 2}" y1="{y(0)}" x2="{x(w.imax) + s // 2}"'
            f' y2="{y(0)}" stroke="#cccccc" stroke-width="1"/>'
        )
    for name, d in sorted(module.actions, key=lambda k: (k[1][0], k[1][1], k[0])):
        if name not in ("rho", "a", "v1"):
            continue
        t = d + module.multipliers[name]
        if not w.contains(d) or not w.contains(t):
            continue
        dash = ' stroke-dasharray="4,3"' if name == "v1" else ""
        out.append(
            f'<line x1="{x(d.i)}" y1="{y(d.j)}" x2="{x(t.i)}" y2="{y(t.j)}"'
            f' stroke="#000000" stroke-width="1"{dash}/>'
        )
    for d in _charted_degrees(module):
        if not w.contains(d):
            continue
        g = module.cell(d)
        color = "#888888" if d in module.unverified else "#000000"
        cx, cy = x(d.i), y(d.j)
        if g.is_zero():
            out.append(
                f'<text x="{cx}" y="{cy + 4}" font-size="11" text-anchor="middle"'
                f' fill="{color}">?</text>'
            )
        elif g.rank:
            out.append(
                f'<rect x="{cx - 5}" y="{cy - 5}" width="10" height="10" fill="#ffffff"'
                f' stroke="{color}" stroke-width="1"/>'
            )
        elif g.torsion[0] == 1:
            out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            out.append(
                f'<text x="{cx}" y="{cy + 4}" font-size="11" text-anchor="middle"'
                f' fill="{color}">{g.torsion[0]}</text>'
            )
        if g.ngens > 1:
            out.append(
                f'<text x="{cx + 6}" y="{cy - 5}" font-size="8" fill="{color}">{g.ngens}</text>'
            )
    out.append(
        f'<text x="{x(w.imin)}" y="{height - 4}" font-size="9" text-anchor="middle">{w.imin}</text>'
    )
    out.append(
        f'<text x="{x(w.imax)}" y="{height - 4}" font-size="9" text-anchor="middle">{w.imax}</text>'
    )
    out.append(f'<text x="4" y="{y(w.jmin) + 3}" font-size="9">{w.jmin}</text>')
    out.append(f'<text x="4" y="{y(w.jmax) + 3}" font-size="9">{w.jmax}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(obj, format="ascii"):
    """Render a module or report to bytes in the asked-for format.

    json keeps report provenance; ascii and svg draw the result module.
    """
    if format == "json":
        return emit_json(obj)
    module = obj.result if isinstance(obj, AssemblyReport) else obj
    if format == "ascii":
        return render_ascii(module).encode("utf-8")
    if format == "svg":
        return render_svg(module).encode("utf-8")
    raise ValueError(f"unknown format {format!r}")
