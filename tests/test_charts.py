"""Serialization and rendering against frozen bytes and shape oracles.

The JSON tests pin the schema and the byte-for-byte round trip; the
ASCII tests recover glyph positions from the canvas and compare them to
the closed-form cell laws; the SVG tests parse the document and check
the edge geometry instead of trusting string fragments.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from fracture.assembler import AssemblyReport, assemble, corners, realize
from fracture.bigraded import (
    BigradedModule,
    PGroup,
    PHom,
    Window,
)
from fracture.charts import (
    FLAG_BOUNDARY,
    FLAG_VERIFIED,
    chart_payload,
    emit_json,
    load_json,
    render,
    render_ascii,
    render_svg,
)
from fracture.localization import complete, invert
from fracture.presentation import expand
from fracture.presets import preset_presentation, reference_realization

from helpers import cellwise_equal

SQUARE_5 = Window(-5, 5, -5, 5)


def small_module() -> BigradedModule:
    a = PGroup(2, 1, (2,))
    b = PGroup(2, 0, (1,))
    rho = PHom(a, b, ((1, 1),))
    return BigradedModule(
        2,
        Window(-1, 1, -1, 1),
        {(0, 0): a, (-1, -1): b},
        {("rho", (0, 0)): rho},
        {"rho": (-1, -1)},
        [(1, 1)],
    )


def test_emit_json_zero_module() -> None:
    payload = chart_payload(BigradedModule(3, Window(-2, 2, -2, 2), {}))
    assert payload["cells"] == []
    assert payload["edges"] == []
    assert payload["prime"] == 3
    assert payload["window"] == {"imin": -2, "imax": 2, "jmin": -2, "jmax": 2}


def test_emit_json_is_sorted_and_byte_stable() -> None:
    first = emit_json(small_module())
    second = emit_json(small_module())
    assert first == second
    text = first.decode("ascii")
    assert text.index('"cells"') < text.index('"edges"') < text.index('"prime"')
    payload = json.loads(text)
    listed = [(c["i"], c["j"]) for c in payload["cells"]]
    assert listed == sorted(listed)


def test_emit_json_frozen_motivic_cell() -> None:
    module = expand(preset_presentation("hf2"), SQUARE_5)
    payload = chart_payload(module)
    cell = next(c for c in payload["cells"] if (c["i"], c["j"]) == (-1, -1))
    assert cell["rank"] == 0
    assert cell["torsion"] == [1]
    assert cell["flags"] == ["verified"]


def test_emit_json_frozen_realized_box() -> None:
    module = reference_realization("hz2", 2, SQUARE_5)
    payload = chart_payload(module)
    cell = next(c for c in payload["cells"] if (c["i"], c["j"]) == (0, 0))
    assert cell["rank"] == 1
    assert cell["torsion"] == []


def test_json_round_trip_is_identity_on_bytes() -> None:
    for module in (
        small_module(),
        expand(preset_presentation("hf2"), SQUARE_5),
        expand(preset_presentation("kgl2"), SQUARE_5),
    ):
        blob = emit_json(module)
        back = load_json(blob)
        assert emit_json(back) == blob
        assert cellwise_equal(back, module)
        assert back.unverified == module.unverified
        assert set(back.actions) == set(module.actions)
        for key, f in module.actions.items():
            assert back.actions[key] == f


def test_json_keeps_unverified_zero_cells() -> None:
    module = small_module()
    payload = chart_payload(module)
    flagged = next(c for c in payload["cells"] if (c["i"], c["j"]) == (1, 1))
    assert flagged["rank"] == 0
    assert flagged["torsion"] == []
    assert flagged["flags"] == [FLAG_BOUNDARY]
    back = load_json(emit_json(module))
    assert back.unverified == {(1, 1)}


@pytest.mark.parametrize("flags", [["maybe"], ["verified", "maybe"], ["Verified"]])
def test_load_json_refuses_an_unknown_flag(flags) -> None:
    payload = chart_payload(small_module())
    cell = next(c for c in payload["cells"] if (c["i"], c["j"]) == (0, 0))
    cell["flags"] = flags
    with pytest.raises(ValueError, match=rf"^cell \(0, 0\): unknown flag '{flags[-1]}'$"):
        load_json(json.dumps(payload))


def two_cell_payload() -> dict:
    """The payload of Z --tau--> Z on the window i = 0, j = -1..0."""
    z = PGroup(2, 1, ())
    module = BigradedModule(
        2, Window(0, 0, -1, 0), {(0, 0): z, (0, -1): z}, {("tau", (0, 0)): PHom(z, z, ((1,),))}, {"tau": (0, -1)}
    )
    return chart_payload(module)


# (how to spoil the two-cell payload, what load_json must say); cells[0]
# is (0, -1), and a list a spoiler returns is loaded in the payload's place
MALFORMED = {
    "chart-without-prime": (lambda p: p.__delitem__("prime"), r"chart: no 'prime'"),
    "chart-without-window": (lambda p: p.__delitem__("window"), r"chart: no 'window'"),
    "chart-without-cells": (lambda p: p.__delitem__("cells"), r"chart: no 'cells'"),
    "window-without-jmax": (lambda p: p["window"].__delitem__("jmax"), r"window: no 'jmax'"),
    "chart-that-is-a-list": (lambda p: [p], r"chart: \[\{.*\}\] is not an object"),
    "cell-that-is-a-number": (lambda p: p.update(cells=[5]), r"cell: 5 is not an object"),
    "edge-that-is-a-number": (lambda p: p["edges"].append(5), r"edge 5: 5 is not an object"),
    "edge-to-unlisted-cell": (
        lambda p: p["edges"].append({"from": [0, 0], "mult": "v1", "matrix": [[1]]}),
        r"edge v1 from \(0, 0\): endpoint \(2, 1\) is not a listed cell",
    ),
    "edge-from-unlisted-cell": (
        lambda p: p["edges"].append({"from": [0, 1], "mult": "tau", "matrix": [[1]]}),
        r"edge tau from \(0, 1\): endpoint \(0, 1\) is not a listed cell",
    ),
    "cell-outside-window": (
        lambda p: p["cells"].append({**p["cells"][0], "i": 3}),
        r"cell \(3, -1\): outside the window \(0, 0, -1, 0\)",
    ),
    "cell-listed-twice": (lambda p: p["cells"].append(dict(p["cells"][0])), r"cell \(0, -1\): listed twice"),
    "fractional-matrix-entry": (
        lambda p: p["edges"][0].update(matrix=[[1.7]]),
        r"edge tau from \(0, 0\): 1.7 is not an integer",
    ),
    "fractional-torsion": (
        lambda p: p["cells"][0].update(rank=0, torsion=[1.9]),
        r"cell \(0, -1\): 1.9 is not an integer",
    ),
    "fractional-rank": (lambda p: p["cells"][0].update(rank=1.0), r"cell \(0, -1\): 1.0 is not an integer"),
    "fractional-degree": (lambda p: p["cells"][0].update(i=0.4), r"cell \(0.4, -1\): 0.4 is not an integer"),
    "boolean-entry": (
        lambda p: p["edges"][0].update(matrix=[[True]]),
        r"edge tau from \(0, 0\): True is not an integer",
    ),
    "edge-from-one-coordinate": (
        lambda p: p["edges"][0].update({"from": [0]}),
        r"edge tau from \(0,\): \[0\] is not a degree \[i, j\]",
    ),
    "cell-without-rank": (lambda p: p["cells"][0].pop("rank"), r"cell \(0, -1\): no 'rank'"),
    "increasing-torsion": (
        lambda p: p["cells"][0].update(rank=0, torsion=[2, 3]),
        r"cell \(0, -1\): torsion exponents must be nonincreasing: \(2, 3\)",
    ),
    "negative-rank": (lambda p: p["cells"][0].update(rank=-1), r"cell \(0, -1\): negative rank"),
    "matrix-of-the-wrong-shape": (
        lambda p: p["edges"][0].update(matrix=[[1, 0]]),
        r"edge tau from \(0, 0\): matrix shape 1x2 does not match 1x1",
    ),
}


def test_the_unspoiled_two_cell_payload_loads() -> None:
    payload = two_cell_payload()
    assert len(payload["cells"]) == 2 and len(payload["edges"]) == 1
    assert chart_payload(load_json(json.dumps(payload))) == payload


@pytest.mark.parametrize("case", MALFORMED)
def test_load_json_refuses_what_emit_json_never_writes(case) -> None:
    spoil, message = MALFORMED[case]
    payload = two_cell_payload()
    spoiled = spoil(payload)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_json(json.dumps(spoiled if isinstance(spoiled, list) else payload))


def test_a_hand_built_module_emits_canonical_edge_matrices() -> None:
    a, b = PGroup(2, 1, (2,)), PGroup(2, 0, (1,))
    module = BigradedModule(
        2, Window(-1, 0, -1, 0), {(0, 0): a, (-1, -1): b}, {("rho", (0, 0)): PHom(a, b, ((3, -6),))}, {"rho": (-1, -1)}
    )
    (edge,) = chart_payload(module)["edges"]
    assert edge["matrix"] == [[1, 0]]


EMISSIONS = {
    "hand": small_module,
    "expand-kgl2": lambda: expand(preset_presentation("kgl2"), SQUARE_5),
    "invert-hf2": lambda: invert("hf2", "tau", window=SQUARE_5),
    "complete-hz2": lambda: complete("hz2", "rho", window=SQUARE_5),
    "assemble-hf2": lambda: assemble(corners(preset_presentation("hf2"), Window(-3, 3, -3, 3))),
    "realize-kgl2": lambda: realize("kgl2", 2, (-3, 3, -3, 3)),
    "realize-hfp-odd": lambda: realize("hfp_odd", 3, (-3, 3, -3, 3)),
}


@pytest.mark.parametrize("name", sorted(EMISSIONS))
def test_every_emission_round_trips_byte_for_byte(name) -> None:
    obj = EMISSIONS[name]()
    module = obj.result if isinstance(obj, AssemblyReport) else obj
    blob = emit_json(module)
    back = load_json(blob)
    assert emit_json(back) == blob
    assert back.unverified == module.unverified
    # a report's emission reloads as its result module
    assert emit_json(load_json(emit_json(obj))) == blob


def test_round_tripped_emissions_cover_both_flags() -> None:
    flags = set()
    for build in EMISSIONS.values():
        for cell in chart_payload(build())["cells"]:
            flags.update(cell["flags"])
    assert flags == {FLAG_VERIFIED, FLAG_BOUNDARY}


def test_report_emission_carries_provenance() -> None:
    report = realize("hf2", 2, (-3, 3, -3, 3))
    payload = chart_payload(report)
    cell = next(c for c in payload["cells"] if (c["i"], c["j"]) == (0, 2))
    assert cell["provenance"]["extension"] == "split"
    assert cell["provenance"]["cokernel"] == {"rank": 0, "torsion": [1]}
    assert cell["provenance"]["kernel"] == {"rank": 0, "torsion": []}
    back = load_json(emit_json(report))
    assert cellwise_equal(back, report.result)
    assert emit_json(back) == emit_json(report.result)


def test_ascii_zero_module_is_axes_only() -> None:
    canvas = render_ascii(BigradedModule(2, Window(-1, 1, -1, 1), {}))
    assert canvas == (
        " 1 |\n"
        " 0 +\n"
        "-1 |\n"
        "   +-+-\n"
        "    i = -1..1\n"
    )


def test_ascii_two_cone_shape() -> None:
    window = Window(-6, 6, -6, 6)
    canvas = render_ascii(reference_realization("hf2", 2, window))
    dots = set()
    for line in canvas.splitlines():
        if "|" not in line and "+" not in line:
            continue
        if line.lstrip().startswith("i ="):
            continue
        prefix, _, row = line.partition("|") if "|" in line else line.partition("+")
        if not prefix.strip().lstrip("-").isdigit():
            continue
        j = int(prefix)
        for col, ch in enumerate(row):
            if ch == "·":
                dots.add((window.imin + col, j))
    expected = {
        (i, j)
        for i in range(-6, 7)
        for j in range(-6, 7)
        if (i <= 0 and j <= i) or (i >= 0 and j >= i + 2)
    }
    assert dots == expected


def test_ascii_glyph_legend() -> None:
    window = Window(0, 4, 0, 0)
    module = BigradedModule(
        2,
        window,
        {
            (0, 0): PGroup(2, 1),
            (1, 0): PGroup(2, 0, (3,)),
            (2, 0): PGroup(2, 0, (1, 1)),
            (3, 0): PGroup(2, 1, (1, 1)),
            (4, 0): PGroup(2, 0, (1, 1, 1, 1)),
        },
    )
    canvas = render_ascii(module)
    row = canvas.splitlines()[0]
    assert row == "0 +□3=≡4"


def test_ascii_marks_unverified_zero() -> None:
    canvas = render_ascii(small_module())
    top = canvas.splitlines()[0]
    assert top.endswith("?")


def test_ascii_canvas_overflow() -> None:
    wide = BigradedModule(2, Window(0, 500, 0, 0), {})
    with pytest.raises(ValueError, match="overflows the ascii canvas"):
        render_ascii(wide)


def svg_lines(svg: str) -> list:
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [el.attrib for el in root.iter(f"{ns}line")]


def test_svg_edge_geometry() -> None:
    report = realize("kgl2", 2, (-4, 4, -4, 4))
    svg = render_svg(report.result)
    assert render_svg(report.result) == svg
    dotted = []
    solid = []
    for attrs in svg_lines(svg):
        if attrs.get("stroke") != "#000000":
            continue
        step = (
            int(attrs["x2"]) - int(attrs["x1"]),
            int(attrs["y1"]) - int(attrs["y2"]),
        )
        if "stroke-dasharray" in attrs:
            dotted.append(step)
        else:
            solid.append(step)
    assert dotted and set(dotted) == {(2 * 24, 24)}
    assert solid and set(solid) == {(-24, -24)}


def test_svg_parses_and_marks_unverified_gray() -> None:
    svg = render_svg(small_module())
    root = ET.fromstring(svg)
    assert root.attrib["version"] == "1.1"
    texts = [el for el in root.iter("{http://www.w3.org/2000/svg}text") if el.text == "?"]
    assert len(texts) == 1
    assert texts[0].attrib["fill"] == "#888888"


def test_render_dispatch() -> None:
    module = small_module()
    assert render(module, format="json") == emit_json(module)
    assert render(module, format="ascii") == render_ascii(module).encode("utf-8")
    assert render(module, format="svg") == render_svg(module).encode("utf-8")
    report = realize("hf2", 2, (-2, 2, -2, 2))
    assert b"provenance" in render(report, format="json")
    assert render(report, format="ascii") == render_ascii(report.result).encode("utf-8")
    with pytest.raises(ValueError, match="unknown format"):
        render(module, format="pdf")
