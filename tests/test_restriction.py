"""Each stage reads only part of the padded expansion; the answers do not move.

realize, odd_split and rho_complete_defect hand each stage the part of
the expansion its chains reach, and invert and complete compute only the
cells of the window they are asked for.  The reference path here runs
the same public stages on the whole expansion, the way the pipeline did
before the restriction, and must give the same bytes on seeded random
windows.
"""

import random
import re

import pytest

from fracture import emit_json
from fracture.assembler import AssemblyReport, assemble, corners, odd_split, realize, rho_complete_defect
from fracture.bigraded import Window, cellwise_diff, restrict
from fracture.localization import complete, invert
from fracture.presentation import expand, parse_presentation
from fracture.presets import preset_presentation

# HF2 with one more generator of mixed-sign degree: its action steps down
# in j but up in i, against the direction of the tau- and rho-chains.
MIXED_SOURCE = """\
prime 2
gen tau 0 -1
gen rho -1 -1
gen w 3 -2
rel 2·1
rel 1·w^2
span 1·1
span 1·tau
span 1·rho
span 1·w
"""

RHO_INVERTED_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""

PRESENTATIONS = {
    "HF2_R": lambda: preset_presentation("HF2_R"),
    "HZ2_R": lambda: preset_presentation("HZ2_R"),
    "KGL2_R": lambda: preset_presentation("KGL2_R"),
    "HFP_ODD_R": lambda: preset_presentation("HFP_ODD_R", 3),
    "mixed": lambda: parse_presentation(MIXED_SOURCE),
}


def random_windows(seed, count=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        imin, jmin = rng.randint(-8, 4), rng.randint(-8, 4)
        out.append(Window(imin, imin + rng.randint(0, 4), jmin, jmin + rng.randint(0, 4)))
    return out


CASES = [
    (name, core, pad)
    for k, name in enumerate(PRESENTATIONS)
    for core in random_windows(100 + k)
    for pad in (None, 2)
]


def padded(pres, core, pad):
    """The expansion realize works on: the core padded by pad, and by four
    more cells below for the tallest tau power step."""
    pad = max(core.width, core.height) + 4 if pad is None else pad
    big = Window(core.imin - pad, core.imax + pad, core.jmin - pad - 4, core.jmax + pad)
    return expand(pres, big, budget=2_000_000), pad


def whole_window_realize(pres, core, pad):
    expanded, pad = padded(pres, core, pad)
    big = expanded.window
    margin = Window(
        max(core.imin - 2, big.imin),
        min(core.imax + 2, big.imax),
        max(core.jmin - 2, big.jmin),
        min(core.jmax + 2, big.jmax),
    )
    report = assemble(corners(expanded, rho_complete=True, steps=pad), margin)
    parts = {d: part for d, part in report.parts.items() if core.contains(d)}
    return AssemblyReport(restrict(report.result, core), parts, report.tau_name, report.dropped)


@pytest.mark.parametrize("name,core,pad", CASES)
def test_realize_matches_whole_window_path(name, core, pad) -> None:
    pres = PRESENTATIONS[name]()
    got = realize(pres, pres.prime, core, rho_complete=True, pad=pad)
    want = whole_window_realize(pres, core, pad)
    assert emit_json(got) == emit_json(want)
    assert got.dropped == want.dropped


def odd_split_outcome(run):
    try:
        phi, unit = run()
    except ValueError as exc:
        return str(exc)
    return emit_json(phi), emit_json(unit)


def whole_window_odd_split(pres, core, pad):
    expanded, pad = padded(pres, core, pad)
    phi = invert(expanded, "rho", steps=pad)
    unit = invert(complete(expanded, "rho", steps=pad), "tau2", steps=pad)
    tate = invert(unit, "rho", steps=pad)
    bad = [d for d in core.cells() if not tate.cell(d).is_zero()]
    if bad:
        raise ValueError(f"Tate corner is nonzero at {bad[:4]}; the odd split does not apply")
    return restrict(phi, core), restrict(unit, core)


@pytest.mark.parametrize("core", random_windows(7, count=4))
@pytest.mark.parametrize("pad", [None, 2])
def test_odd_split_matches_whole_window_path(core, pad) -> None:
    pres = PRESENTATIONS["HFP_ODD_R"]()
    got = odd_split_outcome(lambda: odd_split(pres, 3, core, pad=pad))
    assert got == odd_split_outcome(lambda: whole_window_odd_split(pres, core, pad))


@pytest.mark.parametrize("name", [*PRESENTATIONS, "rho-inverted"])
def test_rho_complete_defect_matches_whole_window_path(name) -> None:
    pres = parse_presentation(RHO_INVERTED_SOURCE) if name == "rho-inverted" else PRESENTATIONS[name]()
    # a rho-periodic input shows its defect on the diagonal i = j
    diagonal = Window(-2, 2, -2, 2)
    for core in [diagonal, *random_windows(200, count=3)]:
        for pad in (None, 2):
            module, _ = padded(pres, core, pad)
            want = cellwise_diff(restrict(complete(module, "rho"), core), restrict(module, core))
            assert rho_complete_defect(module, core) == want
            if name == "rho-inverted" and core == diagonal:
                assert want


# the expansion the windowed localizations run on
LOCAL_WINDOW = Window(-5, 5, -6, 4)


def output_windows(seed, w):
    """Seeded windows inside w: two random ones, one cell, one on each edge, and w."""
    rng = random.Random(seed)

    def inside():
        imin, imax = sorted(rng.randint(w.imin, w.imax) for _ in range(2))
        jmin, jmax = sorted(rng.randint(w.jmin, w.jmax) for _ in range(2))
        return Window(imin, imax, jmin, jmax)

    i, j = rng.randint(w.imin, w.imax), rng.randint(w.jmin, w.jmax)
    edges = [
        inside()._replace(imin=w.imin),
        inside()._replace(imax=w.imax),
        inside()._replace(jmin=w.jmin),
        inside()._replace(jmax=w.jmax),
    ]
    return [inside(), inside(), Window(i, i, j, j), *edges, w]


@pytest.mark.parametrize("operation", [invert, complete])
@pytest.mark.parametrize("name", PRESENTATIONS)
def test_windowed_localization_matches_restricted_whole_window(name, operation) -> None:
    module = expand(PRESENTATIONS[name](), LOCAL_WINDOW)
    for k, mult in enumerate(sorted(module.multipliers)):
        for steps in (None, 2):
            whole = operation(module, mult, steps=steps)
            for window in output_windows(300 + k, LOCAL_WINDOW):
                got = operation(module, mult, steps=steps, window=window)
                assert got.window == window
                assert emit_json(got) == emit_json(restrict(whole, window))


@pytest.mark.parametrize("operation", [invert, complete])
def test_windowed_localization_refuses_window_outside_module(operation) -> None:
    module = expand(PRESENTATIONS["HF2_R"](), LOCAL_WINDOW)
    for window in [LOCAL_WINDOW._replace(imax=6), LOCAL_WINDOW._replace(jmin=-7), Window(7, 8, 0, 1)]:
        with pytest.raises(ValueError, match="not inside"):
            operation(module, "rho", window=window)


def test_rho_complete_defect_refuses_window_outside_module_naming_its_window() -> None:
    module = expand(PRESENTATIONS["HF2_R"](), Window(-5, 5, -6, 4))
    for window in [Window(3, 7, 0, 1), Window(-5, 5, -7, 4), Window(7, 8, 0, 1)]:
        message = f"window {tuple(window)} is not inside the module's window (-5, 5, -6, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rho_complete_defect(module, window)
