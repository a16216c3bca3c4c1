"""Each stage reads only part of what it could; the answers do not move.

realize and odd_split expand their corners on the window they answer
(plus the boundary column the splice reads), so a cell of realize(M, W)
must equal the same cell of realize(M, W') for every W' containing W,
on the presets and on seeded random presentations.  rho_complete_defect
hands completion the part of the expansion its chains reach, and invert
and complete compute only the cells of the window they are asked for;
the reference path here runs the same public stages on the whole
expansion and must give the same bytes on seeded random windows.  The
windows realize asks to expand are recorded here too: the contract
check's padded window, only for an input that inverts rho, then the
corners'.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture import emit_json
from fracture.assembler import RhoCompleteError, odd_split, realize, rho_complete_defect
from fracture.bigraded import Window, cellwise_diff, restrict
from fracture.localization import complete, invert
from fracture.presentation import expand, parse_presentation
from fracture.presets import preset_presentation

from helpers import expanded_windows, inverse_free_rho_presentations, odd_rho_complete_presentations

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

# rho inverted, with a tau; its completion agrees with it on (-4,-1,1,4)
RHO_TAU_SOURCE = """\
prime 2
gen rho -1 -1 inv
gen tau 0 -1
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
span 1·tau
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


CASES = [(name, core) for k, name in enumerate(PRESENTATIONS) for core in random_windows(100 + k)]


def padded(pres, core, pad):
    """The expansion the contract check compares on: the core padded by pad,
    and by four more cells below for the tallest tau power step."""
    pad = max(core.width, core.height) + 4 if pad is None else pad
    big = Window(core.imin - pad, core.imax + pad, core.jmin - pad - 4, core.jmax + pad)
    return expand(pres, big, budget=2_000_000), pad


def around(core):
    """A larger window around the core, reaching past it by 1 to 3 cells on each side."""
    return Window(core.imin - 3, core.imax + 2, core.jmin - 1, core.jmax + 3)


def realize_outcome(pres, window, core=None):
    """realize's result bytes, parts and dropped actions on the window, cut to core, or its refusal."""
    try:
        report = realize(pres, pres.prime, window)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    core = window if core is None else core
    parts = {d: part for d, part in report.parts.items() if core.contains(d)}
    dropped = tuple(entry for entry in report.dropped if core.contains(entry[1]))
    return emit_json(restrict(report.result, core)), parts, dropped


@pytest.mark.parametrize("name,core", CASES)
def test_realize_is_window_independent(name, core) -> None:
    # each cell, action and provenance entry of realize(M, W) is that of realize(M, W') for W in W'
    pres = PRESENTATIONS[name]()
    assert realize_outcome(pres, core) == realize_outcome(pres, around(core), core)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    pres=st.one_of(odd_rho_complete_presentations(), inverse_free_rho_presentations()),
    corner=st.sampled_from([(-3, -3), (-6, 0), (0, -6), (2, 2)]),
)
def test_random_realizations_are_window_independent(pres, corner) -> None:
    core = Window(corner[0], corner[0] + 3, corner[1], corner[1] + 3)
    assert realize_outcome(pres, core) == realize_outcome(pres, around(core), core)


@pytest.mark.parametrize("core", random_windows(7, count=4))
def test_odd_split_is_window_independent(core) -> None:
    pres = PRESENTATIONS["HFP_ODD_R"]()
    got = odd_split(pres, 3, core)
    wide = odd_split(pres, 3, around(core))
    assert [emit_json(part) for part in got] == [emit_json(restrict(part, core)) for part in wide]


def test_a_checked_rho_inverted_input_expands_the_padded_window(monkeypatch) -> None:
    pres = parse_presentation(RHO_TAU_SOURCE)
    core = Window(-4, -1, 1, 4)
    corner_window = Window(-4, 0, 1, 4)
    reports = []
    # the degreewise check runs and passes on the whole padded window (pad 7),
    # then the three corners are expanded on the core and its boundary column
    seen = expanded_windows(monkeypatch, lambda: reports.append(realize(pres, 2, core)))
    assert seen == [Window(-11, 6, -10, 11), *[corner_window] * 3]
    # asserted rho-complete, only the corners are expanded
    seen = expanded_windows(monkeypatch, lambda: reports.append(realize(pres, 2, core, rho_complete=True)))
    assert seen == [corner_window] * 3
    checked, asserted = reports
    assert emit_json(checked) == emit_json(asserted)
    assert checked.dropped == asserted.dropped

    def refused():
        with pytest.raises(RhoCompleteError):
            realize(parse_presentation(RHO_INVERTED_SOURCE), 2, Window(-3, 3, -3, 3))

    assert expanded_windows(monkeypatch, refused) == [Window(-13, 13, -17, 13)]


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
