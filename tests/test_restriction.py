"""Each stage reads only part of what it could; the answers do not move.

realize and odd_split expand their corners on the window they answer
(plus the boundary column the splice reads), and invert and complete
expand on the window they are asked for, so a cell of realize(M, W) must
equal the same cell of realize(M, W') for every W' containing W, on the
presets and on seeded random presentations, and likewise for the
localizations.  The windows realize asks to expand are recorded here
too: the corners', and none for an input the contract refuses.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture import emit_json
from fracture.assembler import RhoCompleteError, odd_split, realize
from fracture.bigraded import Window, restrict
from fracture.localization import complete, invert
from fracture.presentation import parse_presentation, span_actions
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

# rho inverted, with a tau; its expansion is zero on (-4,-1,1,4)
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


def test_a_refused_input_expands_nothing_and_an_asserted_one_only_its_corners(monkeypatch) -> None:
    pres = parse_presentation(RHO_TAU_SOURCE)
    core = Window(-4, -1, 1, 4)

    def refused():
        with pytest.raises(RhoCompleteError):
            realize(pres, 2, core)

    # rho^-1 is a span term, so the input is rho-periodic on every window
    assert expanded_windows(monkeypatch, refused) == []
    # asserted rho-complete, the three corners are expanded on the core and its boundary column
    seen = expanded_windows(monkeypatch, lambda: realize(pres, 2, core, rho_complete=True))
    assert seen == [Window(-4, 0, 1, 4)] * 3


# the window the localizations answer on, and seeded windows inside it
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


def localization_outcome(operation, pres, mult, window, core=None):
    """The localization's bytes on the window, cut to core, or its refusal."""
    try:
        module = operation(pres, mult, window=window)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return emit_json(restrict(module, window if core is None else core))


@pytest.mark.parametrize("operation", [invert, complete])
@pytest.mark.parametrize("name", [*PRESENTATIONS, "rho-tau"])
def test_localizations_are_window_independent(name, operation) -> None:
    pres = parse_presentation(RHO_TAU_SOURCE) if name == "rho-tau" else PRESENTATIONS[name]()
    for k, mult in enumerate(span_actions(pres)):
        for window in output_windows(300 + k, LOCAL_WINDOW):
            got = localization_outcome(operation, pres, mult, window)
            assert got == localization_outcome(operation, pres, mult, LOCAL_WINDOW, window), (mult, window)
