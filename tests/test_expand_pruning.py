"""expand stops at monomials a relation has killed; nothing it returns moves.

unpruned_expand below builds a module on helpers.live_monomials, the
search expand ran before it learned to prune: every settled monomial is
extended, dead or alive.  Both must give the same cells, actions and
bytes on every preset's padded realize window and on small random
presentations.
"""

from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture import emit_json
from fracture.bigraded import BigradedModule, PGroup, PHom, Window
from fracture.presentation import expand, parse_presentation
from fracture.presets import preset_presentation

from helpers import live_monomials, span_steps

INVERTIBLE_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""

TATE_STYLE_SOURCE = """\
prime 2
gen tau 0 -1
gen rho -1 -1 inv
rel 2·1
rel 1·tau^3*rho^-1
span 1·1
span 1·tau
span 1·rho
span 1·rho^-1
"""


def unpruned_expand(pres, window, budget):
    """The reference search: dead monomials are extended like live ones."""
    window = Window(*window)
    p = pres.prime
    spans = span_steps(pres)
    per_degree = live_monomials(pres, window, budget)
    cells, where = {}, {}
    for deg, here in per_degree.items():
        here.sort(key=lambda g: (0, 0, g[0]) if g[2] is None else (1, -(g[2] - g[1]), g[0]))
        rank = sum(e is None for _, _, e in here)
        cells[deg] = PGroup(p, rank, [e - v for _, v, e in here if e is not None])
        where[deg] = {vec: (pos, v) for pos, (vec, v, _) in enumerate(here)}

    multipliers, actions = {}, {}
    for term, (vexp, svec, sdeg) in zip(pres.spans, spans):
        if sdeg == (0, 0):
            continue
        name = (str(p**term.vexp) if term.vexp else "") + "".join(
            n if e == 1 else f"{n}{e}" for n, e in term.powers
        )
        multipliers[name] = sdeg
        for deg, src in where.items():
            tgt = where.get(deg + sdeg)
            if tgt is None or not window.contains(deg + sdeg):
                continue
            rows = [[0] * len(src) for _ in tgt]
            for vec, (c, v) in src.items():
                hit = tgt.get(tuple(map(add, vec, svec)))
                if hit is not None:
                    rows[hit[0]][c] = p ** (vexp + v - hit[1])
            actions[(name, deg)] = PHom(cells[deg], cells[deg + sdeg], rows)
    return BigradedModule(p, window, cells, actions, multipliers)


def assert_same_expansion(got, want):
    assert emit_json(got) == emit_json(want)
    assert got.cells.keys() == want.cells.keys()
    assert {k: f.entries for k, f in got.actions.items()} == {k: f.entries for k, f in want.actions.items()}


def realize_window(core):
    """The padded window realize expands for a core at the default pad."""
    pad = max(core.width, core.height) + 4
    return Window(core.imin - pad, core.imax + pad, core.jmin - pad - 4, core.jmax + pad)


FIXED = [
    ("HF2_R", None, Window(-3, 3, -3, 3)),
    ("HZ2_R", None, Window(-3, 3, 0, 6)),
    ("KGL2_R", None, Window(0, 6, 2, 8)),
    ("KGL2_R", None, Window(-5, 5, -5, 5)),
    ("HFP_ODD_R", 3, Window(-6, 6, -6, 6)),
    ("HFP_ODD_R", 5, Window(-2, 2, -2, 2)),
]


@pytest.mark.parametrize("name,prime,core", FIXED)
def test_pruning_keeps_preset_expansions(name, prime, core) -> None:
    pres = preset_presentation(name, prime)
    big = realize_window(core)
    assert_same_expansion(expand(pres, big, budget=2_000_000), unpruned_expand(pres, big, 2_000_000))


@pytest.mark.parametrize("source", [INVERTIBLE_SOURCE, TATE_STYLE_SOURCE])
def test_pruning_keeps_invertible_expansions(source) -> None:
    pres = parse_presentation(source)
    big = Window(-8, 6, -9, 5)
    assert_same_expansion(expand(pres, big), unpruned_expand(pres, big, 100_000))


@st.composite
def presentations(draw):
    """Small presentations whose expansion is finite.

    Every generator has j < 0 and spans use nonnegative powers, so each
    factor lowers j and only finitely many products land in any window.
    """
    p = draw(st.sampled_from([2, 3]))
    ngens = draw(st.integers(1, 3))
    lines = [f"prime {p}"]
    for k in range(ngens):
        i, j = draw(st.integers(-2, 2)), draw(st.integers(-2, -1))
        lines.append(f"gen g{k} {i} {j}" + (" inv" if draw(st.booleans()) else ""))

    def term():
        scalar = p ** draw(st.integers(0, 2))
        powers = [(k, draw(st.integers(0, 2))) for k in range(ngens)]
        mono = "*".join(f"g{k}^{e}" for k, e in powers if e) or "1"
        return f"{scalar}·{mono}"

    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"rel {term()}")
    for _ in range(draw(st.integers(1, 4))):
        lines.append(f"span {term()}")
    return parse_presentation("\n".join(lines) + "\n")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pres=presentations())
def test_pruning_keeps_random_expansions(pres) -> None:
    window = Window(-6, 4, -8, 2)
    assert_same_expansion(expand(pres, window), unpruned_expand(pres, window, 100_000))
