"""Inversion and completion of a span action, answered from the presentation.

invert expands the localized presentation and acts by the input's span
actions; complete is zero where a product of span terms of scalar 1
inverts a power of the action, and the expansion itself otherwise.  Both
are exact, so no cell is unverified and no action is dropped.  On the
presets, invert is held to the colimit along the action, read off a
wider expansion where the action has become an isomorphism.
"""

import pytest

from fracture.assembler import corners, realize
from fracture.bigraded import BiDegree, BigradedModule, Multiplier, PGroup, PHom, Window, act, restrict
from fracture.localization import COMPLETION_CAVEAT, complete, composite_action, invert
from fracture.presentation import (
    BudgetError,
    expand,
    expand_indexed,
    localized,
    parse_presentation,
    span_actions,
    unbounded_ray,
)
from fracture.presets import PRESET_NAMES, preset_presentation
from fracture.snf import is_isomorphism

from helpers import expanded_windows
from test_rho_contract import DEEP_RHO_SOURCE, RHO_INVERTED

S = Multiplier("s", BiDegree(1, 0))
WINDOW = Window(-5, 5, -6, 4)
PRESET_CASES = [(name, 3 if name == "HFP_ODD_R" else None) for name in PRESET_NAMES]


def chain_module(groups, entries, multiplier=S, prime=2):
    """A one-row module at (0,0), (1,0), ... with the given maps between."""
    cells = {BiDegree(k, 0): g for k, g in enumerate(groups)}
    actions = {}
    for k, rows in enumerate(entries):
        src, tgt = cells[BiDegree(k, 0)], cells[BiDegree(k + 1, 0)]
        actions[(multiplier.name, BiDegree(k, 0))] = PHom(src, tgt, rows)
    window = Window(0, len(groups) - 1, 0, 0)
    return BigradedModule(prime, window, cells, actions, {multiplier.name: multiplier.degree})


def test_composite_action_multiplies_the_steps() -> None:
    module = chain_module([PGroup(2, 0, (2,))] * 3, [[[2]], [[1]]])
    assert composite_action(module, S, (0, 0), 0).entries == ((1,),)
    assert composite_action(module, S, (0, 0), 2).entries == ((2,),)


def same_module(got, want):
    for slot in BigradedModule.__slots__:
        assert getattr(got, slot) == getattr(want, slot), slot
    assert list(got.cells) == list(want.cells)
    assert list(got.actions) == list(want.actions)


@pytest.mark.parametrize("name,p", PRESET_CASES, ids=PRESET_NAMES)
def test_expand_builds_only_the_actions_it_is_asked_for(name, p) -> None:
    # a localization acts by the input's span actions, not by the inverse it adds
    pres = preset_presentation(name, p)
    mults = span_actions(pres)
    local = localized(pres, "tau4" if name == "KGL2_R" else next(iter(mults)))
    full = expand(local, WINDOW)
    assert set(full.multipliers) - set(mults)
    module, index = expand_indexed(local, WINDOW, None, mults)
    assert index == expand_indexed(local, WINDOW)[1]
    want = BigradedModule(
        full.prime, WINDOW, full.cells, {key: f for key, f in full.actions.items() if key[0] in mults}, mults
    )
    same_module(module, want)


@pytest.mark.parametrize("name,p", PRESET_CASES, ids=PRESET_NAMES)
def test_invert_expands_the_localized_presentation(name, p) -> None:
    pres = preset_presentation(name, p)
    mults = span_actions(pres)
    for mult in mults:
        if mult[0].isdigit():
            with pytest.raises(ValueError, match=f"^cannot invert '{mult}': its scalar {p or 2} is not 1$"):
                invert(pres, mult, window=WINDOW)
            continue
        got = invert(name, mult, p, WINDOW)
        assert got.unverified == frozenset() and got.caveats == ()
        same_module(got, expand_indexed(localized(pres, mult), WINDOW, None, mults)[0])


def test_invert_refuses_a_name_that_is_no_span_action() -> None:
    with pytest.raises(ValueError, match="^no span action 'tau' to invert$"):
        invert("KGL2_R", "tau", window=WINDOW)


def test_invert_refuses_a_localization_not_of_finite_type_before_expanding(monkeypatch) -> None:
    def refused():
        with pytest.raises(BudgetError, match=r"^the localization at tau is not of finite type: .* rho\*v, of degree"):
            invert(parse_presentation(DEEP_RHO_SOURCE), "tau", window=WINDOW)

    assert expanded_windows(monkeypatch, refused) == []


@pytest.mark.parametrize("name,p", PRESET_CASES, ids=PRESET_NAMES)
def test_complete_is_the_expansion_where_nothing_inverts_the_action(name, p) -> None:
    # no preset inverts a generator, so every completion is the module itself
    pres = preset_presentation(name, p)
    for mult in span_actions(pres):
        got = complete(pres, mult, window=WINDOW)
        assert got.caveats == (COMPLETION_CAVEAT,)
        want = expand(pres, WINDOW)
        assert got.cells == want.cells and got.actions == want.actions and got.multipliers == want.multipliers


@pytest.mark.parametrize("name", RHO_INVERTED)
def test_complete_is_zero_where_a_product_inverts_the_action(name, monkeypatch) -> None:
    pres = parse_presentation(RHO_INVERTED[name])
    assert expand(pres, WINDOW).cells
    got = []
    assert expanded_windows(monkeypatch, lambda: got.append(complete(pres, "rho", window=WINDOW))) == []
    (zero,) = got
    assert zero.cells == {} and zero.window == WINDOW and zero.caveats == (COMPLETION_CAVEAT,)
    assert zero.multipliers == span_actions(pres)
    # rho^-1 is a span action there too, and rho inverts its powers
    assert complete(pres, "rho-1", window=WINDOW).cells == {}


def test_complete_along_a_scalar_is_the_expansion() -> None:
    # the image of (2·x)^n lies in 2^n M, so it vanishes in the limit
    pres = parse_presentation(RHO_INVERTED["rho-f2"].replace("span 1·rho\n", "span 1·rho\nspan 2·rho\n"))
    assert complete(pres, "2rho", window=WINDOW).cells == expand(pres, WINDOW).cells


def zero_actions(module):
    return [key for key, f in module.actions.items() if f.is_zero()]


def test_no_output_keeps_a_zero_action() -> None:
    square = corners(preset_presentation("KGL2_R"), WINDOW)
    inverted = invert("KGL2_R", "tau4", window=WINDOW)
    outputs = [
        inverted,
        invert("KGL2_R", "rho", window=WINDOW),
        complete("KGL2_R", "tau4", window=WINDOW),
        restrict(inverted, (-3, 2, -4, 1)),
        square.h,
        square.phi,
        square.tate,
        realize("KGL2_R", 2, (-3, 3, -3, 3)).result,
    ]
    for out in outputs:
        assert out.actions
        assert zero_actions(out) == []


# A presentation whose only span term is killed by a relation of scalar 1.
ZERO_SOURCE = "prime 2\ngen s 1 0\nrel 1·1\nspan 1·1\nspan 1·s\n"


def test_invert_of_the_zero_module_is_zero() -> None:
    got = invert(parse_presentation(ZERO_SOURCE), "s", window=WINDOW)
    assert got.cells == {} and got.actions == {} and got.window == WINDOW


def test_complete_of_the_zero_module_is_zero() -> None:
    got = complete(parse_presentation(ZERO_SOURCE), "s", window=WINDOW)
    assert got.cells == {} and got.actions == {} and got.caveats == (COMPLETION_CAVEAT,)


CORE = Window(-4, 4, -4, 4)


def test_inverted_preset_obeys_the_support_law() -> None:
    # HF2[rho^-1] is F2[rho^±1, tau]: one F2 wherever i >= j
    inv = invert("HF2_R", "rho", window=CORE)
    assert inv.cell((1, 0)) == PGroup(2, 0, (1,))
    for d in CORE.cells():
        assert inv.cell(d) == (PGroup(2, 0, (1,)) if d.i >= d.j else PGroup(2, 0)), d


def test_inverted_multiplier_acts_invertibly() -> None:
    inv = invert("HZ2_R", "rho", window=CORE)
    checked = 0
    for d in CORE.cells():
        t = d + BiDegree(-1, -1)
        if CORE.contains(t) and not inv.cell(d).is_zero():
            assert is_isomorphism(act(inv, "rho", d)), d
            checked += 1
    # the nonzero cells i >= j of the core whose rho-target is in it
    assert checked == 20


@pytest.mark.parametrize("name,p", PRESET_CASES, ids=PRESET_NAMES)
def test_invert_then_complete_kills_the_module(name, p, monkeypatch) -> None:
    # x^-1 is a span term of M[x^-1], so completing that along x leaves nothing
    pres = preset_presentation(name, p)
    checked = 0
    for mult in span_actions(pres):
        if mult[0].isdigit():
            continue
        local = localized(pres, mult)
        got = []
        assert expanded_windows(monkeypatch, lambda: got.append(complete(local, mult, window=WINDOW))) == []
        assert got[0].cells == {} and got[0].window == WINDOW
        if unbounded_ray(local) is None:
            assert expand(local, WINDOW).cells
        checked += 1
    assert checked


def colimit_stage(module, x, d):
    """The least n from which x acts by isomorphisms along d, d+x, d+2x, ... to the window's edge.

    None unless at least three such steps lie in the window.
    """
    steps = 0
    while module.window.contains(d + x.degree.scaled(steps + 1)):
        steps += 1
    n = steps
    while n > 0 and is_isomorphism(act(module, x, d + x.degree.scaled(n - 1))):
        n -= 1
    return n if steps - n >= 3 else None


SUPPORT_PRESETS = [("HF2_R", None), ("HZ2_R", None), ("KGL2_R", None), ("HFP_ODD_R", 3), ("HFP_ODD_R", 5)]


@pytest.mark.parametrize("name,p", SUPPORT_PRESETS, ids=str)
def test_invert_matches_the_colimit_reference(name, p) -> None:
    # M[x^-1]_d is the colimit of M_d -> M_(d+x) -> ..., which is M_(d+nx)
    # once x acts by isomorphisms from there on.  Multiplying by x^n
    # shifts every exponent vector by the same amount, which keeps the
    # order of the generators, so the cells and the actions are equal as
    # they stand.
    pres = preset_presentation(name, p)
    mults = span_actions(pres)
    big = expand(pres, Window(-16, 16, -20, 16), budget=1_000_000)
    core = Window(-3, 3, -3, 3)
    checked = 0
    for mult in mults:
        if mult[0].isdigit():
            continue
        x = Multiplier(mult, mults[mult])
        inv = invert(pres, mult, window=core)
        stage = {d: colimit_stage(big, x, d) for d in core.cells()}
        for d in core.cells():
            n = stage[d]
            if n is None:
                continue
            assert inv.cell(d) == big.cell(d + x.degree.scaled(n)), (mult, d)
            checked += 1
            for name_y, dy in mults.items():
                t = d + dy
                if not core.contains(t) or stage[t] is None:
                    continue
                m = max(n, stage[t])
                y = Multiplier(name_y, dy)
                assert act(inv, y, d) == act(big, y, d + x.degree.scaled(m)), (mult, name_y, d)
    assert checked > 40
