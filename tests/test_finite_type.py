"""Localized presentations, and the finite-type check that runs before they are expanded.

presentation.localized inverts a span term of scalar 1 by marking its
generators invertible and adding its inverse as a span term.  A
localization can hold infinitely many monomials in one cell; then
presentation.unbounded_ray names a monomial of degree (0,0) whose powers
no unit relation kills, and corners refuses the input before expanding.
The check must never pass an input whose localized expansion keeps
growing: where it finds no ray, the expansion stays under budget and
does not change when the window around it grows.
"""

import pytest
from hypothesis import given, settings

from fracture.assembler import corner_presentations, corners, select_tau_power
from fracture.bigraded import Window, restrict
from fracture.presentation import (
    BudgetError,
    Term,
    _action_name,
    _degree_of,
    _vector,
    expand,
    localized,
    parse_presentation,
    print_presentation,
    span_actions,
    unbounded_ray,
)
from fracture.presets import PRESET_NAMES, preset_presentation

from test_expand_pruning import assert_same_expansion, presentations

PRESET_CASES = [(name, 3 if name == "HFP_ODD_R" else None) for name in PRESET_NAMES]


def test_localized_marks_the_generators_invertible_and_adds_the_inverse() -> None:
    pres = preset_presentation("KGL2_R")
    local = localized(pres, "tau4")
    assert [g.invertible for g in local.generators] == [False, True, False]
    assert local.spans == pres.spans + (Term(0, (("tau", -4),)),)
    assert local.relations == pres.relations
    assert parse_presentation(print_presentation(local)) == local


def test_localized_takes_the_first_matching_span() -> None:
    pres = parse_presentation("prime 3\ngen tau 0 -1\nrel 3·1\nspan 1·1\nspan 1·tau^2\nspan 1·tau^2\n")
    assert localized(pres, "tau2").spans[-1] == Term(0, (("tau", -2),))
    assert len(localized(pres, "tau2").spans) == 4


def test_localized_refuses_a_scalar_or_a_missing_span() -> None:
    pres = preset_presentation("KGL2_R")
    with pytest.raises(ValueError, match="^cannot invert '2tau2': its scalar 2 is not 1$"):
        localized(pres, "2tau2")
    with pytest.raises(ValueError, match="^no span action 'tau' to invert$"):
        localized(pres, "tau")


@pytest.mark.parametrize("name,p", PRESET_CASES, ids=PRESET_NAMES)
def test_the_corner_presentations_of_each_preset_are_of_finite_type(name, p) -> None:
    pres = preset_presentation(name, p)
    named = corner_presentations(pres, select_tau_power(pres.prime, span_actions(pres)))
    assert sorted(named) == (["h"] if name == "HFP_ODD_R" else ["h", "phi", "tate"])
    assert unbounded_ray(pres) is None
    assert {corner: unbounded_ray(local) for corner, local in named.items()} == dict.fromkeys(named)


def test_a_ray_is_a_primitive_monomial_of_degree_zero() -> None:
    # rho^3 * tau*v^3 * tau^-1 = (rho*v)^3: only rel 4·rho acts on its powers
    pres = parse_presentation(
        "prime 2\ngen rho -1 -1\ngen tau 0 -1\ngen v 1 1\nrel 4·rho\n"
        "span 1·1\nspan 1·rho\nspan 1·tau\nspan 1·tau*v^3\n"
    )
    assert unbounded_ray(pres) is None
    local = localized(pres, "tau")
    ray = unbounded_ray(local)
    assert ray == (("rho", 1), ("v", 1))
    assert _degree_of(local, _vector(local, ray)) == (0, 0)
    # a unit relation on rho*v, or on either factor, kills every power of it
    for rel in ("1·rho*v", "1·v^2", "1·rho^5"):
        killed = localized(parse_presentation(print_presentation(pres) + f"rel {rel}\n"), "tau")
        assert unbounded_ray(killed) is None, rel


def test_corners_refuse_a_corner_that_is_not_of_finite_type() -> None:
    # phi has the ray rho^-1*x of degree (0,0), which no unit relation kills; h has none
    pres = parse_presentation(
        "prime 2\ngen rho -1 -1\ngen tau 0 -1\ngen x -1 -1\nrel 2·1\nrel 1·tau*x\n"
        "span 1·1\nspan 1·rho\nspan 1·tau\nspan 1·x\n"
    )
    with pytest.raises(BudgetError, match=r"^corner phi is not of finite type: .* the powers of rho\^-1\*x, of degree"):
        corners(pres, Window(-2, 2, -2, 2))


def scalar_one_localizations(pres):
    """The presentation localized at each span action of scalar 1."""
    names = {
        _action_name(pres.prime, t)
        for t in pres.spans
        if not t.vexp and _degree_of(pres, _vector(pres, t.powers)) != (0, 0)
    }
    return [localized(pres, name) for name in sorted(names)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pres=presentations())
def test_no_ray_means_a_finite_expansion(pres) -> None:
    window, wider = Window(-8, 8, -8, 8), Window(-12, 12, -12, 12)
    for local in scalar_one_localizations(pres):
        if unbounded_ray(local) is not None:
            continue
        module = expand(local, window, budget=100_000)
        assert_same_expansion(module, restrict(expand(local, wider, budget=100_000), window))
