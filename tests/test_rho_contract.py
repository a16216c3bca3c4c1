"""The rho-completeness contract is decided from the presentation.

rho acts by multiplying a monomial by the generator rho, so the image of
rho^n in a cell is spanned by its monomials of rho exponent at least n.
Unless rho is inverted those exponents are never negative and a cell has
finitely many monomials, so the completion along rho changes nothing
once it is taken deeper than the largest of them.  realize and odd_split
therefore check only inputs that invert rho; these tests check the
argument itself on rho_complete_defect, and that every rho-inverted
input is still refused.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture.assembler import CONTRACT_MESSAGE, RhoCompleteError, odd_split, realize, rho_complete_defect
from fracture.bigraded import Window
from fracture.cli import main
from fracture.presentation import BudgetError, expand, parse_presentation
from fracture.presets import PRESET_NAMES, preset_presentation

from helpers import expanded_windows, inverse_free_rho_presentations, live_monomials

BUDGET = 200_000


def rho_depth(pres, core):
    """The largest rho exponent among the live monomials of the core's cells.

    0 when the presentation has no generator rho: then no cell is hit by rho.
    """
    names = [g.name for g in pres.generators]
    if "rho" not in names:
        return 0
    k = names.index("rho")
    cells = live_monomials(pres, core, BUDGET, extend_dead=False)
    return max((vec[k] for here in cells.values() for vec, _, _ in here), default=0)


def deep_enough(pres, core):
    """An expansion window on which the rho-chain into every core cell runs
    more steps than rho_depth, and so does the completion depth, which is
    the window's diameter."""
    n = rho_depth(pres, core)
    return Window(core.imin - 1, core.imax + n + 1, core.jmin - 1, core.jmax + n + 1)


# rho is a plain generator and v enters only through tau*v^3, so rho^13
# is live at (2,-3): deeper than the rho-chains of the padded expansion
# of a small window, where a completion run sees a truncation gap
WITHOUT_TAU_SOURCE = """\
prime 2
gen rho -1 -1
gen tau 0 -1
gen v 1 1
rel 4·rho
span 1·1
span 1·rho
span 1·tau*v^3
"""
DEEP_RHO_SOURCE = WITHOUT_TAU_SOURCE.replace("span 1·rho\n", "span 1·rho\nspan 1·tau\n")
DEEP_RHO_WINDOWS = [Window(-3, 3, -3, 3), Window(0, 4, -5, -1), Window(2, 3, -3, -3)]

PRESET_CASES = [(name, p) for name in PRESET_NAMES for p in ((3, 5) if name == "HFP_ODD_R" else (None,))]
PRESET_WINDOWS = [
    Window(-3, 3, -3, 3),
    Window(1, 4, 1, 4),
    Window(1, 4, -4, -1),
    Window(-4, -1, 1, 4),
    Window(-12, -9, -12, -9),
    Window(-24, -20, -30, -26),
]


@pytest.mark.parametrize("core", PRESET_WINDOWS, ids=str)
@pytest.mark.parametrize("name,p", PRESET_CASES)
def test_presets_are_rho_complete_when_compared_deep_enough(name, p, core) -> None:
    pres = preset_presentation(name, p)
    module = expand(pres, deep_enough(pres, core), budget=BUDGET)
    assert rho_complete_defect(module, core) == []


@pytest.mark.parametrize("core", DEEP_RHO_WINDOWS, ids=str)
def test_deep_rho_input_is_rho_complete_when_compared_deep_enough(core) -> None:
    pres = parse_presentation(DEEP_RHO_SOURCE)
    assert rho_depth(pres, core) > 12
    module = expand(pres, deep_enough(pres, core), budget=BUDGET)
    assert rho_complete_defect(module, core) == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pres=inverse_free_rho_presentations(), corner=st.sampled_from([(-3, -3), (-6, 0), (0, -6), (2, 2), (-8, -10)]))
def test_random_inverse_free_presentations_are_rho_complete(pres, corner) -> None:
    i, j = corner
    core = Window(i, i + 3, j, j + 3)
    module = expand(pres, deep_enough(pres, core), budget=BUDGET)
    assert rho_complete_defect(module, core) == []


@pytest.mark.parametrize("window", DEEP_RHO_WINDOWS, ids=str)
def test_deep_rho_input_is_refused_as_not_of_finite_type(window, monkeypatch) -> None:
    # rho^3*tau*v^3*tau^-1 = (rho*v)^3 has degree (0,0) in the tau-inverted
    # corner, and only rel 4·rho acts on its powers: every cell there holds
    # infinitely many monomials, so the input is refused before expanding
    def refused():
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"^corner h is not of finite type: .* the powers of rho\*v, of degree \(0,0\)$"):
            realize(parse_presentation(DEEP_RHO_SOURCE), 2, window)
        assert time.perf_counter() - start < 0.1

    assert expanded_windows(monkeypatch, refused) == []


@pytest.mark.parametrize("window", [*DEEP_RHO_WINDOWS, Window(-30, 30, -30, 30)], ids=str)
def test_without_tau_the_input_fails_for_its_own_reason(window, monkeypatch) -> None:
    def refused():
        with pytest.raises(ValueError, match="^input has no tau power action to invert$"):
            realize(parse_presentation(WITHOUT_TAU_SOURCE), 2, window)

    # rho is not inverted, so nothing is checked and the refusal comes before any expansion
    assert expanded_windows(monkeypatch, refused) == []


# an odd-primary input whose tau acts but no tau2 does: realize inverts only tau2 there
WITHOUT_TAU2_SOURCE = "prime 3\ngen rho -1 -1\ngen tau 0 -1\nrel 3·1\nspan 1·1\nspan 1·rho\nspan 1·tau\n"
TAU_LESS = {
    "without-tau": (WITHOUT_TAU_SOURCE, "input has no tau power action to invert"),
    "without-tau2": (WITHOUT_TAU2_SOURCE, "odd-primary input needs a tau2 action to invert"),
}


@pytest.mark.parametrize("budget", [1, 100, None])
@pytest.mark.parametrize("name", TAU_LESS)
def test_the_tau_refusal_comes_before_the_budget(name, budget, monkeypatch) -> None:
    source, message = TAU_LESS[name]

    def refused():
        with pytest.raises(ValueError, match=f"^{message}$"):
            realize(parse_presentation(source), None, Window(-30, 30, -30, 30), budget=budget)

    assert expanded_windows(monkeypatch, refused) == []


@pytest.mark.parametrize("budget", [1, None])
@pytest.mark.parametrize("window", [Window(-3, 3, -3, 3), Window(-20, 20, -20, 20)], ids=str)
def test_odd_split_refuses_an_input_without_tau2_before_expanding(window, budget, monkeypatch) -> None:
    def refused():
        with pytest.raises(ValueError, match=f"^{TAU_LESS['without-tau2'][1]}$"):
            odd_split(parse_presentation(WITHOUT_TAU2_SOURCE), None, window, budget=budget)

    # the same refusal, at the same point, as realize's
    assert expanded_windows(monkeypatch, refused) == []


# The rho-periodic inputs of the benchmark's small-sweep workload, and
# TATE_STYLE_SOURCE of test_assembler; rho-f2 and rho-f3 are also its
# RHO_INVERTED_SOURCE and ODD_RHO_INVERTED_SOURCE.
RHO_INVERTED = {
    "rho-f2": "prime 2\ngen rho -1 -1 inv\nrel 2·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-z4": "prime 2\ngen rho -1 -1 inv\nrel 4·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-f3": "prime 3\ngen rho -1 -1 inv\nrel 3·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-f5": "prime 5\ngen rho -1 -1 inv\nrel 5·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-tau": (
        "prime 2\ngen rho -1 -1 inv\ngen tau 0 -1\nrel 2·1\n"
        "span 1·1\nspan 1·rho\nspan 1·rho^-1\nspan 1·tau\n"
    ),
    "tate-style": (
        "prime 2\ngen tau 0 -1\ngen rho -1 -1 inv\nrel 2·1\n"
        "span 1·1\nspan 1·tau\nspan 1·rho\nspan 1·rho^-1\n"
    ),
}
REFUSED_WINDOWS = [Window(-2, 2, -2, 2), Window(-6, -2, -6, -2), Window(2, 7, 2, 7)]


@pytest.mark.parametrize("window", REFUSED_WINDOWS, ids=str)
@pytest.mark.parametrize("name", RHO_INVERTED)
def test_rho_inverted_inputs_are_still_refused(name, window, tmp_path, capsysbinary) -> None:
    pres = parse_presentation(RHO_INVERTED[name])
    calls = [lambda: realize(pres, None, window)]
    if pres.prime != 2:
        calls.append(lambda: odd_split(pres, None, window))
    for call in calls:
        with pytest.raises(RhoCompleteError) as exc:
            call()
        assert str(exc.value).startswith(CONTRACT_MESSAGE)
    src = tmp_path / f"{name}.txt"
    src.write_text(RHO_INVERTED[name], encoding="utf-8")
    spelled = f"{window.imin}:{window.imax},{window.jmin}:{window.jmax}"
    for command in ("check", "realize"):
        assert main([command, "--module", str(src), "--window", spelled]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode("utf-8").startswith(CONTRACT_MESSAGE)


# the inputs of RHO_INVERTED that have no tau power action
TAU_LESS_RHO_INVERTED = ["rho-f2", "rho-z4", "rho-f3", "rho-f5"]


@pytest.mark.parametrize("name", TAU_LESS_RHO_INVERTED)
def test_an_asserted_rho_inverted_input_without_tau_is_refused_before_expanding(name, monkeypatch) -> None:
    pres = parse_presentation(RHO_INVERTED[name])
    message = TAU_LESS["without-tau" if pres.prime == 2 else "without-tau2"][1]

    def refused():
        with pytest.raises(ValueError, match=f"^{message}$"):
            realize(pres, None, REFUSED_WINDOWS[0], rho_complete=True)
        if pres.prime != 2:
            with pytest.raises(ValueError, match=f"^{message}$"):
                odd_split(pres, None, REFUSED_WINDOWS[0], rho_complete=True)

    # asserting the contract skips its check, so the tau refusal is the first
    assert expanded_windows(monkeypatch, refused) == []


@pytest.mark.parametrize("name", TAU_LESS_RHO_INVERTED)
def test_the_contract_check_meets_the_budget_before_the_tau_refusal(name, monkeypatch) -> None:
    window = REFUSED_WINDOWS[0]

    def over_budget():
        with pytest.raises(BudgetError, match="^expansion exceeded the budget of 1 monomials$"):
            realize(parse_presentation(RHO_INVERTED[name]), None, window, budget=1)

    # the check expands the whole padded window, before the tau power is looked for
    (padded,) = expanded_windows(monkeypatch, over_budget)
    assert padded.meet(window) == window and padded != window
