"""The rho-completeness contract is decided from the presentation.

Completing along rho kills every live monomial exactly when some product
of span terms of scalar 1 equals rho^-N (presentation.inverse_product),
and changes nothing otherwise; unless rho is inverted no such product
exists.  realize and odd_split refuse an input with a live span term and
such a product, for the whole module and before anything is expanded.
These tests hold the rule to the monomials expand_indexed finds, hold
complete's answer on inputs that invert none of an action's generators
to the depth at which the action stops hitting a window, and check that
every rho-periodic input is refused and that complete inputs are
answered.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture.assembler import CONTRACT_MESSAGE, RhoCompleteError, odd_split, realize, rho_complete_defect
from fracture.bigraded import BiDegree, Multiplier, Window
from fracture.cli import main
from fracture.localization import complete, composite_action
from fracture.presentation import (
    BudgetError,
    _action_name,
    expand,
    expand_indexed,
    inverse_product,
    parse_presentation,
    span_actions,
    unbounded_ray,
)
from fracture.presets import PRESET_NAMES, preset_presentation

from helpers import expanded_windows, inverse_free_rho_presentations, live_monomials


def random_rho_inverted_source(rng):
    """A presentation text with rho inverted and a rho span action.

    tau may be inverted, and a third generator v is nilpotent.  Span terms
    of scalar 1 that are powers of rho (or of rho and an inverted tau)
    come up often enough that the rule answers both ways.
    """
    p = rng.choice([2, 3])
    tau_inverted = rng.random() < 0.5
    lines = [f"prime {p}", "gen rho -1 -1 inv", "gen tau 0 -1" + (" inv" if tau_inverted else "")]
    names = ["rho", "tau"]
    if rng.random() < 0.5:
        lines += [f"gen v {rng.randint(1, 3)} {rng.randint(0, 2)}", f"rel 1·v^{rng.randint(1, 3)}"]
        names.append("v")

    def term():
        low = {"rho": -2, "tau": -2 if tau_inverted else 0}
        powers = [(name, rng.randint(low.get(name, 0), 2)) for name in names]
        mono = "*".join(f"{name}^{e}" for name, e in powers if e) or "1"
        return f"{p ** rng.choice([0, 0, 1, 2])}·{mono}"

    lines += [f"rel {term()}" for _ in range(rng.randint(0, 2))]
    lines += ["span 1·rho", f"span 1·tau^{rng.choice([1, 2])}"]
    lines += [f"span {term()}" for _ in range(rng.randint(1, 3))]
    return "\n".join(lines) + "\n"


RHO = BiDegree(-1, -1)
CORE = Window(-4, 0, -4, 0)
DEPTH = 12
VALUATION = 2


def test_the_rule_matches_the_monomials_of_random_rho_inverted_inputs() -> None:
    # where the rule finds rho^-N, every live monomial m of the core has
    # m*rho^-kN live at m's own valuation, so rho^kN hits it.  Where it
    # finds none, the preimages m*rho^-n at m's valuation use boundedly many
    # span terms outside S1, so they run out: for m of valuation at most
    # VALUATION, within DEPTH steps on these draws (the bound grows with
    # the valuation, as a term of scalar 9 and rho^-2 shows)
    rng = random.Random(2203)
    verdicts = []
    for _ in range(80):
        pres = parse_presentation(random_rho_inverted_source(rng))
        if unbounded_ray(pres) is not None:
            continue
        k = [g.name for g in pres.generators].index("rho")
        reach = Window(CORE.imin, CORE.imax + 3 * DEPTH, CORE.jmin, CORE.jmax + 3 * DEPTH)
        try:
            _, index = expand_indexed(pres, reach, budget=200_000)
        except BudgetError:
            continue
        product = inverse_product(pres, "rho")
        live = [(d, vec, v) for d, here in index.items() if CORE.contains(d) for vec, (_, v) in here.items()]
        for d, vec, v in live:

            def preimage(n):
                shifted = vec[:k] + (vec[k] - n,) + vec[k + 1 :]
                return index.get(d - RHO.scaled(n), {}).get(shifted)

            if product is not None:
                (name, e), = product
                assert name == "rho" and e < 0
                for n in (-e, -2 * e, -3 * e):
                    assert preimage(n) is not None and preimage(n)[1] == v, (d, vec, n)
            elif v <= VALUATION:
                assert any(preimage(n) is None or preimage(n)[1] > v for n in range(1, DEPTH + 1)), (d, vec)
        verdicts.append((product is not None, any(v <= VALUATION for _, _, v in live)))
    # both answers come up, on inputs with live monomials in the core
    assert (True, True) in verdicts and (False, True) in verdicts
    assert len(verdicts) > 40


BUDGET = 200_000


def action_depths(pres, core, names=None):
    """{x: (multiplier, depth)} for the span actions x of scalar 1 named in names (default: all).

    No generator of x may be inverted.  The image of x^n in a cell is
    spanned by its monomials m with m*x^-n reachable, and m*x^-n has no
    negative exponent only while n is at most the least ratio vec(m)_g // e
    over the powers g^e of x.  The depth is the largest such ratio among
    the live monomials of the core's cells, so x^(depth+1) hits none.
    """
    cells = live_monomials(pres, core, BUDGET, extend_dead=False)
    index = {g.name: k for k, g in enumerate(pres.generators)}
    mults = span_actions(pres)
    out = {}
    for term in pres.spans:
        name = _action_name(pres.prime, term)
        if term.vexp or name not in mults or name in out or names is not None and name not in names:
            continue
        assert not any(pres.generators[index[g]].invertible for g, _ in term.powers), name
        ratios = (min(vec[index[g]] // e for g, e in term.powers) for here in cells.values() for vec, _, _ in here)
        out[name] = (Multiplier(name, mults[name]), max(ratios, default=0))
    return out


def assert_complete_when_compared_deep_enough(pres, core, names=None, tight=True):
    """Each action x of action_depths hits no cell of the core with x^(depth+1).

    The composites are read off an expansion deep enough to hold their
    sources, so the completion along x is the module itself on the core,
    and complete must say so.  When tight, x^depth still hits some cell.
    Returns the depths.
    """
    depths = action_depths(pres, core, names)
    corners = [(core.imin, core.jmin), (core.imax, core.jmax)]
    for x, depth in depths.values():
        shift = x.degree.scaled(depth + 1)
        corners += [(core.imin - shift.i, core.jmin - shift.j), (core.imax - shift.i, core.jmax - shift.j)]
    (imin, jmin), (imax, jmax) = map(min, zip(*corners)), map(max, zip(*corners))
    deep = Window(imin, imax, jmin, jmax)
    module = expand(pres, deep, budget=BUDGET)
    want = expand(pres, core)
    for name, (x, depth) in depths.items():
        hit = False
        for d in core.cells():
            if module.cell(d).is_zero():
                continue
            assert composite_action(module, x, d - x.degree.scaled(depth + 1), depth + 1).is_zero(), (name, d)
            hit = hit or not composite_action(module, x, d - x.degree.scaled(depth), depth).is_zero()
        # x^0 is the identity, so a nonzero core is always hit at depth 0
        assert hit or not tight or not want.cells, (name, depth)
        got = complete(pres, name, window=core)
        assert got.cells == want.cells and got.actions == want.actions, name
    return depths


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
def test_presets_are_complete_along_each_action_when_compared_deep_enough(name, p, core) -> None:
    pres = preset_presentation(name, p)
    assert rho_complete_defect(pres) is None
    depths = assert_complete_when_compared_deep_enough(pres, core)
    assert set(depths) == {mult for mult in span_actions(pres) if not mult[0].isdigit()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pres=inverse_free_rho_presentations(),
    corner=st.sampled_from([(-3, -3), (-6, 0), (0, -6), (2, 2), (-8, -10)]),
)
def test_random_inverse_free_presentations_are_rho_complete(pres, corner) -> None:
    # a span term such as 2·rho^2 can make rho^depth miss every cell, so the depth need not be tight
    i, j = corner
    assert inverse_product(pres, "rho") is None and rho_complete_defect(pres) is None
    assert_complete_when_compared_deep_enough(pres, Window(i, i + 3, j, j + 3), {"rho"}, tight=False)


# rho is a plain generator and v enters only through tau*v^3, so deep
# powers of rho are live (rho^13 at (2,-3)), and no product of span terms
# inverts rho: the contract holds, and the input fails for other reasons
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


@pytest.mark.parametrize("core", DEEP_RHO_WINDOWS, ids=str)
def test_deep_rho_input_is_rho_complete_when_compared_deep_enough(core) -> None:
    pres = parse_presentation(DEEP_RHO_SOURCE)
    assert rho_complete_defect(pres) is None
    (_, depth), = assert_complete_when_compared_deep_enough(pres, core, {"rho"}).values()
    assert depth > 12


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
# rho-tau is answered on (-4,-1,1,4) by a check that sees only a window:
# its module is zero there; the rule refuses it there too
REFUSED_WINDOWS = [Window(-2, 2, -2, 2), Window(-6, -2, -6, -2), Window(2, 7, 2, 7), Window(-4, -1, 1, 4)]


@pytest.mark.parametrize("window", REFUSED_WINDOWS, ids=str)
@pytest.mark.parametrize("name", RHO_INVERTED)
def test_rho_inverted_inputs_are_still_refused(name, window, tmp_path, capsysbinary, monkeypatch) -> None:
    pres = parse_presentation(RHO_INVERTED[name])
    message = f"{CONTRACT_MESSAGE}: span terms of scalar 1 multiply to rho^-1,"
    calls = [lambda: realize(pres, None, window)]
    if pres.prime != 2:
        calls.append(lambda: odd_split(pres, None, window))

    def refused():
        for call in calls:
            with pytest.raises(RhoCompleteError) as exc:
                call()
            assert str(exc.value).startswith(message)

    assert expanded_windows(monkeypatch, refused) == []
    src = tmp_path / f"{name}.txt"
    src.write_text(RHO_INVERTED[name], encoding="utf-8")
    spelled = f"{window.imin}:{window.imax},{window.jmin}:{window.jmax}"
    for command in ("check", "realize"):
        assert main([command, "--module", str(src), "--window", spelled]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode("utf-8").startswith(message)


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


@pytest.mark.parametrize("name", RHO_INVERTED)
def test_the_contract_refusal_comes_before_the_tau_refusal_and_the_budget(name, monkeypatch) -> None:
    def refused():
        with pytest.raises(RhoCompleteError):
            realize(parse_presentation(RHO_INVERTED[name]), None, Window(-30, 30, -30, 30), budget=1)

    assert expanded_windows(monkeypatch, refused) == []


# rho-complete inputs: 2·rho^-2 raises the valuation, and rho^-2*v and
# rho^-2*tau^2*v carry powers of generators that are not inverted, so no
# product of span terms of scalar 1 inverts rho
COMPLETE_RHO_INVERTED = {
    "scalar-two": "prime 2\ngen rho -1 -1 inv\ngen tau 0 -1\nspan 1·rho\nspan 1·tau\nspan 2·rho^-2\nspan 1·tau^2\n",
    "nilpotent-v": (
        "prime 3\ngen rho -1 -1 inv\ngen tau 0 -1\ngen v 3 2\nrel 1·v^3\nrel 3·tau*v^2\nrel 3·rho^2*v^2\n"
        "span 1·rho\nspan 1·tau\nspan 1·rho^-2*tau^2*v\nspan 1·1\nspan 1·rho^-2*v\n"
    ),
}


@pytest.mark.parametrize("window", [Window(-3, 1, -3, 1), Window(1, 4, -4, -1)], ids=str)
def test_a_rho_complete_input_that_inverts_rho_is_answered(window) -> None:
    pres = parse_presentation(COMPLETE_RHO_INVERTED["scalar-two"])
    assert rho_complete_defect(pres) is None
    report = realize(pres, None, window)
    assert report.certificates_hold()
    asserted = realize(pres, None, window, rho_complete=True)
    assert report.result.cells == asserted.result.cells


def test_a_rho_complete_odd_input_meets_its_own_refusal() -> None:
    pres = parse_presentation(COMPLETE_RHO_INVERTED["nilpotent-v"])
    assert rho_complete_defect(pres) is None
    with pytest.raises(ValueError, match="^odd-primary input needs a tau2 action to invert$"):
        realize(pres, None, Window(-3, 3, -3, 3))


def adversarial_source(rng, solvable):
    """rho and eleven more inverted generators, and 30 span terms of scalar 1.

    Every span term's exponents sum to at least 0, while rho^-1's sum to
    -1, so no product inverts rho; a solvable input replaces the last term
    by rho^-1 over the product of two others.
    """
    names = ["rho"] + [f"g{k}" for k in range(1, 12)]
    lines = ["prime 2", "gen rho -1 -1 inv"]
    lines += [f"gen {name} {rng.randint(-3, 3)} {rng.randint(-3, 3)} inv" for name in names[1:]]
    vecs = [[1] + [0] * 11]
    while len(vecs) < 30:
        vec = [rng.randint(-2, 2) for _ in names]
        if sum(vec) >= 0:
            vecs.append(vec)
    if solvable:
        vecs[-1] = [-int(k == 0) - a - b for k, (a, b) in enumerate(zip(vecs[5], vecs[9]))]
    for vec in vecs:
        mono = "*".join(f"{name}^{e}" for name, e in zip(names, vec) if e) or "1"
        lines.append(f"span 1·{mono}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("solvable", [False, True])
def test_an_adversarial_input_is_decided_fast(solvable) -> None:
    pres = parse_presentation(adversarial_source(random.Random(12), solvable))
    start = time.perf_counter()
    product = rho_complete_defect(pres)
    assert time.perf_counter() - start < 0.1
    assert product == ((("rho", -1),) if solvable else None)
