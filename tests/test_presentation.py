"""Parser and expansion tests, with a brute force oracle for expansion."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture import emit_json
from fracture.bigraded import PRIME_TEST_BOUND, BiDegree, PGroup, Window, _is_prime, validate_module
from fracture.assembler import odd_split, realize
from fracture.localization import complete, invert
from fracture.presentation import (
    BUDGET_ENV_VAR,
    BudgetError,
    ParseError,
    expand,
    parse_presentation,
    print_presentation,
    span_actions,
)
from fracture.presets import PRESET_NAMES, preset_presentation

from helpers import expanded_windows

INVERTIBLE_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""


def brute_force_cells(pres, window, max_count) -> dict:
    """Enumerate products of span elements directly, without any search.

    Every multiset of span elements with at most max_count copies of each
    is multiplied out; the valuation of a monomial is the cheapest total
    scalar over all such factorizations.  Exact as long as max_count
    copies of each span element suffice to reach every window monomial.
    """
    index = {g.name: k for k, g in enumerate(pres.generators)}
    n = len(pres.generators)

    def vec_of(powers):
        vec = [0] * n
        for name, e in powers:
            vec[index[name]] += e
        return tuple(vec)

    spans = [(t.vexp, vec_of(t.powers)) for t in pres.spans]
    rels = [(t.vexp, vec_of(t.powers)) for t in pres.relations]
    best = {}
    for counts in itertools.product(range(max_count + 1), repeat=len(spans)):
        if not any(counts):
            continue
        vec = tuple(sum(c * sv[k] for c, (_, sv) in zip(counts, spans)) for k in range(n))
        val = sum(c * vexp for c, (vexp, _) in zip(counts, spans))
        if vec not in best or val < best[vec]:
            best[vec] = val
    cells = {}
    for vec, val in best.items():
        deg = BiDegree(
            sum(e * g.degree.i for e, g in zip(vec, pres.generators)),
            sum(e * g.degree.j for e, g in zip(vec, pres.generators)),
        )
        if not window.contains(deg):
            continue
        orders = [
            rexp
            for rexp, rvec in rels
            if all(g.invertible or v >= rv for g, v, rv in zip(pres.generators, vec, rvec))
        ]
        e = min(orders) if orders else None
        if e is not None and val >= e:
            continue
        rank, tors = cells.get(deg, (0, ()))
        if e is None:
            rank += 1
        else:
            tors = tors + (e - val,)
        cells[deg] = (rank, tors)
    return {
        deg: PGroup(pres.prime, rank, tuple(sorted(tors, reverse=True)))
        for deg, (rank, tors) in cells.items()
    }


@pytest.mark.parametrize(
    "name,prime,window,max_count",
    [
        ("hf2", 2, Window(-5, 3, -6, 3), 10),
        ("hz2", 2, Window(-5, 3, -6, 3), 10),
        ("kgl2", 2, Window(-6, 2, -8, 2), 8),
        ("hfp_odd", 3, Window(-4, 1, -6, 1), 8),
    ],
)
def test_expansion_matches_brute_force(name, prime, window, max_count) -> None:
    pres = preset_presentation(name, prime)
    module = expand(pres, window)
    expected = brute_force_cells(pres, window, max_count)
    seen = {d for d in window.cells() if not module.cell(d).is_zero()}
    assert seen == set(expected)
    for d in expected:
        got = module.cell(d)
        assert (got.rank, got.torsion) == (expected[d].rank, expected[d].torsion), d


def test_expansion_matches_brute_force_with_invertible_generator() -> None:
    pres = parse_presentation(INVERTIBLE_SOURCE)
    window = Window(-3, 3, -3, 3)
    module = expand(pres, window)
    expected = brute_force_cells(pres, window, 6)
    for k in range(-3, 4):
        assert expected[BiDegree(k, k)] == PGroup(2, 0, (1,))
    for d in window.cells():
        got = module.cell(d)
        want = expected.get(d, PGroup(2, 0))
        assert (got.rank, got.torsion) == (want.rank, want.torsion), d


@pytest.mark.parametrize(
    "name,prime",
    [("hf2", 2), ("hz2", 2), ("kgl2", 2), ("hfp_odd", 3), ("hfp_odd", 5)],
)
def test_preset_actions_commute(name, prime) -> None:
    module = expand(preset_presentation(name, prime), Window(-5, 3, -6, 3))
    validate_module(module)


@pytest.mark.parametrize("name,prime", [("hf2", 2), ("hz2", 2), ("kgl2", 2), ("hfp_odd", 7)])
def test_print_parse_round_trip(name, prime) -> None:
    pres = preset_presentation(name, prime)
    assert parse_presentation(print_presentation(pres)) == pres


def test_plain_star_and_dot_are_interchangeable() -> None:
    a = parse_presentation("prime 2\ngen t 0 -1\nrel 2*1\nspan 1*t\n")
    b = parse_presentation("prime 2\ngen t 0 -1\nrel 2·1\nspan 1·t\n")
    assert a == b


def test_monomial_exponents_accumulate_and_cancel() -> None:
    pres = parse_presentation(
        "prime 2\ngen t 0 -1 inv\nspan 1·t^2*t\nspan 1·t^2*t^-2\n"
    )
    assert pres.spans[0].powers == (("t", 3),)
    assert pres.spans[1].powers == ()


def test_inline_window_is_used_by_expand() -> None:
    pres = parse_presentation(
        "prime 2\ngen t 0 -1\nspan 1·1\nspan 1·t\nwindow -1 0 -2 0\n"
    )
    module = expand(pres)
    assert module.window == Window(-1, 0, -2, 0)
    assert module.cell((0, -2)) == PGroup(2, 1)


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("gen t 0 -1\n", "prime must be declared first"),
        ("prime 2\nprime 3\n", "declared twice"),
        ("prime 6\n", "not prime"),
        ("prime 2\nrel 3·1\n", "not a power of 2"),
        ("prime 2\nrel 0·1\n", "line 2, col 5: scalar 0 is not a power of 2"),
        ("prime 2\nrel 6·1\n", "line 2, col 5: scalar 6 is not a power of 2"),
        ("prime 3\nrel 6·1\n", "line 2, col 5: scalar 6 is not a power of 3"),
        ("prime 2\ngen rho -1 -1\nrel 3·rho\nspan 1·1\n", "line 3, col 5: scalar 3 is not a power of 2"),
        ("prime 2\ngen t 0 -1\nspan 1·u\n", "unknown generator"),
        ("prime 2\ngen t 0 -1\nspan 1·t^-1\n", "not invertible"),
        ("prime 2\nfoo 1\n", "unknown directive"),
        ("prime 2\ngen t 0 -1\ngen t 0 -1\n", "declared twice"),
        ("prime 2\nwindow 1 0 0 0\n", "window"),
        ("", "missing prime"),
    ],
)
def test_parse_errors(source, fragment) -> None:
    with pytest.raises(ParseError) as info:
        parse_presentation(source)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "source,message",
    [
        # a product whose name is a known multiplier's: realize would invert ta*u as tau
        (
            "prime 2\ngen ta 0 -1\ngen u 0 0\nspan 1·1\nspan 1·ta*u\n",
            "line 5, col 6: span term ta*u is not a power of one generator,"
            " but its action name is that of the multiplier tau",
        ),
        (
            "prime 2\ngen r -1 0\ngen ho 0 -1\nspan 1·r*ho\n",
            "line 4, col 6: span term r*ho is not a power of one generator,"
            " but its action name is that of the multiplier rho",
        ),
        # two monomials, one name
        (
            "prime 2\ngen t 0 -1\ngen t2 0 -2\nspan 1·t^2\nspan 1·t2\n",
            "line 5, col 6: span terms t^2 and t2 have the same action name 't2'",
        ),
        (
            "prime 3\ngen x 1 0\ngen y 0 1\ngen xy 1 1\nspan 3·xy\nspan 3·x*y\n",
            "line 6, col 6: span terms xy and x*y have the same action name '3xy'",
        ),
        # a known multiplier's name with another degree: realize would invert it as tau
        (
            "prime 2\ngen tau 0 -2\ngen rho -1 -1\nrel 2·1\nspan 1·1\nspan 1·tau\nspan 1·rho\n",
            "line 6, col 6: span term tau has degree (0, -2),"
            " but its action name tau is that of the multiplier of degree (0, -1)",
        ),
    ],
)
def test_ambiguous_action_names_are_refused(source, message) -> None:
    with pytest.raises(ParseError) as info:
        parse_presentation(source)
    assert str(info.value) == message


def test_unambiguous_action_names_parse() -> None:
    # a repeated term, a scalar multiple, a generator power with a known
    # name and a product with none keep their names
    pres = parse_presentation(
        "prime 2\ngen tau 0 -1\ngen v 1 1\nspan 1·tau\nspan 1·tau\nspan 2·tau\nspan 1·tau^2\nspan 1·tau*v^3\n"
    )
    assert list(span_actions(pres)) == ["tau", "2tau", "tau2", "tauv3"]
    for name in PRESET_NAMES:
        preset_presentation(name, 3 if name == "HFP_ODD_R" else None)


def test_nonprime_error_text_is_stable() -> None:
    with pytest.raises(ParseError) as info:
        parse_presentation("prime 4\ngen tau 0 -1\nrel 4·1\nspan 1·1\n")
    assert str(info.value) == "line 1, col 7: 4 is not prime"
    assert (info.value.line, info.value.col) == (1, 7)


def test_scalars_parse_to_their_valuation() -> None:
    pres = parse_presentation("prime 3\nrel 1·1\nrel 27·1\nspan 9·1\n")
    assert [t.vexp for t in pres.relations + pres.spans] == [0, 3, 2]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division() -> None:
    assert [n for n in range(20_000) if _is_prime(n)] == [n for n in range(20_000) if _trial_division(n)]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_primality_rejects_strong_pseudoprimes(n) -> None:
    assert not _is_prime(n)


def test_large_prime_parses_fast() -> None:
    start = time.perf_counter()
    pres = parse_presentation("prime 100000000000031\n")
    assert time.perf_counter() - start < 0.05
    assert pres.prime == 100000000000031


def test_prime_beyond_the_exact_test_is_refused() -> None:
    with pytest.raises(ParseError) as info:
        parse_presentation(f"prime {PRIME_TEST_BOUND}\n")
    assert str(PRIME_TEST_BOUND) in str(info.value)
    assert (info.value.line, info.value.col) == (1, 7)


NAMES = st.sampled_from(("tau", "rho", "v1", "t", "x_2", "1", "-", "é", ""))
NUMBERS = st.one_of(
    st.sampled_from((0, 1, 2, 3, 4, 5, 8, 9, 27, -1, -2, 6)),
    st.integers(-(10**30), 10**30),
    st.just(PRIME_TEST_BOUND),
)
SEPARATORS = st.sampled_from((" ",) * 6 + ("  ", "\t", "\u00a0", "·", ","))


@st.composite
def terms(draw):
    """<scalar>·<monomial> with random scalars, names, exponents and joins."""
    powers = [
        f"{draw(NAMES)}{draw(st.sampled_from(('^', '^', '', '^^')))}{draw(NUMBERS)}"
        for _ in range(draw(st.integers(0, 3)))
    ]
    join = draw(st.sampled_from(("*", "*", "·", "")))
    return f"{draw(NUMBERS)}{draw(st.sampled_from(('·', '·', '.', '*', '')))}{join.join(powers) or draw(NAMES)}"


def _flat(args):
    return [a for arg in args for a in ((arg,) if isinstance(arg, str) else arg)]


NUMBER_WORDS = NUMBERS.map(str)
# the arguments each directive takes, in shape, with random values; or loose words
SHAPED = {
    "prime": st.tuples(NUMBER_WORDS),
    "gen": st.tuples(NAMES, NUMBER_WORDS, NUMBER_WORDS, st.sampled_from(((), ("inv",), ("in",)))),
    "rel": st.tuples(terms()),
    "span": st.tuples(terms()),
    "window": st.tuples(NUMBER_WORDS, NUMBER_WORDS, NUMBER_WORDS, NUMBER_WORDS),
}
LOOSE = st.lists(st.one_of(NAMES, NUMBER_WORDS, terms(), st.just("inv")), max_size=5)


@st.composite
def directive_lines(draw):
    """prime, gen, rel, span and window lines with random arguments and separators."""
    lines = [f"prime {draw(st.sampled_from((2, 3, 5)))}"] if draw(st.integers(0, 5)) else []
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from(("prime", "gen", "gen", "rel", "span", "span", "window")))
        args = draw(LOOSE) if draw(st.integers(0, 3)) == 0 else _flat(draw(SHAPED[key]))
        lines.append(draw(SEPARATORS).join([key, *args]))
    return "\n".join(lines)


def parse_or_refuse(text):
    try:
        parse_presentation(text)
    except ParseError:
        pass


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(max_size=80))
def test_only_parse_errors_escape_on_random_text(text) -> None:
    parse_or_refuse(text)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(directive_lines())
def test_only_parse_errors_escape_on_directive_lines(text) -> None:
    parse_or_refuse(text)


def test_parse_error_reports_position() -> None:
    with pytest.raises(ParseError) as info:
        parse_presentation("prime 2\ngen t 0 -1\nspan 1·t*u^2\n")
    assert info.value.line == 3
    assert info.value.col > 6


def test_budget_is_enforced() -> None:
    pres = preset_presentation("hf2")
    with pytest.raises(BudgetError):
        expand(pres, Window(-8, 8, -8, 8), budget=5)


def test_budget_error_names_the_variable_only_when_it_set_the_budget(monkeypatch) -> None:
    pres = preset_presentation("hf2")
    monkeypatch.setenv(BUDGET_ENV_VAR, "5")
    with pytest.raises(BudgetError) as info:
        expand(pres, Window(-8, 8, -8, 8))
    assert str(info.value) == (
        f"expansion exceeded the budget of 5 monomials; raise {BUDGET_ENV_VAR} if the window really is this dense"
    )
    # an explicit budget, or realize's own, ignores the variable
    with pytest.raises(BudgetError) as info:
        expand(pres, Window(-8, 8, -8, 8), budget=7)
    assert str(info.value) == "expansion exceeded the budget of 7 monomials"
    with pytest.raises(BudgetError) as info:
        realize("KGL2_R", 2, (-10, 10, -10, 10), budget=10)
    assert str(info.value) == "expansion exceeded the budget of 10 monomials"


def test_realize_budget_counts_the_expansion_it_makes() -> None:
    # KGL2_R on (-10,10)^2 expands its three corners on (-10,11,-10,10).
    # Each is charged the monomials its period search settles plus the
    # live monomials of the window: h 764 + 178, phi 426 + 71, tate
    # 322 + 116.  Each expansion has the budget to itself, so the largest
    # one decides.
    pres = preset_presentation("KGL2_R")
    answer = realize(pres, 2, (-10, 10, -10, 10), budget=942)
    assert emit_json(answer) == emit_json(realize(pres, 2, (-10, 10, -10, 10)))
    with pytest.raises(BudgetError, match="^expansion exceeded the budget of 941 monomials$"):
        realize(pres, 2, (-10, 10, -10, 10), budget=941)


def test_a_window_too_wide_for_the_budget_fails_fast() -> None:
    # the h corner of HF2_R alone holds about 4.5 million live monomials
    # on this window, over realize's own budget of 2,000,000; they are
    # counted before any is built
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="^expansion exceeded the budget of 2000000 monomials$"):
        realize("HF2_R", 2, (-1500, 1500, -1500, 1500))
    assert time.perf_counter() - start < 1


# every entry point that takes budget=, each on an input it would answer
BUDGETED = {
    "realize": lambda budget: realize("HF2_R", 2, (-3, 3, -3, 3), budget=budget),
    "odd_split": lambda budget: odd_split("HFP_ODD_R", 3, (-3, 3, -3, 3), budget=budget),
    "expand": lambda budget: expand(preset_presentation("hf2"), Window(-3, 3, -3, 3), budget=budget),
    "invert": lambda budget: invert("KGL2_R", "rho", None, (-3, 3, -3, 3), budget=budget),
    "complete": lambda budget: complete("KGL2_R", "rho", None, (-3, 3, -3, 3), budget=budget),
    # rho^-1 is a span term here, so the completion is zero and nothing is expanded for it
    "complete to zero": lambda budget: complete(
        parse_presentation(INVERTIBLE_SOURCE), "rho", None, (-3, 3, -3, 3), budget=budget
    ),
}


@pytest.mark.parametrize("budget", [0, -3, 2.5, True], ids=repr)
@pytest.mark.parametrize("entry", BUDGETED)
def test_a_bad_budget_is_refused_up_front(entry, budget, monkeypatch) -> None:
    def refused():
        with pytest.raises(ValueError, match=f"^budget must be an integer of at least 1, got {budget!r}$"):
            BUDGETED[entry](budget)

    assert expanded_windows(monkeypatch, refused) == []
    # an integer budget of at least 1 answers
    BUDGETED[entry](100_000)


def test_budget_error_names_the_variable_for_the_default(monkeypatch) -> None:
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    # x has degree (0,0), so its powers never leave the window
    dense = parse_presentation("prime 2\ngen x 0 0\nspan 1·x\n")
    with pytest.raises(BudgetError) as info:
        expand(dense, Window(0, 0, 0, 0))
    assert BUDGET_ENV_VAR in str(info.value)
    assert "budget of 100000 monomials" in str(info.value)
