"""The cone rule behind inverse_product, against exact oracles.

presentation._cone_multiple decides whether N·target is a sum of the
columns with natural weights for some N >= 1, by phase 1 of the simplex
method.  The oracle here is Carathéodory's theorem: target lies in the
rational cone of the columns exactly when some linearly independent set
of columns solves for it with weights of at least 0, and the vertex the
method ends on is such a solution, so its N clears that solution's
denominators.  inverse_product and has_live_span are checked on small
presentations whose answers can be read off by hand.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture.assembler import rho_complete_defect
from fracture.presentation import _cone_multiple, has_live_span, inverse_product, parse_presentation


def independent_solution(columns, target):
    """The weights with which the columns sum to target, if they are independent and do; else None."""
    rows = [[Fraction(col[r]) for col in columns] + [Fraction(b)] for r, b in enumerate(target)]
    k = len(columns)
    pivots = []
    for c in range(k):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if r is None:
            return None
        rows[len(pivots)], rows[r] = rows[r], rows[len(pivots)]
        top = rows[len(pivots)]
        for q, row in enumerate(rows):
            if q != len(pivots) and row[c]:
                factor = row[c] / top[c]
                row[:] = [a - factor * b for a, b in zip(row, top)]
        pivots.append(c)
    if any(row[-1] for row in rows[k:]):
        return None
    return [rows[c][-1] / rows[c][c] for c in range(k)]


def cone_solutions(columns, target):
    """Every solution with weights of at least 0 on a linearly independent set of columns, as {subset: weights}."""
    out = {}
    for size in range(len(target) + 1):
        for subset in combinations(range(len(columns)), size):
            w = independent_solution([columns[k] for k in subset], target)
            if w is not None and all(x >= 0 for x in w):
                out[subset] = w
    return out


vectors = st.integers(1, 3).flatmap(
    lambda rows: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=rows, max_size=rows), max_size=5),
        st.lists(st.integers(-2, 2), min_size=rows, max_size=rows).filter(any),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vectors)
def test_cone_multiple_matches_caratheodory(case) -> None:
    columns, target = case
    n = _cone_multiple(columns, target)
    solutions = cone_solutions(columns, target)
    if n is None:
        assert solutions == {}
        return
    assert n >= 1
    assert any(all((n * x).denominator == 1 for x in w) for w in solutions.values())


@pytest.mark.parametrize(
    "columns, target, expected",
    [
        ([[1, 0]], [1, 0], 1),
        # half of the target is the column
        ([[2, 0]], [1, 0], 2),
        # half of each column, on the cone's interior
        ([[1, 1], [1, -1]], [1, 0], 2),
        # on a ray of the cone
        ([[1, 0], [0, 1]], [0, 1], 1),
        # opposite the cone
        ([[1, 0], [0, 1]], [-1, 0], None),
        ([], [1], None),
        # a line through the origin is a cone: its columns cancel
        ([[1, 1], [-1, -1]], [-3, -3], 1),
        # in the plane of the columns, outside their cone
        ([[1, 0, 1], [0, 1, 1]], [1, -1, 0], None),
    ],
    ids=["column", "half", "interior", "ray", "opposite", "no-columns", "line", "outside-the-plane-cone"],
)
def test_cone_multiple_on_small_cones(columns, target, expected) -> None:
    assert _cone_multiple(columns, target) == expected


def presentation(*lines):
    return parse_presentation("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "spans, expected",
    [
        # rho^-1 itself
        (["1·rho", "1·rho^-1"], (("rho", -1),)),
        # rho^-2 inverts rho^2
        (["1·rho", "1·rho^-2"], (("rho", -2),)),
        # rho^-1*tau^-1 times tau, both inverted
        (["1·rho", "1·tau", "1·rho^-1*tau^-1"], (("rho", -1),)),
        # the scalar 2 raises the valuation, so 2·rho^-1 is left out
        (["1·rho", "2·rho^-1"], None),
        # rho^-1*tau^2 leaves a positive power of tau that no span term cancels
        (["1·rho", "1·tau", "1·rho^-1*tau^2"], None),
    ],
    ids=["inverse", "square", "product", "scalar", "tau-left-over"],
)
def test_inverse_product_with_every_generator_inverted(spans, expected) -> None:
    pres = presentation("prime 2", "gen rho -1 -1 inv", "gen tau 0 -1 inv", *(f"span {s}" for s in spans))
    assert inverse_product(pres, "rho") == expected


def test_inverse_product_leaves_out_generators_that_are_not_inverted() -> None:
    # rho^-1*v times v^-1 would be rho^-1, but v is not inverted, so v^-1 is no span term
    # and rho^-1*v carries a power no inverse cancels
    pres = presentation("prime 2", "gen rho -1 -1 inv", "gen v 1 1", "span 1·rho", "span 1·rho^-1*v")
    assert inverse_product(pres, "rho") is None


def test_inverse_product_of_a_scalar_multiplier_is_none() -> None:
    # 2·rho has no inverse of scalar 1, whatever the span terms
    pres = presentation("prime 2", "gen rho -1 -1 inv", "span 2·rho", "span 1·rho^-1")
    assert inverse_product(pres, "2rho") is None
    with pytest.raises(ValueError, match="^no span action 'rho' to complete along$"):
        inverse_product(pres, "rho")


@pytest.mark.parametrize(
    "relations, live",
    [
        ([], True),
        # 2·1 kills 1 at valuation 1, and the span terms have valuation 0
        (["rel 2·1"], True),
        # 1·1 kills every monomial at valuation 0
        (["rel 1·1"], False),
        # rho is inverted, so 1·rho kills every monomial too
        (["rel 1·rho"], False),
    ],
    ids=["free", "torsion", "dead", "dead-through-an-inverse"],
)
def test_has_live_span_and_the_contract(relations, live) -> None:
    # rho^-1 is a span term, so the contract is broken unless the module is zero
    pres = presentation("prime 2", "gen rho -1 -1 inv", *relations, "span 1·rho", "span 1·rho^-1")
    assert has_live_span(pres) == live
    assert rho_complete_defect(pres) == ((("rho", -1),) if live else None)
