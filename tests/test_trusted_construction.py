"""Maps and modules built without re-validation are valid all the same.

PHom(...) checks shape and torsion compatibility.  Composites, sums,
negations, zero and identity maps, and restrictions are
built without those checks, on the argument that validity follows from
their inputs.  These tests hold the argument to the outputs: every module
the pipeline emits passes validate_module, every map it stores passes the
validating constructor again, and the unchecked arithmetic agrees with
the checked construction on random maps.

The localizations (invert, complete) and the fracture corners are exact
expansions, so they get no exemption either.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture.assembler import corners, odd_split, realize
from fracture.bigraded import (
    BigradedModule,
    PGroup,
    PHom,
    Window,
    pgroup_sum,
    phom_identity,
    phom_zero,
    restrict,
    sum_map,
    validate_module,
)
from fracture.localization import complete, invert
from fracture.matrices import identity, mat_add, mat_mul, mat_neg
from fracture.presentation import expand, parse_presentation, span_actions
from fracture.presets import PRESET_NAMES, preset_presentation

from helpers import clear_caches, twin
from test_assembler import assert_pictures_fit

WINDOW = (-4, 4, -4, 4)
WIDE = (-10, 10, -10, 10)
EXPANSION = Window(-6, 6, -8, 6)

# every preset, the odd-primary one at two primes
PRESETS = [(name, None) for name in PRESET_NAMES if name != "HFP_ODD_R"] + [("HFP_ODD_R", 3), ("HFP_ODD_R", 5)]
PRESET_IDS = [name if p is None else f"{name}-p{p}" for name, p in PRESETS]


def revalidated(f):
    """f rebuilt through the validating constructor; raises if f is invalid."""
    g = PHom(f.source, f.target, f.entries)
    assert g.entries == f.entries
    return g


def assert_sound(module):
    assert validate_module(module) == []
    for f in module.actions.values():
        revalidated(f)
        assert not f.is_zero()


def expansion(name, p):
    return expand(preset_presentation(name, p), EXPANSION)


@pytest.mark.parametrize("name,p", PRESETS, ids=PRESET_IDS)
def test_realized_modules_are_sound(name, p) -> None:
    # KGL2_R on WIDE transports six actions to zero maps, which are not stored
    for window in (WINDOW, WIDE):
        assert_sound(realize(name, p, window).result)


def test_an_expansion_stores_no_zero_action() -> None:
    # 2x sends 1 to 2x, which is 0 as x has order 2; x itself does not vanish
    pres = parse_presentation("prime 2\ngen x 1 0\nrel 2·x\nspan 1·1\nspan 1·x\nspan 2·x\n")
    module = expand(pres, Window(0, 2, 0, 0))
    assert_sound(module)
    assert set(module.actions) == {("x", (0, 0)), ("x", (1, 0))}


@pytest.mark.parametrize("p", [3, 5])
def test_odd_split_parts_are_sound(p) -> None:
    for part in odd_split("HFP_ODD_R", p, WINDOW):
        assert_sound(part)


@pytest.mark.parametrize("name,p", PRESETS, ids=PRESET_IDS)
def test_corners_and_their_maps_are_sound(name, p) -> None:
    # the corners are exact expansions: no unverified cell, nothing exempt
    square = corners(preset_presentation(name, p), EXPANSION)
    for corner in (square.h, square.phi, square.tate):
        assert corner.unverified == frozenset()
        assert_sound(corner)
    assert_pictures_fit(square)
    for pair in square.pictures.values():
        for f in pair:
            revalidated(f)


@pytest.mark.parametrize("name,p", PRESETS, ids=PRESET_IDS)
def test_localizations_along_every_multiplier_are_sound(name, p) -> None:
    mults = span_actions(preset_presentation(name, p))
    assert mults
    for mult in mults:
        assert_sound(complete(name, mult, p, EXPANSION))
        # a multiplier of scalar p would invert p
        if not mult[0].isdigit():
            assert_sound(invert(name, mult, p, EXPANSION))


@pytest.mark.parametrize("name,p", PRESETS, ids=PRESET_IDS)
def test_restrict_equals_the_validated_construction(name, p) -> None:
    module = expansion(name, p)
    sub = Window(-3, 2, -5, 1)
    got = restrict(module, sub)
    want = BigradedModule(
        module.prime,
        sub,
        {d: g for d, g in module.cells.items() if sub.contains(d)},
        {(n, d): f for (n, d), f in module.actions.items() if sub.contains(d)},
        module.multipliers,
        [d for d in module.unverified if sub.contains(d)],
        module.caveats,
    )
    for slot in BigradedModule.__slots__:
        assert getattr(got, slot) == getattr(want, slot), slot
    assert list(got.cells) == list(want.cells)
    # modules stay independent of each other
    assert got.multipliers is not module.multipliers
    assert_sound(got)


def test_zero_map_keeps_its_prime_check() -> None:
    with pytest.raises(ValueError, match="different primes"):
        phom_zero(PGroup(2, 1, ()), PGroup(3, 1, ()))


@st.composite
def groups(draw, p):
    rank = draw(st.integers(0, 2))
    torsion = sorted(draw(st.lists(st.integers(1, 3), max_size=3)), reverse=True)
    return PGroup(p, rank, tuple(torsion))


@st.composite
def homs(draw, source, target):
    """A random compatible map, entries not reduced."""
    p = source.prime
    rows = []
    for f in target.exponents():
        row = []
        for e in source.exponents():
            if f is None and e is not None:
                row.append(0)
            else:
                step = 1 if (f is None or e is None or e >= f) else p ** (f - e)
                row.append(step * draw(st.integers(-30, 30)))
        rows.append(row)
    return PHom(source, target, rows)


def same_hom(got, want):
    """got, built without checks, equals want, built by PHom(...).

    A cached constructor hands back the groups of the first equal call, so
    the examples that use this start with empty caches.
    """
    assert got.source is want.source and got.target is want.target
    assert got.entries == want.entries
    revalidated(got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_arithmetic_equals_its_validated_construction(data) -> None:
    clear_caches()
    p = data.draw(st.sampled_from((2, 3, 5)))
    a, b, c = (data.draw(groups(p)) for _ in range(3))
    f, f2 = data.draw(homs(b, c)), data.draw(homs(b, c))
    g = data.draw(homs(a, b))
    product = mat_mul(f.entries, g.entries, b.ngens, a.ngens)
    same_hom(f @ g, PHom(a, c, product))
    total = mat_add(f.entries, f2.entries)
    same_hom(f + f2, PHom(b, c, total))
    same_hom(-f, PHom(b, c, mat_neg(f.entries)))
    same_hom(phom_zero(b, c), PHom(b, c, [[0] * b.ngens for _ in range(c.ngens)]))
    same_hom(phom_identity(b), PHom(b, b, [[int(r == s) for s in range(b.ngens)] for r in range(b.ngens)]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_placed_sum_maps_equal_the_composites_they_replace(data) -> None:
    clear_caches()
    p = data.draw(st.sampled_from((2, 3, 5)))
    a, b, c, d, k = (data.draw(groups(p)) for _ in range(5))
    ab, ia, ib, pa, pb = pgroup_sum(a, b)
    cd, ic, id_, _, _ = pgroup_sum(c, d)
    # out of a sum, by columns: the splice's difference map
    f, g = data.draw(homs(a, c)), data.draw(homs(b, c))
    same_hom(sum_map(ab, c, ((f, None, pa), (-g, None, pb))), (f @ pa) - (g @ pb))
    # into a sum, by rows: a kernel's images in both summands, stacked
    x, y = data.draw(homs(k, a)), data.draw(homs(k, b))
    same_hom(sum_map(k, ab, ((x, ia, None), (y, ib, None))), (ia @ x) + (ib @ y))
    # between sums, block diagonal: an action on cokernel + kernel
    f, g = data.draw(homs(a, c)), data.draw(homs(b, d))
    same_hom(sum_map(ab, cd, ((f, ic, pa), (g, id_, pb))), (ic @ f @ pa) + (id_ @ g @ pb))
    # the structure maps themselves are placed identities
    same_hom(sum_map(ab, a, ((phom_identity(a), None, pa),)), pa)
    same_hom(sum_map(b, ab, ((phom_identity(b), ib, None),)), ib)


def is_canonical(f):
    """Whether every entry into a torsion generator of order p^e lies in [0, p^e)."""
    return all(
        e is None or 0 <= x < f.prime**e for e, row in zip(f.target.exponents(), f.entries) for x in row
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_construction_is_canonical_and_equal_maps_are_equal(data) -> None:
    p = data.draw(st.sampled_from((2, 3, 5)))
    a, b, c = (data.draw(groups(p)) for _ in range(3))
    f, f2 = data.draw(homs(b, c)), data.draw(homs(b, c))
    g = data.draw(homs(a, b))
    # the same map as f, each entry moved by a multiple of its target order
    shifts = [data.draw(st.integers(-3, 3)) for _ in range(b.ngens * c.ngens)]
    moved = [
        [x if e is None else x + shifts[t * b.ngens + s] * p**e for s, x in enumerate(row)]
        for t, (e, row) in enumerate(zip(c.exponents(), f.entries))
    ]
    ab, _, _, pa, pb = pgroup_sum(a, b)
    h = data.draw(homs(a, c))
    twins = (twin(a), twin(b), twin(c))
    built = {
        "validating": (f, PHom(twins[1], twins[2], moved)),
        "composite": (f @ g, PHom(twins[0], twins[2], mat_mul(f.entries, g.entries, b.ngens, a.ngens))),
        "sum": (f + f2, PHom(twins[1], twins[2], mat_add(f.entries, f2.entries))),
        "negation": (-f, PHom(twins[1], twins[2], mat_neg(moved))),
        "zero": (phom_zero(b, c), PHom(twins[1], twins[2], [[0] * b.ngens for _ in range(c.ngens)])),
        "identity": (phom_identity(b), PHom(twins[1], twins[1], identity(b.ngens))),
        "sum_map": (sum_map(ab, c, ((h, None, pa), (-f, None, pb))), (h @ pa) - (f @ pb)),
    }
    for path, (one, other) in built.items():
        assert is_canonical(one) and is_canonical(other), path
        assert one == other and hash(one) == hash(other), path
        assert one is not other, path


def test_a_block_lands_only_on_generators_of_its_orders() -> None:
    a, b = PGroup(2, 0, (2,)), PGroup(2, 0, (1,))
    ab, _, _, pa, pb = pgroup_sum(a, b)
    assert sum_map(ab, a, ((phom_identity(a), None, pa),)).entries == ((1, 0),)
    with pytest.raises(ValueError, match="other orders"):
        sum_map(ab, a, ((phom_identity(a), None, pb),))
