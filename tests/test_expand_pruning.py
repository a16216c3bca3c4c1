"""expand stops at monomials a relation has killed, and reads nothing outside a cell.

unpruned_expand below builds a module on helpers.live_monomials, the
search expand ran before it learned to prune: every settled monomial is
extended, dead or alive.  Both must give the same cells, actions and
bytes on every preset's padded window and on small random
presentations.

expand searches one period of a presentation with units and translates
it onto the window; on localizations, near the origin and far from it,
that must give what the plain search gives on the window itself.

realize expands the localized presentations of its corners on the
window it answers plus the boundary column, and relies on every cell
being exact there: expanding a window R inside W must give the bytes of
the expansion on W restricted to R, wherever the two lie relative to the
origin.  The localized presentations are checked too.
"""

import random
from itertools import combinations_with_replacement
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracture import assembler, emit_json
from fracture.bigraded import BiDegree, BigradedModule, PGroup, PHom, Window, free_first, restrict
from fracture.presentation import (
    BudgetError,
    expand,
    expand_indexed,
    has_live_span,
    localized,
    parse_presentation,
    span_actions,
    unbounded_ray,
    unit_lattice,
)
from fracture.presets import preset_presentation

from helpers import (
    expanded_windows,
    inverse_free_rho_presentations,
    live_monomials,
    odd_rho_complete_presentations,
    span_steps,
)

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

# g1 is inverted, so it divides every monomial: rel 2·g1 kills every even
# multiple and rel 1·g0 every multiple of g0, and each span term is dead
KILLED_SOURCE = """\
prime 2
gen g0 1 1
gen g1 -1 1 inv
rel 1·g0
rel 2·g1
span 2·g1
span 1·g0*g1
"""


def unpruned_expand(pres, window, budget, extend_dead=True):
    """The reference search: dead monomials are extended like live ones, unless extend_dead is false."""
    window = Window(*window)
    p = pres.prime
    spans = span_steps(pres)
    per_degree = live_monomials(pres, window, budget, extend_dead)
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


@pytest.mark.parametrize("source", [INVERTIBLE_SOURCE, TATE_STYLE_SOURCE, KILLED_SOURCE])
def test_pruning_keeps_invertible_expansions(source) -> None:
    pres = parse_presentation(source)
    big = Window(-8, 6, -9, 5)
    assert_same_expansion(expand(pres, big), unpruned_expand(pres, big, 100_000))


@st.composite
def presentations(draw):
    """Small presentations whose expansion is finite.

    Every generator steps the same way along one axis, both drawn, and
    spans use nonnegative powers, so each factor moves a product further
    that way and only finitely many products land in any window.  The
    other coordinate of a degree takes either sign.  The first span term
    has scalar 1, and a relation with scalar 1 needs a positive power of
    a generator that is not inverted (one that needs none would kill
    every monomial), so few draws expand to an empty module; relations
    still kill monomials in about a third of them.
    """
    p = draw(st.sampled_from([2, 3]))
    ngens = draw(st.integers(1, 3))
    axis, way = draw(st.sampled_from([0, 1])), draw(st.sampled_from([-1, 1]))
    lines = [f"prime {p}"]
    finite = []
    for k in range(ngens):
        degree = [draw(st.integers(-2, 2)), way * draw(st.integers(1, 2))]
        if axis == 0:
            degree.reverse()
        inv = draw(st.booleans())
        lines.append(f"gen g{k} {degree[0]} {degree[1]}" + (" inv" if inv else ""))
        if not inv:
            finite.append(k)

    def term(vexp, relation=False):
        powers = [draw(st.integers(0, 2)) for _ in range(ngens)]
        if relation and vexp == 0 and not any(powers[k] for k in finite):
            # inverted generators divide every monomial: this would kill them all
            if finite:
                powers[draw(st.sampled_from(finite))] = draw(st.integers(1, 2))
            else:
                vexp = 1
        mono = "*".join(f"g{k}^{e}" for k, e in enumerate(powers) if e) or "1"
        return f"{p**vexp}·{mono}"

    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"rel {term(draw(st.integers(0, 2)), relation=True)}")
    lines.append(f"span {term(0)}")
    for _ in range(draw(st.integers(0, 3))):
        lines.append(f"span {term(draw(st.integers(0, 2)))}")
    return parse_presentation("\n".join(lines) + "\n")


def inner_window(draw_int, w):
    """A window of at most 5x5 cells inside w, its bounds drawn by draw_int(lo, hi)."""
    imin, jmin = draw_int(w.imin, w.imax), draw_int(w.jmin, w.jmax)
    return Window(imin, min(imin + draw_int(0, 4), w.imax), jmin, min(jmin + draw_int(0, 4), w.jmax))


def span_products(degrees, most):
    """The degrees of the products of up to most span terms, the empty one included."""
    return sorted(
        {
            BiDegree(sum(d.i for d in factors), sum(d.j for d in factors))
            for n in range(most + 1)
            for factors in combinations_with_replacement(degrees, n)
        }
    )


def hull(c, t, pad=(0, 0, 0, 0)):
    """The smallest window holding the cells c and t, widened by pad on each side."""
    return Window(min(c.i, t.i) - pad[0], max(c.i, t.i) + pad[1], min(c.j, t.j) - pad[2], max(c.j, t.j) + pad[3])


@st.composite
def around_a_product(draw, pres):
    """A window around a product c of up to three span terms and c times one
    more, where an action out of c lands; it may miss the origin."""
    degrees = list(span_actions(pres).values()) or [BiDegree(0, 0)]
    c = draw(st.sampled_from(span_products(degrees, 3)))
    return hull(c, c + draw(st.sampled_from(degrees)), [draw(st.integers(0, 6)) for _ in range(4)])


@st.composite
def probes(draw, pres, whole):
    """Five windows inside whole's, each around a cell c and c times one more
    span term: c and the term are drawn among whole's actions, or else c
    among its cells or its window's lower corner, so most probes see cells
    and actions."""
    w = whole.window
    degrees = list(span_actions(pres).values()) or [BiDegree(0, 0)]
    pairs = [(d, d + whole.multipliers[name]) for name, d in sorted(whole.actions)]
    centers = sorted(whole.cells) or [BiDegree(w.imin, w.jmin)]
    out = []
    for _ in range(5):
        if pairs:
            c, t = draw(st.sampled_from(pairs))
        else:
            c = draw(st.sampled_from(centers))
            t = c + draw(st.sampled_from(degrees))
        out.append(w.meet(hull(c, t, [draw(st.integers(0, 1))] * 4)))
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pres=presentations())
def test_pruning_keeps_random_expansions(pres) -> None:
    window = Window(-8, 8, -8, 8)
    assert_same_expansion(expand(pres, window), unpruned_expand(pres, window, 100_000))


@st.composite
def anisotropic_presentations(draw):
    """Presentations whose span steps are tall on one axis and short on the other.

    Each generator moves one way: t and s by (0, k) and (0, -k') with k,
    k' up to 6, x and y by (1, 0) and (-1, 0) or (-2, 0) (steps of 1 and
    -1 alone never need the collar).  A flat draw has t and s only, so
    every step has i = 0; any other has x, y and some of t and s, or
    none of them, when every step has j = 0.  Where both of a pair move,
    a relation of scalar 1 kills t^a*s^b (or x^a*y^b) for a, b of 2 or
    3, so every ray of degree (0,0) is killed and each cell is finite,
    while products with fewer factors of one of the pair stay live.
    Their partial products leave the hull of the window and the origin,
    which is what the collar is for.
    """
    p = draw(st.sampled_from([2, 3]))
    flat = draw(st.booleans())
    degrees = {"t": (0, draw(st.integers(2, 6))), "s": (0, -draw(st.integers(2, 6))), "x": (1, 0), "y": (-draw(st.integers(1, 2)), 0)}
    names = ["t", "s"] if flat else [n for n in "ts" if draw(st.booleans())] + ["x", "y"]
    lines = [f"prime {p}"] + [f"gen {n} {degrees[n][0]} {degrees[n][1]}" for n in names]
    for a, b in ("ts", "xy"):
        if a in names and b in names:
            lines.append(f"rel 1·{a}^{draw(st.integers(2, 3))}*{b}^{draw(st.integers(2, 3))}")
    if draw(st.booleans()):
        lines.append(f"rel {p}·{draw(st.sampled_from(names))}")
    lines.append("span 1·1")
    for n in names:
        lines.append(f"span {p ** draw(st.integers(0, 1))}·{n}")
    return parse_presentation("\n".join(lines) + "\n")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pres=anisotropic_presentations(), data=st.data())
def test_per_axis_collar_misses_no_monomial(pres, data) -> None:
    # The reference search walks the square collar of the largest step on
    # both axes; expand walks 2*s_i + 2 columns and 2*s_j + 2 rows.  The
    # window sits at a product of up to three factors of each generator,
    # its lower corner up to one cell below and left of it, so it may hold
    # the origin or lie far from it.
    c = [sum(data.draw(st.integers(0, 3)) * g.degree[x] for g in pres.generators) for x in (0, 1)]
    imin, jmin = c[0] - data.draw(st.integers(0, 1)), c[1] - data.draw(st.integers(0, 1))
    window = Window(imin, imin + data.draw(st.integers(0, 2)), jmin, jmin + data.draw(st.integers(0, 2)))
    module, index = expand_indexed(pres, window, budget=100_000)
    want = live_monomials(pres, window, 100_000, extend_dead=False)
    assert {d: {vec: v for vec, (_, v) in here.items()} for d, here in index.items()} == {
        d: {vec: v for vec, v, _ in here} for d, here in want.items()
    }
    for d, here in want.items():
        group, _ = free_first(pres.prime, [(None if e is None else e - v,) for _, v, e in here])
        assert module.cells[d] == group


def localized_presentations(name, prime):
    """The preset's presentation and the corner presentations realize expands."""
    pres = preset_presentation(name, prime)
    tau = assembler.select_tau_power(pres.prime, span_actions(pres))
    return [pres, *assembler.corner_presentations(pres, tau).values()]


@pytest.mark.parametrize("name,prime,core", FIXED)
def test_expansion_is_window_local_on_preset_windows(monkeypatch, name, prime, core) -> None:
    # realize expands each corner on the core plus its boundary column
    (corner_window, *_) = expanded_windows(monkeypatch, lambda: assembler.realize(name, prime, core))
    assert corner_window == core._replace(imax=core.imax + 1)
    big = realize_window(core)
    rng = random.Random(f"{name} {core}")
    parts = [corner_window, *(inner_window(rng.randint, big) for _ in range(6))]
    for pres in localized_presentations(name, prime):
        whole = expand(pres, big, budget=2_000_000)
        for part in parts:
            assert_same_expansion(expand(pres, part, budget=2_000_000), restrict(whole, part))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_expansion_is_window_local(data) -> None:
    pres = data.draw(presentations())
    whole = expand(pres, data.draw(around_a_product(pres)))
    for part in data.draw(probes(pres, whole)):
        assert_same_expansion(expand(pres, part), restrict(whole, part))


@st.composite
def localizations(draw):
    """A random presentation localized at one or two of its span actions of scalar 1, nonzero and of finite type.

    Its units translate its expansion along a lattice of rank 1 or 2.
    """
    pres = draw(st.one_of(inverse_free_rho_presentations(), odd_rho_complete_presentations(), presentations()))
    names = [name for name in span_actions(pres) if not name[0].isdigit()]
    assume(names)
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
        pres = localized(pres, name)
    assume(has_live_span(pres) and unbounded_ray(pres) is None)
    return pres


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pres=localizations(), data=st.data())
def test_translated_expansion_equals_the_plain_search(pres, data) -> None:
    (a, b, _), (_, c, _) = unit_lattice(pres)
    assert a or c
    # a window of up to 5x5 cells at the origin, or at a translate of the
    # origin by 3 to 8 steps of each basis vector of the unit lattice
    steps = st.integers(3, 8).flatmap(lambda k: st.sampled_from([k, -k]))
    m, n = (data.draw(steps) for _ in range(2)) if data.draw(st.booleans()) else (0, 0)
    imin, jmin = m * a - data.draw(st.integers(0, 2)), m * b + n * c - data.draw(st.integers(0, 2))
    window = Window(imin, imin + data.draw(st.integers(0, 4)), jmin, jmin + data.draw(st.integers(0, 4)))
    try:
        want = unpruned_expand(pres, window, 50_000, extend_dead=False)
    except BudgetError:
        assume(False)
    got, index = expand_indexed(pres, window, budget=2_000_000)
    assert_same_expansion(got, want)
    per_degree = live_monomials(pres, window, 50_000, extend_dead=False)
    assert index.keys() == per_degree.keys()
    for d, here in per_degree.items():
        here.sort(key=lambda g: (0, 0, g[0]) if g[2] is None else (1, -(g[2] - g[1]), g[0]))
        assert index[d] == {vec: (pos, v) for pos, (vec, v, _) in enumerate(here)}


# at the origin, and in three quadrants away from it
CORNER_WINDOWS = [Window(-2, 2, -2, 2), Window(20, 24, 18, 22), Window(-24, -20, 20, 24), Window(-3, 1, -26, -22)]


@pytest.mark.parametrize("window", CORNER_WINDOWS, ids=str)
@pytest.mark.parametrize("name,prime", [("HF2_R", None), ("HZ2_R", None), ("KGL2_R", None), ("HFP_ODD_R", 3)])
def test_translated_corners_equal_the_plain_search(name, prime, window) -> None:
    # h is translated along a lattice of rank 1, tate along one of rank 2
    for local in localized_presentations(name, prime)[1:]:
        got, index = expand_indexed(local, window, budget=2_000_000)
        assert_same_expansion(got, unpruned_expand(local, window, 500_000, extend_dead=False))
