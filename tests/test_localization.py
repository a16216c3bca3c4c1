"""Truncated inversion and completion on hand-built modules and presets.

The hand modules exercise the transport and certificate logic edge by
edge; the preset cases check the frozen values that the assembler relies
on, on a window padded far enough that the core cells are exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracture.assembler as assembler
import fracture.localization as localization
from fracture.assembler import corners, realize
from fracture.bigraded import (
    KNOWN_MULTIPLIER_DEGREES,
    BiDegree,
    BigradedModule,
    Multiplier,
    PGroup,
    PHom,
    Window,
    act,
    restrict,
)
from fracture.localization import (
    COMPLETION_CAVEAT,
    _stabilized,
    chain_composite,
    chain_end,
    chain_power,
    chain_starts,
    complete,
    composite_action,
    default_steps,
    edge_cells,
    induced_map,
    insertion,
    invert,
    steps_inside,
)
from fracture.presentation import expand
from fracture.presets import preset_presentation
from fracture.snf import cokernel, invert_iso, is_isomorphism

from helpers import cellwise_equal

S = Multiplier("s", BiDegree(1, 0))


def chain_module(groups, entries, multiplier=S, prime=2):
    """A one-row module at (0,0), (1,0), ... with the given maps between."""
    cells = {BiDegree(k, 0): g for k, g in enumerate(groups)}
    actions = {}
    for k, rows in enumerate(entries):
        src, tgt = cells[BiDegree(k, 0)], cells[BiDegree(k + 1, 0)]
        actions[(multiplier.name, BiDegree(k, 0))] = PHom(src, tgt, rows)
    window = Window(0, len(groups) - 1, 0, 0)
    return BigradedModule(prime, window, cells, actions, {multiplier.name: multiplier.degree})


def padded_expansion(name, prime, core, pad=13):
    big = Window(core.imin - pad, core.imax + pad, core.jmin - pad, core.jmax + pad)
    return expand(preset_presentation(name, prime), big, budget=1_000_000)


def test_composite_action_multiplies_the_steps() -> None:
    module = chain_module([PGroup(2, 0, (2,))] * 3, [[[2]], [[1]]])
    assert composite_action(module, S, (0, 0), 0).entries == ((1,),)
    assert composite_action(module, S, (0, 0), 2).entries == ((2,),)
    assert insertion(module, S, [(0, 0)])[(0, 0)].entries == ((2,),)


def _depth_by_walking(window, d, delta, cap):
    n, cur = 0, d
    while n < cap and window.contains(cur + delta):
        cur, n = cur + delta, n + 1
    return n


def test_depth_closed_form_matches_the_walk() -> None:
    w = Window(-3, 4, -2, 5)
    outside = Window(-6, 7, -5, 8)
    for delta in (BiDegree(-1, -1), BiDegree(0, -1), BiDegree(0, -4), BiDegree(2, 1), BiDegree(1, 0)):
        for d in outside.cells():
            for cap in (0, 1, 3, 20):
                expected = _depth_by_walking(w, d, delta, cap)
                assert chain_end(w, d, delta, cap)[0] == expected, (d, delta, cap)


def test_steps_inside_matches_the_walk_both_ways() -> None:
    w = Window(-3, 4, -2, 5)
    outside = Window(-6, 7, -5, 8)
    for delta in (BiDegree(-1, -1), BiDegree(0, -1), BiDegree(0, -4), BiDegree(2, 1), BiDegree(1, 0), BiDegree(-3, 2)):
        for d in outside.cells():
            walked = set()
            for way in (1, -1):
                # a walk of 30 steps leaves the window for good
                for n in range(0, 30 * way, way):
                    if w.contains(d + delta.scaled(n)):
                        walked.add(n)
            assert set(steps_inside(w, d, delta)) == walked, (d, delta)


@pytest.mark.parametrize("name,prime", [("hf2", 2), ("hz2", 2), ("kgl2", 2), ("hfp_odd", 3)])
def test_insertion_matches_composite_action(name, prime) -> None:
    module = expand(preset_presentation(name, prime), Window(-3, 3, -4, 3))
    w = module.window
    # plain tuples, out of chain order and repeated
    cells = [tuple(d) for d in reversed(list(w.cells()))]
    cells = cells[1::2] + cells[::2] + cells[:5]
    for mult in module.multipliers:
        x = module.multiplier(mult)
        for K in (1, 3, None):
            maps = insertion(module, mult, cells, K)
            assert sorted(maps) == sorted(w.cells())
            assert all(type(d) is BiDegree for d in maps)
            depth = default_steps(w) if K is None else K
            for d in w.cells():
                expected = composite_action(module, x, d, chain_end(w, d, x.degree, depth)[0])
                assert repr(maps[d]) == repr(expected), (mult, K, d)


def chain_lines_by_scan(window, delta):
    """Each maximal chain start, start+delta, ... in the window, as (start, length)."""
    return [(d, len(steps_inside(window, d, delta))) for d in window.cells() if not window.contains(d - delta)]


@pytest.mark.parametrize("name,prime", [("hf2", 2), ("hz2", 2), ("kgl2", 2), ("hfp_odd", 3)])
def test_chain_composite_matches_composite_action(name, prime) -> None:
    module = expand(preset_presentation(name, prime), Window(-3, 3, -4, 3))
    diameter = default_steps(module.window)
    for mult in module.multipliers:
        x = module.multiplier(mult)
        for K in (1, 2, diameter, diameter + 3):
            power = chain_power(module, x)
            for start, length in chain_lines_by_scan(module.window, x.degree):
                starting_at = chain_composite(module, x, start)
                ending_at = chain_composite(module, x, start)
                for k in range(length):
                    d = start + x.degree.scaled(k)
                    n = min(K, length - 1 - k)
                    m = min(K, k)
                    expected = composite_action(module, x, d, n)
                    assert repr(starting_at(k, k + n)) == repr(expected), (mult, K, d)
                    assert repr(power(d, n)) == repr(expected), (mult, K, d)
                    expected = composite_action(module, x, d - x.degree.scaled(m), m)
                    assert repr(ending_at(k - m, k)) == repr(expected), (mult, K, d)
                    assert repr(power(d - x.degree.scaled(m), m)) == repr(expected), (mult, K, d)


def test_chain_composite_reduces_a_single_step() -> None:
    # 5 and 1 are the same map into Z/4; composites carry reduced entries
    module = chain_module([PGroup(2, 0, (2,))] * 3, [[[5]], [[1]]])
    span = chain_composite(module, S, (0, 0))
    assert span(0, 0).entries == ((1,),)
    assert span(0, 1).entries == composite_action(module, S, (0, 0), 1).entries == ((1,),)
    assert span(1, 2).entries == ((1,),)
    with pytest.raises(ValueError):
        span(0, 2)


def test_invert_reads_the_deepest_stage_and_flags_honestly() -> None:
    module = chain_module([PGroup(2, 0, (2,))] * 3, [[[2]], [[1]]])
    inv = invert(module, S)
    for k in range(3):
        assert inv.cell((k, 0)) == PGroup(2, 0, (2,))
    assert (0, 0) not in inv.unverified
    assert (1, 0) not in inv.unverified
    assert (2, 0) in inv.unverified
    # the multiplier acts as the identity on the common deepest stage
    assert act(inv, "s", (0, 0)).entries == ((1,),)
    assert act(inv, "s", (1, 0)).entries == ((1,),)
    assert is_isomorphism(act(inv, "s", (0, 0)))


def test_invert_is_idempotent_on_verified_cells() -> None:
    module = chain_module([PGroup(2, 0, (2,))] * 3, [[[2]], [[1]]])
    once = invert(module, S)
    twice = invert(once, S)
    for d in set(once.cells) - once.unverified:
        assert twice.cell(d) == once.cell(d)


def test_invert_drops_actions_it_cannot_transport() -> None:
    module = chain_module([PGroup(2, 0, (2,))] * 2, [[[2]]])
    inv = invert(module, S)
    assert inv.cell((0, 0)) == PGroup(2, 0, (2,))
    assert (0, 0) in inv.unverified
    assert ("s", BiDegree(0, 0)) not in inv.actions


def test_invert_rejects_degree_zero_and_bad_steps() -> None:
    module = chain_module([PGroup(2, 0, (1,))] * 2, [[[1]]])
    with pytest.raises(ValueError, match="degree"):
        invert(module, "2")
    with pytest.raises(ValueError, match="at least one step"):
        invert(module, S, steps=0)


def test_invert_of_the_zero_module_is_zero() -> None:
    module = BigradedModule(2, Window(-2, 2, -2, 2), {}, {}, {"s": BiDegree(1, 0)})
    assert not invert(module, S).cells


def test_complete_quotients_by_the_deepest_image() -> None:
    module = chain_module([PGroup(2, 0, (2,))] * 3, [[[2]], [[2]]])
    done = complete(module, S)
    # at (2,0) the two-step image is 4 = 0, so the cell is certified whole
    assert done.cell((2, 0)) == PGroup(2, 0, (2,))
    assert (2, 0) not in done.unverified
    # at (1,0) only one step is visible and its image is 2Z/4
    assert done.cell((1, 0)) == PGroup(2, 0, (1,))
    assert (1, 0) in done.unverified
    # at (0,0) nothing is visible and the cell passes through untouched
    assert done.cell((0, 0)) == PGroup(2, 0, (2,))
    assert (0, 0) in done.unverified
    assert COMPLETION_CAVEAT in done.caveats


def test_complete_flags_actions_that_do_not_descend() -> None:
    two = PGroup(2, 0, (1, 1))
    step = PHom(two, two, [[1, 0], [0, 0]])
    mults = {"x": BiDegree(1, 0), "y": BiDegree(1, 0)}
    x_chain = {("x", BiDegree(k, 0)): step for k in range(3)}
    off_image = {("y", BiDegree(2, 0)): PHom(two, two, [[0, 0], [1, 0]])}

    def completed(actions):
        module = BigradedModule(2, Window(0, 3, 0, 0), {BiDegree(k, 0): two for k in range(4)}, actions, mults)
        return complete(module, Multiplier("x", BiDegree(1, 0)), steps=2)

    # (2,0) sees both steps of the completion with the x-image stable
    # across the last one, so only a failed action can flag it
    plain = completed(x_chain)
    assert plain.cell((2, 0)) == plain.cell((3, 0)) == PGroup(2, 0, (1,))
    assert plain.unverified.isdisjoint({(2, 0), (3, 0)})
    # y sends the x-image off itself, so it induces no map of the quotients
    done = completed({**x_chain, **off_image})
    assert done.cell((2, 0)) == PGroup(2, 0, (1,))
    assert (2, 0) in done.unverified
    assert (3, 0) not in done.unverified
    assert ("y", BiDegree(2, 0)) not in done.actions


def _tau_off_a_rho_chain(middle, rho_in, target, tau_out):
    """rho-chain (2,2) -> (1,1) -> (0,0) of Z -> Z -> middle, then tau to target.

    Nothing maps into (0,-1) along rho, so its completion is the whole
    target and verified; (0,0) sees the full two steps with the image
    stable across the last one, so it is verified unless tau fails to
    induce a map of the quotients.
    """
    z = PGroup(2, 1)
    cells = {BiDegree(2, 2): z, BiDegree(1, 1): z, BiDegree(0, 0): middle, BiDegree(0, -1): target}
    actions = {
        ("rho", BiDegree(2, 2)): PHom(z, z, [[1]]),
        ("rho", BiDegree(1, 1)): PHom(z, middle, rho_in),
        ("tau", BiDegree(0, 0)): PHom(middle, target, tau_out),
    }
    mults = {"rho": BiDegree(-1, -1), "tau": BiDegree(0, -1)}
    return BigradedModule(2, Window(0, 2, -1, 2), cells, actions, mults)


def _quotient_reason(module):
    """Why tau at (0,0) induces no map of the depth-2 rho-quotients, or None."""
    rho = module.multiplier("rho")
    source = cokernel(composite_action(module, rho, (2, 2), 2))
    target = cokernel(composite_action(module, rho, (2, 1), 2))
    return induced_map(act(module, "tau", (0, 0)), source, target)[1]


@pytest.mark.parametrize(
    "middle, rho_in, bad, good, reason",
    [
        # the quotient Z/2 at (0,0) cannot map nontrivially into a free target,
        # though it maps fine onto Z/2
        (PGroup(2, 1), [[2]], (PGroup(2, 1), [[1]]), (PGroup(2, 0, (1,)), [[1]]), "does not descend"),
        # the quotient of Z2 + Z2 by the rho-image maps fine into Z2, but tau
        # moves the rho-image off zero unless it kills it
        (PGroup(2, 2), [[0], [1]], (PGroup(2, 1), [[1, 1]]), (PGroup(2, 1), [[1, 0]]), "is not well defined"),
    ],
    ids=["does-not-descend", "not-well-defined"],
)
def test_complete_flags_a_cell_whose_action_fails_to_induce(middle, rho_in, bad, good, reason) -> None:
    d = BiDegree(0, 0)
    control = _tau_off_a_rho_chain(middle, rho_in, *good)
    assert _quotient_reason(control) is None
    fine = complete(control, "rho", steps=2)
    assert d not in fine.unverified
    assert ("tau", d) in fine.actions

    module = _tau_off_a_rho_chain(middle, rho_in, *bad)
    assert _quotient_reason(module) == reason
    done = complete(module, "rho", steps=2)
    assert done.cell(d) == fine.cell(d)
    assert d in done.unverified
    assert ("tau", d) not in done.actions


def test_complete_of_the_zero_module_is_zero() -> None:
    module = BigradedModule(2, Window(-2, 2, -2, 2), {}, {}, {"s": BiDegree(1, 0)})
    assert not complete(module, S).cells


def test_invert_then_complete_kills_band_modules() -> None:
    # s vanishes past the support band, and the window is wide enough to
    # see that, so localizing after completing leaves nothing
    module = chain_module([PGroup(2, 0, (1,))] * 3 + [PGroup(2, 0)], [[[1]], [[1]], []])
    done = complete(module, S)
    assert not invert(done, S).cells


def test_inverted_preset_obeys_the_support_law() -> None:
    core = Window(-4, 4, -4, 4)
    inv = restrict(invert(padded_expansion("hf2", 2, core), "rho"), core)
    assert inv.cell((1, 0)) == PGroup(2, 0, (1,))
    for d in core.cells():
        expected = d.i >= d.j
        assert (not inv.cell(d).is_zero()) == expected, d
        if expected:
            assert d not in inv.unverified, d


def test_inverted_preset_order_bound_at_full_depth() -> None:
    module = expand(preset_presentation("hz2"), Window(-6, 6, -6, 6))
    K = default_steps(module.window)
    inv = invert(module, "rho")
    delta = BiDegree(-1, -1).scaled(K)
    for d in module.window.cells():
        far = d + delta
        if not module.window.contains(far):
            continue
        got, ref = inv.cell(d), module.cell(far)
        assert got.rank <= ref.rank
        if ref.rank == 0:
            assert got.rank == 0 and sum(got.torsion) <= sum(ref.torsion)


def test_inverting_rho_kills_odd_primary_presets() -> None:
    core = Window(-4, 4, -4, 4)
    inv = restrict(invert(padded_expansion("hfp_odd", 3, core), "rho"), core)
    assert not inv.cells


def test_completion_fixes_rho_complete_presets() -> None:
    core = Window(-4, 4, -4, 4)
    for name, prime in [("hf2", 2), ("hfp_odd", 3)]:
        big = padded_expansion(name, prime, core)
        done = restrict(complete(big, "rho"), core)
        expected = expand(preset_presentation(name, prime), core)
        assert cellwise_equal(done, expected)
        for d in done.cells:
            assert d not in done.unverified, (name, d)
    assert act(done, "tau2", (0, 0)).entries == ((1,),)


def test_multiplier_acts_invertibly_between_verified_cells() -> None:
    core = Window(-4, 4, -4, 4)
    inv = invert(padded_expansion("hz2", 2, core), "rho")
    checked = 0
    for d in core.cells():
        t = d + BiDegree(-1, -1)
        if inv.unverified.isdisjoint({d, t}) and not inv.cell(d).is_zero():
            assert is_isomorphism(act(inv, "rho", d)), d
            checked += 1
    assert checked > 20


# The support-driven stages against the window scans they replaced.

SUPPORT_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SUPPORT_PRESETS = [("hf2", 2), ("hz2", 2), ("kgl2", 2), ("hfp_odd", 3), ("hfp_odd", 5)]
STEP_DEGREES = sorted({BiDegree(*d) for d in KNOWN_MULTIPLIER_DEGREES.values()} | {BiDegree(1, 0), BiDegree(0, 3)})


@st.composite
def windows(draw, lo=-6, hi=6, max_size=8):
    imin = draw(st.integers(lo, hi))
    jmin = draw(st.integers(lo, hi))
    return Window(imin, imin + draw(st.integers(0, max_size)), jmin, jmin + draw(st.integers(0, max_size)))


@st.composite
def subwindows(draw, w):
    i0, i1 = sorted(draw(st.integers(w.imin, w.imax)) for _ in range(2))
    j0, j1 = sorted(draw(st.integers(w.jmin, w.jmax)) for _ in range(2))
    return Window(i0, i1, j0, j1)


@st.composite
def localization_cases(draw):
    name, prime = draw(st.sampled_from(SUPPORT_PRESETS))
    module = expand(preset_presentation(name, prime), draw(windows()))
    names = sorted(set(module.multipliers) | {"rho", "tau", "tau2", "tau4", "v1"})
    x = module.multiplier(draw(st.sampled_from(names)))
    return module, x, draw(st.integers(1, 12)), draw(subwindows(module.window))


@SUPPORT_SETTINGS
@given(localization_cases())
def test_zero_end_verdict_matches_the_isomorphism_test(case) -> None:
    module, x, K, out = case
    w = module.window
    for d in out.cells():
        n, e = chain_end(w, d, x.degree, K)
        if not module.cell(e).is_zero():
            continue
        expected = n >= 1 and e not in module.unverified and is_isomorphism(act(module, x, e - x.degree))
        assert _stabilized(module, x, n, e) == expected, (d, e)


@SUPPORT_SETTINGS
@given(windows(max_size=7), st.data())
def test_edge_cells_and_chain_starts_match_the_window_scan(w, data) -> None:
    delta = data.draw(st.sampled_from(STEP_DEGREES))
    out = data.draw(subwindows(w))
    K = data.draw(st.integers(1, 9))
    assert list(edge_cells(w, delta, out)) == [d for d in out.cells() if not w.contains(d + delta)]
    ends = {}
    for d in out.cells():
        n, e = chain_end(w, d, delta, K)
        ends.setdefault(e, []).append((d, n))
    for e in w.cells():
        assert sorted(chain_starts(w, out, e, delta, K)) == sorted(ends.get(e, [])), (e, delta, K)


def _zero_to_zero_guard(monkeypatch):
    """Record every act or is_isomorphism call between two zero cells."""
    seen = []
    real_act, real_iso = localization.act, localization.is_isomorphism

    def act_guard(module, mult, d):
        f = real_act(module, mult, d)
        if f.source.is_zero() and f.target.is_zero():
            seen.append(("act", mult, tuple(d)))
        return f

    def iso_guard(f):
        if f.source.is_zero() and f.target.is_zero():
            seen.append(("is_isomorphism", f))
        return real_iso(f)

    monkeypatch.setattr(localization, "act", act_guard)
    monkeypatch.setattr(localization, "is_isomorphism", iso_guard)
    return seen


@pytest.mark.parametrize("name,prime", SUPPORT_PRESETS)
def test_localizations_never_read_a_map_between_zero_cells(name, prime, monkeypatch) -> None:
    module = expand(preset_presentation(name, prime), Window(-5, 5, -6, 4))
    seen = _zero_to_zero_guard(monkeypatch)
    runs = 0
    for mult in sorted(set(module.multipliers) | {"rho", "tau2"}):
        for steps in (None, 1, 3):
            for window in (None, (-3, 2, -4, 1), (1, 5, 0, 4)):
                invert(module, mult, steps=steps, window=window)
                complete(module, mult, steps=steps, window=window)
                runs += 1
    assert runs >= 18
    assert not seen, seen[:3]


def test_the_zero_map_guard_sees_a_zero_to_zero_action(monkeypatch) -> None:
    module = BigradedModule(2, Window(0, 2, 0, 0), {}, {}, {"s": BiDegree(1, 0)})
    seen = _zero_to_zero_guard(monkeypatch)
    localization.is_isomorphism(localization.act(module, S, (0, 0)))
    assert [kind for kind, *_ in seen] == ["act", "is_isomorphism"]


def invert_per_cell(module, mult, steps=None, window=None):
    """invert with one action computed per (multiplier, cell), on a scan of the whole output window.

    The reference for invert's support-driven visit and its actions shared
    per chain end: every cell of the output window is read, and every
    action is transported from its own cell.
    """
    x = localization.resolve_multiplier(module, mult)
    w = module.window
    out = localization.output_window(module, window)
    K = default_steps(w) if steps is None else steps
    step = x.degree
    cells = {}
    unverified = set()
    for d in sorted(out.cells()):
        n, e = chain_end(w, d, step, K)
        if not module.cell(e).is_zero():
            cells[d] = module.cell(e)
        if not _stabilized(module, x, n, e):
            unverified.add(d)
    power = chain_power(module, x)
    mults = dict(module.multipliers)
    mults.setdefault(x.name, step)
    actions = {}
    for name, dy in mults.items():
        y = Multiplier(name, BiDegree(*dy))
        for d in cells:
            t = d + y.degree
            if not w.contains(t):
                continue
            (n, e), (n_t, e_t) = chain_end(w, d, step, K), chain_end(w, t, step, K)
            if module.cell(e_t).is_zero():
                continue
            shift = n_t - n
            if shift < 0:
                back = power(d + step.scaled(n_t), -shift)
                if not is_isomorphism(back):
                    unverified.add(d)
                    continue
            if not out.contains(t):
                continue
            if shift == 0:
                f = act(module, y, e)
            elif shift > 0:
                f = power(e + y.degree, shift) @ act(module, y, e)
            else:
                f = act(module, y, d + step.scaled(n_t)) @ invert_iso(back)
            actions[(name, d)] = f
    return BigradedModule(module.prime, out, cells, actions, mults, unverified, module.caveats)


def assert_same_inversion(got, want):
    assert list(got.cells.items()) == list(want.cells.items())
    assert list(got.actions) == list(want.actions)
    assert got.actions == want.actions
    assert got.unverified == want.unverified
    assert got.multipliers == want.multipliers


@SUPPORT_SETTINGS
@given(localization_cases())
def test_invert_matches_the_per_cell_reference(case) -> None:
    module, x, K, out = case
    for window in (None, out):
        assert_same_inversion(invert(module, x, steps=K, window=window), invert_per_cell(module, x, K, window))


@pytest.mark.parametrize("name,prime", SUPPORT_PRESETS)
def test_short_inversions_match_the_per_cell_reference(name, prime) -> None:
    # short chains capped at K: cells ending on one chain end can differ in
    # how much longer their targets' chains are
    module = expand(preset_presentation(name, prime), Window(-5, 5, -6, 4))
    for mult in sorted(set(module.multipliers) | {"rho", "tau2"}):
        for steps in (1, 2, 3, None):
            for window in (None, (-3, 2, -4, 1)):
                got = invert(module, mult, steps=steps, window=window)
                assert_same_inversion(got, invert_per_cell(module, mult, steps, window))


def corner_inversions(name, prime, window, monkeypatch):
    """The (module, mult, steps, window) of each invert call realize makes, with its result."""
    calls = []

    def recording(module, mult, steps=None, window=None):
        result = invert(module, mult, steps=steps, window=window)
        calls.append(((module, mult, steps, window), result))
        return result

    monkeypatch.setattr(assembler, "invert", recording)
    realize(name, prime, window)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name,prime", SUPPORT_PRESETS)
def test_corner_inversions_match_the_per_cell_reference(name, prime, monkeypatch) -> None:
    calls = corner_inversions(name, prime, Window(-3, 3, -3, 3), monkeypatch)
    assert len(calls) == 3
    for args, result in calls:
        assert_same_inversion(result, invert_per_cell(*args))


def test_inversion_transports_each_action_once_per_chain_end(monkeypatch) -> None:
    # the h corner of KGL2 on (-10,10)^2: chains to the window's edge share ends
    (args, _), *_ = corner_inversions("kgl2", 2, Window(-10, 10, -10, 10), monkeypatch)
    module, mult, steps, window = args
    x = localization.resolve_multiplier(module, mult)
    w, K = module.window, steps
    backs, forwards, cells_read = set(), set(), 0
    result = invert_per_cell(module, x, K, window)
    for name, dy in result.multipliers.items():
        for d in result.cells:
            t = d + BiDegree(*dy)
            (n, e), (n_t, e_t) = chain_end(w, d, x.degree, K), chain_end(w, t, x.degree, K)
            if not w.contains(t) or module.cell(e_t).is_zero():
                continue
            cells_read += 1
            if n_t < n:
                backs.add((e, n_t - n))
            elif n_t > n:
                forwards.add((name, e, n_t - n))
    inverses, powers = [], []
    real_chain_power, real_invert_iso = localization.chain_power, localization.invert_iso

    def counting_chain_power(module, mult):
        power = real_chain_power(module, mult)

        def counted(start, count):
            powers.append((start, count))
            return power(start, count)

        return counted

    def counting_invert_iso(f):
        inverses.append(f)
        return real_invert_iso(f)

    monkeypatch.setattr(localization, "chain_power", counting_chain_power)
    monkeypatch.setattr(localization, "invert_iso", counting_invert_iso)
    invert(module, mult, steps=steps, window=window)
    assert len(inverses) <= len(backs)
    assert len(powers) <= len(backs) + len(forwards)
    # the per-cell loop reads many more cells than there are chain ends
    assert cells_read > 5 * (len(backs) + len(forwards))


def counted_inversion(args, monkeypatch):
    """The cells invert(*args) calls chain_end for, and the chain ends whose stabilization it decides."""
    walked, decided = [], []
    real_chain_end, real_stabilized = localization.chain_end, localization._stabilized

    def counting_chain_end(w, d, delta, steps):
        walked.append(d)
        return real_chain_end(w, d, delta, steps)

    def counting_stabilized(module, x, n, e):
        decided.append(e)
        return real_stabilized(module, x, n, e)

    module, mult, steps, window = args
    with monkeypatch.context() as patch:
        patch.setattr(localization, "chain_end", counting_chain_end)
        patch.setattr(localization, "_stabilized", counting_stabilized)
        invert(module, mult, steps=steps, window=window)
    return walked, decided


def test_inversion_decides_each_chain_end_once(monkeypatch) -> None:
    # the three corner inversions of KGL2 on (-10,10)^2
    calls = corner_inversions("kgl2", 2, Window(-10, 10, -10, 10), monkeypatch)
    ends = []
    for args, result in calls:
        walked, decided = counted_inversion(args, monkeypatch)
        # a visited cell lies in the output window and gets its chain from its end
        assert not [d for d in walked if result.window.contains(d)]
        assert len(decided) == len(set(decided))
        ends.append(decided)
    # the h corner answers on the whole module, and its nonzero cells end on few chain ends
    (h_args, h), *_ = calls
    assert h_args[3] is None
    assert 0 < 5 * len(ends[0]) < len(h.cells)


def built_modules(run):
    """The parts handed to localization's trusted_module while run() runs, with each module built."""
    built = []
    real = localization.trusted_module

    def recording(*parts):
        module = real(*parts)
        built.append((parts, module))
        return module

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localization, "trusted_module", recording)
        run()
    return built


def assert_built_as_validated(built):
    """Each trusted module equals BigradedModule(...) built from the same parts, in the same order."""
    assert built
    for parts, got in built:
        want = BigradedModule(*parts)
        for slot in BigradedModule.__slots__:
            assert getattr(got, slot) == getattr(want, slot), slot
        assert list(got.cells) == list(want.cells)
        assert list(got.actions) == list(want.actions)


@SUPPORT_SETTINGS
@given(localization_cases())
def test_trusted_localizations_equal_the_validated_construction(case) -> None:
    module, x, K, out = case

    def run():
        for window in (None, out):
            invert(module, x, steps=K, window=window)
            complete(module, x, steps=K, window=window)

    built = built_modules(run)
    assert len(built) == 4
    assert_built_as_validated(built)


@pytest.mark.parametrize("name,prime", SUPPORT_PRESETS)
def test_trusted_corners_equal_the_validated_construction(name, prime) -> None:
    module = expand(preset_presentation(name, prime), Window(-5, 5, -6, 4))
    built = built_modules(lambda: corners(module, rho_complete=True, window=(-3, 2, -4, 1)))
    assert len(built) == 3
    assert_built_as_validated(built)


def zero_actions(module):
    return [key for key, f in module.actions.items() if f.is_zero()]


@pytest.mark.parametrize("mult,handed", [("tau", 12), ("tau2", 5)])
def test_no_output_keeps_a_zero_action(mult, handed) -> None:
    # KGL2 inverted along tau or tau2 transports actions onto zero maps,
    # which trusted_module must drop
    module = expand(preset_presentation("KGL2_R"), Window(-5, 5, -6, 4))
    [(parts, inverted)] = built_modules(lambda: invert(module, mult, steps=6))
    assert sum(f.is_zero() for f in parts[3].values()) == handed
    square = corners(module, rho_complete=True, steps=6)
    outputs = [
        inverted,
        invert(module, mult, steps=6, window=(-3, 2, -4, 1)),
        complete(module, mult, steps=6),
        restrict(inverted, (-3, 2, -4, 1)),
        square.h,
        square.phi,
        square.tate,
        realize("KGL2_R", 2, (-3, 3, -3, 3)).result,
    ]
    for out in outputs:
        assert out.actions
        assert zero_actions(out) == []
