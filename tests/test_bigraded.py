"""Core bigraded types: groups, homs, windows, modules, validation."""

from __future__ import annotations

import pytest

from fracture.bigraded import (
    BiDegree,
    BigradedModule,
    PGroup,
    PHom,
    Window,
    act,
    multiplier,
    pgroup_sum,
    phom_identity,
    phom_zero,
    restrict,
    validate_module,
    zero_group,
)

from helpers import cellwise_equal, direct_sum, phom_scalar


def test_pgroup_rejects_bad_shapes() -> None:
    with pytest.raises(ValueError):
        PGroup(4, 1, ())
    with pytest.raises(ValueError):
        PGroup(2, -1, ())
    with pytest.raises(ValueError):
        PGroup(2, 0, (0,))
    with pytest.raises(ValueError):
        PGroup(2, 0, (1, 2))


def test_phom_congruence_rules() -> None:
    z4 = PGroup(2, 0, (2,))
    z2 = PGroup(2, 0, (1,))
    free = PGroup(2, 1, ())
    # into larger torsion the entry must be divisible by the gap
    with pytest.raises(ValueError):
        PHom(z2, z4, ((1,),))
    PHom(z2, z4, ((2,),))
    # torsion never maps nontrivially to a free generator
    with pytest.raises(ValueError):
        PHom(z2, free, ((4,),))
    PHom(z2, free, ((0,),))


def test_phom_composition_reduces_mod_target() -> None:
    z4 = PGroup(2, 0, (2,))
    f = phom_scalar(z4, 3)
    g = phom_scalar(z4, 3)
    assert (f @ g).entries == ((1,),)
    assert f @ g == phom_scalar(z4, 9)


def test_pgroup_sum_reorders_and_projects() -> None:
    a = PGroup(2, 0, (1,))
    b = PGroup(2, 1, (3,))
    total, ia, ib, pa, pb = pgroup_sum(a, b)
    assert total == PGroup(2, 1, (3, 1))
    # b's generators come first, a's Z/2 last
    assert ia.entries == ((0,), (0,), (1,))
    assert pa @ ia == phom_identity(a)
    assert pb @ ib == phom_identity(b)
    assert (pa @ ib).is_zero() and (pb @ ia).is_zero()


def test_multiplier_degree_table() -> None:
    assert multiplier("rho").degree == BiDegree(-1, -1)
    assert multiplier("tau").degree == BiDegree(0, -1)
    assert multiplier("tau2").degree == BiDegree(0, -2)
    assert multiplier("v1").degree == BiDegree(2, 1)
    with pytest.raises(ValueError):
        multiplier("rho", (1, 1))
    with pytest.raises(ValueError):
        multiplier("mystery")


def _two_cell_module() -> BigradedModule:
    w = Window(-1, 1, -2, 0)
    c00 = PGroup(2, 0, (1,))
    c0m1 = PGroup(2, 0, (1,))
    cells = {BiDegree(0, 0): c00, BiDegree(0, -1): c0m1}
    actions = {("tau", BiDegree(0, 0)): PHom(c00, c0m1, ((1,),))}
    return BigradedModule(2, w, cells, actions, {"tau": BiDegree(0, -1)})


def test_act_returns_stored_zero_and_scalar_maps() -> None:
    m = _two_cell_module()
    assert act(m, "tau", (0, 0)).entries == ((1,),)
    assert act(m, "tau", (0, -1)).is_zero()
    # an absent action between zero cells is one shared map
    assert act(m, "tau", (1, 0)) is act(m, "tau", (-1, -1)) is phom_zero(zero_group(2), zero_group(2))
    assert act(m, "tau", (1, 0)).source is zero_group(2)
    with pytest.raises(ValueError):
        act(m, "tau", (5, 5))
    with pytest.raises(ValueError):
        act(m, "rho", (-1, 0)), "target cell falls off the window edge"
    with pytest.raises(ValueError, match="no known degree"):
        act(m, "2", (0, 0))


def test_validate_module_passes_and_fails() -> None:
    m = _two_cell_module()
    assert validate_module(m) == []

    w = Window(0, 1, -2, 0)
    g = PGroup(2, 0, (1,))
    cells = {BiDegree(0, 0): g, BiDegree(0, -1): g, BiDegree(0, -2): g, BiDegree(1, 0): g}
    acts = {
        ("tau", BiDegree(0, 0)): PHom(g, g, ((1,),)),
        ("tau", BiDegree(0, -1)): PHom(g, g, ((1,),)),
        ("tau2", BiDegree(0, 0)): PHom(g, g, ((1,),)),
    }
    fine = BigradedModule(2, w, cells, acts, {"tau": BiDegree(0, -1), "tau2": BiDegree(0, -2)})
    assert validate_module(fine) == []

    squished = BigradedModule(
        2,
        w,
        cells,
        {**acts, ("tau2", BiDegree(0, 0)): PHom(g, g, ((0,),))},
        {"tau": BiDegree(0, -1), "tau2": BiDegree(0, -2)},
    )
    assert squished.actions.get(("tau2", BiDegree(0, 0))) is None, "zero maps are dropped"


def test_validate_module_flags_noncommuting_actions() -> None:
    w = Window(-1, 0, -2, 0)
    g = PGroup(2, 2, ())
    cells = {
        BiDegree(0, 0): g,
        BiDegree(0, -1): g,
        BiDegree(-1, -1): g,
        BiDegree(-1, -2): g,
    }
    shear_down = ((1, 1), (0, 1))
    shear_left = ((1, 0), (1, 1))
    acts = {
        ("tau", BiDegree(0, 0)): PHom(g, g, shear_down),
        ("tau", BiDegree(-1, -1)): PHom(g, g, shear_down),
        ("rho", BiDegree(0, 0)): PHom(g, g, shear_left),
        ("rho", BiDegree(0, -1)): PHom(g, g, shear_left),
    }
    bad = BigradedModule(2, w, cells, acts, {"tau": BiDegree(0, -1), "rho": BiDegree(-1, -1)})
    msgs = validate_module(bad)
    assert any("composites differ" in m for m in msgs)


def test_direct_sum_and_restrict() -> None:
    m = _two_cell_module()
    s = direct_sum(m, m)
    assert s.cell((0, 0)) == PGroup(2, 0, (1, 1))
    assert act(s, "tau", (0, 0)).entries == ((1, 0), (0, 1))
    assert validate_module(s) == []

    r = restrict(s, Window(0, 0, -1, 0))
    assert r.cell((0, 0)) == PGroup(2, 0, (1, 1))
    assert cellwise_equal(restrict(m, Window(0, 0, -1, 0)), restrict(m, (0, 0, -1, 0)))


def test_cell_takes_a_bidegree_a_tuple_or_a_list() -> None:
    m = _two_cell_module()
    for key in (BiDegree(0, 0), (0, 0), [0, 0]):
        assert m.cell(key) is m.cells[BiDegree(0, 0)]
    for key in (BiDegree(1, 1), (1, 1), [1, 1]):
        assert m.cell(key) is zero_group(2)


def test_flags_default_and_propagate() -> None:
    m = _two_cell_module()
    assert m.unverified == frozenset()
    flagged = BigradedModule(2, m.window, dict(m.cells), {}, dict(m.multipliers), [(0, 0)])
    s = direct_sum(m, flagged)
    assert s.unverified == {BiDegree(0, 0)}
    assert BiDegree(0, -1) not in s.unverified


def test_unverified_is_a_frozenset_of_window_degrees() -> None:
    m = _two_cell_module()
    w = m.window
    # a zero cell may be unverified; a degree outside the window is dropped
    zero = BiDegree(w.imin, w.jmin)
    assert m.cell(zero).is_zero()
    marked = BigradedModule(2, w, dict(m.cells), {}, dict(m.multipliers), [(0, 0), zero, (w.imax + 1, 0)])
    assert isinstance(marked.unverified, frozenset)
    assert marked.unverified == {BiDegree(0, 0), zero}
    assert all(type(d) is BiDegree for d in marked.unverified)
    assert restrict(marked, Window(0, 0, w.jmin, w.jmax)).unverified == {BiDegree(0, 0)}
    assert not hasattr(marked, "flags") and not hasattr(marked, "flag")


def test_window_helpers() -> None:
    w = Window(-2, 2, -1, 1)
    assert w.width == 4 and w.height == 2
    assert w.contains(BiDegree(0, 0)) and not w.contains(BiDegree(3, 0))
    assert len(list(w.cells())) == 15
    with pytest.raises(ValueError):
        Window(2, -2, 0, 0).check()
