"""Core bigraded types: groups, homs, windows, modules, validation."""

from __future__ import annotations

import pytest

from fracture.bigraded import (
    BiDegree,
    BigradedModule,
    FLAG_BOUNDARY,
    FLAG_VERIFIED,
    Multiplier,
    PGroup,
    PHom,
    Window,
    act,
    cellwise_equal,
    direct_sum,
    multiplier,
    pgroup_sum,
    phom_identity,
    phom_scalar,
    restrict,
    validate_module,
    zero_group,
    zero_hom,
)


def test_pgroup_rejects_bad_shapes() -> None:
    with pytest.raises(ValueError):
        PGroup(4, 1, ())
    with pytest.raises(ValueError):
        PGroup(2, -1, ())
    with pytest.raises(ValueError):
        PGroup(2, 0, (0,))
    with pytest.raises(ValueError):
        PGroup(2, 0, (1, 2))
    with pytest.raises(ValueError):
        PGroup(2, 1, (), labels=("a", "b"))


def test_pgroup_equality_ignores_labels() -> None:
    a = PGroup(2, 1, (2,), labels=("x", "y"))
    b = PGroup(2, 1, (2,))
    assert a == b
    assert a.order() is None
    assert PGroup(3, 0, (2, 1)).order() == 27


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
    assert (f @ g).same_map(phom_scalar(z4, 9))


def test_pgroup_sum_reorders_and_projects() -> None:
    a = PGroup(2, 0, (1,), labels=("t",))
    b = PGroup(2, 1, (3,), labels=("u", "v"))
    total, ia, ib, pa, pb = pgroup_sum(a, b)
    assert total == PGroup(2, 1, (3, 1))
    assert total.labels == ("u", "v", "t")
    assert (pa @ ia).same_map(phom_identity(a))
    assert (pb @ ib).same_map(phom_identity(b))
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
    c00 = PGroup(2, 0, (1,), labels=("one",))
    c0m1 = PGroup(2, 0, (1,), labels=("tau*one",))
    cells = {BiDegree(0, 0): c00, BiDegree(0, -1): c0m1}
    actions = {("tau", BiDegree(0, 0)): PHom(c00, c0m1, ((1,),))}
    return BigradedModule(2, w, cells, actions, {"tau": BiDegree(0, -1)})


def test_act_returns_stored_zero_and_scalar_maps() -> None:
    m = _two_cell_module()
    assert act(m, "tau", (0, 0)).entries == ((1,),)
    assert act(m, "tau", (0, -1)).is_zero()
    assert act(m, "2", (0, 0)).is_zero(), "doubling kills an order-2 cell"
    # an absent action between zero cells is one shared map
    assert act(m, "tau", (1, 0)) is act(m, "tau", (-1, -1)) is zero_hom(2)
    assert act(m, "tau", (1, 0)).source is zero_group(2)
    with pytest.raises(ValueError):
        act(m, "tau", (5, 5))
    with pytest.raises(ValueError):
        act(m, "rho", (-1, 0)), "target cell falls off the window edge"


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


def test_flags_default_and_propagate() -> None:
    m = _two_cell_module()
    assert m.flag((0, 0)) == FLAG_VERIFIED
    flagged = BigradedModule(
        2, m.window, dict(m.cells), {}, dict(m.multipliers), {BiDegree(0, 0): FLAG_BOUNDARY}
    )
    s = direct_sum(m, flagged)
    assert s.flag((0, 0)) == FLAG_BOUNDARY
    assert s.flag((0, -1)) == FLAG_VERIFIED


def test_window_helpers() -> None:
    w = Window(-2, 2, -1, 1)
    assert w.width == 4 and w.height == 2
    assert w.contains(BiDegree(0, 0)) and not w.contains(BiDegree(3, 0))
    assert len(list(w.cells())) == 15
    with pytest.raises(ValueError):
        Window(2, -2, 0, 0).check()
