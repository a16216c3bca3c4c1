"""Frozen cells for the built-in presets and their reference realizations.

The expansion cells below were worked out by hand from the presentation
semantics, the reference cells from the closed form laws.  They pin down
cells, valuations and a few action matrices that the wider pipeline
tests rely on; an action matrix out of the unit cell shows which multiple
of a monomial generates its target cell.
"""

import pytest

from fracture.bigraded import PGroup, Window, act
from fracture.presentation import expand
from fracture.presets import (
    preset_presentation,
    preset_source,
    reference_realization,
    resolve_preset,
)


def test_aliases_resolve_case_insensitively() -> None:
    assert resolve_preset("KGL") == "KGL2_R"
    assert resolve_preset("hf2_r") == "HF2_R"
    assert resolve_preset(" HFP_odd ") == "HFP_ODD_R"


def test_unknown_preset_is_rejected() -> None:
    with pytest.raises(ValueError, match="unknown preset"):
        resolve_preset("hq8")


def test_prime_validation() -> None:
    with pytest.raises(ValueError, match="2-primary"):
        preset_source("hf2", 3)
    with pytest.raises(ValueError, match="odd prime"):
        preset_source("hfp_odd")
    with pytest.raises(ValueError, match="odd prime"):
        preset_source("hfp_odd", 9)
    with pytest.raises(ValueError, match="odd prime"):
        reference_realization("hfp_odd", 2, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="needs an odd prime, got None"):
        reference_realization("hfp_odd", None, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="2-primary"):
        reference_realization("hz2", 3, (0, 0, 0, 0))


def test_hf2_expansion_cells() -> None:
    module = expand(preset_presentation("hf2"), Window(-4, 2, -6, 2))
    assert module.cell((0, 0)) == PGroup(2, 0, (1,))
    # the unit at (0,0) generates (-2,-5) as tau^3*rho^2, with no scalar
    composite = act(module, "rho", (0, 0))
    for name, d in [("rho", (-1, -1)), ("tau", (-2, -2)), ("tau", (-2, -3)), ("tau", (-2, -4))]:
        composite = act(module, name, d) @ composite
    assert composite.entries == ((1,),)
    assert module.cell((0, 1)).is_zero()
    assert module.cell((1, 0)).is_zero()
    for d in module.window.cells():
        expected = d.i <= 0 and d.j <= d.i
        assert (not module.cell(d).is_zero()) == expected, d


def test_hz2_expansion_cells() -> None:
    module = expand(preset_presentation("hz2"), Window(-4, 2, -6, 2))
    assert module.cell((0, 0)) == PGroup(2, 1)
    assert module.cell((0, -2)) == PGroup(2, 1)
    # tau^2 itself generates (0,-2)
    assert act(module, "tau2", (0, 0)).entries == ((1,),)
    assert module.cell((-1, -1)) == PGroup(2, 0, (1,))
    assert module.cell((-1, -3)) == PGroup(2, 0, (1,))
    assert module.cell((-1, -2)).is_zero()
    assert module.cell((0, -1)).is_zero()


def test_kgl2_expansion_cells() -> None:
    module = expand(preset_presentation("kgl2"), Window(-4, 3, -8, 2))
    assert module.cell((0, 0)) == PGroup(2, 1)
    assert module.cell((0, -2)) == PGroup(2, 1)
    assert module.cell((2, 1)) == PGroup(2, 1)
    assert module.cell((1, 0)) == PGroup(2, 0, (1,))
    assert module.cell((0, -1)) == PGroup(2, 0, (1,))
    assert module.cell((-1, -5)) == PGroup(2, 0, (1,))
    # v1*rho^3 is a relation, so the cell it would span is dead
    assert module.cell((-1, -2)).is_zero()
    assert module.cell((1, 1)).is_zero()


def test_kgl2_expansion_actions() -> None:
    module = expand(preset_presentation("kgl2"), Window(-4, 3, -8, 2))
    assert act(module, "v1", (0, 0)).entries == ((1,),)
    assert act(module, "v1", (0, -4)).entries == ((1,),)
    # 2·tau^2 generates (0,-2), so 2tau2 out of the unit has entry 1
    assert act(module, "2tau2", (0, 0)).entries == ((1,),)
    # and squaring it gives 4·tau^4 against the generator tau^4 of (0,-4)
    assert act(module, "2tau2", (0, -2)).entries == ((4,),)
    assert act(module, "tau4", (0, 0)).entries == ((1,),)
    # 2·tau^6 generates (0,-6)
    assert act(module, "tau4", (0, -2)).entries == ((1,),)
    assert act(module, "2tau2", (0, -4)).entries == ((1,),)


def test_hfp_odd_expansion_cells() -> None:
    module = expand(preset_presentation("hfp_odd", 3), Window(-3, 1, -6, 1))
    for d in module.window.cells():
        if d.i == 0 and d.j <= 0 and d.j % 2 == 0:
            assert module.cell(d) == PGroup(3, 0, (1,)), d
        else:
            assert module.cell(d).is_zero(), d


def test_hf2_reference_cells() -> None:
    ref = reference_realization("hf2", 2, Window(-8, 8, -8, 8))
    two = PGroup(2, 0, (1,))
    assert ref.cell((0, 0)) == two
    assert ref.cell((0, 2)) == two
    assert ref.cell((1, 3)) == two
    assert ref.cell((-3, -5)) == two
    assert ref.cell((0, 1)).is_zero()
    assert ref.cell((1, 2)).is_zero()
    assert ref.cell((2, 1)).is_zero()
    for d in ref.window.cells():
        expected = (d.i <= 0 and d.j <= d.i) or (d.i >= 0 and d.j >= d.i + 2)
        assert (not ref.cell(d).is_zero()) == expected, d


def test_hz2_reference_cells() -> None:
    ref = reference_realization("hz2", 2, Window(-10, 10, -10, 10))
    free = PGroup(2, 1)
    two = PGroup(2, 0, (1,))
    assert ref.cell((0, 0)) == free
    assert ref.cell((0, -2)) == free
    assert ref.cell((0, 2)) == free
    assert ref.cell((0, 3)) == two
    assert ref.cell((2, 5)) == two
    assert ref.cell((-1, -1)) == two
    assert ref.cell((-1, -3)) == two
    assert ref.cell((1, 3)).is_zero()
    assert ref.cell((-1, -2)).is_zero()
    assert ref.cell((0, 1)).is_zero()


def test_kr2_reference_cells() -> None:
    ref = reference_realization("kgl2", 2, Window(-10, 10, -10, 10))
    free = PGroup(2, 1)
    two = PGroup(2, 0, (1,))
    assert ref.cell((0, 0)) == free
    assert ref.cell((0, 2)) == free
    assert ref.cell((0, 4)) == free
    assert ref.cell((0, 6)) == free
    assert ref.cell((0, 5)) == two
    assert ref.cell((2, 1)) == free
    assert ref.cell((2, 3)) == free
    assert ref.cell((2, 5)) == free
    assert ref.cell((1, 0)) == two
    assert ref.cell((0, -1)) == two
    assert ref.cell((-1, -1)) == two
    assert ref.cell((-1, -5)) == two
    assert ref.cell((-2, -2)) == two
    assert ref.cell((5, 10)) == PGroup(2, 0, (1, 1))
    assert ref.cell((-3, -3)) == two
    assert ref.cell((-4, -4)) == two
    assert ref.cell((-3, -7)) == two
    assert ref.cell((-10, -10)) == two
    assert ref.cell((1, 1)).is_zero()
    assert ref.cell((-1, -2)).is_zero()
    assert ref.cell((-1, -3)).is_zero()
    assert ref.cell((-3, -4)).is_zero()
    assert ref.cell((-3, -6)).is_zero()


def test_hfp_odd_reference_cells() -> None:
    ref = reference_realization("hfp", 5, Window(-6, 6, -6, 6))
    for d in ref.window.cells():
        if d.i == 0 and d.j % 2 == 0:
            assert ref.cell(d) == PGroup(5, 0, (1,)), d
        else:
            assert ref.cell(d).is_zero(), d
