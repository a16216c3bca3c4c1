"""Fracture square tests: corners, splices, and full realizations.

End-to-end realizations are compared against the independent closed form
laws in fracture.presets; small splices and corner supports are pinned to
hand-checked values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture.assembler import (
    CONTRACT_MESSAGE,
    RhoCompleteError,
    assemble,
    corners,
    odd_split,
    realize,
    rho_complete_defect,
    select_tau_power,
)
from fracture.bigraded import (
    BiDegree,
    PGroup,
    Window,
    act,
    phom_zero,
    validate_module,
    zero_group,
)
from fracture.localization import invert
from fracture.presentation import expand, localized, parse_presentation, span_actions
from fracture.presets import PRESET_NAMES, preset_presentation, reference_realization

from helpers import cellwise_diff, direct_sum, odd_rho_complete_presentations

RHO_INVERTED_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""

ODD_RHO_INVERTED_SOURCE = """\
prime 3
gen rho -1 -1 inv
rel 3·1
span 1·1
span 1·rho
span 1·rho^-1
"""

ODD_TATE_SOURCE = """\
prime 3
gen tau 0 -1
gen rho -1 -1
rel 3·1
span 1·1
span 1·tau^2
span 1·rho
"""

TATE_STYLE_SOURCE = """\
prime 2
gen tau 0 -1
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·tau
span 1·rho
span 1·rho^-1
"""


def assert_pictures_fit(square):
    """The pictures of a fracture square sit on the joint support of its corners, each pair h_d -> t_d, phi_d -> t_d."""
    h, phi, tate = square.h, square.phi, square.tate
    assert set(square.pictures) == {*h.cells, *phi.cells, *tate.cells}
    for d, (h_to_t, phi_to_t) in square.pictures.items():
        assert (h_to_t.source, h_to_t.target) == (h.cell(d), tate.cell(d)), d
        assert (phi_to_t.source, phi_to_t.target) == (phi.cell(d), tate.cell(d)), d


PRESET_CASES = [(n, 3 if n == "HFP_ODD_R" else None) for n in PRESET_NAMES]


def test_select_tau_power() -> None:
    for name, prime, tau in [("hf2", 2, "tau"), ("hz2", 2, "tau2"), ("kgl2", 2, "tau4"), ("hfp_odd", 5, "tau2")]:
        pres = preset_presentation(name, prime)
        assert select_tau_power(prime, span_actions(pres)) == tau
        assert select_tau_power(prime, expand(pres, Window(-6, 6, -6, 6)).multipliers) == tau


def test_select_tau_power_missing() -> None:
    with pytest.raises(ValueError, match="no tau power"):
        select_tau_power(2, {"rho": (-1, -1)})
    with pytest.raises(ValueError, match="tau2"):
        select_tau_power(3, {"tau4": (0, -4)})


# the actions of each input, in span order; span terms of degree (0,0) name none
SPAN_ACTIONS = {
    "HF2_R": (preset_presentation("HF2_R"), {"tau": (0, -1), "rho": (-1, -1)}),
    "HZ2_R": (preset_presentation("HZ2_R"), {"rho": (-1, -1), "tau2": (0, -2)}),
    "KGL2_R": (
        preset_presentation("KGL2_R"),
        {"rho": (-1, -1), "2tau2": (0, -2), "tau4": (0, -4), "v1": (2, 1)},
    ),
    "HFP_ODD_R-3": (preset_presentation("HFP_ODD_R", 3), {"tau2": (0, -2)}),
    "HFP_ODD_R-5": (preset_presentation("HFP_ODD_R", 5), {"tau2": (0, -2)}),
    "rho-inverted": (parse_presentation(RHO_INVERTED_SOURCE), {"rho": (-1, -1), "rho-1": (1, 1)}),
    "tau-less": (
        parse_presentation(
            "prime 2\ngen rho -1 -1\ngen tau 0 -1\ngen v 1 1\nrel 4·rho\n"
            "span 1·1\nspan 2·1\nspan 1·rho\nspan 1·tau*v^3\n"
        ),
        {"rho": (-1, -1), "tauv3": (3, 2)},
    ),
}


@pytest.mark.parametrize("name", SPAN_ACTIONS)
def test_span_actions_are_the_expansions_multipliers(name) -> None:
    pres, actions = SPAN_ACTIONS[name]
    assert list(span_actions(pres).items()) == list(actions.items())
    assert expand(pres, Window(-3, 3, -3, 3)).multipliers == actions


def test_corners_of_zero_module() -> None:
    # rel 1·1 kills every monomial of every corner
    pres = parse_presentation("prime 2\ngen tau 0 -1\ngen rho -1 -1\nrel 1·1\nspan 1·1\nspan 1·tau\nspan 1·rho\n")
    square = corners(pres, Window(-3, 3, -3, 3))
    assert not square.h.cells and not square.phi.cells and not square.tate.cells
    # the joint support is empty, so every picture is the zero one
    assert square.pictures == {}
    assert_pictures_fit(square)


def test_an_input_without_rho_has_zero_phi_and_tate() -> None:
    square = corners(preset_presentation("HFP_ODD_R", 3), Window(-3, 3, -3, 3))
    assert square.h.cells and not square.phi.cells and not square.tate.cells
    assert square.h.multipliers == square.phi.multipliers == square.tate.multipliers == {"tau2": (0, -2)}


@pytest.mark.parametrize("name,p", PRESET_CASES, ids=PRESET_NAMES)
def test_corner_maps_follow_the_support(name, p) -> None:
    # the pictures of a smaller window are those of a larger one, cut to it
    pres = preset_presentation(name, p)
    square = corners(pres, Window(-6, 6, -8, 6))
    box = corners(pres, Window(-3, 3, -4, 2))
    for d in box.h.window.cells():
        assert repr(box.pictures.get(d)) == repr(square.pictures.get(d)), d
    for sq in (square, box):
        assert_pictures_fit(sq)


def test_corners_keep_the_actions_of_the_input() -> None:
    # the inverse span terms tau^-4 and rho^-1 act on no corner
    square = corners(preset_presentation("KGL2_R"), Window(-4, 4, -4, 4))
    for corner in square[:3]:
        assert corner.multipliers == span_actions(preset_presentation("KGL2_R"))
        assert {name for name, _ in corner.actions} <= set(corner.multipliers)


def test_hf2_corner_supports() -> None:
    square = corners(preset_presentation("hf2"), Window(-5, 5, -5, 5))
    for d in Window(-4, 4, -4, 4).cells():
        assert (not square.h.cell(d).is_zero()) == (d.i <= 0), d
        assert (not square.phi.cell(d).is_zero()) == (d.j <= d.i), d
        assert not square.tate.cell(d).is_zero(), d


@pytest.mark.parametrize("name", ["HF2_R", "HZ2_R", "KGL2_R"])
def test_tate_corner_inverts_tau_and_rho_in_either_order(name) -> None:
    pres = preset_presentation(name)
    square = corners(pres, Window(-6, 6, -6, 6))
    other = expand(localized(localized(pres, "rho"), square.tau_name), Window(-6, 6, -6, 6))
    assert cellwise_diff(square.tate, other) == []
    assert square.tate.cells


@pytest.mark.parametrize("preset,p", PRESET_CASES, ids=PRESET_NAMES)
def test_corner_maps_commute_with_actions(preset, p) -> None:
    square = corners(preset_presentation(preset, p), Window(-6, 6, -8, 6))
    h, phi, tate = square.h, square.phi, square.tate
    w = h.window
    # off the joint support every cell is zero, and so is the picture
    zero = phom_zero(zero_group(h.prime), zero_group(h.prime))
    checked = 0
    for name, delta in h.multipliers.items():
        for d in w.cells():
            t = d + delta
            if not w.contains(t):
                continue
            h_to_t, phi_to_t = square.pictures.get(d, (zero, zero))
            h_to_t_there, phi_to_t_there = square.pictures.get(t, (zero, zero))
            lhs = act(tate, name, d) @ h_to_t
            rhs = h_to_t_there @ act(h, name, d)
            assert lhs == rhs, (name, d)
            lhs = act(tate, name, d) @ phi_to_t
            rhs = phi_to_t_there @ act(phi, name, d)
            assert lhs == rhs, (name, d)
            checked += 1
    assert checked > 150


def test_assemble_answers_on_the_corners_window_less_its_boundary_column() -> None:
    report = assemble(corners(preset_presentation("hf2"), Window(-3, 3, -3, 3)))
    result = report.result
    assert result.window == Window(-3, 2, -3, 3)
    assert cellwise_diff(result, reference_realization("hf2", 2, result.window)) == []
    assert result.unverified == frozenset()


@pytest.mark.parametrize("name,window", [("hf2", (-5, 5, -5, 5)), ("hz2", (-5, 5, -5, 5))])
def test_realize_matches_reference(name, window) -> None:
    report = realize(name, 2, window)
    reference = reference_realization(name, 2, window)
    assert cellwise_diff(report.result, reference) == []
    assert report.certificates_hold()
    assert report.dropped == ()
    assert validate_module(report.result) == []
    assert report.result.unverified == frozenset()
    assert all(p.extension == "split" for p in report.parts.values())
    assert set(report.parts) == set(report.result.cells)


def test_hf2_splice_parts() -> None:
    report = realize("hf2", 2, Window(-4, 4, -4, 4))
    top = report.parts[BiDegree(0, 2)]
    assert top.kernel.is_zero()
    assert top.cokernel == PGroup(2, 0, (1,))
    assert top.extension == "split"
    origin = report.parts[BiDegree(0, 0)]
    assert origin.kernel == PGroup(2, 0, (1,))
    assert origin.cokernel.is_zero()
    certs = report.certificates()
    assert certs[BiDegree(0, 2)] == ((0, 1), (0, 0), (0, 1))


def test_certificate_failures_name_each_failing_cell() -> None:
    report = realize("hf2", 2, Window(-2, 2, -2, 2))
    assert report.certificate_failures() == []
    # a part that no longer adds up to its cell fails the order equation
    parts = dict(report.parts)
    parts[BiDegree(0, 0)] = parts[BiDegree(0, 0)]._replace(kernel=PGroup(2, 1))
    broken = report._replace(parts=parts)
    assert broken.certificate_failures() == [
        "cell (0, 0): splice order equation fails: (0, 1) != (1, 0) + (0, 0)"
    ]
    assert not broken.certificates_hold()


def test_hz2_splice_free_kernel() -> None:
    report = realize("hz2", 2, Window(-4, 4, -4, 4))
    part = report.parts[BiDegree(0, -2)]
    assert part.kernel == PGroup(2, 1)
    assert part.cokernel.is_zero()
    assert report.result.cell((0, -2)) == PGroup(2, 1)
    assert report.result.cell((0, 3)) == PGroup(2, 0, (1,))


def test_kgl2_realization() -> None:
    window = Window(-10, 10, -10, 10)
    report = realize("kgl2", 2, window)
    reference = reference_realization("kgl2", 2, window)
    assert cellwise_diff(report.result, reference) == []
    assert report.certificates_hold()
    assert report.dropped == ()
    assert validate_module(report.result) == []
    ambiguous = sorted(d for d, p in report.parts.items() if p.extension == "ambiguous")
    assert ambiguous == [(2, 7), (4, 9), (5, 10)]

    result = report.result
    assert act(result, "v1", (0, 0)).entries == ((1,),)
    assert act(result, "v1", (0, -4)).entries == ((1,),)
    assert act(result, "v1", (0, 2)).entries == ((1,),)
    assert act(result, "v1", (0, 4)).entries == ((2,),)

    rho = BiDegree(-1, -1)
    for d in result.cells:
        e = d + BiDegree(2, 1)
        stops = (e, e + rho, e + rho + rho, e + rho + rho + rho)
        if not all(window.contains(x) for x in stops):
            continue
        composite = (
            act(result, "rho", e + rho + rho)
            @ act(result, "rho", e + rho)
            @ act(result, "rho", e)
            @ act(result, "v1", d)
        )
        assert composite.is_zero(), d


def test_realize_refuses_incomplete_input() -> None:
    pres = parse_presentation(RHO_INVERTED_SOURCE)
    with pytest.raises(RhoCompleteError) as exc:
        realize(pres, 2, Window(-3, 3, -3, 3))
    assert str(exc.value).startswith(CONTRACT_MESSAGE)


def test_realize_override_accepts_incomplete_input() -> None:
    pres = parse_presentation(TATE_STYLE_SOURCE)
    window = Window(-3, 3, -3, 3)
    with pytest.raises(RhoCompleteError):
        realize(pres, 2, window)
    report = realize(pres, 2, window, rho_complete=True)
    assert report.certificates_hold()
    assert report.result.cell((0, 0)) == PGroup(2, 0, (1,))
    assert report.result.cell((0, 1)).is_zero()


FAR_CORNER = (-12, -9, -12, -9)


# HF2_R does not invert rho, so no completion run can refuse the far corner
def test_far_corner_realizes() -> None:
    report = realize("HF2_R", 2, FAR_CORNER)
    assert cellwise_diff(report.result, reference_realization("HF2_R", 2, FAR_CORNER)) == []
    assert report.result.unverified == frozenset()
    assert report.certificates_hold()


def test_rho_complete_defect() -> None:
    for name, p in PRESET_CASES:
        assert rho_complete_defect(preset_presentation(name, p)) is None
    for source in (RHO_INVERTED_SOURCE, ODD_RHO_INVERTED_SOURCE, TATE_STYLE_SOURCE):
        assert rho_complete_defect(parse_presentation(source)) == (("rho", -1),)
    # rel 1·1 kills every span term, so the module is zero and complete
    dead = RHO_INVERTED_SOURCE.replace("rel 2·1", "rel 1·1")
    assert rho_complete_defect(parse_presentation(dead)) is None


def test_realize_source_validation() -> None:
    with pytest.raises(TypeError):
        realize(42, 2, Window(-2, 2, -2, 2))
    with pytest.raises(ValueError, match="unknown preset"):
        realize("nope", 2, Window(-2, 2, -2, 2))
    pres = parse_presentation(ODD_TATE_SOURCE)
    with pytest.raises(ValueError, match="prime"):
        realize(pres, 5, Window(-2, 2, -2, 2))
    with pytest.raises(ValueError, match="window"):
        realize("hf2", 2)


def test_odd_split_matches_realization() -> None:
    window = Window(-6, 6, -6, 6)
    geometric, unit = odd_split("hfp_odd", 3, window)
    assert geometric.cells == {}
    reference = reference_realization("hfp_odd", 3, window)
    assert cellwise_diff(unit, reference) == []
    report = realize("hfp_odd", 3, window)
    assert cellwise_diff(report.result, unit) == []
    assert report.tau_name == "tau2"


def test_odd_split_rejects_two() -> None:
    with pytest.raises(ValueError, match="odd prime"):
        odd_split("hf2", 2, Window(-2, 2, -2, 2))


def test_odd_split_rejects_a_presentation_at_two() -> None:
    # the prime comes from the presentation alone; it is refused before expanding
    with pytest.raises(ValueError, match="the odd-primary splitting needs an odd prime"):
        odd_split(preset_presentation("HF2_R", 2), None, Window(-3, 3, -3, 3), budget=1)


def test_odd_split_free_rho_module() -> None:
    pres = parse_presentation(ODD_RHO_INVERTED_SOURCE)
    window = Window(-3, 3, -3, 3)
    with pytest.raises(RhoCompleteError):
        odd_split(pres, 3, window)
    # asserted complete, it has no tau2 action to invert, and realize refuses it for that too
    for split in (odd_split, realize):
        with pytest.raises(ValueError, match="^odd-primary input needs a tau2 action to invert$"):
            split(pres, 3, window, rho_complete=True)
    # its rho-inverted part, the first half of the split
    geometric = invert(pres, "rho", window=window)
    for d in window.cells():
        expected = PGroup(3, 0, (1,)) if d.i == d.j else PGroup(3, 0)
        assert geometric.cell(d) == expected, d


def test_odd_split_tate_obstruction() -> None:
    pres = parse_presentation(ODD_TATE_SOURCE)
    with pytest.raises(ValueError, match="Tate corner is nonzero"):
        odd_split(pres, 3, Window(-3, 3, -3, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pres=odd_rho_complete_presentations(), corner=st.sampled_from([(-3, -3), (-6, 0), (0, -6), (-1, 2)]))
def test_random_odd_realization_is_the_sum_of_the_odd_split(pres, corner) -> None:
    # no reference chart covers these inputs: realize splices the corners
    # that odd_split returns as they are
    i, j = corner
    window = Window(i, i + 6, j, j + 6)
    report = realize(pres, None, window)
    geometric, unit = odd_split(pres, None, window)
    total = direct_sum(geometric, unit)
    assert cellwise_diff(report.result, total) == []
    assert report.result.unverified == total.unverified
