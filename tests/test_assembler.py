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
    _reach,
    assemble,
    corners,
    odd_split,
    realize,
    rho_complete_defect,
    select_tau_power,
)
from fracture.bigraded import (
    BiDegree,
    BigradedModule,
    PGroup,
    Window,
    act,
    cellwise_diff,
    validate_module,
)
from fracture.localization import chain_end, composite_action, default_steps, invert
from fracture.presentation import expand, parse_presentation, span_actions
from fracture.presets import PRESET_NAMES, preset_presentation, reference_realization

from helpers import direct_sum

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


def hf2_corners():
    """Corners padded the way realize() pads, for probing small windows.

    Chains of length 12 from the probe windows below stop well short of
    the window edge, the discipline realize() enforces with its internal
    padding.  Certificates are only meaningful under it: a chain cut off
    by the window inside a gap of the support can report a stable zero.
    """
    module = expand(preset_presentation("hf2"), Window(-16, 16, -16, 16))
    return corners(module, rho_complete=True, steps=12)


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


# (multiplier degrees, box, chain degrees) -> the part of (-10,10)^2 the box reads
REACH_CASES = {
    "one step around the box": ([(0, -1), (-1, -1)], Window(-2, 2, -2, 2), [], Window(-3, 3, -3, 3)),
    "swept down a tau chain": ([(0, -1), (-1, -1)], Window(-2, 2, -2, 2), [(0, -1)], Window(-3, 3, -10, 3)),
    "swept down tau and rho chains": (
        [(0, -1), (-1, -1)],
        Window(-2, 2, -2, 2),
        [(0, -1), (-1, -1)],
        Window(-10, 3, -10, 3),
    ),
    "the widest step on each axis": ([(2, 1)], Window(-2, 2, -2, 2), [(0, -4)], Window(-4, 4, -10, 6)),
    "cut to the window": ([(0, -1)], Window(8, 10, 8, 10), [(0, -1)], Window(8, 10, -10, 10)),
}


@pytest.mark.parametrize("case", REACH_CASES)
def test_reach_grows_the_box_by_one_step_and_sweeps_along_each_chain(case) -> None:
    degrees, box, chains, reach = REACH_CASES[case]
    assert _reach(Window(-10, 10, -10, 10), degrees, box, *chains) == reach


def test_corners_refuse_without_assertion() -> None:
    module = expand(preset_presentation("hf2"), Window(-4, 4, -4, 4))
    with pytest.raises(RhoCompleteError) as exc:
        corners(module)
    assert str(exc.value) == CONTRACT_MESSAGE


def test_corners_of_zero_module() -> None:
    zero = BigradedModule(
        2, Window(-3, 3, -3, 3), {}, {}, {"rho": (-1, -1), "tau": (0, -1)}
    )
    square = corners(zero, rho_complete=True)
    assert not square.h.cells and not square.phi.cells and not square.tate.cells
    assert square.map_h_t == {} and square.map_phi_t == {}
    assert all(f.is_zero() for d in square.phi.window.cells() for f in square.maps_to_t(d))


@pytest.mark.parametrize("name,p", [(n, 3 if n == "HFP_ODD_R" else None) for n in PRESET_NAMES], ids=PRESET_NAMES)
@pytest.mark.parametrize("steps,box", [(None, None), (3, Window(-3, 3, -4, 2))], ids=["whole", "box"])
def test_corner_maps_follow_the_support(name, p, steps, box) -> None:
    module = expand(preset_presentation(name, p), Window(-6, 6, -8, 6))
    square = corners(module, rho_complete=True, steps=steps, window=box)
    w = module.window
    K = default_steps(w) if steps is None else steps
    rho = module.multiplier("rho")
    tau = module.multiplier(square.tau_name)
    h = invert(module, square.tau_name, steps=K)
    for d in square.phi.window.cells():
        a, e = chain_end(w, d, rho.degree, K)
        n = chain_end(w, e, tau.degree, K)[0]
        expected = (composite_action(h, rho, d, a), composite_action(module, tau, e, n))
        assert [repr(f) for f in square.maps_to_t(d)] == [repr(f) for f in expected], d
    for corner, maps in ((square.h, square.map_h_t), (square.phi, square.map_phi_t)):
        assert set(maps) == set(corner.cells)
        assert not any(f.source.is_zero() for f in maps.values())


def test_hf2_corner_supports() -> None:
    square = hf2_corners()
    for d in Window(-4, 4, -4, 4).cells():
        assert (not square.h.cell(d).is_zero()) == (d.i <= 0), d
        assert (not square.phi.cell(d).is_zero()) == (d.j <= d.i), d
        assert not square.tate.cell(d).is_zero(), d


def test_square_commutes_on_verified_cells() -> None:
    square = hf2_corners()
    other = invert(square.phi, square.tau_name, steps=12)
    checked = 0
    for d in Window(-2, 2, -2, 2).cells():
        if d not in square.tate.unverified | other.unverified:
            assert square.tate.cell(d) == other.cell(d), d
            checked += 1
    assert checked >= 20


def test_corner_maps_commute_with_actions() -> None:
    square = hf2_corners()
    h, phi, tate = square.h, square.phi, square.tate
    checked = 0
    for name in ("rho", "tau"):
        delta = h.multipliers[name]
        for d in Window(-4, 4, -4, 4).cells():
            t = d + delta
            cells = ((h, d), (phi, d), (tate, d), (h, t), (phi, t), (tate, t))
            if any(e in m.unverified for m, e in cells):
                continue
            h_to_t, phi_to_t = square.maps_to_t(d)
            h_to_t_there, phi_to_t_there = square.maps_to_t(t)
            lhs = act(tate, name, d) @ h_to_t
            rhs = h_to_t_there @ act(h, name, d)
            assert lhs == rhs, (name, d)
            lhs = act(tate, name, d) @ phi_to_t
            rhs = phi_to_t_there @ act(phi, name, d)
            assert lhs == rhs, (name, d)
            checked += 1
    assert checked > 80


def test_assemble_without_padding_flags_boundary() -> None:
    module = expand(preset_presentation("hf2"), Window(-3, 3, -3, 3))
    report = assemble(corners(module, rho_complete=True))
    result = report.result
    assert result.cell((-3, -3)) == PGroup(2, 0, (1,))
    assert {(-3, -3), (0, 0)} <= result.unverified


def test_assemble_refuses_a_window_outside_the_corners() -> None:
    # cells outside the corners would otherwise pass for verified zeros
    square = corners(expand(preset_presentation("hf2"), Window(-3, 3, -3, 3)), rho_complete=True)
    with pytest.raises(ValueError, match="not inside"):
        assemble(square, (-3, 4, -3, 3))


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


@pytest.mark.parametrize("name", ["HF2_R", "HZ2_R", "KGL2_R"])
def test_realize_with_one_step_of_padding(name) -> None:
    # the assembly margin sticks out of an expansion padded by one cell;
    # it is cut back to the expansion
    report = realize(name, 2, Window(-4, 4, -4, 4), rho_complete=True, pad=1)
    assert report.certificates_hold()
    assert report.result.window == Window(-4, 4, -4, 4)


@pytest.mark.parametrize("pad", [0, -1])
def test_realize_rejects_padding_below_one(pad) -> None:
    with pytest.raises(ValueError, match=f"pad must be at least 1, got {pad}"):
        realize("HF2_R", 2, Window(-2, 2, -2, 2), pad=pad)
    with pytest.raises(ValueError, match=f"pad must be at least 1, got {pad}"):
        odd_split("HFP_ODD_R", 3, Window(-2, 2, -2, 2), pad=pad)


FAR_CORNER = (-12, -9, -12, -9)


def test_far_corner_realizes_with_a_deep_pad() -> None:
    report = realize("HF2_R", 2, FAR_CORNER, pad=14)
    assert cellwise_diff(report.result, reference_realization("HF2_R", 2, FAR_CORNER)) == []
    assert report.certificates_hold()
    assert report.result.unverified == frozenset()


# HF2_R does not invert rho, so no completion run can cut the far
# corner's rho-chains short and refuse it.
def test_far_corner_realizes_at_the_default_pad() -> None:
    report = realize("HF2_R", 2, FAR_CORNER)
    assert cellwise_diff(report.result, reference_realization("HF2_R", 2, FAR_CORNER)) == []
    assert report.result.unverified == frozenset()
    assert report.certificates_hold()


def test_rho_complete_defect() -> None:
    good = expand(preset_presentation("hf2"), Window(-6, 6, -6, 6))
    assert rho_complete_defect(good, Window(-3, 3, -3, 3)) == []
    bad = expand(parse_presentation(RHO_INVERTED_SOURCE), Window(-6, 6, -6, 6))
    assert rho_complete_defect(bad, Window(-3, 3, -3, 3)) != []


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
    geometric, unit = odd_split(pres, 3, window, rho_complete=True)
    assert unit.cells == {}
    for d in window.cells():
        expected = PGroup(3, 0, (1,)) if d.i == d.j else PGroup(3, 0)
        assert geometric.cell(d) == expected, d


def test_odd_split_tate_obstruction() -> None:
    pres = parse_presentation(ODD_TATE_SOURCE)
    with pytest.raises(ValueError, match="Tate corner is nonzero"):
        odd_split(pres, 3, Window(-3, 3, -3, 3))


@st.composite
def odd_rho_complete_presentations(draw):
    """Random presentations at p = 3 or 5 with a tau^2 action and rho nilpotent.

    rho, when it is a generator, dies at a power of at most 3, and the
    optional third generator v at a power of at most 3, so every input is
    rho-complete and expands to finitely many monomials in any window.
    """
    p = draw(st.sampled_from([3, 5]))
    lines = [f"prime {p}", "gen tau 0 -1"]
    names = ["tau"]
    if draw(st.booleans()):
        lines += ["gen rho -1 -1", f"rel 1·rho^{draw(st.integers(1, 3))}"]
        names.append("rho")
    if draw(st.booleans()):
        lines += [f"gen v {draw(st.integers(1, 3))} {draw(st.integers(0, 1))}", f"rel 1·v^{draw(st.integers(1, 3))}"]
        names.append("v")

    def term():
        powers = [(name, draw(st.integers(0, 3 if name == "tau" else 2))) for name in names]
        mono = "*".join(f"{name}^{e}" for name, e in powers if e) or "1"
        return f"{p ** draw(st.integers(0, 2))}·{mono}"

    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"rel {term()}")
    lines.append("span 1·tau^2")
    lines += [f"span 1·{name}" for name in names[1:] if draw(st.booleans())]
    for _ in range(draw(st.integers(1, 3))):
        lines.append(f"span {term()}")
    return parse_presentation("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pres=odd_rho_complete_presentations(), corner=st.sampled_from([(-3, -3), (-6, 0), (0, -6), (-1, 2)]))
def test_random_odd_realization_is_the_sum_of_the_odd_split(pres, corner) -> None:
    # no reference chart covers these inputs: the two sides share only the
    # expansion, and meet after invert and complete ran on each
    i, j = corner
    window = Window(i, i + 6, j, j + 6)
    report = realize(pres, None, window)
    geometric, unit = odd_split(pres, None, window)
    total = direct_sum(geometric, unit)
    assert cellwise_diff(report.result, total) == []
    assert report.result.unverified == total.unverified
