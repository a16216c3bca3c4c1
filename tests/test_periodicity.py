"""Self-map degree arithmetic against a direct-count oracle.

gamma is implemented with a closed form per block of eight, so the
oracle here recounts the admissible residues one by one.  The region
predicates are pure inequalities; the tests pin the frozen boundary
cases and the defined-iff-outside-the-cone contract for the period, and
that the period is not one of the preset charts.
"""

import pytest

from fracture.bigraded import PGroup, Window
from fracture.periodicity import RegionVerdict, gamma, region, tau_selfmap_degree, u_period
from fracture.presets import reference_realization

PERIOD_WINDOW = Window(-12, 12, -12, 12)


def gamma_by_counting(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if k % 8 in (0, 1, 2, 4))


def test_gamma_matches_direct_count() -> None:
    for m in range(200):
        assert gamma(m) == gamma_by_counting(m)


def test_gamma_frozen_values() -> None:
    assert gamma(0) == 0
    assert gamma(4) == 3
    assert gamma(9) == 5


def test_gamma_rejects_negative() -> None:
    with pytest.raises(ValueError, match="m >= 0"):
        gamma(-1)


def test_gamma_periodicity_invariant() -> None:
    for m in range(80):
        assert gamma(m + 8) == gamma(m) + 4


def test_gamma_nondecreasing_and_bounded() -> None:
    for m in range(100):
        assert gamma(m) <= gamma(m + 1)
        assert gamma(m) <= m


def test_u_period_frozen_values() -> None:
    assert u_period(1) == 1
    assert u_period(2) == 2
    assert u_period(9) == 16


def test_u_period_is_two_power_of_gamma() -> None:
    for i in range(1, 40):
        assert u_period(i) == 2 ** gamma_by_counting(i - 1)


def test_u_period_divisibility_follows_gamma_order() -> None:
    for i in range(1, 25):
        for k in range(1, 25):
            if gamma(i - 1) <= gamma(k - 1):
                assert u_period(k) % u_period(i) == 0


def test_u_period_rejects_nonpositive() -> None:
    with pytest.raises(ValueError, match="i >= 1"):
        u_period(0)


def test_tau_selfmap_degree_at_two_is_u_period() -> None:
    for i in range(1, 20):
        assert tau_selfmap_degree(i, 2) == u_period(i)


def test_tau_selfmap_degree_odd_primes_constant() -> None:
    for p in (3, 5, 7, 11):
        for i in range(1, 20):
            assert tau_selfmap_degree(i, p) == 2


def test_tau_selfmap_degree_frozen_values() -> None:
    assert tau_selfmap_degree(7, 3) == 2
    assert tau_selfmap_degree(1, 2) == 1
    assert tau_selfmap_degree(5, 2) == 8


def test_tau_selfmap_degree_validates_arguments() -> None:
    with pytest.raises(ValueError, match="i >= 1"):
        tau_selfmap_degree(0, 2)
    with pytest.raises(ValueError, match="prime"):
        tau_selfmap_degree(3, 4)


def test_region_frozen_examples() -> None:
    assert region(0, 0).in_di_range
    edge = region(7, 4)
    assert edge.in_di_range
    assert not region(6, 4).in_di_range
    cone = region(5, 3)
    assert cone == RegionVerdict(True, True, None)


def test_region_period_defined_iff_outside_cone_in_positive_stems() -> None:
    for i in range(-6, 15):
        for j in range(-6, 15):
            v = region(i, j)
            assert v.in_di_range == (i >= 3 * j - 5)
            assert v.in_nonperiodicity_cone == (j - 1 <= i <= 2 * j)
            if v.in_nonperiodicity_cone or i < 1:
                assert v.period is None
            else:
                assert v.period == 2 ** gamma_by_counting(i - 1)


def period_pairs(window):
    """Pairs (d, d + (0, period)) in window, for each d with a period, whose far end is outside the wedge."""
    pairs = []
    for d in window.cells():
        period = region(*d).period
        if period is None:
            continue
        far = (d.i, d.j + period)
        if window.contains(far) and not region(*far).in_nonperiodicity_cone:
            pairs.append((d, far))
    return pairs


@pytest.mark.parametrize(
    "name,p,mismatches", [("HF2_R", 2, 15), ("HZ2_R", 2, 15), ("KGL2_R", 2, 29), ("HFP_ODD_R", 3, 0)]
)
def test_region_periods_are_not_periods_of_the_preset_charts(name, p, mismatches) -> None:
    # the period is that of the tau self-map on the cofiber of the i-th rho
    # power; the preset charts differ across some of its pairs
    pairs = period_pairs(PERIOD_WINDOW)
    assert len(pairs) == 112
    module = reference_realization(name, p, PERIOD_WINDOW)
    assert sum(module.cell(d) != module.cell(far) for d, far in pairs) == mismatches
    if name == "HF2_R":
        assert (module.cell((3, 1)), module.cell((3, 5))) == (PGroup(2, 0), PGroup(2, 0, (1,)))
