"""Every cell of a 100-window grid equals the closed-form reference, verified.

The grid has 6x6 windows with low corners (i0, j0) in GRID_CORNERS, far
into each quadrant and across the origin, where a construction that
approximates its corners near the edge of what it expanded goes wrong.
The corners of the fracture square are exact expansions, so no cell may
differ from reference_realization and none may be left unverified.
"""

import pytest

from fracture.assembler import realize
from fracture.bigraded import Window
from fracture.presets import reference_realization

GRID_CORNERS = (-50, -30, -20, -12, -7, -3, 1, 6, 10, 30)
GRID = [Window(i, i + 5, j, j + 5) for i in GRID_CORNERS for j in GRID_CORNERS]


@pytest.mark.parametrize("name,prime", [("HF2_R", 2), ("HZ2_R", 2), ("KGL2_R", 2), ("HFP_ODD_R", 3)])
def test_no_cell_of_the_grid_differs_from_the_reference(name, prime) -> None:
    wrong, unverified = [], []
    for window in GRID:
        report = realize(name, prime, window)
        assert report.certificates_hold(), window
        reference = reference_realization(name, prime, window)
        wrong += [(window, d) for d in window.cells() if report.result.cell(d) != reference.cell(d)]
        unverified += [(window, d) for d in sorted(report.result.unverified)]
    assert wrong == []
    assert unverified == []
