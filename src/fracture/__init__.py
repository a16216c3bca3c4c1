"""Exact RO(C2)-graded homotopy of C2-equivariant Betti realizations.

The pipeline: present a bigraded module over the p-local integers,
localize and complete it at the Euler and orientation classes, splice the
two corners through the Tate square, and read off the equivariant answer
cell by cell, with certificates that the splice was exact.
"""

from __future__ import annotations

from .assembler import (
    CONTRACT_MESSAGE,
    AssemblyReport,
    RhoCompleteError,
    SquareCorners,
    assemble,
    corners,
    odd_split,
    realize,
    rho_complete_defect,
)
from .bigraded import (
    BiDegree,
    BigradedModule,
    Multiplier,
    PGroup,
    PHom,
    Window,
    validate_module,
)
from .charts import FLAG_BOUNDARY, FLAG_VERIFIED, emit_json, load_json, render, render_ascii, render_svg
from .localization import complete, invert
from .presentation import (
    BudgetError,
    ParseError,
    Presentation,
    expand,
    parse_presentation,
    print_presentation,
)
from .presets import PRESET_NAMES, preset_presentation, reference_realization

__version__ = "0.1.0"
