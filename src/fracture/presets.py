"""Built-in coefficient presentations and their known realizations.

Four presentations cover the coefficient rings that come up constantly:
the mod 2 Eilenberg-MacLane module HF2_R, its integral version HZ2_R,
the connective K-theory module KGL2_R, and the odd-primary HFP_ODD_R.
Each one ships with a closed form for the realized module it should
produce, so the pipeline can be cross-checked cell by cell.

>>> resolve_preset("kgl")
'KGL2_R'
>>> preset_presentation("hf2").prime
2
>>> str(reference_realization("hz2", 2, (0, 0, 3, 3)).cell((0, 3)))
'Z/2'
"""

from .bigraded import BigradedModule, PGroup, Window, _is_prime
from .presentation import parse_presentation

HF2_SOURCE = """\
prime 2
gen tau 0 -1
gen rho -1 -1
rel 2·1
span 1·1
span 1·tau
span 1·rho
"""

HZ2_SOURCE = """\
prime 2
gen rho -1 -1
gen tau 0 -1
rel 2·rho
span 1·1
span 1·rho
span 1·tau^2
"""

KGL2_SOURCE = """\
prime 2
gen rho -1 -1
gen tau 0 -1
gen v1 2 1
rel 2·rho
rel 1·v1*rho^3
span 1·1
span 1·rho
span 2·tau^2
span 1·tau^4
span 1·v1
"""

HFP_ODD_TEMPLATE = """\
prime {p}
gen tau 0 -1
rel {p}·1
span 1·1
span 1·tau^2
"""

_SOURCES = {
    "HF2_R": HF2_SOURCE,
    "HZ2_R": HZ2_SOURCE,
    "KGL2_R": KGL2_SOURCE,
    "HFP_ODD_R": HFP_ODD_TEMPLATE,
}

_ALIASES = {
    "hf2": "HF2_R",
    "hf2_r": "HF2_R",
    "hz2": "HZ2_R",
    "hz2_r": "HZ2_R",
    "kgl": "KGL2_R",
    "kgl2": "KGL2_R",
    "kgl2_r": "KGL2_R",
    "hfp": "HFP_ODD_R",
    "hfp_odd": "HFP_ODD_R",
    "hfp_odd_r": "HFP_ODD_R",
}

PRESET_NAMES = tuple(_SOURCES)


def resolve_preset(name):
    key = _ALIASES.get(str(name).strip().lower())
    if key is None:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return key


def _preset_prime(key, prime):
    """The prime a preset is taken at: 2 for the 2-primary presets, which
    refuse any other, and an explicit odd prime for the odd-primary one.
    """
    if key == "HFP_ODD_R":
        if prime is None or prime == 2 or not _is_prime(prime):
            raise ValueError(f"preset {key} needs an odd prime, got {prime!r}")
        return prime
    if prime not in (None, 2):
        raise ValueError(f"preset {key} is 2-primary, got prime {prime!r}")
    return 2


def preset_source(name, prime=None):
    """DSL source text of a preset, with the prime filled in."""
    key = resolve_preset(name)
    prime = _preset_prime(key, prime)
    return HFP_ODD_TEMPLATE.format(p=prime) if key == "HFP_ODD_R" else _SOURCES[key]


def preset_presentation(name, prime=None):
    return parse_presentation(preset_source(name, prime))


def _hf2_cell(prime, i, j):
    if (i <= 0 and j <= i) or (i >= 0 and j >= i + 2):
        return PGroup(prime, 0, (1,))
    return None


def _hz2_cell(prime, i, j):
    if i == 0 and j % 2 == 0:
        return PGroup(prime, 1)
    if i <= -1 and j <= i and (j - i) % 2 == 0:
        return PGroup(prime, 0, (1,))
    if i >= 0 and j - i >= 3 and (j - i) % 2 == 1:
        return PGroup(prime, 0, (1,))
    return None


def _kr2_cell(prime, i, j):
    rank = 0
    torsion = 0
    # summands indexed by the v1-exponent e; the rho-exponent is then
    # forced to a = 2e - i and the tau-exponent to c = i - j - e.  The
    # e = 0 column carries no v1 and so escapes the rho-power cap; keep
    # it in range however negative i gets.
    lo = 0 if i <= 0 else (i + 1) // 2
    hi = max(lo, (i + 2) // 2)
    for e in range(lo, hi + 1):
        a = 2 * e - i
        if a < 0 or (e - (i - j)) % 2 != 0:
            continue
        if e == 0 and i > 0:
            continue
        if e >= 1 and a > 2:
            continue
        c = i - j - e
        if a == 0:
            rank += 1
        elif c % 4 == 0 and (c >= 0 or e >= 1):
            torsion += 1
    if i >= 0 and j - i >= 5 and (j - i - 1) % 4 == 0:
        torsion += 1
    if rank == 0 and torsion == 0:
        return None
    return PGroup(prime, rank, (1,) * torsion)


def _hfp_odd_cell(prime, i, j):
    if i == 0 and j % 2 == 0:
        return PGroup(prime, 0, (1,))
    return None


_REFERENCE_CELLS = {
    "HF2_R": _hf2_cell,
    "HZ2_R": _hz2_cell,
    "KGL2_R": _kr2_cell,
    "HFP_ODD_R": _hfp_odd_cell,
}


def reference_realization(name, prime, window):
    """Closed form of the module the pipeline should realize from a preset.

    Cells only, no actions: the realization tests compare groups cell by
    cell and check selected actions separately.
    """
    key = resolve_preset(name)
    prime = _preset_prime(key, prime)
    window = Window(*window)
    window.check()
    law = _REFERENCE_CELLS[key]
    cells = {}
    for d in window.cells():
        g = law(prime, d.i, d.j)
        if g is not None:
            cells[d] = g
    return BigradedModule(prime, window, cells, {}, {})
