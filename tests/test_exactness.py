"""Exactness along two cofiber sequences, on the 100-window grid: an oracle that needs no table.

A map f of degree delta between realizations, with cofiber X, gives at
each d a short exact sequence

    0 -> coker(f into d) -> X_d -> ker(f out of d - (1,0) - delta) -> 0.

HZ2 --2--> HZ2 -> HF2 has delta = (0,0).  No x2 map is realized, but
coker and ker of 2 on a group Z^r + sum Z/2^e are F2 spaces of dimension
r + #e and #e, so |HF2_d| = 2^(rank + #torsion of HZ2_d + #torsion of
HZ2_(d-(1,0))).

Sigma^(2,1) KGL2 --v1--> KGL2 -> HZ2 has delta = (2,1), so the kernel is
read at d - (3,1).  The v1 maps are the realized KGL2 actions, on the
window padded by (3,1), so this half checks the transported actions,
which the reference tables lack: ranks add, and orders multiply where
all three groups are torsion.
"""

from fracture.assembler import realize
from fracture.bigraded import BiDegree, Window, act
from fracture.snf import cokernel, kernel

from test_reference_grid import GRID

TWO_SHIFT = BiDegree(1, 0)
V1 = BiDegree(2, 1)
V1_SHIFT = BiDegree(3, 1)


def padded(window, shift):
    return Window(window.imin - shift.i, window.imax, window.jmin - shift.j, window.jmax)


def test_hf2_is_exact_along_two() -> None:
    broken = []
    for window in GRID:
        hf2 = realize("HF2_R", 2, window).result
        hz2 = realize("HZ2_R", 2, padded(window, TWO_SHIFT)).result
        for d in window.cells():
            f2, z2, z2_left = hf2.cell(d), hz2.cell(d), hz2.cell(d - TWO_SHIFT)
            dimension = z2.rank + len(z2.torsion) + len(z2_left.torsion)
            if f2.rank or f2.torsion != (1,) * dimension:
                broken.append((d, str(f2), str(z2), str(z2_left)))
    assert broken == []


def test_hz2_is_exact_along_v1() -> None:
    broken, acting = [], 0
    for window in GRID:
        hz2 = realize("HZ2_R", 2, window).result
        kgl2 = realize("KGL2_R", 2, padded(window, V1_SHIFT)).result
        for d in window.cells():
            f, g = act(kgl2, "v1", d - V1), act(kgl2, "v1", d - V1_SHIFT)
            acting += not f.is_zero()
            z2, into, out_of = hz2.cell(d), cokernel(f)[0], kernel(g)[0]
            orders = (z2.order(), into.order(), out_of.order())
            if z2.rank != into.rank + out_of.rank or (None not in orders and orders[0] != orders[1] * orders[2]):
                broken.append((d, str(z2), str(into), str(out_of)))
    assert broken == []
    # the realized v1 actions carry the check: 771 of the 3600 cells are reached by a nonzero one
    assert acting > 700
