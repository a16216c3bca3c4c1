"""Gluing localization corners into the realized module.

The fracture square of a module M has three corners: h = M[tau^-k],
which inverts the tau power select_tau_power picks, phi = M[rho^-1], and
their common localization t = M[rho^-1, tau^-k].  M is the expansion of
a presentation of a monomial module, and so is each corner: the
presentation localized at the span term it inverts (see
presentation.localized).  The maps h -> t and phi -> t send each
monomial to itself (see insertion).  The realized cell at d is then
spliced from the difference map

    phi_d : h_d + phi_d -> t_d,   (x, y) |-> to_t(x) - to_t(y)

as the extension of ker phi_d by coker phi_(d+1,j), taken as a direct
sum.  Cells where both parts are nonzero are marked ambiguous rather
than silently resolved.

A cell's splice reads nothing but its local picture, the maps into t at
d and d+(1,0), and an action between two cells nothing but the pictures
at its ends and the three corner actions.  Far fewer pictures are
distinct than cells (13 splices serve the 283 cells of KGL2_R on
(-10,10)^2), so the splice and the action transport are cached on the
maps themselves (functools.lru_cache, bounded by bigraded.CACHE_SIZE),
and each distinct picture is spliced once, across realize calls too.
Cached results are shared, and never mutated.

The realization theorems behind this pipeline apply to rho-complete
inputs only, and the presentation alone decides the contract, globally
and without expanding anything: completing along rho kills every live
monomial exactly when some product of span terms of scalar 1 is a
negative power of rho (presentation.inverse_product), and changes
nothing otherwise.  Unless rho is an inverted generator no such product
exists.  An input that fails is refused unless the caller asserts the
contract (see rho_complete_defect).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bigraded import (
    CACHE_SIZE,
    BiDegree,
    BigradedModule,
    PHom,
    Window,
    pgroup_sum,
    phom_zero,
    shared_phom,
    sum_map,
    trusted_module,
)
from .localization import expand_localized, presentation_of
from .matrices import mat_mul
from .presentation import cell_budget, has_live_span, inverse_product, localized, monomial_string, span_actions
# the names below are not called here; they stay bound because outside
# tracers wrap them by module attribute
from .bigraded import restrict  # noqa: F401
from .localization import complete, composite_action, invert  # noqa: F401
from .presentation import expand  # noqa: F401
from .snf import cokernel, kernel, solve_hom

BOUNDARY_SHIFT = BiDegree(1, 0)
INTERNAL_BUDGET = 2_000_000

CONTRACT_MESSAGE = (
    "input failed the degreewise rho-completeness check; the realization "
    "contract only covers rho-complete modules (complete the input first, "
    "or assert rho-completeness to override)"
)

EXT_SPLIT = "split"
EXT_AMBIGUOUS = "ambiguous"


class RhoCompleteError(RuntimeError):
    """The input visibly fails the rho-completeness contract."""


class SquareCorners(NamedTuple):
    """The three localization corners and their maps into the common one.

    map_h_t and map_phi_t are cellwise homs keyed by the result degree d:
    map_h_t[d] sends h_d into t_d, map_phi_t[d] sends phi_d into t_d.  A
    map out of a zero cell is not stored; maps_to_t reads it as zero, as
    act does for a module's missing actions.
    """

    h: BigradedModule
    phi: BigradedModule
    tate: BigradedModule
    map_h_t: dict
    map_phi_t: dict
    tau_name: str

    def maps_to_t(self, d):
        """The maps h_d -> t_d and phi_d -> t_d, zero where none is stored."""
        t = self.tate.cell(d)
        return tuple(
            maps[d] if d in maps else phom_zero(corner.cell(d), t)
            for corner, maps in ((self.h, self.map_h_t), (self.phi, self.map_phi_t))
        )


class CellAssembly(NamedTuple):
    kernel: object
    cokernel: object
    extension: str


class AssemblyReport(NamedTuple):
    """Realized module plus per-cell provenance and certificates.

    dropped holds one (name, d, why) per action the splice could not
    build out of cell d, why naming the part that failed; the action is
    left out and d is marked unverified.
    """

    result: BigradedModule
    parts: dict
    tau_name: str
    dropped: tuple

    def certificates(self):
        """Per-cell order equation data: (result, ker, coker) sizes.

        Sizes are (rank, torsion exponent sum) pairs, so the splice is
        exact at d exactly when both coordinates add up.
        """
        out = {}
        for d, part in self.parts.items():
            g = self.result.cell(d)
            out[d] = (
                (g.rank, sum(g.torsion)),
                (part.kernel.rank, sum(part.kernel.torsion)),
                (part.cokernel.rank, sum(part.cokernel.torsion)),
            )
        return out

    def certificate_failures(self):
        """One message per cell whose splice order equation fails, in degree order."""
        return [
            f"cell {tuple(d)}: splice order equation fails: {res} != {ker} + {cok}"
            for d, (res, ker, cok) in sorted(self.certificates().items())
            if res != (ker[0] + cok[0], ker[1] + cok[1])
        ]

    def certificates_hold(self):
        return not self.certificate_failures()


def select_tau_power(prime, multipliers):
    """The tau power to invert: the finest one among the multiplier names.

    Odd-primary modules only ever carry a tau^2 self map, so only that
    name is accepted there.
    """
    if prime != 2:
        if "tau2" in multipliers:
            return "tau2"
        raise ValueError("odd-primary input needs a tau2 action to invert")
    for name in ("tau", "tau2", "tau4"):
        if name in multipliers:
            return name
    raise ValueError("input has no tau power action to invert")


def insertion(source, target):
    """The localization map between two expansions, as {d: source_d -> target_d}.

    source and target are (module, index) pairs from expand_indexed, the
    target's presentation a localization of the source's.  Each monomial
    goes to itself times p^(v_source - v_target), or to 0 where it is
    dead in the target; valuations and orders only fall, so it is a hom.
    Each distinct map is validated once (shared_phom) and shared among its cells.
    """
    (module, src_index), (tmod, tgt_index) = source, target
    maps = {}
    for d, src in src_index.items():
        tgt = tgt_index.get(d, {})
        rows = [[0] * len(src) for _ in tgt]
        for vec, (c, v) in src.items():
            if vec in tgt:
                r, v_tgt = tgt[vec]
                rows[r][c] = module.prime ** (v - v_tgt)
        maps[d] = shared_phom(module.cell(d), tmod.cell(d), tuple(map(tuple, rows)))
    return maps


@lru_cache(maxsize=CACHE_SIZE)
def corner_presentations(pres, tau_name):
    """{corner: presentation} of h = M[tau_name^-1], and of phi = M[rho^-1] and tate = h[rho^-1] when rho acts.

    The dict is cached and shared: never mutate it.
    """
    h = localized(pres, tau_name)
    if "rho" not in span_actions(pres):
        return {"h": h}
    return {"h": h, "phi": localized(pres, "rho"), "tate": localized(h, "rho")}


def corners(pres, window, budget=None):
    """The corners h, phi, tate of the fracture square of a presentation, exact on the window.

    Each is the expansion of its localized presentation (corner_presentations);
    an input with no rho span action has zero phi and tate.  Every corner
    acts by the input's span actions only.  Both maps into tate are
    insertions, stored out of nonzero cells only.  Refusals come in this
    order: a missing tau power (ValueError), then a corner not of finite
    type (BudgetError naming it and its ray, see expand_localized), both
    before anything is expanded, then the budget, which each corner
    expansion has to itself.  The contract is the caller's: h deserves its
    name only for a rho-complete input.
    """
    mults = span_actions(pres)
    tau_name = select_tau_power(pres.prime, mults)
    named = corner_presentations(pres, tau_name)
    window = Window(*window)
    parts = expand_localized(pres, {f"corner {corner}": local for corner, local in named.items()}, window, budget)
    zero = (BigradedModule(pres.prime, window, {}, {}, mults), {})
    h, phi, tate = (parts.get(f"corner {corner}", zero) for corner in ("h", "phi", "tate"))
    return SquareCorners(h[0], phi[0], tate[0], insertion(h, tate), insertion(phi, tate), tau_name)


def induced_map(f, source, target):
    """The map a hom f induces between quotients of its source and target.

    source and target are (quotient, projection, section) triples as
    cokernel returns them.  The candidate proj_t . f . section_s must be a
    hom of the quotients, and inducing through the chosen representatives
    must agree with projecting f.  Returns (map, None), or (None, why)
    with why naming the check that failed.
    """
    q_s, proj_s, section_s = source
    q_t, proj_t, _ = target
    middle = mat_mul(proj_t.entries, f.entries, f.target.ngens, f.source.ngens)
    entries = mat_mul(middle, section_s, f.source.ngens, q_s.ngens)
    try:
        induced = PHom(q_s, q_t, entries)
    except ValueError:
        return None, "does not descend"
    if induced @ proj_s != proj_t @ f:
        return None, "is not well defined"
    return induced, None


@lru_cache(maxsize=CACHE_SIZE)
def _splice(h_to_t, phi_to_t):
    """What the splice reads at one degree d, from the maps h_d -> t_d and phi_d -> t_d.

    Returns (kernel, cokernel, total, incl_h, incl_phi, ker_h, ker_phi):
    the kernel (group, inclusion) and cokernel (group, projection,
    section) of the difference map (x, y) |-> h_to_t(x) - phi_to_t(y) out
    of total = h_d + phi_d, the inclusions of total's two summands, and
    the kernel's inclusion split by total's projections.
    """
    total, incl_h, incl_phi, proj_h, proj_phi = pgroup_sum(h_to_t.source, phi_to_t.source)
    diff = sum_map(total, h_to_t.target, ((h_to_t, None, proj_h), (-phi_to_t, None, proj_phi)))
    ker = kernel(diff)
    return ker, cokernel(diff), total, incl_h, incl_phi, proj_h @ ker[1], proj_phi @ ker[1]


@lru_cache(maxsize=CACHE_SIZE)
def _transport(act_h, act_phi, act_tate, at_d, at_t, at_up_d, at_up_t):
    """The action between realized cells d -> t that the corner actions induce: (map, None), or (None, why).

    act_h and act_phi act out of h_d and phi_d, act_tate out of
    tate_(d+(1,0)); at_x is the pair of maps into t that _splice reads at
    x, for x = d, t and their boundary cells.  The kernel part is solved
    for (solve_hom), the cokernel part induced (induced_map), and why names
    the part that failed.
    """
    (ker_d, _), _, _, _, _, ker_h, ker_phi = _splice(*at_d)
    (ker_t, ker_incl_t), _, total_t, incl_h, incl_phi, _, _ = _splice(*at_t)
    cok_d, cok_t = _splice(*at_up_d)[1], _splice(*at_up_t)[1]
    blocks = ((act_h @ ker_h, incl_h, None), (act_phi @ ker_phi, incl_phi, None))
    k2k = solve_hom(ker_incl_t, sum_map(ker_d, total_t, blocks))
    if k2k is None:
        return None, "kernel part does not transport"
    if cok_d[0].is_zero():
        q2q = phom_zero(cok_d[0], cok_t[0])
    else:
        q2q, why = induced_map(act_tate, cok_d, cok_t)
        if q2q is None:
            return None, f"cokernel part {why}"
    source, _, _, prj_q, prj_k = pgroup_sum(cok_d[0], ker_d)
    target, inc_q, inc_k, _, _ = pgroup_sum(cok_t[0], ker_t)
    return sum_map(source, target, ((k2k, inc_k, prj_k), (q2q, inc_q, prj_q))), None


def assemble(square):
    """Splice the corners into the realized module, cell by cell.

    The splice at d reads the boundary column d+(1,0), so the result lives
    on the corners' window less its right column.  Only cells where h_d,
    phi_d or tate_(d+(1,0)) is nonzero are visited; every other splice is
    zero.  The algebra of a cell is a function of its local picture, the
    maps into t at d and d+(1,0) (_splice), and that of an action of
    those at its two ends and of the corner actions (_transport); both
    are cached, so each distinct picture is spliced once.  The corner
    actions are read from each corner's actions, a missing one being the
    cached zero map (phom_zero): both ends of every action lie in the
    corners' window, so act's window checks would be dead work.  A cell
    is unverified only when an action out of it cannot be built (dropped).
    """
    h, phi, tate = square.h, square.phi, square.tate
    if not (h.window == phi.window == tate.window and h.prime == phi.prime == tate.prime):
        raise ValueError("corners must share a window and a prime")
    w = h.window._replace(imax=h.window.imax - BOUNDARY_SHIFT.i)
    w.check()

    visit = sorted(filter(w.contains, {*h.cells, *phi.cells, *(d - BOUNDARY_SHIFT for d in tate.cells)}))
    pictures = {x: square.maps_to_t(x) for x in {*visit, *(d + BOUNDARY_SHIFT for d in visit)}}
    cells = {}
    parts = {}
    for d in visit:
        ker_group = _splice(*pictures[d])[0][0]
        cok_group = _splice(*pictures[d + BOUNDARY_SHIFT])[1][0]
        total = pgroup_sum(cok_group, ker_group)[0]
        if total.is_zero():
            continue
        cells[d] = total
        parts[d] = CellAssembly(
            ker_group,
            cok_group,
            EXT_AMBIGUOUS if not ker_group.is_zero() and not cok_group.is_zero() else EXT_SPLIT,
        )

    mults = dict(tate.multipliers)
    actions = {}
    unverified = set()
    dropped = []
    for name, delta in mults.items():
        for d in cells:
            t = d + delta
            if t not in cells:
                continue
            up_d, up_t = d + BOUNDARY_SHIFT, t + BOUNDARY_SHIFT
            corner_acts = [
                corner.actions.get((name, x)) or phom_zero(corner.cell(x), corner.cell(y))
                for corner, x, y in ((h, d, t), (phi, d, t), (tate, up_d, up_t))
            ]
            f, why = _transport(*corner_acts, pictures[d], pictures[t], pictures[up_d], pictures[up_t])
            if f is None:
                unverified.add(d)
                dropped.append((name, d, why))
            else:
                actions[(name, d)] = f
    # cells, actions, multipliers and unverified are already in the module's form
    result = trusted_module(h.prime, w, cells, actions, mults, unverified, ())
    return AssemblyReport(result, parts, square.tau_name, tuple(dropped))


def rho_complete_defect(pres):
    """The witness that a presentation fails the rho contract, or None.

    The witness is a product of span terms of scalar 1 equal to rho^-N, as
    powers (presentation.inverse_product).  With it, completing along rho
    kills every live monomial, so the input is rho-complete only if it is
    zero, which it is exactly when no span term is live.  Without it the
    completion along rho is the module itself.  The verdict holds for the
    whole module, not for a window, and nothing is expanded.  An input
    with no rho span action has no rho to complete along.
    """
    if "rho" not in span_actions(pres) or not has_live_span(pres):
        return None
    return inverse_product(pres, "rho")


def _checked(pres, window, budget, rho_complete):
    """The requested window (else the presentation's) and the budget, once the rho contract holds.

    An explicit budget that is not an integer of at least 1 is refused
    first (see cell_budget).  Unless rho_complete=True, an input with a
    rho_complete_defect is then refused with RhoCompleteError, naming the
    product it found, before anything is expanded.
    """
    budget = INTERNAL_BUDGET if budget is None else cell_budget(budget)[0]
    core = window if window is not None else pres.window
    if core is None:
        raise ValueError("realization needs a window")
    core = Window(*core)
    core.check()
    if not rho_complete:
        product = rho_complete_defect(pres)
        if product is not None:
            raise RhoCompleteError(
                f"{CONTRACT_MESSAGE}: span terms of scalar 1 multiply to {monomial_string(product)},"
                " so every live monomial is divisible by every power of rho"
            )
    return core, budget


def realize(source, prime=None, window=None, *, rho_complete=False, budget=None):
    """Expand a presentation and realize it on the window.

    The rho contract is checked first (see _checked), then the corners are
    expanded on the window plus the boundary column the splice reads, and
    spliced on the window.  Every corner cell is exact, so no cell is
    approximated.  Kernels, cokernels, solves, direct sums and Smith
    normal forms, and the splice of each cell and the transport of each
    action, are cached (functools.lru_cache, bounded by
    bigraded.CACHE_SIZE): each is computed and certified once per
    distinct input, and a later call with an equal input, in this
    realize or another, gets the stored result back.

    Each corner expansion runs under its own budget of monomials: budget,
    or INTERNAL_BUDGET (2,000,000); FRACTURE_CELL_BUDGET is not
    consulted.  Refusals come in this order: the contract check, then a
    missing tau power (ValueError) and a corner not of finite type
    (BudgetError), all three before anything is expanded, then the budget
    of the corners.
    """
    pres = presentation_of(source, prime)
    core, budget = _checked(pres, window, budget, rho_complete)
    return assemble(corners(pres, core._replace(imax=core.imax + BOUNDARY_SHIFT.i), budget))


def odd_split(source, prime, window=None, *, rho_complete=False, budget=None):
    """Split an odd-primary module into its rho-inverted and completed parts.

    Returns the corners (phi, h) = (M[rho^-1], M[tau2^-1]) on the window.
    h is the tau2-inversion of the rho-completion of M: an input that
    passes the contract check, or asserts it, is its own degreewise
    rho-completion (see the module docstring), so none is computed.  The
    Tate corner must vanish and is asserted to; realizing the same input
    gives the direct sum of the two parts.  Budget and refusals are as in
    realize.
    """
    pres = presentation_of(source, prime)
    if pres.prime == 2:
        raise ValueError("the odd-primary splitting needs an odd prime")
    square = corners(pres, *_checked(pres, window, budget, rho_complete))
    bad = sorted(square.tate.cells)
    if bad:
        raise ValueError(f"Tate corner is nonzero at {bad[:4]}; the odd split does not apply")
    return square.phi, square.h
