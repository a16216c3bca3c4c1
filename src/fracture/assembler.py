"""Gluing localization corners into the realized module.

The pipeline inverts a tau power to get the corner h, inverts rho to get
the corner phi, and inverts rho again on h for the common corner t.  The
realized cell at d is then spliced from the difference map

    phi_d : h_d + phi_d -> t_d,   (x, y) |-> to_t(x) - to_t(y)

as the extension of ker phi_d by coker phi_(d+1,j), taken as a direct
sum.  Cells where both parts are nonzero are marked ambiguous rather
than silently resolved.

The realization theorems behind this pipeline apply to rho-complete
inputs only, so the entry points refuse anything that visibly fails the
degreewise completeness check unless the caller asserts the contract.
"""

from __future__ import annotations

from typing import NamedTuple

from .bigraded import (
    FLAG_BOUNDARY,
    FLAG_VERIFIED,
    BiDegree,
    BigradedModule,
    PHom,
    Window,
    act,
    cellwise_diff,
    multiplier,
    pgroup_sum,
    phom_zero,
    restrict,
)
# composite_action and insertion are no longer called here; the names stay
# bound because outside tracers wrap them by module attribute.
from .localization import (  # noqa: F401
    chain_composite,
    chain_lines,
    complete,
    composite_action,
    default_steps,
    induced_map,
    insertion,
    invert,
    resolve_multiplier,
)
from .presentation import Presentation, expand
from .presets import preset_presentation
from .snf import cokernel, kernel, solve_hom

BOUNDARY_SHIFT = BiDegree(1, 0)
ASSEMBLY_MARGIN = 2
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
    map_h_t[d] sends h_d into t_d, map_phi_t[d] sends phi_d into t_d.
    """

    h: BigradedModule
    phi: BigradedModule
    tate: BigradedModule
    map_h_t: dict
    map_phi_t: dict
    tau_name: str


class CellAssembly(NamedTuple):
    kernel: object
    cokernel: object
    extension: str


class AssemblyReport(NamedTuple):
    """Realized module plus per-cell provenance and certificates."""

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

    def certificates_hold(self):
        return all(
            res == (k[0] + c[0], k[1] + c[1]) for res, k, c in self.certificates().values()
        )


def select_tau_power(module):
    """The tau power to invert: the finest one the module acts by.

    Odd-primary modules only ever carry a tau^2 self map, so only that
    name is accepted there.
    """
    if module.prime != 2:
        if "tau2" in module.multipliers:
            return "tau2"
        raise ValueError("odd-primary input needs a tau2 action to invert")
    for name in ("tau", "tau2", "tau4"):
        if name in module.multipliers:
            return name
    raise ValueError("input has no tau power action to invert")


def corners(module, *, rho_complete=False, tau_name=None, steps=None, window=None):
    """The three corners h, phi, tate of the fracture square of a module.

    The caller must assert rho_complete: the corner h only deserves its
    name for rho-complete inputs.  realize() runs the completeness check
    and asserts this for you.

    The corners and their maps come out on the window (default: the
    module's window, which must contain it), equal to the whole-window
    corners restricted to it.  phi and tate compute only its cells; h is
    inverted on the whole module, because tate reads it along rho-chains
    that leave the window.

    The map h_d -> t_d is the rho-chain of up to K steps out of d in h;
    phi_d -> t_d is the tau-power insertion of the module cell at the end
    of that rho-chain (the same cell phi_d reads), into h there.  Both
    come from one sliding window per chain line (chain_composite), equal
    to the per-cell walks of composite_action and insertion.
    """
    if not rho_complete:
        raise RhoCompleteError(CONTRACT_MESSAGE)
    if tau_name is None:
        tau_name = select_tau_power(module)
    w = module.window
    K = default_steps(w) if steps is None else steps
    rho = module.multiplier("rho") if "rho" in module.multipliers else multiplier("rho")

    h = invert(module, tau_name, steps=K)
    phi = invert(module, rho, steps=K, window=window)
    tate = invert(h, rho, steps=K, window=window)
    tau = resolve_multiplier(module, tau_name)
    box = phi.window

    map_h_t = {}
    end_of = {}
    for start, length in chain_lines(w, rho.degree):
        span = chain_composite(h, rho, start)
        for k in range(length):
            d = start + rho.degree.scaled(k)
            if box.contains(d):
                a = min(K, length - 1 - k)
                map_h_t[d] = span(k, k + a)
                end_of[d] = d + rho.degree.scaled(a)
    ends = set(end_of.values())
    insert_at = {}
    for start, length in chain_lines(w, tau.degree):
        span = chain_composite(module, tau, start)
        for k in range(length):
            cur = start + tau.degree.scaled(k)
            if cur in ends:
                insert_at[cur] = span(k, k + min(K, length - 1 - k))
    # chain lines visit the window out of order; keep the window's order
    map_h_t = {d: map_h_t[d] for d in box.cells()}
    map_phi_t = {d: insert_at[end_of[d]] for d in box.cells()}
    return SquareCorners(restrict(h, box), phi, tate, map_h_t, map_phi_t, tau_name)


def assemble(square, window=None):
    """Splice the corners into the realized module, cell by cell.

    Returns an AssemblyReport whose result lives on the given window
    (default: the corners' window).  The splice at d reads the boundary
    column d+(1,0), so cells on the corners' right edge treat the
    missing column as zero and are flagged boundary-unverified.
    """
    h, phi, tate = square.h, square.phi, square.tate
    if not (h.window == phi.window == tate.window and h.prime == phi.prime == tate.prime):
        raise ValueError("corners must share a window and a prime")
    w = h.window if window is None else Window(*window)
    w.check()
    big = h.window

    sums = {}
    kers = {}
    cokers = {}

    def splice_data(d):
        if d in sums:
            return
        total, ia, ib, pa, pb = pgroup_sum(h.cell(d), phi.cell(d))
        diff = (square.map_h_t[d] @ pa) - (square.map_phi_t[d] @ pb)
        sums[d] = (total, ia, ib, pa, pb)
        kers[d] = kernel(diff)
        cokers[d] = cokernel(diff)

    cells = {}
    parts = {}
    flags = {}
    structure = {}
    for d in w.cells():
        up = d + BOUNDARY_SHIFT
        splice_data(d)
        if big.contains(up):
            splice_data(up)
        else:
            zero = tate.cell(up)
            cokers[up] = cokernel(PHom(zero, zero, []))
        ker_group, ker_incl = kers[d]
        cok_group, cok_proj, cok_section = cokers[up]
        total, inc_q, inc_k, prj_q, prj_k = pgroup_sum(cok_group, ker_group)
        ok = big.contains(up) and all(
            m.flag(e) == FLAG_VERIFIED for m, e in ((h, d), (phi, d), (tate, d), (tate, up))
        )
        if total.is_zero():
            if not ok:
                flags[d] = FLAG_BOUNDARY
            continue
        cells[d] = total
        parts[d] = CellAssembly(
            ker_group,
            cok_group,
            EXT_AMBIGUOUS if not ker_group.is_zero() and not cok_group.is_zero() else EXT_SPLIT,
        )
        structure[d] = (inc_q, inc_k, prj_q, prj_k)
        flags[d] = FLAG_VERIFIED if ok else FLAG_BOUNDARY

    mults = dict(tate.multipliers)
    actions = {}
    dropped = []
    for name, delta in mults.items():
        for d in cells:
            t = d + delta
            if not w.contains(t) or t not in cells:
                continue
            up_d, up_t = d + BOUNDARY_SHIFT, t + BOUNDARY_SHIFT
            _, _, _, pa_d, pb_d = sums[d]
            _, ia_t, ib_t, _, _ = sums[t]
            diag = (ia_t @ act(h, name, d) @ pa_d) + (ib_t @ act(phi, name, d) @ pb_d)
            _, ker_incl_d = kers[d]
            _, ker_incl_t = kers[t]
            k2k = solve_hom(ker_incl_t, diag @ ker_incl_d)
            if k2k is None:
                flags[d] = FLAG_BOUNDARY
                dropped.append((name, d, "kernel part does not transport"))
                continue
            cok_d, cok_t = cokers[up_d][0], cokers[up_t][0]
            if cok_d.is_zero():
                q2q = phom_zero(cok_d, cok_t)
            elif not big.contains(up_t):
                flags[d] = FLAG_BOUNDARY
                dropped.append((name, d, "cokernel target outside the window"))
                continue
            else:
                q2q, why = induced_map(act(tate, name, up_d), cokers[up_d], cokers[up_t])
                if q2q is None:
                    flags[d] = FLAG_BOUNDARY
                    dropped.append((name, d, f"cokernel part {why}"))
                    continue
            inc_q_d, inc_k_d, prj_q_d, prj_k_d = structure[d]
            inc_q_t, inc_k_t, prj_q_t, prj_k_t = structure[t]
            f = (inc_k_t @ k2k @ prj_k_d) + (inc_q_t @ q2q @ prj_q_d)
            if not f.is_zero():
                actions[(name, d)] = f
    caveats = tuple(dict.fromkeys(h.caveats + phi.caveats + tate.caveats))
    result = BigradedModule(h.prime, w, cells, actions, mults, flags, caveats)
    return AssemblyReport(result, parts, square.tau_name, tuple(dropped))


def _clip(box, window):
    """The part of box inside window, or None when they do not meet."""
    lo_i, hi_i = max(box[0], window.imin), min(box[1], window.imax)
    lo_j, hi_j = max(box[2], window.jmin), min(box[3], window.jmax)
    return Window(lo_i, hi_i, lo_j, hi_j) if lo_i <= hi_i and lo_j <= hi_j else None


def _reach(module, box, *chains):
    """The part of the module's window that answering the box can read.

    The box grows by one step of any multiplier on every side (the action
    loops of invert and complete flag a cell from a target one step away)
    and is swept to the window's edge along each chain degree, so every
    chain out of it runs exactly as far as in the whole window.  A box that
    misses the window reaches all of it.
    """
    w = module.window
    degrees = list(module.multipliers.values()) + list(chains)
    si = max((abs(d[0]) for d in degrees), default=0)
    sj = max((abs(d[1]) for d in degrees), default=0)
    lo_i, hi_i, lo_j, hi_j = box[0] - si, box[1] + si, box[2] - sj, box[3] + sj
    for di, dj in chains:
        lo_i, hi_i = (w.imin if di < 0 else lo_i), (w.imax if di > 0 else hi_i)
        lo_j, hi_j = (w.jmin if dj < 0 else lo_j), (w.jmax if dj > 0 else hi_j)
    return _clip((lo_i, hi_i, lo_j, hi_j), w) or w


def rho_complete_defect(module, window=None):
    """Cells where completing along rho visibly changes the module.

    An empty list is the necessary condition the realization contract
    asks for; a nonempty one is a proof of incompleteness.  Compare on a
    subwindow well inside the module's own, if one is given: cells near
    the edge can show truncation artifacts that mean nothing.  Completion
    at d reads the rho-chain that ends there, so with a window only the
    compared cells are completed, on the part of the module those chains
    pass through and to the depth the whole module would get.
    """
    if window is None:
        return cellwise_diff(complete(module, "rho"), module)
    window = Window(*window)
    up = module.multiplier("rho").degree.scaled(-1)
    part = restrict(module, _reach(module, window, up))
    done = complete(part, "rho", steps=default_steps(module.window), window=window)
    return cellwise_diff(done, restrict(module, window))


def _refuse_incomplete(module, window):
    """Raise RhoCompleteError when the window shows a rho-completeness defect."""
    defect = rho_complete_defect(module, window)
    if defect:
        head = "; ".join(defect[:4])
        raise RhoCompleteError(f"{CONTRACT_MESSAGE}: {head}")


def _expanded_for(source, prime, window, pad, budget):
    if isinstance(source, str):
        pres = preset_presentation(source, prime)
    elif isinstance(source, Presentation):
        if prime is not None and prime != source.prime:
            raise ValueError(f"presentation is at prime {source.prime}, got {prime}")
        pres = source
    else:
        raise TypeError("expected a preset name or a Presentation")
    core = window if window is not None else pres.window
    if core is None:
        raise ValueError("realization needs a window")
    core = Window(*core)
    core.check()
    if pad is None:
        pad = max(core.width, core.height) + 4
    # The Tate corner walks rho chains of length pad down from the core,
    # and the cells they end on still need room for one tau power step of
    # the h corner below them; the tallest such step is tau^4.
    big = Window(core.imin - pad, core.imax + pad, core.jmin - pad - 4, core.jmax + pad)
    expanded = expand(pres, big, budget=INTERNAL_BUDGET if budget is None else budget)
    return expanded, core, pad


def realize(source, prime=None, window=None, *, rho_complete=False, pad=None, budget=None):
    """Expand a presentation and realize it on the window.

    The presentation is expanded on a padded window so that every cell
    of the requested window clears the truncation horizon, the fracture
    square is assembled there, and the result is cut back down.  Unless
    rho-completeness is asserted, the necessary condition is checked
    first and failing inputs are refused.

    The splice reads the corners on the assembly margin around the window
    and on its boundary column, so only those corner cells are computed;
    the corners read the expansion along tau- and rho-chains out of those
    cells, so they are computed from just that part of the expansion.
    """
    expanded, core, pad = _expanded_for(source, prime, window, pad, budget)
    if not rho_complete:
        _refuse_incomplete(expanded, core)
    # with pad < ASSEMBLY_MARGIN the margin would stick out of the expansion
    m = ASSEMBLY_MARGIN
    margin = _clip((core.imin - m, core.imax + m, core.jmin - m, core.jmax + m), expanded.window)
    tau = expanded.multiplier(select_tau_power(expanded))
    box = margin._replace(imax=margin.imax + BOUNDARY_SHIFT.i)
    reach = _reach(expanded, box, tau.degree, expanded.multiplier("rho").degree)
    # with pad = 1 the boundary column can stick out of the expansion
    box = _clip(box, reach)
    square = corners(restrict(expanded, reach), rho_complete=True, tau_name=tau.name, steps=pad, window=box)
    report = assemble(square, margin)
    result = restrict(report.result, core)
    parts = {d: part for d, part in report.parts.items() if core.contains(d)}
    return AssemblyReport(result, parts, report.tau_name, report.dropped)


def odd_split(source, prime, window=None, *, rho_complete=False, pad=None, budget=None):
    """Split an odd-primary module into its rho-inverted and completed parts.

    Returns (invert(M, rho), invert(complete(M, rho), tau2)) cut to the
    window.  The Tate corner of the completed part must vanish and is
    asserted to; realizing the same input gives the direct sum of the
    two parts.

    The two inversions and the Tate corner read only the tau2- and
    rho-chains out of the window, so they run on that part of the
    expansion, and phi and the Tate corner are computed on the window
    alone.  The completion reads its chains from the opposite edge, so it
    reads all of the expansion but computes only that part.
    """
    if prime == 2:
        raise ValueError("the odd-primary splitting needs an odd prime")
    expanded, core, pad = _expanded_for(source, prime, window, pad, budget)
    if not rho_complete:
        _refuse_incomplete(expanded, core)
    reach = _reach(expanded, core, expanded.multiplier("tau2").degree, expanded.multiplier("rho").degree)
    phi = invert(restrict(expanded, reach), "rho", steps=pad, window=core)
    unit = invert(complete(expanded, "rho", steps=pad, window=reach), "tau2", steps=pad)
    tate = invert(unit, "rho", steps=pad, window=core)
    bad = [d for d in core.cells() if not tate.cell(d).is_zero()]
    if bad:
        raise ValueError(f"Tate corner is nonzero at {bad[:4]}; the odd split does not apply")
    return phi, restrict(unit, core)
