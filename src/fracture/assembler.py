"""Gluing localization corners into the realized module.

The pipeline inverts a tau power to get the corner h, inverts rho to get
the corner phi, and inverts rho again on h for the common corner t.  The
realized cell at d is then spliced from the difference map

    phi_d : h_d + phi_d -> t_d,   (x, y) |-> to_t(x) - to_t(y)

as the extension of ker phi_d by coker phi_(d+1,j), taken as a direct
sum.  Cells where both parts are nonzero are marked ambiguous rather
than silently resolved.

The realization theorems behind this pipeline apply to rho-complete
inputs only, and the presentation alone decides which inputs need a
check.  rho acts by multiplying a monomial by the generator rho, so the
image of rho^n in a cell is spanned by the cell's monomials of rho
exponent at least n.  Unless rho is an inverted generator those
exponents are never negative, and a cell has finitely many monomials
(or expand would exceed its budget), so the image is zero past the
largest of them: the module is degreewise rho-complete exactly, with
nothing to check.  An input that declares rho inverted is compared with
its degreewise completion instead, and refused when they visibly differ,
unless the caller asserts the contract.
"""

from __future__ import annotations

from typing import NamedTuple

from .bigraded import (
    BiDegree,
    BigradedModule,
    Window,
    act,
    cellwise_diff,
    memo_scope,
    multiplier,
    pgroup_sum,
    phom_zero,
    restrict,
    sum_map,
)
from .localization import (
    chain_end,
    complete,
    default_steps,
    edge_cells,
    induced_map,
    insertion,
    invert,
    output_window,
)
# composite_action is no longer called here; the name stays bound because
# outside tracers wrap it by module attribute.
from .localization import composite_action  # noqa: F401
from .presentation import Presentation, expand, span_actions
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
    left out and d is marked unverified.  A report from realize keeps the
    entries of the whole assembly margin, so it can also list actions out
    of margin cells outside the returned window.
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


def corners(module, *, rho_complete=False, steps=None, window=None):
    """The three corners h, phi, tate of the fracture square of a module.

    h inverts the tau power select_tau_power picks.  The caller must
    assert rho_complete: the corner h only deserves its name for
    rho-complete inputs.  realize() decides the contract from the
    presentation and asserts this for you.

    The corners and their maps come out on the window (default: the
    module's window, which must contain it), equal to the whole-window
    corners restricted to it.  phi and tate are answered on its cells
    only; h is inverted on the whole module, because tate reads it along
    rho-chains that leave the window.  Each localization visits only the
    support of its input (see invert).

    Both maps are insertions (see insertion), so corners walks no chain
    itself.  h_d -> t_d is the insertion of h into its rho-inversion t;
    phi_d -> t_d is the insertion of the module into h along the tau
    power, at the end e of d's rho-chain: phi_d is the module's cell e and
    t_d is h's.  A map is stored only out of a nonzero cell; maps_to_t
    reads a missing one as zero.
    """
    if not rho_complete:
        raise RhoCompleteError(CONTRACT_MESSAGE)
    tau_name = select_tau_power(module.prime, module.multipliers)
    w = module.window
    K = default_steps(w) if steps is None else steps
    rho = module.multiplier("rho")

    h = invert(module, tau_name, steps=K)
    phi = invert(module, rho, steps=K, window=window)
    tate = invert(h, rho, steps=K, window=window)
    box = phi.window

    map_h_t = insertion(h, rho, filter(box.contains, h.cells), K)
    end_of = {d: chain_end(w, d, rho.degree, K)[1] for d in phi.cells}
    insert_at = insertion(module, tau_name, end_of.values(), K)
    map_phi_t = {d: insert_at[e] for d, e in end_of.items()}
    return SquareCorners(restrict(h, box), phi, tate, map_h_t, map_phi_t, tau_name)


def assemble(square, window=None):
    """Splice the corners into the realized module, cell by cell.

    Returns an AssemblyReport whose result lives on the given window
    (default: the corners' window, which must contain it).  The splice at
    d reads the boundary column d+(1,0), so cells on the corners' right
    edge treat the missing column as zero and are marked unverified.

    The work follows the support: where h_d, phi_d and tate_(d+(1,0)) are
    all zero the splice is zero, so only the corners' nonzero and
    unverified cells and the right edge are visited.
    The difference map comes from square.maps_to_t, which reads a map out
    of a zero cell (never stored) as zero, so a boundary column outside
    the corners' window, all zeros, splices the same way as any other.
    """
    h, phi, tate = square.h, square.phi, square.tate
    if not (h.window == phi.window == tate.window and h.prime == phi.prime == tate.prime):
        raise ValueError("corners must share a window and a prime")
    w = output_window(h, window)
    big = h.window

    sums = {}
    kers = {}
    cokers = {}

    def splice_data(d):
        if d in sums:
            return
        total, ia, ib, pa, pb = pgroup_sum(h.cell(d), phi.cell(d))
        h_to_t, phi_to_t = square.maps_to_t(d)
        diff = sum_map(total, h_to_t.target, ((h_to_t, None, pa), (-phi_to_t, None, pb)))
        sums[d] = (total, ia, ib, pa, pb)
        kers[d] = kernel(diff)
        cokers[d] = cokernel(diff)

    # every cell of a module outside its nonzero and unverified cells is a
    # verified zero, so every other cell of w splices zero from verified zeros
    back = {d - BOUNDARY_SHIFT for d in (*tate.cells, *tate.unverified)}
    visit = {*h.cells, *h.unverified, *phi.cells, *phi.unverified, *tate.cells, *tate.unverified, *back}
    visit.update(edge_cells(big, BOUNDARY_SHIFT, w))
    cells = {}
    parts = {}
    unverified = set()
    structure = {}
    for d in sorted(d for d in visit if w.contains(d)):
        up = d + BOUNDARY_SHIFT
        if not big.contains(up) or any(e in m.unverified for m, e in ((h, d), (phi, d), (tate, d), (tate, up))):
            unverified.add(d)
        if h.cell(d).is_zero() and phi.cell(d).is_zero() and tate.cell(up).is_zero():
            # no kernel and no cokernel: the splice is zero
            continue
        splice_data(d)
        splice_data(up)
        ker_group, ker_incl = kers[d]
        cok_group, cok_proj, cok_section = cokers[up]
        total, inc_q, inc_k, prj_q, prj_k = pgroup_sum(cok_group, ker_group)
        if total.is_zero():
            continue
        cells[d] = total
        parts[d] = CellAssembly(
            ker_group,
            cok_group,
            EXT_AMBIGUOUS if not ker_group.is_zero() and not cok_group.is_zero() else EXT_SPLIT,
        )
        structure[d] = (inc_q, inc_k, prj_q, prj_k)

    mults = dict(tate.multipliers)
    # the kernel's inclusion into h_d + phi_d, split by the projections pa_d, pb_d once per cell
    ker_parts = {d: tuple(proj @ kers[d][1] for proj in sums[d][3:]) for d in cells}
    actions = {}
    dropped = []
    for name, delta in mults.items():
        for d in cells:
            t = d + delta
            if not w.contains(t) or t not in cells:
                continue
            up_d, up_t = d + BOUNDARY_SHIFT, t + BOUNDARY_SHIFT
            ker_h, ker_phi = ker_parts[d]
            total_t, ia_t, ib_t, _, _ = sums[t]
            blocks = ((act(h, name, d) @ ker_h, ia_t, None), (act(phi, name, d) @ ker_phi, ib_t, None))
            k2k = solve_hom(kers[t][1], sum_map(kers[d][0], total_t, blocks))
            if k2k is None:
                unverified.add(d)
                dropped.append((name, d, "kernel part does not transport"))
                continue
            cok_d, cok_t = cokers[up_d][0], cokers[up_t][0]
            if cok_d.is_zero():
                q2q = phom_zero(cok_d, cok_t)
            elif not big.contains(up_t):
                unverified.add(d)
                dropped.append((name, d, "cokernel target outside the window"))
                continue
            else:
                q2q, why = induced_map(act(tate, name, up_d), cokers[up_d], cokers[up_t])
                if q2q is None:
                    unverified.add(d)
                    dropped.append((name, d, f"cokernel part {why}"))
                    continue
            inc_q_d, inc_k_d, prj_q_d, prj_k_d = structure[d]
            inc_q_t, inc_k_t, prj_q_t, prj_k_t = structure[t]
            actions[(name, d)] = sum_map(cells[d], cells[t], ((k2k, inc_k_t, prj_k_d), (q2q, inc_q_t, prj_q_d)))
    caveats = tuple(dict.fromkeys(h.caveats + phi.caveats + tate.caveats))
    result = BigradedModule(h.prime, w, cells, actions, mults, unverified, caveats)
    return AssemblyReport(result, parts, square.tau_name, tuple(dropped))


def _reach(window, degrees, box, *chains):
    """The part of the window that answering the box can read.

    degrees are those of the module's multipliers.  The box grows by one
    step of any of them on every side (the action loops of invert and
    complete mark a cell from a target one step away) and is swept to the
    window's edge along each chain degree, so every chain out of it runs
    exactly as far as in the whole window.  The box must meet the window.
    """
    degrees = [*degrees, *chains]
    si = max((abs(d[0]) for d in degrees), default=0)
    sj = max((abs(d[1]) for d in degrees), default=0)
    lo_i, hi_i, lo_j, hi_j = box[0] - si, box[1] + si, box[2] - sj, box[3] + sj
    for di, dj in chains:
        lo_i, hi_i = (window.imin if di < 0 else lo_i), (window.imax if di > 0 else hi_i)
        lo_j, hi_j = (window.jmin if dj < 0 else lo_j), (window.jmax if dj > 0 else hi_j)
    return window.meet(Window(lo_i, hi_i, lo_j, hi_j))


def rho_complete_defect(module, window=None):
    """Cells where completing along rho visibly changes the module.

    An empty list is the necessary condition the realization contract
    asks for; a nonempty one is a proof of incompleteness.  realize and
    odd_split run it only on inputs that invert rho; on any other
    expansion it is empty once the rho-chains into the compared cells
    are longer than the largest rho exponent of their monomials.  Compare
    on a subwindow well inside the module's own, if one is given: cells
    near the edge can show truncation artifacts that mean nothing.  A
    window not inside the module's is refused with ValueError.  Completion
    at d reads the rho-chain that ends there, so only the compared cells
    are completed, on the part of the module those chains pass through and
    to the depth the whole module would get.
    """
    window = output_window(module, window)
    up = module.multiplier("rho").degree.scaled(-1)
    part = restrict(module, _reach(module.window, module.multipliers.values(), window, up))
    done = complete(part, "rho", steps=default_steps(module.window), window=window)
    return cellwise_diff(done, restrict(module, window))


def _presentation_for(source, prime):
    if isinstance(source, str):
        return preset_presentation(source, prime)
    if isinstance(source, Presentation):
        if prime is not None and prime != source.prime:
            raise ValueError(f"presentation is at prime {source.prime}, got {prime}")
        return source
    raise TypeError("expected a preset name or a Presentation")


def _padded(pres, window, pad):
    """The requested window, the pad and the padded window around it."""
    core = window if window is not None else pres.window
    if core is None:
        raise ValueError("realization needs a window")
    core = Window(*core)
    core.check()
    if pad is None:
        pad = max(core.width, core.height) + 4
    elif pad < 1:
        raise ValueError(f"pad must be at least 1, got {pad}")
    # The Tate corner walks rho chains of length pad down from the core,
    # and the cells they end on still need room for one tau power step of
    # the h corner below them; the tallest such step is tau^4.
    big = Window(core.imin - pad, core.imax + pad, core.jmin - pad - 4, core.jmax + pad)
    return core, pad, big


def _checked_expansion(pres, core, big, budget, rho_complete):
    """The padded expansion of an input compared with its completion, else None.

    Only a presentation that declares rho an inverted generator is
    compared: every other one is degreewise rho-complete exactly (see the
    module docstring), and a completion run on the padded expansion could
    only find the truncation gaps of its edge.  rho_complete=True skips
    the comparison as well.  The comparison reads rho-chains from the
    core up to the far corner of big, to the depth big gives them, so a
    compared input is expanded on all of big; a visible defect is refused
    with RhoCompleteError.
    """
    if rho_complete or not any(g.name == "rho" and g.invertible for g in pres.generators):
        return None
    expanded = expand(pres, big, budget=budget)
    defect = rho_complete_defect(expanded, core)
    if defect:
        raise RhoCompleteError(f"{CONTRACT_MESSAGE}: {'; '.join(defect[:4])}")
    return expanded


@memo_scope()
def realize(source, prime=None, window=None, *, rho_complete=False, pad=None, budget=None):
    """Expand a presentation and realize it on the window.

    Every cell of the requested window has to clear the truncation
    horizon, so the fracture square is assembled on a padded window and
    the result is cut back down.  An input whose rho is not inverted is
    rho-complete by its presentation and is not checked; one that inverts
    rho is refused with RhoCompleteError when its degreewise completion
    differs on the window, unless rho_complete=True takes the contract on
    faith.

    The splice reads the corners on the assembly margin around the window
    and on its boundary column, so the corners answer only there; they
    read the padded window only along tau- and rho-chains out of those
    cells (the reach), and only the reach is expanded.  The multipliers
    that size it come from the presentation (span_actions), the same
    names and degrees the expansion acts by.  An input that is compared
    with its completion is still expanded on the whole padded window,
    which the comparison reads.  Within the reach the work follows the
    support: the localizations and the splice visit nonzero and
    unverified cells and the window's edges, and decide every other cell
    without touching it.

    Kernels, cokernels, solves, direct sums and Smith normal forms are
    computed once per distinct input during the call (memo_scope).

    The expansion runs under budget monomials, INTERNAL_BUDGET (2,000,000)
    when budget is None; FRACTURE_CELL_BUDGET, which expand reads, is not
    consulted.  The budget counts the monomials of the expansion actually
    made: the reach's, or the padded window's for a compared input.

    Refusals come in this order: the contract check (whose padded
    expansion can itself exceed the budget), then a missing tau power,
    a ValueError raised before anything else is expanded, then the
    budget of the reach.  So a tau-less input that is not compared is
    refused for its missing tau power even where its expansion would
    exceed the budget.
    """
    pres = _presentation_for(source, prime)
    core, pad, big = _padded(pres, window, pad)
    budget = INTERNAL_BUDGET if budget is None else budget
    checked = _checked_expansion(pres, core, big, budget, rho_complete)
    mults = span_actions(pres)
    tau = mults[select_tau_power(pres.prime, mults)]
    # with pad < ASSEMBLY_MARGIN the margin would stick out of the expansion
    m = ASSEMBLY_MARGIN
    margin = big.meet(Window(core.imin - m, core.imax + m, core.jmin - m, core.jmax + m))
    box = margin._replace(imax=margin.imax + BOUNDARY_SHIFT.i)
    reach = _reach(big, mults.values(), box, tau, mults.get("rho", multiplier("rho").degree))
    expanded = expand(pres, reach, budget=budget) if checked is None else restrict(checked, reach)
    # with pad = 1 the boundary column can stick out of the expansion
    square = corners(expanded, rho_complete=True, steps=pad, window=reach.meet(box))
    report = assemble(square, margin)
    result = restrict(report.result, core)
    parts = {d: part for d, part in report.parts.items() if core.contains(d)}
    return AssemblyReport(result, parts, report.tau_name, report.dropped)


@memo_scope()
def odd_split(source, prime, window=None, *, rho_complete=False, pad=None, budget=None):
    """Split an odd-primary module into its rho-inverted and completed parts.

    Returns (invert(M, rho), invert(complete(M, rho), tau2)) cut to the
    window.  The Tate corner of the completed part must vanish and is
    asserted to; realizing the same input gives the direct sum of the
    two parts.

    The two inversions and the Tate corner read only the tau2- and
    rho-chains out of the window, so they run on that part of the
    expansion, and phi and the Tate corner answer on the window alone.
    The completion reads its chains from the opposite edge, so unlike
    realize's corners it reads all of the padded window: the whole padded
    window is expanded, and the completion answers only on that part.
    Each stage visits only the support of its input (see invert and
    complete), and exact-algebra results are reused within the call.  The
    expansion budget is INTERNAL_BUDGET unless budget is given, and counts
    the monomials of the padded window.  The contract is decided as in
    realize: only an input that inverts rho is checked, and refused when
    its completion visibly differs.  Refusals come in realize's order:
    the contract check, then a missing tau2 action, a ValueError raised
    before anything else is expanded, then the budget.
    """
    pres = _presentation_for(source, prime)
    if pres.prime == 2:
        raise ValueError("the odd-primary splitting needs an odd prime")
    core, pad, big = _padded(pres, window, pad)
    budget = INTERNAL_BUDGET if budget is None else budget
    expanded = _checked_expansion(pres, core, big, budget, rho_complete)
    select_tau_power(pres.prime, span_actions(pres))
    if expanded is None:
        expanded = expand(pres, big, budget=budget)
    tau2, rho = (expanded.multiplier(name).degree for name in ("tau2", "rho"))
    reach = _reach(big, expanded.multipliers.values(), core, tau2, rho)
    phi = invert(restrict(expanded, reach), "rho", steps=pad, window=core)
    unit = invert(complete(expanded, "rho", steps=pad, window=reach), "tau2", steps=pad)
    tate = invert(unit, "rho", steps=pad, window=core)
    bad = sorted(tate.cells)
    if bad:
        raise ValueError(f"Tate corner is nonzero at {bad[:4]}; the odd split does not apply")
    return phi, restrict(unit, core)
