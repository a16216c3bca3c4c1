"""Inverting and completing a multiplier action, degreewise.

Both operations are truncated at K steps and certified cellwise.  The
truncated colimit of M_d -> M_{d+deg x} -> ... is its last in-window
stage; the cell is verified when the chain moved at all, its final
transition is an isomorphism, and the stage it reads from was itself
verified.  The truncated completion quotients by the image of the deepest
in-window power of x and is verified when later stages provably cannot
change the quotient.

Verification is recorded as the set of cells that could not be
certified (BigradedModule.unverified); every other cell is verified.
That set is honest bookkeeping, not a guarantee of failure: an
unverified cell still holds the best in-window approximation.
"""

from __future__ import annotations

from .bigraded import (
    BiDegree,
    Multiplier,
    PHom,
    Window,
    act,
    memo_scope,
    multiplier,
    phom_identity,
    phom_zero,
    trusted_module,
)
from .matrices import column, identity, mat_mul
from .snf import cokernel, invert_iso, is_isomorphism, span_equal

COMPLETION_CAVEAT = "completion-degreewise"


def default_steps(window):
    """K defaults to the window diameter: cones stabilize within it."""
    return max(window.width, window.height, 1)


def resolve_multiplier(module, mult):
    m = module.multiplier(mult) if isinstance(mult, str) else multiplier(mult)
    if m.degree == (0, 0):
        raise ValueError(f"cannot localize along {m.name!r}: degree (0,0)")
    return m


def steps_inside(window, d, delta):
    """The range of n for which d + n*delta lies in the window.

    The window is convex, so the n form an interval: each coordinate that
    delta moves bounds it on both sides, and one it keeps fixed lets every
    n in or none.  delta must not be (0, 0).
    """
    first = last = None
    for x, s, lo, hi in ((d[0], delta[0], window.imin, window.imax), (d[1], delta[1], window.jmin, window.jmax)):
        if s:
            lo, hi = (lo, hi) if s > 0 else (hi, lo)
            a, b = -((x - lo) // s), (hi - x) // s
            first, last = (a, b) if first is None else (max(first, a), min(last, b))
        elif not lo <= x <= hi:
            return range(0)
    return range(first, last + 1)


def edge_cells(window, delta, within=None):
    """The cells of within whose step by delta leaves the window, in window order.

    within defaults to the window and must lie inside it.  The cells form
    a strip of width |delta| along each side delta points through, so they
    come from the coordinate ranges, not from a scan of the area.
    """
    within = window if within is None else within

    def band(lo, hi, step, first, last):
        # coordinates c in [first, last] with c + step outside [lo, hi]
        if step > 0:
            return range(max(first, hi - step + 1), last + 1)
        if step < 0:
            return range(first, min(last, lo - step - 1) + 1)
        return range(0)

    i_edge = band(window.imin, window.imax, delta[0], within.imin, within.imax)
    j_edge = band(window.jmin, window.jmax, delta[1], within.jmin, within.jmax)
    j_all = range(within.jmin, within.jmax + 1)
    for i in range(within.imin, within.imax + 1):
        for j in j_all if i in i_edge else j_edge:
            yield BiDegree(i, j)


def chain_end(window, d, delta, steps):
    """Depth and end cell of the chain out of d along delta in the window, capped at steps."""
    inside = steps_inside(window, d, delta)
    n = min(steps, inside[-1]) if 1 in inside else 0
    return n, d + delta.scaled(n)


def along(delta):
    """Sort key putting the cells of each chain along delta in chain order."""
    return lambda d: d[0] * delta[0] + d[1] * delta[1]


def composite_action(module, mult, start, count):
    """The PHom of count successive mult-actions out of the start cell.

    The reference walk, one composition per step; chain_composite gives the
    same maps when many overlapping chains along one line are needed, and
    chain_power when the chains may meet zero cells.
    """
    f = phom_identity(module.cell(start))
    cur = BiDegree(*start)
    for _ in range(count):
        f = act(module, mult, cur) @ f
        cur = cur + mult.degree
    return f


def chain_composite(module, mult, start):
    """Composites of consecutive mult-actions along the line through start.

    Returns span(lo, hi): the PHom of hi - lo successive actions out of the
    cell start + lo*deg, equal to composite_action(module, mult, that cell,
    hi - lo).  Successive spans must have nondecreasing lo and hi.  A
    two-stack queue keeps the composite of the actions in [mid, top) as one
    map (back) and, for each k in [lo, mid), the composite of [k, mid)
    (front); each action is composed into back once and into front at most
    once, so a span costs a few compositions instead of hi - lo.

    A map has exactly one matrix (see PHom), so the order of composition
    cannot show in the result.
    """
    step = mult.degree
    front = {}
    back = None
    pending = []
    mid = top = last = None

    def at(k):
        return BiDegree(start[0] + k * step[0], start[1] + k * step[1])

    def span(lo, hi):
        nonlocal front, back, pending, mid, top, last
        if hi < lo or last is not None and (lo < last[0] or hi < last[1]):
            raise ValueError(f"span ({lo}, {hi}) moves backward from {last}")
        last = (lo, hi)
        if top is None or lo >= top:
            front, back, pending, mid, top = {}, None, [], lo, lo
        while top < hi:
            f = act(module, mult, at(top))
            pending.append(f)
            back = f if back is None else f @ back
            top += 1
        if lo > mid:
            # front exhausted: rebuild the suffix composites from the actions
            front = {}
            acc = None
            for k in range(top - 1, lo - 1, -1):
                f = pending[k - mid]
                acc = f if acc is None else acc @ f
                front[k] = acc
            back, pending, mid = None, [], top
        if lo == mid:
            return phom_identity(module.cell(at(lo))) if back is None else back
        return front[lo] if back is None else back @ front[lo]

    return span


def chain_power(module, mult):
    """power(start, count): the composite of count mult-actions out of start.

    Each map equals composite_action(module, mult, start, count).  A chain
    that meets a zero cell composes to the zero map, which is returned as
    such, so no action is read off a zero cell.  The other chains share one
    chain_composite per run of nonzero cells; asked in chain order along
    the run (see along), each action is composed about twice.
    """
    step = mult.degree
    cells = module.cells
    behind = {}
    runs = {}

    def before(d):
        """How many nonzero cells precede d along the chain without a gap."""
        trail = []
        while d not in behind and d - step in cells:
            trail.append(d)
            d = d - step
        n = behind.setdefault(d, 0)
        for c in reversed(trail):
            n += 1
            behind[c] = n
        return n

    def power(start, count):
        end = start + step.scaled(count)
        if count == 0:
            return phom_identity(module.cell(start))
        if end not in cells or before(end) < count:
            return phom_zero(module.cell(start), module.cell(end))
        lo = before(start)
        first = start - step.scaled(lo)
        run = runs.get(first)
        if run is None or lo < run[1] or lo + count < run[2]:
            # a fresh run, or a request behind the last one on it
            run = runs[first] = [chain_composite(module, mult, first), 0, 0]
        run[1:] = lo, lo + count
        return run[0](lo, lo + count)

    return power


def insertion(module, mult, cells, steps=None):
    """Canonical maps from the module into its inversion at mult, at each of cells.

    Returns {d: M_d -> cell d of invert(module, mult, steps)}, the composite
    of the chain out of d as deep as invert reads it (chain_end).  The
    cells may come in any order, repeated and as plain tuples.  One
    chain_power composes them in chain order (along), so chains on one
    run of nonzero cells share their compositions and a chain that meets
    a zero cell gives the zero map.
    """
    x = resolve_multiplier(module, mult)
    w = module.window
    K = default_steps(w) if steps is None else steps
    power = chain_power(module, x)
    chain_order = sorted(dict.fromkeys(BiDegree(*d) for d in cells), key=along(x.degree))
    return {d: power(d, chain_end(w, d, x.degree, K)[0]) for d in chain_order}


def output_window(module, window):
    """The window a localization answers on; it must lie inside the module's."""
    w = module.window
    if window is None:
        return w
    out = Window(*window)
    out.check()
    if not (w.contains((out.imin, out.jmin)) and w.contains((out.imax, out.jmax))):
        raise ValueError(f"window {tuple(out)} is not inside the module's window {tuple(w)}")
    return out


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


def _stabilized(module, x, n, e):
    """The stabilization certificate of a chain that took n steps to end at e.

    The chain moved, its end is verified and its final transition is an
    isomorphism.  A map into a zero cell passes the isomorphism test
    exactly when its source is zero too, so zero ends are decided from the
    cells alone, without building the map.
    """
    if n < 1 or e in module.unverified:
        return False
    before = e - x.degree
    if module.cell(e).is_zero():
        return module.cell(before).is_zero()
    return is_isomorphism(act(module, x, before))


def chain_starts(window, out, e, delta, steps):
    """The cells of out whose chain along delta, capped at steps, ends at e, each with its depth.

    A chain stops early only at the window's edge, so an end inside has
    the one start steps back, and an end on the edge has every start up
    to steps back.  Those in out are the (e - n*delta, n) for the n of
    that interval for which e - n*delta lies in out (steps_inside).
    """
    first = steps if window.contains(e + delta) else 0
    back = steps_inside(out, e, (-delta[0], -delta[1]))
    return [(e - delta.scaled(n), n) for n in range(max(first, back.start), min(steps + 1, back.stop))]


@memo_scope()
def invert(module, mult, steps=None, window=None):
    """Localization of the module at a multiplier, truncated at K steps.

    The cell at d is the module's cell K steps along the multiplier (or as
    far as the module's window allows).  On verified cells the multiplier
    acts invertibly; near the window edge values are approximations
    marked unverified.

    The answer covers the output window (default: the module's window,
    which must contain it), and chains are still measured in the module's
    window, so the result equals restricting the whole-window localization
    to the output window.  The work follows the support: only cells whose
    chain ends on a nonzero or unverified cell, or one step past a nonzero
    one, or that sit on the window's edge can be nonzero or unverified,
    and only those are visited.  The visit runs from the chain ends, not
    the cells: chain_starts hands each end its starts with their depths,
    so no visited cell works its chain out again, and each end's cell and
    stabilization certificate are decided once for all its starts (a
    start of depth 0 never moved and stays unverified).

    An action out of d is a function of the multiplier, the end e of d's
    chain and how much longer the target's chain is, so it is computed
    once per (multiplier, chain end, length difference) and shared by
    every cell with that key: chains running to the window's edge end on
    few cells.  A target in the output window that was not visited ends
    on a verified zero, so it has no action; only a target outside the
    output window has its chain worked out, for the check below.  A
    shorter target chain reads the inverse of the last steps of d's
    chain, so the isomorphism test of those steps, and the inverse, is
    made once per (chain end, length difference).

    The result is built by trusted_module: its cells, actions and flags
    come out in the module's form, so only zero actions are dropped.
    Isomorphism verdicts and inverses are computed once per distinct map
    during the call (memo_scope), and every computed one is certified.
    """
    x = resolve_multiplier(module, mult)
    w = module.window
    out = output_window(module, window)
    K = default_steps(w) if steps is None else steps
    if K < 1:
        raise ValueError("localization needs at least one step")
    step = x.degree

    # Visit the chains that end on a nonzero or unverified cell or one step
    # past a nonzero one, and those that cannot move.  Every other cell of
    # out ends a moving chain on a verified zero cell whose predecessor is
    # zero too: zero, and certified.  Full-length chains end in out shifted
    # K steps (deep), shorter ones on the window's edge.
    ends = {*module.cells, *module.unverified, *(c + step for c in module.cells)}
    i, j = out.imin + K * step[0], out.jmin + K * step[1]
    deep = w.meet(Window(i, i + out.width, j, j + out.height))
    visit = {d: (0, d) for d in edge_cells(w, step, out)}
    for e in {*filter(deep.contains, ends), *(e for e in edge_cells(w, step) if e in ends)}:
        for d, n in chain_starts(w, out, e, step, K):
            visit[d] = (n, e)

    stable = {}
    cells = {}
    unverified = set()
    for d in sorted(visit):
        n, e = visit[d]
        g = module.cell(e)
        if not g.is_zero():
            cells[d] = g
        # failures are recorded even on zero cells, so a truncation gap
        # cannot pass for a verified zero
        if n == 0:
            unverified.add(d)
            continue
        if e not in stable:
            stable[e] = _stabilized(module, x, n, e)
        if not stable[e]:
            unverified.add(d)

    power = chain_power(module, x)
    backs = {}
    inverses = {}

    def back_chain(e, shift):
        """The -shift steps of x into e, or None when they are not an isomorphism."""
        if (e, shift) not in backs:
            back = power(e + step.scaled(shift), -shift)
            backs[(e, shift)] = back if is_isomorphism(back) else None
        return backs[(e, shift)]

    def transported(y, e, shift):
        """The action of y out of a chain ending at e, into one shift steps longer."""
        if shift == 0:
            return act(module, y, e)
        if shift > 0:
            # walk y once, then catch up along x inside the target chain
            return power(e + y.degree, shift) @ act(module, y, e)
        if (e, shift) not in inverses:
            inverses[(e, shift)] = invert_iso(backs[(e, shift)])
        return act(module, y, e + step.scaled(shift)) @ inverses[(e, shift)]

    mults = dict(module.multipliers)
    mults.setdefault(x.name, step)
    found = {}
    actions = {}
    for name, dy in mults.items():
        y = Multiplier(name, BiDegree(*dy))
        for d in cells:
            t = d + y.degree
            if t in visit:
                n_t, e_t = visit[t]
            elif out.contains(t) or not w.contains(t):
                # a cell of out left unvisited ends on a verified zero
                continue
            else:
                n_t, e_t = chain_end(w, t, step, K)
            if module.cell(e_t).is_zero():
                continue
            n, e = visit[d]
            shift = n_t - n
            # this check marks d even when t lies outside the output window
            if shift < 0 and back_chain(e, shift) is None:
                unverified.add(d)
                continue
            if not out.contains(t):
                continue
            if (name, e, shift) not in found:
                found[(name, e, shift)] = transported(y, e, shift)
            actions[(name, d)] = found[(name, e, shift)]
    return trusted_module(module.prime, out, cells, actions, mults, unverified, module.caveats)


@memo_scope()
def complete(module, mult, steps=None, window=None):
    """Completion of the module at a multiplier, truncated at K steps.

    The cell at d becomes M_d / im(x^n) for the deepest in-window power n
    up to K, the last stage of the quotient tower.  Verified cells saw the
    full K stages with the image chain stabilized at the end; the result
    always carries the degreewise-completion caveat since no derived
    functors are modeled.

    The answer covers the output window (default: the module's window,
    which must contain it); quotients are also taken one step of any
    multiplier beyond it, where the well-definedness check of the actions
    reads them.  Powers are still measured in the module's window, so the
    result equals restricting the whole-window completion.  The work
    follows the support: a zero cell stays zero and stays unverified if it
    was, so only the module's nonzero cells are visited.

    The powers of x ending at each cell, and the one-shorter powers the
    certificate compares them with, come from chain_power: zero where the
    chain meets a zero cell, and otherwise from one sliding window per run
    of nonzero cells.
    """
    x = resolve_multiplier(module, mult)
    w = module.window
    out = output_window(module, window)
    K = default_steps(w) if steps is None else steps
    if K < 1:
        raise ValueError("completion needs at least one step")
    step = x.degree
    shifts = list(module.multipliers.values())

    def needed(d):
        """Whether d is in the output window or one multiplier step past it."""
        return out.contains(d) or any(out.contains(d - y) for y in shifts)

    power = chain_power(module, x)
    unverified = set(filter(needed, module.unverified))
    quotients = {}
    for d in sorted(filter(needed, module.cells), key=along(step)):
        g = module.cells[d]
        # the chain line runs back to the window edge
        m = chain_end(w, d, step.scaled(-1), K)[0]
        if m == 0:
            quotient = (g, phom_identity(g), identity(g.ngens))
            unverified.add(d)
        else:
            last = power(d - step.scaled(m), m)
            quotient = cokernel(last)
            # certificate that deeper stages cannot change the quotient:
            # either the deepest visible image already vanishes (images
            # only shrink further back, so the tower is constant from here
            # on) or the image chain is seen to stabilize across the final
            # step of a full-depth run
            stable = last.is_zero()
            if not stable and m == K:
                prev = power(d - step.scaled(m - 1), m - 1)
                cols_prev = [column(prev.entries, s) for s in range(prev.source.ngens)]
                cols_last = [column(last.entries, s) for s in range(last.source.ngens)]
                stable = span_equal(g, cols_prev, cols_last)
            if not stable:
                unverified.add(d)
        if not quotient[0].is_zero():
            quotients[d] = quotient
    # chains visit the window out of order; keep the window's order
    cells = {d: quotients[d][0] for d in sorted(quotients) if out.contains(d)}

    actions = {}
    for name, dy in module.multipliers.items():
        y = Multiplier(name, BiDegree(*dy))
        for d in cells:
            t = d + y.degree
            if t not in quotients:
                continue
            induced, _ = induced_map(act(module, y, d), quotients[d], quotients[t])
            if induced is None:
                unverified.add(d)
            elif out.contains(t):
                actions[(name, d)] = induced
    caveats = tuple(dict.fromkeys(module.caveats + (COMPLETION_CAVEAT,)))
    return trusted_module(module.prime, out, cells, actions, dict(module.multipliers), unverified, caveats)
