"""Inverting and completing a multiplier action, degreewise.

Both operations are truncated at K steps and certified cellwise.  The
truncated colimit of M_d -> M_{d+deg x} -> ... is its last in-window
stage; the cell is verified when the chain moved at all, its final
transition is an isomorphism, and the stage it reads from was itself
verified.  The truncated completion quotients by the image of the deepest
in-window power of x and is verified when later stages provably cannot
change the quotient.

Verification flags are honest bookkeeping, not guarantees of failure:
an unverified cell still holds the best in-window approximation.
"""

from __future__ import annotations

from .bigraded import (
    FLAG_BOUNDARY,
    FLAG_VERIFIED,
    BiDegree,
    BigradedModule,
    Multiplier,
    PHom,
    Window,
    act,
    multiplier,
    phom_identity,
    reduce_entries,
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


def _depth(window, d, delta, cap=None):
    """Longest chain d, d+delta, ..., d+n*delta staying in the window.

    n is at most cap (unbounded when cap is None).  The window is convex,
    so the chain stays inside up to the first coordinate bound it meets.
    """
    if not window.contains((d[0] + delta[0], d[1] + delta[1])):
        return 0
    n = cap
    axes = ((d[0], delta[0], window.imin, window.imax), (d[1], delta[1], window.jmin, window.jmax))
    for x, step, lo, hi in axes:
        if step:
            room = (hi - x) // step if step > 0 else (x - lo) // -step
            n = room if n is None else min(n, room)
    return max(n, 0)


def chain_lines(window, delta):
    """Each maximal chain start, start+delta, ... in the window, as (start, length)."""
    for d in window.cells():
        if not window.contains(d - delta):
            yield d, _depth(window, d, delta) + 1


def composite_action(module, mult, start, count):
    """The PHom of count successive mult-actions out of the start cell.

    The reference walk, one composition per step; chain_composite gives the
    same maps when many overlapping chains along one line are needed.
    """
    f = phom_identity(module.cell(start))
    cur = BiDegree(*start)
    for _ in range(count):
        f = act(module, mult, cur) @ f
        cur = cur + mult.degree
    return f


def _reduced(f):
    """f with reduced entries: a stored action need not be, a composite is."""
    entries = reduce_entries(f.source, f.target, f.entries)
    return f if entries == f.entries else PHom(f.source, f.target, entries)


def chain_composite(module, mult, start):
    """Composites of consecutive mult-actions along the line through start.

    Returns span(lo, hi): the PHom of hi - lo successive actions out of the
    cell start + lo*deg, equal to composite_action(module, mult, that cell,
    hi - lo).  Successive spans must have nondecreasing lo and hi.  A
    two-stack queue keeps the composite of the actions in [mid, top) as one
    map (back) and, for each k in [lo, mid), the composite of [k, mid)
    (front); each action is composed into back once and into front at most
    once, so a span costs a few compositions instead of hi - lo.

    Composites come out with entries reduced modulo the target orders, and
    those are determined by the map alone: compatibility of the middle
    factor kills whatever the reduction of an inner product changes.  The
    order of composition therefore cannot show in the result.
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
            f = _reduced(act(module, mult, at(top)))
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


def insertion(module, mult, d, steps=None):
    """Canonical map from M_d into the inverted module's cell at d."""
    x = resolve_multiplier(module, mult)
    K = default_steps(module.window) if steps is None else steps
    return composite_action(module, x, d, _depth(module.window, d, x.degree, K))


def _output_window(module, window):
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
        induced = PHom(q_s, q_t, reduce_entries(q_s, q_t, entries))
    except ValueError:
        return None, "does not descend"
    if not (induced @ proj_s).same_map(proj_t @ f):
        return None, "is not well defined"
    return induced, None


def invert(module, mult, steps=None, window=None):
    """Localization of the module at a multiplier, truncated at K steps.

    The cell at d is the module's cell K steps along the multiplier (or as
    far as the module's window allows).  On verified cells the multiplier
    acts invertibly; near the window edge values are approximations
    flagged boundary-unverified.

    Only the cells of the output window (default: the module's window,
    which must contain it) are computed.  Chains are still measured in
    the module's window, so the result equals restricting the
    whole-window localization to the output window.

    Isomorphism verdicts and inverses depend only on the map, so within
    one call each is computed once per (source, target, entries) and
    reused for identical maps; every computed one is still certified.
    """
    x = resolve_multiplier(module, mult)
    w = module.window
    out = _output_window(module, window)
    K = default_steps(w) if steps is None else steps
    if K < 1:
        raise ValueError("localization needs at least one step")
    verdicts = {}
    inverses = {}
    chains = {}

    def iso(f):
        key = (f.source, f.target, f.entries)
        if key not in verdicts:
            verdicts[key] = is_isomorphism(f)
        return verdicts[key]

    def inverse(f):
        key = (f.source, f.target, f.entries)
        if key not in inverses:
            inverses[key] = invert_iso(f).entries
        return PHom(f.target, f.source, inverses[key])

    def chain(d):
        """Depth and end cell of the chain out of d, in the module's window."""
        if d not in chains:
            n = _depth(w, d, x.degree, K)
            chains[d] = (n, d + x.degree.scaled(n))
        return chains[d]

    cells = {}
    flags = {}
    for d in out.cells():
        n, e = chain(d)
        g = module.cell(e)
        if not g.is_zero():
            cells[d] = g
        # stabilization certificate: the chain took at least one step and
        # its final transition is an isomorphism.  Failures are recorded
        # even on zero cells, so a truncation gap cannot pass for a
        # verified zero.
        ok = n >= 1 and module.flag(e) == FLAG_VERIFIED and iso(act(module, x, e - x.degree))
        if not ok:
            flags[d] = FLAG_BOUNDARY

    mults = dict(module.multipliers)
    mults.setdefault(x.name, x.degree)
    actions = {}
    for name, dy in mults.items():
        y = Multiplier(name, BiDegree(*dy))
        for d in cells:
            t = d + y.degree
            if not w.contains(t):
                continue
            (n, e), (n_t, e_t) = chain(d), chain(t)
            if module.cell(e_t).is_zero():
                continue
            shift = n_t - n
            if shift < 0:
                # this check flags d even when t lies outside the output window
                back = composite_action(module, x, d + x.degree.scaled(n_t), -shift)
                if not iso(back):
                    flags[d] = FLAG_BOUNDARY
                    continue
            if not out.contains(t):
                continue
            if shift >= 0:
                # walk y once, then catch up along x inside the target chain
                f = composite_action(module, x, e + y.degree, shift) @ act(module, y, e)
            else:
                f = act(module, y, d + x.degree.scaled(n_t)) @ inverse(back)
            if not f.is_zero():
                actions[(name, d)] = f
    return BigradedModule(module.prime, out, cells, actions, mults, flags, module.caveats)


def complete(module, mult, steps=None, window=None):
    """Completion of the module at a multiplier, truncated at K steps.

    The cell at d becomes M_d / im(x^n) for the deepest in-window power n
    up to K, the last stage of the quotient tower.  Verified cells saw the
    full K stages with the image chain stabilized at the end; the result
    always carries the degreewise-completion caveat since no derived
    functors are modeled.

    Only the cells of the output window (default: the module's window,
    which must contain it) are kept, and quotients are computed there and
    one step of any multiplier beyond it, where the well-definedness check
    of the actions reads them.  Powers are still measured in the module's
    window, so the result equals restricting the whole-window completion.

    The powers of x ending at each cell, and the one-shorter powers the
    certificate compares them with, come from one sliding window per
    chain line (chain_composite) instead of a fresh walk per cell.
    """
    x = resolve_multiplier(module, mult)
    w = module.window
    out = _output_window(module, window)
    K = default_steps(w) if steps is None else steps
    if K < 1:
        raise ValueError("completion needs at least one step")
    # the window and its one-step neighbours; chain lines never leave w
    need = {
        (i + a, j + b)
        for a, b in [(0, 0), *module.multipliers.values()]
        for i in range(out.imin, out.imax + 1)
        for j in range(out.jmin, out.jmax + 1)
    }

    flags = {}
    quotients = {}
    for start, length in chain_lines(w, x.degree):
        span = chain_composite(module, x, start)
        for k in range(length):
            d = start + x.degree.scaled(k)
            if d not in need:
                continue
            g = module.cell(d)
            if g.is_zero():
                if module.flag(d) != FLAG_VERIFIED:
                    flags[d] = FLAG_BOUNDARY
                continue
            # the line starts at the window edge, so k steps back fit in it
            m = min(k, K)
            if m == 0:
                quotient = (g, phom_identity(g), identity(g.ngens))
                ok = False
            else:
                power = span(k - m, k)
                quotient = cokernel(power)
                # certificate that deeper stages cannot change the quotient:
                # either the deepest visible image already vanishes (images
                # only shrink further back, so the tower is constant from here
                # on) or the image chain is seen to stabilize across the final
                # step of a full-depth run
                ok = power.is_zero()
                if not ok and m == K:
                    prev = span(k - m + 1, k)
                    cols_prev = [column(prev.entries, s) for s in range(prev.source.ngens)]
                    cols_last = [column(power.entries, s) for s in range(power.source.ngens)]
                    ok = span_equal(g, cols_prev, cols_last)
            verified = ok and module.flag(d) == FLAG_VERIFIED
            if quotient[0].is_zero():
                if not verified:
                    flags[d] = FLAG_BOUNDARY
                continue
            quotients[d] = quotient
            flags[d] = FLAG_VERIFIED if verified else FLAG_BOUNDARY
    # chain lines visit the window out of order; keep the window's order
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
                flags[d] = FLAG_BOUNDARY
            elif out.contains(t) and not induced.is_zero():
                actions[(name, d)] = induced
    caveats = tuple(dict.fromkeys(module.caveats + (COMPLETION_CAVEAT,)))
    return BigradedModule(module.prime, out, cells, actions, dict(module.multipliers), flags, caveats)
