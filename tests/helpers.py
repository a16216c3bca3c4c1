"""Maps and module operations only the tests use: twin groups, scalar maps, cellwise sums and comparisons."""

from fracture.bigraded import (
    BigradedModule,
    Multiplier,
    PGroup,
    PHom,
    act,
    cellwise_diff,
    pgroup_sum,
)


def twin(group):
    """An equal group built as a separate object."""
    return PGroup(group.prime, group.rank, group.torsion)


def phom_scalar(group, n):
    """Multiplication by the integer n on a PGroup."""
    return PHom(group, group, [[n if s == t else 0 for s in range(group.ngens)] for t in range(group.ngens)])


def direct_sum(a, b):
    """Cellwise direct sum of two modules on the same window."""
    if a.prime != b.prime or a.window != b.window:
        raise ValueError("direct sum needs matching prime and window")
    mults = dict(a.multipliers)
    for name, deg in b.multipliers.items():
        if mults.setdefault(name, deg) != deg:
            raise ValueError(f"multiplier {name} has conflicting degrees")
    cells = {}
    maps = {}
    for d in set(a.cells) | set(b.cells):
        total, ia, ib, pa, pb = pgroup_sum(a.cell(d), b.cell(d))
        cells[d] = total
        maps[d] = (ia, ib, pa, pb)
    actions = {}
    for name, deg in mults.items():
        for d in cells:
            t = d + deg
            if t not in cells:
                continue
            ia, ib, pa, pb = maps[d]
            ja, jb, _, _ = maps[t]
            fa = act(a, Multiplier(name, deg), d)
            fb = act(b, Multiplier(name, deg), d)
            f = (ja @ fa @ pa) + (jb @ fb @ pb)
            if not f.is_zero():
                actions[(name, d)] = f
    return BigradedModule(
        a.prime,
        a.window,
        cells,
        actions,
        mults,
        a.unverified | b.unverified,
        caveats=tuple(dict.fromkeys(a.caveats + b.caveats)),
    )


def cellwise_equal(a, b):
    return not cellwise_diff(a, b)
