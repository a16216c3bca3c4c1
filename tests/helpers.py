"""Maps and module operations only the tests use: twin groups, scalar maps,
cellwise sums and comparisons, the reference monomial search, a record
of the windows the localizations expand, and random presentations that realize
accepts."""

import heapq
from operator import add

from hypothesis import strategies as st

from fracture import localization
from fracture.bigraded import (
    BiDegree,
    BigradedModule,
    Multiplier,
    PGroup,
    PHom,
    Window,
    act,
    pgroup_sum,
)
from fracture.presentation import BudgetError, expand, expand_indexed, parse_presentation


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


def cellwise_diff(a, b):
    """Human-readable cell mismatches between two modules."""
    out = []
    for d in sorted(set(a.cells) | set(b.cells)):
        ga, gb = a.cell(d), b.cell(d)
        if ga != gb:
            out.append(f"cell {tuple(d)}: {ga} != {gb}")
    return out


def cellwise_equal(a, b):
    return not cellwise_diff(a, b)


def _exponents(pres, powers):
    """The exponent vector of a monomial, in the order of the generators."""
    index = {g.name: k for k, g in enumerate(pres.generators)}
    vec = [0] * len(pres.generators)
    for name, e in powers:
        vec[index[name]] += e
    return tuple(vec)


def span_steps(pres):
    """(p-exponent, exponent vector, bidegree) of each span term, in order."""
    out = []
    for term in pres.spans:
        vec = _exponents(pres, term.powers)
        i = sum(e * g.degree.i for e, g in zip(vec, pres.generators))
        j = sum(e * g.degree.j for e, g in zip(vec, pres.generators))
        out.append((term.vexp, vec, BiDegree(i, j)))
    return out


def live_monomials(pres, window, budget, extend_dead=True):
    """The live monomials of each bidegree of the window, by a plain search.

    Returns {degree: [(exponent vector, valuation, order exponent or None)]}.
    The search runs over the hull of the window and the origin plus the
    collar expand uses, and extends every settled monomial, dead or alive,
    unless extend_dead is false; more than budget settled monomials raise
    BudgetError.  Extending dead monomials can settle infinitely many
    (a nilpotent generator times an inverse of its degree), so a search
    that must stop on such inputs passes extend_dead=False.
    """
    window = Window(*window)
    gens = pres.generators
    spans = span_steps(pres)
    rels = [(t.vexp, _exponents(pres, t.powers)) for t in pres.relations]

    def order_exponent(vec):
        best = None
        for vexp, rvec in rels:
            if all(g.invertible or vec[k] >= rvec[k] for k, g in enumerate(gens)):
                best = vexp if best is None else min(best, vexp)
        return best

    step = max((max(abs(d.i), abs(d.j)) for _, _, d in spans), default=1)
    collar = 2 * step + 2
    box = Window(
        min(0, window.imin) - collar,
        max(0, window.imax) + collar,
        min(0, window.jmin) - collar,
        max(0, window.jmax) + collar,
    )
    best = {}
    heap = [(vexp, k, vec, deg) for k, (vexp, vec, deg) in enumerate(spans) if box.contains(deg)]
    heapq.heapify(heap)
    counter = len(heap)
    while heap:
        val, _, vec, deg = heapq.heappop(heap)
        if vec in best:
            continue
        best[vec] = (val, deg)
        if len(best) > budget:
            raise BudgetError("over budget")
        e = order_exponent(vec)
        if not extend_dead and e is not None and val >= e:
            continue
        for vexp, svec, sdeg in spans:
            nvec = tuple(map(add, vec, svec))
            if nvec not in best and box.contains(deg + sdeg):
                heapq.heappush(heap, (val + vexp, counter, nvec, deg + sdeg))
                counter += 1

    per_degree = {}
    for vec, (val, deg) in best.items():
        e = order_exponent(vec)
        if window.contains(deg) and (e is None or val < e):
            per_degree.setdefault(deg, []).append((vec, val, e))
    return per_degree


def expanded_windows(monkeypatch, run):
    """The windows fracture.localization expands while run() runs, in call order.

    Both expand (complete's) and expand_indexed (each corner's and
    invert's) are recorded.  The window is the second argument, where
    outside tracers read it too.
    """
    seen = []

    def recording(real):
        def expanding(pres, window, *args, **kwargs):
            seen.append(Window(*window))
            return real(pres, window, *args, **kwargs)

        return expanding

    with monkeypatch.context() as patch:
        patch.setattr(localization, "expand", recording(expand))
        patch.setattr(localization, "expand_indexed", recording(expand_indexed))
        run()
    return seen


@st.composite
def odd_rho_complete_presentations(draw):
    """Random presentations at p = 3 or 5 with a tau^2 action and rho nilpotent.

    rho, when it is a generator, dies at a power of at most 3, and the
    optional third generator v at a power of at most 3, so every input is
    rho-complete and expands to finitely many monomials in any window.
    """
    p = draw(st.sampled_from([3, 5]))
    lines = [f"prime {p}", "gen tau 0 -1"]
    names = ["tau"]
    if draw(st.booleans()):
        lines += ["gen rho -1 -1", f"rel 1·rho^{draw(st.integers(1, 3))}"]
        names.append("rho")
    if draw(st.booleans()):
        lines += [f"gen v {draw(st.integers(1, 3))} {draw(st.integers(0, 1))}", f"rel 1·v^{draw(st.integers(1, 3))}"]
        names.append("v")

    def term():
        powers = [(name, draw(st.integers(0, 3 if name == "tau" else 2))) for name in names]
        mono = "*".join(f"{name}^{e}" for name, e in powers if e) or "1"
        return f"{p ** draw(st.integers(0, 2))}·{mono}"

    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"rel {term()}")
    lines.append("span 1·tau^2")
    lines += [f"span 1·{name}" for name in names[1:] if draw(st.booleans())]
    for _ in range(draw(st.integers(1, 3))):
        lines.append(f"span {term()}")
    return parse_presentation("\n".join(lines) + "\n")


@st.composite
def inverse_free_rho_presentations(draw):
    """Random presentations whose rho is a generator that is not inverted.

    tau may be inverted, and a third generator v is nilpotent, so every
    cell has finitely many monomials.
    """
    p = draw(st.sampled_from([2, 3]))
    tau_inverted = draw(st.booleans())
    lines = [f"prime {p}", "gen rho -1 -1", "gen tau 0 -1" + (" inv" if tau_inverted else "")]
    names = ["rho", "tau"]
    if draw(st.booleans()):
        lines += [f"gen v {draw(st.integers(1, 3))} {draw(st.integers(0, 2))}", f"rel 1·v^{draw(st.integers(1, 3))}"]
        names.append("v")

    def term():
        low = {"tau": -2 if tau_inverted else 0}
        powers = [(name, draw(st.integers(low.get(name, 0), 2))) for name in names]
        mono = "*".join(f"{name}^{e}" for name, e in powers if e) or "1"
        return f"{p ** draw(st.integers(0, 2))}·{mono}"

    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"rel {term()}")
    lines += ["span 1·rho", f"span 1·tau^{draw(st.sampled_from([1, 2]))}"]
    if tau_inverted and draw(st.booleans()):
        lines.append("span 1·tau^-1")
    for _ in range(draw(st.integers(1, 3))):
        lines.append(f"span {term()}")
    return parse_presentation("\n".join(lines) + "\n")
