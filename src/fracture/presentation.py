"""Textual presentations of monomially graded modules, and their expansion.

A presentation names generators with bidegrees, lists monomial relations
(a p-power scalar times a monomial equals zero) and span elements (the
p-power multiples of monomials that generate the module).  The expanded
module is the Z_(p)-span of all products of span elements; the valuation
of a monomial is the cheapest way to reach it, so expansion is a shortest
path search over exponent vectors.

File format, one directive per line, # starts a comment:

    prime 2
    gen tau 0 -1
    gen rho -1 -1 inv
    rel 2·1
    span 1·tau
    window -8 8 -8 8

The scalar and the monomial are joined by a middle dot; a plain * is
accepted on input.  Monomial parts look like name or name^exp, joined by
*, and the empty monomial is written 1.
"""

from __future__ import annotations

import heapq
import os
import re
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .bigraded import BiDegree, BigradedModule, PGroup, PHom, Window, _is_prime
from .snf import valuation

DEFAULT_CELL_BUDGET = 100_000
BUDGET_ENV_VAR = "FRACTURE_CELL_BUDGET"

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_TERM_RE = re.compile(r"^(\d+)([·*])(.+)$")
_PART_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


class BudgetError(RuntimeError):
    """Raised when expansion visits more monomials than the cell budget."""


class ParseError(ValueError):
    def __init__(self, line, col, message):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Generator(NamedTuple):
    name: str
    degree: BiDegree
    invertible: bool


class Term(NamedTuple):
    """A p-power scalar times a monomial: p**vexp * prod(name**exp)."""

    vexp: int
    powers: tuple


class Presentation(NamedTuple):
    prime: int
    generators: tuple
    relations: tuple
    spans: tuple
    window: object  # Window or None


def monomial_string(powers):
    if not powers:
        return "1"
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers)


def term_string(p, term):
    return f"{p ** term.vexp}·{monomial_string(term.powers)}"


def print_presentation(pres):
    """Canonical text; parsing it back reproduces the presentation."""
    lines = [f"prime {pres.prime}"]
    for g in pres.generators:
        suffix = " inv" if g.invertible else ""
        lines.append(f"gen {g.name} {g.degree.i} {g.degree.j}{suffix}")
    for t in pres.relations:
        lines.append(f"rel {term_string(pres.prime, t)}")
    for t in pres.spans:
        lines.append(f"span {term_string(pres.prime, t)}")
    if pres.window is not None:
        w = pres.window
        lines.append(f"window {w.imin} {w.imax} {w.jmin} {w.jmax}")
    return "\n".join(lines) + "\n"


def _parse_int(lineno, col, text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(lineno, col, f"{what} must be an integer, got {text!r}") from None


def _parse_term(lineno, col, text, prime, gens):
    m = _TERM_RE.match(text)
    if m is None:
        raise ParseError(lineno, col, f"term must look like <p-power>·<monomial>, got {text!r}")
    scalar = int(m.group(1))
    vexp = valuation(scalar, prime)
    if vexp is None or scalar != prime ** vexp:
        raise ParseError(lineno, col, f"scalar {scalar} is not a power of {prime}")
    mono_col = col + len(m.group(1)) + 1
    mono = m.group(3)
    totals = {}
    if mono != "1":
        offset = mono_col
        for part in re.split(r"[*·]", mono):
            pm = _PART_RE.match(part)
            if pm is None:
                raise ParseError(lineno, offset, f"bad monomial part {part!r}")
            name = pm.group(1)
            exp = int(pm.group(2)) if pm.group(2) else 1
            if name not in gens:
                raise ParseError(lineno, offset, f"unknown generator {name!r}")
            if exp < 0 and not gens[name].invertible:
                raise ParseError(lineno, offset, f"generator {name!r} is not invertible")
            totals[name] = totals.get(name, 0) + exp
            offset += len(part) + 1
    order = {g: k for k, g in enumerate(gens)}
    powers = tuple(
        (name, e) for name, e in sorted(totals.items(), key=lambda kv: order[kv[0]]) if e
    )
    return Term(vexp, powers)


def parse_presentation(text):
    """Parse presentation text, with line and column diagnostics.

    >>> p = parse_presentation("prime 2\\ngen tau 0 -1\\nrel 2\\u00b71\\nspan 1\\u00b7tau\\n")
    >>> p.spans
    (Term(vexp=0, powers=(('tau', 1),)),)
    >>> parse_presentation(print_presentation(p)) == p
    True
    """
    prime = None
    gens = {}
    relations = []
    spans = []
    window = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
        col0, key = tokens[0]
        args = tokens[1:]
        if key == "prime":
            if prime is not None:
                raise ParseError(lineno, col0, "prime is declared twice")
            if gens or relations or spans or window:
                raise ParseError(lineno, col0, "prime must be the first directive")
            if len(args) != 1:
                raise ParseError(lineno, col0, "prime takes exactly one argument")
            p = _parse_int(lineno, args[0][0], args[0][1], "prime")
            try:
                ok = _is_prime(p)
            except ValueError as exc:
                raise ParseError(lineno, args[0][0], str(exc)) from None
            if not ok:
                raise ParseError(lineno, args[0][0], f"{p} is not prime")
            prime = p
            continue
        if prime is None:
            raise ParseError(lineno, col0, "prime must be declared first")
        if key == "gen":
            if len(args) not in (3, 4):
                raise ParseError(lineno, col0, "gen takes: name, two integers, optional inv")
            name = args[0][1]
            if not _NAME_RE.match(name):
                raise ParseError(lineno, args[0][0], f"bad generator name {name!r}")
            if name in gens:
                raise ParseError(lineno, args[0][0], f"generator {name!r} is declared twice")
            i = _parse_int(lineno, args[1][0], args[1][1], "degree")
            j = _parse_int(lineno, args[2][0], args[2][1], "degree")
            invertible = False
            if len(args) == 4:
                if args[3][1] != "inv":
                    raise ParseError(lineno, args[3][0], f"expected 'inv', got {args[3][1]!r}")
                invertible = True
            gens[name] = Generator(name, BiDegree(i, j), invertible)
        elif key in ("rel", "span"):
            if len(args) != 1:
                raise ParseError(lineno, col0, f"{key} takes exactly one term")
            term = _parse_term(lineno, args[0][0], args[0][1], prime, gens)
            (relations if key == "rel" else spans).append(term)
        elif key == "window":
            if window is not None:
                raise ParseError(lineno, col0, "window is declared twice")
            if len(args) != 4:
                raise ParseError(lineno, col0, "window takes four integers")
            vals = [_parse_int(lineno, c, t, "window bound") for c, t in args]
            window = Window(*vals)
            try:
                window.check()
            except ValueError as exc:
                raise ParseError(lineno, col0, str(exc)) from None
        else:
            raise ParseError(lineno, col0, f"unknown directive {key!r}")
    if prime is None:
        raise ParseError(1, 1, "missing prime declaration")
    return Presentation(prime, tuple(gens.values()), tuple(relations), tuple(spans), window)


def _vector(pres, powers):
    vec = [0] * len(pres.generators)
    index = {g.name: k for k, g in enumerate(pres.generators)}
    for name, e in powers:
        vec[index[name]] += e
    return tuple(vec)


def _degree_of(pres, vec):
    i = sum(e * g.degree.i for e, g in zip(vec, pres.generators))
    j = sum(e * g.degree.j for e, g in zip(vec, pres.generators))
    return BiDegree(i, j)


def _killers(pres):
    """Relations as (p-exponent, required powers), cheapest first.

    A relation scalar * m_r kills scalar * m for every monomial multiple m
    of m_r; invertible generators divide unconditionally, so only the
    positive powers of the others are required.
    """
    out = []
    for term in pres.relations:
        rvec = _vector(pres, term.powers)
        gens = pres.generators
        need = tuple((k, r) for k, (r, g) in enumerate(zip(rvec, gens)) if r > 0 and not g.invertible)
        out.append((term.vexp, need))
    return sorted(out, key=lambda kill: kill[0])


def _order_exponent(killers, vec):
    """min p-exponent a relation imposes on the monomial, or None."""
    for vexp, need in killers:
        if all(vec[k] >= r for k, r in need):
            return vexp
    return None


def _action_name(p, term):
    scalar = str(p ** term.vexp) if term.vexp else ""
    body = "".join(name if e == 1 else f"{name}{e}" for name, e in term.powers)
    return scalar + body


def span_actions(pres):
    """{action name: degree} of the span terms of nonzero degree, in span order.

    These are the multipliers expand gives its module, known before
    expanding.
    """
    out = {}
    for term in pres.spans:
        degree = _degree_of(pres, _vector(pres, term.powers))
        if degree != (0, 0):
            out[_action_name(pres.prime, term)] = degree
    return out


def _span_term(pres, name, what):
    """The first span term whose action is called name; what says what it is wanted for."""
    for term in pres.spans:
        if _action_name(pres.prime, term) == name:
            return term
    raise ValueError(f"no span action {name!r} to {what}")


def localized(pres, name):
    """The presentation of M[x^-1], for x the first span term whose action is called name.

    x must have scalar 1.  Its generators are marked invertible and the
    span 1·x^-1 is added.  _killers leaves invertible generators out of
    what a relation needs, so a monomial is dead in M[x^-1] exactly when
    some x^n·m is dead in M, and its valuation is the limit along the
    colimit.
    """
    term = _span_term(pres, name, "invert")
    if term.vexp:
        raise ValueError(f"cannot invert {name!r}: its scalar {pres.prime ** term.vexp} is not 1")
    inverted = {g for g, _ in term.powers}
    gens = tuple(g._replace(invertible=True) if g.name in inverted else g for g in pres.generators)
    inverse = Term(0, tuple((g, -e) for g, e in term.powers))
    return pres._replace(generators=gens, spans=pres.spans + (inverse,))


def has_live_span(pres):
    """Whether some span term survives its relations.

    If none does, the module is zero: a dead monomial extends only to dead
    ones (see expand_indexed), and every monomial extends a span term.
    """
    killers = _killers(pres)
    for term in pres.spans:
        e = _order_exponent(killers, _vector(pres, term.powers))
        if e is None or term.vexp < e:
            return True
    return False


def _cone_multiple(columns, target):
    """Some N >= 1 for which N·target is a sum of the columns with natural weights, or None.

    Such an N exists exactly when target lies in the rational cone of the
    columns.  That is decided by phase 1 of the simplex method, exact in
    integers: one artificial variable per row carries the start, and the
    artificial cost is driven to zero or proved positive.  Bland's rule
    (the lowest entering column, ties in the ratio test to the lowest
    basic column) keeps degenerate pivots from cycling.  Rows, the cost
    row last, are kept scaled by positive factors, which a pivot
    multiplies out and a gcd divides back.  N is the least common
    denominator of the weights of the vertex the method ends on.
    """
    n, rows = len(columns), len(target)
    table = []
    for r, b in enumerate(target):
        sign = -1 if b < 0 else 1
        table.append([sign * col[r] for col in columns] + [int(q == r) for q in range(rows)] + [sign * b])
    cost = [-sum(entries) if k < n or k == n + rows else 0 for k, entries in enumerate(zip(*table))]
    basis = list(range(n, n + rows))
    while True:
        enter = next((k for k, c in enumerate(cost[:-1]) if c < 0), None)
        if enter is None:
            break
        # the artificial cost is bounded below by 0, so some row limits the step
        r = None
        for q, row in enumerate(table):
            if row[enter] > 0:
                if r is None:
                    r = q
                    continue
                lhs, rhs = row[-1] * table[r][enter], table[r][-1] * row[enter]
                if lhs < rhs or lhs == rhs and basis[q] < basis[r]:
                    r = q
        pivot = table[r]
        a = pivot[enter]
        for row in (*table, cost):
            b = row[enter]
            if row is not pivot and b:
                row[:] = [a * x - b * y for x, y in zip(row, pivot)]
                common = gcd(*row) or 1
                row[:] = [x // common for x in row]
        basis[r] = enter
    if any(row[-1] for row, b in zip(table, basis) if b >= n):
        return None
    # the weight of a basic column b is row[-1] / row[b]
    solved = [(row[-1], row[b]) for row, b in zip(table, basis) if b < n]
    return lcm(*(den // gcd(num, den) for num, den in solved))


def inverse_product(pres, name):
    """A product of span terms of scalar 1 equal to x^-N for some N >= 1, or None, as powers.

    x is the first span term whose action is called name.  Let S1 be the
    span terms of scalar 1 with exponent 0 on every generator that is not
    inverted.  Only their products can equal x^-N, as every other span
    term raises the valuation or a power no inverse cancels, and x of
    scalar p has no inverse of scalar 1.  Such a product exists exactly
    when -vec(x) lies in the rational cone of the S1 vectors: clear the
    denominators of the weights.  That is decided by _cone_multiple, exact
    and without enumerating subsets of the span terms.

    This decides the degreewise completion along x, lim_n M_d / x^n M.
    The image of x^n in a cell is spanned by the monomials m for which
    m·x^-n is reachable, each hit at p^(v(m·x^-n) - v(m)).

    - If the product P exists, then for every live monomial m, m·P^n =
      m·x^-nN is reachable, with m's valuation (P has scalar 1) and m's
      killers (P has no power of a generator that is not inverted, the
      only ones a relation needs).  So x^nN maps onto m's summand for
      every n, and the completion is zero.
    - If it does not, take the reachable preimages m·x^-n of a live m.
      They run out at once if x has a positive power of a generator that
      is not inverted.  Otherwise each is a product of span terms in
      which those of scalar p, and those with a positive power of a
      generator that is not inverted, occur boundedly often while the
      valuation stays bounded, as m fixes those powers.  So if n grows with the valuation bounded, infinitely many
      -n·vec(x) + c lie in cone(S1) for one c, and as the cone is closed,
      -vec(x) lies in it: a contradiction.  Either the preimages run out or
      their valuation grows without bound.  A torsion summand then meets a
      zero image, and a free one completes p-adically to the same PGroup:
      the completion is M.

    A name that is not a span action raises ValueError.
    """
    term = _span_term(pres, name, "complete along")
    if term.vexp:
        return None
    fixed = [k for k, g in enumerate(pres.generators) if not g.invertible]
    columns = []
    for span in pres.spans:
        vec = _vector(pres, span.powers)
        if not span.vexp and any(vec) and not any(vec[k] for k in fixed):
            columns.append(vec)
    x = _vector(pres, term.powers)
    n = _cone_multiple(columns, [-e for e in x])
    return None if n is None else tuple((g.name, -n * e) for g, e in zip(pres.generators, x) if e)


def _balance(degrees):
    """Positive weights c with sum(c_k * degrees_k) = (0, 0), for one to three degrees, else None.

    The kernel of the 2 x n degree matrix must be a line of positive
    vectors: a degree (0,0) alone, two opposite degrees weighted by each
    other's size, or three weighted by their 2 x 2 minors.
    """
    if len(degrees) == 3:
        (a, b), (c, d), (e, f) = degrees
        weights = (c * f - d * e, e * b - f * a, a * d - b * c)
    elif len(degrees) == 2:
        (a, b), (c, d) = degrees
        weights = (abs(c) + abs(d), abs(a) + abs(b))
    else:
        weights = (1,)
    weights = weights if weights[0] > 0 else tuple(-w for w in weights)
    balanced = all(sum(w * deg[x] for w, deg in zip(weights, degrees)) == 0 for x in (0, 1))
    return weights if balanced and min(weights) > 0 else None


def unbounded_ray(pres):
    """A monomial of degree (0,0) whose powers no unit relation kills, or None.

    A cell holds infinitely many monomials only along a ray: a product of
    span terms of degree (0,0).  The ray weights form a cone generated by
    its extreme rays, each spanned by at most rank + 1 = 3 span terms.
    Span terms are nonnegative on the generators that are not inverted,
    so the positive support of a sum of rays there contains each ray's.
    A ray counts as killed when a relation of scalar 1 needs only
    generators of its positive support, so None proves every cell finite.
    A ray that dies only through a growing valuation is returned too: the
    check may refuse such an input, never accept an infinite one.  The
    ray comes back as the powers of its primitive monomial.
    """
    vecs = [_vector(pres, term.powers) for term in pres.spans]
    needs = [need for vexp, need in _killers(pres) if vexp == 0]
    for size in (1, 2, 3):
        for support in combinations(range(len(vecs)), size):
            weights = _balance([_degree_of(pres, vecs[k]) for k in support])
            if weights is None:
                continue
            ray = [sum(w * vecs[k][g] for w, k in zip(weights, support)) for g in range(len(pres.generators))]
            if any(ray) and not any(all(ray[g] > 0 for g, _ in need) for need in needs):
                common = gcd(*ray)
                return tuple((gen.name, e // common) for gen, e in zip(pres.generators, ray) if e)
    return None


def expansion_window(pres, window):
    """The checked window to expand on: window, else the presentation's."""
    if window is None:
        window = pres.window
    if window is None:
        raise ValueError("expansion needs a window")
    window = Window(*window)
    window.check()
    return window


def expand(pres, window=None, budget=None):
    """Expand a presentation into a BigradedModule on a window (see expand_indexed)."""
    return expand_indexed(pres, window, budget)[0]


def expand_indexed(pres, window=None, budget=None, multipliers=None):
    """Expand a presentation on a window, with the index of its monomials.

    Returns (module, index), where index[d] maps each live monomial of
    bidegree d (an exponent vector) to its (position, valuation): the
    monomial times p^valuation is the cell's generator at that position.
    Every product of span elements whose bidegree lies in the window
    contributes a cyclic summand: a monomial reached with total scalar
    valuation v and killed at valuation e gives Z/p^(e-v), or a free
    summand when no relation applies.  The span elements named in
    multipliers ({name: degree}, by default span_actions) become the
    module's multiplier actions; only those maps are built.

    The search walks a collar around the hull of the window and the
    origin, where the empty product starts (reordering factors keeps
    partial products nearby, so nothing reachable is missed).  What a
    cell holds therefore does not depend on the window around it: the
    expansion on a subwindow R of W equals the expansion on W restricted
    to R, which is what lets realize expand its corners on the window it
    answers alone.  Monomials a relation has killed are settled but not extended: everything reached
    through them is killed too.  The search gives up once it has settled
    more monomials than the cell budget: the budget argument, or else
    FRACTURE_CELL_BUDGET, or else DEFAULT_CELL_BUDGET.
    """
    window = expansion_window(pres, window)
    hint = ""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_CELL_BUDGET))
        budget = int(raw) if raw.strip().isdecimal() else 0
        if budget < 1:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer of at least 1, got {raw!r}")
        hint = f"; raise {BUDGET_ENV_VAR} if the window really is this dense"
    p = pres.prime

    span_vecs = []
    for term in pres.spans:
        vec = _vector(pres, term.powers)
        span_vecs.append((term.vexp, vec, _degree_of(pres, vec)))
    killers = _killers(pres)

    # Bounding box: hull of window and origin, plus a Steinitz collar wide
    # enough that some ordering of any product stays inside the whole way.
    step = max((max(abs(d.i), abs(d.j)) for _, _, d in span_vecs), default=1)
    collar = 2 * step + 2
    imin, imax = min(0, window.imin) - collar, max(0, window.imax) + collar
    jmin, jmax = min(0, window.jmin) - collar, max(0, window.jmax) + collar
    steps = [(vexp, vec, deg.i, deg.j) for vexp, vec, deg in span_vecs]

    # Degrees ride along in the heap as plain ints.  Monomials settle in
    # order, and the ones inside the window are grouped by bidegree as they
    # settle: the reachable monomials that survive their relations.  A dead
    # monomial (valuation at least its order exponent) is not extended:
    # span steps only add powers of the generators a relation needs and
    # never lower the valuation, so whatever it leads to is dead as well,
    # and the live monomials keep their valuations.
    settled = set()
    per_degree = {}
    heap = []
    counter = 0
    for vexp, vec, i, j in steps:
        if imin <= i <= imax and jmin <= j <= jmax:
            heapq.heappush(heap, (vexp, counter, vec, i, j))
            counter += 1
    visited = 0
    while heap:
        val, _, vec, i, j = heapq.heappop(heap)
        if vec in settled:
            continue
        settled.add(vec)
        visited += 1
        if visited > budget:
            raise BudgetError(f"expansion exceeded the budget of {budget} monomials{hint}")
        e = _order_exponent(killers, vec)
        if e is not None and val >= e:
            continue
        if window.imin <= i <= window.imax and window.jmin <= j <= window.jmax:
            per_degree.setdefault(BiDegree(i, j), []).append((vec, val, e))
        for vexp, svec, si, sj in steps:
            nvec = tuple(map(add, vec, svec))
            if nvec in settled:
                continue
            ni, nj = i + si, j + sj
            if imin <= ni <= imax and jmin <= nj <= jmax:
                heapq.heappush(heap, (val + vexp, counter, nvec, ni, nj))
                counter += 1

    cells = {}
    index = {}
    for deg, gens_here in per_degree.items():
        gens_here.sort(key=lambda g: (0, 0, g[0]) if g[2] is None else (1, -(g[2] - g[1]), g[0]))
        rank = sum(1 for _, _, e in gens_here if e is None)
        torsion = tuple(e - v for _, v, e in gens_here if e is not None)
        cells[deg] = PGroup(p, rank, torsion)
        index[deg] = {vec: (pos, v) for pos, (vec, v, _) in enumerate(gens_here)}

    if multipliers is None:
        multipliers = span_actions(pres)
    actions = {}
    for term, (vexp, svec, sdeg) in zip(pres.spans, span_vecs):
        name = _action_name(p, term)
        if name not in multipliers:
            continue
        for deg, src in index.items():
            tgt_deg = deg + sdeg
            if not window.contains(tgt_deg) or tgt_deg not in index:
                continue
            tgt = index[tgt_deg]
            rows = [[0] * len(src) for _ in tgt]
            for vec, (c, v) in src.items():
                nvec = tuple(a + b for a, b in zip(vec, svec))
                hit = tgt.get(nvec)
                if hit is None:
                    continue
                r, v_tgt = hit
                rows[r][c] = p ** (vexp + v - v_tgt)
            actions[(name, deg)] = PHom(cells[deg], cells[tgt_deg], rows)
    return BigradedModule(p, window, cells, actions, multipliers), index
