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

import os
import re
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .bigraded import CACHE_SIZE, KNOWN_MULTIPLIER_DEGREES, BiDegree, PGroup, Window, _is_prime, shared_phom, trusted_module
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


@lru_cache(maxsize=CACHE_SIZE)
def parse_presentation(text):
    """Parse presentation text, with line and column diagnostics.

    The parse of each distinct text is cached; a Presentation is immutable.

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
            if key == "span":
                _check_action_name(lineno, args[0][0], prime, gens, term, spans)
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


@lru_cache(maxsize=CACHE_SIZE)
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
    return tuple(sorted(out, key=lambda kill: kill[0]))


def _order_exponent(killers, vec):
    """min p-exponent a relation imposes on the monomial, or None.

    expand_indexed asks this once per settled monomial, so it is written
    as plain loops, with no generator.
    """
    for vexp, need in killers:
        for k, r in need:
            if vec[k] < r:
                break
        else:
            return vexp
    return None


def _action_name(p, term):
    scalar = str(p ** term.vexp) if term.vexp else ""
    body = "".join(name if e == 1 else f"{name}{e}" for name, e in term.powers)
    return scalar + body


def _check_action_name(lineno, col, prime, gens, term, spans):
    """Refuse a span term whose action name would be ambiguous.

    Action names join generator names without a separator, so two
    monomials can share one (ta*u and tau), and a product can take the
    name of a known multiplier (r*ho is rho), which the pipeline would
    then treat as that multiplier.  Either is a ParseError naming both.
    So is a term of nonzero degree named like a known multiplier of
    another degree (tau of degree (0, -2)), naming both degrees.
    """
    name = _action_name(prime, term)
    for other in spans:
        if other.powers != term.powers and _action_name(prime, other) == name:
            raise ParseError(
                lineno,
                col,
                f"span terms {monomial_string(other.powers)} and {monomial_string(term.powers)}"
                f" have the same action name {name!r}",
            )
    if name in KNOWN_MULTIPLIER_DEGREES and len(term.powers) != 1:
        raise ParseError(
            lineno,
            col,
            f"span term {monomial_string(term.powers)} is not a power of one generator,"
            f" but its action name is that of the multiplier {name}",
        )
    known = KNOWN_MULTIPLIER_DEGREES.get(name)
    degree = tuple(sum(e * gens[g].degree[k] for g, e in term.powers) for k in (0, 1))
    if known is not None and degree not in ((0, 0), known):
        raise ParseError(
            lineno,
            col,
            f"span term {monomial_string(term.powers)} has degree {degree},"
            f" but its action name {name} is that of the multiplier of degree {known}",
        )


@lru_cache(maxsize=CACHE_SIZE)
def _span_steps(pres):
    """(p-exponent, exponent vector, degree, action name) of each span term, in span order."""
    out = []
    for term in pres.spans:
        vec = _vector(pres, term.powers)
        out.append((term.vexp, vec, _degree_of(pres, vec), _action_name(pres.prime, term)))
    return tuple(out)


@lru_cache(maxsize=CACHE_SIZE)
def span_actions(pres):
    """{action name: degree} of the span terms of nonzero degree, in span order.

    These are the multipliers expand gives its module, known before
    expanding.  The dict is cached and shared: never mutate it.
    """
    return {name: degree for _, _, degree, name in _span_steps(pres) if degree != (0, 0)}


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


@lru_cache(maxsize=CACHE_SIZE)
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
    vecs = [vec for _, vec, _, _ in _span_steps(pres)]
    degrees = [degree for _, _, degree, _ in _span_steps(pres)]
    needs = [need for vexp, need in _killers(pres) if vexp == 0]
    for size in (1, 2, 3):
        for support in combinations(range(len(vecs)), size):
            weights = _balance([degrees[k] for k in support])
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


def cell_budget(budget):
    """The budget of monomials of one expansion, and the hint its BudgetError ends with.

    An explicit budget must be an integer of at least 1; a bool is not
    one.  None takes FRACTURE_CELL_BUDGET, else DEFAULT_CELL_BUDGET, by
    the same rule, and the hint then names the variable.  Anything else
    is refused with a ValueError naming the value and where it came from.
    """
    name, shown, hint = "budget", budget, ""
    if budget is None:
        name, shown = BUDGET_ENV_VAR, os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_CELL_BUDGET))
        budget = int(shown) if shown.strip().isdecimal() else None
        hint = f"; raise {BUDGET_ENV_VAR} if the window really is this dense"
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {shown!r}")
    return budget, hint


@lru_cache(maxsize=CACHE_SIZE)
def unit_lattice(pres):
    """The lattice of degrees by which the units of pres translate its expansion, in Hermite normal form.

    A unit is a span term x of scalar 1 and nonzero degree whose inverse
    x^-1 is a span term too; every localized presentation holds such a
    pair.  Returns ((a, b, vec), (0, c, vec')), a basis of the lattice the
    units' degrees span, each row with the exponent vector of a product of
    units of that degree: a >= 0, and b = 0 when a = 0; c >= 0, and
    0 <= b < c when c > 0.  A zero row has the zero vector, so the
    trivial lattice is two zero rows.
    """
    scalar_one = {vec for vexp, vec, _, _ in _span_steps(pres) if not vexp}
    rows = [
        (deg.i, deg.j, vec)
        for vexp, vec, deg, _ in _span_steps(pres)
        if not vexp and deg != (0, 0) and tuple(-e for e in vec) in scalar_one
    ]

    def minus(x, y, q):
        return x[0] - q * y[0], x[1] - q * y[1], tuple(s - q * t for s, t in zip(x[2], y[2]))

    zero = (0, 0, (0,) * len(pres.generators))
    basis = []
    for axis in (0, 1):
        # Euclid on this coordinate; the rows it clears go on to the next
        pivot, rest = zero, []
        for row in rows:
            while row[axis]:
                pivot, row = row, minus(pivot, row, pivot[axis] // row[axis])
            rest.append(row)
        basis.append(minus(zero, pivot, 1) if pivot[axis] < 0 else pivot)
        rows = rest
    first, second = basis
    if second[1]:
        first = minus(first, second, first[1] // second[1])
    return first, second


def _representatives(lattice, window):
    """A box of degrees near the origin holding one of each class modulo the lattice that meets window.

    No two degrees of the box differ by a lattice vector.  Along i the box
    holds at most a consecutive columns from imin mod a; the rows then
    cover every j - m*b of the window's cells, m counting the steps of a
    back to those columns; along j the box holds at most c consecutive
    rows.  A zero step leaves its axis as the window has it.
    """
    (a, b, _), (_, c, _) = lattice
    imin, imax, jmin, jmax = window
    if a:
        lo = imin % a
        hi = lo + min(imax - imin, a - 1)
        shifts = (b * ((imin - hi) // a), b * ((imax - lo) // a))
        imin, imax, jmin, jmax = lo, hi, jmin - max(shifts), jmax - min(shifts)
    if c:
        lo = jmin % c
        jmin, jmax = lo, lo + min(jmax - jmin, c - 1)
    return Window(imin, imax, jmin, jmax)


def _steps(lo, hi, x, step):
    """The k with lo <= x + k*step <= hi, for step > 0, as a range."""
    return range(-((x - lo) // step), (hi - x) // step + 1)


def _translates(lattice, r, window):
    """[(m, range of n)]: the cells r + m*(a, b) + n*(0, c) that lie in the window.

    Counting them needs no cell: each run of n is a range.
    """
    (a, b, _), (_, c, _) = lattice
    i, j = r
    ms = _steps(window.imin, window.imax, i, a) if a else range(window.imin <= i <= window.imax)
    out = []
    for m in ms:
        jm = j + m * b
        out.append((m, _steps(window.jmin, window.jmax, jm, c) if c else range(window.jmin <= jm <= window.jmax)))
    return out


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
    module's multiplier actions; only those maps are built, each distinct
    one validated once (shared_phom) and shared among its cells.  The
    parts are already in BigradedModule's form (nonzero cells in the
    window, actions between two of them), so the module is built by
    trusted_module.

    Only one period of the expansion is searched; the rest is translated.
    Multiplying by a unit u (a span term of scalar 1 whose inverse is a
    span term too, see unit_lattice) maps the monomials of degree d one to
    one onto those of d + deg u: m is reachable exactly when m*u is, as m
    = (m*u)*u^-1, with the same least valuation, and u holds only
    invertible generators, which no relation needs, so m and m*u have the
    same killers.  Adding vec(u) to every exponent vector keeps their
    order, so the cell, the positions and the action matrices at d + deg u
    are those at d.  Each window cell is therefore a translate of one cell
    of a small box of representatives near the origin (_representatives),
    one per class of degrees modulo the unit lattice.  The search runs on
    that box, padded on the axes a translation moves by the multiplier
    degrees so that every action out of a representative is there too;
    each window cell then gets its representative's group and action maps
    (the same objects) and its index entries shifted by the unit's vector.
    A presentation with no unit has the trivial lattice: each cell is its
    own representative and the box is the window.

    The search walks a box around the hull of the padded period and the
    origin, where the empty product starts.  Its collar is 2*s_i + 2
    columns wide and 2*s_j + 2 rows tall, for s_i and s_j the largest |i|
    and |j| of a span step.  In the norm max(|i|/s_i, |j|/s_j) every step
    has norm at most 1, and the Steinitz lemma holds in any norm of the
    plane: the steps of a product, with the segment from its end back to
    the origin cut into pieces of norm at most 1, can be ordered so that
    every partial sum has norm at most 2.  Drop the pieces again: the
    factors of the product, in that order, keep every partial product
    within norm 2 of the segment from the origin to its degree, that is
    within 2*s_i columns and 2*s_j rows of the hull.  Reordering factors
    keeps the product and its valuation, so nothing reachable in the box
    is missed.  When s_i = 0 every partial product has i = 0, inside the
    hull, and likewise for s_j.  What a cell holds therefore does not
    depend on the window around it: the expansion on a subwindow R of W
    equals the expansion on W restricted to R, which is what lets realize
    expand its corners on the window it answers alone.

    Valuations are small naturals, so the search goes level by level, a
    level being a valuation: a step of scalar 1 stays on the level, breadth
    first, and settles its target when it first reaches it; a step of
    scalar p^k queues its target for the level k higher.  Each monomial
    is so settled with its least valuation.  Monomials a relation has
    killed are settled but not extended: everything reached through them
    is killed too.

    The budget (see cell_budget) is charged one number: the monomials the
    search settles plus the live monomials the window will hold.  The
    search gives up as soon as it alone is over, and the second part is
    counted from the representatives and the number of their translates
    in the window before any of them is built, so a window that is too
    wide fails fast.
    """
    window = expansion_window(pres, window)
    budget, hint = cell_budget(budget)
    p = pres.prime
    steps = _span_steps(pres)
    killers = _killers(pres)
    if multipliers is None:
        multipliers = span_actions(pres)
    lattice = unit_lattice(pres)
    (a, b, _), (_, c, _) = lattice
    reps = _representatives(lattice, window)

    # The period: the representatives, padded on each axis a translation
    # moves by the degrees of the actions out of them.
    dis = [0, *(deg[0] for deg in multipliers.values())] if a else [0]
    djs = [0, *(deg[1] for deg in multipliers.values())] if b or c else [0]
    period = Window(reps.imin + min(dis), reps.imax + max(dis), reps.jmin + min(djs), reps.jmax + max(djs))

    # Bounding box: hull of the period and origin, plus the per-axis
    # Steinitz collar, inside which some ordering of any product stays the
    # whole way.
    collar_i = 2 * max((abs(deg.i) for _, _, deg, _ in steps), default=0) + 2
    collar_j = 2 * max((abs(deg.j) for _, _, deg, _ in steps), default=0) + 2
    imin, imax = min(0, period.imin) - collar_i, max(0, period.imax) + collar_i
    jmin, jmax = min(0, period.jmin) - collar_j, max(0, period.jmax) + collar_j
    moves = [(vexp, vec, deg.i, deg.j) for vexp, vec, deg, _ in steps]

    # Degrees ride along as plain ints.  levels maps a valuation to the
    # monomials queued for it, unsettled; the level's queue holds its
    # settled ones and grows while it is walked.  The ones inside the
    # period are grouped by bidegree as they settle: the reachable
    # monomials that survive their relations.  A dead monomial (valuation
    # at least its order exponent) is not extended: span steps only add
    # powers of the generators a relation needs and never lower the
    # valuation, so whatever it leads to is dead as well, and the live
    # monomials keep their valuations.
    settled = set()
    per_degree = {}
    levels = {}
    for vexp, vec, i, j in moves:
        if imin <= i <= imax and jmin <= j <= jmax:
            levels.setdefault(vexp, []).append((vec, i, j))
    visited = 0
    while levels:
        val = min(levels)
        queue = []
        for item in levels.pop(val):
            if item[0] not in settled:
                settled.add(item[0])
                queue.append(item)
        for vec, i, j in queue:
            visited += 1
            if visited > budget:
                raise BudgetError(f"expansion exceeded the budget of {budget} monomials{hint}")
            e = _order_exponent(killers, vec)
            if e is not None and val >= e:
                continue
            if period.imin <= i <= period.imax and period.jmin <= j <= period.jmax:
                per_degree.setdefault(BiDegree(i, j), []).append((vec, val, e))
            for vexp, svec, si, sj in moves:
                ni, nj = i + si, j + sj
                if not (imin <= ni <= imax and jmin <= nj <= jmax):
                    continue
                nvec = tuple(map(add, vec, svec))
                if nvec in settled:
                    continue
                if vexp:
                    levels.setdefault(val + vexp, []).append((nvec, ni, nj))
                else:
                    settled.add(nvec)
                    queue.append((nvec, ni, nj))

    cells = {}
    index = {}
    for deg, gens_here in per_degree.items():
        gens_here.sort(key=lambda g: (0, 0, g[0]) if g[2] is None else (1, -(g[2] - g[1]), g[0]))
        rank = sum(1 for _, _, e in gens_here if e is None)
        torsion = tuple(e - v for _, v, e in gens_here if e is not None)
        cells[deg] = PGroup(p, rank, torsion)
        index[deg] = {vec: (pos, v) for pos, (vec, v, _) in enumerate(gens_here)}

    actions = {}
    for vexp, svec, sdeg, name in steps:
        if name not in multipliers:
            continue
        for deg, src in index.items():
            tgt_deg = deg + sdeg
            tgt = index.get(tgt_deg)
            if tgt is None or not reps.contains(deg):
                continue
            rows = [[0] * len(src) for _ in tgt]
            for vec, (col, v) in src.items():
                hit = tgt.get(tuple(map(add, vec, svec)))
                if hit is None:
                    continue
                r, v_tgt = hit
                rows[r][col] = p ** (vexp + v - v_tgt)
            actions[(name, deg)] = shared_phom(cells[deg], cells[tgt_deg], tuple(map(tuple, rows)))

    translates = {r: _translates(lattice, r, window) for r in index if reps.contains(r)}
    materialized = sum(len(index[r]) * sum(len(ns) for _, ns in runs) for r, runs in translates.items())
    if visited + materialized > budget:
        raise BudgetError(f"expansion exceeded the budget of {budget} monomials{hint}")

    mults = {name: BiDegree(*deg) for name, deg in multipliers.items()}
    out_cells, out_index, out_actions = {}, {}, {}
    (_, _, vec_m), (_, _, vec_n) = lattice
    wimin, wimax, wjmin, wjmax = window
    for r, runs in translates.items():
        group, entries = cells[r], index[r]
        outgoing = [(name, di, dj, actions[(name, r)]) for name, (di, dj) in mults.items() if (name, r) in actions]
        # the runs go through consecutive m; shift is the exponent vector of the unit
        base = None
        for m, ns in runs:
            base = tuple(m * x for x in vec_m) if base is None else tuple(map(add, base, vec_m))
            i, jm = r[0] + m * a, r[1] + m * b
            shift = tuple(x + ns.start * y for x, y in zip(base, vec_n)) if ns.start else base
            for n in ns:
                j = jm + n * c
                d = BiDegree(i, j)
                out_cells[d] = group
                if m or n:
                    out_index[d] = {tuple(map(add, vec, shift)): entry for vec, entry in entries.items()}
                else:
                    out_index[d] = entries
                for name, di, dj, f in outgoing:
                    if wimin <= i + di <= wimax and wjmin <= j + dj <= wjmax:
                        out_actions[(name, d)] = f
                shift = tuple(map(add, shift, vec_n))
    return trusted_module(p, window, out_cells, out_actions, mults, (), ()), out_index
