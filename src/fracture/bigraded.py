"""Bigraded modules over the p-adic valuation ring.

A cell of a bigraded module is a finitely generated module over the
p-local integers: a free part plus cyclic p-power torsion.  Cells live on
a closed rectangular window of bidegrees; absent bidegrees are zero.
Multiplier actions (rho, tau powers, v1, ...) are stored as integer
matrices between cells.  Everything is exact: entries are Python ints and
torsion is tracked by valuation exponents, never by truncation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .matrices import identity, mat_add, mat_mul, mat_neg, zeros

FLAG_VERIFIED = "verified"
FLAG_BOUNDARY = "boundary-unverified"
FLAGS = (FLAG_VERIFIED, FLAG_BOUNDARY)

# Degrees fixed per multiplier name.  rho/a raise the cone degree, tau/u
# powers move weight, v1 is the Bott-flavored class of degree (2, 1).
KNOWN_MULTIPLIER_DEGREES = {
    "rho": (-1, -1),
    "a": (-1, -1),
    "tau": (0, -1),
    "u": (0, -1),
    "tau2": (0, -2),
    "u2": (0, -2),
    "tau4": (0, -4),
    "v1": (2, 1),
}


class BiDegree(NamedTuple):
    i: int
    j: int

    def __add__(self, other):
        return BiDegree(self.i + other[0], self.j + other[1])

    def __sub__(self, other):
        return BiDegree(self.i - other[0], self.j - other[1])

    def scaled(self, k):
        return BiDegree(k * self.i, k * self.j)


class Multiplier(NamedTuple):
    name: str
    degree: BiDegree


def multiplier(name, degree=None):
    """Resolve a multiplier by name, checking the fixed degree table.

    >>> multiplier("rho").degree
    BiDegree(i=-1, j=-1)
    """
    if isinstance(name, Multiplier):
        mult = name
    else:
        if degree is None:
            degree = KNOWN_MULTIPLIER_DEGREES.get(name)
            if degree is None:
                raise ValueError(f"multiplier {name!r} has no known degree")
        mult = Multiplier(name, BiDegree(*degree))
    known = KNOWN_MULTIPLIER_DEGREES.get(mult.name)
    if known is not None and tuple(mult.degree) != known:
        raise ValueError(f"multiplier {mult.name!r} must have degree {known}, got {tuple(mult.degree)}")
    return mult


class Window(NamedTuple):
    imin: int
    imax: int
    jmin: int
    jmax: int

    def contains(self, d):
        return self.imin <= d[0] <= self.imax and self.jmin <= d[1] <= self.jmax

    def cells(self):
        for i in range(self.imin, self.imax + 1):
            for j in range(self.jmin, self.jmax + 1):
                yield BiDegree(i, j)

    @property
    def width(self):
        return self.imax - self.imin

    @property
    def height(self):
        return self.jmax - self.jmin

    def check(self):
        if self.imin > self.imax or self.jmin > self.jmax:
            raise ValueError(f"empty window {self}")


# Miller-Rabin on the first thirteen prime bases is exact below this bound
# (Sorenson and Webster, 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def _is_prime(p):
    """Deterministic Miller-Rabin, memoized: every PGroup construction asks.

    Raises ValueError at or above PRIME_TEST_BOUND, where these bases no
    longer decide primality.
    """
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"{p} is not below {PRIME_TEST_BOUND}, the bound of the exact primality test")
    if p < 2:
        return False
    for a in PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PGroup:
    """Finitely generated module over Z_(p): free rank plus p-power torsion.

    Generators are ordered free-first, then torsion in nonincreasing
    exponent order.  Labels are advisory generator names.

    >>> G = PGroup(2, 1, (2, 1))
    >>> str(G)
    'Z2 + Z/4 + Z/2'
    >>> G.exponents()
    (None, 2, 1)
    """

    __slots__ = ("prime", "rank", "torsion", "labels")

    def __init__(self, prime, rank, torsion=(), labels=None):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        torsion = tuple(int(e) for e in torsion)
        if rank < 0:
            raise ValueError("negative rank")
        if any(e < 1 for e in torsion):
            raise ValueError(f"torsion exponents must be >= 1: {torsion}")
        if any(a < b for a, b in zip(torsion, torsion[1:])):
            raise ValueError(f"torsion exponents must be nonincreasing: {torsion}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != rank + len(torsion):
                raise ValueError("label count does not match generator count")
        self.prime = prime
        self.rank = rank
        self.torsion = torsion
        self.labels = labels

    @property
    def ngens(self):
        return self.rank + len(self.torsion)

    def exponents(self):
        """Order exponent per generator; None stands for a free generator."""
        return (None,) * self.rank + self.torsion

    def is_zero(self):
        return self.ngens == 0

    def order(self):
        """Total order, or None when the group is infinite."""
        if self.rank:
            return None
        n = 1
        for e in self.torsion:
            n *= self.prime ** e
        return n

    def __eq__(self, other):
        return (
            isinstance(other, PGroup)
            and self.prime == other.prime
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.prime, self.rank, self.torsion))

    def __str__(self):
        parts = [f"Z{self.prime}"] * self.rank
        parts += [f"Z/{self.prime ** e}" for e in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PGroup({self.prime}, {self.rank}, {self.torsion})"


_ZERO_GROUPS = {}


def zero_group(p):
    """The zero group at p, one shared instance per prime."""
    g = _ZERO_GROUPS.get(p)
    if g is None:
        g = _ZERO_GROUPS[p] = PGroup(p, 0, ())
    return g


_ZERO_HOMS = {}


def zero_hom(p):
    """The map of the zero group at p to itself, one shared instance per prime."""
    f = _ZERO_HOMS.get(p)
    if f is None:
        g = zero_group(p)
        f = _ZERO_HOMS[p] = PHom(g, g, ())
    return f


def _compat_modulus(p, e_src, e_tgt):
    # Hom(Z/p^e, Z/p^f) forces divisibility by p^(f-e); a torsion source
    # admits no nonzero map to a free target at all.
    if e_tgt is None:
        return None if e_src is None else 0
    if e_src is None or e_src >= e_tgt:
        return 1
    return p ** (e_tgt - e_src)


class PHom:
    """Map of PGroups given by an integer matrix (target gens x source gens).

    Entries into a torsion generator of order p^f are classes mod p^f; two
    homs are the same map when they agree modulo those orders.
    """

    __slots__ = ("source", "target", "entries")

    def __init__(self, source, target, entries):
        if source.prime != target.prime:
            raise ValueError("source and target live at different primes")
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if len(entries) != target.ngens or any(len(row) != source.ngens for row in entries):
            raise ValueError(
                f"matrix shape {len(entries)}x{'?' if not entries else len(entries[0])}"
                f" does not match {target.ngens}x{source.ngens}"
            )
        p = source.prime
        src_e = source.exponents()
        tgt_e = target.exponents()
        for t, row in enumerate(entries):
            for s, x in enumerate(row):
                m = _compat_modulus(p, src_e[s], tgt_e[t])
                if m is None:
                    continue
                if m == 0:
                    if x != 0:
                        raise ValueError(f"entry ({t},{s})={x} maps torsion into a free generator")
                elif x % m:
                    raise ValueError(f"entry ({t},{s})={x} violates torsion compatibility mod {m}")
        self.source = source
        self.target = target
        self.entries = entries

    @property
    def prime(self):
        return self.source.prime

    def __matmul__(self, other):
        """Composite self o other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        entries = mat_mul(self.entries, other.entries, self.source.ngens, other.source.ngens)
        return PHom(other.source, self.target, reduce_entries(other.source, self.target, entries))

    def __add__(self, other):
        if other.source != self.source or other.target != self.target:
            raise ValueError("sum mismatch")
        entries = mat_add(self.entries, other.entries) if self.entries else self.entries
        return PHom(self.source, self.target, reduce_entries(self.source, self.target, entries))

    def __neg__(self):
        return PHom(self.source, self.target, mat_neg(self.entries))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        tgt_e = self.target.exponents()
        p = self.prime
        for t, row in enumerate(self.entries):
            for x in row:
                if tgt_e[t] is None:
                    if x != 0:
                        return False
                elif x % p ** tgt_e[t]:
                    return False
        return True

    def same_map(self, other):
        if self.source != other.source or self.target != other.target:
            return False
        return (self + (-other)).is_zero()

    def __repr__(self):
        return f"PHom({self.source!r} -> {self.target!r}, {self.entries})"


def reduce_entries(source, target, entries):
    """Canonical representatives: reduce mod the target order rowwise."""
    p = target.prime
    tgt_e = target.exponents()
    out = []
    for t, row in enumerate(entries):
        if tgt_e[t] is None:
            out.append(tuple(row))
        else:
            m = p ** tgt_e[t]
            out.append(tuple(x % m for x in row))
    return tuple(out)


def phom_zero(source, target):
    return PHom(source, target, zeros(target.ngens, source.ngens))


def phom_identity(group):
    return PHom(group, group, identity(group.ngens))


def phom_scalar(group, n):
    e = group.exponents()
    p = group.prime
    rows = []
    for t in range(group.ngens):
        m = None if e[t] is None else p ** e[t]
        rows.append(tuple((n if m is None else n % m) if s == t else 0 for s in range(group.ngens)))
    return PHom(group, group, rows)


def pgroup_sum(a, b):
    """Direct sum with the four canonical structure maps.

    Returns (sum, incl_a, incl_b, proj_a, proj_b).  Generators are
    reordered so the sum is again free-first with nonincreasing torsion.
    """
    if a.prime != b.prime:
        raise ValueError("direct sum across primes")
    gens = []
    for idx, e in enumerate(a.exponents()):
        label = a.labels[idx] if a.labels else None
        gens.append((e, 0, idx, label))
    for idx, e in enumerate(b.exponents()):
        label = b.labels[idx] if b.labels else None
        gens.append((e, 1, idx, label))
    # stable sort: free generators (None) first, then larger exponents
    gens.sort(key=lambda g: (0, 0) if g[0] is None else (1, -g[0]))
    rank = sum(1 for g in gens if g[0] is None)
    torsion = tuple(g[0] for g in gens if g[0] is not None)
    labels = tuple(g[3] if g[3] is not None else f"g{k}" for k, g in enumerate(gens))
    if a.labels is None and b.labels is None:
        labels = None
    total = PGroup(a.prime, rank, torsion, labels)
    n = total.ngens
    ia = zeros(n, a.ngens)
    ib = zeros(n, b.ngens)
    ia = [list(r) for r in ia]
    ib = [list(r) for r in ib]
    pa = [[0] * n for _ in range(a.ngens)]
    pb = [[0] * n for _ in range(b.ngens)]
    for row, (_, side, idx, _) in enumerate(gens):
        if side == 0:
            ia[row][idx] = 1
            pa[idx][row] = 1
        else:
            ib[row][idx] = 1
            pb[idx][row] = 1
    return (
        total,
        PHom(a, total, ia),
        PHom(b, total, ib),
        PHom(total, a, pa),
        PHom(total, b, pb),
    )


class BigradedModule:
    """Immutable window of PGroup cells with multiplier actions.

    cells: {BiDegree: PGroup}; actions: {(name, BiDegree): PHom} where the
    key degree is the source cell; multipliers: {name: BiDegree} fixing the
    degree of every action name; flags: per-cell verification status.  A
    flag may sit on a zero cell: truncated constructions use that to say
    the zero itself is unverified.  Absent flags mean verified.
    """

    __slots__ = ("prime", "window", "cells", "actions", "multipliers", "flags", "caveats")

    def __init__(self, prime, window, cells, actions=None, multipliers=None, flags=None, caveats=()):
        window = Window(*window)
        window.check()
        self.prime = prime
        self.window = window
        self.cells = {BiDegree(*d): g for d, g in cells.items() if not g.is_zero()}
        self.multipliers = {name: BiDegree(*deg) for name, deg in (multipliers or {}).items()}
        acts = {}
        for (name, d), f in (actions or {}).items():
            d = BiDegree(*d)
            if name not in self.multipliers:
                raise ValueError(f"action {name!r} at {tuple(d)} has no declared multiplier degree")
            if d in self.cells and (d + self.multipliers[name]) in self.cells and not f.is_zero():
                acts[(name, d)] = f
        self.actions = acts
        self.flags = {
            BiDegree(*d): fl
            for d, fl in (flags or {}).items()
            if BiDegree(*d) in self.cells or (window.contains(d) and fl != FLAG_VERIFIED)
        }
        for d in self.cells:
            self.flags.setdefault(d, FLAG_VERIFIED)
        self.caveats = tuple(caveats)

    def cell(self, d):
        g = self.cells.get(tuple(d))
        return zero_group(self.prime) if g is None else g

    def flag(self, d):
        return self.flags.get(tuple(d), FLAG_VERIFIED)

    def nonzero_degrees(self):
        return sorted(self.cells)

    def multiplier(self, name):
        if name in self.multipliers:
            return Multiplier(name, self.multipliers[name])
        return multiplier(name)

    def __repr__(self):
        return f"BigradedModule(p={self.prime}, window={tuple(self.window)}, cells={len(self.cells)})"


def act(module, mult, d):
    """Action of a multiplier out of cell d, as a PHom.

    Absent actions are the zero map; between two zero cells it is the one
    shared zero_hom of the prime.  An integer name like "2" acts as the
    scalar it names (degree (0,0)).  Requesting either endpoint outside the
    window is an error.
    """
    if isinstance(mult, Multiplier):
        name, degree = mult.name, mult.degree
    elif isinstance(mult, str) and (mult.isdigit() or (mult[:1] == "-" and mult[1:].isdigit())):
        name, degree = mult, BiDegree(0, 0)
    else:
        m = module.multiplier(mult)
        name, degree = m.name, m.degree
    d = BiDegree(*d)
    if not module.window.contains(d):
        raise ValueError(f"cell {tuple(d)} is outside the window {tuple(module.window)}")
    target = d + degree
    if not module.window.contains(target):
        raise ValueError(f"action target {tuple(target)} is outside the window {tuple(module.window)}")
    if degree == (0, 0) and name not in module.multipliers:
        return phom_scalar(module.cell(d), int(name))
    stored = module.actions.get((name, d))
    if stored is not None:
        return stored
    src, tgt = module.cell(d), module.cell(target)
    if src.is_zero() and tgt.is_zero():
        return zero_hom(module.prime)
    return phom_zero(src, tgt)


def validate_module(module):
    """All structural invariants; returns a list of violation strings."""
    out = []
    w = module.window
    for d, g in module.cells.items():
        if not w.contains(d):
            out.append(f"cell {tuple(d)}: outside window {tuple(w)}")
        if g.prime != module.prime:
            out.append(f"cell {tuple(d)}: prime {g.prime} != module prime {module.prime}")
        try:
            PGroup(g.prime, g.rank, g.torsion, g.labels)
        except ValueError as exc:
            out.append(f"cell {tuple(d)}: {exc}")
    for name, deg in module.multipliers.items():
        known = KNOWN_MULTIPLIER_DEGREES.get(name)
        if known is not None and tuple(deg) != known:
            out.append(f"multiplier {name}: degree {tuple(deg)} contradicts fixed degree {known}")
        if deg == (0, 0):
            out.append(f"multiplier {name}: degree (0,0) is not allowed")
    for (name, d), f in module.actions.items():
        if name not in module.multipliers:
            out.append(f"action {name} at {tuple(d)}: undeclared multiplier")
            continue
        target = d + module.multipliers[name]
        if not (w.contains(d) and w.contains(target)):
            out.append(f"action {name} at {tuple(d)}: endpoint outside window")
            continue
        if f.source != module.cell(d) or f.target != module.cell(target):
            out.append(f"action {name} at {tuple(d)}: matrix does not match its cells")
    for d, fl in module.flags.items():
        if fl not in FLAGS:
            out.append(f"flag at {tuple(d)}: unknown value {fl!r}")
    names = sorted(module.multipliers)
    for ax in range(len(names)):
        for bx in range(ax + 1, len(names)):
            x, y = names[ax], names[bx]
            dx, dy = module.multipliers[x], module.multipliers[y]
            for d in module.nonzero_degrees():
                end = d + dx + dy
                if not (w.contains(d + dx) and w.contains(d + dy) and w.contains(end)):
                    continue
                xy = act(module, y, d + dx) @ act(module, x, d)
                yx = act(module, x, d + dy) @ act(module, y, d)
                if not xy.same_map(yx):
                    out.append(f"actions {x},{y} at {tuple(d)}: composites differ")
    return out


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
    flags = {}
    for d in set(cells) | set(a.flags) | set(b.flags):
        fl = (a.flag(d), b.flag(d))
        flags[d] = FLAG_BOUNDARY if FLAG_BOUNDARY in fl else FLAG_VERIFIED
    return BigradedModule(
        a.prime, a.window, cells, actions, mults, flags, caveats=tuple(dict.fromkeys(a.caveats + b.caveats))
    )


def restrict(module, window):
    """The same module on a subwindow; actions crossing the edge drop."""
    window = Window(*window)
    window.check()
    cells = {d: g for d, g in module.cells.items() if window.contains(d)}
    actions = {
        (name, d): f
        for (name, d), f in module.actions.items()
        if window.contains(d) and window.contains(d + module.multipliers[name])
    }
    flags = {d: fl for d, fl in module.flags.items() if window.contains(d)}
    return BigradedModule(module.prime, window, cells, actions, module.multipliers, flags, module.caveats)


def cellwise_equal(a, b):
    return not cellwise_diff(a, b)


def cellwise_diff(a, b):
    """Human-readable cell mismatches between two modules."""
    out = []
    for d in sorted(set(a.cells) | set(b.cells)):
        ga, gb = a.cell(d), b.cell(d)
        if ga != gb:
            out.append(f"cell {tuple(d)}: {ga} != {gb}")
    return out
