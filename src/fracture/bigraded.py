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

    # tuple.__new__ skips the NamedTuple's Python-level __new__: these run
    # for every action the expansion, validate_module and assemble visit
    def __add__(self, other):
        return tuple.__new__(BiDegree, (self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other):
        return tuple.__new__(BiDegree, (self[0] - other[0], self[1] - other[1]))

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

# The bound of every cache of pure exact algebra, each a
# functools.lru_cache of its own.  A realize call needs at most about a
# hundred distinct results of any one function (104 transports on KGL2_R
# at (-40,40)^2), so no cache evicts inside a call, and a long-lived
# process holds at most this many results per function.
CACHE_SIZE = 4096


@lru_cache(maxsize=CACHE_SIZE)
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
    exponent order.  They carry no names: a group is its prime, rank and
    torsion, so equal groups are interchangeable.  A group is immutable,
    and its hash is stored when it is built: groups key the caches.

    >>> G = PGroup(2, 1, (2, 1))
    >>> str(G)
    'Z2 + Z/4 + Z/2'
    >>> G.exponents()
    (None, 2, 1)
    """

    __slots__ = ("prime", "rank", "torsion", "ngens", "_exponents", "_hash")

    def __init__(self, prime, rank, torsion=()):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        torsion = tuple(int(e) for e in torsion)
        if rank < 0:
            raise ValueError("negative rank")
        if any(e < 1 for e in torsion):
            raise ValueError(f"torsion exponents must be >= 1: {torsion}")
        if any(a < b for a, b in zip(torsion, torsion[1:])):
            raise ValueError(f"torsion exponents must be nonincreasing: {torsion}")
        self.prime = prime
        self.rank = rank
        self.torsion = torsion
        self.ngens = rank + len(torsion)
        self._exponents = (None,) * rank + torsion
        self._hash = hash((prime, rank, torsion))

    def exponents(self):
        """Order exponent per generator; None stands for a free generator."""
        return self._exponents

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
        return self is other or (
            isinstance(other, PGroup)
            and self.prime == other.prime
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        parts = [f"Z{self.prime}"] * self.rank
        parts += [f"Z/{self.prime ** e}" for e in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PGroup({self.prime}, {self.rank}, {self.torsion})"


@lru_cache(maxsize=CACHE_SIZE)
def zero_group(p):
    """The zero group at p, one shared instance per prime."""
    return PGroup(p, 0, ())


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

    Entries into a torsion generator of order p^f are classes mod p^f, and
    every PHom stores them reduced into [0, p^f), so each map has exactly
    one matrix: maps are equal, and hash equal, when their groups and
    entries are.

    PHom(...) checks shape and torsion compatibility; use it for every map
    that comes from outside or from fresh arithmetic.  Maps derived from
    valid maps (composites, sums, negations, zero and identity maps) are
    built by _trusted_phom without the checks.

    A map is immutable.  Its hash is computed on first use and kept in a
    slot, which both constructors leave empty: maps key the caches, and a
    key of maps would otherwise hash every matrix again.
    """

    __slots__ = ("source", "target", "entries", "_hash")

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
        self.entries = reduce_entries(target, entries)
        self._hash = None

    @property
    def prime(self):
        return self.source.prime

    def __matmul__(self, other):
        """Composite self o other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        # entry (t, s) sums products divisible by p^(f_t - e_k) * p^(e_k - e_s),
        # so the composite of compatible maps is compatible
        entries = mat_mul(self.entries, other.entries, self.source.ngens, other.source.ngens)
        return _trusted_phom(other.source, self.target, reduce_entries(self.target, entries))

    def __add__(self, other):
        if other.source != self.source or other.target != self.target:
            raise ValueError("sum mismatch")
        entries = mat_add(self.entries, other.entries) if self.entries else self.entries
        return _trusted_phom(self.source, self.target, reduce_entries(self.target, entries))

    def __neg__(self):
        return _trusted_phom(self.source, self.target, reduce_entries(self.target, mat_neg(self.entries)))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PHom)
            and self.entries == other.entries
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.source, self.target, self.entries))
        return h

    def is_zero(self):
        return not any(map(any, self.entries))

    def __repr__(self):
        return f"PHom({self.source!r} -> {self.target!r}, {self.entries})"


def _trusted_phom(source, target, entries):
    """A PHom built without PHom's checks; only for maps valid by construction.

    entries must be a tuple of int tuples of the right shape, compatible
    with the torsion of source and target and reduced mod the target
    orders.  Callers derive them from maps that were already checked, by
    operations that keep compatibility.
    """
    f = object.__new__(PHom)
    f.source = source
    f.target = target
    f.entries = entries
    f._hash = None
    return f


@lru_cache(maxsize=CACHE_SIZE)
def shared_phom(source, target, rows):
    """PHom(source, target, rows), validated once per distinct input; rows is a tuple of tuples.

    An equal request gets the stored map back, so equal maps are one object.
    """
    return PHom(source, target, rows)


def reduce_entries(target, entries):
    """Canonical representatives: reduce mod the target order rowwise."""
    p = target.prime
    out = []
    for e, row in zip(target.exponents(), entries):
        if e is None:
            out.append(tuple(row))
        else:
            m = p ** e
            out.append(tuple(x % m for x in row))
    return tuple(out)


@lru_cache(maxsize=CACHE_SIZE)
def phom_zero(source, target):
    if source.prime != target.prime:
        raise ValueError("source and target live at different primes")
    return _trusted_phom(source, target, zeros(target.ngens, source.ngens))


def phom_identity(group):
    return _trusted_phom(group, group, identity(group.ngens))


def free_first(prime, gens):
    """The PGroup on gens and gens in its generator order: free first, then nonincreasing torsion.

    Each of gens is a tuple led by its order exponent (None for free); the sort is stable.
    """
    gens = sorted(gens, key=lambda g: (0, 0) if g[0] is None else (1, -g[0]))
    torsion = tuple(g[0] for g in gens if g[0] is not None)
    return PGroup(prime, len(gens) - len(torsion), torsion), gens


@lru_cache(maxsize=CACHE_SIZE)
def pgroup_sum(a, b):
    """Direct sum with the four canonical structure maps.

    Returns (sum, incl_a, incl_b, proj_a, proj_b).  Generators are
    reordered so the sum is again free-first with nonincreasing torsion.
    """
    if a.prime != b.prime:
        raise ValueError("direct sum across primes")
    gens = [(e, side, idx) for side, g in enumerate((a, b)) for idx, e in enumerate(g.exponents())]
    total, gens = free_first(a.prime, gens)
    places = ([0] * a.ngens, [0] * b.ngens)
    for row, (_, side, idx) in enumerate(gens):
        places[side][idx] = row
    incl, proj = [], []
    for g, rows in zip((a, b), places):
        incl.append(PHom(g, total, [[int(r == rows[s]) for s in range(g.ngens)] for r in range(total.ngens)]))
        proj.append(PHom(total, g, [[int(c == rows[t]) for c in range(total.ngens)] for t in range(g.ngens)]))
    return (total, *incl, *proj)


def sum_map(source, target, blocks):
    """The sum of into @ f @ out_of over blocks (f, into, out_of), built by index placement.

    into and out_of are structure maps of direct sums (pgroup_sum), or
    None for the identity.  f's entries are placed at the generator
    positions they pick instead of being composed; a block must land on
    generators of its own orders (checked), so the map is valid.
    """
    src_e, tgt_e = source.exponents(), target.exponents()
    entries = [[0] * source.ngens for _ in range(target.ngens)]
    for f, into, out_of in blocks:
        rows = range(f.target.ngens) if into is None else [col.index(1) for col in zip(*into.entries)]
        cols = range(f.source.ngens) if out_of is None else [row.index(1) for row in out_of.entries]
        lands = tuple(tgt_e[r] for r in rows), tuple(src_e[c] for c in cols)
        if lands != (f.target.exponents(), f.source.exponents()):
            raise ValueError("a block lands on generators of other orders")
        for r, row in zip(rows, f.entries):
            out = entries[r]
            for c, x in zip(cols, row):
                out[c] += x
    return _trusted_phom(source, target, reduce_entries(target, entries))


class BigradedModule:
    """Immutable window of PGroup cells with multiplier actions.

    cells: {BiDegree: PGroup}; actions: {(name, BiDegree): PHom} where the
    key degree is the source cell; multipliers: {name: BiDegree} fixing the
    degree of every action name; unverified: the frozenset of window
    degrees, zero cells included, whose value a truncated construction
    could not certify.  Every other cell is verified.
    """

    __slots__ = ("prime", "window", "cells", "actions", "multipliers", "unverified", "caveats")

    def __init__(self, prime, window, cells, actions=None, multipliers=None, unverified=(), caveats=()):
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
        self.unverified = frozenset(BiDegree(*d) for d in unverified if window.contains(d))
        self.caveats = tuple(caveats)

    def cell(self, d):
        """The group at d, a BiDegree or any pair of ints; zero where no cell is stored."""
        try:
            g = self.cells.get(d)
        except TypeError:  # an unhashable pair, such as a list
            g = self.cells.get(tuple(d))
        return zero_group(self.prime) if g is None else g

    def multiplier(self, name):
        if name in self.multipliers:
            return Multiplier(name, self.multipliers[name])
        return multiplier(name)

    def __repr__(self):
        return f"BigradedModule(p={self.prime}, window={tuple(self.window)}, cells={len(self.cells)})"


def act(module, mult, d):
    """Action of a multiplier out of cell d, as a PHom.

    Absent actions are the zero map, one shared instance per pair of
    cells (phom_zero).  Requesting either endpoint outside the window is
    an error.
    """
    m = mult if isinstance(mult, Multiplier) else module.multiplier(mult)
    name, degree = m.name, m.degree
    d = BiDegree(*d)
    if not module.window.contains(d):
        raise ValueError(f"cell {tuple(d)} is outside the window {tuple(module.window)}")
    target = d + degree
    if not module.window.contains(target):
        raise ValueError(f"action target {tuple(target)} is outside the window {tuple(module.window)}")
    stored = module.actions.get((name, d))
    if stored is not None:
        return stored
    return phom_zero(module.cell(d), module.cell(target))


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
            PGroup(g.prime, g.rank, g.torsion)
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
    names = sorted(module.multipliers)
    for ax in range(len(names)):
        for bx in range(ax + 1, len(names)):
            x, y = names[ax], names[bx]
            dx, dy = module.multipliers[x], module.multipliers[y]
            for d in sorted(module.cells):
                end = d + dx + dy
                if not (w.contains(d + dx) and w.contains(d + dy) and w.contains(end)):
                    continue
                xy = act(module, y, d + dx) @ act(module, x, d)
                yx = act(module, x, d + dy) @ act(module, y, d)
                if xy != yx:
                    out.append(f"actions {x},{y} at {tuple(d)}: composites differ")
    return out


def trusted_module(prime, window, cells, actions, multipliers, unverified, caveats):
    """A BigradedModule built without BigradedModule.__init__; only for parts already in its form.

    window must be a checked Window, cells a dict of nonzero groups keyed by
    BiDegree inside it, multipliers a dict of BiDegree, and actions nonzero
    maps keyed by (declared name, BiDegree) between two of the cells; the
    dicts become the module's own.  Only unverified is cut to the window.
    """
    out = object.__new__(BigradedModule)
    out.prime = prime
    out.window = window
    out.cells = cells
    out.actions = actions
    out.multipliers = multipliers
    out.unverified = frozenset(filter(window.contains, unverified))
    out.caveats = tuple(caveats)
    return out


def restrict(module, window):
    """The same module on a subwindow; actions crossing the edge drop.

    The module's cells, actions and unverified cells are already in the form
    BigradedModule.__init__ leaves them, and a subwindow of that form keeps
    it, so the result is assembled by trusted_module.
    """
    window = Window(*window)
    window.check()
    mults = module.multipliers
    return trusted_module(
        module.prime,
        window,
        {d: g for d, g in module.cells.items() if window.contains(d)},
        {
            (name, d): f
            for (name, d), f in module.actions.items()
            if window.contains(d) and window.contains(d + mults[name])
        },
        dict(mults),
        module.unverified,
        module.caveats,
    )
