"""Smith normal form over the p-adic valuation ring, exactly.

Integers prime to p are units there, so the normal form sorts the
diagonal by p-valuation and the unit parts carry no information.  The
reduction itself is the classical Bezout-step algorithm over Z: every
transform has determinant +-1 and therefore an exact integer inverse,
which the kernel, cokernel and solve machinery depend on.  Pivots are
chosen by minimal p-valuation, ties broken at the lowest row, then the
lowest column, so the diagonal valuations come out nondecreasing.

Zero diagonal entries are exact integer zeros: free summands are never
truncated to a large p-power.

smith_normal_form, kernel, cokernel, solve_hom, is_isomorphism and
invert_iso are pure, and each caches its results (functools.lru_cache,
bounded by bigraded.CACHE_SIZE): a repeated input gets back the result
object its first call computed and certified, so no result is ever
mutated.  A raise stores nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .bigraded import CACHE_SIZE, PGroup, PHom, _compat_modulus, free_first, phom_identity
from .matrices import column, from_columns, hstack, identity, mat_mul

# certify() checks the diagonal modulo p**RESIDUE
RESIDUE = 16


class CertificateError(ValueError):
    """A computed answer failed its own exactness check.

    Raised rather than asserted, so the checks also run under python -O.
    """


def valuation(n, p):
    """p-adic valuation of an integer; None encodes v(0) = infinity.

    >>> valuation(24, 2)
    3
    >>> valuation(0, 7) is None
    True
    """
    if n == 0:
        return None
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _val_key(n, p):
    v = valuation(n, p)
    return float("inf") if v is None else v


def xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class SnfResult:
    """Diagonalization U @ A @ V = diag with det(U), det(V) = +-1.

    valuations lists the p-valuation of each diagonal entry (None for an
    exact zero, i.e. a free direction).  U_inv is the exact integer inverse
    of U.  certify() checks U @ A @ V against the pure p-power diagonal
    modulo p**RESIDUE.
    """

    __slots__ = ("p", "rows", "cols", "diag", "valuations", "U", "V", "U_inv")

    def __init__(self, p, rows, cols, diag, U, V, U_inv):
        self.p = p
        self.rows = rows
        self.cols = cols
        self.diag = tuple(diag)
        self.valuations = tuple(valuation(d, p) for d in diag)
        self.U = U
        self.V = V
        self.U_inv = U_inv

    def certify(self, a):
        """Check U @ a @ V == diag(p^v) modulo p**RESIDUE (exactly off-diagonal)."""
        p = self.p
        d = mat_mul(mat_mul(self.U, a, self.rows, self.cols), self.V, self.cols, self.cols)
        mod = p ** RESIDUE
        for r in range(self.rows):
            for c in range(self.cols):
                if r == c and r < len(self.diag):
                    v = self.valuations[r]
                    entry = d[r][c]
                    if v is None:
                        if entry != 0:
                            return False
                        continue
                    unit = entry // p ** v
                    # scaling the row by the unit inverse realizes the pure
                    # p-power diagonal; verify the congruence it certifies
                    if (pow(unit, -1, mod) * entry - p ** v) % mod:
                        return False
                elif d[r][c] != 0:
                    return False
        return True


@lru_cache(maxsize=CACHE_SIZE)
def smith_normal_form(a, p, rows=None, cols=None):
    """Exact SNF of an integer matrix (a tuple of row tuples), interpreted over Z_(p).

    >>> r = smith_normal_form(((2, 1), (4, 3)), 2)
    >>> r.valuations
    (0, 1)
    """
    if rows is None:
        rows = len(a)
    if cols is None:
        if rows and len(a) != rows:
            raise ValueError("row count mismatch")
        cols = len(a[0]) if a else 0
    A = [list(row) for row in a]
    U = [list(r) for r in identity(rows)]
    Ui = [list(r) for r in identity(rows)]
    V = [list(r) for r in identity(cols)]

    def row_combine(r1, r2, x, y, z, w):
        # rows (r1, r2) <- (x*r1 + y*r2, z*r1 + w*r2), det = x*w - y*z = 1
        for M in (A, U):
            for c in range(len(M[r1])):
                a1, a2 = M[r1][c], M[r2][c]
                M[r1][c] = x * a1 + y * a2
                M[r2][c] = z * a1 + w * a2
        # inverse op on Ui acts by columns: Ui <- Ui @ E^-1, E^-1 = [[w,-y],[-z,x]]
        for row in Ui:
            a1, a2 = row[r1], row[r2]
            row[r1] = w * a1 - z * a2
            row[r2] = -y * a1 + x * a2

    def col_combine(c1, c2, x, y, z, w):
        # columns (c1, c2) <- (x*c1 + y*c2, z*c1 + w*c2)
        for M in (A, V):
            for row in M:
                a1, a2 = row[c1], row[c2]
                row[c1] = x * a1 + y * a2
                row[c2] = z * a1 + w * a2

    def swap_rows(r1, r2):
        if r1 == r2:
            return
        A[r1], A[r2] = A[r2], A[r1]
        U[r1], U[r2] = U[r2], U[r1]
        for row in Ui:
            row[r1], row[r2] = row[r2], row[r1]

    def swap_cols(c1, c2):
        if c1 == c2:
            return
        for row in A:
            row[c1], row[c2] = row[c2], row[c1]
        for row in V:
            row[c1], row[c2] = row[c2], row[c1]

    for k in range(min(rows, cols)):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if A[i][j] == 0:
                    continue
                v = _val_key(A[i][j], p)
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None:
            break
        swap_rows(k, best[1])
        swap_cols(k, best[2])
        while True:
            for i in range(k + 1, rows):
                if A[i][k] == 0:
                    continue
                a0, b0 = A[k][k], A[i][k]
                if b0 % a0 == 0:
                    q = b0 // a0
                    row_combine(k, i, 1, 0, -q, 1)
                else:
                    g, x, y = xgcd(a0, b0)
                    row_combine(k, i, x, y, -(b0 // g), a0 // g)
            if any(A[k][j] for j in range(k + 1, cols)):
                for j in range(k + 1, cols):
                    if A[k][j] == 0:
                        continue
                    a0, b0 = A[k][k], A[k][j]
                    if b0 % a0 == 0:
                        q = b0 // a0
                        col_combine(k, j, 1, 0, -q, 1)
                    else:
                        g, x, y = xgcd(a0, b0)
                        col_combine(k, j, x, y, -(b0 // g), a0 // g)
            # column ops can refill column k only when row k still mixes
            if not any(A[i][k] for i in range(k + 1, rows)) and not any(
                A[k][j] for j in range(k + 1, cols)
            ):
                break

    diag = [A[k][k] for k in range(min(rows, cols))]
    result = SnfResult(
        p,
        rows,
        cols,
        diag,
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in V),
        tuple(tuple(r) for r in Ui),
    )
    if not result.certify(a):
        raise CertificateError(f"Smith normal form of a {rows}x{cols} matrix failed its certificate")
    return result


def kernel_columns(a, p, rows, cols):
    """Integer basis of ker(a) as a list of length-cols columns."""
    snf = smith_normal_form(a, p, rows, cols)
    out = []
    for k in range(cols):
        d = snf.diag[k] if k < len(snf.diag) else 0
        if d == 0:
            out.append(column(snf.V, k))
    return out


def _relation_columns(group):
    """Columns p^e * e_t presenting the torsion of a PGroup."""
    n = group.ngens
    cols = []
    for t, e in enumerate(group.exponents()):
        if e is None:
            continue
        col = [0] * n
        col[t] = group.prime ** e
        cols.append(tuple(col))
    return from_columns(cols, n)


def _presentation_matrix(f):
    """[F | D_target]: working matrix for maps read modulo target torsion."""
    nB = f.target.ngens
    return hstack(f.entries, _relation_columns(f.target), nB)


def solve_columns(a, b_cols, p, rows, cols):
    """Solutions x of a @ x = b over Z_(p), one per column of b.

    Returns None when some column has no p-local solution.  Entries come
    back as exact Fractions whose denominators are prime to p; callers
    reduce them against whatever p-power order the coordinate carries.
    """
    snf = smith_normal_form(a, p, rows, cols)
    xs = []
    for b in b_cols:
        c = [sum(snf.U[r][k] * b[k] for k in range(rows)) for r in range(rows)]
        z = [Fraction(0)] * cols
        ok = True
        for r in range(rows):
            d = snf.diag[r] if r < min(rows, cols) else 0
            if d == 0:
                if c[r] != 0:
                    ok = False
                    break
                continue
            vd = valuation(d, p)
            vc = valuation(c[r], p)
            if vc is not None and vc < vd:
                ok = False
                break
            z[r] = Fraction(c[r], d)
        if not ok:
            return None
        xs.append(tuple(sum(snf.V[r][k] * z[k] for k in range(cols)) for r in range(cols)))
    return xs


def _plocal_residue(x, modulus):
    """Integer representative of a p-locally integral Fraction mod p^f."""
    if x.denominator == 1:
        return x.numerator % modulus
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _unit_normalized(col, p):
    """Strip the prime-to-p content of a generator column.

    Dividing by a unit of Z_(p) does not change the span, and it makes the
    inclusion matrix as p-power-clean as the subgroup allows.
    """
    g = 0
    for x in col:
        g = math.gcd(g, x)
    if g == 0:
        return col
    while g % p == 0:
        g //= p
    lead = next(x for x in col if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in col)


def _sorted_generators(p, ambient, columns, exponents):
    """Free-first, nonincreasing-torsion PGroup on the columns of nonzero order, and its inclusion."""
    nonzero = ((e, _unit_normalized(col, p)) for e, col in zip(exponents, columns) if e != 0)
    group, keep = free_first(p, nonzero)
    cols = [col for _, col in keep]
    incl = PHom(group, ambient, from_columns(cols, ambient.ngens))
    return group, incl


def subgroup(ambient, columns):
    """Structure of the subgroup generated by columns: (group, inclusion).

    columns is a list of length-ngens integer vectors.  The inclusion
    matrix realizes the abstract group on its stated generators.
    """
    p = ambient.prime
    n = ambient.ngens
    k = len(columns)
    if k == 0:
        return PGroup(p, 0, ()), PHom(PGroup(p, 0, ()), ambient, ((),) * n if n else ())
    gmat = from_columns(columns, n)
    lifted = hstack(gmat, _relation_columns(ambient), n)
    rel = [w[:k] for w in kernel_columns(lifted, p, n, k + len(ambient.torsion))]
    relmat = from_columns(rel, k)
    snf = smith_normal_form(relmat, p, k, len(rel))
    # Quotient R^k / im(rel): generator t of the quotient is U^-1 e_t with
    # order the t-th diagonal p-power.
    new_gens = mat_mul(gmat, snf.U_inv, k, k)
    exps = [snf.valuations[t] if t < len(snf.valuations) else None for t in range(k)]
    cols = [column(new_gens, t) for t in range(k)]
    return _sorted_generators(p, ambient, cols, exps)


def span_contains(ambient, outer, inner):
    """Whether every inner column lies in the span of the outer ones."""
    n = ambient.ngens
    lifted = hstack(from_columns(outer, n), _relation_columns(ambient), n)
    width = len(outer) + len(ambient.torsion)
    return solve_columns(lifted, list(inner), ambient.prime, n, width) is not None


def span_equal(ambient, a_cols, b_cols):
    return span_contains(ambient, a_cols, b_cols) and span_contains(ambient, b_cols, a_cols)


@lru_cache(maxsize=CACHE_SIZE)
def kernel(f):
    """Kernel of a PHom as (group, inclusion-into-source).

    >>> from .bigraded import PGroup, PHom
    >>> red = PHom(PGroup(2, 1, ()), PGroup(2, 0, (1,)), ((1,),))
    >>> g, incl = kernel(red)
    >>> (str(g), incl.entries)
    ('Z2', ((2,),))
    """
    nA = f.source.ngens
    lifted = _presentation_matrix(f)
    wide = kernel_columns(lifted, f.prime, f.target.ngens, nA + len(f.target.torsion))
    return subgroup(f.source, [w[:nA] for w in wide])


@lru_cache(maxsize=CACHE_SIZE)
def cokernel(f):
    """Cokernel of a PHom as (group, projection, section).

    The projection is a surjective PHom from the target.  The section is a
    plain integer matrix of representatives (target gens x cokernel gens)
    with proj @ section = identity; it is generally not itself a hom, but
    it is exactly what inducing maps on quotients needs.
    """
    p = f.prime
    nB = f.target.ngens
    lifted = _presentation_matrix(f)
    total_cols = f.source.ngens + len(f.target.torsion)
    snf = smith_normal_form(lifted, p, nB, total_cols)
    kept = []
    for r in range(nB):
        v = snf.valuations[r] if r < len(snf.valuations) else None
        if v == 0:
            continue
        rep = column(snf.U_inv, r)
        row = snf.U[r]
        if next((x for x in rep if x), 1) < 0:
            rep = tuple(-x for x in rep)
            row = tuple(-x for x in row)
        kept.append((v, row, rep))
    group, kept = free_first(p, kept)
    proj_rows = tuple(row for _, row, _ in kept)
    proj = PHom(f.target, group, proj_rows)
    return group, proj, from_columns([rep for _, _, rep in kept], nB)


@lru_cache(maxsize=CACHE_SIZE)
def solve_hom(f, g):
    """h with f o h = g as maps of PGroups, or None; f and g share a target.

    Each column is solved inside the subset of A-vectors a source generator
    of g may legally hit: coordinates are prescaled by the torsion
    compatibility modulus, so the result is a well-defined hom, not just a
    columnwise preimage.  The check of f o h = g runs when an input is
    first solved; a repeated input gets the checked result back.
    """
    if f.target != g.target:
        raise ValueError("solve_hom needs a common target")
    p = f.prime
    nA = f.source.ngens
    nB = f.target.ngens
    src_exps = f.source.exponents()
    rel_cols = _relation_columns(f.target)
    width = nA + len(f.target.torsion)
    columns = []
    for s, e_s in enumerate(g.source.exponents()):
        scales = [_compat_modulus(p, e_s, f_t) for f_t in src_exps]
        factors = [1 if m is None else m for m in scales]
        scaled = tuple(
            tuple(f.entries[r][t] * factors[t] for t in range(nA)) for r in range(nB)
        )
        lifted = hstack(scaled, rel_cols, nB)
        sol = solve_columns(lifted, [column(g.entries, s)], p, nB, width)
        if sol is None:
            return None
        y = sol[0]
        col = []
        for t in range(nA):
            m = scales[t]
            f_t = src_exps[t]
            if m == 0:
                col.append(0)
                continue
            scale = 1 if m is None else m
            if f_t is None:
                if y[t].denominator != 1:
                    return None
                col.append(scale * y[t].numerator)
            else:
                col.append(scale * _plocal_residue(y[t], p ** f_t))
        columns.append(tuple(col))
    entries = from_columns(columns, nA)
    h = PHom(g.source, f.source, entries)
    if f @ h != g:
        raise CertificateError("solve_hom produced h with f o h != g")
    return h


@lru_cache(maxsize=CACHE_SIZE)
def is_isomorphism(f):
    """Whether f is an isomorphism.

    Source and target are isomorphic once their ranks and torsion agree,
    and a surjection between isomorphic finitely generated modules is
    injective (Vasconcelos, 1969), so a zero cokernel decides.
    """
    if f.source.rank != f.target.rank or f.source.torsion != f.target.torsion:
        return False
    return cokernel(f)[0].is_zero()


@lru_cache(maxsize=CACHE_SIZE)
def invert_iso(f):
    """Exact inverse of an isomorphism of PGroups."""
    inv = solve_hom(f, phom_identity(f.target))
    if inv is None:
        raise ValueError("map is not invertible")
    return inv
