"""Small exact integer matrices.

Matrices are tuples of row tuples with Python int entries, so every
operation is arbitrary precision.  A matrix with zero rows is (), and a
matrix with zero columns is a tuple of empty rows; helpers take explicit
dimensions where they cannot be inferred from such degenerate shapes.
"""

from __future__ import annotations


def zeros(m, n):
    return tuple((0,) * n for _ in range(m))


def identity(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a, b, inner, cols):
    """Product a @ b where a is m x inner and b is inner x cols."""
    if inner and len(b) != inner:
        raise ValueError(f"inner dimension {inner} does not match {len(b)} rows")
    rows = []
    for arow in a:
        if len(arow) != inner:
            raise ValueError(f"row of length {len(arow)} does not match inner dimension {inner}")
        rows.append(tuple(sum(arow[k] * b[k][c] for k in range(inner)) for c in range(cols)))
    return tuple(rows)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def hstack(a, b, m):
    """Concatenate columns; both blocks must have m rows."""
    if not m:
        return ()
    if not a:
        a = ((),) * m
    if not b:
        b = ((),) * m
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, b))


def column(a, c):
    return tuple(row[c] for row in a)


def from_columns(cols, m):
    if not cols:
        return tuple(() for _ in range(m))
    return tuple(tuple(col[r] for col in cols) for r in range(m))
