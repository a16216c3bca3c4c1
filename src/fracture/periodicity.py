"""Self-map degree arithmetic and chart region predicates.

gamma counts the residues 0, 1, 2 and 4 mod 8 among 1..m, four in each
block of eight.  At the prime 2 it controls the weight shift of the
minimal tau-self map on the cofiber of the i-th Euler power: the shift
is 2**gamma(i - 1).  At odd primes the minimal shift is 2 regardless
of i.

region classifies a bidegree (i, j) on the realized charts.  The range
i >= 3j - 5 is where the comparison with the underlying nonequivariant
stem is an isomorphism.  The wedge j - 1 <= i <= 2j is where the
self-map degrees make no periodicity claim; everywhere else, for
i >= 1, region reports the period 2**gamma(i - 1) of the tau self-map
on the cofiber of the i-th Euler power.  That is not a period of the
preset charts.

Only the degrees are tabulated here.  The self maps themselves are
never constructed, and nothing here identifies one choice of map with
another.
"""

from __future__ import annotations

from typing import NamedTuple

from .bigraded import _is_prime

# gamma gains exactly these counts over a partial block of eight; the
# admissible residues within 1..8 are 1, 2, 4 and 8.
_BLOCK_COUNTS = (0, 1, 2, 2, 3, 3, 3, 3)


class RegionVerdict(NamedTuple):
    """Classification of one bidegree.

    period is a positive integer exactly when the cell lies outside the
    nonperiodicity cone and in a positive stem; it is None otherwise.
    """

    in_di_range: bool
    in_nonperiodicity_cone: bool
    period: object


def gamma(m):
    """Count k in 1..m with k mod 8 in {0, 1, 2, 4}.

    >>> gamma(0)
    0
    >>> gamma(4)
    3
    >>> gamma(9)
    5
    """
    if m < 0:
        raise ValueError(f"gamma needs m >= 0, got {m}")
    return 4 * (m // 8) + _BLOCK_COUNTS[m % 8]


def u_period(i):
    """Weight shift of the minimal self map of the i-th Euler cofiber at 2.

    >>> u_period(1)
    1
    >>> u_period(2)
    2
    >>> u_period(9)
    16
    """
    if i < 1:
        raise ValueError(f"u_period needs i >= 1, got {i}")
    return 1 << gamma(i - 1)


def tau_selfmap_degree(i, p):
    """Weight shift of the minimal tau-self map at the prime p.

    At 2 the shift grows with i through gamma; at odd primes every
    cofiber already admits a shift-2 self map.

    >>> tau_selfmap_degree(7, 3)
    2
    >>> tau_selfmap_degree(1, 2)
    1
    >>> tau_selfmap_degree(5, 2)
    8
    """
    if i < 1:
        raise ValueError(f"tau_selfmap_degree needs i >= 1, got {i}")
    if not _is_prime(p):
        raise ValueError(f"tau_selfmap_degree needs a prime, got {p!r}")
    if p == 2:
        return u_period(i)
    return 2


def region(i, j):
    """Classify the bidegree (i, j).

    The period is that of the tau self-map on the cofiber of the i-th
    rho (Euler) power, not a period of the preset charts: HF2_R is 0 at
    (3, 1) but Z/2 at (3, 5).

    >>> region(0, 0).in_di_range
    True
    >>> region(7, 4).in_di_range
    True
    >>> region(5, 3)
    RegionVerdict(in_di_range=True, in_nonperiodicity_cone=True, period=None)
    >>> region(9, 2).period
    16
    """
    cone = j - 1 <= i <= 2 * j
    period = None if cone or i < 1 else u_period(i)
    return RegionVerdict(
        in_di_range=i >= 3 * j - 5,
        in_nonperiodicity_cone=cone,
        period=period,
    )
