"""Smith normal form engine against independent oracles.

The oracles recompute everything from first principles: diagonal
valuations from gcds of k x k minors, kernel and cokernel sizes by
enumerating finite groups element by element.  Randomness is seeded, so
failures reproduce.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture.bigraded import PGroup, PHom, phom_identity, phom_zero, zero_group
from fracture.matrices import column, identity, mat_mul
from fracture.snf import (
    CertificateError,
    SnfResult,
    cokernel,
    invert_iso,
    is_isomorphism,
    kernel,
    smith_normal_form,
    solve_hom,
    span_contains,
    span_equal,
    subgroup,
    valuation,
)

from helpers import phom_scalar


def _det(a: list[list[int]]) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for c in range(n):
        if a[0][c] == 0:
            continue
        minor = [[row[j] for j in range(n) if j != c] for row in a[1:]]
        total += (-1) ** c * a[0][c] * _det(minor)
    return total


def _minor_gcd_valuations(a, p: int, rows: int, cols: int):
    """Oracle: v_1 + ... + v_k equals the valuation of the k x k minor gcd."""
    out = []
    prev = 0
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                sub = [[a[r][c] for c in cs] for r in rs]
                g = math.gcd(g, _det(sub))
        if g == 0:
            out.extend([None] * (min(rows, cols) - len(out)))
            break
        v = valuation(g, p)
        out.append(v - prev)
        prev = v
    return tuple(out)


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 16):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))


def _random_finite_group(rng: random.Random, p: int) -> PGroup:
    n = rng.randint(0, 3 if p == 2 else 2)
    exps = sorted((rng.randint(1, 3 if p == 2 else 2) for _ in range(n)), reverse=True)
    return PGroup(p, 0, tuple(exps))


def _random_hom(rng: random.Random, source: PGroup, target: PGroup) -> PHom:
    p = source.prime
    rows = []
    for f in target.exponents():
        row = []
        for e in source.exponents():
            if f is None and e is not None:
                row.append(0)
                continue
            step = 1 if (f is None or e is None or e >= f) else p ** (f - e)
            row.append(step * rng.randint(-8, 8))
        rows.append(tuple(row))
    return PHom(source, target, tuple(rows))


def _elements(group: PGroup):
    assert group.rank == 0
    p = group.prime
    return itertools.product(*(range(p ** e) for e in group.torsion))


def _apply(f: PHom, x) -> tuple:
    p = f.prime
    out = []
    for row, e in zip(f.entries, f.target.exponents()):
        val = sum(a * b for a, b in zip(row, x))
        out.append(val % p ** e)
    return tuple(out)


def test_spec_matrix_valuations() -> None:
    r = smith_normal_form(((2, 1), (4, 3)), 2)
    assert r.valuations == (0, 1)


def test_snf_exact_identities() -> None:
    rng = random.Random(11)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 3)]
    for p in (2, 3, 5):
        for rows, cols in shapes:
            a = _random_matrix(rng, rows, cols)
            r = smith_normal_form(a, p, rows, cols)
            d = mat_mul(mat_mul(r.U, a, rows, cols), r.V, cols, cols)
            for i in range(rows):
                for j in range(cols):
                    if i == j and i < len(r.diag):
                        assert d[i][j] == r.diag[i]
                    else:
                        assert d[i][j] == 0
            assert mat_mul(r.U, r.U_inv, rows, rows) == identity(rows)
            assert r.certify(a)
            vals = [v for v in r.valuations if v is not None]
            assert vals == sorted(vals)
            free_seen = False
            for v in r.valuations:
                if v is None:
                    free_seen = True
                else:
                    assert not free_seen, "zero diagonal entry before a nonzero one"


def test_valuations_match_minor_gcds() -> None:
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice((2, 3))
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = _random_matrix(rng, rows, cols)
        r = smith_normal_form(a, p, rows, cols)
        assert r.valuations == _minor_gcd_valuations(a, p, rows, cols)


def test_kernel_of_reduction_is_index_p() -> None:
    red = PHom(PGroup(2, 1, ()), PGroup(2, 0, (1,)), ((1,),))
    g, incl = kernel(red)
    assert g == PGroup(2, 1, ())
    assert incl.entries == ((2,),)


def test_kernel_of_difference_map() -> None:
    source = PGroup(2, 1, (1,))
    f = PHom(source, PGroup(2, 0, (1,)), ((1, 1),))
    g, incl = kernel(f)
    assert g == PGroup(2, 1, ())
    assert incl.entries == ((1,), (1,))
    assert (f @ incl).is_zero()


def test_kernel_and_cokernel_with_free_parts() -> None:
    z2 = PGroup(2, 1, ())
    double = phom_scalar(z2, 2)
    g, _ = kernel(double)
    assert g.is_zero()
    c, proj, section = cokernel(double)
    assert c == PGroup(2, 0, (1,))
    assert proj.entries == ((1,),)

    null = PHom(z2, z2, ((0,),))
    g, incl = kernel(null)
    assert g == z2 and incl.entries == ((1,),)
    c, _, _ = cokernel(null)
    assert c == z2

    two_three = PHom(z2, z2, ((6,),))
    c, _, _ = cokernel(two_three)
    assert c == PGroup(2, 0, (1,)), "the prime-to-p factor is a unit"


def test_kernel_cokernel_against_enumeration() -> None:
    rng = random.Random(47)
    for _ in range(120):
        p = rng.choice((2, 3))
        a = _random_finite_group(rng, p)
        b = _random_finite_group(rng, p)
        f = _random_hom(rng, a, b)

        kernel_set = {x for x in _elements(a) if _apply(f, x) == (0,) * b.ngens}
        image_set = {_apply(f, x) for x in _elements(a)}

        g, incl = kernel(f)
        assert (f @ incl).is_zero()
        assert g.order() == len(kernel_set)
        hit = {_apply(incl, x) for x in _elements(g)}
        assert len(hit) == g.order(), "kernel generators overlap"
        assert hit <= kernel_set

        c, proj, section = cokernel(f)
        assert (proj @ f).is_zero()
        assert c.order() * len(image_set) == b.order()
        onto = {_apply(proj, x) for x in _elements(b)}
        assert len(onto) == c.order(), "projection is not surjective"
        composed = mat_mul(proj.entries, section, b.ngens, c.ngens)
        for r in range(c.ngens):
            for s in range(c.ngens):
                want = 1 if r == s else 0
                assert (composed[r][s] - want) % p ** c.exponents()[r] == 0


@st.composite
def finite_groups(draw, p):
    torsion = draw(st.lists(st.integers(1, 2), max_size=3 if p == 2 else 2))
    return PGroup(p, 0, tuple(sorted(torsion, reverse=True)))


@st.composite
def finite_homs(draw, source, target):
    p = source.prime
    rows = []
    for f in target.exponents():
        steps = [p ** (f - e) if e < f else 1 for e in source.exponents()]
        rows.append([step * draw(st.integers(-8, 8)) for step in steps])
    return PHom(source, target, rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kernel_cokernel_and_solve_against_enumeration(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b, c = (data.draw(finite_groups(p)) for _ in range(3))
    f = data.draw(finite_homs(a, b))
    images = [_apply(f, x) for x in _elements(a)]
    assert kernel(f)[0].order() == sum(1 for y in images if not any(y))
    assert cokernel(f)[0].order() * len(set(images)) == b.order()
    h0 = data.draw(finite_homs(c, a))
    h = solve_hom(f, f @ h0)
    assert h is not None
    assert all(_apply(f, _apply(h, x)) == _apply(f, _apply(h0, x)) for x in _elements(c))


def test_image_subgroup() -> None:
    z2 = PGroup(2, 1, ())
    g, incl = subgroup(z2, [column(phom_scalar(z2, 4).entries, 0)])
    assert g == z2
    assert incl.entries == ((4,),)


def test_solve_hom_roundtrip() -> None:
    rng = random.Random(5)
    for _ in range(80):
        p = rng.choice((2, 3))
        a = _random_finite_group(rng, p)
        b = _random_finite_group(rng, p)
        c = _random_finite_group(rng, p)
        f = _random_hom(rng, a, b)
        h = _random_hom(rng, c, a)
        g = f @ h
        h2 = solve_hom(f, g)
        assert h2 is not None
        assert f @ h2 == g


def test_solve_hom_detects_unsolvable() -> None:
    z4 = PGroup(2, 0, (2,))
    times_two = phom_scalar(z4, 2)
    assert solve_hom(times_two, phom_identity(z4)) is None


def test_isomorphism_detection_and_inverse() -> None:
    g = PGroup(2, 0, (2, 1))
    f = PHom(g, g, ((1, 2), (1, 1)))
    assert is_isomorphism(f)
    inv = invert_iso(f)
    assert inv @ f == phom_identity(g)
    assert f @ inv == phom_identity(g)
    assert not is_isomorphism(phom_scalar(g, 2))
    assert not is_isomorphism(phom_zero(g, g))


@st.composite
def maps_between_twins(draw):
    """A random map between a PGroup and an equal group built as a separate object.

    The diagonal is a unit, p or 0, and each entry is scaled by the
    torsion compatibility step, so both verdicts come up often.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    rank = draw(st.integers(0, 2))
    torsion = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=3)), reverse=True))
    n = rank + len(torsion)
    source = PGroup(p, rank, torsion)
    target = PGroup(p, rank, torsion)
    e = source.exponents()
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            if e[r] is None and e[c] is not None:
                row.append(0)
                continue
            step = 1 if e[r] is None or e[c] is None or e[c] >= e[r] else p ** (e[r] - e[c])
            x = draw(st.sampled_from((1, -1, 1 + p, p, 0)) if r == c else st.integers(-3, 3))
            row.append(step * x)
        rows.append(row)
    return PHom(source, target, rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(maps_between_twins())
def test_isomorphism_verdict_matches_kernel_and_cokernel(f) -> None:
    injective = kernel(f)[0].is_zero()
    surjective = cokernel(f)[0].is_zero()
    assert is_isomorphism(f) == (injective and surjective)
    # between isomorphic groups a surjection is injective
    assert injective or not surjective


def test_span_comparisons() -> None:
    amb = PGroup(2, 1, (2,))
    assert span_contains(amb, [(1, 0)], [(2, 0)])
    assert not span_contains(amb, [(2, 0)], [(1, 0)])
    assert span_contains(amb, [(0, 1)], [(0, 3)]), "3 is a 2-adic unit"
    assert span_equal(amb, [(0, 1)], [(0, 3)])
    assert span_equal(amb, [(2, 0), (0, 2)], [(2, 2), (0, 2)])
    assert not span_equal(amb, [(2, 0)], [(4, 0)])
    assert span_contains(zero_group(3), [], [])


def test_trivial_kernel_forces_injectivity_on_enumeration() -> None:
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice((2, 3))
        a = _random_finite_group(rng, p)
        b = _random_finite_group(rng, p)
        f = _random_hom(rng, a, b)
        g, _ = kernel(f)
        injective = len({_apply(f, x) for x in _elements(a)}) == a.order()
        assert g.is_zero() == injective


def test_failed_certificate_raises(monkeypatch) -> None:
    monkeypatch.setattr(SnfResult, "certify", lambda self, a: False)
    with pytest.raises(CertificateError):
        smith_normal_form(((2, 1), (4, 3)), 2)


CERTIFY_UNDER_O = """
from fracture.snf import CertificateError, SnfResult, smith_normal_form
if __debug__:
    raise SystemExit("interpreter is not running with -O")
SnfResult.certify = lambda self, a: False
try:
    smith_normal_form(((2, 1), (4, 3)), 2)
except CertificateError:
    raise SystemExit(0)
raise SystemExit("a failed certificate went unnoticed under -O")
"""


def test_failed_certificate_raises_under_optimize() -> None:
    proc = subprocess.run([sys.executable, "-O", "-c", CERTIFY_UNDER_O], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_mat_mul_rejects_mismatched_shapes() -> None:
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1,),), 2, 1)
    with pytest.raises(ValueError):
        mat_mul(((1,),), ((1,), (2,)), 2, 1)
