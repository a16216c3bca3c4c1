"""The six acceptance gates, one test group per criterion.

Every realized module is compared against an independently written
closed-form reference, exactly and with zero tolerance.  The property
group draws its inputs from seeded generators and asserts its loops ran,
so the checks cannot silently go vacuous if the presets change.
"""

import itertools
import math
import random
import subprocess
import sys
import time

from fracture.assembler import CONTRACT_MESSAGE, corners, odd_split, realize
from fracture.bigraded import (
    BiDegree,
    Multiplier,
    PGroup,
    Window,
    act,
    validate_module,
)
from fracture.localization import invert
from fracture.presentation import BudgetError, expand, localized, parse_presentation, print_presentation, span_actions
from fracture.presets import (
    PRESET_NAMES,
    preset_presentation,
    preset_source,
    reference_realization,
)
from fracture.snf import is_isomorphism, smith_normal_form

from helpers import cellwise_diff, phom_scalar

TIME_BUDGET = 10.0

RHO_INVERTED_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""

_REPORTS = {}


def realized(name: str, prime: int, window: tuple):
    key = (name, prime, window)
    if key not in _REPORTS:
        _REPORTS[key] = realize(name, prime, window)
    return _REPORTS[key]


def test_criterion_1_hf2_reproduction() -> None:
    t0 = time.monotonic()
    window = (-8, 8, -8, 8)
    report = realized("hf2", 2, window)
    reference = reference_realization("hf2", 2, window)
    assert cellwise_diff(report.result, reference) == []
    assert report.result.cell((0, 2)) == PGroup(2, 0, (1,))
    assert report.result.unverified == frozenset()
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_2_hz2_reproduction() -> None:
    t0 = time.monotonic()
    window = (-10, 10, -10, 10)
    report = realized("hz2", 2, window)
    reference = reference_realization("hz2", 2, window)
    assert cellwise_diff(report.result, reference) == []
    result = report.result
    for k in range(6):
        assert result.cell((0, -2 * k)) == PGroup(2, 1)
    for d in ((-1, -1), (-2, -2), (-3, -5)):
        assert result.cell(d) == PGroup(2, 0, (1,))
    for d in ((0, 3), (1, 4), (2, 7)):
        assert result.cell(d) == PGroup(2, 0, (1,))
    box = result.cell((0, 0))
    rho_off_box = act(result, "rho", (0, 0))
    assert not rho_off_box.is_zero()
    assert (rho_off_box @ phom_scalar(box, 2)).is_zero()
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_3_kr2_reproduction() -> None:
    t0 = time.monotonic()
    window = (-10, 10, -10, 10)
    report = realized("kgl2", 2, window)
    reference = reference_realization("kgl2", 2, window)
    assert cellwise_diff(report.result, reference) == []
    result = report.result
    assert tuple(result.multipliers["v1"]) == (2, 1)
    v1_edges = [d for (name, d) in result.actions if name == "v1"]
    assert v1_edges
    assert not act(result, "v1", (0, 0)).is_zero()
    rho = BiDegree(-1, -1)
    checked = 0
    for d in result.window.cells():
        s1, s2, s3 = d + rho, d + rho + rho, d + rho + rho + rho
        end = s3 + BiDegree(2, 1)
        if not all(result.window.contains(x) for x in (s1, s2, s3, end)):
            continue
        composite = (
            act(result, "v1", s3)
            @ act(result, "rho", s2)
            @ act(result, "rho", s1)
            @ act(result, "rho", d)
        )
        assert composite.is_zero()
        checked += 1
    assert checked > 0
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_4_odd_prime_split() -> None:
    t0 = time.monotonic()
    window = (-6, 6, -6, 6)
    geometric, unit = odd_split("hfp_odd", 3, window)
    assert geometric.cells == {}
    reference = reference_realization("hfp_odd", 3, window)
    assert cellwise_diff(unit, reference) == []
    report = realized("hfp_odd", 3, window)
    assert cellwise_diff(report.result, unit) == []
    square = corners(preset_presentation("hfp_odd", 3), window)
    assert square.tate.cells == {}
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_6a_exactness_certificates() -> None:
    t0 = time.monotonic()
    reports = [
        realized("hf2", 2, (-8, 8, -8, 8)),
        realized("hz2", 2, (-10, 10, -10, 10)),
        realized("kgl2", 2, (-10, 10, -10, 10)),
        realized("hfp_odd", 3, (-6, 6, -6, 6)),
    ]
    checked = 0
    for report in reports:
        certificates = report.certificates()
        assert certificates
        for res, ker, cok in certificates.values():
            assert res == (ker[0] + cok[0], ker[1] + cok[1])
            checked += 1
    assert checked > 0
    assert time.monotonic() - t0 < TIME_BUDGET


def _brute_det(rows: tuple) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        product = 1
        for r in range(n):
            product *= rows[r][perm[r]]
        total += sign * product
    return total


def _brute_invariant_valuations(matrix: list, p: int) -> list:
    """Diagonal p-valuations via gcds of k by k minors, None past the rank."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    size = min(nrows, ncols)
    gcds = [1]
    for k in range(1, size + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                minor = _brute_det(tuple(tuple(matrix[r][c] for c in cols) for r in rows))
                g = math.gcd(g, minor)
        if g == 0:
            break
        gcds.append(g)
    rank = len(gcds) - 1

    def val(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    out = [val(gcds[k]) - val(gcds[k - 1]) for k in range(1, rank + 1)]
    out += [None] * (size - rank)
    return out


def test_criterion_6b_snf_brute_force() -> None:
    t0 = time.monotonic()
    rng = random.Random(617320)
    for _ in range(200):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        matrix = [[rng.randint(-16, 16) for _ in range(ncols)] for _ in range(nrows)]
        result = smith_normal_form(tuple(tuple(r) for r in matrix), 2)
        assert result.certify(matrix)
        expected = _brute_invariant_valuations(matrix, 2)
        got = list(result.valuations)
        got += [None] * (min(nrows, ncols) - len(got))
        assert got == expected
    assert time.monotonic() - t0 < TIME_BUDGET


def _random_presentation(rng: random.Random):
    p = rng.choice((2, 3))
    names = ("tau", "rho", "v")
    lines = [f"prime {p}", "gen tau 0 -1", "gen rho -1 -1", f"gen v {rng.randint(1, 3)} {rng.randint(0, 2)}"]
    lines.append(f"rel {p ** rng.randint(0, 2)}·v^{rng.randint(1, 3)}")

    def term():
        mono = "*".join(f"{name}^{e}" for name in names if (e := rng.randint(0, 2))) or "1"
        return f"{p ** rng.choice((0, 0, 1))}·{mono}"

    lines += [f"rel {term()}" for _ in range(rng.randint(0, 2))]
    lines += ["span 1·1", "span 1·rho", f"span 1·tau^{rng.randint(1, 2)}"]
    lines += [f"span {term()}" for _ in range(rng.randint(1, 3))]
    return parse_presentation("\n".join(lines) + "\n")


def test_criterion_6c_localization_idempotent_and_invertible() -> None:
    t0 = time.monotonic()
    rng = random.Random(415926)
    window = Window(-4, 4, -4, 4)
    idempotence_checked = 0
    iso_checked = 0
    for _ in range(50):
        pres = _random_presentation(rng)
        for name, delta in span_actions(pres).items():
            try:
                once = invert(pres, name, window=window)
            except (ValueError, BudgetError):
                # a scalar p, or a localization not of finite type
                continue
            assert validate_module(once) == []
            # inverting x again changes nothing; the inverse of x acts there too
            twice = invert(localized(pres, name), name, window=window)
            assert twice.cells == once.cells
            assert {key: f for key, f in twice.actions.items() if key[0] in once.multipliers} == once.actions
            idempotence_checked += 1
            # and x acts invertibly between every pair of cells it joins
            for d in window.cells():
                if window.contains(d + delta):
                    assert is_isomorphism(act(once, name, d)), (name, d)
                    iso_checked += not once.cell(d).is_zero()
    assert idempotence_checked > 0
    assert iso_checked > 0
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_6d_expanded_preset_actions_commute() -> None:
    t0 = time.monotonic()
    presets = [("hf2", None), ("hz2", None), ("kgl2", None), ("hfp_odd", 3)]
    window = Window(-8, 8, -8, 8)
    for name, prime in presets:
        module = expand(preset_presentation(name, prime), window)
        assert module.cells
        checked = 0
        mults = [Multiplier(n, BiDegree(*deg)) for n, deg in sorted(module.multipliers.items())]
        # the scalar action always exists and must commute with everything,
        # so single-generator presets still get a real pair to check
        mults.append(Multiplier(str(module.prime), BiDegree(0, 0)))
        for x, y in itertools.combinations(mults, 2):
            for d in window.cells():
                corner = d + x.degree + y.degree
                if not (
                    window.contains(d + x.degree)
                    and window.contains(d + y.degree)
                    and window.contains(corner)
                ):
                    continue
                first = act(module, y, d + x.degree) @ act(module, x, d)
                second = act(module, x, d + y.degree) @ act(module, y, d)
                assert first == second
                if not module.cell(d).is_zero():
                    checked += 1
        assert checked > 0
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_6e_dsl_round_trip() -> None:
    t0 = time.monotonic()
    assert PRESET_NAMES
    for name in PRESET_NAMES:
        prime = 3 if name == "HFP_ODD_R" else None
        source = preset_source(name, prime)
        pres = parse_presentation(source)
        text = print_presentation(pres)
        assert parse_presentation(text) == pres
    assert time.monotonic() - t0 < TIME_BUDGET


def test_criterion_7_refusal_contract(tmp_path) -> None:
    t0 = time.monotonic()
    src = tmp_path / "rho_inverted.txt"
    src.write_text(RHO_INVERTED_SOURCE, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fracture",
            "realize",
            "--module",
            str(src),
            "--window",
            "-3:3,-3:3",
        ],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.returncode == 1
    assert proc.stderr.decode("utf-8").startswith(CONTRACT_MESSAGE)
    assert time.monotonic() - t0 < TIME_BUDGET
