"""The per-call memo of exact-algebra results.

Inside memo_scope, smith_normal_form, kernel, cokernel, solve_hom,
pgroup_sum, is_isomorphism and invert_iso compute once per distinct
input.  Generator labels are in no memo key: label twins share one
computation, and each caller gets the result relabelled onto its own
groups.  The memo must never show: every answer equals the one computed
afresh, labels included, and no scope outlives the realize, odd_split,
invert or complete call that opened it, so a direct call outside one
computes and certifies again.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracture.snf as snf_module
from fracture.assembler import RhoCompleteError, odd_split, realize
from fracture.bigraded import PGroup, PHom, active_memo, memo_scope, pgroup_sum, phom_identity
from fracture.localization import complete, invert
from fracture.presentation import BudgetError, expand, parse_presentation
from fracture.presets import preset_presentation
from fracture.snf import (
    CertificateError,
    SnfResult,
    cokernel,
    invert_iso,
    is_isomorphism,
    kernel,
    smith_normal_form,
    solve_hom,
)

RHO_INVERTED_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""

MEMO_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def fingerprint(x):
    """Everything observable about a result, as plain nested tuples."""
    if isinstance(x, PGroup):
        return ("group", x.prime, x.rank, x.torsion, x.labels)
    if isinstance(x, PHom):
        return ("hom", fingerprint(x.source), fingerprint(x.target), x.entries)
    if isinstance(x, SnfResult):
        return ("snf",) + tuple(getattr(x, name) for name in SnfResult.__slots__)
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(y) for y in x)
    return x


@st.composite
def groups(draw, p):
    rank = draw(st.integers(0, 2))
    torsion = sorted(draw(st.lists(st.integers(1, 3), max_size=2)), reverse=True)
    labelled = draw(st.booleans())
    labels = [draw(st.sampled_from("abc")) for _ in range(rank + len(torsion))] if labelled else None
    return PGroup(p, rank, tuple(torsion), labels)


@st.composite
def homs(draw, source, target):
    p = source.prime
    rows = []
    for f in target.exponents():
        row = []
        for e in source.exponents():
            if f is None and e is not None:
                row.append(0)
            else:
                step = 1 if (f is None or e is None or e >= f) else p ** (f - e)
                row.append(step * draw(st.integers(-6, 6)))
        rows.append(row)
    return PHom(source, target, rows)


def relabelled(group):
    """The same group under other generator names."""
    return PGroup(group.prime, group.rank, group.torsion, [f"r{k}" for k in range(group.ngens)])


def rehomed(f, source, target):
    return PHom(source, target, f.entries)


def agrees_inside_a_scope(fn, *variants):
    """fn on each argument tuple gives inside one scope what it gives outside."""
    fresh = [fingerprint(fn(*args)) for args in variants]
    with memo_scope():
        first = [fingerprint(fn(*args)) for args in variants]
        again = [fingerprint(fn(*args)) for args in variants]
    assert first == fresh
    assert again == fresh


@MEMO_SETTINGS
@given(st.data())
def test_kernel_and_cokernel_agree_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b = data.draw(groups(p)), data.draw(groups(p))
    f = data.draw(homs(a, b))
    # equal groups (PGroup equality ignores labels) must not share a result
    twin = rehomed(f, relabelled(a), relabelled(b))
    agrees_inside_a_scope(kernel, (f,), (twin,))
    agrees_inside_a_scope(cokernel, (f,), (twin,))


@MEMO_SETTINGS
@given(st.data())
def test_is_isomorphism_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a = data.draw(groups(p))
    b = a if data.draw(st.booleans()) else data.draw(groups(p))
    f = data.draw(homs(a, b))
    # the verdict reads no labels, so label twins share one
    twin = rehomed(f, relabelled(a), relabelled(b))
    assert is_isomorphism(twin) == is_isomorphism(f)
    agrees_inside_a_scope(is_isomorphism, (f,), (twin,))


@MEMO_SETTINGS
@given(st.data())
def test_invert_iso_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a = data.draw(groups(p))
    # the identity plus a strictly lower triangular endomorphism has an
    # integer inverse
    g = data.draw(homs(a, a))
    rows = [[int(r == c) + (x if r > c else 0) for c, x in enumerate(row)] for r, row in enumerate(g.entries)]
    f = PHom(a, relabelled(a), rows)
    twin = rehomed(f, relabelled(a), a)
    agrees_inside_a_scope(invert_iso, (f,), (twin,))
    with memo_scope():
        inverses = [invert_iso(iso) for iso in (f, twin, f)]
        for iso, inv in zip((f, twin, f), inverses):
            # the inverse lives on the caller's own labelled groups
            assert fingerprint(inv.source) == fingerprint(iso.target)
            assert fingerprint(inv.target) == fingerprint(iso.source)
            assert (iso @ inv).same_map(phom_identity(iso.target))
        # label twins get entry-equal inverses
        assert len({inv.entries for inv in inverses}) == 1


def test_label_twins_share_one_inverse_solve(monkeypatch) -> None:
    a = PGroup(3, 1, (2, 1), ["x", "y", "z"])
    f = PHom(a, relabelled(a), ((1, 0, 0), (4, 1, 0), (2, 3, 1)))
    twin = rehomed(f, relabelled(a), a)
    solves = []
    original = snf_module.solve_columns

    def counting(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(snf_module, "solve_columns", counting)
    with memo_scope():
        inv = invert_iso(f)
        first = len(solves)
        inv_twin = invert_iso(twin)
    assert first > 0 and len(solves) == first
    assert inv_twin.entries == inv.entries
    assert fingerprint(inv_twin.source) == fingerprint(twin.target)
    assert fingerprint(inv_twin.target) == fingerprint(twin.source)


def counted(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


# multiplication by 3 on the free and the Z/9 generator, zero on the Z/3
# one: the kernel <3y, z> and the cokernel Z/3 + Z/3 + Z/3 are spanned by
# p-powers of single generators, so both come out labelled
TWIN_SOURCE = PGroup(3, 1, (2, 1), ["x", "y", "z"])
TWIN_MAP = PHom(TWIN_SOURCE, PGroup(3, 1, (2, 1), ["u", "v", "w"]), ((3, 0, 0), (0, 3, 0), (0, 0, 0)))


@pytest.mark.parametrize(
    "fn,core,named",
    [(kernel, "subgroup", lambda f: f.source), (cokernel, "smith_normal_form", lambda f: f.target)],
    ids=["kernel", "cokernel"],
)
def test_label_twins_share_one_kernel_and_cokernel(fn, core, named, monkeypatch) -> None:
    twin = rehomed(TWIN_MAP, relabelled(TWIN_MAP.source), relabelled(TWIN_MAP.target))
    fresh = [fingerprint(fn(f)) for f in (TWIN_MAP, twin)]
    calls = counted(monkeypatch, snf_module, core)
    with memo_scope():
        first = fn(TWIN_MAP)
        computed = len(calls)
        second = fn(twin)
    assert computed > 0 and len(calls) == computed
    assert [fingerprint(first), fingerprint(second)] == fresh
    # each twin's group is named after its own generators
    assert first[0].labels and second[0].labels
    assert set(first[0].labels).isdisjoint(second[0].labels)
    assert all(label.endswith(tuple(named(twin).labels)) for label in second[0].labels)


def test_label_twins_share_one_solve(monkeypatch) -> None:
    f = TWIN_MAP
    c = PGroup(3, 0, (2,), ["c"])
    g = f @ PHom(c, f.source, ((0,), (4,), (1,)))
    twin_f = rehomed(f, relabelled(f.source), f.target)
    twin_g = rehomed(g, relabelled(c), g.target)
    fresh = fingerprint(solve_hom(twin_f, twin_g))
    solves = counted(monkeypatch, snf_module, "solve_columns")
    with memo_scope():
        h = solve_hom(f, g)
        computed = len(solves)
        h_twin = solve_hom(twin_f, twin_g)
    assert computed > 0 and len(solves) == computed
    assert fingerprint(h_twin) == fresh
    assert h_twin.entries == h.entries
    assert (fingerprint(h_twin.source), fingerprint(h_twin.target)) == (
        fingerprint(twin_g.source),
        fingerprint(twin_f.source),
    )


def test_label_twins_share_one_direct_sum() -> None:
    a, b = TWIN_MAP.source, TWIN_MAP.target
    fresh = fingerprint(pgroup_sum(relabelled(a), b))
    with memo_scope():
        table = active_memo()
        first = pgroup_sum(a, b)
        stored = len(table)
        second = pgroup_sum(relabelled(a), b)
        assert len(table) == stored
    assert fingerprint(second) == fresh
    assert first[0].labels == ("x", "u", "y", "v", "z", "w")
    assert second[0].labels == ("r0", "u", "r1", "v", "r2", "w")
    # an unlabelled summand's generators are named by their row in the sum
    assert pgroup_sum(a, PGroup(3, 1, (2, 1)))[0].labels == ("x", "g1", "y", "g3", "z", "g5")


@MEMO_SETTINGS
@given(st.data())
def test_solve_hom_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b, c = data.draw(groups(p)), data.draw(groups(p)), data.draw(groups(p))
    f = data.draw(homs(a, b))
    g = f @ data.draw(homs(c, a)) if data.draw(st.booleans()) else data.draw(homs(c, b))
    twin_g = rehomed(g, relabelled(c), b)
    twin_f = rehomed(f, relabelled(a), b)
    agrees_inside_a_scope(solve_hom, (f, g), (f, twin_g), (twin_f, g))


@MEMO_SETTINGS
@given(st.data())
def test_pgroup_sum_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b = data.draw(groups(p)), data.draw(groups(p))
    agrees_inside_a_scope(pgroup_sum, (a, b), (relabelled(a), b), (b, a))


@MEMO_SETTINGS
@given(st.data())
def test_smith_normal_form_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3, 5)))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = tuple(tuple(data.draw(st.integers(-12, 12)) for _ in range(cols)) for _ in range(rows))
    as_lists = [list(row) for row in a]
    agrees_inside_a_scope(smith_normal_form, (a, p), (as_lists, p), (a, p, rows, cols))


@pytest.fixture
def certify_calls(monkeypatch):
    calls = []
    original = SnfResult.certify

    def counting(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(SnfResult, "certify", counting)
    return calls


def assert_no_scope(certify_calls) -> None:
    assert active_memo() is None
    before = len(certify_calls)
    smith_normal_form(((2, 1), (4, 3)), 2)
    smith_normal_form(((2, 1), (4, 3)), 2)
    assert len(certify_calls) == before + 2


def kgl2_module():
    return expand(preset_presentation("KGL2_R"), (-3, 3, -3, 3))


CALLS = {
    "realize": lambda: realize("KGL2_R", 2, (-2, 2, -2, 2)),
    "odd_split": lambda: odd_split("HFP_ODD_R", 3, (-2, 2, -2, 2)),
    "refused": lambda: realize(parse_presentation(RHO_INVERTED_SOURCE), 2, (-3, 3, -3, 3)),
    "over budget": lambda: realize("HF2_R", 2, (-3, 3, -3, 3), budget=1),
    "odd over budget": lambda: odd_split("HFP_ODD_R", 3, (-3, 3, -3, 3), budget=1),
    "invert": lambda: invert(kgl2_module(), "tau"),
    "complete": lambda: complete(kgl2_module(), "rho"),
    "invert with no steps": lambda: invert(kgl2_module(), "rho", steps=0),
    "complete off the window": lambda: complete(kgl2_module(), "rho", window=(0, 4, 0, 0)),
}
RAISES = {
    "refused": RhoCompleteError,
    "over budget": BudgetError,
    "odd over budget": BudgetError,
    "invert with no steps": ValueError,
    "complete off the window": ValueError,
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_scope_survives_the_call(name, certify_calls) -> None:
    if name in RAISES:
        with pytest.raises(RAISES[name]):
            CALLS[name]()
    else:
        CALLS[name]()
    assert_no_scope(certify_calls)


def test_a_scope_survives_an_inner_call_it_opened(certify_calls) -> None:
    with memo_scope():
        smith_normal_form(((2, 1), (4, 3)), 2)
        realize("HF2_R", 2, (-2, 2, -2, 2))
        before = len(certify_calls)
        smith_normal_form(((2, 1), (4, 3)), 2)
        assert len(certify_calls) == before
    assert_no_scope(certify_calls)


def test_localizations_share_the_scope_of_their_caller(certify_calls) -> None:
    module = kgl2_module()
    with memo_scope():
        table = active_memo()
        invert(module, "tau")
        after_invert = len(table)
        complete(module, "rho")
        assert active_memo() is table
        assert 0 < after_invert < len(table)
        stored, certified = len(table), len(certify_calls)
        invert(module, "tau")
        complete(module, "rho")
        assert (len(table), len(certify_calls)) == (stored, certified)
    assert_no_scope(certify_calls)


def test_a_scope_belongs_to_its_thread() -> None:
    seen = []
    with memo_scope():
        worker = threading.Thread(target=lambda: seen.append(active_memo()))
        worker.start()
        worker.join(timeout=30)
        assert active_memo() is not None
    assert not worker.is_alive()
    assert seen == [None]


@pytest.mark.parametrize("call", ["realize", "odd_split"])
def test_each_distinct_smith_normal_form_is_certified_once(call, certify_calls, monkeypatch) -> None:
    inputs = []
    memoized = snf_module.smith_normal_form

    def recording(*args, **kwargs):
        inputs.append(snf_module._snf_key(*args, **kwargs))
        return memoized(*args, **kwargs)

    monkeypatch.setattr(snf_module, "smith_normal_form", recording)
    if call == "realize":
        realize("KGL2_R", 2, (-3, 3, -3, 3))
    else:
        odd_split("HFP_ODD_R", 3, (-3, 3, -3, 3))
    assert len(inputs) > len(set(inputs)), "the request repeats no input"
    assert len(certify_calls) == len(set(inputs))


def test_a_failed_certificate_raises_inside_realize(monkeypatch) -> None:
    monkeypatch.setattr(SnfResult, "certify", lambda self, a: False)
    with pytest.raises(CertificateError):
        realize("HF2_R", 2, (-2, 2, -2, 2))
    assert active_memo() is None


@pytest.mark.parametrize("localize", [invert, complete])
def test_a_failed_certificate_raises_inside_a_localization(localize, monkeypatch) -> None:
    module = kgl2_module()
    monkeypatch.setattr(SnfResult, "certify", lambda self, a: False)
    with pytest.raises(CertificateError):
        localize(module, "rho")
    assert active_memo() is None
