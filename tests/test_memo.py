"""The per-call memo of exact-algebra results.

Inside memo_scope, smith_normal_form, kernel, cokernel, solve_hom,
pgroup_sum, is_isomorphism and invert_iso compute once per distinct
input.  Groups carry no generator names, and the memo keys are the
matrices and groups themselves, so equal inputs built as separate objects
compute once and share one result object inside a scope.  The memo must
never show: every answer equals the one computed afresh, and no scope
outlives the realize or odd_split call that opened it, so a direct call
outside one computes and certifies again.  invert and complete expand a
presentation and compute no Smith normal form.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracture.snf as snf_module
from fracture.assembler import RhoCompleteError, odd_split, realize
from fracture.bigraded import PGroup, PHom, active_memo, memo_scope, pgroup_sum, phom_identity
from fracture.localization import complete, invert
from fracture.presentation import BudgetError, parse_presentation
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

from helpers import twin

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
        return ("group", x.prime, x.rank, x.torsion)
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
    return PGroup(p, rank, tuple(torsion))


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


def twin_map(f):
    """An equal map built as a separate object, between twins of its groups."""
    return PHom(twin(f.source), twin(f.target), f.entries)


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
    agrees_inside_a_scope(kernel, (f,), (twin_map(f),))
    agrees_inside_a_scope(cokernel, (f,), (twin_map(f),))


@MEMO_SETTINGS
@given(st.data())
def test_is_isomorphism_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a = data.draw(groups(p))
    b = a if data.draw(st.booleans()) else data.draw(groups(p))
    f = data.draw(homs(a, b))
    agrees_inside_a_scope(is_isomorphism, (f,), (twin_map(f),))


@MEMO_SETTINGS
@given(st.data())
def test_invert_iso_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a = data.draw(groups(p))
    # the identity plus a strictly lower triangular endomorphism has an
    # integer inverse
    g = data.draw(homs(a, a))
    rows = [[int(r == c) + (x if r > c else 0) for c, x in enumerate(row)] for r, row in enumerate(g.entries)]
    f = PHom(a, twin(a), rows)
    agrees_inside_a_scope(invert_iso, (f,), (twin_map(f),))
    with memo_scope():
        inv = invert_iso(f)
        assert invert_iso(twin_map(f)) is inv
    assert (inv.source, inv.target) == (f.target, f.source)
    assert f @ inv == phom_identity(f.target)


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
# one: kernel <3y, z>, cokernel Z/3 + Z/3 + Z/3
THREE = PHom(PGroup(3, 1, (2, 1)), PGroup(3, 1, (2, 1)), ((3, 0, 0), (0, 3, 0), (0, 0, 0)))


def computes_once(monkeypatch, core, fn, args, twin_args):
    """Inside a scope, fn on twin_args returns fn(*args)'s result object; only the first call reaches core."""
    fresh = fingerprint(fn(*args))
    calls = counted(monkeypatch, snf_module, core)
    with memo_scope():
        first = fn(*args)
        computed = len(calls)
        second = fn(*twin_args)
    assert computed > 0 and len(calls) == computed
    assert second is first
    assert fingerprint(first) == fresh


@pytest.mark.parametrize("fn,core", [(kernel, "subgroup"), (cokernel, "smith_normal_form")], ids=["kernel", "cokernel"])
def test_equal_maps_compute_one_kernel_and_cokernel(fn, core, monkeypatch) -> None:
    computes_once(monkeypatch, core, fn, (THREE,), (twin_map(THREE),))


def test_equal_maps_compute_one_solve(monkeypatch) -> None:
    g = THREE @ PHom(PGroup(3, 0, (2,)), THREE.source, ((0,), (4,), (1,)))
    computes_once(monkeypatch, "solve_columns", solve_hom, (THREE, g), (twin_map(THREE), twin_map(g)))


def test_equal_isomorphisms_compute_one_inverse(monkeypatch) -> None:
    f = PHom(THREE.source, twin(THREE.source), ((1, 0, 0), (4, 1, 0), (2, 3, 1)))
    # solve_hom is memoized too, so count the calls invert_iso makes to it
    computes_once(monkeypatch, "solve_hom", invert_iso, (f,), (twin_map(f),))


def test_equal_groups_compute_one_direct_sum() -> None:
    a, b = THREE.source, PGroup(3, 0, (3, 1))
    fresh = fingerprint(pgroup_sum(a, b))
    with memo_scope():
        table = active_memo()
        first = pgroup_sum(a, b)
        stored = len(table)
        second = pgroup_sum(twin(a), twin(b))
        assert len(table) == stored == 1
    assert second is first
    assert fingerprint(first) == fresh


@MEMO_SETTINGS
@given(st.data())
def test_solve_hom_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b, c = data.draw(groups(p)), data.draw(groups(p)), data.draw(groups(p))
    f = data.draw(homs(a, b))
    g = f @ data.draw(homs(c, a)) if data.draw(st.booleans()) else data.draw(homs(c, b))
    agrees_inside_a_scope(solve_hom, (f, g), (f, twin_map(g)), (twin_map(f), g))


@MEMO_SETTINGS
@given(st.data())
def test_pgroup_sum_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b = data.draw(groups(p)), data.draw(groups(p))
    agrees_inside_a_scope(pgroup_sum, (a, b), (twin(a), b), (b, a))


@MEMO_SETTINGS
@given(st.data())
def test_smith_normal_form_agrees_inside_a_scope(data) -> None:
    p = data.draw(st.sampled_from((2, 3, 5)))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = tuple(tuple(data.draw(st.integers(-12, 12)) for _ in range(cols)) for _ in range(rows))
    rebuilt = tuple(tuple([*row]) for row in a)
    agrees_inside_a_scope(smith_normal_form, (a, p), (rebuilt, p), (a, p, rows, cols))


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


CALLS = {
    "realize": lambda: realize("KGL2_R", 2, (-2, 2, -2, 2)),
    "odd_split": lambda: odd_split("HFP_ODD_R", 3, (-2, 2, -2, 2)),
    "refused": lambda: realize(parse_presentation(RHO_INVERTED_SOURCE), 2, (-3, 3, -3, 3)),
    "over budget": lambda: realize("HF2_R", 2, (-3, 3, -3, 3), budget=1),
    "odd over budget": lambda: odd_split("HFP_ODD_R", 3, (-3, 3, -3, 3), budget=1),
    "invert": lambda: invert("KGL2_R", "tau4", window=(-3, 3, -3, 3)),
    "complete": lambda: complete("KGL2_R", "rho", window=(-3, 3, -3, 3)),
    "invert along a scalar": lambda: invert("KGL2_R", "2tau2", window=(-3, 3, -3, 3)),
    "complete along no span action": lambda: complete("KGL2_R", "tau", window=(-3, 3, -3, 3)),
}
RAISES = {
    "refused": RhoCompleteError,
    "over budget": BudgetError,
    "odd over budget": BudgetError,
    "invert along a scalar": ValueError,
    "complete along no span action": ValueError,
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


def test_a_scope_belongs_to_its_thread() -> None:
    seen = []
    with memo_scope():
        worker = threading.Thread(target=lambda: seen.append(active_memo()))
        worker.start()
        worker.join(timeout=30)
        assert active_memo() is not None
    assert not worker.is_alive()
    assert seen == [None]


def snf_inputs(run, monkeypatch):
    """The arguments of each smith_normal_form call run() makes."""
    inputs = []
    memoized = snf_module.smith_normal_form

    def recording(*args):
        inputs.append(args)
        return memoized(*args)

    with monkeypatch.context() as patch:
        patch.setattr(snf_module, "smith_normal_form", recording)
        run()
    return inputs


def test_each_distinct_smith_normal_form_is_certified_once(certify_calls, monkeypatch) -> None:
    inputs = snf_inputs(lambda: realize("KGL2_R", 2, (-3, 3, -3, 3)), monkeypatch)
    assert len(inputs) > len(set(inputs)), "the request repeats no input"
    assert len(certify_calls) == len(set(inputs))


@pytest.mark.parametrize("name", ["odd_split", "invert", "complete"])
def test_expansions_compute_no_smith_normal_form(name, certify_calls, monkeypatch) -> None:
    # odd_split's two parts are corner expansions, with no splice; invert
    # and complete expand a presentation, or answer zero
    assert snf_inputs(CALLS[name], monkeypatch) == []
    assert certify_calls == []


def test_a_failed_certificate_raises_inside_realize(monkeypatch) -> None:
    monkeypatch.setattr(SnfResult, "certify", lambda self, a: False)
    with pytest.raises(CertificateError):
        realize("HF2_R", 2, (-2, 2, -2, 2))
    assert active_memo() is None
