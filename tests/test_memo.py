"""The caches of exact-algebra results and of the work a presentation alone decides.

smith_normal_form, kernel, cokernel, solve_hom, is_isomorphism,
invert_iso, pgroup_sum, phom_zero and shared_phom, and assemble's splice
of a cell and transport of an action (assembler._splice,
assembler._transport), are functools.lru_cache functions bounded by
bigraded.CACHE_SIZE.  So are the parse of a presentation's text and what
is read off a presentation alone: its span steps and actions, killers,
unbounded ray, unit lattice and corner presentations; these results are
immutable or never mutated, and a repeated request recomputes none.  Groups carry no generator names, and the keys are
the matrices, maps and groups themselves, so equal inputs built as
separate objects compute once and share one result object, within a
realize call and across calls; every route that builds a group or a map
gives it the hash of a freshly built equal one.  The caches must never
show: every answer equals the one computed afresh, and realize and
odd_split print the same bytes with empty caches, with caches warmed by
other requests, and with every cached function bypassed.  A raise stores
nothing, so a failed certificate is not remembered.  invert and complete
expand a presentation and compute no Smith normal form, and expansion
validates each distinct action map once.  Every test starts with empty
caches (conftest.py).
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracture.snf as snf_module
from fracture import emit_json
from fracture.assembler import RhoCompleteError, corner_presentations, odd_split, realize, select_tau_power
from fracture.bigraded import (
    CACHE_SIZE,
    BigradedModule,
    PGroup,
    PHom,
    _trusted_phom,
    pgroup_sum,
    phom_identity,
    phom_zero,
    shared_phom,
    sum_map,
)
from fracture.localization import complete, invert
from fracture.presentation import (
    BudgetError,
    _killers,
    _span_steps,
    expand,
    parse_presentation,
    span_actions,
    unbounded_ray,
    unit_lattice,
)
from fracture.presets import preset_source
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

from helpers import (
    cached_bindings,
    clear_caches,
    inverse_free_rho_presentations,
    odd_rho_complete_presentations,
    twin,
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
        return ("group", x.prime, x.rank, x.torsion)
    if isinstance(x, PHom):
        return ("hom", fingerprint(x.source), fingerprint(x.target), x.entries)
    if isinstance(x, SnfResult):
        return ("snf",) + tuple(getattr(x, name) for name in SnfResult.__slots__)
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(y) for y in x)
    return x


@contextlib.contextmanager
def uncached():
    """Every cached function of the package replaced by the function it wraps, in every module that binds it."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name, f in cached_bindings():
            patch.setattr(module, name, f.__wrapped__)
        yield


def computed_afresh(fn, *args):
    """The fingerprint of fn(*args) computed with every cache bypassed; stores nothing."""
    with uncached():
        return fingerprint(fn.__wrapped__(*args))


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


def agrees_with_a_fresh_computation(fn, *variants):
    """fn on each argument tuple gives, cached and cached again, what it gives uncached."""
    fresh = [computed_afresh(fn, *args) for args in variants]
    first = [fingerprint(fn(*args)) for args in variants]
    again = [fingerprint(fn(*args)) for args in variants]
    assert first == fresh
    assert again == fresh


@MEMO_SETTINGS
@given(st.data())
def test_cached_kernel_and_cokernel_agree_with_fresh_ones(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b = data.draw(groups(p)), data.draw(groups(p))
    f = data.draw(homs(a, b))
    agrees_with_a_fresh_computation(kernel, (f,), (twin_map(f),))
    agrees_with_a_fresh_computation(cokernel, (f,), (twin_map(f),))


@MEMO_SETTINGS
@given(st.data())
def test_cached_is_isomorphism_agrees_with_a_fresh_one(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a = data.draw(groups(p))
    b = a if data.draw(st.booleans()) else data.draw(groups(p))
    f = data.draw(homs(a, b))
    agrees_with_a_fresh_computation(is_isomorphism, (f,), (twin_map(f),))


@MEMO_SETTINGS
@given(st.data())
def test_cached_invert_iso_agrees_with_a_fresh_one(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a = data.draw(groups(p))
    # the identity plus a strictly lower triangular endomorphism has an
    # integer inverse
    g = data.draw(homs(a, a))
    rows = [[int(r == c) + (x if r > c else 0) for c, x in enumerate(row)] for r, row in enumerate(g.entries)]
    f = PHom(a, twin(a), rows)
    agrees_with_a_fresh_computation(invert_iso, (f,), (twin_map(f),))
    inv = invert_iso(f)
    assert invert_iso(twin_map(f)) is inv
    assert (inv.source, inv.target) == (f.target, f.source)
    assert f @ inv == phom_identity(f.target)


@MEMO_SETTINGS
@given(st.data())
def test_cached_solve_hom_agrees_with_a_fresh_one(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b, c = data.draw(groups(p)), data.draw(groups(p)), data.draw(groups(p))
    f = data.draw(homs(a, b))
    g = f @ data.draw(homs(c, a)) if data.draw(st.booleans()) else data.draw(homs(c, b))
    agrees_with_a_fresh_computation(solve_hom, (f, g), (f, twin_map(g)), (twin_map(f), g))


@MEMO_SETTINGS
@given(st.data())
def test_cached_pgroup_sum_agrees_with_a_fresh_one(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b = data.draw(groups(p)), data.draw(groups(p))
    agrees_with_a_fresh_computation(pgroup_sum, (a, b), (twin(a), b), (b, a))


@MEMO_SETTINGS
@given(st.data())
def test_cached_smith_normal_form_agrees_with_a_fresh_one(data) -> None:
    p = data.draw(st.sampled_from((2, 3, 5)))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = tuple(tuple(data.draw(st.integers(-12, 12)) for _ in range(cols)) for _ in range(rows))
    rebuilt = tuple(tuple([*row]) for row in a)
    agrees_with_a_fresh_computation(smith_normal_form, (a, p), (rebuilt, p), (a, p, rows, cols))


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
    """fn on twin_args returns fn(*args)'s result object; only the first call reaches core."""
    fresh = computed_afresh(fn, *args)
    calls = counted(monkeypatch, snf_module, core)
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
    # solve_hom is cached too, so count the calls invert_iso makes to it
    computes_once(monkeypatch, "solve_hom", invert_iso, (f,), (twin_map(f),))


def test_equal_groups_compute_one_direct_sum() -> None:
    a, b = THREE.source, PGroup(3, 0, (3, 1))
    fresh = computed_afresh(pgroup_sum, a, b)
    first = pgroup_sum(a, b)
    second = pgroup_sum(twin(a), twin(b))
    info = pgroup_sum.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert second is first
    assert fingerprint(first) == fresh


@pytest.fixture
def certify_calls(monkeypatch):
    calls = []
    original = SnfResult.certify

    def counting(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(SnfResult, "certify", counting)
    return calls


def snf_inputs(run, monkeypatch):
    """The arguments of each smith_normal_form call run() makes."""
    inputs = []
    cached = snf_module.smith_normal_form

    def recording(*args):
        inputs.append(args)
        return cached(*args)

    with monkeypatch.context() as patch:
        patch.setattr(snf_module, "smith_normal_form", recording)
        run()
    return inputs


def test_each_distinct_smith_normal_form_is_certified_once(certify_calls, monkeypatch) -> None:
    inputs = snf_inputs(lambda: realize("KGL2_R", 2, (-3, 3, -3, 3)), monkeypatch)
    assert len(inputs) > len(set(inputs)), "the request repeats no input"
    assert len(certify_calls) == len(set(inputs))


def test_a_second_identical_realize_certifies_no_smith_normal_form(certify_calls) -> None:
    first = realize("KGL2_R", 2, (-6, 6, -6, 6))
    certified = len(certify_calls)
    second = realize("KGL2_R", 2, (-6, 6, -6, 6))
    assert certified > 0
    assert len(certify_calls) == certified
    assert emit_json(second.result) == emit_json(first.result)


def test_equal_inputs_share_one_result_across_realize_calls() -> None:
    first = realize("KGL2_R", 2, (-6, 6, -6, 6)).result
    # another window: the cells both hold are spliced from the same pictures
    second = realize("KGL2_R", 2, (-5, 7, -6, 6)).result
    common = first.cells.keys() & second.cells.keys()
    assert len(common) > 50
    assert all(second.cells[d] is first.cells[d] for d in common)
    shared = first.actions.keys() & second.actions.keys()
    assert len(shared) > 50
    assert all(second.actions[k] is first.actions[k] for k in shared)


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
REFUSED = {"refused", "over budget", "odd over budget", "invert along a scalar", "complete along no span action"}


def cache_misses():
    """{cached function: misses so far}."""
    return {f"{module.__name__}.{name}": f.cache_info().misses for module, name, f in cached_bindings()}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_repeated_call_answers_alike_and_certifies_nothing_again(name, certify_calls) -> None:
    first = requested(CALLS[name])
    certified, misses = len(certify_calls), cache_misses()
    assert requested(CALLS[name]) == first
    assert len(certify_calls) == certified
    assert isinstance(first, str) == (name in REFUSED)
    # every cached input repeats, the presentation's parse and analysis too
    assert cache_misses() == misses


@pytest.mark.parametrize("name", ["odd_split", "invert", "complete"])
def test_expansions_compute_no_smith_normal_form(name, certify_calls, monkeypatch) -> None:
    # odd_split's two parts are corner expansions, with no splice; invert
    # and complete expand a presentation, or answer zero
    assert snf_inputs(CALLS[name], monkeypatch) == []
    assert certify_calls == []


def test_a_failed_certificate_is_not_remembered(monkeypatch) -> None:
    with monkeypatch.context() as patch:
        patch.setattr(SnfResult, "certify", lambda self, a: False)
        with pytest.raises(CertificateError):
            realize("HF2_R", 2, (-2, 2, -2, 2))
    # a raise stores nothing, so the retry computes and certifies afresh
    assert smith_normal_form.cache_info().currsize == 0
    retry = realize("HF2_R", 2, (-2, 2, -2, 2))
    assert retry.certificates_hold()
    assert smith_normal_form.cache_info().currsize > 0
    clear_caches()
    assert emit_json(retry.result) == emit_json(realize("HF2_R", 2, (-2, 2, -2, 2)).result)


def test_every_cache_stays_within_its_bound() -> None:
    realize("KGL2_R", 2, (-40, 40, -40, 40))
    bindings = cached_bindings()
    assert {f.__name__ for _, _, f in bindings} >= {
        "smith_normal_form",
        "_splice",
        "_transport",
        "shared_phom",
        "parse_presentation",
        "span_actions",
        "_span_steps",
        "_killers",
        "unbounded_ray",
        "unit_lattice",
        "corner_presentations",
    }
    for _, name, f in bindings:
        info = f.cache_info()
        assert info.maxsize == CACHE_SIZE, name
        # nothing raised, so an evicted entry would leave more misses than entries
        assert info.currsize == info.misses <= CACHE_SIZE, name


def requested(run):
    """The canonical bytes of run()'s report, module or parts, its dropped actions, or its refusal."""
    try:
        out = run()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if hasattr(out, "dropped"):
        return emit_json(out), repr(out.dropped)
    if isinstance(out, BigradedModule):
        return emit_json(out)
    return tuple(emit_json(part) for part in out)


def warm_up():
    """Fill the caches with other presets, primes and windows."""
    for name, prime in TRANSPARENCY_CASES:
        realize(name, prime, (-6, 4, -5, 5))
    realize("HFP_ODD_R", 5, (-4, 5, -5, 4))
    odd_split("HFP_ODD_R", 3, (-5, 4, -4, 5))


def in_three_states(run):
    """requested(run) with empty caches, with warm ones, and uncached, and the SNFs certified in each."""
    certified = []
    original = SnfResult.certify

    def state(prepare, context):
        prepare()
        before = len(certified)
        with context:
            out = requested(run)
        return out, len(certified) - before

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SnfResult, "certify", lambda self, a: certified.append(a) or original(self, a))
        cold = state(clear_caches, contextlib.nullcontext())
        warm = state(warm_up, contextlib.nullcontext())
        bypassed = state(clear_caches, uncached())
    return cold, warm, bypassed


TRANSPARENCY_CASES = [("HF2_R", None), ("HZ2_R", None), ("KGL2_R", None), ("HFP_ODD_R", 3)]


@pytest.mark.parametrize("name,prime", TRANSPARENCY_CASES, ids=[n for n, _ in TRANSPARENCY_CASES])
def test_realize_prints_the_same_bytes_cold_warm_and_uncached(name, prime) -> None:
    (cold, on), (warm, _), (bypassed, off) = in_three_states(lambda: realize(name, prime, (-8, 8, -8, 8)))
    assert cold == warm == bypassed
    # the bypass really computes every repeated input again
    assert off > on


def test_odd_split_prints_the_same_bytes_cold_warm_and_uncached() -> None:
    (cold, _), (warm, _), (bypassed, _) = in_three_states(lambda: odd_split("HFP_ODD_R", 3, (-8, 8, -8, 8)))
    assert cold == warm == bypassed


def test_a_refusal_reads_the_same_cold_warm_and_uncached() -> None:
    for run in (
        lambda: realize(parse_presentation(RHO_INVERTED_SOURCE), 2, (-3, 3, -3, 3)),
        lambda: realize("HF2_R", 2, (-3, 3, -3, 3), budget=1),
    ):
        (cold, _), (warm, _), (bypassed, _) = in_three_states(run)
        assert cold == warm == bypassed
        assert cold.startswith((RhoCompleteError.__name__, BudgetError.__name__))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pres=st.one_of(odd_rho_complete_presentations(), inverse_free_rho_presentations()))
def test_random_presentations_print_the_same_bytes_cold_warm_and_uncached(pres) -> None:
    window = (-4, 4, -4, 4)
    (cold, _), (warm, _), (bypassed, _) = in_three_states(lambda: realize(pres, None, window))
    assert cold == warm == bypassed
    if pres.prime != 2:
        (cold, _), (warm, _), (bypassed, _) = in_three_states(lambda: odd_split(pres, pres.prime, window))
        assert cold == warm == bypassed


@MEMO_SETTINGS
@given(st.data())
def test_every_route_hashes_like_a_fresh_construction(data) -> None:
    p = data.draw(st.sampled_from((2, 3)))
    a, b, c = data.draw(groups(p)), data.draw(groups(p)), data.draw(groups(p))
    assert hash(a) == hash(twin(a)) and a == twin(a)
    f, f2, g = data.draw(homs(b, c)), data.draw(homs(b, c)), data.draw(homs(a, b))
    ab, _, _, pa, pb = pgroup_sum(a, b)
    h = data.draw(homs(a, c))
    built = {
        "validating": f,
        "trusted": _trusted_phom(b, c, f.entries),
        "shared": shared_phom(b, c, f.entries),
        "composite": f @ g,
        "sum": f + f2,
        "difference": f - f2,
        "negation": -f,
        "zero": phom_zero(b, c),
        "identity": phom_identity(b),
        "sum_map": sum_map(ab, c, ((h, None, pa), (-f, None, pb))),
    }
    for route, x in built.items():
        first = hash(x)
        fresh = twin_map(x)
        assert x == fresh, route
        assert first == hash(x) == hash(fresh), route
        assert kernel(x) is kernel(fresh), route


def validating_constructions(monkeypatch):
    """The maps PHom(...) validates from now on."""
    built = []
    original = PHom.__init__

    def counting(self, *args):
        original(self, *args)
        built.append(self)

    monkeypatch.setattr(PHom, "__init__", counting)
    return built


def test_realize_validates_each_distinct_map_once(monkeypatch) -> None:
    built = validating_constructions(monkeypatch)
    realize("KGL2_R", 2, (-10, 10, -10, 10))
    # 1074 before the corner maps were shared and the splice cached
    assert len(built) <= 150
    count = len(built)
    realize("KGL2_R", 2, (-10, 10, -10, 10))
    assert len(built) == count


def test_expansion_shares_each_distinct_action_map(monkeypatch) -> None:
    built = validating_constructions(monkeypatch)
    module = expand(parse_presentation(RHO_INVERTED_SOURCE), (-6, 6, -6, 6))
    assert len(module.actions) > len(built) > 0
    assert {id(f) for f in module.actions.values()} == {id(f) for f in built}


def presentation_work(pres):
    """(name, argument, function) for each cached function of a presentation, on pres and its corners."""
    tau = select_tau_power(pres.prime, span_actions(pres))
    out = [("corner_presentations", (pres, tau), corner_presentations)]
    for local in (pres, *corner_presentations(pres, tau).values()):
        out += [(f.__name__, (local,), f) for f in (span_actions, _span_steps, _killers, unbounded_ray, unit_lattice)]
    return out


@pytest.mark.parametrize("name,prime", TRANSPARENCY_CASES, ids=[n for n, _ in TRANSPARENCY_CASES])
def test_cached_presentation_work_agrees_with_a_fresh_one_and_is_never_mutated(name, prime) -> None:
    text = preset_source(name, prime)
    pres = parse_presentation(text)
    assert fingerprint(pres) == computed_afresh(parse_presentation, text)
    work = presentation_work(pres)
    fresh = [computed_afresh(f, *args) for _, args, f in work]
    cached = [f(*args) for _, args, f in work]
    assert [fingerprint(x) for x in cached] == fresh
    realize(pres, None, (-8, 8, -8, 8))
    if pres.prime != 2:
        odd_split(pres, None, (-8, 8, -8, 8))
    # a later request gets the very objects, as they were
    assert parse_presentation(text) is pres
    assert [f(*args) for _, args, f in work] == cached
    assert all(f(*args) is x for (_, args, f), x in zip(work, cached))
    assert [fingerprint(x) for x in cached] == fresh
