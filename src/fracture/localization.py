"""Inverting and completing a span action of a presentation, exactly.

invert expands the presentation localized at the action (see
presentation.localized) and complete is decided by one rule on the
presentation (see presentation.inverse_product), so neither truncates a
colimit or limit and no cell is approximated.  composite_action, the
reference walk of successive actions, serves the tests.
"""

from __future__ import annotations

from .bigraded import BiDegree, BigradedModule, act, phom_identity, trusted_module
from .presentation import (
    BudgetError,
    Presentation,
    expand,
    expand_indexed,
    expansion_window,
    inverse_product,
    localized,
    monomial_string,
    span_actions,
    unbounded_ray,
)
from .presets import preset_presentation
# the snf names are not called here; they stay bound because outside
# tracers wrap them by module attribute
from .snf import cokernel, invert_iso, is_isomorphism, span_equal  # noqa: F401

COMPLETION_CAVEAT = "completion-degreewise"


def presentation_of(source, prime):
    """The presentation of a preset name, or a Presentation checked against prime."""
    if isinstance(source, str):
        return preset_presentation(source, prime)
    if isinstance(source, Presentation):
        if prime is not None and prime != source.prime:
            raise ValueError(f"presentation is at prime {source.prime}, got {prime}")
        return source
    raise TypeError("expected a preset name or a Presentation")


def composite_action(module, mult, start, count):
    """The PHom of count successive mult-actions out of the start cell."""
    f = phom_identity(module.cell(start))
    cur = BiDegree(*start)
    for _ in range(count):
        f = act(module, mult, cur) @ f
        cur = cur + mult.degree
    return f


def expand_localized(pres, named, window, budget):
    """{label: (module, index)} of expand_indexed for each localization of pres in named.

    named maps a label to a localized presentation of pres.  Each is
    checked to be of finite type before any is expanded (a BudgetError
    names the label and the ray, see unbounded_ray), then each expansion
    has the budget to itself.  The modules act by the span actions of
    pres only: the inverse span terms a localization adds act on none.
    """
    for label, local in named.items():
        ray = unbounded_ray(local)
        if ray is not None:
            raise BudgetError(
                f"{label} is not of finite type: no relation of scalar 1 kills the powers of"
                f" {monomial_string(ray)}, of degree (0,0)"
            )
    mults = span_actions(pres)
    return {label: expand_indexed(local, window, budget, mults) for label, local in named.items()}


def invert(source, mult, prime=None, window=None, *, budget=None):
    """M[x^-1] on the window, for x the span action called mult.

    source is a preset name or a Presentation, and window defaults to the
    presentation's.  The answer is the expansion of the localized
    presentation, exact in every cell, acting by the span actions of
    source.  A multiplier of scalar p would invert p, which no PGroup
    holds, so it is refused (ValueError), as is a name that is no span
    action; a localization not of finite type is refused before anything
    is expanded (BudgetError).  The budget is expand's.
    """
    pres = presentation_of(source, prime)
    label = f"the localization at {mult}"
    return expand_localized(pres, {label: localized(pres, mult)}, window, budget)[label][0]


def complete(source, mult, prime=None, window=None, *, budget=None):
    """The degreewise completion of M along the span action called mult, on the window.

    It is exact in closed form (see presentation.inverse_product for the
    proof): zero when some product of span terms of scalar 1 inverts a
    power of x, and M itself otherwise, so nothing is expanded for the
    zero answer.  Both carry the completion-degreewise caveat: no derived
    functors are modeled.  source, window and budget are as in invert.
    """
    pres = presentation_of(source, prime)
    if inverse_product(pres, mult) is None:
        module = expand(pres, window, budget)
    else:
        module = BigradedModule(pres.prime, expansion_window(pres, window), {}, {}, span_actions(pres))
    caveats = (COMPLETION_CAVEAT,)
    return trusted_module(module.prime, module.window, module.cells, module.actions, module.multipliers, (), caveats)
