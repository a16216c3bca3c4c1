"""Canonical JSON of realize, invert and complete, pinned byte for byte.

The digests were recorded before the hot path of realize was rebuilt
around sliding-window chain composites, per-call isomorphism verdicts
and a shared zero cell; the wide KGL2 window and the odd split were
recorded before expand pruned dead monomials and before each stage was
handed only the part of the expansion its chains reach.  When realize
and odd_split started building their corners by expanding localized
presentations, the HZ2_R and KGL2_R windows below and the sweep were
re-pinned: cells that were unverified became verified and equal to the
reference, and the second odd-split part lost its completion caveat.
The sweep lost its pad axis with the pad.  Any change in a cell, flag,
edge matrix or provenance entry changes the bytes and fails here.
"""

import hashlib

import pytest

from fracture import complete, emit_json, expand, invert, odd_split, preset_presentation, realize, reference_realization
from fracture.bigraded import cellwise_diff

PINNED = [
    ("HF2_R", None, (-3, 3, -3, 3), "44c73288825777136cf9049196861d7f9beffa5ff9654fcd80a3ee9ec2836eb1"),
    ("HZ2_R", None, (-3, 3, 0, 6), "01643a7a8e3e6839c706da2f7d9674237c1a920a6c81c942b2abe18c0704c94c"),
    ("KGL2_R", None, (0, 6, 2, 8), "428f363e1bbeb50ad06e948d018c8fb27aae1a1bd5e9cf0c4de6a826720ec8cb"),
    ("HFP_ODD_R", 3, (-6, 6, -6, 6), "0e2cb10a59cd09b4bfae99b2daede1d7971005db1f0d09280acb42769b300b59"),
    ("KGL2_R", 2, (-10, 10, -10, 10), "e4cd5d715ea8c72a1518ceac8c05bed4ae456b886c11a987aca0c539b7f6d659"),
]


@pytest.mark.parametrize("name,prime,window,digest", PINNED)
def test_realize_json_is_byte_identical(name, prime, window, digest) -> None:
    assert hashlib.sha256(emit_json(realize(name, prime, window))).hexdigest() == digest


# (preset, prime, operation, multiplier, steps) on the expansion over (-5,5)x(-6,4)
PINNED_LOCALIZATIONS = [
    ("KGL2_R", None, invert, "tau4", None, "e4dbd251eb38bc8be2bba517a07d582ec6332046a4b21f82d663f798b054fdc9"),
    ("KGL2_R", None, invert, "rho", 3, "da1b81fcfd1f8f1f6738b787a2b7493ae002f6686addc478c5d80955a25d9d2e"),
    ("KGL2_R", None, complete, "rho", None, "b51262e848b3d9b580355824a8c06bc3efd52e8b25b26af71417d220fa9ae746"),
    ("KGL2_R", None, complete, "rho", 3, "ca16ad67c2941b779f59c1e3de634727a3b9ea18263b0cceaf8bbdcc36e71fb8"),
    ("HFP_ODD_R", 3, complete, "rho", None, "71c0cdd0bf03ef99b0ffdfa408f0373c07c7659704fed8fe0f9994e281247d8d"),
]


@pytest.mark.parametrize("name,prime,operation,mult,steps,digest", PINNED_LOCALIZATIONS)
def test_localization_json_is_byte_identical(name, prime, operation, mult, steps, digest) -> None:
    module = expand(preset_presentation(name, prime), (-5, 5, -6, 4))
    assert hashlib.sha256(emit_json(operation(module, mult, steps=steps))).hexdigest() == digest


PINNED_ODD_SPLIT = (
    "68d229af8c5f6fa67c34b956d7cbd8741523fc275745831d0025ea1d619ce0aa",
    "970f53975c553359d2b2706bcd8619880415c18a03ea6e7554ba75f2707ae544",
)


def test_odd_split_json_is_byte_identical() -> None:
    parts = odd_split("HFP_ODD_R", 3, (-6, 6, -6, 6))
    assert tuple(hashlib.sha256(emit_json(part)).hexdigest() for part in parts) == PINNED_ODD_SPLIT


SWEEP_PRESETS = [("HF2_R", None), ("HZ2_R", None), ("KGL2_R", None), ("HFP_ODD_R", 3), ("HFP_ODD_R", 5)]
# one window in each quadrant of the (i, j) plane
SWEEP_WINDOWS = [(1, 4, 1, 4), (-4, -1, 1, 4), (-4, -1, -4, -1), (1, 4, -4, -1)]
# output subwindows of the (-5,5)x(-6,4) expansion: inside, on the low corner, on the high corner
# every known degree, so the presets are also localized along multipliers they lack
SWEEP_MULTIPLIERS = ("rho", "tau", "tau2", "tau4", "v1")
SWEEP_SUBWINDOWS = [(-3, 2, -4, 1), (-5, 0, -6, -1), (1, 5, 0, 4)]


def sweep_records():
    """Canonical bytes of every sweep output; a refusal records its message."""

    def record(tag, run):
        try:
            out = run()
        except (ValueError, RuntimeError) as exc:
            return [tag, f"{type(exc).__name__}: {exc}".encode()]
        if hasattr(out, "dropped"):
            return [tag, emit_json(out), repr(out.dropped).encode()]
        return [tag] + [emit_json(part) for part in out]

    out = []
    for name, prime in SWEEP_PRESETS:
        for window in SWEEP_WINDOWS:
            out += record(f"realize {name} {prime} {window}".encode(), lambda: realize(name, prime, window))
    for p in (3, 5, 7):
        out += record(f"odd_split {p}".encode(), lambda: odd_split("HFP_ODD_R", p, (-6, 6, -6, 6)))
    for name, prime in SWEEP_PRESETS:
        module = expand(preset_presentation(name, prime), (-5, 5, -6, 4))
        for mult in sorted(set(module.multipliers) | set(SWEEP_MULTIPLIERS)):
            for operation in (invert, complete):
                for steps in (None, 1, 2):
                    for window in SWEEP_SUBWINDOWS:
                        tag = f"{operation.__name__} {name} {prime} {mult} {steps} {window}".encode()
                        out += record(tag, lambda: (operation(module, mult, steps=steps, window=window),))
    return out


PINNED_SWEEP = "58e2f38cb64dcceb6f0d6ebeb242c5f73875836d809ed7cb9842da68b9229041"


def test_sweep_is_byte_identical() -> None:
    digest = hashlib.sha256()
    for chunk in sweep_records():
        digest.update(len(chunk).to_bytes(8, "big") + chunk)
    assert digest.hexdigest() == PINNED_SWEEP


@pytest.mark.parametrize("window", SWEEP_WINDOWS, ids=str)
@pytest.mark.parametrize("name,prime", SWEEP_PRESETS)
def test_sweep_realizations_equal_the_reference(name, prime, window) -> None:
    report = realize(name, prime, window)
    assert report.certificates_hold()
    assert report.result.unverified == frozenset()
    assert cellwise_diff(report.result, reference_realization(name, prime, window)) == []
