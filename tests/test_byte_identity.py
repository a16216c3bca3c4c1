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
The sweep lost its pad axis with the pad.  When invert and complete
started answering from the presentation, exact in every cell, their
digests were split from the realize sweep, which kept its value, and
re-pinned.  The four wide windows were recorded before the splice and
the action transport were memoized per distinct local picture.  Any change in a cell, flag, edge matrix or provenance entry
changes the bytes and fails here.
"""

import hashlib

import pytest

from fracture import complete, emit_json, invert, odd_split, realize, reference_realization
from fracture.presentation import span_actions
from fracture.presets import preset_presentation

from helpers import cellwise_diff

PINNED = [
    ("HF2_R", None, (-3, 3, -3, 3), "44c73288825777136cf9049196861d7f9beffa5ff9654fcd80a3ee9ec2836eb1"),
    ("HZ2_R", None, (-3, 3, 0, 6), "01643a7a8e3e6839c706da2f7d9674237c1a920a6c81c942b2abe18c0704c94c"),
    ("KGL2_R", None, (0, 6, 2, 8), "428f363e1bbeb50ad06e948d018c8fb27aae1a1bd5e9cf0c4de6a826720ec8cb"),
    ("HFP_ODD_R", 3, (-6, 6, -6, 6), "0e2cb10a59cd09b4bfae99b2daede1d7971005db1f0d09280acb42769b300b59"),
    ("KGL2_R", 2, (-10, 10, -10, 10), "e4cd5d715ea8c72a1518ceac8c05bed4ae456b886c11a987aca0c539b7f6d659"),
    # wide windows, whose actions cross more distinct local pictures than any narrow one
    ("KGL2_R", None, (-30, 30, -30, 30), "53c4642c6910774035f175cf994f06c8ef31fb9d6d3f91f2875ea2fceb27ad19"),
    ("HF2_R", None, (-20, 20, -20, 20), "3e281f259fb47293a2325dbf50a1ecaba9cfc148790eaddc2c2552a73683fc5a"),
    ("HZ2_R", None, (-20, 20, -20, 20), "be9f9e4eaf53389c707c7ffc71b3fa0780e1df6ced683a767acb517a74245c1c"),
    ("HFP_ODD_R", 5, (-12, 12, -12, 12), "7113cf7f8be6b3481193f4fc611f98ce1cf591cd8d1d2e793a008178eecf7f8c"),
]


@pytest.mark.parametrize("name,prime,window,digest", PINNED)
def test_realize_json_is_byte_identical(name, prime, window, digest) -> None:
    assert hashlib.sha256(emit_json(realize(name, prime, window))).hexdigest() == digest


# (preset, prime, operation, multiplier) on (-5,5)x(-6,4)
PINNED_LOCALIZATIONS = [
    ("KGL2_R", None, invert, "tau4", "e7e0ae26d26653b460624c4ca966bb81bfc7198c73edf404319448f69c1ca5d9"),
    ("KGL2_R", None, invert, "rho", "386906093315241273088a9a0bd4e892a5ce96c08770d5666d1dc7c7306172e0"),
    ("KGL2_R", None, complete, "rho", "f2aaafb3ffba2d895b181fe7f17ddb0bcd04a452f7c7f83d60c43f8fa9c2bdca"),
    ("HF2_R", None, invert, "rho", "95573d3c59f78db7368bedf28d686f5eeb096d8262639b54ca365065945b52c4"),
    ("HFP_ODD_R", 3, complete, "tau2", "71c0cdd0bf03ef99b0ffdfa408f0373c07c7659704fed8fe0f9994e281247d8d"),
]


@pytest.mark.parametrize("name,prime,operation,mult,digest", PINNED_LOCALIZATIONS)
def test_localization_json_is_byte_identical(name, prime, operation, mult, digest) -> None:
    module = operation(name, mult, prime, (-5, 5, -6, 4))
    assert hashlib.sha256(emit_json(module)).hexdigest() == digest


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
# every known degree, so the presets are also asked for multipliers they lack
SWEEP_MULTIPLIERS = ("rho", "tau", "tau2", "tau4", "v1")
# windows of the localizations: inside (-5,5)x(-6,4), on its low corner, on its high corner
SWEEP_SUBWINDOWS = [(-3, 2, -4, 1), (-5, 0, -6, -1), (1, 5, 0, 4)]


def record(tag, run):
    """Canonical bytes of one sweep output, after its tag; a refusal records its message."""
    try:
        out = run()
    except (ValueError, RuntimeError) as exc:
        return [tag, f"{type(exc).__name__}: {exc}".encode()]
    if hasattr(out, "dropped"):
        return [tag, emit_json(out), repr(out.dropped).encode()]
    return [tag] + [emit_json(part) for part in out]


def realize_records():
    out = []
    for name, prime in SWEEP_PRESETS:
        for window in SWEEP_WINDOWS:
            out += record(f"realize {name} {prime} {window}".encode(), lambda: realize(name, prime, window))
    for p in (3, 5, 7):
        out += record(f"odd_split {p}".encode(), lambda: odd_split("HFP_ODD_R", p, (-6, 6, -6, 6)))
    return out


def localization_records():
    out = []
    for name, prime in SWEEP_PRESETS:
        pres = preset_presentation(name, prime)
        for mult in sorted(set(span_actions(pres)) | set(SWEEP_MULTIPLIERS)):
            for operation in (invert, complete):
                for window in SWEEP_SUBWINDOWS:
                    tag = f"{operation.__name__} {name} {prime} {mult} {window}".encode()
                    out += record(tag, lambda: (operation(pres, mult, window=window),))
    return out


def digest_of(records):
    digest = hashlib.sha256()
    for chunk in records:
        digest.update(len(chunk).to_bytes(8, "big") + chunk)
    return digest.hexdigest()


PINNED_SWEEP = "ec5dbc6df2bc7e67cd033a6dcba6c857698a6a41b1cefdc2bd304b1df4798953"
PINNED_LOCALIZATION_SWEEP = "e660ffcf0c5a6430addbe661b11f79649313d6e2a9106a4f30fd597debeb5784"


def test_sweep_is_byte_identical() -> None:
    assert digest_of(realize_records()) == PINNED_SWEEP


def test_localization_sweep_is_byte_identical() -> None:
    assert digest_of(localization_records()) == PINNED_LOCALIZATION_SWEEP


@pytest.mark.parametrize("window", SWEEP_WINDOWS, ids=str)
@pytest.mark.parametrize("name,prime", SWEEP_PRESETS)
def test_sweep_realizations_equal_the_reference(name, prime, window) -> None:
    report = realize(name, prime, window)
    assert report.certificates_hold()
    assert report.result.unverified == frozenset()
    assert cellwise_diff(report.result, reference_realization(name, prime, window)) == []
