"""Canonical JSON of realize, invert and complete, pinned byte for byte.

The digests were recorded before the hot path of realize was rebuilt
around sliding-window chain composites, per-call isomorphism verdicts
and a shared zero cell; the wide KGL2 window and the odd split were
recorded before expand pruned dead monomials and before each stage was
handed only the part of the expansion its chains reach.  The sweep
digest was recorded before the stages were made to visit only the
support of their inputs, and re-pinned when realize stopped running a
completion check on inputs whose rho is not inverted: seven sweep
records that were refusals became answers (SWEEP_ANSWERED), and no other
record moved.  Any change in a cell, flag, edge matrix or provenance
entry changes the bytes and fails here.
"""

import hashlib

import pytest

from fracture import complete, emit_json, expand, invert, odd_split, preset_presentation, realize, reference_realization

PINNED = [
    ("HF2_R", None, (-3, 3, -3, 3), "44c73288825777136cf9049196861d7f9beffa5ff9654fcd80a3ee9ec2836eb1"),
    ("HZ2_R", None, (-3, 3, 0, 6), "4dc6ada23c0f686ea8f7dce4ed27a8834dd2681bd9d4c83aca1056145ee9c5d3"),
    ("KGL2_R", None, (0, 6, 2, 8), "52178041172b855b26605ca97e902968bf967497b96fe64d5c6863f6b4047883"),
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
    "69cc580c5b967621538beab7f3170a2521e0b5a2b6563fefca1a0b43c18dbf5e",
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
            for pad in (None, 1, 2):
                tag = f"realize {name} {prime} {window} {pad}".encode()
                out += record(tag, lambda: realize(name, prime, window, pad=pad))
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


PINNED_SWEEP = "4bbab9a93b3079154df7e82d857b7e4e346e6bcae6a90f32a0b8354faabba5bc"


def test_sweep_is_byte_identical() -> None:
    digest = hashlib.sha256()
    for chunk in sweep_records():
        digest.update(len(chunk).to_bytes(8, "big") + chunk)
    assert digest.hexdigest() == PINNED_SWEEP


# (preset, window, pad, cells that differ from the reference): the sweep
# records that a completion run on the padded expansion used to refuse
SWEEP_ANSWERED = [
    ("HF2_R", (-4, -1, -4, -1), 1, 0),
    ("HZ2_R", (-4, -1, -4, -1), 1, 0),
    ("KGL2_R", (1, 4, 1, 4), 1, 2),
    ("KGL2_R", (1, 4, 1, 4), 2, 1),
    ("KGL2_R", (-4, -1, -4, -1), 1, 0),
    ("KGL2_R", (1, 4, -4, -1), 1, 0),
    ("KGL2_R", (1, 4, -4, -1), 2, 0),
]


@pytest.mark.parametrize("name,window,pad,wrong", SWEEP_ANSWERED)
def test_answered_sweep_records_hold_their_certificates(name, window, pad, wrong) -> None:
    report = realize(name, 2, window, pad=pad)
    assert report.certificates_hold()
    reference = reference_realization(name, 2, window)
    differ = [d for d in report.result.window.cells() if report.result.cell(d) != reference.cell(d)]
    assert len(differ) == wrong
    assert report.result.unverified.issuperset(differ)
