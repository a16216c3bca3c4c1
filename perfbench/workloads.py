"""Seeded requests for the three benchmark workloads, their execution and their oracle.

A workload is a function from a seeded ``random.Random`` to one *pass*: a
fixed-composition list of requests.  The seed chooses window translations,
window sizes, request order and which refusal inputs appear; the program
only ever sees the generated requests.

Every request is checked by an oracle that does not trust the program:
answers are compared cell by cell with ``reference_realization`` (an
independent closed form), certificates and ``validate_module`` must hold,
odd-primary realizations must equal the cellwise direct sum of the
``odd_split`` parts, and refusals must come out of the expected path.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import xml.etree.ElementTree as ET
from typing import NamedTuple

# Window translations are drawn from small finite sets so that the SHA-256
# of every output the benchmark can produce fits in output_sha256.json.
WIDE_SHIFTS = (-2, -1, 0, 1, 2)
ODD_SHIFTS = (-2, -1, 0, 1, 2)
ODD_PRIMES = (3, 5, 7)
SWEEP_MODULES = ("HF2_R", "HZ2_R", "KGL2_R")
SWEEP_FORMATS = ("check", "json", "ascii", "svg")
SWEEP_SIZES = (5, 6, 6, 7)
# Window centers: the 3x3 grid around the origin without its upper-left
# corner.  Windows wholly inside i < 0 < j come back with cells flagged
# verified that contradict both the reference and the realization of a
# larger window; DEFECT_PROBE keeps that defect in every run's report.
SWEEP_CENTERS = tuple((ci, cj) for ci in (-4, 0, 4) for cj in (-4, 0, 4) if (ci, cj) != (-4, 4))
# The rho-periodic inputs live on and below the diagonal i = j; the
# degreewise completeness check sees only the window, so their windows
# meet the diagonal (elsewhere the input fails later, with another error).
RHO_CENTERS = ((-4, -4), (0, 0), (4, 4))

# rho-periodic presentations: rho is invertible, so completing along it
# visibly changes the module and the realization contract refuses them.
RHO_PERIODIC = {
    "rho-f2": "prime 2\ngen rho -1 -1 inv\nrel 2·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-z4": "prime 2\ngen rho -1 -1 inv\nrel 4·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-f3": "prime 3\ngen rho -1 -1 inv\nrel 3·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-f5": "prime 5\ngen rho -1 -1 inv\nrel 5·1\nspan 1·1\nspan 1·rho\nspan 1·rho^-1\n",
    "rho-tau": (
        "prime 2\ngen rho -1 -1 inv\ngen tau 0 -1\nrel 2·1\n"
        "span 1·1\nspan 1·rho\nspan 1·rho^-1\nspan 1·tau\n"
    ),
}

# Malformed presentations: each must fail to parse.
MALFORMED = {
    "bad-prime": "prime 4\ngen tau 0 -1\nrel 4·1\nspan 1·1\n",
    "prime-late": "gen tau 0 -1\nprime 2\nspan 1·1\n",
    "unknown-directive": "prime 2\ngen tau 0 -1\nspam 1·tau\nspan 1·1\n",
    "unknown-generator": "prime 2\ngen tau 0 -1\nrel 2·rho\nspan 1·1\n",
    "bad-scalar": "prime 2\ngen rho -1 -1\nrel 3·rho\nspan 1·1\n",
    "short-gen": "prime 3\ngen tau 0\nspan 1·1\n",
    "not-invertible": "prime 2\ngen tau 0 -1\nspan 1·tau^-1\n",
    "bad-degree": "prime 2\ngen v1 two 1\nspan 1·v1\n",
}

EXPECT_ANSWER = "answer"
EXPECT_RHO = "rho"
EXPECT_PARSE = "parse"


class Request(NamedTuple):
    """One closed-loop request.

    kind is "realize" (library realize), "odd" (library odd_split plus
    realize at the same input) or "cli" (``fracture.cli.main``); fmt is the
    CLI command or format; source names a refusal input when there is one.
    """

    kind: str
    module: str
    prime: int
    window: tuple
    fmt: str = ""
    source: str = ""
    expect: str = EXPECT_ANSWER

    @property
    def cells(self):
        imin, imax, jmin, jmax = self.window
        return (imax - imin + 1) * (jmax - jmin + 1)

    def window_arg(self):
        imin, imax, jmin, jmax = self.window
        return f"{imin}:{imax},{jmin}:{jmax}"

    def argv(self, module_arg):
        if self.fmt == "check":
            return ["check", "--module", module_arg, "--window", self.window_arg()]
        return ["realize", "--module", module_arg, "--window", self.window_arg(), "--format", self.fmt]

    def key(self):
        """Stable name of the request, the prefix of its output hash keys."""
        if self.kind == "cli":
            return "cli " + " ".join(self.argv(self.source or self.module))
        return f"{self.kind} {self.module} {self.prime} {self.window_arg()}"


def _square(ci, cj, size):
    lo_i, lo_j = ci - size // 2, cj - size // 2
    return (lo_i, lo_i + size - 1, lo_j, lo_j + size - 1)


def kgl2_wide_pass(rng):
    di, dj = rng.choice(WIDE_SHIFTS), rng.choice(WIDE_SHIFTS)
    return [Request("realize", "KGL2_R", 2, (-10 + di, 10 + di, -10 + dj, 10 + dj))]


def kgl2_wide_universe():
    for di in WIDE_SHIFTS:
        for dj in WIDE_SHIFTS:
            yield Request("realize", "KGL2_R", 2, (-10 + di, 10 + di, -10 + dj, 10 + dj))


def odd_split_pass(rng):
    primes = list(ODD_PRIMES)
    rng.shuffle(primes)
    out = []
    for p in primes:
        di, dj = rng.choice(ODD_SHIFTS), rng.choice(ODD_SHIFTS)
        out.append(Request("odd", "HFP_ODD_R", p, (-6 + di, 6 + di, -6 + dj, 6 + dj)))
    return out


def odd_split_universe():
    for p in ODD_PRIMES:
        for di in ODD_SHIFTS:
            for dj in ODD_SHIFTS:
                yield Request("odd", "HFP_ODD_R", p, (-6 + di, 6 + di, -6 + dj, 6 + dj))


def _sweep_window(rng, centers=SWEEP_CENTERS):
    return _square(*rng.choice(centers), rng.choice(SWEEP_SIZES))


def small_sweep_pass(rng):
    """Twelve answering CLI requests and two refusals, in seeded order.

    Every pass holds each (module, command) pair once, so passes differ
    only in translation, size and order, and one request in seven is
    refused: one rho-periodic input and one malformed text.
    """
    out = []
    for module in SWEEP_MODULES:
        sizes = list(SWEEP_SIZES)
        rng.shuffle(sizes)
        for fmt, size in zip(SWEEP_FORMATS, sizes):
            window = _square(*rng.choice(SWEEP_CENTERS), size)
            out.append(Request("cli", module, 2, window, fmt))
    refusal_fmt = rng.choice(("check", "json"))
    rho = rng.choice(sorted(RHO_PERIODIC))
    window = _sweep_window(rng, RHO_CENTERS)
    out.append(Request("cli", rho, 0, window, refusal_fmt, rho, EXPECT_RHO))
    bad = rng.choice(sorted(MALFORMED))
    out.append(Request("cli", bad, 0, _sweep_window(rng), refusal_fmt, bad, EXPECT_PARSE))
    rng.shuffle(out)
    return out


def small_sweep_universe():
    for module in SWEEP_MODULES:
        for size in sorted(set(SWEEP_SIZES)):
            for ci, cj in SWEEP_CENTERS:
                for fmt in SWEEP_FORMATS:
                    yield Request("cli", module, 2, _square(ci, cj, size), fmt)


DEFECT_PROBE = Request("realize", "HF2_R", 2, _square(-4, 4, 6))


class Workload(NamedTuple):
    make_pass: object
    universe: object
    warmup: Request
    presets: tuple  # (name, prime) pairs parsed by the set-up measurement


WORKLOADS = {
    "kgl2-wide": Workload(
        kgl2_wide_pass,
        kgl2_wide_universe,
        Request("realize", "HF2_R", 2, (0, 0, 0, 0)),
        (("KGL2_R", 2),),
    ),
    "small-sweep": Workload(
        small_sweep_pass,
        small_sweep_universe,
        Request("cli", "HF2_R", 2, (0, 0, 0, 0), "check"),
        tuple((m, 2) for m in SWEEP_MODULES),
    ),
    "odd-split": Workload(
        odd_split_pass,
        odd_split_universe,
        Request("odd", "HFP_ODD_R", 3, (0, 0, 0, 0)),
        tuple(("HFP_ODD_R", p) for p in ODD_PRIMES),
    ),
}


def write_sources(workdir):
    """Write every refusal input to a file; returns name -> path."""
    paths = {}
    for name, text in {**RHO_PERIODIC, **MALFORMED}.items():
        path = workdir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


class Runner:
    """Executes requests against the fracture package and checks them."""

    def __init__(self, fracture, source_paths):
        self.fr = fracture
        self.source_paths = source_paths
        self.cli = importlib.import_module("fracture.cli")
        self._references = {}

    def call(self, req):
        """The timed part of a request: one call into the public API."""
        fr = self.fr
        if req.kind == "realize":
            return fr.realize(req.module, req.prime, req.window)
        if req.kind == "odd":
            parts = fr.odd_split(req.module, req.prime, req.window)
            return parts, fr.realize(req.module, req.prime, req.window)
        argv = req.argv(self.source_paths[req.source] if req.source else req.module)
        out = io.BytesIO()
        text = io.TextIOWrapper(out, encoding="utf-8", newline="")
        err = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
            text.flush()
        text.detach()
        return code, out.getvalue(), err.getvalue()

    def reference(self, module, prime, window):
        key = (module, prime, window)
        if key not in self._references:
            self._references[key] = self.fr.reference_realization(module, prime, window)
        return self._references[key]

    def known_defect_cells(self):
        """Cells of DEFECT_PROBE whose realization contradicts the reference."""
        req = DEFECT_PROBE
        result = self.call(req).result
        ref = self.reference(req.module, req.prime, req.window)
        return sum(result.cell(d) != ref.cell(d) for d in self.fr.Window(*req.window).cells())

    def check(self, req, result):
        """Oracle: returns (problems, outputs), outputs mapping hash key -> bytes."""
        if req.kind == "realize":
            return self._check_report(req, result), {req.key() + " json": self.fr.emit_json(result)}
        if req.kind == "odd":
            return self._check_odd(req, result)
        code, out, err = result
        if req.expect == EXPECT_RHO:
            ok = code == 1 and out == b"" and err.startswith(self.fr.CONTRACT_MESSAGE)
            return ([] if ok else [f"expected rho refusal, got exit {code}: {err[:120]!r}"]), {}
        if req.expect == EXPECT_PARSE:
            return self._check_parse_refusal(req, code, out, err), {}
        if code != 0 or err:
            return [f"exit {code}: {err[:200]!r}"], {}
        return self._check_cli_answer(req, out), {req.key(): out}

    def _cell_problems(self, module, ref, window):
        imin, imax, jmin, jmax = window
        problems = []
        for i in range(imin, imax + 1):
            for j in range(jmin, jmax + 1):
                got, want = module.cell((i, j)), ref.cell((i, j))
                if got != want:
                    problems.append(f"cell ({i},{j}): {got} != reference {want}")
        if module.window != self.fr.Window(*window):
            problems.append(f"window {tuple(module.window)} != requested {window}")
        return problems

    def _check_report(self, req, report):
        ref = self.reference(req.module, req.prime, req.window)
        problems = self._cell_problems(report.result, ref, req.window)
        if not report.certificates_hold():
            problems.append("certificates do not hold")
        problems.extend(self.fr.validate_module(report.result))
        return problems

    def _check_odd(self, req, result):
        (geometric, unit), report = result
        problems = self._check_report(req, report)
        for part in (geometric, unit):
            problems.extend(self.fr.validate_module(part))
        imin, imax, jmin, jmax = req.window
        for i in range(imin, imax + 1):
            for j in range(jmin, jmax + 1):
                a, b, total = geometric.cell((i, j)), unit.cell((i, j)), report.result.cell((i, j))
                summed = (a.rank + b.rank, tuple(sorted(a.torsion + b.torsion, reverse=True)))
                if summed != (total.rank, total.torsion):
                    problems.append(f"cell ({i},{j}): realize {total} != odd_split sum {a} + {b}")
        key = req.key()
        outputs = {
            key + " realize json": self.fr.emit_json(report),
            key + " phi json": self.fr.emit_json(geometric),
            key + " unit json": self.fr.emit_json(unit),
        }
        return problems, outputs

    def _check_parse_refusal(self, req, code, out, err):
        text = MALFORMED[req.source]
        try:
            self.fr.parse_presentation(text)
        except self.fr.ParseError as exc:
            expected = f"error: {exc}\n"
        else:
            return [f"{req.source}: malformed text parsed"]
        if code != 1 or out or err != expected:
            return [f"{req.source}: expected exit 1 with {expected!r}, got exit {code}: {err[:120]!r}"]
        return []

    def _check_cli_answer(self, req, out):
        fr = self.fr
        ref = self.reference(req.module, req.prime, req.window)
        if req.fmt == "check":
            want = f"ok: {len(ref.cells)} nonzero cells, certificates hold, module validates\n"
            return [] if out == want.encode("utf-8") else [f"check printed {out[:120]!r}"]
        if req.fmt == "ascii":
            got = _ascii_cells(out.decode("utf-8"))
            return [] if got == _ascii_cells(fr.render_ascii(ref)) else ["ascii chart differs from reference"]
        if req.fmt == "svg":
            ET.fromstring(out)
            got = _svg_cells(out.decode("utf-8"))
            return [] if got == _svg_cells(fr.render_svg(ref)) else ["svg cells differ from reference"]
        module = fr.load_json(out)
        problems = self._cell_problems(module, ref, req.window)
        problems.extend(fr.validate_module(module))
        for cell in json.loads(out)["cells"]:
            prov = cell.get("provenance")
            if prov is None:
                if cell["rank"] or cell["torsion"]:
                    problems.append(f"cell ({cell['i']},{cell['j']}): no provenance")
                continue
            k, c = prov["kernel"], prov["cokernel"]
            if (cell["rank"], sum(cell["torsion"])) != (
                k["rank"] + c["rank"],
                sum(k["torsion"]) + sum(c["torsion"]),
            ):
                problems.append(f"cell ({cell['i']},{cell['j']}): splice order equation fails")
        return problems


# Charts mark cells the truncation could not certify: "?" on a zero cell
# and gray ink in svg.  The reference has no flags, so the oracle compares
# values only and reads those marks as the plain glyph.


def _ascii_cells(text):
    return [line.replace("?", " ").rstrip() for line in text.splitlines()]


def _svg_cells(text):
    out = []
    for line in text.splitlines():
        # Edges are the only black lines; the reference carries cells only.
        if line.startswith("<line ") and 'stroke="#000000"' in line:
            continue
        if line.endswith(">?</text>"):
            continue
        out.append(line.replace("#888888", "#000000"))
    return out


def sha256(data):
    return hashlib.sha256(data).hexdigest()
