"""Per-layer tracing by wrapping fracture's module attributes from outside.

Nothing under ``src/`` changes: the tracer replaces module attributes
(the names each module looks up at call time) with timing wrappers and
puts the originals back when it is uninstalled.  Spans nest through a
stack, so a layer's self time is its total time minus the time of the
wrapped calls it made.  The PGroup and PHom constructors are counted,
not timed: they run hundreds of thousands of times per request.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name).  A name may be wrapped in several
# modules; each call site goes through exactly one of them.
SPANS = (
    ("fracture.assembler", "expand", "presentation.expand"),
    ("fracture.assembler", "invert", "localization.invert"),
    ("fracture.assembler", "complete", "localization.complete"),
    ("fracture.assembler", "composite_action", "localization.composite_action"),
    ("fracture.assembler", "insertion", "localization.insertion"),
    ("fracture.assembler", "rho_complete_defect", "assembler.defect_check"),
    ("fracture.assembler", "corners", "assembler.corners"),
    ("fracture.assembler", "assemble", "assembler.assemble"),
    ("fracture.assembler", "restrict", "bigraded.restrict"),
    ("fracture.assembler", "kernel", "snf.kernel"),
    ("fracture.assembler", "cokernel", "snf.cokernel"),
    ("fracture.assembler", "solve_hom", "snf.solve_hom"),
    ("fracture.localization", "composite_action", "localization.composite_action"),
    ("fracture.localization", "is_isomorphism", "snf.is_isomorphism"),
    ("fracture.localization", "cokernel", "snf.cokernel"),
    ("fracture.localization", "span_equal", "snf.span_equal"),
    ("fracture.localization", "invert_iso", "snf.invert_iso"),
    ("fracture.localization", "act", "bigraded.act"),
    ("fracture.snf", "smith_normal_form", "snf.smith_normal_form"),
    ("fracture.presets", "parse_presentation", "presentation.parse"),
    ("fracture.cli", "parse_presentation", "presentation.parse"),
    ("fracture.cli", "validate_module", "bigraded.validate_module"),
    ("fracture.cli", "render", "charts.render"),
    ("fracture.cli", "main", "cli.main"),
)

COUNTED = (("fracture.bigraded", "PGroup", "bigraded.pgroup"), ("fracture.bigraded", "PHom", "bigraded.phom"))


def _expand_cells(args, kwargs):
    imin, imax, jmin, jmax = kwargs.get("window") or args[1]
    return (imax - imin + 1) * (jmax - jmin + 1)


def _snf_entries(args, kwargs):
    a = args[0]
    rows = args[2] if len(args) > 2 else kwargs.get("rows")
    cols = args[3] if len(args) > 3 else kwargs.get("cols")
    rows = len(a) if rows is None else rows
    cols = (len(a[0]) if a else 0) if cols is None else cols
    return rows * cols


class Tracer:
    """Span self times, call counts and a few sizes, accumulated."""

    def __init__(self):
        self.self_time = {}
        self.calls = {}
        self.constructed = {name: 0 for _, _, name in COUNTED}
        self.expand_cells = 0
        self.max_snf_entries = 0
        self._stack = []
        self._saved = []

    def span(self, name, fn, probe=None):
        """Wrap fn so each call records a span called name."""
        stack = self._stack
        self_time, calls = self.self_time, self.calls
        self_time.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1

        return wrapper

    def _probe_expand(self, args, kwargs):
        self.expand_cells += _expand_cells(args, kwargs)

    def _probe_snf(self, args, kwargs):
        self.max_snf_entries = max(self.max_snf_entries, _snf_entries(args, kwargs))

    def install(self):
        probes = {"presentation.expand": self._probe_expand, "snf.smith_normal_form": self._probe_snf}
        for modname, attr, name in SPANS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, probes.get(name)))
        for modname, attr, name in COUNTED:
            cls = getattr(importlib.import_module(modname), attr)
            original = cls.__init__
            self._saved.append((cls, "__init__", original))
            cls.__init__ = self._counting_init(name, original)

    def _counting_init(self, name, original):
        constructed = self.constructed

        def __init__(obj, *args, **kwargs):
            constructed[name] += 1
            original(obj, *args, **kwargs)

        return __init__

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
