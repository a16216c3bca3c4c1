"""Command line driver for realization, expansion and localization.

Subcommands take a module as a preset name or a path to a presentation
file, a window of bidegrees, and write json, ascii or svg output to a
file or stdout.  Exit status is 0 on success, 1 when the input is
refused or a check fails, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .assembler import RhoCompleteError, realize
from .bigraded import Window, validate_module
from .charts import render
from .localization import complete, invert
from .presentation import BudgetError, ParseError, expand, parse_presentation
from .presets import PRESET_NAMES, preset_presentation, resolve_preset


class UsageError(Exception):
    """A bad flag value noticed after argument parsing."""


def window_arg(text):
    try:
        ipart, jpart = text.split(",")
        imin, imax = (int(x) for x in ipart.split(":"))
        jmin, jmax = (int(x) for x in jpart.split(":"))
        w = Window(imin, imax, jmin, jmax)
        w.check()
        return w
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected imin:imax,jmin:jmax, got {text!r}"
        ) from None


def _add_module_args(p):
    p.add_argument(
        "--module",
        required=True,
        help=f"preset name ({', '.join(sorted(PRESET_NAMES))}) or presentation file",
    )
    p.add_argument("--prime", type=int, default=None, help="coefficient prime")
    p.add_argument(
        "--window",
        type=window_arg,
        default=None,
        help="bidegree rectangle imin:imax,jmin:jmax",
    )


def _add_output_args(p):
    p.add_argument("--format", choices=("json", "ascii", "svg"), default="json")
    p.add_argument("--out", default=None, help="output path; stdout when omitted")


def _add_realize_args(p):
    p.add_argument(
        "--assert-rho-complete",
        action="store_true",
        help="skip the rho-completeness check and take the contract on faith;"
        " matters only for presentations that invert rho, the only ones checked",
    )


def _load_presentation(args):
    value = args.module
    try:
        resolve_preset(value)
    except ValueError:
        pass
    else:
        return preset_presentation(value, args.prime)
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            pres = parse_presentation(fh.read())
        if args.prime is not None and pres.prime != args.prime:
            raise ValueError(f"presentation is at prime {pres.prime}, got {args.prime}")
        return pres
    raise UsageError(f"--module: {value!r} is neither a preset nor a file")


def _emit(data, out):
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _realized(args):
    return realize(_load_presentation(args), args.prime, args.window, rho_complete=args.assert_rho_complete)


def run_realize(args):
    _emit(render(_realized(args), args.format), args.out)
    return 0


def run_expand(args):
    module = expand(_load_presentation(args), args.window)
    _emit(render(module, args.format), args.out)
    return 0


def _failed(problems):
    """Print each problem; whether there was any."""
    for line in problems:
        print(line)
    return bool(problems)


def run_localize(args):
    module = args.localize(_load_presentation(args), args.mult, window=args.window)
    if _failed(validate_module(module)):
        return 1
    _emit(render(module, args.format), args.out)
    return 0


def run_check(args):
    report = _realized(args)
    if _failed(validate_module(report.result) + report.certificate_failures()):
        return 1
    print(
        f"ok: {len(report.result.cells)} nonzero cells,"
        f" certificates hold, module validates"
    )
    return 0


def _command(sub, name, text, func, **defaults):
    p = sub.add_parser(name, help=text, description=text)
    p.set_defaults(func=func, **defaults)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracture",
        description="Exact realization of bigraded modules through the fracture square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "realize", "run the full pipeline and print the result", run_realize)
    _add_module_args(p)
    _add_output_args(p)
    _add_realize_args(p)

    p = _command(sub, "expand", "expand a presentation into cells on a window", run_expand)
    _add_module_args(p)
    _add_output_args(p)

    for name, localize, what, mult_help in (
        ("invert", invert, "invert a span action of the presentation", "span action to invert"),
        ("complete", complete, "complete along a span action degreewise", "span action to complete along"),
    ):
        p = _command(sub, name, what, run_localize, localize=localize)
        _add_module_args(p)
        _add_output_args(p)
        p.add_argument("--mult", required=True, help=mult_help)

    p = _command(sub, "check", "realize and verify certificates and validity", run_check)
    _add_module_args(p)
    _add_realize_args(p)

    return parser


def _glue_window_values(argv):
    # A window like -3:3,-3:3 starts with a dash and argparse would read
    # it as a flag; gluing it onto --window= keeps the space-separated
    # spelling usable.
    out = []
    it = iter(argv)
    for token in it:
        if token == "--window":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--window={value}")
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_window_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RhoCompleteError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ParseError, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
