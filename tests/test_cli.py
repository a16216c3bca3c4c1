"""Driver tests: flags, formats, files, exit codes and the refusal path.

Most cases call main() in process and compare output bytes against the
library functions the subcommands wrap; the README's command lines and
each subcommand's --help run the same way.  The realize round trip and the
refusal contract also run as real subprocesses, since their exit status
is part of the interface.
"""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fracture.assembler import CONTRACT_MESSAGE, realize
from fracture.bigraded import BigradedModule, PGroup, Window, phom_identity, validate_module
from fracture.charts import emit_json, render_ascii
from fracture.cli import build_parser, main, window_arg
from fracture.localization import COMPLETION_CAVEAT, invert
from fracture.presentation import BUDGET_ENV_VAR, expand, print_presentation
from fracture.presets import preset_presentation, reference_realization

RHO_INVERTED_SOURCE = """\
prime 2
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·rho
span 1·rho^-1
"""

TATE_STYLE_SOURCE = """\
prime 2
gen tau 0 -1
gen rho -1 -1 inv
rel 2·1
span 1·1
span 1·tau
span 1·rho
span 1·rho^-1
"""


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "fracture", *argv]
    return subprocess.run(cmd, capture_output=True, timeout=120)


def test_realize_subprocess_matches_reference() -> None:
    proc = run_cli(
        "realize", "--module", "hf2", "--prime", "2",
        "--window", "-3:3,-3:3", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    got = {(c["i"], c["j"]): (c["rank"], tuple(c["torsion"])) for c in payload["cells"]}
    reference = reference_realization("hf2", 2, (-3, 3, -3, 3))
    want = {tuple(d): (g.rank, g.torsion) for d, g in reference.cells.items()}
    assert got == want
    assert all(c["flags"] == ["verified"] for c in payload["cells"])


@pytest.mark.parametrize("command", ["realize", "check", "invert", "complete"])
def test_no_command_takes_steps(command, capsys) -> None:
    # every answer is exact, so there is no truncation depth to set
    argv = [command, "--module", "hf2", "--window", "-4:4,-4:4", "--steps", "1"]
    assert main(argv + (["--mult", "rho"] if command in ("invert", "complete") else [])) == 2
    assert "unrecognized arguments: --steps 1" in capsys.readouterr().err


def test_realize_out_file_is_report_emission(tmp_path) -> None:
    out = tmp_path / "chart.json"
    code = main([
        "realize", "--module", "hz2", "--window", "-2:2,-2:2", "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == emit_json(realize("hz2", 2, (-2, 2, -2, 2)))


def test_expand_ascii_matches_library(capsysbinary) -> None:
    code = main([
        "expand", "--module", "hf2", "--window", "-2:2,-2:2", "--format", "ascii",
    ])
    assert code == 0
    module = expand(preset_presentation("hf2"), Window(-2, 2, -2, 2))
    assert capsysbinary.readouterr().out == render_ascii(module).encode("utf-8")


def test_invert_matches_library(capsysbinary) -> None:
    code = main([
        "invert", "--module", "hf2", "--mult", "rho", "--window", "-2:2,-2:2",
    ])
    assert code == 0
    assert capsysbinary.readouterr().out == emit_json(invert("hf2", "rho", window=(-2, 2, -2, 2)))


def test_invert_along_a_scalar_exits_one_naming_it(capsysbinary) -> None:
    assert main(["invert", "--module", "kgl2", "--mult", "2tau2", "--window", "-3:3,-3:3"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode("utf-8") == "error: cannot invert '2tau2': its scalar 2 is not 1\n"


@pytest.mark.parametrize("command", ["invert", "complete"])
def test_a_localization_that_fails_validation_exits_one(command, monkeypatch, capsysbinary) -> None:
    # a module whose rho and tau actions do not commute, as check prints it
    a = PGroup(2, 0, (1,))
    broken = BigradedModule(
        2,
        Window(-1, 0, -2, 0),
        {(0, 0): a, (-1, -1): a, (0, -1): a, (-1, -2): a},
        {("rho", (0, 0)): phom_identity(a), ("tau", (0, 0)): phom_identity(a), ("tau", (-1, -1)): phom_identity(a)},
        {"tau": (0, -1), "rho": (-1, -1)},
    )
    problems = validate_module(broken)
    assert problems
    monkeypatch.setattr(f"fracture.cli.{command}", lambda *args, **kwargs: broken)
    assert main([command, "--module", "hf2", "--mult", "rho", "--window", "-2:2,-2:2"]) == 1
    assert capsysbinary.readouterr().out.decode("utf-8") == "".join(line + "\n" for line in problems)


def test_complete_records_caveat(capsysbinary) -> None:
    code = main([
        "complete", "--module", "hf2", "--mult", "tau", "--window", "-2:2,-2:2",
    ])
    assert code == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert COMPLETION_CAVEAT in payload["caveats"]


def test_removed_subcommand_is_a_usage_error(capsys) -> None:
    assert main(["regions", "--window", "0:6,0:4"]) == 2
    assert "invalid choice: 'regions'" in capsys.readouterr().err


def test_check_reports_ok(capsysbinary) -> None:
    code = main(["check", "--module", "hf2", "--window", "-2:2,-2:2"])
    assert code == 0
    out = capsysbinary.readouterr().out.decode("utf-8")
    assert out.startswith("ok:")
    assert "certificates hold" in out


def test_check_prints_failing_certificates(monkeypatch, capsysbinary) -> None:
    report = realize("hf2", 2, (-2, 2, -2, 2))
    part = report.parts[(0, 0)]
    broken = report._replace(parts={**report.parts, (0, 0): part._replace(kernel=part.cokernel)})
    monkeypatch.setattr("fracture.cli.realize", lambda *args, **kwargs: broken)
    assert main(["check", "--module", "hf2", "--window", "-2:2,-2:2"]) == 1
    out = capsysbinary.readouterr().out.decode("utf-8")
    assert out == "".join(line + "\n" for line in broken.certificate_failures())
    assert out.startswith("cell (0, 0): splice order equation fails:")


def test_refusal_exits_nonzero_with_contract_message(tmp_path) -> None:
    src = tmp_path / "rho_inverted.txt"
    src.write_text(RHO_INVERTED_SOURCE, encoding="utf-8")
    proc = run_cli(
        "realize", "--module", str(src), "--window", "-2:2,-2:2", "--format", "json",
    )
    assert proc.returncode == 1
    assert proc.stderr.decode("utf-8").startswith(CONTRACT_MESSAGE)


# inputs with no tau power realize can invert, and the error each is refused with
TAU_LESS = {
    "without-tau": (
        "prime 2\ngen rho -1 -1\ngen tau 0 -1\ngen v 1 1\nrel 4·rho\nspan 1·1\nspan 1·rho\nspan 1·tau*v^3\n",
        [],
        "input has no tau power action to invert",
    ),
    "without-tau2": (
        "prime 3\ngen rho -1 -1\ngen tau 0 -1\nrel 3·1\nspan 1·1\nspan 1·rho\nspan 1·tau\n",
        [],
        "odd-primary input needs a tau2 action to invert",
    ),
    "asserted-rho-f2": (RHO_INVERTED_SOURCE, ["--assert-rho-complete"], "input has no tau power action to invert"),
}


@pytest.mark.parametrize("name", TAU_LESS)
@pytest.mark.parametrize("command", ["realize", "check"])
def test_tau_less_input_exits_one_with_its_own_error(command, name, tmp_path, capsysbinary) -> None:
    source, flags, message = TAU_LESS[name]
    src = tmp_path / f"{name}.txt"
    src.write_text(source, encoding="utf-8")
    assert main([command, "--module", str(src), "--window", "-30:30,-30:30", *flags]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode("utf-8") == f"error: {message}\n"


def test_override_realizes_file_module(tmp_path, capsysbinary) -> None:
    src = tmp_path / "tate_style.txt"
    src.write_text(TATE_STYLE_SOURCE, encoding="utf-8")
    code = main([
        "realize", "--module", str(src), "--window", "-2:2,-2:2",
        "--assert-rho-complete",
    ])
    assert code == 0
    payload = json.loads(capsysbinary.readouterr().out)
    cell = next(c for c in payload["cells"] if (c["i"], c["j"]) == (0, 0))
    assert cell["rank"] == 0
    assert cell["torsion"] == [1]


def test_usage_errors_exit_two(tmp_path, capsysbinary) -> None:
    assert main([]) == 2
    assert main(["realize"]) == 2
    assert main(["realize", "--module", "hf2", "--window", "bogus"]) == 2
    err = capsysbinary.readouterr().err.decode("utf-8")
    assert "--window" in err
    assert main(["realize", "--module", "nosuch", "--window", "0:1,0:1"]) == 2
    err = capsysbinary.readouterr().err.decode("utf-8")
    assert "--module" in err
    assert main([
        "realize", "--module", "hf2", "--window", "0:1,0:1", "--format", "pdf",
    ]) == 2


def test_window_arg_syntax() -> None:
    assert window_arg("-8:8,-8:8") == Window(-8, 8, -8, 8)
    for bad in ("1:2", "a:b,c:d", "2:1,0:0", "1:2,3:4,5:6"):
        with pytest.raises(argparse.ArgumentTypeError):
            window_arg(bad)


def test_prime_mismatch_on_file_module(tmp_path, capsysbinary) -> None:
    src = tmp_path / "two_primary.txt"
    src.write_text(TATE_STYLE_SOURCE, encoding="utf-8")
    code = main([
        "expand", "--module", str(src), "--prime", "3", "--window", "0:1,0:1",
    ])
    assert code == 1
    assert "prime" in capsysbinary.readouterr().err.decode("utf-8")


def test_odd_preset_requires_explicit_prime(capsysbinary) -> None:
    code = main(["expand", "--module", "hfp_odd", "--window", "-2:2,-2:2"])
    assert code == 1
    assert "odd prime" in capsysbinary.readouterr().err.decode("utf-8")
    code = main([
        "expand", "--module", "hfp_odd", "--prime", "3", "--window", "-2:2,-2:2",
        "--format", "ascii",
    ])
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_bad_cell_budget_variable_is_refused_by_name(monkeypatch, capsysbinary, value) -> None:
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    with pytest.raises(ValueError, match=f"{BUDGET_ENV_VAR} must be an integer of at least 1, got '{value}'"):
        expand(preset_presentation("hf2"), Window(-2, 2, -2, 2))
    assert main(["expand", "--module", "hf2", "--window", "-2:2,-2:2"]) == 1
    err = capsysbinary.readouterr().err.decode("utf-8")
    assert err == f"error: {BUDGET_ENV_VAR} must be an integer of at least 1, got '{value}'\n"


def subcommand_texts():
    """Each subcommand's name and the text fracture --help lists for it."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(choice.dest, choice.help) for choice in sub._choices_actions]


@pytest.mark.parametrize("name,text", subcommand_texts(), ids=[name for name, _ in subcommand_texts()])
def test_subcommand_help_says_what_it_does(name, text, capsys) -> None:
    assert main([name, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: fracture {name}")
    # argparse rewraps the description to the terminal width
    assert " ".join(text.split()) in " ".join(out.split())


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines():
    """The fracture lines of the sh block in README's Command line section."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fracture ")]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_exits_zero(line, tmp_path, capsysbinary) -> None:
    module = tmp_path / "my_module.txt"
    pres = preset_presentation("hf2")._replace(window=Window(-3, 3, -3, 3))
    module.write_text(print_presentation(pres), encoding="utf-8")
    argv = [str(module) if arg == "my_module.txt" else arg for arg in shlex.split(line)[1:]]
    out = None
    if "--out" in argv:
        k = argv.index("--out") + 1
        out = argv[k] = str(tmp_path / argv[k])
    assert main(argv) == 0, capsysbinary.readouterr().err
    assert out is None or Path(out).stat().st_size > 0


def test_readme_lists_every_subcommand() -> None:
    used = {shlex.split(line)[1] for line in readme_command_lines()}
    assert used == {name for name, _ in subcommand_texts()}
