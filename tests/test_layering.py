"""Import layering of the package, checked on its source without importing it,
the scipy modules the command line loads, and the command line's single
declaration of its run parameters."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multipeak"
MODULES = sorted(SRC.glob("*.py"))

# the numerical layers: none of them may depend on the front end or on Newton
LOWER = {"ansatz", "domain", "spectrum", "reduction", "weighted"}


def imports(path):
    """(module, names) for each import of a package module in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module, [a.name for a in node.names]
            elif node.level == 1:  # from . import x, y
                for alias in node.names:
                    yield alias.name, []
            elif (node.module or "").startswith("multipeak."):
                yield node.module.split(".", 1)[1], [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multipeak."):
                    yield alias.name.split(".", 1)[1], []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    for module, names in imports(path):
        private = [n for n in names if n.startswith("_")]
        assert not private, f"{path.stem} imports {private} from {module}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in LOWER], ids=lambda p: p.stem)
def test_lower_layers_do_not_import_cli_or_dancer(path):
    for module, _ in imports(path):
        assert module not in ("cli", "dancer"), f"{path.stem} imports {module}"


def callers(*names):
    """(module, top-level function) of every call of one of `names` in the package."""
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name in names:
                        yield path.stem, getattr(top, "name", None)


def test_one_factorization_primitive():
    """Nothing in the package is factored: B = −Δ+1 has its fast inverse, and 𝕃
    on the near-kernel's complement (the correction) and the pinned Newton
    Jacobian in frame coordinates are solved by MINRES, called in one place;
    no bordered assembly and no CG remain."""
    assert not list(callers("splu", "spsolve", "factorized", "factorize"))
    assert not [path.stem for path in MODULES if "splu" in path.read_text()]
    assert list(callers("minres")) == [("reduction", "ComplementSolver")]
    assert set(callers("pinned_solve")) == {("dancer", "newton_solve")}
    assert not set(callers("bmat", "cg"))


def test_cli_import_loads_no_interpolation():
    """The profile interpolates itself, so the front end loads no scipy.interpolate."""
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, multipeak.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "multipeak.groundstate" in loaded
    assert not [m for m in loaded if m.startswith("scipy.interpolate")]


def test_one_pipeline_step():
    """The ansatz → frame → correction chain is written out only in reduction.reduce,
    which solves no eigenproblem: the rotated near-kernel eigenvectors are a
    diagnostic of the spectrum command alone, and the reduction layer imports
    no eigensolver."""
    assert set(callers("solve_correction")) == {("reduction", "reduce")}
    assert set(callers("lowest_eigenpairs", "near_kernel_basis")) == {("cli", "cmd_spectrum")}
    imported = {a.name for node in ast.walk(ast.parse((SRC / "reduction.py").read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not imported & {"lowest_eigenpairs", "near_kernel_basis", "eigsh", "eigs", "eigh"}


# flags that are not run parameters: outputs and report switches
NON_PARAMETER_FLAGS = {"out", "profile_out", "weighted_report"}


def leaf_parsers(parser):
    """(summary name, parser) of every subcommand that runs."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser.get_default("command"), parser
    for action in subs:
        for child in action.choices.values():
            yield from leaf_parsers(child)


def test_each_run_parameter_declared_once():
    """Every flag of a command is a PARAMS entry or a documented non-parameter flag.

    A flag added outside the table would bypass the INI file and the summary config.
    """
    from multipeak.cli import PARAMS, build_parser

    leaves = dict(leaf_parsers(build_parser()))
    assert set(leaves) == set(PARAMS)
    for command, parser in leaves.items():
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help"}
        assert set(PARAMS[command]) <= dests, command
        assert dests - set(PARAMS[command]) <= NON_PARAMETER_FLAGS, command
