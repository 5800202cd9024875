"""Import layering of the package, checked on its source without importing it,
the scipy modules the command line loads, the command line's single
declaration of its run parameters, and what the benchmark in ``perfbench``
expects of the package (read from its files, which are left as they are)."""

import argparse
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multipeak"
PERFBENCH = SRC.parents[1] / "perfbench"
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
    Jacobian in frame coordinates are solved by the package's own MINRES,
    reduction._minres, called by the two solves alone; scipy's `minres`, a
    bordered assembly and CG have no caller."""
    assert not list(callers("splu", "spsolve", "factorized", "factorize"))
    assert not [path.stem for path in MODULES if "splu" in path.read_text()]
    assert not list(callers("minres"))
    assert set(callers("_minres")) == {
        ("reduction", "complement_solve"), ("reduction", "pinned_solve")}
    assert set(callers("pinned_solve")) == {("dancer", "newton_solve")}
    assert set(callers("complement_solve")) == {
        ("reduction", "solve_correction"), ("weighted", "solve_orthogonal")}
    assert not set(callers("bmat", "cg"))


def test_one_frame():
    """The frame's algebra (Φ, C = BΦ, G⁻¹, the projectors and the split) is
    spectrum.NearKernelBasis, built once per frame, and the two solves are
    functions of 𝕃 and the frame: no class binds them, and nothing in the
    reduction stores 𝕃 on an object.  F′(u) is built by spectrum.linearized
    alone, for the correction, the weighted solve and the Newton step.
    The resolution check guards the translation frame, and the spectrum
    command, whose eigen frame needs the modes resolved too."""
    text = "".join(path.read_text() for path in MODULES)
    assert "split_projection" not in text and "assemble_linearized" not in text
    assert "ComplementSolver" not in text
    tree = ast.parse((SRC / "reduction.py").read_text())
    assert not [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    fields = {node.target.id for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.AnnAssign)}
    assert fields and "L" not in fields
    assert {m for m, _ in callers("linearized")} == {"reduction", "weighted", "dancer"}
    assert set(callers("check_resolution")) == {
        ("reduction", "translation_frame"), ("cli", "cmd_spectrum")}


def test_no_projection_of_krylov_vectors():
    """The preconditioner ΠB⁻¹Πᵀ keeps every MINRES iterate in range Π, so the
    reduction applies Π to no Krylov input or result, and the frame has no `project`."""
    from multipeak.spectrum import NearKernelBasis

    assert not list(callers("project"))
    assert not hasattr(NearKernelBasis, "project")


def scipy_imports(path):
    """(top-level function or None, names) of each scipy import in the file."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [a.name for a in node.names]
            else:
                continue
            if names[0].split(".")[0] == "scipy":
                yield getattr(top, "name", None), names


def test_no_scipy_at_module_level():
    """−Δ+1 and 𝕃 are stencils on the grid's array, so no module imports scipy
    when it loads: each use imports it inside the one function that calls it."""
    for path in MODULES:
        assert None not in {top for top, _ in scipy_imports(path)}, path.stem


def test_krylov_solvers_imported_where_called():
    """eigsh, the one Krylov solver left to scipy, is imported only by
    spectrum.lowest_eigenpairs, its one call site; MINRES is the package's own,
    so reduction imports nothing from scipy, and only spectrum and the
    quadratures of asymptotics import it at all."""
    found = {(path.stem, top) for path in MODULES
             for top, names in scipy_imports(path) if "eigsh" in names}
    assert found == {("spectrum", "lowest_eigenpairs")}
    assert not [path.stem for path in MODULES for _, names in scipy_imports(path) if "minres" in names]
    assert {path.stem for path in MODULES if list(scipy_imports(path))} == {"spectrum", "asymptotics"}


def test_groundstate_imports_no_scipy():
    """The ground state is one dense collocation solve in numpy: no sparse
    stencil, no banded solver and no quadrature rule from scipy."""
    tree = ast.parse((SRC / "groundstate.py").read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m and m.split(".")[0] == "scipy"]


def test_cli_import_loads_no_interpolation(tmp_path):
    """The profile interpolates itself, the grid applies −Δ+1 as a stencil and
    MINRES is the package's own, so the front end loads no scipy at all, and
    neither do the commands that solve no eigenproblem and take no quadrature:
    each run is a fresh process."""
    out = str(tmp_path / "summary.json")
    runs = [None, ["groundstate"], ["ansatz", "--eps", "0.3", "--k", "2"],
            ["oracle", "taylor", "--n", "1000"], ["reduce", "--eps", "0.3", "--k", "2"],
            ["equilibrate", "--eps", "0.3", "--k", "2"], ["dancer", "--eps", "0.3", "--k", "1"]]
    for argv in runs:
        command = "" if argv is None else f"assert main({[*argv, '--out', out]!r}) == 0; "
        loaded = subprocess.run(
            [sys.executable, "-c",
             f"import sys\nfrom multipeak.cli import main\n{command}print(*sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert "multipeak.groundstate" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"], argv


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


def perfbench_literal(filename, name):
    """The literal value of the top-level assignment to `name` in a perfbench file."""
    for node in ast.parse((PERFBENCH / filename).read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in perfbench/{filename}")


def test_benchmark_layers_resolve():
    """Each (module, function) the benchmark's tracer wraps is a callable of the package."""
    for module, func in perfbench_literal("tracing.py", "LAYERS"):
        assert callable(getattr(importlib.import_module(f"multipeak.{module}"), func, None)), (
            module, func)


def reached_modules(tree, name):
    """Modules that the top-level definition `name` of workloads.py looks up by
    ``_mod("...")``, itself or through the top-level definitions it names."""
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    todo, seen, found = [name], set(), set()
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in ast.walk(top[current]):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_mod"
                    and isinstance(node.args[0], ast.Constant)):
                found.add(node.args[0].value)
            elif isinstance(node, ast.Name) and node.id in top:
                todo.append(node.id)
    return found


@pytest.mark.parametrize("workload", sorted(perfbench_literal("run.py", "SETUP_MODULES")))
def test_benchmark_setup_loads_what_its_workload_reaches(workload):
    """An in-process workload imports its SETUP_MODULES, then reads modules from
    sys.modules (a KeyError if one is missing): in a fresh interpreter those
    imports must load every module its class (snake_case name in CamelCase) reaches."""
    setup = list(perfbench_literal("run.py", "SETUP_MODULES")[workload])
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    wanted = reached_modules(tree, "".join(part.title() for part in workload.split("_")))
    assert wanted
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import importlib, sys\nfor m in {setup!r}: importlib.import_module(m)\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    missing = {f"multipeak.{m}" for m in wanted} - set(loaded)
    assert not missing, f"{workload} imports {setup}, which do not load {sorted(missing)}"
