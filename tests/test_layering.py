"""Import layering of the package, checked on its source without importing it."""

import ast
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
    """splu is called only in domain.factorize; no bordered assembly and no CG remain."""
    assert set(callers("splu")) == {("domain", "factorize")}
    assert not set(callers("bmat", "cg"))


def test_one_pipeline_step():
    """The eigenpairs → basis → correction chain is written out only in reduction.reduce.

    The spectrum command alone asks for eigenpairs without a correction.
    """
    assert set(callers("solve_correction")) == {("reduction", "reduce")}
    assert set(callers("lowest_eigenpairs")) == {
        ("reduction", "reduce"),
        ("cli", "cmd_spectrum"),
    }
