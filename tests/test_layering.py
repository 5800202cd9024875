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


def test_one_bordered_factorization():
    """splu and sp.bmat are called only inside reduction.constrained_solve."""
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owners = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("splu", "bmat"):
                    where = (path.stem, owners.get(id(node)))
                    assert where == ("reduction", "constrained_solve"), where
