"""Module layout rules of the package, checked on the source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "subexp_lasso"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source: str, module: str) -> list:
    """The single-underscore names of other package modules that `source`
    (the text of package module `module`) imports or reads as attributes."""
    tree, found, aliases = ast.parse(source), [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("subexp_lasso"):
                continue
            origin = (node.module or "").removeprefix("subexp_lasso").lstrip(".")
            if not origin:  # from . import geometry [as geo]
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif origin != module:
                found += [f"{origin}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):  # import subexp_lasso.geometry as geo
            aliases.update((a.asname, a.name.removeprefix("subexp_lasso."))
                           for a in node.names
                           if a.asname and a.name.startswith("subexp_lasso."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, module) != module
                and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_the_checker_finds_imports_and_attribute_reads():
    source = ("from . import geometry as geo, solver\n"
              "from .models import _xi_moments, Dataset\n"
              "from subexp_lasso.seeding import _SEED_BYTES\n"
              "from .harness import __doc__\n"
              "import numpy as np\n"
              "x = geo._nearest_weights, solver.solve, solver._pgd, np._x\n")
    assert foreign_private_names(source, "cli") == [
        "models._xi_moments", "seeding._SEED_BYTES", "geometry._nearest_weights",
        "solver._pgd"]
    assert foreign_private_names("from .models import _outputs\n", "models") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_uses_another_modules_private_names(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert foreign_private_names(source, module) == []
