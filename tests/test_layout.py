"""Module layout rules of the package, checked on the source."""

import ast
import os
import pathlib
import subprocess
import sys

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


def broad_handlers(source: str) -> list:
    """The line of each `except:` or `except Exception` handler in `source`,
    `Exception` or `BaseException` caught alone or in a tuple."""
    broad = {"Exception", "BaseException"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            if any(c is None or (isinstance(c, ast.Name) and c.id in broad)
                   for c in caught):
                found.append(node.lineno)
    return found


def test_the_handler_checker_finds_broad_handlers():
    source = ("try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, Exception) as exc:\n    pass\n"
              "try:\n    pass\nexcept BaseException:\n    raise\n"
              "try:\n    pass\nexcept (OSError, ValueError):\n    pass\n"
              "try:\n    pass\nexcept errors.Exception:\n    pass\n")
    assert broad_handlers(source) == [3, 7, 11]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_catches_every_exception(path):
    # an error raised in the package reaches the caller: no handler swallows
    # every exception
    assert broad_handlers(path.read_text(encoding="utf-8")) == []


def test_importing_the_cli_loads_neither_numpy_polynomial_nor_scipy():
    # both cost import time on every run; numpy.polynomial loads on first use
    # of the Gaussian quadrature, and scipy is a test dependency only
    code = ("import sys, subexp_lasso.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_the_cli_writes_results_only_through_harness_emit():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert "open(" not in source and "sys.stdout.write" not in source
    assert "print(" not in source
