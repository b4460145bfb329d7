"""Module layering: ``modp`` is the lowest midconv module and the one home
of arithmetic mod p; other modules reach it only through ``modp.__all__``,
and each module imports only the midconv modules its layer allows.
Importing the CLI, which every ``midconv`` process pays for, loads neither
``dataclasses`` nor ``inspect``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import midconv
from midconv import modp

SOURCES = sorted(Path(midconv.__file__).parent.glob("*.py"))
MODP_ONLY = {
    "_CERT_PRIME",
    "_reduce_mod",
    "_echelon_insert_mod",
    "_MEATAXE_DIM",
    "spin",
    "_zi_eval",
    "_inert_primes",
    "zi_root_candidates",
}
# The midconv modules each module imports, lowest layer first
IMPORTS = {
    "modp": set(),
    "errors": set(),
    "exactalg": {"errors", "modp"},
    "systems": {"errors", "exactalg", "modp"},
    "datum": {"errors", "exactalg", "systems"},
    "normalform": {"errors", "exactalg", "systems"},
    "functors": {"datum", "errors", "exactalg", "systems"},
    "rigidity": {"errors", "exactalg", "functors", "normalform", "systems"},
    "documents": {"datum", "errors", "exactalg", "functors", "normalform", "systems"},
    "checks": {"datum", "errors", "exactalg", "functors", "normalform", "rigidity", "systems"},
    "cli": {"checks", "datum", "documents", "errors", "functors", "normalform", "rigidity", "systems"},
    "__init__": {"datum", "exactalg", "functors", "normalform", "rigidity", "systems"},
}


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(module: ast.Module) -> set[str]:
    """Every name a module defines or assigns (imports aside)."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def modp_imports(module: ast.Module) -> list[str]:
    """The names a module imports from ``modp``."""
    return [
        alias.name
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.module == "modp" and node.level == 1
        for alias in node.names
    ]


def midconv_imports(module: ast.Module) -> set[str]:
    """The midconv modules a module imports, relatively or by name."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("midconv"):
            found.add(node.module.removeprefix("midconv").lstrip(".") or "__init__")
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("midconv.") for a in node.names if a.name.startswith("midconv")}
    return found


def absolute_imports(module: ast.Module) -> set[str]:
    """The top-level packages a module imports by absolute name."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[0] for a in node.names}
    return found


def residue_operations(module: ast.Module) -> list[str]:
    """Every ``%`` and every three-argument ``pow`` in a module."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "pow" and len(node.args) == 3:
                found.append(ast.unparse(node))
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"modp.py", "exactalg.py", "systems.py"}


def test_modp_imports_nothing_from_midconv():
    module = tree(Path(modp.__file__))
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("midconv"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("midconv") for a in node.names), ast.unparse(node)


def test_arithmetic_mod_p_is_defined_only_in_modp():
    for path in SOURCES:
        defined = defined_names(tree(path)) & MODP_ONLY
        assert defined == (MODP_ONLY if path.name == "modp.py" else set()), path.name


def test_other_modules_import_only_the_interface_of_modp():
    assert sorted(modp.__all__) == ["certified_full", "certified_invertible", "spin", "zi_root_candidates"]
    importers = {}
    for path in SOURCES:
        names = modp_imports(tree(path))
        assert not [n for n in names if n.startswith("_")], path.name
        assert set(names) <= set(modp.__all__), path.name
        if names:
            importers[path.name] = sorted(names)
    assert importers == {
        "exactalg.py": ["certified_invertible", "spin", "zi_root_candidates"],
        "systems.py": ["certified_full", "spin"],
    }


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "modp.py"], ids=lambda p: p.stem)
def test_no_residue_is_taken_outside_modp(path):
    assert residue_operations(tree(path)) == []


def test_residue_operations_are_found():
    found = residue_operations(ast.parse("a % m\nb %= m\npow(x, -1, p)\npow(x, 2)\nf'{x:%}'"))
    assert sorted(found) == ["a % m", "b %= m", "pow(x, -1, p)"]


def test_each_module_imports_only_its_layer():
    assert {p.stem for p in SOURCES} == set(IMPORTS)
    for path in SOURCES:
        assert midconv_imports(tree(path)) == IMPORTS[path.stem], path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in absolute_imports(tree(path))


def test_absolute_imports_are_found():
    found = absolute_imports(ast.parse("import os.path\nfrom dataclasses import dataclass\nfrom . import x"))
    assert found == {"os", "dataclasses"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without the site hooks, which may import either
    # first; this also catches an import that some other module pulls in
    code = "import sys; sys.path.insert(0, sys.argv[1]); import midconv.cli; print(*sys.modules)"
    src = str(Path(midconv.__file__).parent.parent)
    loaded = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True)
    assert "midconv.cli" in loaded.stdout.split()
    assert {"dataclasses", "inspect"} & set(loaded.stdout.split()) == set()
