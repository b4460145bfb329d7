"""Module layering: ``modp`` is the lowest midconv module and the one home
of arithmetic mod p; other modules reach it only through ``modp.__all__``."""

import ast
from pathlib import Path

import midconv
from midconv import modp

SOURCES = sorted(Path(midconv.__file__).parent.glob("*.py"))
MODP_ONLY = {"_CERT_PRIMES", "_reduce_mod", "_echelon_insert_mod", "_MEATAXE_DIM", "spin"}


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
    assert sorted(modp.__all__) == ["certified_full", "certified_invertible", "spin"]
    importers = {}
    for path in SOURCES:
        names = modp_imports(tree(path))
        assert not [n for n in names if n.startswith("_")], path.name
        assert set(names) <= set(modp.__all__), path.name
        if names:
            importers[path.name] = sorted(names)
    assert importers == {
        "exactalg.py": ["certified_invertible", "spin"],
        "systems.py": ["certified_full", "spin"],
    }
