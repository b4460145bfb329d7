"""Module layering: ``modp`` is the lowest midconv module and the one home
of arithmetic mod p; other modules reach it only through ``modp.__all__``,
and each module imports only the midconv modules its layer allows, names
it reaches through the package's lazy table counted as imports of their
defining modules.  Importing the CLI, which every ``midconv`` process pays
for, loads neither ``dataclasses`` nor ``inspect``; a bare ``import midconv``
loads no submodule, and a ``midconv`` process only the modules its command
runs.  An underscore name crosses from one module to another only where a
table lists it, and every annotation names a type that is defined."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import midconv
from midconv import modp

SOURCES = sorted(Path(midconv.__file__).parent.glob("*.py"))
SRC = str(Path(midconv.__file__).parent.parent)
# the package's lazy table: each exported name -> its defining module
HOME = {name: module for module, names in midconv._EXPORTS.items() for name in names}
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
    "documents": {"datum", "errors", "exactalg", "functors", "systems"},
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
    """The midconv modules a module imports, relatively or by name, and the
    modules the package's lazy table names for it: the table's own keys,
    and the defining module of each name read off ``import midconv``."""
    found, package = set(), set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("midconv"):
            found.add(node.module.removeprefix("midconv").lstrip(".") or "__init__")
        elif isinstance(node, ast.Import):
            package |= {a.asname or a.name for a in node.names if a.name == "midconv"}
            found |= {a.name.removeprefix("midconv.") for a in node.names if a.name.startswith("midconv.")}
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]:
            found |= {key.value for key in node.value.keys}
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in package:
            if not node.attr.startswith("_"):  # the package's own attributes, such as the table
                found.add(HOME[node.attr])
    return found


def test_names_read_through_the_lazy_table_count_as_imports():
    code = "import midconv as lib\nimport midconv.errors\nlib.mc(lib.kappa(x), lib.__name__)\n_EXPORTS = {'modp': ()}"
    assert midconv_imports(ast.parse(code)) == {"datum", "errors", "functors", "modp"}
    with pytest.raises(KeyError):  # a name the table lacks is no silent pass
        midconv_imports(ast.parse("import midconv\nmidconv.no_such_name"))


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


def private_imports(module: ast.Module) -> set[tuple[str, str]]:
    """(midconv module, name) for each underscore name a module imports
    from another midconv module, relatively or by name."""
    return {
        (node.module.removeprefix("midconv."), alias.name)
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.module
        and (node.level == 1 or node.module.startswith("midconv."))
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_names_cross_modules_only_where_listed():
    found = {(path.stem, *pair) for path in SOURCES for pair in private_imports(tree(path))}
    assert found == {
        ("checks", "normalform", "_stabilizer_dim"),
        ("rigidity", "normalform", "_stabilizer_dim"),
        ("documents", "exactalg", "_DIGITS_BOUND"),
        ("documents", "exactalg", "_MAX_DIGITS"),
    }


def test_private_imports_are_found():
    code = "from .a import _x, y\nfrom midconv.b import _z\nfrom . import _c\nimport _thread"
    assert private_imports(ast.parse(code)) == {("a", "_x"), ("b", "_z")}


def defined_functions():
    """Every function and method defined at the top level of a midconv
    module or of one of its classes, properties included, as (qualified
    name, function)."""
    for path in SOURCES:
        module = importlib.import_module("midconv" if path.stem == "__init__" else f"midconv.{path.stem}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                for f in (member, getattr(member, "__func__", None), getattr(member, "fget", None)):
                    if inspect.isfunction(f) and f.__module__ == module.__name__:
                        yield f"{module.__name__}.{f.__qualname__}", f


def test_every_annotation_names_a_defined_type():
    names = set()
    for name, f in defined_functions():
        typing.get_type_hints(f)  # NameError for an annotation naming nothing defined
        names.add(name)
    assert len(names) > 100
    assert {"midconv.documents.normal_form_to_document", "midconv.datum.Block.dim_w"} <= names


def test_each_module_imports_only_its_layer():
    assert {p.stem for p in SOURCES} == set(IMPORTS)
    for path in SOURCES:
        assert midconv_imports(tree(path)) == IMPORTS[path.stem], path.name


# The midconv modules of IMPORTS that a module reaches only through the
# package at call time, so that importing it runs none of them
CALL_TIME = {
    "__init__": IMPORTS["__init__"],
    "cli": {"checks", "datum", "functors", "normalform", "rigidity"},
    "documents": {"datum", "functors"},
}


def top_level_imports(module: ast.Module) -> set[str]:
    """The midconv modules that the import statements in a module's body,
    outside any function, name: those its own import runs."""
    return midconv_imports(ast.Module([n for n in module.body if isinstance(n, (ast.Import, ast.ImportFrom))], []))


def test_importing_a_module_runs_only_its_top_level_layer():
    for path in SOURCES:
        found = top_level_imports(tree(path))
        assert found == IMPORTS[path.stem] - CALL_TIME.get(path.stem, set()), path.name


def test_top_level_imports_leave_out_call_time_reads():
    code = "import midconv as lib\nfrom .errors import E\ndef f():\n    from .checks import g\n    return lib.kappa"
    assert top_level_imports(ast.parse(code)) == {"errors"}
    assert midconv_imports(ast.parse(code)) == {"checks", "datum", "errors"}


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


LAZY_MODULES = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import midconv.cli

def ran():
    return sorted(n for n, m in sys.modules.items() if n.startswith("midconv.") and type(m) is types.ModuleType)

present, before = sorted(n for n in sys.modules if n.startswith("midconv.")), ran()
sys.modules["midconv.rigidity"].katz_reduce
print(json.dumps([present, before, ran()]))
"""


def test_importing_the_cli_puts_every_table_module_in_sys_modules_unrun():
    # code that wraps names in the loaded midconv modules finds every module
    # a command may run; the four no command has run yet run on first read
    child = subprocess.run([sys.executable, "-S", "-c", LAZY_MODULES, SRC], capture_output=True, text=True, check=True)
    present, before, after = json.loads(child.stdout)
    table = {f"midconv.{m}" for m in midconv._EXPORTS}
    assert table <= set(present) and "midconv.checks" not in present
    assert set(present) - set(before) == {"midconv.datum", "midconv.functors", "midconv.normalform", "midconv.rigidity"}
    assert set(after) == set(present)


# run in a fresh interpreter: what a bare import loads, then the namespace
CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if m.startswith("midconv"))

import midconv
facts = {"bare": loaded(), "dir_covers_all": set(midconv.__all__) <= set(dir(midconv))}
facts["rigidity"] = midconv.rigidity.__name__
facts["after_rigidity"] = loaded()
star = {}
exec("from midconv import *", star)
facts["star"] = sorted(set(star) - {"__builtins__"}) == sorted(midconv.__all__)
facts["homes"] = {}
for name in midconv.__all__:
    value = getattr(midconv, name)
    home = sys.modules[value.__module__]
    facts["homes"][name] = [value.__module__, getattr(home, name) is value]
import midconv.functors
sentinel = object()
midconv.functors.mc = sentinel
facts["patched_seen"] = midconv.mc is sentinel and getattr(midconv, "mc") is sentinel
try:
    midconv.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


@pytest.fixture(scope="module")
def contract():
    child = subprocess.run([sys.executable, "-S", "-c", CONTRACT, SRC], capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_a_bare_import_loads_no_submodule(contract):
    assert contract["bare"] == ["midconv"]


def test_a_submodule_loads_on_first_access(contract):
    assert contract["rigidity"] == "midconv.rigidity"
    assert "midconv.rigidity" in contract["after_rigidity"] and "midconv.checks" not in contract["after_rigidity"]


def test_dir_and_star_import_cover_exactly_all(contract):
    assert contract["dir_covers_all"] and contract["star"]


def test_each_name_is_its_defining_module_object(contract):
    assert sorted(contract["homes"]) == sorted(midconv.__all__)
    for name, (module, same) in contract["homes"].items():
        assert module == f"midconv.{HOME[name]}" and same, name


def test_a_patch_of_the_defining_module_is_seen_through_the_package(contract, monkeypatch):
    assert contract["patched_seen"]
    sentinel = object()
    monkeypatch.setattr(midconv.normalform, "select_alpha", sentinel)
    assert midconv.select_alpha is sentinel


def test_an_unknown_name_raises_attribute_error(contract):
    assert contract["unknown"] == "module 'midconv' has no attribute 'no_such_name'"


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the seven commands the benchmark runs, and check
COMMAND_LINES = {
    "rigidity": ["rigid-triple.sys"],
    "katz-reduce": ["rigid-triple.sys"],
    "hd": ["rank1-irregular.sys"],
    "mc": ["rigid-triple.sys", "--alpha", "alpha-simple.sys"],
    "canon": ["rank1-irregular.sys"],
    "normal-form": ["rank1-irregular.sys"],
    "equiv": ["rigid-triple.sys", "rigid-triple.sys"],
    "check": ["alpha-simple.sys", "--trials", "1"],
}
# python -m midconv.cli, with the midconv modules whose code ran on the last
# line of stderr; a lazy module the command never read keeps its own type
RUN_AS_MAIN = """
import runpy, sys, types
try:
    runpy.run_module("midconv.cli", run_name="__main__", alter_sys=True)
finally:
    ran = [n for n, m in sys.modules.items() if n.startswith("midconv") and type(m) is types.ModuleType]
    print("\\n" + " ".join(sorted(ran)), file=sys.stderr)
"""


def modules_loaded_by(command: str) -> set[str]:
    argv = [a if a.startswith("-") or a.isdigit() else str(FIXTURES / a) for a in COMMAND_LINES[command]]
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-c", RUN_AS_MAIN, command, *argv], capture_output=True, text=True, env=env
    )
    assert child.returncode == 0 and json.loads(child.stdout)["command"] == command, child.stderr
    return {m.removeprefix("midconv.") for m in child.stderr.splitlines()[-1].split()}


@pytest.mark.parametrize("command", COMMAND_LINES)
def test_a_process_loads_only_the_modules_its_command_runs(command):
    loaded = modules_loaded_by(command)
    assert {"midconv", "documents", "errors", "systems"} <= loaded
    library = {"datum", "functors", "normalform", "rigidity", "checks"} & loaded
    duality = {"datum", "functors"}
    expected = {
        "rigidity": duality | {"normalform", "rigidity"},
        "katz-reduce": duality | {"normalform", "rigidity"},
        "hd": duality,
        "mc": duality,
        "canon": {"datum"},
        "normal-form": {"normalform"},
        "equiv": set(),
        "check": duality | {"normalform", "rigidity", "checks"},
    }
    assert library == expected[command]
