"""The library example in README.md runs and gives the results it states,
every command line it shows parses, and every midconv name it dots exists."""

import importlib
import pathlib
import re
import shlex

import midconv
from midconv import rigidity_index
from midconv.cli import _build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_gives_its_stated_results():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert rigidity_index(namespace["p"]) == 0
    trace = namespace["trace"]
    assert len(trace.steps) == 1 and trace.final_rank == 1
    assert namespace["witness"] is not None


def test_command_line_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "midconv" for words in lines)
    for words in lines:
        assert _build_parser().parse_args(words[1:]).command == words[1]
    assert _build_parser().parse_args(["dr", "--lambda=-1/2", "in.sys"]).lam == "-1/2"


# the one-letter names README gives instances, by the type of what they name
README_INSTANCES = {"d": "Datum", "h": "Datum", "m": "Matrix"}


def test_every_dotted_name_resolves():
    # a backticked name a.b.c whose head is the package, one of its modules,
    # an exported class or an instance name above must resolve attribute by
    # attribute; a path such as src/midconv/cli.py is not a name
    package = pathlib.Path(midconv.__file__).parent
    heads = {"midconv": midconv}
    heads.update((path.stem, importlib.import_module(f"midconv.{path.stem}")) for path in package.glob("[!_]*.py"))
    heads.update((name, getattr(midconv, name)) for name in midconv.__all__ if isinstance(getattr(midconv, name), type))
    heads.update((name, getattr(midconv, cls)) for name, cls in README_INSTANCES.items())
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    names = {m.group(0) for span in spans for m in re.finditer(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)}
    checked = []
    for name in sorted(names):
        head, *attrs = name.split(".")
        if head not in heads:
            continue
        obj = heads[head]
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {name}, but {attr} is not there"
            obj = getattr(obj, attr)
        checked.append(name)
    assert {"midconv.datum.swap", "midconv.datum.swap_back", "m.select_columns", "systems.Record"} <= set(checked)
