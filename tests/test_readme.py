"""The library example in README.md runs and gives the results it states,
and every command line it shows parses."""

import pathlib
import re
import shlex

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
