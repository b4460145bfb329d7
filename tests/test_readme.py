"""The library example in README.md runs and gives the results it states."""

import pathlib
import re

from midconv import rigidity_index

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
