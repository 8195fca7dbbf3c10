"""Every public name has a caller outside the tests.

A name in ``benford2.__all__`` that only tests use is code the program does
not need.  This parses the library modules and the benchmark harness (the
benchmark's own tests excluded) and collects every name they load and every
attribute they touch; each public name must be among them.
"""

import ast
from pathlib import Path

import benford2

ROOT = Path(__file__).resolve().parent.parent


def used_names():
    sources = [p for p in (ROOT / "src" / "benford2").glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py"]
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    assert set(benford2.__all__) - used_names() == set()
