"""The package's public surface: every name in `dutchbook.__all__` resolves,
and every Python example in README.md runs."""
import re
from pathlib import Path

import pytest

import dutchbook

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_every_exported_name_resolves():
    assert len(set(dutchbook.__all__)) == len(dutchbook.__all__)
    assert [name for name in dutchbook.__all__ if not hasattr(dutchbook, name)] == []


def test_star_import():
    namespace = {}
    exec("from dutchbook import *", namespace)
    assert set(dutchbook.__all__) <= namespace.keys()


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"block{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {})
