"""The library has no runtime dependencies: it imports only the standard
library and its own modules."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dutchbook").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert {"cli.py", "cps.py", "model.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = [
        (line, module)
        for line, module in absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert not outside, f"{path.name} imports non-stdlib modules {outside}"
