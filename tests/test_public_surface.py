"""The package's public surface: every name in `dutchbook.__all__` resolves,
every Python example in README.md runs, and every `dutchbook` command of
its shell examples exits with the code it states."""
import json
import re
from pathlib import Path

import pytest

import dutchbook
from dutchbook.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
DATA = README.parent / "tests" / "data"
TEXT = README.read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("dutchbook ")
]
SUBCOMMANDS = [line.split()[1] for line in COMMANDS]


def _command_id(i):
    """The subcommand; a repeated one adds the stem of its --env file."""
    words = COMMANDS[i].split()
    if SUBCOMMANDS.index(words[1]) == i:
        return words[1]
    return f"{words[1]}-{Path(words[words.index('--env') + 1]).stem}"


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


def test_readme_has_cli_examples():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("line", COMMANDS, ids=[_command_id(i) for i in range(len(COMMANDS))])
def test_readme_cli_example_exits_as_stated(line, capsys):
    command, stated = line.split("#")
    code = int(re.match(r"\s*exit (\d)", stated).group(1))
    argv = [str(DATA / a) if a.endswith(".json") else a for a in command.split()[1:]]
    assert main(argv) == code
    json.loads(capsys.readouterr().out)
