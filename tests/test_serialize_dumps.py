"""`serialize.dumps` writes the bytes of `json.dumps(payload, indent=2,
allow_nan=False) + "\\n"`: on every payload the CLI writes for the documents
in tests/data, and on seeded nested payloads of every JSON type."""
import json
import math
import random
from pathlib import Path

import pytest

from dutchbook import cli
from dutchbook import serialize as sz

DATA = Path(__file__).parent / "data"


def reference_dumps(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def data_files():
    """tests/data's documents by kind, named by their top-level key."""
    kinds = {"states": "env", "beliefs": "beliefs", "gambles": "book", "levels": "lcps",
             "conditionals": "cps"}
    files = {kind: [] for kind in kinds.values()}
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        files[kinds[next(iter(doc))]].append(str(path))
    return files


def cli_requests():
    """Every subcommand over every combination of the files it reads; many
    pairs do not fit together, so error documents are written too."""
    f = data_files()
    for env in f["env"]:
        for beliefs in f["beliefs"]:
            pair = ["--env", env, "--beliefs", beliefs]
            for command in ("check-forward", "check-complete", "extract-lcps",
                            "check-siniscalchi", "synth-book", "synth-deterministic",
                            "validate"):
                yield [command, *pair]
            for book in f["book"]:
                yield ["simulate", *pair, "--book", book, "--rounds", "40", "--seed", "3"]
                for command in ("verify-book", "verify-deterministic"):
                    yield [command, "--env", env, "--book", book]
                    yield [command, "--env", env, "--book", book, "--beliefs", beliefs]
        for lcps in f["lcps"]:
            yield ["derive-beliefs", "--env", env, "--lcps", lcps]
            yield ["to-cps", "--lcps", lcps, "--env", env]
            yield ["validate", "--env", env, "--lcps", lcps]
    for lcps in f["lcps"]:
        yield ["to-cps", "--lcps", lcps]
    for cps in f["cps"]:
        yield ["to-lcps", "--cps", cps]


def test_every_cli_payload_from_tests_data(capsys, monkeypatch):
    written = []
    dumps = sz.dumps

    def recorded(payload):
        text = dumps(payload)
        written.append((payload, text))
        return text

    monkeypatch.setattr(sz, "dumps", recorded)
    codes = set()
    for argv in cli_requests():
        codes.add(cli.main(argv))
        capsys.readouterr()
    assert codes == {0, 1, 2}
    assert len(written) > 300
    for payload, text in written:
        assert text == reference_dumps(payload)


# Strings with every kind of escape: quotes, backslashes, control
# characters, non-ASCII text and a character outside the BMP.
TEXT = ["", "a", "sq", "1/3", '"', "\\", "/", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "Grüße",
        "≤ 1", " ", "\U0001F600", " lead and trail "]
NUMBERS = [0, 1, -1, 2**63, -(2**70), 10**200, 0.0, -0.0, 1.0, 0.1, -2.5, 1e-7, 1e300, 5e-324,
           1.7976931348623157e308, 1e16, 123456789.125]


def nested(rng, depth=3):
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return rng.choice(TEXT)
    if kind == 1:
        return rng.choice(NUMBERS)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([{}, []])
    if kind in (4, 5):
        return {rng.choice(TEXT) + str(i): nested(rng, depth - 1) for i in range(rng.randint(1, 4))}
    return [nested(rng, depth - 1) for _ in range(rng.randint(1, 4))]


# Payloads with each edge case on its own, checked before the seeded ones.
EDGES = [{}, {"a": []}, {"a": {}}, {"a": [[]]}, {"": ""}, {"a": -0.0}, {"a": [1e-7, 1e300]},
         {"a": 10**1000}, {"a": [True, False, None]}, {"é\n": ["\U0001F600"]}]


def test_seeded_nested_payloads():
    rng = random.Random(0x150)
    seeded = [{"doc": nested(rng), "text": rng.choice(TEXT)} for _ in range(400)]
    for payload in EDGES + seeded:
        assert sz.dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_floats_raise_value_error(value):
    with pytest.raises(ValueError):
        reference_dumps({"a": value})
    with pytest.raises(ValueError):
        sz.dumps({"a": [1, {"b": value}]})
