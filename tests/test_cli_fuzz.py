"""Property-based fuzzing of the CLI: every subcommand, on small well-formed
and malformed documents, exits 0, 1 or 2 with exactly one JSON document on
stdout, and never reports an internal error."""
import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dutchbook import Lcps, derive_beliefs, lcps_to_cps, serialize  # noqa: E402
from dutchbook.cli import _build_parser, main  # noqa: E402
from dutchbook.errors import InvalidEnvironment  # noqa: E402

STATES = ["a", "b", "c", "d"]
NODES = ["h0", "h1", "h2", "h3", "h4"]
# Leaves the readers reject: not strings, not rationals, or too long to parse.
BAD_SCALARS = [None, True, 0, 1.5, -2, "", "1/0", "0.5", "x", "a", "h0", "1" + "0" * 5000]
NOT_JSON = ["{", "", "[1,", "nul", '{"states": }']


def rational(rng):
    return str(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))


def junk(rng, depth=2):
    """A JSON value of the wrong shape."""
    kind = rng.randrange(5 if depth else 3)
    if kind == 0:
        return rng.choice(BAD_SCALARS)
    if kind == 1:
        return rational(rng)
    if kind == 2:
        return rng.choice(STATES + NODES)
    if kind == 3:
        return [junk(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(STATES + NODES + ["levels", "beliefs"]): junk(rng, depth - 1)
            for _ in range(rng.randint(0, 3))}


def distribution(rng, keys, full=False):
    """A probability row over a nonempty subset of keys (all of them if full)."""
    keys = list(keys)
    support = keys if full else rng.sample(keys, rng.randint(1, len(keys)))
    counts = [rng.randint(1, 4) for _ in support]
    return {k: Fraction(c, sum(counts)) for k, c in zip(support, counts)}


def rationals(row):
    return {k: str(v) for k, v in row.items()}


def environment_doc(rng):
    states = rng.sample(STATES, rng.randint(1, len(STATES)))
    nodes = rng.sample(NODES, rng.randint(1, len(NODES)))
    parent = {h: rng.choice(nodes[:i]) for i, h in enumerate(nodes) if i and rng.random() < 0.5}
    leaves = [h for h in nodes if h not in parent.values()]
    return {
        "states": states,
        "contingencies": [{"id": h, "parent": parent.get(h)} for h in nodes],
        "eta": {s: rationals(distribution(rng, leaves)) for s in states},
    }


def beliefs_doc(rng, env_doc):
    """Derived (so completely consistent) beliefs or random rows, with one
    row sometimes redrawn; random rows on any state if env_doc is invalid."""
    try:
        env = serialize.environment_from_doc(env_doc)
    except InvalidEnvironment:
        states, nodes = env_doc["states"], [e["id"] for e in env_doc["contingencies"]]
        return {"beliefs": {h: rationals(distribution(rng, states)) for h in nodes}}
    sh = env.consistent_states
    if rng.random() < 0.5:
        mu = derive_beliefs(env, Lcps((distribution(rng, env.states, full=True),)))
    else:
        mu = {h: distribution(rng, sh[h]) for h in env.forest.nodes}
    if rng.random() < 0.5:
        h = rng.choice(env.forest.nodes)
        mu[h] = distribution(rng, sh[h])
    return {"beliefs": {h: rationals(row) for h, row in mu.items()}}


def book_doc(rng, states, nodes):
    return {"gambles": {
        h: {s: rational(rng) for s in rng.sample(states, rng.randint(1, len(states)))}
        for h in rng.sample(nodes, rng.randint(0, len(nodes)))
    }}


def lcps_levels(rng, states):
    """An LCPS over a shuffled partition of states into nonempty levels."""
    order = rng.sample(states, len(states))
    cuts = sorted(rng.sample(range(1, len(order)), min(len(order) - 1, rng.randint(0, 2))))
    bounds = [0, *cuts, len(order)]
    return [distribution(rng, order[lo:hi], full=True) for lo, hi in zip(bounds, bounds[1:])]


def malformed(rng, doc):
    """The document itself, four times in five; else a value replaced by
    junk, a key dropped, another JSON value, or text that is not JSON."""
    kind = rng.choice(["replace", "drop", "other", "text"])
    if rng.random() < 0.8:
        return doc
    if kind == "other":
        return junk(rng)
    if kind == "text":
        return rng.choice(NOT_JSON)
    doc = node = json.loads(json.dumps(doc))
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = rng.choice(keys)
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.5:
            node = node[key]
        elif kind == "drop":
            del node[key]
            return doc
        else:
            node[key] = junk(rng)
            return doc


def documents(rng):
    """Environment, beliefs, book, LCPS and CPS documents on one state set,
    each possibly malformed."""
    env_doc = environment_doc(rng)
    states = env_doc["states"]
    nodes = [entry["id"] for entry in env_doc["contingencies"]]
    levels = lcps_levels(rng, states)
    docs = {
        "env": env_doc,
        "beliefs": beliefs_doc(rng, env_doc),
        "book": book_doc(rng, states, nodes),
        "lcps": {"levels": [rationals(level) for level in levels]},
        "cps": serialize.cps_to_doc(lcps_to_cps(Lcps(tuple(levels)), tuple(states))),
    }
    return {name: malformed(rng, doc) for name, doc in docs.items()}


# Each subcommand with its required file flags and its optional ones.
COMMANDS = {
    "validate": (["env"], ["beliefs", "lcps"]),
    "check-forward": (["env", "beliefs"], []),
    "check-complete": (["env", "beliefs"], []),
    "extract-lcps": (["env", "beliefs"], []),
    "derive-beliefs": (["env", "lcps"], []),
    "to-cps": (["lcps"], ["env"]),
    "to-lcps": (["cps"], []),
    "check-siniscalchi": (["env", "beliefs"], []),
    "verify-book": (["env", "book"], ["beliefs"]),
    "verify-deterministic": (["env", "book"], ["beliefs"]),
    "synth-book": (["env", "beliefs"], []),
    "synth-deterministic": (["env", "beliefs"], []),
    "simulate": (["env", "beliefs", "book"], []),
}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def invoke(folder, command, docs, argv):
    required, optional = COMMANDS[command]
    argv = [command, *argv]
    for name in required + [name for name in optional if name in docs]:
        path = folder / f"{name}.json"
        doc = docs[name]
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv += [f"--{name}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def extra_flags(rng, command):
    """The subcommand's non-file options, sometimes out of range or missing."""
    small = str(rng.randint(-2, 12))
    if command == "check-siniscalchi":
        return rng.choice([[], ["--max-len", small], ["--max-len", small], ["--max-len", "x"]])
    if command == "simulate":
        state = rng.choice([[], ["--state", "a"], ["--state", "b"], ["--state", "zz"]])
        if rng.random() < 0.1:
            return ["--rounds", "3"]  # --seed is required
        return ["--rounds", small, "--seed", small, *state]
    return []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_exits_with_one_json_document(folder, command):
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(st.randoms(use_true_random=False))
    def check(rng):
        docs = documents(rng)
        for name in COMMANDS[command][1]:
            if rng.random() < 0.5:
                del docs[name]
        code, out, err = invoke(folder, command, docs, extra_flags(rng, command))
        assert code in (0, 1, 2), (code, out)
        payload = json.loads(out)  # exactly one JSON document, nothing else
        assert isinstance(payload, dict)
        if code == 2:
            assert payload["error"]["code"] != "internal", (payload, err)
        else:
            assert "error" not in payload

    check()


def test_every_subcommand_is_fuzzed():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)
