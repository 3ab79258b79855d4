"""The environment reader and `build_environment` against the versions they
replaced, kept below as the reference: the same eta and reach tables, by
`repr`, on seeded documents, and the same error on mutated ones. Then the
per-row cost of the environment and belief readers, counted in calls."""
import copy
import os
import random
import sys
from fractions import Fraction
from numbers import Rational

import pytest

from conftest import random_forest, weights

import dutchbook
from dutchbook import ContingencyForest, LearningEnvironment, build_environment
from dutchbook import serialize as sz
from dutchbook.errors import DutchbookError, InputError, InvalidEnvironment
from dutchbook.model import check_distribution

F = Fraction


def reference_check_distribution(dist, what):
    for key, mass in dist.items():
        if mass.numerator < 0:
            raise InvalidEnvironment(f"{what}: negative mass at {key!r}")
    total = sum(dist.values(), F(0))
    if total != 1:
        raise InvalidEnvironment(f"{what}: masses sum to {total}, not 1")


def reference_build_environment(states, forest, eta):
    """Each entry type-checked and converted one by one, each row summed as
    Fractions, and reach filled along `forest.path`."""
    if not states:
        raise InvalidEnvironment("state space is empty")
    if len(set(states)) != len(states):
        raise InvalidEnvironment("duplicate state identifiers")
    state_tuple = tuple(states)
    missing = [s for s in state_tuple if s not in eta]
    if missing:
        raise InvalidEnvironment(f"eta missing rows for states {missing}")
    unknown = [s for s in eta if s not in set(state_tuple)]
    if unknown:
        raise InvalidEnvironment(f"eta rows for unknown states {unknown}")
    leaf_rank = {l: forest.index[l] for l in forest.leaves}
    eta_table = {}
    reach = {h: {} for h in forest.nodes}
    for s in state_tuple:
        row = {}
        for k, v in eta[s].items():
            if not isinstance(v, Rational):
                raise InvalidEnvironment(f"eta[{s!r}]: non-rational mass at {k!r}")
            row[k] = F(v)
        bad = [k for k in row if k not in leaf_rank]
        if bad:
            raise InvalidEnvironment(f"eta[{s!r}] has unknown path keys {bad}")
        reference_check_distribution(row, f"eta[{s!r}]")
        eta_table[s] = {l: row[l] for l in sorted(row, key=leaf_rank.get) if row[l].numerator}
        for leaf, mass in eta_table[s].items():
            for h in forest.path(leaf):
                reach[h][s] = reach[h][s] + mass if s in reach[h] else mass
    for h in forest.nodes:
        if not reach[h]:
            raise InvalidEnvironment(f"inconsistent contingency {h!r}: S(h) is empty")
    return LearningEnvironment(state_tuple, forest, eta_table, reach)


def reference_rational_row(doc, where, memo):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object of rationals")
    row = {}
    for k, v in doc.items():
        if type(v) is str:
            if v not in memo:
                memo[v] = sz.parse_rational(v, f"{where}[{k!r}]")
            row[k] = memo[v]
        else:
            row[k] = sz.parse_rational(v, f"{where}[{k!r}]")
    return row


def reference_environment_from_doc(doc):
    """Every contingency entry checked by `_require_keys`, and every eta row
    read entry by entry."""
    keys = {"states", "contingencies", "eta"}
    sz._require_keys(doc, keys, keys, "environment")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputError("environment.states: expected a list of strings")
    entries = doc["contingencies"]
    if not isinstance(entries, list):
        raise InputError("environment.contingencies: expected a list")
    nodes, parent = [], {}
    for entry in entries:
        sz._require_keys(entry, {"id", "parent"}, {"id", "parent"}, "contingency entry")
        if not isinstance(entry["id"], str):
            raise InputError(f"contingency id: expected a string, got {entry['id']!r}")
        if not isinstance(entry["parent"], (str, type(None))):
            raise InputError(
                f"contingency parent: expected a string or null, got {entry['parent']!r}"
            )
        nodes.append(entry["id"])
        if entry["parent"] is not None:
            parent[entry["id"]] = entry["parent"]
    if not isinstance(doc["eta"], dict):
        raise InputError("environment.eta: expected an object")
    memo = {}
    eta = {s: reference_rational_row(row, f"eta[{s!r}]", memo) for s, row in doc["eta"].items()}
    return reference_build_environment(states, ContingencyForest(nodes, parent), eta)


def outcome(read, *args):
    """repr of what the read gives, or the class and message of its error."""
    try:
        env = read(*args)
    except DutchbookError as exc:
        return type(exc).__name__, str(exc)
    return repr(env.states), repr(env.eta), repr(env.reach), repr(env.consistent_states)


def seeded_document(rng):
    """An environment document: rows out of forest order, unreduced and
    repeated strings, explicit zeros, and now and then a state that no path
    reaches some contingency through."""
    forest = random_forest(rng, rng.randint(1, 14))
    states = [f"s{i}" for i in range(rng.randint(1, 7))]
    eta = {}
    for s in states:
        row = weights(rng, forest.leaves)
        scale = rng.choice((1, 1, 2, 3))
        text = {k: f"{m.numerator * scale}/{m.denominator * scale}" if scale > 1 else str(m)
                for k, m in row.items()}
        for leaf in forest.leaves:
            if leaf not in text and rng.random() < 0.3:
                text[leaf] = rng.choice(("0", "0/5"))
        keys = list(text)
        rng.shuffle(keys)
        eta[s] = {k: text[k] for k in keys}
    return {
        "states": states,
        "contingencies": [{"id": h, "parent": forest.parent.get(h)} for h in forest.nodes],
        "eta": eta,
    }


def mutate(rng, doc):
    """One fault, or two, anywhere in the document."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(16)
        entries = doc.get("contingencies") if isinstance(doc.get("contingencies"), list) else []
        states = doc.get("states") if isinstance(doc.get("states"), list) else []
        eta = doc.get("eta") if isinstance(doc.get("eta"), dict) else {}
        s = rng.choice(list(eta)) if eta else "s0"
        row = eta.get(s) if isinstance(eta.get(s), dict) else {}
        entry = rng.choice(entries) if entries else {}
        if kind == 0:
            doc[rng.choice(("extra", "states", "eta"))] = rng.choice(([], {}, "x"))
        elif kind == 1:
            doc.pop(rng.choice(("states", "contingencies", "eta")), None)
        elif kind == 2 and entries:
            entries[rng.randrange(len(entries))] = rng.choice(
                ([], "h0", {"id": "h0"}, {"id": "h0", "parent": None, "x": 1}, {}))
        elif kind == 3 and isinstance(entry, dict):
            entry[rng.choice(("id", "parent"))] = rng.choice((1, None, ["h0"], "h0", "zz"))
        elif kind == 4 and entries:
            entries.append(copy.deepcopy(entry))
        elif kind == 5:
            states.append(rng.choice(states + ["zz", 3]))
        elif kind == 6:
            doc["states"] = rng.choice(([], "s0", None))
        elif kind == 7 and row:
            row[rng.choice(list(row))] = rng.choice(("x", "1/0", "0.5", 0.5, 1, None, ["1"]))
        elif kind == 8 and row:
            k = rng.choice(list(row))
            row[k] = "-" + row[k] if isinstance(row[k], str) else "-1"
        elif kind == 9:
            row[rng.choice(("zz", "h0", "h1"))] = "0"
        elif kind == 10 and row:
            row[rng.choice(list(row))] = "1/7"
        elif kind == 11:
            eta.pop(s, None)
        elif kind == 12:
            eta["zz"] = {}
        elif kind == 13 and eta:
            eta[s] = rng.choice(([], "1", None, {}))
        elif kind == 14:
            doc["eta"] = rng.choice(([], None))
        elif kind == 15 and isinstance(entry, dict) and isinstance(entry.get("id"), str):
            entry["parent"] = entry["id"]
    return doc


class TestEnvironmentReaderMatchesReference:
    def test_seeded_documents(self):
        rng, seen = random.Random(0xE7A), {"built": 0, "refused": 0}
        for _ in range(500):
            doc = seeded_document(rng)
            expected = outcome(reference_environment_from_doc, doc)
            assert outcome(sz.environment_from_doc, doc) == expected
            seen["refused" if len(expected) == 2 else "built"] += 1
        assert min(seen.values()) >= 50, seen

    def test_mutated_documents(self):
        rng, messages = random.Random(0xE7B), set()
        for _ in range(1500):
            doc = mutate(rng, seeded_document(rng))
            expected = outcome(reference_environment_from_doc, doc)
            assert outcome(sz.environment_from_doc, doc) == expected
            if len(expected) == 2:
                messages.add(expected[1].split(":")[0].split(" ")[0])
        assert len(messages) >= 15, sorted(messages)


class SubFraction(Fraction):
    """A Fraction subclass: a Rational that `build_environment` must convert
    to an exact Fraction, as it does an int."""


class TestBuildEnvironmentMatchesReference:
    # Masses given through the library: ints, bools, Fractions, a Fraction
    # subclass and floats.
    MASSES = [F(1), F(1, 2), F(1, 3), F(2, 3), F(0), F(-1, 2), 1, 0, True, False, 0.5, F(3, 2),
              SubFraction(1, 2)]

    def test_seeded_tables(self):
        rng, seen = random.Random(0xE7C), {"built": 0, "refused": 0}
        for _ in range(800):
            forest = random_forest(rng, rng.randint(1, 10))
            states = [f"s{i}" for i in range(rng.randint(1, 5))]
            eta = {s: dict(weights(rng, forest.leaves)) for s in states}
            for row in eta.values():
                if rng.random() < 0.3:
                    row[rng.choice(forest.leaves)] = rng.choice(self.MASSES)
            expected = outcome(reference_build_environment, states, forest, eta)
            assert outcome(build_environment, states, forest, eta) == expected
            seen["refused" if len(expected) == 2 else "built"] += 1
            if len(expected) != 2:
                env = build_environment(states, forest, eta)
                rows = [*env.eta.values(), *env.reach.values()]
                assert {type(m) for row in rows for m in row.values()} == {Fraction}
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("row", [
        {}, {"a": F(1)}, {"a": 1}, {"a": F(1, 2), "b": F(1, 2)}, {"a": F(1, 2)},
        {"a": F(-1, 2), "b": F(3, 2)}, {"a": F(3, 2), "b": F(-1, 2)}, {"a": 0, "b": F(1)},
        {"a": F(1, 3), "b": F(1, 3), "c": F(1, 4)}, {"a": 2, "b": -1},
    ], ids=repr)
    def test_check_distribution(self, row):
        try:
            reference_check_distribution(row, "prior")
        except InvalidEnvironment as exc:
            with pytest.raises(InvalidEnvironment) as caught:
                check_distribution(row, "prior")
            assert str(caught.value) == str(exc)
        else:
            check_distribution(row, "prior")


# Comprehensions and generator expressions are functions on some Python
# versions and inlined on others, so they are not counted.
UNNAMED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def package_calls(read, doc):
    """The number of calls of named `dutchbook` functions while read(doc) runs."""
    package, calls = os.path.dirname(dutchbook.__file__), 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and code.co_name not in UNNAMED:
            calls += 1

    sys.setprofile(profile)
    try:
        read(doc)
    finally:
        sys.setprofile(None)
    return calls


def environment_doc(n_states):
    """n_states eta rows over one small forest, cycling through four rows
    made of the same few strings: a zero mass, a row out of forest order,
    and paths under a shared root."""
    rows = [{"x": "1/2", "y": "1/4", "z": "1/4"}, {"z": "2/3", "x": "1/3"},
            {"y": "1", "z": "0"}, {"x": "1/4", "y": "1/2", "z": "1/4"}]
    return {
        "states": [f"s{i}" for i in range(n_states)],
        "contingencies": [{"id": "r", "parent": None}, {"id": "x", "parent": "r"},
                          {"id": "y", "parent": "r"}, {"id": "z", "parent": None}],
        "eta": {f"s{i}": dict(rows[i % len(rows)]) for i in range(n_states)},
    }


def beliefs_doc(n_rows):
    """n_rows belief rows cycling through four rows made of the same few
    strings: a zero mass, and denominators whose lcm grows along the row."""
    rows = [{"a": "1/2", "b": "1/3", "c": "1/6"}, {"a": "1"}, {"b": "0", "c": "1"},
            {"c": "1/4", "a": "1/2", "b": "1/4"}]
    return {"beliefs": {f"h{i}": dict(rows[i % len(rows)]) for i in range(n_rows)}}


class TestReadersCostNoCallsPerRow:
    """Each row is read by one loop in the reader: on a valid document, the
    number of `dutchbook` calls depends on its distinct strings, not on its
    number of rows."""

    @pytest.mark.parametrize("read,make", [(sz.environment_from_doc, environment_doc),
                                           (sz.beliefs_from_doc, beliefs_doc)],
                             ids=["environment", "beliefs"])
    def test_ten_rows_and_two_hundred_make_the_same_calls(self, read, make):
        assert package_calls(read, make(10)) == package_calls(read, make(200))

    def test_documents_are_valid(self):
        env = sz.environment_from_doc(environment_doc(200))
        assert env.eta["s1"] == {"x": F(1, 3), "z": F(2, 3)}  # sorted into forest order
        assert env.reach["r"]["s0"] == F(3, 4)
        mu = sz.beliefs_from_doc(beliefs_doc(200))
        assert mu._ints["h0"] == (6, {"a": 3, "b": 2, "c": 1})
        assert mu._ints["h3"] == (4, {"c": 1, "a": 2, "b": 1})
