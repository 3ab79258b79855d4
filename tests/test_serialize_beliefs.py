"""`serialize.beliefs_from_doc` reads each belief row as reduced (p, q) pairs
and as its integer row; the row's Fractions are built on its first lookup.
Checked against the dict-of-Fraction reader it replaced, kept below as the
reference, on seeded flat and tree documents; and through the CLI, where the
check commands build no Fraction row and synth and verify build each row
they read once."""
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (filtration_beliefs, inconsistent_beliefs, perturbable, random_forest,
                      random_lcps, weights)

from dutchbook import build_environment, derive_beliefs, validate_belief_system
from dutchbook import model
from dutchbook import serialize as sz
from dutchbook.cli import main
from dutchbook.errors import InvalidEnvironment
from dutchbook.model import require_valid_beliefs

F = Fraction
SHAPES = {"flat": 0.0, "tree": 0.9}  # chain bias of the seeded forest


def reference_beliefs(doc):
    """The reader replaced: every row a dict of Fractions, entry by entry, in
    document order."""
    return {h: {s: sz.parse_rational(v) for s, v in row.items()}
            for h, row in doc["beliefs"].items()}


def seeded_environment(rng, shape):
    while True:
        forest = random_forest(rng, 12, chain_bias=SHAPES[shape])
        states = [f"s{i}" for i in range(rng.randint(2, 7))]
        try:
            return build_environment(states, forest, {s: weights(rng, forest.leaves)
                                                      for s in states})
        except InvalidEnvironment:
            continue


def write_row(rng, row, support):
    """A row as document strings in shuffled key order, some unreduced, with
    explicit zeros on some states of S(h) outside the row's support."""
    text = {}
    for s, m in row.items():
        k = rng.choice((1, 1, 1, 2, 3))
        unreduced = k > 1 or rng.random() < 0.3
        text[s] = f"{m.numerator * k}/{m.denominator * k}" if unreduced else str(m)
    for s in support:
        if s not in text and rng.random() < 0.4:
            text[s] = rng.choice(("0", "0/5", "-0"))
    keys = list(text)
    rng.shuffle(keys)
    return {s: text[s] for s in keys}


def beliefs_doc(rng, env, mu):
    hs = list(mu)
    rng.shuffle(hs)
    return {"beliefs": {h: write_row(rng, mu[h], env.consistent_states[h]) for h in hs}}


def seeded_documents(seed, count):
    """(env, beliefs document) pairs: consistent beliefs from an LCPS,
    forward-consistent ones, and perturbed ones where the forest allows."""
    rng = random.Random(seed)
    for i in range(count):
        env = seeded_environment(rng, "flat" if i % 2 else "tree")
        kind = i % 3
        if kind == 0:
            mu = derive_beliefs(env, random_lcps(rng, env.states))
        elif kind == 1 or not perturbable(env):
            mu = filtration_beliefs(rng, env)
        else:
            mu = inconsistent_beliefs(rng, env)
        yield env, beliefs_doc(rng, env, mu)


# A word of each reason `validate_belief_system` gives.
REASONS = ("unknown contingency", "undefined belief", "unknown states", "negative mass",
           "masses sum", "outside S(h)")


def rows(table):
    return [(h, list(row.items())) for h, row in table.items()]


class TestReadBeliefsMatchReference:
    def test_rows_values_and_order(self):
        for env, doc in seeded_documents(0xBE11EF, 300):
            mu, ref = sz.beliefs_from_doc(doc), reference_beliefs(doc)
            assert repr(rows(mu)) == repr(rows(ref))
            assert mu == ref and ref == mu
            assert list(mu) == list(ref) and len(mu) == len(ref)
            assert all(type(m) is F for row in mu.values() for m in row.values())
            assert repr(require_valid_beliefs(env, mu)) == repr(require_valid_beliefs(env, ref))

    def test_faults_are_reported_as_for_fraction_rows(self):
        rng = random.Random(0xFA17)
        faults = {  # each applied to the row of h
            "unknown contingency": lambda b, h, env: b.update(zz={env.states[0]: "1"}),
            "missing row": lambda b, h, env: b.pop(h),
            "unknown state": lambda b, h, env: b[h].update(xx="0"),
            "negative mass": lambda b, h, env: b[h].update(
                {env.states[0]: "-1/2", env.states[-1]: "3/2"}),
            "sum not 1": lambda b, h, env: b[h].update({env.states[0]: "7/3"}),
            "outside S(h)": lambda b, h, env: b[h].update({s: "1/2" for s in env.states[:2]}),
            "empty row": lambda b, h, env: b.update({h: {}}),
        }
        seen = set()
        for env, doc in seeded_documents(0xFA17, 120):
            for name in rng.sample(sorted(faults), 2):
                if doc["beliefs"]:
                    faults[name](doc["beliefs"], rng.choice(list(doc["beliefs"])), env)
            got = validate_belief_system(env, sz.beliefs_from_doc(doc))
            assert got == validate_belief_system(env, reference_beliefs(doc))
            seen.update(next(k for k in REASONS if k in reason) for _, reason in got)
        assert seen == set(REASONS)

    def test_read_only(self):
        mu = sz.beliefs_from_doc({"beliefs": {"h": {"a": "1/2", "b": "1/2"}}})
        with pytest.raises(TypeError):
            mu["h"] = {}
        with pytest.raises(TypeError):
            mu["h"]["a"] = F(1)
        with pytest.raises(KeyError):
            mu["k"]
        assert "k" not in mu and mu.get("k") is None
        assert repr(mu) == "_ReadBeliefs({'h': {'a': Fraction(1, 2), 'b': Fraction(1, 2)}})"


def instance_files(folder, rng, shape):
    """Environment, consistent, forward-consistent and perturbed beliefs of
    one seeded instance, written as documents; None when the forest cannot
    hold inconsistent beliefs."""
    env = seeded_environment(rng, shape)
    if not perturbable(env):
        return None
    tables = {"good": derive_beliefs(env, random_lcps(rng, env.states)),
              "filt": filtration_beliefs(rng, env), "bad": inconsistent_beliefs(rng, env)}
    docs = {"env": sz.environment_to_doc(env)}
    docs.update({name: beliefs_doc(rng, env, mu) for name, mu in tables.items()})
    paths = {}
    for name, doc in docs.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


class TestRowsBuiltOnLookup:
    """Each contingency's Fraction row is counted when it is built."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = Counter()
        lookup = model._ReadBeliefs.__getitem__

        def counting(self, h):
            if h not in self._rows:
                counts[h] += 1
            return lookup(self, h)

        monkeypatch.setattr(model._ReadBeliefs, "__getitem__", counting)
        return counts

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_check_commands_build_no_row_and_books_build_each_row_once(
            self, shape, built, tmp_path, capsys):
        rng, served = random.Random(f"lookup:{shape}"), 0
        for i in range(12):
            folder = tmp_path / str(i)
            folder.mkdir()
            p = instance_files(folder, rng, shape)
            if p is None:
                continue
            for command, beliefs in (("check-complete", "good"), ("check-complete", "bad"),
                                     ("check-forward", "filt"), ("check-forward", "bad")):
                argv = [command, "--env", str(p["env"]), "--beliefs", str(p[beliefs])]
                assert main(argv) in (0, 1)
                capsys.readouterr()
                assert not built
            assert main(["synth-book", "--env", str(p["env"]), "--beliefs", str(p["bad"])]) == 0
            book = json.loads(capsys.readouterr().out)
            assert set(built) == set(book["gambles"]) and set(built.values()) == {1}
            built.clear()
            (folder / "book.json").write_text(json.dumps({"gambles": book["gambles"]}))
            assert main(["verify-book", "--env", str(p["env"]), "--beliefs", str(p["bad"]),
                         "--book", str(folder / "book.json")]) == 0
            capsys.readouterr()
            assert set(built) == set(book["gambles"]) and set(built.values()) == {1}
            built.clear()
            served += 1
        assert served >= 3
