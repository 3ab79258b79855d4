import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from dutchbook import (
    ContingencyForest,
    build_environment,
    has_deterministic_continuation,
    is_uniform_reach,
    reach_probability,
    validate_belief_system,
)
from dutchbook.errors import DomainError, InvalidEnvironment
from dutchbook.gambles import classify_deterministic
from dutchbook import fixtures as fx

from conftest import chain, random_forest, weights

F = Fraction
ZERO = F(0)


class TestForest:
    def test_roots_leaves_chain(self):
        forest = ContingencyForest(["a", "b", "c"], {"b": "a", "c": "b"})
        assert forest.roots == ("a",)
        assert forest.leaves == ("c",)
        assert chain(forest, "c") == ("a", "b", "c")

    def test_multi_root(self):
        forest = ContingencyForest(["a", "b"], {})
        assert forest.roots == ("a", "b")
        assert forest.leaves == ("a", "b")

    def test_comparable_pairs(self):
        forest = ContingencyForest(["a", "b", "c"], {"b": "a", "c": "a"})
        assert list(forest.comparable_pairs()) == [("a", "b"), ("a", "c")]

    def test_comparable_pairs_match_all_pairs_order(self):
        # Shuffled node lists, so children are often listed before parents.
        rng = random.Random(30)
        for _ in range(200):
            forest = random_forest(rng, 12, chain_bias=0.8)
            nodes = list(forest.nodes)
            rng.shuffle(nodes)
            forest = ContingencyForest(nodes, forest.parent)
            expected = [
                (h, hp) for h in nodes for hp in nodes if h != hp and h in chain(forest, hp)
            ]
            assert list(forest.comparable_pairs()) == expected

    def test_rejects_cycle(self):
        with pytest.raises(InvalidEnvironment, match="cycle"):
            ContingencyForest(["a", "b"], {"a": "b", "b": "a"})

    def test_rejects_self_parent(self):
        with pytest.raises(InvalidEnvironment):
            ContingencyForest(["a"], {"a": "a"})

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidEnvironment):
            ContingencyForest(["a", "a"], {})

    def test_rejects_unknown_parent(self):
        with pytest.raises(InvalidEnvironment):
            ContingencyForest(["a"], {"a": "zz"})

    def test_rejects_unknown_child(self):
        with pytest.raises(InvalidEnvironment, match=r"^unknown contingency 'zz' in parent map$"):
            ContingencyForest(["a"], {"zz": "a"})


def reference_chains(nodes, parent):
    """The per-node walk to the root that the walk down from the roots
    replaced: the chains, or the message of the first cycle it meets."""
    chains = {}
    for h in nodes:
        rev, seen, cur = [h], {h}, h
        while cur in parent:
            cur = parent[cur]
            if cur in seen:
                return f"cycle in forest through {cur!r}"
            seen.add(cur)
            rev.append(cur)
        chains[h] = tuple(reversed(rev))
    return chains


class TestChainsMatchPerNodeWalk:
    def test_shuffled_forests_with_and_without_cycles(self):
        rng = random.Random(31)
        seen = {"chains": 0, "cycle": 0}
        for _ in range(400):
            if rng.random() < 0.5:
                forest = random_forest(rng, 14, chain_bias=0.8)
                nodes, parent = list(forest.nodes), dict(forest.parent)
            else:  # any parent but itself, so cycles are common
                nodes = [f"h{i}" for i in range(rng.randint(2, 14))]
                parent = {
                    h: rng.choice([p for p in nodes if p != h])
                    for h in nodes if rng.random() < 0.8
                }
            rng.shuffle(nodes)
            expected = reference_chains(nodes, parent)
            if isinstance(expected, str):
                with pytest.raises(InvalidEnvironment) as err:
                    ContingencyForest(nodes, parent)
                assert str(err.value) == expected
                seen["cycle"] += 1
            else:
                forest = ContingencyForest(nodes, parent)
                assert {h: chain(forest, h) for h in forest.nodes} == expected
                seen["chains"] += 1
        assert min(seen.values()) >= 50, seen

    def test_long_chain_builds_in_linear_steps(self):
        n = 4000
        nodes = [f"h{i}" for i in range(n)]
        started = time.perf_counter()
        forest = ContingencyForest(nodes, {nodes[i]: nodes[i - 1] for i in range(1, n)})
        assert time.perf_counter() - started < 1.0
        assert chain(forest, nodes[-1]) == tuple(nodes)

    def test_deep_forest_costs_linear_memory(self):
        # A table of root-to-node chains would hold n(n+1)/2 slots, about
        # 66 MB here; walking parents holds none.
        n = 4000
        nodes = [f"h{i}" for i in range(n)]
        tracemalloc.start()
        try:
            forest = ContingencyForest(nodes, {nodes[i]: nodes[i - 1] for i in range(1, n)})
            env = build_environment(["s"], forest, {"s": {nodes[-1]: F(1)}})
            book = {nodes[0]: {"s": F(-1)}, nodes[-1]: {"s": F(1, 3)}}
            verdict = classify_deterministic(env, book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, peak
        assert verdict.per_path == {"s": {nodes[-1]: F(-2, 3)}}
        assert "chain" not in vars(forest)


class TestEnvironment:
    def test_larry_reach(self):
        env = fx.larry_environment()
        assert reach_probability(env, "sm", "sq") == F(1, 3)
        assert reach_probability(env, "sm", "pa") == 0
        assert env.consistent_states["sm"] == ("sq", "ma")
        assert env.consistent_states["sq"] == ("sq",)

    def test_skewed_reach(self):
        env = fx.skewed_environment()
        assert reach_probability(env, "a", "u") == F(3, 4)
        assert reach_probability(env, "a", "v") == F(1, 4)

    def test_reach_aggregates_over_chain(self):
        # Interior node; its reach is the sum over paths below it.
        forest = ContingencyForest(["r", "l1", "l2"], {"l1": "r", "l2": "r"})
        env = build_environment(
            ["s"], forest, {"s": {"l1": F(1, 3), "l2": F(2, 3)}}
        )
        assert env.reach["r"]["s"] == 1

    def test_rejects_empty_consistency(self):
        forest = ContingencyForest(["a", "b"], {})
        with pytest.raises(InvalidEnvironment, match="inconsistent contingency"):
            build_environment(["s"], forest, {"s": {"a": F(1)}})

    def test_rejects_bad_eta(self):
        forest = ContingencyForest(["a"], {})
        with pytest.raises(InvalidEnvironment):
            build_environment(["s"], forest, {"s": {"a": F(1, 2)}})
        with pytest.raises(InvalidEnvironment):
            build_environment(["s"], forest, {})

    @pytest.mark.parametrize(
        "row",
        [{"a": 0.5, "b": 0.25, "c": 0.25}, {"a": 0.1, "b": 0.2, "c": 0.7}],
        ids=["dyadic", "inexact"],
    )
    def test_rejects_float_eta(self, row):
        # 0.1 + 0.2 + 0.7 is not 1 in binary floating point; 0.5 + 0.25 + 0.25 is.
        forest = ContingencyForest(["a", "b", "c"], {})
        with pytest.raises(InvalidEnvironment, match=r"eta\['s'\]: non-rational mass at 'a'"):
            build_environment(["s"], forest, {"s": row})

    def test_fraction_masses_kept_and_others_converted(self):
        forest = ContingencyForest(["r", "l1", "l2"], {"l1": "r", "l2": "r"})
        third = F(1, 3)
        env = build_environment(["s", "t"], forest, {"s": {"l1": third, "l2": F(2, 3)},
                                                    "t": {"l2": 1}})
        assert env.eta["s"]["l1"] is third
        assert env.reach["l1"]["s"] is third
        assert env.reach["r"] == {"s": 1, "t": 1}
        values = [m for table in (env.eta, env.reach) for row in table.values()
                  for m in row.values()]
        assert all(type(m) is F for m in values)

    def test_tables_do_not_alias_caller_rows(self):
        # Rows in forest order with positive Fraction masses are copied whole,
        # the others filtered or sorted; none may be the caller's dict, so
        # mutating the caller's rows later leaves the environment as built.
        forest = ContingencyForest(["r", "a", "b", "c"], {"a": "r", "b": "r"})
        eta = {
            "s": {"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)},  # in order, all positive
            "t": {"c": F(1, 3), "a": F(2, 3)},  # out of order
            "u": {"a": ZERO, "b": 1, "c": 0},  # int masses and explicit zeros
            "v": {"c": F(1, 2), "b": 0, "a": F(1, 2)},  # both
        }
        env = build_environment(["s", "t", "u", "v"], forest, eta)
        expected_eta = {
            "s": {"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)},
            "t": {"a": F(2, 3), "c": F(1, 3)},
            "u": {"b": F(1)},
            "v": {"a": F(1, 2), "c": F(1, 2)},
        }
        expected_reach = {
            "r": {"s": F(1, 2), "t": F(2, 3), "u": F(1), "v": F(1, 2)},
            "a": {"s": F(1, 4), "t": F(2, 3), "v": F(1, 2)},
            "b": {"s": F(1, 4), "u": F(1)},
            "c": {"s": F(1, 2), "t": F(1, 3), "v": F(1, 2)},
        }
        assert repr(env.eta) == repr(expected_eta)
        assert repr(env.reach) == repr(expected_reach)
        for i, row in enumerate(eta.values()):
            row["a"] = F(i + 5)
            row.pop("c", None)
            row["zz"] = F(-1)
        eta["w"] = {"a": F(1)}
        assert repr(env.eta) == repr(expected_eta)
        assert repr(env.reach) == repr(expected_reach)
        assert env.consistent_states["b"] == ("s", "u")

    def test_many_states_build_in_linear_time(self):
        # Each eta row is looked up among the states once, not scanned for.
        n = 20_000
        states = [f"s{i}" for i in range(n)]
        forest = ContingencyForest(["a", "b"], {})
        eta = {s: {"a" if i % 2 else "b": F(1)} for i, s in enumerate(states)}
        started = time.perf_counter()
        env = build_environment(states, forest, eta)
        assert time.perf_counter() - started < 1.0
        assert len(env.reach["a"]) == len(env.reach["b"]) == n // 2
        with pytest.raises(InvalidEnvironment, match=r"eta rows for unknown states \['x'\]"):
            build_environment(states, forest, {**eta, "x": {"a": F(1)}})

    def test_eta_only_on_leaves(self):
        forest = ContingencyForest(["r", "l"], {"l": "r"})
        with pytest.raises(InvalidEnvironment, match="unknown path keys"):
            build_environment(["s"], forest, {"s": {"r": F(1)}})

    def test_unknown_lookups(self):
        env = fx.larry_environment()
        with pytest.raises(DomainError):
            reach_probability(env, "nope", "sq")
        with pytest.raises(DomainError):
            reach_probability(env, "sm", "nope")


class TestUniformReach:
    def test_larry_uniform(self):
        assert is_uniform_reach(fx.larry_environment())

    def test_skewed_not_uniform(self):
        assert not is_uniform_reach(fx.skewed_environment())


class TestDeterministicContinuation:
    def test_nested_true(self):
        assert has_deterministic_continuation(fx.nested_environment())

    def test_larry_true(self):
        # All contingencies are leaves, so the condition is vacuous.
        assert has_deterministic_continuation(fx.larry_environment())

    def test_branching_state_false(self):
        forest = ContingencyForest(["h0", "h1", "h2"], {"h1": "h0", "h2": "h0"})
        env = build_environment(
            ["A"], forest, {"A": {"h1": F(1, 2), "h2": F(1, 2)}}
        )
        assert not has_deterministic_continuation(env)


class TestBeliefValidation:
    def test_valid(self):
        env = fx.larry_environment()
        assert validate_belief_system(env, fx.regret_beliefs()) == []

    def test_reports_problems(self):
        env = fx.larry_environment()
        mu = fx.regret_beliefs()
        del mu["sm"]
        mu["mp"] = {"ma": F(1, 2), "pa": F(1, 4)}
        mu["ps"] = {"pa": F(1, 4), "sq": F(1, 2), "ma": F(1, 4)}  # ma outside S(ps)
        problems = dict(validate_belief_system(env, mu))
        assert "undefined belief" in problems["sm"]
        assert "sum" in problems["mp"]
        assert "outside S(h)" in problems["ps"]

    def test_negative_mass(self):
        env = fx.larry_environment()
        mu = fx.regret_beliefs()
        mu["sm"] = {"sq": F(-1, 4), "ma": F(5, 4)}
        assert any(reason == "negative mass" for _, reason in validate_belief_system(env, mu))

    def test_outside_mass_is_reported_exactly(self):
        env = fx.larry_environment()
        mu = fx.regret_beliefs()
        mu["ps"] = {"pa": F(1, 6), "sq": F(1, 2), "ma": F(1, 3)}  # ma outside S(ps)
        assert validate_belief_system(env, mu) == [("ps", "mass 1/3 outside S(h)")]

    def test_float_mass_rejected(self):
        env = fx.larry_environment()
        mu = fx.regret_beliefs()
        mu["sm"] = {"sq": 0.25, "ma": 0.75}
        assert validate_belief_system(env, mu) == [("sm", "non-rational mass")]


# Reference implementations: the dense tables `build_environment` used to
# store (reach zero-filled over every (h, s) pair, S(h) and L(s) rescanned
# from it), and the `has_deterministic_continuation` that called
# `paths_through` per child, kept to check the sparse tables against them.

def reference_dense_tables(states, forest, eta):
    eta_table = {s: {k: F(v) for k, v in eta[s].items()} for s in states}
    reach = {h: {s: ZERO for s in states} for h in forest.nodes}
    for s in states:
        for leaf, mass in eta_table[s].items():
            if mass == 0:
                continue
            for h in chain(forest, leaf):
                reach[h][s] += mass
    consistent_states = {
        h: tuple(s for s in states if reach[h][s] > 0) for h in forest.nodes
    }
    consistent_paths = {
        s: tuple(l for l in forest.leaves if eta_table[s].get(l, ZERO) > 0) for s in states
    }
    return eta_table, reach, consistent_states, consistent_paths


def reference_has_deterministic_continuation(forest, consistent_states, consistent_paths):
    def paths_through(h):
        return tuple(l for l in forest.leaves if h in chain(forest, l))

    for h in forest.nodes:
        kids = forest.children[h]
        if not kids:
            continue
        child_of = {}
        for c in kids:
            for leaf in paths_through(c):
                child_of[leaf] = c
        for s in consistent_states[h]:
            used = {child_of[leaf] for leaf in consistent_paths[s] if h in chain(forest, leaf)}
            if len(used) > 1:
                return False
    return True


def random_inputs(rng):
    """States, a forest and an eta with 1-3 charged leaves per state, an
    explicit zero mass on a random leaf unless it is charged, and keys in
    shuffled order."""
    forest = random_forest(rng, 8, chain_bias=0.8)
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    eta = {}
    for s in states:
        leaves = rng.sample(forest.leaves, min(len(forest.leaves), rng.randint(1, 3)))
        row = {rng.choice(forest.leaves): ZERO, **weights(rng, leaves)}
        items = list(row.items())
        rng.shuffle(items)
        eta[s] = dict(items)
    return states, forest, eta


def caterpillar(n):
    """A spine of about n/2 nodes, each with one leaf hanging off it."""
    spine = [f"c{i}" for i in range(n // 2)]
    parent = {spine[i]: spine[i - 1] for i in range(1, len(spine))}
    parent.update({f"l{i}": c for i, c in enumerate(spine)})
    return ContingencyForest(spine + [f"l{i}" for i in range(len(spine))], parent)


def binary_tree(n):
    """Node i has children 2i + 1 and 2i + 2 while they are below n."""
    nodes = [f"b{i}" for i in range(n)]
    return ContingencyForest(nodes, {nodes[i]: nodes[(i - 1) // 2] for i in range(1, n)})


class TestDeterministicContinuationOnLargeForests:
    def test_matches_reference(self):
        rng = random.Random(44)
        continuing = 0
        for i in range(60):
            forest = (caterpillar, binary_tree)[i % 2](rng.randint(40, 160))
            # One state per leaf, so every S(h) is nonempty; in half of the
            # forests a state takes one or two more leaves now and then.
            rate = 0.05 if i % 4 >= 2 else 0
            eta = {}
            for j, leaf in enumerate(forest.leaves):
                taken = {leaf}
                if rng.random() < rate:
                    taken.update(rng.sample(forest.leaves, rng.randint(1, 2)))
                eta[f"s{j}"] = weights(rng, sorted(taken), full_support=True)
            states = list(eta)
            env = build_environment(states, forest, eta)
            _, _, sh, ls = reference_dense_tables(states, forest, eta)
            expected = reference_has_deterministic_continuation(forest, sh, ls)
            assert has_deterministic_continuation(env) == expected
            continuing += expected
        assert 10 < continuing < 50, continuing


class TestSparseTablesMatchDenseReference:
    def test_tables_and_continuation(self):
        rng = random.Random(31)
        built = rejected = continuing = 0
        while built < 300:
            states, forest, eta = random_inputs(rng)
            dense_eta, dense_reach, sh, ls = reference_dense_tables(states, forest, eta)
            if not all(sh.values()):
                rejected += 1
                with pytest.raises(InvalidEnvironment, match="inconsistent contingency"):
                    build_environment(states, forest, eta)
                continue
            env = build_environment(states, forest, eta)
            built += 1
            for s in states:
                row = env.eta[s]
                assert row == {l: m for l, m in dense_eta[s].items() if m > 0}
                assert list(row) == [l for l in forest.leaves if l in row]
                assert tuple(row) == ls[s]
            for h in forest.nodes:
                row = env.reach[h]
                assert row == {s: p for s, p in dense_reach[h].items() if p > 0}
                assert list(row) == [s for s in states if s in row]
                assert env.consistent_states[h] == sh[h]
                for s in states:
                    assert reach_probability(env, h, s) == dense_reach[h][s]
            assert all(m > 0 for row in env.eta.values() for m in row.values())
            assert all(p > 0 for row in env.reach.values() for p in row.values())
            uniform = all(len({dense_reach[h][s] for s in sh[h]}) == 1 for h in forest.nodes)
            assert is_uniform_reach(env) == uniform
            expected = reference_has_deterministic_continuation(forest, sh, ls)
            assert has_deterministic_continuation(env) == expected
            continuing += expected
        assert rejected > 0
        assert 30 < continuing < 270
