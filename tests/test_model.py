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
from dutchbook import fixtures as fx

F = Fraction


class TestForest:
    def test_roots_leaves_chain(self):
        forest = ContingencyForest(["a", "b", "c"], {"b": "a", "c": "b"})
        assert forest.roots == ("a",)
        assert forest.leaves == ("c",)
        assert forest.chain["c"] == ("a", "b", "c")

    def test_multi_root(self):
        forest = ContingencyForest(["a", "b"], {})
        assert forest.roots == ("a", "b")
        assert forest.leaves == ("a", "b")

    def test_comparable_pairs(self):
        forest = ContingencyForest(["a", "b", "c"], {"b": "a", "c": "a"})
        assert list(forest.comparable_pairs()) == [("a", "b"), ("a", "c")]

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
