from fractions import Fraction

import pytest

from dutchbook import (
    CompleteCps,
    Lcps,
    check_complete_consistency,
    check_siniscalchi,
    cps_to_lcps,
    derive_beliefs,
    lcps_to_cps,
    validate_complete_cps,
)
from dutchbook.errors import InputError, NonUniformReach
from dutchbook import fixtures as fx

from conftest import random_lcps

F = Fraction
STATES = ("sq", "ma", "pa")


class TestLcpsToCps:
    def test_lex_rows(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        assert cps.conditionals[frozenset({"ma", "pa"})] == {"ma": F(2, 3), "pa": F(1, 3)}
        assert cps.conditionals[frozenset({"sq", "ma"})] == {"sq": F(1)}
        assert cps.conditionals[frozenset(STATES)] == {"sq": F(1)}

    def test_result_satisfies_chain_rule(self):
        assert validate_complete_cps(lcps_to_cps(fx.lex_lcps(), STATES)) is None

    def test_state_count_ceiling(self):
        many = tuple(f"s{i}" for i in range(17))
        with pytest.raises(InputError, match="limited"):
            CompleteCps(many, {})


class TestValidateCompleteCps:
    def test_missing_subset(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        del cps.conditionals[frozenset({"sq", "pa"})]
        with pytest.raises(InputError, match="missing subset"):
            validate_complete_cps(cps)

    def test_row_not_a_distribution(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(1, 2), "pa": F(1, 4)}
        v = validate_complete_cps(cps)
        assert v is not None and v.d is None

    def test_float_row_rejected(self):
        # 0.5 + 0.5 == 1.0 in floating point; the mass must be rejected
        # before any row arithmetic, not compared as a float.
        cps = CompleteCps(("a", "b"), {
            frozenset("a"): {"a": 1.0},
            frozenset("b"): {"b": F(1)},
            frozenset("ab"): {"a": 0.5, "b": 0.5},
        })
        with pytest.raises(InputError, match=r"row \['a'\]: non-rational mass at 'a'"):
            validate_complete_cps(cps)
        with pytest.raises(InputError, match="non-rational mass"):
            cps_to_lcps(cps)

    def test_chain_rule_violation(self):
        cps = lcps_to_cps(Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},)), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(2, 3), "pa": F(1, 3)}
        v = validate_complete_cps(cps)
        assert v is not None and v.d == frozenset({"ma", "pa"})
        assert v.lhs != v.rhs


class TestCpsToLcps:
    def test_lex_round_trip(self):
        assert cps_to_lcps(lcps_to_cps(fx.lex_lcps(), STATES)) == fx.lex_lcps()

    def test_single_level_round_trip(self):
        lcps = Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},))
        assert cps_to_lcps(lcps_to_cps(lcps, STATES)) == lcps

    def test_random_round_trips(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            states = tuple(f"s{i}" for i in range(n))
            lcps = random_lcps(rng, states)
            assert cps_to_lcps(lcps_to_cps(lcps, states)) == lcps

    def test_unconstrained_row_tamper_still_valid(self):
        # The {ma,pa} row is free when the full row puts zero mass on it:
        # tampering there just selects a different LCPS.
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(1, 2), "pa": F(1, 2)}
        assert cps_to_lcps(cps).levels[1] == {"ma": F(1, 2), "pa": F(1, 2)}

    def test_invalid_cps_rejected(self):
        cps = lcps_to_cps(Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},)), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(2, 3), "pa": F(1, 3)}
        with pytest.raises(InputError, match="invalid complete CPS"):
            cps_to_lcps(cps)


class TestSiniscalchi:
    def test_regret_violation(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        v = check_siniscalchi(env, mu, 3)
        assert v.sequence == ("sm", "mp", "ps")
        assert v.event == ("sq",)
        assert v.lhs != v.rhs

    def test_uniform_ok(self):
        assert check_siniscalchi(fx.larry_environment(), fx.uniform_beliefs(), 3) is None

    def test_lex_ok(self):
        assert check_siniscalchi(fx.larry_environment(), fx.lex_beliefs()) is None

    def test_missing_belief_row_rejected(self):
        mu = fx.regret_beliefs()
        del mu["sm"]
        with pytest.raises(InputError, match="invalid belief system: .*undefined belief"):
            check_siniscalchi(fx.larry_environment(), mu)

    def test_float_belief_row_rejected(self):
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": 0.5, "ma": 0.5}
        with pytest.raises(InputError, match="invalid belief system: .*non-rational mass"):
            check_siniscalchi(fx.larry_environment(), mu)

    def test_beliefs_validated_before_uniform_reach(self):
        with pytest.raises(InputError, match="invalid belief system"):
            check_siniscalchi(fx.skewed_environment(), {})

    def test_requires_uniform_reach(self):
        with pytest.raises(NonUniformReach):
            check_siniscalchi(fx.skewed_environment(), fx.skewed_beliefs())

    def test_max_len_bounds(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        with pytest.raises(InputError):
            check_siniscalchi(env, mu, 1)
        # The Larry violation needs three contingencies.
        assert check_siniscalchi(env, mu, 2) is None

    def test_agrees_with_complete_consistency_on_derived_beliefs(self, rng):
        env = fx.larry_environment()
        for _ in range(25):
            mu = derive_beliefs(env, random_lcps(rng, env.states))
            assert check_siniscalchi(env, mu) is None
            assert check_complete_consistency(env, mu).consistent
