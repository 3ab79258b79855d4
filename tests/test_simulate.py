import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dutchbook import (
    ContingencyForest,
    FixedState,
    Prior,
    SimConfig,
    SimReport,
    StateStats,
    build_environment,
    classify_deterministic,
    classify_dutch_book,
    compare_to_exact,
    derive_beliefs,
    flagged_states,
    is_willing_to_accept,
    run_rounds,
)
from dutchbook.errors import DomainError, InputError
from dutchbook import fixtures as fx
from dutchbook.model import ZERO, check_distribution

from conftest import (
    accepted_gambles,
    inconsistent_beliefs,
    perturbable,
    random_environment,
    random_lcps,
    weights,
)

F = Fraction


def larry_run(rounds=500, seed=42, state="sq", mu=None, g=None):
    env = fx.larry_environment()
    return run_rounds(
        env,
        mu or fx.regret_beliefs(),
        g if g is not None else fx.larry_book(),
        SimConfig(rounds, seed, FixedState(state)),
    )


class TestRunRounds:
    def test_reproducible(self):
        a, b = larry_run(seed=7), larry_run(seed=7)
        assert a == b

    def test_seed_changes_draws(self):
        a, b = larry_run(seed=7), larry_run(seed=8)
        assert a.per_state["sq"].empirical_mean_exact != b.per_state["sq"].empirical_mean_exact

    def test_exact_expectations(self):
        stats = larry_run(rounds=10).per_state["sq"]
        assert stats.exact_expectation == F(-1, 3)
        assert stats.exact_expectation_ungated == F(-1, 3)

    def test_all_zero_book(self):
        stats = larry_run(g={}).per_state["sq"]
        assert stats.empirical_mean_exact == 0
        assert stats.sample_std_dev == 0.0
        assert stats.exact_expectation == 0

    def test_uniform_beliefs_reject_everything(self):
        stats = larry_run(mu=fx.uniform_beliefs()).per_state["sq"]
        # Every gamble is declined, so the gated game is worthless.
        assert stats.empirical_mean_exact == 0
        assert stats.exact_expectation == 0
        assert stats.exact_expectation_ungated == F(-1, 3)

    def test_prior_mode_counts(self):
        env = fx.larry_environment()
        prior = {"sq": F(1, 2), "ma": F(1, 4), "pa": F(1, 4)}
        report = run_rounds(
            env, fx.regret_beliefs(), fx.larry_book(), SimConfig(300, 3, Prior(prior))
        )
        assert sum(s.count for s in report.per_state.values()) == 300
        assert set(report.per_state) == {"sq", "ma", "pa"}

    def test_prior_must_be_distribution(self):
        env = fx.larry_environment()
        with pytest.raises(Exception):
            run_rounds(
                env,
                fx.regret_beliefs(),
                fx.larry_book(),
                SimConfig(10, 0, Prior({"sq": F(1, 2)})),
            )

    def test_rounds_must_be_positive(self):
        with pytest.raises(InputError):
            SimConfig(0, 0, FixedState("sq"))

    @pytest.mark.parametrize(
        "rounds, seed, message",
        [
            (2.5, 3, "rounds must be an int, not float"),
            (True, 3, "rounds must be an int, not bool"),
            (10, 3.0, "seed must be an int, not float"),
            (10, False, "seed must be an int, not bool"),
            (10, "3", "seed must be an int, not str"),
        ],
    )
    def test_rounds_and_seed_must_be_ints(self, rounds, seed, message):
        with pytest.raises(InputError, match=message):
            SimConfig(rounds, seed, FixedState("sq"))

    def test_empty_belief_system_rejected(self):
        with pytest.raises(InputError, match="invalid belief system: .*undefined belief"):
            run_rounds(
                fx.larry_environment(), {}, fx.larry_book(), SimConfig(10, 0, FixedState("sq"))
            )

    def test_float_belief_row_rejected(self):
        # A float row would gate the book through float acceptance.
        mu = fx.regret_beliefs()
        mu["sm"] = {"sq": 0.25, "ma": 0.75}
        with pytest.raises(InputError, match="invalid belief system: .*non-rational mass"):
            larry_run(rounds=10, mu=mu)

    def test_beliefs_validated_before_the_state(self):
        with pytest.raises(InputError, match="invalid belief system"):
            larry_run(rounds=10, mu={"sq": {}}, state="nowhere")

    def test_float_prior_rejected(self):
        # Floats that sum to 1 in floating point would drive the draws.
        prior = Prior({"sq": 0.1, "ma": 0.2, "pa": 0.7})
        with pytest.raises(DomainError, match="prior: non-rational mass at 'sq'"):
            run_rounds(
                fx.larry_environment(),
                fx.regret_beliefs(),
                fx.larry_book(),
                SimConfig(10, 0, prior),
            )


class TestCompareToExact:
    def test_larry_within_tolerance(self):
        report = larry_run(rounds=5000)
        deviations = compare_to_exact(report)
        assert deviations["sq"] < 4
        assert flagged_states(deviations) == []

    def test_zero_variance_exact_match(self):
        deviations = compare_to_exact(larry_run(g={}))
        assert deviations == {"sq": 0.0}

    def test_mismatched_expectation_is_flagged(self):
        report = larry_run(rounds=2000)
        report.per_state["sq"].exact_expectation = F(5)  # deliberately wrong
        deviations = compare_to_exact(report)
        assert flagged_states(deviations) == ["sq"]

    def test_zero_variance_mismatch_is_infinite(self):
        report = larry_run(g={})
        report.per_state["sq"].exact_expectation = F(1)
        assert compare_to_exact(report)["sq"] == float("inf")

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            compare_to_exact(larry_run(rounds=1))


# A Fraction-comparison replay: a fresh generator per round, Fraction
# comparisons per draw and one Fraction addition per round. Kept as the
# reference that the integer-threshold replay must match bit for bit.

_U64 = 1 << 64


def _reference_round_rng(seed, index):
    return random.Random(f"{seed}:{index}")


def _reference_draw(rng, cumulative):
    u = Fraction(rng.getrandbits(64), _U64)
    for bound, key in cumulative:
        if u < bound:
            return key
    return cumulative[-1][1]


def _reference_cumulative(masses):
    acc = ZERO
    out = []
    for k, mass in masses:
        if mass > 0:
            acc += mass
            out.append((acc, k))
    return out


def reference_run_rounds(env, mu, g, cfg):
    exact_ungated = classify_dutch_book(env, g).per_state
    gated = {h: gamble for h, gamble in g.items() if is_willing_to_accept(mu[h], gamble)}
    exact_gated = classify_dutch_book(env, gated).per_state
    payoff = classify_deterministic(env, gated).per_path
    if isinstance(cfg.mode, FixedState):
        env.require_state(cfg.mode.state)
        tracked = (cfg.mode.state,)
        state_cum = None
    else:
        check_distribution(cfg.mode.distribution, "prior")
        for s in cfg.mode.distribution:
            env.require_state(s)
        tracked = tuple(s for s in env.states if cfg.mode.distribution.get(s, ZERO) > 0)
        state_cum = _reference_cumulative(
            (s, cfg.mode.distribution.get(s, ZERO)) for s in env.states
        )
    path_cum = {s: _reference_cumulative(env.eta[s].items()) for s in env.states}
    counts = {s: 0 for s in tracked}
    sums = {s: ZERO for s in tracked}
    sq_sums = {s: 0.0 for s in tracked}
    for i in range(cfg.rounds):
        rng = _reference_round_rng(cfg.seed, i)
        s = cfg.mode.state if state_cum is None else _reference_draw(rng, state_cum)
        leaf = _reference_draw(rng, path_cum[s])
        value = payoff[s][leaf]
        counts[s] += 1
        sums[s] += value
        sq_sums[s] += float(value) ** 2
    per_state = {}
    for s in tracked:
        n = counts[s]
        mean_exact = sums[s] / n if n else ZERO
        mean = float(mean_exact)
        if n >= 2:
            std = math.sqrt(max(0.0, (sq_sums[s] - n * mean * mean) / (n - 1)))
        else:
            std = 0.0
        per_state[s] = StateStats(n, mean, mean_exact, exact_gated[s], exact_ungated[s], std)
    return SimReport(cfg.rounds, cfg.seed, per_state)


def _declined_gambles(rng, env):
    """Unrepaired random payoffs on S(h): some are accepted, many declined."""
    g = {}
    for h in env.forest.nodes:
        if rng.random() < 0.5:
            sh = env.consistent_states[h]
            g[h] = {s: F(rng.randint(-40, 40), rng.randint(1, 8)) for s in sh}
    return g


class TestReplayMatchesFractionReference:
    def assert_same(self, env, mu, g, cfg):
        new, ref = run_rounds(env, mu, g, cfg), reference_run_rounds(env, mu, g, cfg)
        assert new == ref  # float fields by ==
        assert repr(new) == repr(ref)  # and bit for bit, signed zeros included
        return new

    def test_larry_every_fixed_state(self):
        env, book = fx.larry_environment(), fx.larry_book()
        for mu in (fx.regret_beliefs(), fx.uniform_beliefs()):
            for state in env.states:
                for rounds, seed in ((1, 0), (2, 5), (300, 17), (1000, 90)):
                    self.assert_same(env, mu, book, SimConfig(rounds, seed, FixedState(state)))

    def test_larry_priors(self):
        env, mu, book = fx.larry_environment(), fx.regret_beliefs(), fx.larry_book()
        priors = [
            {s: F(1, 3) for s in env.states},
            {"sq": F(1, 2), "ma": F(1, 4), "pa": F(1, 4)},
            {"sq": F(9, 10), "ma": F(1, 10)},
            {"sq": F(0), "ma": F(2, 7), "pa": F(5, 7)},
            {"pa": F(1)},
        ]
        for prior in priors:
            for rounds, seed in ((1, 3), (400, 11)):
                report = self.assert_same(env, mu, book, SimConfig(rounds, seed, Prior(prior)))
                assert set(report.per_state) == {s for s, m in prior.items() if m > 0}

    def test_seeded_random_instances(self):
        rng = random.Random(0x51)
        seen = {"declined": 0, "accepted": 0, "zero_prior": 0, "one_round": 0, "fixed": 0}
        for _ in range(220):
            env = random_environment(rng, max_states=5, max_nodes=8)
            if perturbable(env) and rng.random() < 0.5:
                mu = inconsistent_beliefs(rng, env)
            else:
                mu = derive_beliefs(env, random_lcps(rng, env.states))
            if rng.random() < 0.5:
                g = accepted_gambles(rng, env, mu)
            else:
                g = _declined_gambles(rng, env)
            accepted = [h for h, x in g.items() if is_willing_to_accept(mu[h], x)]
            seen["accepted"] += bool(accepted)
            seen["declined"] += len(accepted) < len(g)
            if rng.random() < 0.4:
                mode = FixedState(rng.choice(env.states))
                seen["fixed"] += 1
            else:
                prior = weights(rng, env.states)
                prior.update({s: ZERO for s in env.states if s not in prior})
                seen["zero_prior"] += any(m == 0 for m in prior.values())
                mode = Prior(prior)
            rounds = 1 if rng.random() < 0.15 else rng.randint(2, 80)
            seen["one_round"] += rounds == 1
            self.assert_same(env, mu, g, SimConfig(rounds, rng.randrange(1 << 32), mode))
        assert min(seen.values()) >= 20, seen


class _PlannedDraws:
    """Generator stub: seeding is ignored, getrandbits returns planned values."""

    def __init__(self, draws):
        self.draws = list(draws)

    def seed(self, *args):
        pass

    def getrandbits(self, k):
        assert k == 64
        return self.draws.pop(0)


def _boundary_draws(cumulative):
    """r = B - 1, B, B + 1 around each B = ceil(b * 2**64), within 64 bits."""
    for bound, _ in cumulative:
        exact = bound * _U64
        ceil = -(-exact.numerator // exact.denominator)
        yield from (r for r in (ceil - 1, ceil, ceil + 1) if 0 <= r < _U64)


class TestThresholdBoundaries:
    """Draws on both sides of every threshold pick the key the Fraction
    comparison u < b picks, where b * 2**64 is an integer and where not."""

    def replay(self, monkeypatch, env, mu, g, mode, draws):
        stub = _PlannedDraws(draws)
        monkeypatch.setattr("dutchbook.simulate.random", SimpleNamespace(Random=lambda: stub))
        report = run_rounds(env, mu, g, SimConfig(1, 0, mode))
        assert stub.draws == []
        return report

    @pytest.mark.parametrize(
        "prior",
        [
            {"sq": F(1, 2), "ma": F(1, 4), "pa": F(1, 4)},
            {"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},
            {"sq": F(1, 4), "ma": F(0), "pa": F(3, 4)},
        ],
        ids=["dyadic", "thirds", "zero-mass"],
    )
    def test_state_draw(self, monkeypatch, prior):
        env, mu, book = fx.larry_environment(), fx.regret_beliefs(), fx.larry_book()
        cumulative = _reference_cumulative((s, prior[s]) for s in env.states)
        draws = list(_boundary_draws(cumulative))
        assert len(draws) >= 4
        for r in draws:
            expected = _reference_draw(_PlannedDraws([r]), cumulative)
            report = self.replay(monkeypatch, env, mu, book, Prior(prior), [r, 0])
            assert [s for s, st in report.per_state.items() if st.count] == [expected], r

    def test_path_draw(self, monkeypatch):
        # One state over four leaves with cumulative masses 1/4, 1/3, 2/3, 1;
        # leaf i pays i + 1, so the single round's mean names the leaf drawn.
        leaves = ["l0", "l1", "l2", "l3"]
        env = build_environment(
            ["a"],
            ContingencyForest(leaves, {}),
            {"a": {"l0": F(1, 4), "l1": F(1, 12), "l2": F(1, 3), "l3": F(1, 3)}},
        )
        mu = {h: {"a": F(1)} for h in leaves}
        book = {h: {"a": F(i + 1)} for i, h in enumerate(leaves)}
        cumulative = _reference_cumulative(env.eta["a"].items())
        draws = list(_boundary_draws(cumulative))
        assert len(draws) >= 9
        for r in draws:
            expected = _reference_draw(_PlannedDraws([r]), cumulative)
            report = self.replay(monkeypatch, env, mu, book, FixedState("a"), [r])
            assert report.per_state["a"].empirical_mean_exact == leaves.index(expected) + 1, r


# Each state of the nested environment continues along one path, so with one
# of them tracked no draw can change a round. Under the drift beliefs and the
# nested deterministic book, A's path pays -1/3, B's -1/24 and C's 0.
DETERMINED = {
    "fixed-A": FixedState("A"),
    "fixed-B": FixedState("B"),
    "prior-A": Prior({"A": F(1), "B": F(0), "C": F(0)}),
    "prior-C": Prior({"C": F(1)}),
}
# A's path pays 10**154 + 1: its float square times 1000 is no finite float.
HUGE_A_BOOK = {"h0": {"A": F(10) ** 154, "B": F(1)}, "h1": {"A": F(1), "B": F(-1)}}


def nested_run(mode, rounds=1000, seed=42, g=None):
    env = fx.nested_environment()
    book = fx.nested_deterministic_book() if g is None else g
    return run_rounds(env, fx.drift_beliefs(), book, SimConfig(rounds, seed, mode))


class _NoDraws:
    """Generator stub for replays that must not draw: any use fails."""

    def seed(self, *args):
        raise AssertionError("seeded a generator")

    def getrandbits(self, k):
        raise AssertionError("drew from a generator")


class _RecordedDraws(random.Random):
    """A real generator that logs each seeding and each draw."""

    def __init__(self, log):
        self.log = log
        super().__init__()

    def seed(self, a=None, version=2):
        self.log.append(("seed", a))
        super().seed(a, version)

    def getrandbits(self, k):
        self.log.append(("getrandbits", k))
        return super().getrandbits(k)


class TestDeterminedRounds:
    """One tracked state with one path: the replay tallies every round on
    that path without a generator and still prints today's bytes."""

    @pytest.mark.parametrize("rounds", [1, 2, 1000])
    @pytest.mark.parametrize("mode", DETERMINED.values(), ids=DETERMINED.keys())
    def test_matches_fraction_reference(self, mode, rounds):
        env, mu, book = fx.nested_environment(), fx.drift_beliefs(), fx.nested_deterministic_book()
        for seed in (0, 42):
            cfg = SimConfig(rounds, seed, mode)
            new, ref = run_rounds(env, mu, book, cfg), reference_run_rounds(env, mu, book, cfg)
            assert new == ref
            assert repr(new) == repr(ref)
            (stats,) = new.per_state.values()
            assert stats.count == rounds

    def test_square_sum_is_added_round_by_round(self):
        # 1000 adds of (-1/3)**2 round differently from one product, and the
        # product would print a sampleStdDev of 0.0.
        square = float(F(-1, 3)) ** 2
        added = 0.0
        for _ in range(1000):
            added += square
        assert added == 111.11111111111326 != 1000 * square == 111.1111111111111
        stats = nested_run(FixedState("A")).per_state["A"]
        assert stats.empirical_mean_exact == F(-1, 3)
        mean = stats.empirical_mean
        assert stats.sample_std_dev == math.sqrt((added - 1000 * mean * mean) / 999)
        assert stats.sample_std_dev == 4.649959278143782e-08
        assert math.sqrt(max(0.0, (1000 * square - 1000 * mean * mean) / 999)) == 0.0

    @pytest.mark.parametrize("mode", DETERMINED.values(), ids=DETERMINED.keys())
    def test_no_generator_is_touched(self, monkeypatch, mode):
        expected = nested_run(mode, rounds=300, seed=9)
        monkeypatch.setattr("dutchbook.simulate.random", SimpleNamespace(Random=_NoDraws))
        assert nested_run(mode, rounds=300, seed=9) == expected
        log = []
        monkeypatch.setattr(
            "dutchbook.simulate.random", SimpleNamespace(Random=lambda: _RecordedDraws(log))
        )
        nested_run(mode, rounds=300, seed=9)
        assert log == []  # not even created

    @pytest.mark.parametrize(
        "env, mu, g, mode, draws_per_round",
        [
            # State u reaches leaves a and b: one path draw per round.
            (fx.skewed_environment(), fx.skewed_beliefs(), {"a": {"u": F(1), "v": F(-3)}},
             FixedState("u"), 1),
            # Two one-path states with mass: a state draw and a path draw.
            (fx.nested_environment(), fx.drift_beliefs(), fx.nested_deterministic_book(),
             Prior({"A": F(1, 2), "B": F(1, 2)}), 2),
        ],
        ids=["two-path-state", "two-state-prior"],
    )
    def test_other_replays_draw_as_before(self, monkeypatch, env, mu, g, mode, draws_per_round):
        cfg = SimConfig(50, 4, mode)
        reference = reference_run_rounds(env, mu, g, cfg)
        monkeypatch.setattr("dutchbook.simulate.random", SimpleNamespace(Random=_NoDraws))
        with pytest.raises(AssertionError, match="seeded a generator"):
            run_rounds(env, mu, g, cfg)
        log = []
        monkeypatch.setattr(
            "dutchbook.simulate.random", SimpleNamespace(Random=lambda: _RecordedDraws(log))
        )
        report = run_rounds(env, mu, g, cfg)
        assert report == reference
        assert repr(report) == repr(reference)
        per_round = [[("seed", f"4:{i}")] + [("getrandbits", 64)] * draws_per_round
                     for i in range(50)]
        assert log == [("seed", None)] + [call for calls in per_round for call in calls]

    @pytest.mark.parametrize(
        "mode, g, rounds, message",
        [
            (FixedState("Z"), None, 10, "unknown state 'Z'"),
            (Prior({"A": F(1), "Z": F(0)}), None, 10, "unknown state 'Z'"),
            # The unknown state is reported before the payoff's overflow.
            (Prior({"A": F(1), "Z": F(0)}), HUGE_A_BOOK, 1000, "unknown state 'Z'"),
            (FixedState("A"), HUGE_A_BOOK, 1000,
             "state 'A': a path payoff is too large for 1000 rounds of float squares"),
            (Prior({"A": F(1)}), HUGE_A_BOOK, 1000,
             "state 'A': a path payoff is too large for 1000 rounds of float squares"),
        ],
        ids=["fixed-unknown", "prior-unknown", "unknown-before-overflow", "fixed-overflow",
             "prior-overflow"],
    )
    def test_errors_are_raised_as_before(self, mode, g, rounds, message):
        with pytest.raises(DomainError) as info:
            nested_run(mode, rounds=rounds, g=g)
        assert str(info.value) == message

    def test_huge_payoff_replays_one_round(self):
        stats = nested_run(FixedState("A"), rounds=1, g=HUGE_A_BOOK).per_state["A"]
        assert stats.count == 1
        assert stats.empirical_mean_exact == F(10) ** 154 + 1
        assert stats.sample_std_dev == 0.0

    @pytest.mark.parametrize("state", ["A", "B", "C"])
    def test_deviation_is_zero(self, state):
        deviations = compare_to_exact(nested_run(FixedState(state)))
        assert deviations == {state: 0.0}
        assert flagged_states(deviations) == []
