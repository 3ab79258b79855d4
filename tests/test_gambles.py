import random
import sys
import time
from fractions import Fraction
from functools import partial

import pytest

from dutchbook import (
    ContingencyForest,
    FixedState,
    SimConfig,
    accepts_system,
    build_environment,
    check_complete_consistency,
    check_forward_consistency,
    classify_deterministic,
    classify_dutch_book,
    derive_beliefs,
    expected_payoff,
    is_willing_to_accept,
    reach_probability,
    run_rounds,
    synthesize_deterministic_db,
    synthesize_dutch_book,
)
from dutchbook import consistency, gambles
from dutchbook.consistency import forward_violations
from dutchbook.errors import (
    DomainError,
    DutchbookError,
    InputError,
    InternalError,
    PreconditionViolation,
    UnsupportedEnvironment,
)
from dutchbook import fixtures as fx
from dutchbook.gambles import (
    Synthesis,
    _deterministic_witness_pair,
    _expected_terms_book,
    _orient_cycle,
    deterministic_synthesis,
    dutch_book_synthesis,
)
from dutchbook.model import ONE, ZERO, has_deterministic_continuation

from conftest import (
    accepted_gambles,
    inconsistent_beliefs,
    perturbable,
    random_environment,
    random_lcps,
)
from test_acceptance import forward_inconsistent_beliefs, point_mass_tree_environment

F = Fraction


class TestAcceptance:
    def test_expected_payoff(self):
        nu = {"a": F(1, 4), "b": F(3, 4)}
        assert expected_payoff(nu, {"a": F(8), "b": F(-2)}) == F(1, 2)

    def test_positive_expectation_accepted(self):
        assert is_willing_to_accept({"a": F(1)}, {"a": F(1, 16)})

    def test_negative_expectation_rejected(self):
        assert not is_willing_to_accept({"a": F(1)}, {"a": F(-1, 16)})

    def test_zero_expectation_tie_break(self):
        nu = {"a": F(1), "b": F(0)}
        # Fair on believed states, but risks a loss on a null state: rejected.
        assert not is_willing_to_accept(nu, {"a": F(0), "b": F(-5)})
        # No loss anywhere: accepted ("willing to accept" at indifference).
        assert is_willing_to_accept(nu, {"a": F(0), "b": F(5)})
        assert is_willing_to_accept(nu, {})

    def test_accepts_system_regret_larry_book(self):
        env = fx.larry_environment()
        report = accepts_system(env, fx.regret_beliefs(), fx.larry_book())
        assert report.accepted
        # Each pair gamble looks favourable to the regretful bettor.
        assert report.per_contingency["sm"] == (F(3, 4) * 9 - F(1, 4) * 10, True)

    def test_accepts_system_uniform_rejects(self):
        env = fx.larry_environment()
        report = accepts_system(env, fx.uniform_beliefs(), fx.larry_book())
        assert not report.accepted
        assert report.per_contingency["sm"] == (F(-1, 2), False)

    def test_accepts_system_computes_each_expectation_once(self, monkeypatch):
        calls = []

        def counted(nu, gamble):
            calls.append(gamble)
            return expected_payoff(nu, gamble)

        monkeypatch.setattr(gambles, "expected_payoff", counted)
        env = fx.larry_environment()
        report = accepts_system(env, fx.regret_beliefs(), fx.larry_book())
        assert report.accepted
        assert len(calls) == len(env.forest.nodes)

    def test_payoff_outside_support_rejected(self):
        env = fx.larry_environment()
        g = {"sm": {"pa": F(1)}}
        with pytest.raises(DomainError, match="outside S"):
            accepts_system(env, fx.regret_beliefs(), g)

    def test_float_mass_rejected(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        mu["sm"] = {"sq": 0.1, "ma": 0.9}
        with pytest.raises(DomainError, match=r"^mu\['sm'\]: non-rational mass at 'sq'$"):
            accepts_system(env, mu, {"sm": {"sq": F(8), "ma": F(7)}})

    def test_expected_payoff_rejects_float_mass(self):
        with pytest.raises(DomainError, match=r"^non-rational mass at 'a'$"):
            expected_payoff({"a": 0.1, "b": 0.9}, {"a": F(8), "b": F(7)})
        assert expected_payoff({"a": 1}, {"a": 2}) == 2  # ints are rational

    def test_is_willing_to_accept_rejects_float_payoff(self):
        with pytest.raises(DomainError, match=r"^gamble pays non-rational 0.5 on 'b'$"):
            is_willing_to_accept({"a": F(1)}, {"a": F(1), "b": 0.5})

    @pytest.mark.parametrize(
        "entry",
        [
            lambda env, g: accepts_system(env, fx.regret_beliefs(), g),
            classify_dutch_book,
            classify_deterministic,
            lambda env, g: run_rounds(
                env, fx.regret_beliefs(), g, SimConfig(10, 1, FixedState("sq"))
            ),
        ],
        ids=["accepts_system", "classify_dutch_book", "classify_deterministic", "run_rounds"],
    )
    def test_float_payoff_rejected(self, entry):
        g = {"sm": {"sq": 0.5, "ma": -1.0}}
        with pytest.raises(DomainError, match="non-rational 0.5 on 'sq'"):
            entry(fx.larry_environment(), g)


class TestClassifiers:
    def test_larry_book_is_dutch_book(self):
        verdict = classify_dutch_book(fx.larry_environment(), fx.larry_book())
        assert verdict.is_dutch_book
        assert verdict.per_state == {s: F(-1, 3) for s in ("sq", "ma", "pa")}

    def test_zero_book_is_not(self):
        verdict = classify_dutch_book(fx.larry_environment(), {})
        assert not verdict.is_dutch_book
        assert all(v == 0 for v in verdict.per_state.values())

    def test_mixed_sign_is_not(self):
        env = fx.larry_environment()
        g = {"sm": {"sq": F(1), "ma": F(-1)}}
        assert not classify_dutch_book(env, g).is_dutch_book

    def test_deterministic_nested_book(self):
        env = fx.nested_environment()
        verdict = classify_deterministic(env, fx.nested_deterministic_book())
        assert verdict.is_deterministic_db
        assert verdict.per_path == {
            "A": {"h1": F(-1, 3)},
            "B": {"h1": F(-1, 24)},
            "C": {"h2": F(0)},
        }

    def test_larry_book_not_deterministic(self):
        # Expected loss per state, but single-contingency paths win or lose.
        verdict = classify_deterministic(fx.larry_environment(), fx.larry_book())
        assert not verdict.is_deterministic_db
        assert verdict.per_path["sq"]["ps"] == F(9)

    def test_deterministic_book_is_dutch_book(self):
        env = fx.nested_environment()
        verdict = classify_dutch_book(env, fx.nested_deterministic_book())
        assert verdict.is_dutch_book
        assert verdict.per_state == {"A": F(-1, 3), "B": F(-1, 24), "C": F(0)}


class TestSynthesizeDutchBook:
    def test_regret(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        g = synthesize_dutch_book(env, mu)
        assert accepts_system(env, mu, g).accepted
        assert classify_dutch_book(env, g).is_dutch_book

    def test_consistent_beliefs_rejected(self):
        with pytest.raises(PreconditionViolation):
            synthesize_dutch_book(fx.larry_environment(), fx.uniform_beliefs())

    def test_zero_product_witness(self):
        # Cyclic point-mass beliefs: the witness product is Zero, r = 0.
        env = fx.larry_environment()
        mu = {
            "sq": {"sq": F(1)},
            "ma": {"ma": F(1)},
            "pa": {"pa": F(1)},
            "sm": {"sq": F(1)},
            "mp": {"ma": F(1)},
            "ps": {"pa": F(1)},
        }
        g = synthesize_dutch_book(env, mu)
        assert accepts_system(env, mu, g).accepted
        assert classify_dutch_book(env, g).is_dutch_book

    def test_custom_params(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        g = synthesize_dutch_book(env, mu, F(1, 8))
        assert classify_dutch_book(env, g).is_dutch_book

    def test_bad_params(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        for epsilon in (F(0), F(-1, 2)):
            with pytest.raises(DomainError, match="epsilon must be positive"):
                synthesize_dutch_book(env, mu, epsilon)

    @pytest.mark.parametrize(
        "kwargs, message", [({"epsilon": 0.5}, "epsilon must be rational, not 0.5")]
    )
    def test_float_params_rejected(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            synthesize_dutch_book(fx.larry_environment(), fx.regret_beliefs(), **kwargs)

    @pytest.mark.parametrize(
        "synthesize", [synthesize_dutch_book, synthesize_deterministic_db], ids=["book", "det"]
    )
    def test_epsilon_checked_before_beliefs(self, synthesize):
        # An invalid belief system would raise InputError if it were read first.
        with pytest.raises(DomainError, match="epsilon must be positive"):
            synthesize(fx.larry_environment(), {}, F(0))

    def test_integer_epsilon(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        g = synthesize_dutch_book(env, mu, 3)
        assert g == synthesize_dutch_book(env, mu, F(3))
        assert all(type(x) is Fraction for row in g.values() for x in row.values())

    def test_random_inconsistent_instances(self, rng):
        env, count = fx.larry_environment(), 0
        for _ in range(30):
            mu = inconsistent_beliefs(rng, env)
            g = synthesize_dutch_book(env, mu)
            assert accepts_system(env, mu, g).accepted
            assert classify_dutch_book(env, g).is_dutch_book
            count += 1
        assert count == 30


class TestSynthesizeDeterministic:
    def test_drift_reference_instance(self):
        env, mu = fx.nested_environment(), fx.drift_beliefs()
        g = synthesize_deterministic_db(env, mu, epsilon=F(1, 2))
        assert g == fx.nested_deterministic_book()
        report = accepts_system(env, mu, g)
        assert report.accepted
        assert report.per_contingency["h0"][0] == F(1, 18)
        assert report.per_contingency["h1"][0] == F(11, 96)

    def test_epsilon_around_powers_of_two_of_the_gap(self):
        # The closed form must pick the first epsilon / 2^k below x - y also
        # where epsilon is exactly (x - y) * 2^k.
        env, mu = fx.nested_environment(), fx.drift_beliefs()
        *_, x, y = _deterministic_witness_pair(env, mu)
        for k in range(6):
            for scale in (F(999, 1000), ONE, F(1001, 1000)):
                epsilon = (x - y) * 2**k * scale
                book = synthesize_deterministic_db(env, mu, epsilon)
                assert book == reference_synthesize_deterministic_db(env, mu, epsilon)

    def test_integer_epsilon(self):
        env, mu = fx.nested_environment(), fx.drift_beliefs()
        assert synthesize_deterministic_db(env, mu, 3) == synthesize_deterministic_db(env, mu, F(3))

    def test_default_epsilon(self):
        env, mu = fx.nested_environment(), fx.drift_beliefs()
        g = synthesize_deterministic_db(env, mu)
        assert classify_deterministic(env, g).is_deterministic_db
        assert accepts_system(env, mu, g).accepted

    def test_forward_consistent_rejected(self):
        with pytest.raises(PreconditionViolation):
            synthesize_deterministic_db(fx.nested_environment(), fx.nested_ok_beliefs())

    def test_requires_deterministic_continuation(self):
        forest = ContingencyForest(["h0", "h1", "h2"], {"h1": "h0", "h2": "h0"})
        env = build_environment(
            ["A", "B"],
            forest,
            {
                "A": {"h1": F(1, 2), "h2": F(1, 2)},
                "B": {"h1": F(1, 2), "h2": F(1, 2)},
            },
        )
        mu = {
            "h0": {"A": F(1, 2), "B": F(1, 2)},
            "h1": {"A": F(3, 4), "B": F(1, 4)},
            "h2": {"A": F(1, 2), "B": F(1, 2)},
        }
        assert check_forward_consistency(env, mu) is not None
        with pytest.raises(UnsupportedEnvironment):
            synthesize_deterministic_db(env, mu)

    def test_drag_term_fallback(self):
        # With y = 3/2, 3y^2 >= 4: the y*eps/4 drag would make the second
        # gamble unacceptable for every epsilon, so the drag is zero.
        env = fx.nested_environment()
        mu = {
            "h0": {"A": F(1, 2), "B": F(1, 4), "C": F(1, 4)},
            "h1": {"A": F(3, 5), "B": F(2, 5)},
            "h2": {"C": F(1)},
        }
        g = synthesize_deterministic_db(env, mu)
        assert classify_deterministic(env, g).is_deterministic_db
        assert accepts_system(env, mu, g).accepted
        assert g == {"h0": {"A": 1, "B": F(-23, 12)}, "h1": {"A": -1, "B": F(19, 12)}}

    @pytest.mark.parametrize("y, kept", [(F(8, 7), True), (F(7, 6), False)])
    def test_drag_kept_iff_three_y_squared_below_four(self, y, kept):
        # 3y^2 is 192/49 < 4 for y = 8/7 and 49/12 > 4 for y = 7/6.
        env = fx.nested_environment()
        mu = {
            "h0": {"A": F(1, 2), "B": F(1, 4), "C": F(1, 4)},
            "h1": {"A": y / (1 + y), "B": 1 / (1 + y)},
            "h2": {"C": F(1)},
        }
        eps = (2 - y) / 2  # x = 2 at h0
        drag = y * eps / 4 if kept else 0
        g = synthesize_deterministic_db(env, mu)
        assert g == {"h0": {"A": 1, "B": eps / 3 - 2}, "h1": {"A": -1 - drag, "B": y + eps / 3}}
        assert accepts_system(env, mu, g).accepted

    def test_witness_pair_found_past_the_first_violation(self):
        # The first violating pair (h0, h1) has no finite odds ratio above
        # its counterpart (B is null at h0); the second, (h0, h2), has.
        forest = ContingencyForest(["h0", "h1", "h2"], {"h1": "h0", "h2": "h0"})
        env = build_environment(
            ["A", "B", "C", "D"], forest, {s: {"h1" if s in "AB" else "h2": F(1)} for s in "ABCD"}
        )
        mu = {
            "h0": {"A": F(1, 3), "C": F(1, 3), "D": F(1, 3)},
            "h1": {"A": F(1, 2), "B": F(1, 2)},
            "h2": {"C": F(1, 4), "D": F(3, 4)},
        }
        assert check_forward_consistency(env, mu).h_prime == "h1"
        assert _deterministic_witness_pair(env, mu) == ("h0", "h2", "C", "D", F(1), F(1, 3))
        g = synthesize_deterministic_db(env, mu)
        assert set(g) == {"h0", "h2"}
        assert classify_deterministic(env, g).is_deterministic_db
        assert accepts_system(env, mu, g).accepted

    def test_scans_forward_violations_once(self, monkeypatch):
        scans = []

        def counting(env, mu):
            scans.append(1)
            return forward_violations(env, mu)

        for module in (gambles, consistency):
            monkeypatch.setattr(module, "forward_violations", counting)
        synthesize_deterministic_db(fx.nested_environment(), fx.drift_beliefs())
        assert len(scans) == 1

    def test_error_order(self):
        # Beliefs are validated first, then forward consistency, then
        # deterministic continuation.
        forest = ContingencyForest(["h0", "h1", "h2"], {"h1": "h0", "h2": "h0"})
        env = build_environment(
            ["A", "B"], forest, {s: {"h1": F(1, 2), "h2": F(1, 2)} for s in "AB"}
        )
        assert not has_deterministic_continuation(env)
        half = {"A": F(1, 2), "B": F(1, 2)}
        with pytest.raises(InputError, match="invalid belief system"):
            synthesize_deterministic_db(env, {"h0": half, "h1": half})
        with pytest.raises(PreconditionViolation, match="forward consistent"):
            synthesize_deterministic_db(env, {"h0": half, "h1": half, "h2": half})

    @pytest.mark.parametrize("epsilon", [F(-1, 2), F(0)])
    def test_non_positive_epsilon_rejected(self, epsilon):
        with pytest.raises(DomainError, match="epsilon must be positive"):
            synthesize_deterministic_db(
                fx.nested_environment(), fx.drift_beliefs(), epsilon=epsilon
            )

    def test_float_epsilon_rejected(self):
        # Rejected up front, before it reaches the book's payoffs.
        with pytest.raises(DomainError, match="epsilon must be rational, not 0.25"):
            synthesize_deterministic_db(
                fx.nested_environment(), fx.drift_beliefs(), epsilon=0.25
            )


class TestAcceptedGambleGenerator:
    def test_generated_systems_are_accepted(self, rng):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        for _ in range(100):
            g = accepted_gambles(rng, env, mu)
            assert accepts_system(env, mu, g).accepted


# Reference implementations: the epsilon-halving retry loops that the closed
# forms replaced (less the warning logged when the drag term was dropped),
# kept to check that the closed forms pick the same epsilon and book. They
# give up after MAX_EPSILON_HALVINGS tries, as the library once did.

MAX_EPSILON_HALVINGS = 64


def reference_synthesize_dutch_book(env, mu, epsilon=ONE):
    result = check_complete_consistency(env, mu)
    if result.consistent:
        raise PreconditionViolation("belief system is completely consistent")
    witness = result.violation
    cycle = _orient_cycle(witness.cycle, witness.product)

    anchor, h1 = cycle[0].src, cycle[0].h
    r = ZERO
    if witness.product.is_finite:
        r = min(witness.product.value, 1 / witness.product.value)
    limit = classify_dutch_book(env, _expected_terms_book(env, mu, cycle, ZERO))
    if limit.per_state[anchor] != -env.reach[h1][anchor] * (ONE - r):
        raise InternalError("telescoping identity failed on witness cycle")

    eps = epsilon
    for _ in range(MAX_EPSILON_HALVINGS):
        g = _expected_terms_book(env, mu, cycle, eps)
        if (
            accepts_system(env, mu, g).accepted
            and classify_dutch_book(env, g).is_dutch_book
        ):
            return g
        eps /= 2
    raise InternalError("epsilon shrinking exhausted; witness cycle is defective")


def reference_synthesize_deterministic_db(env, mu, epsilon=None):
    if check_forward_consistency(env, mu) is None:
        raise PreconditionViolation("belief system is forward consistent")
    if not has_deterministic_continuation(env):
        raise UnsupportedEnvironment(
            "environment lacks deterministic continuation; the two-contingency "
            "construction does not yield a deterministic Dutch book here"
        )
    found = _deterministic_witness_pair(env, mu)
    if found is None:
        raise PreconditionViolation(
            "every violating orientation has an infinite odds ratio; "
            "no finite witness pair available"
        )
    h, hp, s, sp, x, y = found

    eps = epsilon if epsilon is not None else (x - y) / 2
    for _ in range(MAX_EPSILON_HALVINGS):
        if eps < x - y:
            for drag in (y * eps / 4, ZERO):
                g = {
                    h: {s: ONE, sp: -x + eps / 3},
                    hp: {s: -ONE - drag, sp: y + eps / 3},
                }
                if (
                    accepts_system(env, mu, g).accepted
                    and classify_deterministic(env, g).is_deterministic_db
                ):
                    return g
        eps /= 2
    raise InternalError("epsilon shrinking exhausted in deterministic synthesis")


def outcome(synthesize, *args):
    """The synthesized book, or the type of the error it raised."""
    try:
        return synthesize(*args)
    except DutchbookError as exc:
        return type(exc)


class TestClosedFormsMatchReference:
    @pytest.mark.parametrize(
        "epsilon",
        [None, F(1, 8), F(3), F(1, 1000)],
        ids=["default", "1/8,1/2", "3,1/2", "1/1000,1/2"],
    )
    def test_synthesize_dutch_book(self, epsilon):
        rng, compared = random.Random(21), 0
        while compared < 60:
            env = random_environment(rng, max_states=5, max_nodes=8)
            if not perturbable(env):
                continue
            mu = inconsistent_beliefs(rng, env)
            args = (env, mu) if epsilon is None else (env, mu, epsilon)
            new = outcome(synthesize_dutch_book, *args)
            assert new == outcome(reference_synthesize_dutch_book, *args)
            compared += 1

    @pytest.mark.parametrize(
        "epsilon", [None, F(1, 2), F(3), F(1, 1000)], ids=["default", "1/2", "3", "1/1000"]
    )
    def test_synthesize_deterministic_db(self, epsilon):
        rng, compared = random.Random(22), 0
        while compared < 60:
            env = point_mass_tree_environment(rng)
            mu = forward_inconsistent_beliefs(rng, env)
            if mu is None or not has_deterministic_continuation(env):
                continue
            new = outcome(synthesize_deterministic_db, env, mu, epsilon)
            assert new == outcome(reference_synthesize_deterministic_db, env, mu, epsilon)
            compared += 1


# Reference implementation: the dense `classify_dutch_book`, which summed
# p(h|s) * g(s|h) over every (h, s) pair, kept to check the sparse one.

def reference_classify_dutch_book(env, g):
    per_state = {
        s: sum(
            (reach_probability(env, h, s) * g.get(h, {}).get(s, ZERO) for h in env.forest.nodes),
            ZERO,
        )
        for s in env.states
    }
    values = per_state.values()
    return per_state, all(v <= 0 for v in values) and any(v < 0 for v in values)


class TestSparseClassifierMatchesDenseReference:
    def test_classify_dutch_book(self):
        rng, books = random.Random(23), 0
        for _ in range(150):
            env = random_environment(rng, max_states=5, max_nodes=8)
            mu = (
                inconsistent_beliefs(rng, env)
                if perturbable(env) and rng.random() < 0.5
                else derive_beliefs(env, random_lcps(rng, env.states))
            )
            g = accepted_gambles(rng, env, mu)
            # Zero payoffs are allowed anywhere, outside S(h) too.
            for h in rng.sample(env.forest.nodes, min(2, len(env.forest.nodes))):
                g.setdefault(h, {})[rng.choice(env.states)] = ZERO
            verdict = classify_dutch_book(env, g)
            per_state, is_book = reference_classify_dutch_book(env, g)
            assert verdict.per_state == per_state
            assert list(verdict.per_state) == list(env.states)
            assert verdict.is_dutch_book == is_book
            books += is_book
        assert books > 0


@pytest.fixture
def uncapped_references(monkeypatch):
    """Lift the reference loops' halving cap (they read it from this module
    when called), so they return the first book of the whole sequence."""
    monkeypatch.setattr(sys.modules[__name__], "MAX_EPSILON_HALVINGS", 1000)


class TestSynthesisRecord:
    def test_dutch_book_reports_are_those_of_its_book(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        synthesis = dutch_book_synthesis(env, mu)
        assert isinstance(synthesis, Synthesis)
        assert synthesis.book == synthesize_dutch_book(env, mu)
        assert synthesis.acceptance == accepts_system(env, mu, synthesis.book)
        assert synthesis.verdict == classify_dutch_book(env, synthesis.book)

    def test_deterministic_reports_are_those_of_its_book(self):
        env, mu = fx.nested_environment(), fx.drift_beliefs()
        synthesis = deterministic_synthesis(env, mu)
        assert synthesis.book == synthesize_deterministic_db(env, mu)
        assert synthesis.acceptance == accepts_system(env, mu, synthesis.book)
        assert synthesis.verdict == classify_deterministic(env, synthesis.book)

    def test_no_epsilon_left_raises_at_once(self, monkeypatch):
        # A state worth 0 at eps = 0 and 1 at eps = 1 is positive at every
        # eps > 0, so hi = 0: no eps is tried and no book is built.
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        witness = check_complete_consistency(env, mu).violation
        anchor = _orient_cycle(witness.cycle, witness.product)[0].src
        other = next(s for s in env.states if s != anchor)
        real, classified = gambles.classify_dutch_book, []

        def skewed(env, g):
            verdict = real(env, g)
            verdict.per_state[other] = F(len(classified))
            classified.append(verdict)
            return verdict

        monkeypatch.setattr(gambles, "classify_dutch_book", skewed)
        monkeypatch.setattr(gambles, "accepts_system", None)
        with pytest.raises(InternalError, match="epsilon shrinking exhausted"):
            dutch_book_synthesis(env, mu)
        assert len(classified) == 2


class TestLargeEpsilon:
    """An epsilon far above every usable one is shrunk past, not reported as
    an exhausted witness cycle."""

    def test_dutch_book_at_two_to_the_seventy(self, uncapped_references):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        synthesis = dutch_book_synthesis(env, mu, F(2**70))
        assert synthesis.acceptance.accepted and synthesis.verdict.is_dutch_book
        assert synthesis.book == synthesize_dutch_book(env, mu, F(2**70))
        assert synthesis.book == reference_synthesize_dutch_book(env, mu, F(2**70))

    def test_deterministic_at_two_to_the_seventy(self, uncapped_references):
        env, mu = fx.nested_environment(), fx.drift_beliefs()
        synthesis = deterministic_synthesis(env, mu, F(2**70))
        assert synthesis.acceptance.accepted and synthesis.verdict.is_deterministic_db
        assert synthesis.book == synthesize_deterministic_db(env, mu, F(2**70))
        assert synthesis.book == reference_synthesize_deterministic_db(env, mu, F(2**70))

    @pytest.mark.parametrize("epsilon", [F(2**70), F(10**9)], ids=["2^70,1/2", "10^9,1/2"])
    def test_dutch_book_matches_uncapped_reference(self, uncapped_references, epsilon):
        rng, compared = random.Random(24), 0
        while compared < 30:
            env = random_environment(rng, max_states=5, max_nodes=8)
            if not perturbable(env):
                continue
            mu = inconsistent_beliefs(rng, env)
            new = outcome(synthesize_dutch_book, env, mu, epsilon)
            assert isinstance(new, dict)
            assert new == outcome(reference_synthesize_dutch_book, env, mu, epsilon)
            compared += 1

    @pytest.mark.parametrize("epsilon", [F(2**70), F(10**30, 7)], ids=["2^70", "10^30/7"])
    def test_deterministic_matches_uncapped_reference(self, uncapped_references, epsilon):
        rng, compared = random.Random(25), 0
        while compared < 30:
            env = point_mass_tree_environment(rng)
            mu = forward_inconsistent_beliefs(rng, env)
            if mu is None or not has_deterministic_continuation(env):
                continue
            new = outcome(synthesize_deterministic_db, env, mu, epsilon)
            assert isinstance(new, dict)
            assert new == outcome(reference_synthesize_deterministic_db, env, mu, epsilon)
            compared += 1


def linear_epsilon(eps, shrink, hi):
    """The skip that `first_power_at_most` replaced: one multiplication per
    epsilon above hi."""
    while eps > hi:
        eps *= shrink
    return eps


def first_power_at_most(eps, shrink, hi):
    """The search that the closed form replaced: the first eps * shrink^k <= hi
    over k >= 0 (0 < shrink < 1, hi > 0), k bracketed by doubling and then
    bisected, so O(log k) powers are formed and compared exactly."""
    if eps <= hi:
        return eps
    lo, up = 0, 1  # eps * shrink^lo > hi throughout; eps * shrink^up <= hi once bracketed
    while eps * shrink**up > hi:
        lo, up = up, 2 * up
    while up - lo > 1:
        mid = (lo + up) // 2
        lo, up = (mid, up) if eps * shrink**mid > hi else (lo, mid)
    return eps * shrink**up


def telescoping_terms(env, mu):
    """The oriented witness cycle and each state's (a, d), its objective
    expectation being a + eps * d."""
    witness = check_complete_consistency(env, mu).violation
    cycle = _orient_cycle(witness.cycle, witness.product)
    v0 = classify_dutch_book(env, _expected_terms_book(env, mu, cycle, ZERO)).per_state
    v1 = classify_dutch_book(env, _expected_terms_book(env, mu, cycle, ONE)).per_state
    return cycle, {s: (v0[s], v1[s] - v0[s]) for s in env.states}


class TestEpsilonSearch:
    """The book set is (0, hi], and the closed form picks the epsilon of
    epsilon, epsilon/2, ... that the linear skip and the doubling-and-bisection
    search picked."""

    EPSILONS = [ONE, F(1, 8), F(3), F(1, 1000)]

    @staticmethod
    def seeded_instances(seed, count):
        rng = random.Random(seed)
        while count:
            env = random_environment(rng, max_states=5, max_nodes=8)
            if perturbable(env):
                yield env, inconsistent_beliefs(rng, env)
                count -= 1

    @staticmethod
    def check_search(env, mu, epsilons):
        """`epsilons` maps the instance's hi to the epsilons to try."""
        cycle, terms = telescoping_terms(env, mu)
        anchor = cycle[0].src
        on_cycle = {link.src for link in cycle}
        # Only the anchor grows with eps; no other state is ever positive.
        assert [s for s, (a, d) in terms.items() if d > 0] == [anchor]
        assert terms[anchor][0] < 0
        for s, (a, d) in terms.items():
            if s != anchor:
                assert a == 0 and (d < 0 if s in on_cycle else d == 0)
        a, d = terms[anchor]
        hi = -a / d
        book = partial(_expected_terms_book, env, mu, cycle)
        assert classify_dutch_book(env, book(hi)).is_dutch_book
        assert not classify_dutch_book(env, book(hi * F(101, 100))).is_dutch_book
        for epsilon in epsilons(hi):
            eps = linear_epsilon(epsilon, F(1, 2), hi)
            assert first_power_at_most(epsilon, F(1, 2), hi) == eps
            assert synthesize_dutch_book(env, mu, epsilon) == book(eps)

    def test_matches_linear_skip_on_seeded_instances(self):
        for env, mu in self.seeded_instances(26, 400):
            self.check_search(env, mu, lambda hi: self.EPSILONS)

    def test_matches_linear_skip_near_one(self):
        # epsilon / hi at most one, exactly a power of two, or just above one.
        def near_powers_of_two(hi):
            tiny = F(1, 10**9)
            scales = (1 - tiny, ONE, 1 + tiny)
            return [hi * 2**k * scale for k in (0, 1, 2, 5, 70) for scale in scales]

        self.check_search(fx.larry_environment(), fx.regret_beliefs(), near_powers_of_two)
        for env, mu in self.seeded_instances(27, 10):
            self.check_search(env, mu, near_powers_of_two)

    def test_far_search_is_fast(self):
        # 2^70 is far above hi, so it is halved about 70 times in closed form,
        # and the book's entries stay small.
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        started = time.perf_counter()
        book = synthesize_dutch_book(env, mu, F(2**70))
        assert time.perf_counter() - started < 2.0
        assert all(x.denominator < 2**16 for row in book.values() for x in row.values())

    @pytest.mark.parametrize("eps", [ONE, F(3, 4), F(2), F(3, 2)])
    def test_first_power_at_most(self, eps):
        # eps in units of hi: exactly hi, below it, twice it, and in between.
        self.check_search(fx.larry_environment(), fx.regret_beliefs(), lambda hi: [eps * hi])
