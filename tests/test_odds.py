import random
from fractions import Fraction

import pytest

from dutchbook import (
    CoherenceCertificate,
    CoherenceViolation,
    ExtendedRatio,
    build_coherence_graph,
    check_coherence,
    discounted_odds_ratio,
    generalized_odds_ratio,
    plausibility_levels,
)
from dutchbook.errors import DomainError, IndeterminateProduct, IndeterminateRatio, InternalError
from dutchbook import fixtures as fx
from dutchbook.odds import _condensation_cycle, _dag_levels

F = Fraction


class TestExtendedRatio:
    def test_finite_must_be_positive(self):
        with pytest.raises(ValueError):
            ExtendedRatio.finite(F(0))
        with pytest.raises(ValueError):
            ExtendedRatio.finite(F(-1))

    def test_inverse(self):
        assert ExtendedRatio.finite(F(3)).inverse().value == F(1, 3)
        assert ExtendedRatio.zero().inverse().is_infinite
        assert ExtendedRatio.infinite().inverse().is_zero

    def test_products(self):
        three = ExtendedRatio.finite(F(3))
        assert (three * three).value == 9
        assert (three * ExtendedRatio.zero()).is_zero
        assert (three * ExtendedRatio.infinite()).is_infinite
        with pytest.raises(IndeterminateProduct):
            ExtendedRatio.zero() * ExtendedRatio.infinite()

    def test_is_one(self):
        assert ExtendedRatio.finite(F(1)).is_one
        assert not ExtendedRatio.zero().is_one


class TestDiscountedOddsRatio:
    def test_regret_value(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        r = discounted_odds_ratio(env, mu, "sm", "ma", "sq")
        assert r.is_finite and r.value == 3
        assert discounted_odds_ratio(env, mu, "sm", "sq", "ma").value == F(1, 3)

    def test_uniform_is_one(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        for h, s, sp in [("sm", "sq", "ma"), ("mp", "ma", "pa"), ("ps", "pa", "sq")]:
            assert discounted_odds_ratio(env, mu, h, s, sp).is_one

    def test_reach_discounting(self):
        # Equal reach cancels; skewed reach does not.
        env, mu = fx.skewed_environment(), fx.skewed_beliefs()
        r = discounted_odds_ratio(env, mu, "a", "u", "v")
        assert r.value == (F(3, 4) / F(3, 4)) * (F(1, 4) / F(1, 4))

    def test_zero_and_infinite(self):
        env, mu = fx.larry_environment(), fx.lex_beliefs()
        assert discounted_odds_ratio(env, mu, "sm", "ma", "sq").is_zero
        assert discounted_odds_ratio(env, mu, "sm", "sq", "ma").is_infinite

    def test_indeterminate(self):
        env = fx.larry_environment()
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": F(1, 2), "ma": F(1, 2)}
        # Force a 0/0 pair on a three-state contingency: needs a bigger S(h),
        # so fake it via beliefs zero on both states of sm.
        mu_bad = dict(mu)
        mu_bad["sm"] = {"sq": F(0), "ma": F(0)}
        with pytest.raises(IndeterminateRatio):
            discounted_odds_ratio(env, mu_bad, "sm", "sq", "ma")

    def test_domain_errors(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        with pytest.raises(DomainError):
            discounted_odds_ratio(env, mu, "sm", "sq", "sq")
        with pytest.raises(DomainError):
            discounted_odds_ratio(env, mu, "sm", "sq", "pa")  # pa not in S(sm)


class TestGeneralizedOddsRatio:
    def test_two_link_chain(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        r = generalized_odds_ratio(env, mu, [("sm", "sq", "ma"), ("mp", "ma", "pa")])
        assert r.value == F(1, 9)

    def test_self_cycle(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        r = generalized_odds_ratio(
            env, mu, [("sm", "sq", "ma"), ("mp", "ma", "pa"), ("ps", "pa", "sq")]
        )
        assert r.value == F(1, 27)

    def test_broken_chain_rejected(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        with pytest.raises(DomainError, match="chain breaks"):
            generalized_odds_ratio(env, mu, [("sm", "sq", "ma"), ("ps", "pa", "sq")])

    def test_empty_chain_rejected(self):
        with pytest.raises(DomainError):
            generalized_odds_ratio(fx.larry_environment(), fx.regret_beliefs(), [])


class TestCoherenceGraph:
    def test_larry_edge_count(self):
        # One ordered pair per direction per shared two-state contingency;
        # singleton contingencies contribute nothing.
        graph = build_coherence_graph(fx.larry_environment(), fx.regret_beliefs())
        assert len(graph.edges) == 6

    def test_indeterminate_pairs_omitted(self):
        env = fx.nested_environment()
        mu = fx.nested_ok_beliefs()
        mu["h0"] = {"A": F(1)}
        mu["h1"] = {"A": F(1)}
        graph = build_coherence_graph(env, mu)
        # B and C both hold zero belief at h0, so the (B,C) pair there is
        # indeterminate and must not appear; (A,B) stays (zero one way).
        assert all({e.src, e.dst} != {"B", "C"} for e in graph.edges)
        assert any({e.src, e.dst} == {"A", "B"} and e.h == "h0" for e in graph.edges)


class TestCheckCoherence:
    def test_regret_violation(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        outcome = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(outcome, CoherenceViolation)
        assert outcome.product.value == F(1, 27)
        # The witness must close up and re-evaluate to the same product.
        cycle = outcome.cycle
        assert cycle[0].src == cycle[-1].dst
        re_evaluated = generalized_odds_ratio(env, mu, cycle)
        assert re_evaluated.value == outcome.product.value

    def test_uniform_certificate(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        cert = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(cert, CoherenceCertificate)
        assert cert.partition.levels == (("sq", "ma", "pa"),)
        assert cert.potentials == {"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)}

    def test_lex_certificate(self):
        env, mu = fx.larry_environment(), fx.lex_beliefs()
        cert = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(cert, CoherenceCertificate)
        assert cert.partition.levels == (("sq",), ("ma", "pa"))
        assert cert.potentials == {"sq": F(1), "ma": F(2, 3), "pa": F(1, 3)}

    def test_zero_edge_inside_component(self):
        # sm pins sq over ma with certainty while mp and ps keep everything
        # positive: the zero edge lands inside a finite component.
        env = fx.larry_environment()
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": F(1)}
        outcome = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(outcome, CoherenceViolation)
        assert outcome.product.is_zero

    def test_zero_condensation_cycle(self):
        # sm pins sq, ps pins pa, mp pins ma: plausibility must cycle.
        env = fx.larry_environment()
        mu = {
            "sq": {"sq": F(1)},
            "ma": {"ma": F(1)},
            "pa": {"pa": F(1)},
            "sm": {"sq": F(1)},
            "mp": {"ma": F(1)},
            "ps": {"pa": F(1)},
        }
        outcome = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(outcome, CoherenceViolation)
        assert outcome.product.is_zero
        assert generalized_odds_ratio(env, mu, outcome.cycle).is_zero


class TestPlausibilityLevels:
    def test_uniform_single_level(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.uniform_beliefs())
        assert plausibility_levels(graph).levels == (("sq", "ma", "pa"),)

    def test_lex_two_levels(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.lex_beliefs())
        assert plausibility_levels(graph).levels == (("sq",), ("ma", "pa"))

    def test_incoherent_graph_rejected(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.regret_beliefs())
        with pytest.raises(InternalError):
            plausibility_levels(graph)


# Reference implementations: the recursive condensation DFS and level memo
# that the explicit-stack versions replaced, kept to check that they visit
# in the same order and return the same witness and levels.

def reference_condensation_cycle(cond):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {c: WHITE for c in cond}
    stack = []

    def dfs(c):
        color[c] = GRAY
        for d in sorted(cond[c]):
            if color[d] == GRAY:
                cyc = [cond[c][d]]
                for node, edge in reversed(stack):
                    cyc.append(edge)
                    if node == d:
                        break
                return list(reversed(cyc))
            if color[d] == WHITE:
                stack.append((c, cond[c][d]))
                found = dfs(d)
                stack.pop()
                if found:
                    return found
        color[c] = BLACK
        return None

    for c in sorted(cond):
        if color[c] == WHITE:
            found = dfs(c)
            if found:
                return found
    return None


def reference_dag_levels(cond):
    memo = {}

    def level(c):
        if c not in memo:
            memo[c] = 1 if not cond[c] else 1 + max(level(d) for d in cond[c])
        return memo[c]

    return {c: level(c) for c in cond}


def random_condensation(rng, acyclic):
    """Random digraph on 1..9 nodes whose edge values name the edge; with
    `acyclic`, edges only run from lower to higher node numbers."""
    n = rng.randint(1, 9)
    cond = {c: {} for c in range(n)}
    for c in range(n):
        for d in range(n):
            if c != d and (d > c or not acyclic) and rng.random() < 0.3:
                cond[c][d] = f"{c}->{d}"
    return cond


class TestCondensationWalks:
    def test_cycle_matches_recursive_reference(self):
        rng, cyclic = random.Random(41), 0
        for _ in range(500):
            cond = random_condensation(rng, acyclic=rng.random() < 0.3)
            found = _condensation_cycle(cond)
            assert found == reference_condensation_cycle(cond)
            cyclic += found is not None
        assert 100 < cyclic < 500

    def test_levels_match_recursive_reference(self):
        rng = random.Random(42)
        for _ in range(500):
            cond = random_condensation(rng, acyclic=True)
            assert _dag_levels(cond) == reference_dag_levels(cond)

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        chain = {c: ({c + 1: f"{c}->{c + 1}"} if c + 1 < n else {}) for c in range(n)}
        assert _condensation_cycle(chain) is None
        assert _dag_levels(chain)[0] == n
        chain[n - 1] = {0: f"{n - 1}->0"}
        assert len(_condensation_cycle(chain)) == n
