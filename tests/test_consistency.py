import random
import time
from fractions import Fraction

import pytest

from dutchbook import (
    ContingencyForest,
    Lcps,
    build_environment,
    check_complete_consistency,
    check_forward_consistency,
    derive_beliefs,
    extract_lcps,
    generalized_odds_ratio,
    validate_lcps,
    verify_ccbs,
)
from dutchbook.consistency import ForwardViolation, forward_violations
from dutchbook.errors import (
    DomainError,
    InputError,
    InternalError,
    InvalidEnvironment,
    PreconditionViolation,
)
from dutchbook.model import ZERO, mass_of
from dutchbook import fixtures as fx

from conftest import random_environment, random_lcps, weights

F = Fraction


class TestValidateLcps:
    def test_lex_valid(self):
        validate_lcps(fx.lex_lcps(), ("sq", "ma", "pa"))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            validate_lcps(Lcps(()), ("a",))

    def test_rejects_overlapping_levels(self):
        lcps = Lcps(({"a": F(1)}, {"a": F(1, 2), "b": F(1, 2)}))
        with pytest.raises(InputError, match="positive at 2 levels"):
            validate_lcps(lcps, ("a", "b"))

    def test_rejects_uncovered_state(self):
        with pytest.raises(InputError, match="0 levels"):
            validate_lcps(Lcps(({"a": F(1)},)), ("a", "b"))

    def test_rejects_bad_mass(self):
        with pytest.raises(InputError, match="sum to 1"):
            validate_lcps(Lcps(({"a": F(1, 2)},)), ("a",))
        with pytest.raises(InputError, match="negative"):
            validate_lcps(Lcps(({"a": F(3, 2), "b": F(-1, 2)},)), ("a", "b"))

    def test_rejects_float_mass(self):
        # Dyadic floats sum to 1 exactly, so only the type check stops them
        # from reaching derive_beliefs as 0.6666666666666666.
        lcps = Lcps(({"sq": 0.5, "ma": 0.25, "pa": 0.25},))
        with pytest.raises(InputError, match="LCPS level 0: non-rational mass at 'sq'"):
            derive_beliefs(fx.larry_environment(), lcps)


class TestDeriveBeliefs:
    def test_uniform_prior_gives_uniform_beliefs(self):
        env = fx.larry_environment()
        lcps = Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},))
        assert derive_beliefs(env, lcps) == fx.uniform_beliefs()

    def test_lex(self):
        env = fx.larry_environment()
        assert derive_beliefs(env, fx.lex_lcps()) == fx.lex_beliefs()

    def test_skewed_reach_weights_the_posterior(self):
        env = fx.skewed_environment()
        lcps = Lcps(({"u": F(1, 2), "v": F(1, 2)},))
        assert derive_beliefs(env, lcps) == fx.skewed_beliefs()


class TestVerifyCcbs:
    def test_exact_match(self):
        env = fx.larry_environment()
        assert verify_ccbs(env, fx.lex_beliefs(), fx.lex_lcps())

    def test_mismatch(self):
        env = fx.larry_environment()
        assert not verify_ccbs(env, fx.uniform_beliefs(), fx.lex_lcps())

    def test_regret_rejected_by_random_lcps_sample(self, rng):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        for _ in range(100):
            assert not verify_ccbs(env, mu, random_lcps(rng, env.states))

    def test_float_mass_rejected(self):
        # Floats equal to the induced masses must not pass as exact beliefs.
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        for h in ("sm", "mp", "ps"):
            mu[h] = {s: float(m) for s, m in mu[h].items()}
        lcps = extract_lcps(env, fx.uniform_beliefs())
        with pytest.raises(DomainError, match=r"^mu\['sm'\]: non-rational mass at 'sq'$"):
            verify_ccbs(env, mu, lcps)

    def test_row_outside_the_forest_rejected(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        lcps = extract_lcps(env, mu)
        assert verify_ccbs(env, mu, lcps)
        mu["zz"] = {"sq": F(1)}
        assert not verify_ccbs(env, mu, lcps)


class TestExtractLcps:
    def test_uniform(self):
        env = fx.larry_environment()
        lcps = extract_lcps(env, fx.uniform_beliefs())
        assert lcps.levels == ({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},)

    def test_lex(self):
        env = fx.larry_environment()
        assert extract_lcps(env, fx.lex_beliefs()) == fx.lex_lcps()

    def test_incoherent_rejected(self):
        with pytest.raises(PreconditionViolation):
            extract_lcps(fx.larry_environment(), fx.regret_beliefs())

    def test_invalid_beliefs_rejected(self):
        env = fx.larry_environment()
        mu = fx.uniform_beliefs()
        del mu["sm"]
        with pytest.raises(InputError):
            extract_lcps(env, mu)


    def test_is_the_verified_lcps_of_complete_consistency(self, rng, monkeypatch):
        for _ in range(30):
            env = random_environment(rng, max_states=5, max_nodes=8)
            mu = derive_beliefs(env, random_lcps(rng, env.states))
            assert extract_lcps(env, mu) == check_complete_consistency(env, mu).lcps
        monkeypatch.setattr("dutchbook.consistency.verify_ccbs", lambda env, mu, lcps: False)
        with pytest.raises(InternalError, match="does not reproduce"):
            extract_lcps(fx.larry_environment(), fx.lex_beliefs())


class TestCompleteConsistency:
    def test_regret_inconsistent(self):
        result = check_complete_consistency(fx.larry_environment(), fx.regret_beliefs())
        assert not result.consistent
        assert result.violation.product.value == F(1, 27)
        assert result.lcps is None

    def test_lex_consistent(self):
        result = check_complete_consistency(fx.larry_environment(), fx.lex_beliefs())
        assert result.consistent
        assert result.lcps == fx.lex_lcps()
        assert result.certificate is not None

    def test_derived_beliefs_always_consistent(self, rng):
        for _ in range(50):
            env = random_environment(rng, max_states=5, max_nodes=8)
            lcps = random_lcps(rng, env.states)
            mu = derive_beliefs(env, lcps)
            result = check_complete_consistency(env, mu)
            assert result.consistent
            assert verify_ccbs(env, mu, result.lcps)


def relabeled(rng, env, mu):
    """The same environment and beliefs with every contingency renamed to an
    id drawn out of order; the forest keeps its node order."""
    nodes = env.forest.nodes
    name = dict(zip(nodes, (f"c{k}" for k in rng.sample(range(100), len(nodes)))))
    forest = ContingencyForest(
        [name[h] for h in nodes], {name[c]: name[p] for c, p in env.forest.parent.items()}
    )
    eta = {s: {name[leaf]: m for leaf, m in row.items()} for s, row in env.eta.items()}
    return build_environment(env.states, forest, eta), {name[h]: mu[h] for h in nodes}


class TestContingencyRelabeling:
    def test_verdicts_and_lcps_survive_relabeling(self):
        rng, seen = random.Random(31), {True: 0, False: 0}
        for i in range(300):
            env = random_environment(rng, max_states=5, max_nodes=8)
            mu = derive_beliefs(env, random_lcps(rng, env.states))
            if i % 2:
                h = rng.choice(env.forest.nodes)
                mu[h] = weights(rng, env.consistent_states[h])
            renamed, renamed_mu = relabeled(rng, env, mu)
            before = check_complete_consistency(env, mu)
            after = check_complete_consistency(renamed, renamed_mu)
            assert before.consistent == after.consistent
            assert before.lcps == after.lcps
            if not before.consistent:
                # The witnesses may differ; each must re-evaluate to its product.
                for e, m, result in ((env, mu, before), (renamed, renamed_mu, after)):
                    product = result.violation.product
                    assert generalized_odds_ratio(e, m, result.violation.cycle) == product
                    assert not product.is_one
            seen[before.consistent] += 1
        assert min(seen.values()) >= 50, seen


def pair_chain(n, closed):
    """n states and flat pair contingencies c_i = {s_i, s_i+1} (and, when
    `closed`, c_n-1 = {s_n-1, s_0}); each mu(.|c_i) is certain of s_i+1."""
    states = [f"s{i}" for i in range(n)]
    m = n if closed else n - 1
    eta = {s: {} for s in states}
    for i in range(m):
        for s in (states[i], states[(i + 1) % n]):
            eta[s][f"c{i}"] = F(1)
    eta = {s: {c: F(1, len(row)) for c in row} for s, row in eta.items()}
    env = build_environment(states, ContingencyForest([f"c{i}" for i in range(m)], {}), eta)
    mu = {f"c{i}": {states[(i + 1) % n]: F(1)} for i in range(m)}
    return env, mu


class TestDeepPlausibilityChains:
    def test_open_chain_is_consistent_with_one_level_per_state(self):
        env, mu = pair_chain(1200, closed=False)
        result = check_complete_consistency(env, mu)
        assert result.consistent
        assert len(result.lcps.levels) == 1200
        assert result.lcps.levels[0] == {"s1199": F(1)}
        assert result.lcps.levels[-1] == {"s0": F(1)}

    def test_closed_chain_is_a_zero_product_witness(self):
        env, mu = pair_chain(1200, closed=True)
        result = check_complete_consistency(env, mu)
        assert not result.consistent
        assert result.violation.product.is_zero
        assert len(result.violation.cycle) == 1200


class TestForwardConsistency:
    def test_nested_ok(self):
        assert check_forward_consistency(fx.nested_environment(), fx.nested_ok_beliefs()) is None

    def test_drift_violation(self):
        v = check_forward_consistency(fx.nested_environment(), fx.drift_beliefs())
        assert (v.h, v.h_prime, v.s) == ("h0", "h1", "A")
        assert v.lhs == F(1, 3)
        assert v.rhs == F(3, 4) * F(2, 3)

    def test_null_event_pairs_are_skipped(self):
        # mu(S(h1)|h0) = 0: the conditional is undefined, so no violation.
        env = fx.nested_environment()
        mu = {
            "h0": {"C": F(1)},
            "h1": {"A": F(3, 4), "B": F(1, 4)},
            "h2": {"C": F(1)},
        }
        assert check_forward_consistency(env, mu) is None

    def test_flat_forest_is_vacuous(self):
        # No comparable pairs at all: even regret beliefs pass.
        assert check_forward_consistency(fx.larry_environment(), fx.regret_beliefs()) is None


# Reference implementation: the all-pairs scan that the edge pass replaced,
# which checked every (h, h') with h a proper ancestor of h' in node order.

def reference_forward_violations(env, mu):
    nodes, chain = env.forest.nodes, env.forest.chain
    for h in nodes:
        for hp in nodes:
            if h == hp or h not in chain[hp]:
                continue
            shp = env.consistent_states[hp]
            event_mass = mass_of(mu[h], shp)
            if event_mass == 0:
                continue
            for s in shp:
                lhs = mu[h].get(s, ZERO)
                rhs = mu[hp].get(s, ZERO) * event_mass
                if lhs != rhs:
                    yield ForwardViolation(h, hp, s, lhs, rhs)
                    break


def shuffled_forest_environment(rng):
    """Random environment on a forest (often multi-rooted) whose node list is
    shuffled, so a child may be listed before its parent."""
    while True:
        n = rng.randint(2, 12)
        order = [f"h{i}" for i in range(n)]
        parent = {}
        for i in range(1, n):
            if rng.random() < 0.85:
                parent[order[i]] = order[rng.randrange(i)]
        nodes = order[:]
        rng.shuffle(nodes)
        forest = ContingencyForest(nodes, parent)
        states = [f"s{i}" for i in range(rng.randint(2, 6))]
        eta = {s: weights(rng, forest.leaves) for s in states}
        try:
            return build_environment(states, forest, eta)
        except InvalidEnvironment:
            continue


def lexicographic_filtration(env, lcps):
    """Condition the first LCPS level with mass on S(h) on S(h), everywhere:
    forward consistent by construction, with mu(S(c)|parent) = 0 wherever the
    child c is first explained by a later level than its parent."""
    mu = {}
    for h in env.forest.nodes:
        sh = env.consistent_states[h]
        level = lcps.levels[lcps.level_for(sh)]
        total = mass_of(level, sh)
        mu[h] = {s: level[s] / total for s in sh if s in level}
    return mu


def edge_kind(env, mu, c):
    """'zero', 'bad' or 'ok' for the edge into the non-root c, by the reference
    check of the pair (parent, c)."""
    a = env.forest.parent[c]
    if mass_of(mu[a], env.consistent_states[c]) == 0:
        return "zero"
    pair_fails = any(v.h_prime == c for v in reference_forward_violations(env, mu) if v.h == a)
    return "bad" if pair_fails else "ok"


class TestEdgeCriterionMatchesAllPairs:
    def test_full_sequences_on_seeded_forests(self):
        rng = random.Random(0xF0)
        seen = dict.fromkeys(
            ["multi_root", "child_first", "zero_edge", "zero_above_bad", "agreeing_grandchild",
             "several_violations"], 0
        )
        for _ in range(400):
            env = shuffled_forest_environment(rng)
            forest = env.forest
            mu = lexicographic_filtration(env, random_lcps(rng, env.states))
            for h in rng.sample(forest.nodes, rng.randint(2, min(3, len(forest.nodes)))):
                mu[h] = weights(rng, env.consistent_states[h])
            got = list(forward_violations(env, mu))
            assert got == list(reference_forward_violations(env, mu))
            assert check_forward_consistency(env, mu) == (got[0] if got else None)

            kind = {c: edge_kind(env, mu, c) for c in forest.parent}
            consistent_pairs = {
                (h, hp)
                for h, hp in forest.comparable_pairs()
                if mass_of(mu[h], env.consistent_states[hp]) > 0
            } - {(v.h, v.h_prime) for v in got}
            seen["multi_root"] += len(forest.roots) > 1
            seen["child_first"] += any(
                forest.index[c] < forest.index[a] for c, a in forest.parent.items()
            )
            seen["zero_edge"] += "zero" in kind.values()
            seen["zero_above_bad"] += any(
                kind[c] == "bad" and any(kind.get(a) == "zero" for a in forest.chain[c][1:-1])
                for c in forest.parent
            )
            seen["agreeing_grandchild"] += any(
                kind[p] == "bad" and (forest.parent[p], c) in consistent_pairs
                for p in forest.parent
                for c in forest.children[p]
            )
            seen["several_violations"] += len(got) > 1
        assert all(count >= 10 for count in seen.values()), seen

    def test_consistent_beliefs_yield_nothing(self):
        rng = random.Random(0xF1)
        for _ in range(100):
            env = shuffled_forest_environment(rng)
            mu = lexicographic_filtration(env, random_lcps(rng, env.states))
            assert list(forward_violations(env, mu)) == []

    def test_deep_caterpillar_with_filtration_beliefs(self):
        # Spine c0 -> ... -> c499 with a leaf l_i hanging off each c_i: 999
        # contingencies, one state per leaf, sum |S(h)| about 125k.
        depth = 500
        nodes, parent = ["c0"], {}
        for i in range(1, depth):
            nodes += [f"c{i}", f"l{i - 1}"]
            parent[f"c{i}"] = parent[f"l{i - 1}"] = f"c{i - 1}"
        forest = ContingencyForest(nodes, parent)
        states = [f"s_{leaf}" for leaf in forest.leaves]
        env = build_environment(
            states, forest, {s: {leaf: F(1)} for s, leaf in zip(states, forest.leaves)}
        )
        prior = weights(random.Random(0xF2), env.states, max_denom=2 * depth, full_support=True)
        mu = {}
        for h in forest.nodes:
            sh = env.consistent_states[h]
            total = mass_of(prior, sh)
            mu[h] = {s: prior[s] / total for s in sh}
        started = time.perf_counter()
        assert check_forward_consistency(env, mu) is None
        assert time.perf_counter() - started < 10.0
