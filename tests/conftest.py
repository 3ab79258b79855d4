"""Shared randomized-instance generators.

All generators take an explicit `random.Random` so every test is seeded and
reproducible. Probabilities use common denominators <= 12 and payoffs
denominators <= 16 throughout, keeping every instance exactly representable.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from dutchbook import (
    BeliefSystem,
    ContingencyForest,
    GambleSystem,
    Lcps,
    LearningEnvironment,
    build_environment,
    check_complete_consistency,
    derive_beliefs,
)
from dutchbook.errors import InvalidEnvironment

ZERO = Fraction(0)


def weights(rng: random.Random, keys, max_denom: int = 12, full_support: bool = False):
    """Random distribution over a subset of keys, common denominator <= max_denom."""
    keys = list(keys)
    if full_support:
        chosen = keys
        d = rng.randint(len(keys), max(len(keys), max_denom))
        counts = {k: 1 for k in chosen}
        spare = d - len(chosen)
    else:
        chosen = rng.sample(keys, rng.randint(1, len(keys)))
        d = rng.randint(1, max_denom)
        counts = {k: 0 for k in chosen}
        spare = d
    for _ in range(spare):
        counts[rng.choice(chosen)] += 1
    return {k: Fraction(c, d) for k, c in counts.items() if c}


def random_forest(rng: random.Random, max_nodes: int, chain_bias: float = 0.5):
    n = rng.randint(1, max_nodes)
    nodes = [f"h{i}" for i in range(n)]
    parent = {}
    for i in range(1, n):
        if rng.random() < chain_bias:
            parent[nodes[i]] = nodes[rng.randrange(i)]
    return ContingencyForest(nodes, parent)


def chain(forest: ContingencyForest, h: str) -> tuple[str, ...]:
    """The root-to-node tuple of h, read from `path`."""
    return tuple(forest.path(h))[::-1]


def random_environment(
    rng: random.Random, max_states: int = 6, max_nodes: int = 12
) -> LearningEnvironment:
    """Random valid environment; resamples until every contingency is consistent."""
    while True:
        forest = random_forest(rng, max_nodes)
        states = [f"s{i}" for i in range(rng.randint(1, max_states))]
        eta = {s: weights(rng, forest.leaves) for s in states}
        try:
            return build_environment(states, forest, eta)
        except InvalidEnvironment:
            continue


def random_lcps(rng: random.Random, states) -> Lcps:
    """Random ordered partition of the states with full support per level."""
    order = list(states)
    rng.shuffle(order)
    levels = []
    while order:
        k = rng.randint(1, len(order))
        members, order = order[:k], order[k:]
        levels.append(weights(rng, members, full_support=True))
    return Lcps(tuple(levels))


def perturbable(env: LearningEnvironment) -> bool:
    """True iff the environment can host an inconsistent belief system.

    Each contingency ties its consistent states together; beliefs are
    overconstrained exactly when those ties close a cycle across
    contingencies (e.g. the three pair contingencies of the Larry shape)."""
    parent = {s: s for s in env.states}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for h in env.forest.nodes:
        anchor, *rest = env.consistent_states[h]
        for s in rest:
            ra, rs = find(anchor), find(s)
            if ra == rs:
                return True
            parent[ra] = rs
    return False


def inconsistent_beliefs(rng: random.Random, env: LearningEnvironment) -> BeliefSystem:
    """Perturb a derived (hence consistent) belief system until it breaks."""
    assert perturbable(env)
    for _ in range(200):
        mu = derive_beliefs(env, random_lcps(rng, env.states))
        h = rng.choice(
            [h for h in env.forest.nodes if len(env.consistent_states[h]) >= 2]
        )
        mu[h] = weights(rng, env.consistent_states[h], full_support=rng.random() < 0.7)
        if not check_complete_consistency(env, mu).consistent:
            return mu
    raise AssertionError("could not perturb into inconsistency")


def filtration_beliefs(rng: random.Random, env: LearningEnvironment) -> BeliefSystem:
    """Condition one full-support prior on S(h) everywhere: forward consistent
    by construction."""
    prior = weights(rng, env.states, full_support=True)
    mu: BeliefSystem = {}
    for h in env.forest.nodes:
        sh = env.consistent_states[h]
        total = sum((prior[s] for s in sh), ZERO)
        mu[h] = {s: prior[s] / total for s in sh}
    return mu


# k/16 for each payoff numerator k the generator draws, built once.
_SIXTEENTHS = {k: Fraction(k, 16) for k in range(-160, 161)}


def _accepts(w, ks) -> bool:
    """The acceptance rule on integers: masses w[s] and payoffs ks[s] are
    numerators over positive common denominators, so the expectation has
    the sign of sum w*k."""
    value = sum(w[s] * k for s, k in ks.items())
    if value:
        return value > 0
    return all(k >= 0 for s, k in ks.items() if not w[s])


def accepted_gambles(
    rng: random.Random, env: LearningEnvironment, mu: BeliefSystem
) -> GambleSystem:
    """Random payoffs in [-10, 10] with denominators <= 16, repaired to be
    acceptable by scaling the positive part (or dropping the gamble).

    Computed on integers, independently of the library's acceptance code:
    mu(.|h) as numerators w over their lcm, payoffs as numerators k over 16.
    A rejected gamble has v = sum w*k and positive part p = sum of w*k over
    k > 0; when p > 0, each positive payoff is scaled by (p - v)/p, so the
    gamble becomes numerators k*(p - v) or k*p over 16*p."""
    g: GambleSystem = {}
    for h in env.forest.nodes:
        if rng.random() < 0.3:
            continue
        sh = env.consistent_states[h]
        ks = {s: rng.randint(-160, 160) for s in rng.sample(sh, rng.randint(1, len(sh)))}
        ks = {s: k for s, k in ks.items() if k}
        row = mu[h]
        d = lcm(*(m.denominator for m in row.values()))
        w = {s: row[s].numerator * (d // row[s].denominator) if s in row else 0 for s in ks}
        if not _accepts(w, ks):
            value = sum(w[s] * k for s, k in ks.items())
            positive = sum(w[s] * k for s, k in ks.items() if k > 0)
            if positive > 0:
                ks = {s: k * (positive - value) if k > 0 else k * positive for s, k in ks.items()}
                if _accepts(w, ks):
                    g[h] = {s: Fraction(k, 16 * positive) for s, k in ks.items()}
        elif ks:
            g[h] = {s: _SIXTEENTHS[k] for s, k in ks.items()}
    return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDB)
