"""The benchmark's own exact arithmetic.

Every output check recomputes its expectation here, from the generated
instance, without calling into `dutchbook`. Nothing in this module is timed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class Env:
    """A learning environment as the generator builds it.

    `nodes` is the canonical contingency order (parents before children),
    `parent` maps non-roots to their parent and `eta[s]` maps leaf ids to
    the probability of the path ending there. Derived tables are filled in
    by `__post_init__` and hold positive entries only.
    """

    states: list[str]
    nodes: list[str]
    parent: dict[str, str]
    eta: dict[str, dict[str, Fraction]]
    chain: dict[str, tuple[str, ...]] = field(init=False)
    children: dict[str, list[str]] = field(init=False)
    reach: dict[str, dict[str, Fraction]] = field(init=False)

    def __post_init__(self):
        self.children = {h: [] for h in self.nodes}
        for h in self.nodes:
            if h in self.parent:
                self.children[self.parent[h]].append(h)
        self.chain = {}
        for h in self.nodes:  # parents come first, so their chain is ready
            p = self.parent.get(h)
            self.chain[h] = (self.chain[p] if p else ()) + (h,)
        self.reach = {h: {} for h in self.nodes}
        for s in self.states:
            for leaf, mass in self.eta[s].items():
                for h in self.chain[leaf]:
                    self.reach[h][s] = self.reach[h].get(s, ZERO) + mass
        order = {s: i for i, s in enumerate(self.states)}
        for h in self.nodes:
            self.reach[h] = dict(sorted(self.reach[h].items(), key=lambda kv: order[kv[0]]))

    @property
    def leaves(self) -> list[str]:
        return [h for h in self.nodes if not self.children[h]]

    def support(self, h: str) -> list[str]:
        """S(h): the states that reach h, in canonical order."""
        return list(self.reach[h])

    def depth(self) -> int:
        return max(len(c) for c in self.chain.values())

    def uniform_reach(self) -> bool:
        return all(len(set(row.values())) <= 1 for row in self.reach.values())


def bayes_beliefs(env: Env, levels: list[dict[str, Fraction]]) -> dict[str, dict[str, Fraction]]:
    """Condition the first LCPS level that explains S(h), weighted by reach."""
    level_of = {s: m for m, level in enumerate(levels) for s, mass in level.items() if mass > 0}
    mu = {}
    for h in env.nodes:
        row = env.reach[h]
        first = min((level_of[s] for s in row if s in level_of), default=None)
        if first is None:
            raise ValueError(f"no LCPS level explains {h!r}")
        level = levels[first]
        weights = {s: r * level[s] for s, r in row.items() if level_of.get(s) == first}
        total = sum(weights.values(), ZERO)
        mu[h] = {s: w / total for s, w in weights.items()}
    return mu


def conditional(levels: list[dict[str, Fraction]], event: list[str]) -> dict[str, Fraction]:
    """The CPS row on `event`: the first level with mass on it, conditioned."""
    for level in levels:
        weights = {s: level[s] for s in event if level.get(s, ZERO) > 0}
        if weights:
            total = sum(weights.values(), ZERO)
            return {s: w / total for s, w in weights.items()}
    raise ValueError(f"no LCPS level explains {event}")


def positive(row: dict[str, Fraction]) -> dict[str, Fraction]:
    return {k: v for k, v in row.items() if v != 0}


def odds(env: Env, mu, h: str, s: str, sp: str):
    """Discounted odds ratio o(s, s'|h) as a Fraction, "zero", "inf" or None (0/0)."""
    a, b = mu[h].get(s, ZERO), mu[h].get(sp, ZERO)
    if a == 0 and b == 0:
        return None
    if a == 0:
        return "zero"
    if b == 0:
        return "inf"
    return a / env.reach[h][s] * env.reach[h][sp] / b


def cycle_product(env: Env, mu, links: list[tuple[str, str, str]]):
    """Product of the odds ratios along a closed walk of (h, from, to) links.

    Returns a Fraction, "zero" or "inf"; None when the walk is not closed,
    leaves S(h), or mixes zero with infinity.
    """
    if not links or any(links[i][2] != links[(i + 1) % len(links)][1] for i in range(len(links))):
        return None
    value, zeros, infs = ONE, 0, 0
    for h, s, sp in links:
        if h not in env.reach or s == sp or s not in env.reach[h] or sp not in env.reach[h]:
            return None
        o = odds(env, mu, h, s, sp)
        if o is None:
            return None
        if o == "zero":
            zeros += 1
        elif o == "inf":
            infs += 1
        else:
            value *= o
    if zeros and infs:
        return None
    return "zero" if zeros else "inf" if infs else value


def format_ratio(value) -> str:
    return value if isinstance(value, str) else str(value)


def acceptable(row: dict[str, Fraction], gamble: dict[str, Fraction]) -> bool:
    """Positive expectation, or zero with no loss where the belief is zero."""
    value = sum((row.get(s, ZERO) * x for s, x in gamble.items()), ZERO)
    if value != 0:
        return value > 0
    return all(x >= 0 for s, x in gamble.items() if row.get(s, ZERO) == 0)


def expectation(row: dict[str, Fraction], gamble: dict[str, Fraction]) -> Fraction:
    return sum((row.get(s, ZERO) * x for s, x in gamble.items()), ZERO)


def state_sums(env: Env, g) -> dict[str, Fraction]:
    """Objective expected payoff per state: sum over h of reach * payoff."""
    sums = {s: ZERO for s in env.states}
    for h, gamble in g.items():
        for s, x in gamble.items():
            sums[s] += env.reach[h].get(s, ZERO) * x
    return sums


def path_sums(env: Env, g) -> dict[str, dict[str, Fraction]]:
    """Realized payoff along every path of every state."""
    return {
        s: {
            leaf: sum((g.get(h, {}).get(s, ZERO) for h in env.chain[leaf]), ZERO)
            for leaf in env.leaves
            if env.eta[s].get(leaf, ZERO) > 0
        }
        for s in env.states
    }


def is_book(values) -> bool:
    values = list(values)
    return all(v <= 0 for v in values) and any(v < 0 for v in values)


def forward_consistent(env: Env, mu) -> bool:
    """Conditioning on parent-child edges only.

    Equivalent to the all-ancestor-pairs criterion: S(h'') is inside S(h')
    for every descendant h'' of h', and conditioning composes.
    """
    for h, p in env.parent.items():
        support = env.support(h)
        mass = sum((mu[p].get(s, ZERO) for s in support), ZERO)
        if mass == 0:
            continue
        if any(mu[p].get(s, ZERO) != mu[h].get(s, ZERO) * mass for s in support):
            return False
    return True


def two_gamble_book(env: Env, mu, h1: str, h2: str, s: str, sp: str) -> dict[str, dict[str, Fraction]]:
    """An accepted Dutch book on two contingencies that both hold s and s'.

    With a = mu(s|h)/p(h|s) and b = mu(s'|h)/p(h|s'), the beliefs are
    inconsistent along the 2-cycle when a1/b1 != a2/b2. Orient so that
    a1/b1 > a2/b2, pick k strictly between the two ratios, and pay so that
    each of s and s' loses delta in expectation while both gambles keep a
    positive subjective value. Both states reach both contingencies, so on
    a forest with one path per state the same book is deterministic.
    """
    def ab(h):
        return mu[h][s] / env.reach[h][s], mu[h][sp] / env.reach[h][sp]

    (a1, b1), (a2, b2) = ab(h1), ab(h2)
    if a1 / b1 < a2 / b2:
        h1, h2, a1, b1, a2, b2 = h2, h1, a2, b2, a1, b1
    if a1 / b1 == a2 / b2:
        raise ValueError("the 2-cycle has product 1")
    k = (a1 / b1 + a2 / b2) / 2
    delta = b2 * (k - a2 / b2) / (a2 + b2) / 2
    t, w = ONE, -k  # objective contributions at h1 to s and s'
    return {
        h1: {s: t / env.reach[h1][s], sp: w / env.reach[h1][sp]},
        h2: {s: (-t - delta) / env.reach[h2][s], sp: (-w - delta) / env.reach[h2][sp]},
    }
