"""Domain model: states, contingency forests, learning environments, beliefs.

All probability and payoff arithmetic uses `fractions.Fraction`; nothing on
a verdict path ever touches floating point.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InvalidEnvironment

ZERO = Fraction(0)
ONE = Fraction(1)

# A distribution is a state->mass map; missing keys mean zero mass.
Distribution = dict[str, Fraction]
# A belief system maps each contingency to a distribution over states.
BeliefSystem = dict[str, Distribution]


def _exact_sum(values: Iterable[Rational]) -> Fraction:
    """Sum of rationals, added as integers over the running lcm of the
    denominators; one Fraction is built at the end."""
    n, d = 0, 1
    for v in values:
        q = v.denominator
        if d % q:
            m = lcm(d, q)
            n *= m // d
            d = m
        n += v.numerator * (d // q)
    return Fraction(n, d)


def mass_of(dist: Mapping[str, Fraction], keys: Iterable[str]) -> Fraction:
    """Total mass the distribution puts on the given keys."""
    return _exact_sum(dist.get(k, ZERO) for k in keys)


def _is_rational(value: object) -> bool:
    """True for a Rational; a Fraction passes on its type, before the slower
    check against the ABC."""
    return type(value) is Fraction or isinstance(value, Rational)


def _require_rational(value: object, message: str, *args: object, error=DomainError) -> None:
    """Raise error(message % args) unless value is a Rational: a float would
    make exact comparisons pass or fail by rounding. The message is only
    formatted on failure."""
    if not _is_rational(value):
        raise error(message % args)


def check_distribution(dist: Mapping[str, Fraction], what: str) -> None:
    """Raise InvalidEnvironment unless the rational masses are non-negative
    and sum to 1."""
    for key, mass in dist.items():
        if mass.numerator < 0:
            raise InvalidEnvironment(f"{what}: negative mass at {key!r}")
    total = _exact_sum(dist.values())
    if total != ONE:
        raise InvalidEnvironment(f"{what}: masses sum to {total}, not 1")


class ContingencyForest:
    """Arborescence (possibly multi-rooted) of contingencies.

    `nodes` fixes the canonical order; `parent` maps each non-root node to
    its parent. Derived tables are computed once and never mutated.
    """

    def __init__(self, nodes: Sequence[str], parent: Mapping[str, str]):
        if not nodes:
            raise InvalidEnvironment("forest has no contingencies")
        if len(set(nodes)) != len(nodes):
            raise InvalidEnvironment("duplicate contingency identifiers")
        node_set = set(nodes)
        for child, par in parent.items():
            if child not in node_set:
                raise InvalidEnvironment(f"unknown contingency {child!r} in parent map")
            if par not in node_set:
                raise InvalidEnvironment(f"unknown parent {par!r} of {child!r}")
            if par == child:
                raise InvalidEnvironment(f"contingency {child!r} is its own parent")
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.parent: dict[str, str] = dict(parent)
        self.index: dict[str, int] = {h: i for i, h in enumerate(self.nodes)}

        children: dict[str, list[str]] = {h: [] for h in self.nodes}
        for child in self.nodes:
            if child in self.parent:
                children[self.parent[child]].append(child)
        self.children: dict[str, tuple[str, ...]] = {
            h: tuple(cs) for h, cs in children.items()
        }
        self.roots: tuple[str, ...] = tuple(h for h in self.nodes if h not in self.parent)
        self.leaves: tuple[str, ...] = tuple(h for h in self.nodes if not children[h])

        # One walk down from the roots. A node it misses lies below a parent
        # cycle; the first such node is walked up to its first repeated ancestor.
        reached = list(self.roots)
        for h in reached:  # the list grows while it is read
            reached.extend(self.children[h])
        if len(reached) < len(self.nodes):
            missed = set(self.nodes).difference(reached)
            seen, cur = set(), next(h for h in self.nodes if h in missed)
            while cur not in seen:
                seen.add(cur)
                cur = self.parent[cur]
            raise InvalidEnvironment(f"cycle in forest through {cur!r}")

    def path(self, h: str) -> Iterator[str]:
        """h, its parent, and so on up to its root."""
        while h is not None:
            yield h
            h = self.parent.get(h)

    @cached_property
    def chain(self) -> dict[str, tuple[str, ...]]:
        """The root-to-node chain of every node, built only when read."""
        return {h: tuple(self.path(h))[::-1] for h in self.nodes}

    def comparable_pairs(self) -> Iterable[tuple[str, str]]:
        """All (h, h') with h a proper ancestor of h', in canonical order."""
        below: dict[str, list[str]] = {h: [] for h in self.nodes}
        for hp in self.nodes:  # node order, so each list is in node order
            for h in tuple(self.path(hp))[1:]:
                below[h].append(hp)
        for h in self.nodes:
            for hp in below[h]:
                yield h, hp

    def require_node(self, h: str) -> None:
        if h not in self.index:
            raise DomainError(f"unknown contingency {h!r}")


class LearningEnvironment:
    """States, forest, and the two sparse tables everything else reads.

    Built by `build_environment`; immutable after construction. `eta[s]`
    holds the positive path masses in forest order (its keys are L(s), paths
    keyed by their leaf contingency); `reach[h]` holds p(h|s) > 0 in state
    order (its keys are S(h)).
    """

    def __init__(
        self,
        states: tuple[str, ...],
        forest: ContingencyForest,
        eta: dict[str, Distribution],
        reach: dict[str, dict[str, Fraction]],
    ):
        self.states = states
        self.forest = forest
        self.eta = eta
        self.reach = reach  # reach[h][s] = p(h|s)
        self.consistent_states = {h: tuple(row) for h, row in reach.items()}  # S(h)
        self.state_index = {s: i for i, s in enumerate(states)}

    def require_state(self, s: str) -> None:
        if s not in self.state_index:
            raise DomainError(f"unknown state {s!r}")


def build_environment(
    states: Sequence[str],
    forest: ContingencyForest,
    eta: Mapping[str, Mapping[str, Fraction]],
) -> LearningEnvironment:
    """Validate inputs and build the sparse eta and reach tables."""
    if not states:
        raise InvalidEnvironment("state space is empty")
    if len(set(states)) != len(states):
        raise InvalidEnvironment("duplicate state identifiers")
    state_tuple = tuple(states)

    missing = [s for s in state_tuple if s not in eta]
    if missing:
        raise InvalidEnvironment(f"eta missing rows for states {missing}")
    unknown = [s for s in eta if s not in state_tuple]
    if unknown:
        raise InvalidEnvironment(f"eta rows for unknown states {unknown}")

    leaf_rank = {l: forest.index[l] for l in forest.leaves}
    eta_table: dict[str, Distribution] = {}
    # States are walked in order, so every reach row comes out in state order.
    reach: dict[str, dict[str, Fraction]] = {h: {} for h in forest.nodes}
    for s in state_tuple:
        row = {}
        for k, v in eta[s].items():
            if type(v) is not Fraction:
                _require_rational(
                    v, "eta[%r]: non-rational mass at %r", s, k, error=InvalidEnvironment
                )
                v = Fraction(v)
            row[k] = v
        bad = [k for k in row if k not in leaf_rank]
        if bad:
            raise InvalidEnvironment(f"eta[{s!r}] has unknown path keys {bad}")
        check_distribution(row, f"eta[{s!r}]")
        eta_table[s] = {l: row[l] for l in sorted(row, key=leaf_rank.get) if row[l].numerator}
        for leaf, mass in eta_table[s].items():
            for h in forest.path(leaf):
                row_h = reach[h]
                row_h[s] = row_h[s] + mass if s in row_h else mass

    for h in forest.nodes:
        if not reach[h]:
            raise InvalidEnvironment(f"inconsistent contingency {h!r}: S(h) is empty")
    return LearningEnvironment(state_tuple, forest, eta_table, reach)


def reach_probability(env: LearningEnvironment, h: str, s: str) -> Fraction:
    """p(h|s): probability that state s leads through contingency h."""
    env.forest.require_node(h)
    env.require_state(s)
    return env.reach[h].get(s, ZERO)


def is_uniform_reach(env: LearningEnvironment) -> bool:
    """True iff every contingency is reached with one probability across S(h)."""
    return all(len(set(row.values())) == 1 for row in env.reach.values())


def has_deterministic_continuation(env: LearningEnvironment) -> bool:
    """True iff at every non-leaf h, each consistent state continues through
    a single child of h on all its paths.

    Every eta key is a leaf, so a path through a non-leaf h passes one of
    its children, and S(h) is the union of the children's S(c). A state of
    S(h) continues through two children iff it lies in two S(c), so the
    condition holds iff the S(c) are disjoint, that is iff their sizes sum
    to |S(h)|."""
    states = env.consistent_states
    return all(
        sum(len(states[c]) for c in children) == len(states[h])
        for h, children in env.forest.children.items()
        if children
    )


def validate_belief_system(
    env: LearningEnvironment, mu: Mapping[str, Mapping[str, Fraction]]
) -> list[tuple[str, str]]:
    """Return a list of (contingency, reason) violations; empty means valid."""
    violations: list[tuple[str, str]] = []
    for h in mu:
        if h not in env.forest.index:
            violations.append((h, "unknown contingency"))
    for h in env.forest.nodes:
        if h not in mu:
            violations.append((h, "undefined belief"))
            continue
        row = mu[h]
        bad = [s for s in row if s not in env.state_index]
        if bad:
            violations.append((h, f"unknown states {bad}"))
            continue
        if not all(map(_is_rational, row.values())):
            violations.append((h, "non-rational mass"))
            continue
        if any(m.numerator < 0 for m in row.values()):
            violations.append((h, "negative mass"))
            continue
        total = _exact_sum(row.values())
        if total != ONE:
            violations.append((h, f"masses sum to {total}, not 1"))
            continue
        outside = [row[s] for s in row.keys() - env.reach[h].keys()]
        if any(outside):
            violations.append((h, f"mass {_exact_sum(outside)} outside S(h)"))
    return violations
