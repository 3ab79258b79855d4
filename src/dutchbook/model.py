"""Domain model: states, contingency forests, learning environments, beliefs.

All probability and payoff arithmetic is exact, on `fractions.Fraction`s or
on integer numerators over a common denominator; nothing on a verdict path
ever touches floating point.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from types import MappingProxyType

from .errors import DomainError, InputError, InvalidEnvironment

ZERO = Fraction(0)
ONE = Fraction(1)

# A distribution is a state->mass map; missing keys mean zero mass.
Distribution = dict[str, Fraction]
# A belief system maps each contingency to a distribution over states.
BeliefSystem = dict[str, Distribution]


class _BeliefView(dict):
    """The integer view of a valid belief system, made by the validation pass
    `_belief_rows` and returned by `require_valid_beliefs`: h -> (d, n) for
    each contingency h, in node order, d the lcm of the row's denominators
    and n = {s: mu(s|h)*d} for each positive mass, in the row's order."""


class _ReadBeliefs(Mapping):
    """A belief system as `serialize.beliefs_from_doc` reads it: read-only,
    its rows in document order, each held as its reduced (p, q) pairs in row
    order and as its integer row (d, n), d the lcm of the q and n = {s: p*d/q}
    for each nonzero mass, in row order; the reader builds both in one pass
    over the row's entries. `_belief_rows` validates the integer rows without
    reading a Fraction. The Fraction row of h, a read-only mapping equal to
    the document's row (zero masses included), is built on its first lookup
    and kept."""

    def __init__(
        self,
        pairs: dict[str, dict[str, tuple[int, int]]],
        ints: dict[str, tuple[int, dict[str, int]]],
    ):
        self._pairs = pairs
        self._ints = ints
        self._rows: dict[str, Mapping[str, Fraction]] = {}

    def __getitem__(self, h: str) -> Mapping[str, Fraction]:
        row = self._rows.get(h)
        if row is None:
            pairs = self._pairs[h]  # KeyError for an unknown contingency, as a dict
            row = {s: _fraction(p, q) for s, (p, q) in pairs.items()}
            row = self._rows[h] = MappingProxyType(row)
        return row

    def __contains__(self, h: object) -> bool:
        return h in self._pairs

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({ {h: dict(row) for h, row in self.items()} !r})"


# On CPython, Fraction's numerator and denominator are Python-level properties
# and its constructor dispatches on its arguments in Python before its gcd, so
# both cost more than the integer work they wrap. These helpers and the eta
# pass of `build_environment` are the only code that reads an exact
# Fraction's integers from its slots `_numerator` and `_denominator`, or
# builds a Fraction from them. A value whose type is not exactly Fraction (an
# int, a bool, a Fraction subclass, another Rational) keeps the property path.

def _fraction(n: int, d: int) -> Fraction:
    """n/d as a Fraction, for ints n and d > 0: one gcd, then the two slots
    set on a bare instance, as CPython 3.12+ builds Fractions internally."""
    g = gcd(n, d)
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n // g, d // g
    return f


def _pair(m: Rational) -> tuple[int, int]:
    """(numerator, denominator) of a rational."""
    if type(m) is Fraction:
        return m._numerator, m._denominator
    return m.numerator, m.denominator


def _exact_sum(values: Iterable[Rational]) -> Fraction:
    """Sum of rationals, added as integers over the running lcm of the
    denominators; one Fraction is built at the end."""
    n, d = 0, 1
    for v in values:
        if type(v) is Fraction:
            p, q = v._numerator, v._denominator
        else:
            p, q = v.numerator, v.denominator
        if d % q:
            m = lcm(d, q)
            n *= m // d
            d = m
        n += p * (d // q)
    return _fraction(n, d)


def _integer_row(row: Mapping[str, Rational]) -> tuple[int, dict[str, int]]:
    """(d, n) for a row of rational masses: d the lcm of the denominators and
    n = {s: row[s]*d} for each nonzero mass, in row order. When every mass is
    exactly a Fraction, its slots are read directly."""
    if set(map(type, row.values())) <= {Fraction}:
        d = lcm(*[m._denominator for m in row.values()])
        return d, {s: x for s, m in row.items() if (x := m._numerator * (d // m._denominator))}
    d = lcm(*[m.denominator for m in row.values()])
    return d, {s: x for s, m in row.items() if (x := m.numerator * (d // m.denominator))}


def _quotients(
    d: int, n: Mapping[str, int], row: Mapping[str, Fraction]
) -> dict[str, tuple[int, int]]:
    """n/d divided by a reach row, for each key of the row in row order, as
    unreduced integer pairs: (n(s)*q, d*p) for row[s] = p/q in lowest terms,
    a key missing from n counting as 0. Reach rows hold only exact positive
    Fractions (see `LearningEnvironment`), so their slots are read directly."""
    return {s: (n.get(s, 0) * m._denominator, d * m._numerator) for s, m in row.items()}


def mass_of(dist: Mapping[str, Fraction], keys: Iterable[str]) -> Fraction:
    """Total mass the distribution puts on the given keys."""
    return _exact_sum(dist.get(k, ZERO) for k in keys)


def _is_rational_type(t: type) -> bool:
    """True iff the values of type t are Rationals; Fraction passes before
    the slower check against the ABC."""
    return t is Fraction or issubclass(t, Rational)


def _require_rational(value: object, message: str, *args: object, error=DomainError) -> None:
    """Raise error(message % args) unless value is a Rational: a float would
    make exact comparisons pass or fail by rounding. The message is only
    formatted on failure."""
    if not _is_rational_type(type(value)):
        raise error(message % args)


def check_distribution(dist: Mapping[str, Fraction], what: str) -> tuple[int, dict[str, int]]:
    """Raise InvalidEnvironment unless the rational masses are non-negative
    and sum to 1; return their integer row (d, n) from `_integer_row`, whose
    n holds the positive masses in row order."""
    d, n = _integer_row(dist)
    if min(n.values(), default=0) < 0:
        key = next(k for k, x in n.items() if x < 0)
        raise InvalidEnvironment(f"{what}: negative mass at {key!r}")
    if (total := sum(n.values())) != d:
        raise InvalidEnvironment(f"{what}: masses sum to {_fraction(total, d)}, not 1")
    return d, n


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
    order (its keys are S(h)). Every eta and reach mass is exactly a Fraction:
    `build_environment` converts any other Rational before summing.
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


def _refuse_eta_row(s: str, row: Mapping[str, object], leaf_rank: Mapping[str, int]) -> None:
    """Raise InvalidEnvironment for an eta row that `build_environment`'s
    loop refused, worded by its first failing check: a non-rational mass (the
    first), unknown path keys (all of them), then `check_distribution`."""
    for k, v in row.items():
        _require_rational(v, "eta[%r]: non-rational mass at %r", s, k, error=InvalidEnvironment)
    bad = [k for k in row if k not in leaf_rank]
    if bad:
        raise InvalidEnvironment(f"eta[{s!r}] has unknown path keys {bad}")
    check_distribution(row, f"eta[{s!r}]")


def build_environment(
    states: Sequence[str],
    forest: ContingencyForest,
    eta: Mapping[str, Mapping[str, Fraction]],
) -> LearningEnvironment:
    """Validate inputs and build the sparse eta and reach tables.

    Each eta row is read in one loop over its entries. An exact Fraction's
    slots are read directly and any other Rational is converted; each key
    is ranked as a leaf; the masses are added as integers over the running
    lcm of their denominators, which must end as 1 with no negative
    numerator; and each positive mass goes into a new dict and into reach at
    once. The dict is sorted into forest order only when its leaf ranks came
    out of order. A row that fails any check is handed to `_refuse_eta_row`,
    which words the error."""
    if not states:
        raise InvalidEnvironment("state space is empty")
    if len(set(states)) != len(states):
        raise InvalidEnvironment("duplicate state identifiers")
    state_tuple = tuple(states)

    missing = [s for s in state_tuple if s not in eta]
    if missing:
        raise InvalidEnvironment(f"eta missing rows for states {missing}")
    state_set = set(state_tuple)
    unknown = [s for s in eta if s not in state_set]
    if unknown:
        raise InvalidEnvironment(f"eta rows for unknown states {unknown}")

    leaf_rank = {l: forest.index[l] for l in forest.leaves}
    parent = forest.parent
    eta_table: dict[str, Distribution] = {}
    # States are walked in order, so every reach row comes out in state order,
    # whatever order each eta row is spread in.
    reach: dict[str, dict[str, Fraction]] = {h: {} for h in forest.nodes}
    for s in state_tuple:
        row = eta[s]
        positive: Distribution = {}
        total, d, last, ordered = 0, 1, -1, True  # total/d: the row's sum so far
        for k, m in row.items():
            if type(m) is not Fraction:
                if not issubclass(type(m), Rational):
                    break
                m = Fraction(m)
            p, q = m._numerator, m._denominator
            rank = leaf_rank.get(k)
            if rank is None or p < 0:
                break
            if d % q:
                r = lcm(d, q)
                total *= r // d
                d = r
            total += p * (d // q)
            if p:
                positive[k] = m
                if rank < last:
                    ordered = False
                last = rank
                reach[k][s] = m  # the leaf, which no other path of s reaches
                h = parent.get(k)
                while h is not None:  # its ancestors
                    row_h = reach[h]
                    row_h[s] = row_h[s] + m if s in row_h else m
                    h = parent.get(h)
        else:  # no entry was refused
            if total == d:
                if not ordered:
                    positive = {l: positive[l] for l in sorted(positive, key=leaf_rank.__getitem__)}
                eta_table[s] = positive
                continue
        _refuse_eta_row(s, row, leaf_rank)  # a refused entry, or masses not summing to 1

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


def _belief_rows(
    env: LearningEnvironment, mu: Mapping[str, Mapping[str, Fraction]]
) -> tuple[_BeliefView, list[tuple[str, str]]]:
    """The one validation of a belief system: its integer view and its
    (contingency, reason) violations. Unknown contingencies come first; then
    each row, in node order, gets the first rule it breaks (undefined belief,
    unknown states, non-rational mass, negative mass, a sum other than 1,
    positive mass outside S(h)), or else its integer row (d, n) in the view.

    A `_ReadBeliefs` brings its integer rows, whose masses are all rational,
    and no Fraction of it is read. Otherwise each row's mass types are
    checked when the loop reaches it, and the row is turned into integers
    once by `_integer_row`; its sums and signs are read from those integers."""
    if type(mu) is _ReadBeliefs:
        rows, ints = [mu._pairs.get(h) for h in env.reach], mu._ints
    else:
        rows, ints = [mu.get(h) for h in env.reach], None
    problems: list[tuple[str, str]] = []
    if len(mu) != len(rows) - rows.count(None):  # some key of mu is no contingency
        problems = [(h, "unknown contingency") for h in mu if h not in env.reach]
    known = env.state_index.keys()
    view = _BeliefView()
    for (h, support), row in zip(env.reach.items(), rows):  # node order
        if row is None:
            problems.append((h, "undefined belief"))
            continue
        inside = row.keys() <= support.keys()
        if not inside and (bad := [s for s in row if s not in known]):
            problems.append((h, f"unknown states {bad}"))
            continue
        if ints is not None:
            d, n = ints[h]
        elif not all(map(_is_rational_type, map(type, row.values()))):
            problems.append((h, "non-rational mass"))
            continue
        else:
            d, n = _integer_row(row)
        total = sum(n.values())
        if total != d or min(n.values()) < 0:
            negative = any(x < 0 for x in n.values())
            problems.append((h, "negative mass" if negative
                             else f"masses sum to {_fraction(total, d)}, not 1"))
            continue
        if not inside and (out := sum(x for s, x in n.items() if s not in support)):
            problems.append((h, f"mass {_fraction(out, d)} outside S(h)"))
            continue
        view[h] = d, n
    return view, problems


def validate_belief_system(
    env: LearningEnvironment, mu: Mapping[str, Mapping[str, Fraction]]
) -> list[tuple[str, str]]:
    """Return a list of (contingency, reason) violations; empty means valid."""
    return _belief_rows(env, mu)[1]


def require_valid_beliefs(
    env: LearningEnvironment, mu: Mapping[str, Mapping[str, Fraction]]
) -> _BeliefView:
    """Validate mu and return its integer view; on any failure raise
    InputError with the first three violations."""
    view, problems = _belief_rows(env, mu)
    if problems:
        raise InputError(f"invalid belief system: {problems[:3]}")
    return view
