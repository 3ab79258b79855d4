"""Discounted and generalized odds ratios, the coherence graph over states,
cycle-consistency checking, and the plausibility partition."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import (DomainError, IndeterminateProduct, IndeterminateRatio, InternalError,
                     PreconditionViolation)
from .model import (BeliefSystem, LearningEnvironment, ZERO, ONE, _BeliefView, _fraction,
                    _integer_row, _pair, _quotients, _require_rational)


@dataclass(frozen=True)
class ExtendedRatio:
    """A strictly positive rational, zero, or infinity: `value` is the
    positive Fraction, 0, or None for infinity."""

    value: Fraction | None

    @staticmethod
    def zero() -> "ExtendedRatio":
        return ExtendedRatio(ZERO)

    @staticmethod
    def infinite() -> "ExtendedRatio":
        return ExtendedRatio(None)

    @staticmethod
    def finite(v: Fraction) -> "ExtendedRatio":
        _require_rational(v, "finite ratio must be rational, got %r", v)
        if v <= 0:
            raise ValueError(f"finite ratio must be positive, got {v}")
        return ExtendedRatio(Fraction(v))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_finite(self) -> bool:
        return bool(self.value)  # neither None nor 0

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def inverse(self) -> "ExtendedRatio":
        if self.is_zero:
            return ExtendedRatio.infinite()
        if self.is_infinite:
            return ExtendedRatio.zero()
        return ExtendedRatio.finite(1 / self.value)

    def __mul__(self, other: "ExtendedRatio") -> "ExtendedRatio":
        if (self.is_zero and other.is_infinite) or (self.is_infinite and other.is_zero):
            raise IndeterminateProduct("product of zero and infinite ratios")
        if self.is_zero or other.is_zero:
            return ExtendedRatio.zero()
        if self.is_infinite or other.is_infinite:
            return ExtendedRatio.infinite()
        return ExtendedRatio.finite(self.value * other.value)


class OddsLink(NamedTuple):
    """One discounted odds ratio o(src, dst | h). A link read back from a
    stored witness has no value; re-evaluation recomputes it."""

    h: str
    src: str
    dst: str
    value: ExtendedRatio | None = None

    def reversed(self) -> "OddsLink":
        return OddsLink(self.h, self.dst, self.src, self.value.inverse())


OddsChain = Sequence[OddsLink]


Weight = tuple[int, int]  # w(s|h) as an unreduced pair (n, d), n >= 0, d > 0


@dataclass
class CoherenceGraph:
    """The weight row w(s|h) = mu(s|h)/p(h|s) over S(h), in state order, of
    every contingency h, as integer pairs: each discounted odds ratio at h is
    w(s|h)/w(s'|h)."""

    states: tuple[str, ...]
    rows: dict[str, dict[str, Weight]]

    @cached_property
    def weights(self) -> dict[str, dict[str, Fraction]]:
        """The weight rows as Fractions, built only when asked for."""
        return {h: {s: _fraction(*w) for s, w in row.items()} for h, row in self.rows.items()}

    @cached_property
    def edges(self) -> list[OddsLink]:
        """Every defined discounted odds ratio, both orientations, in
        (h, src, dst) order; indeterminate (0/0) pairs are omitted."""
        return [
            OddsLink(h, s, sp, _ratio(a, b))
            for h, row in self.rows.items()
            for s, a in row.items()
            for sp, b in row.items()
            if s != sp and (a[0] or b[0])
        ]


@dataclass(frozen=True)
class PlausibilityPartition:
    """Disjoint state sets ordered from most to least plausible."""

    levels: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CoherenceCertificate:
    partition: PlausibilityPartition
    potentials: dict[str, Fraction]  # strictly positive, sums to 1 per level


@dataclass(frozen=True)
class CoherenceViolation:
    """A self-cycle of discounted odds ratios whose product is not 1."""

    cycle: tuple[OddsLink, ...]
    product: ExtendedRatio


def _weight(mass: Fraction, p: Fraction) -> Weight:
    """w = mass/p as an unreduced integer pair; p > 0."""
    (a, b), (c, d) = _pair(mass), _pair(p)
    return a * d, b * c


def _ratio(a: Weight, b: Weight) -> ExtendedRatio:
    """a/b over the extended ratios; a and b are not both zero."""
    if not a[0]:
        return ExtendedRatio.zero()
    if not b[0]:
        return ExtendedRatio.infinite()
    return ExtendedRatio.finite(_fraction(a[0] * b[1], a[1] * b[0]))


def _require_mass(mass: object, h: str, s: str) -> None:
    """Raise DomainError unless mu(s|h) is a non-negative rational."""
    _require_rational(mass, "mu[%r]: non-rational mass at %r", h, s)
    if _pair(mass)[0] < 0:
        raise DomainError(f"mu[{h!r}]: negative mass at {s!r}")


def discounted_odds_ratio(
    env: LearningEnvironment, mu: BeliefSystem, h: str, s: str, sp: str
) -> ExtendedRatio:
    """o(s, s'|h) = (mu(s|h)/p(h|s)) * (p(h|s')/mu(s'|h))."""
    env.forest.require_node(h)
    env.require_state(s)
    env.require_state(sp)
    reach = env.reach[h]
    if s not in reach or sp not in reach:
        raise DomainError(f"states {s!r},{sp!r} must both be consistent with {h!r}")
    if s == sp:
        raise DomainError("discounted odds ratio requires distinct states")
    a = mu[h].get(s, ZERO)
    b = mu[h].get(sp, ZERO)
    for state, mass in ((s, a), (sp, b)):
        _require_mass(mass, h, state)
    if a == 0 and b == 0:
        raise IndeterminateRatio(f"both beliefs zero at {h!r} for {s!r},{sp!r}")
    return _ratio(_weight(a, reach[s]), _weight(b, reach[sp]))


def generalized_odds_ratio(
    env: LearningEnvironment, mu: BeliefSystem, chain: OddsChain
) -> ExtendedRatio:
    """Product of a concatenation of discounted odds ratios.

    Link values are recomputed from (env, mu), so this doubles as the
    re-evaluation oracle for stored witnesses; a link may be any
    (h, src, dst, ...) tuple.
    """
    if not chain:
        raise DomainError("empty odds chain")
    product = ExtendedRatio.finite(ONE)
    prev_dst = None
    for h, src, dst, *_ in chain:
        if prev_dst is not None and prev_dst != src:
            raise DomainError(f"chain breaks between {prev_dst!r} and {src!r}")
        product = product * discounted_odds_ratio(env, mu, h, src, dst)
        prev_dst = dst
    return product


def build_coherence_graph(env: LearningEnvironment, mu: BeliefSystem) -> CoherenceGraph:
    """The weight row of every contingency, at a cost of sum |S(h)|, from mu
    or from the integer view `require_valid_beliefs` made of it; a
    non-rational or negative mass of mu raises DomainError. With row h as
    (d, n), w(s|h) = (n(s)*q, d*p) for p(h|s) = p/q in lowest terms, the
    `_quotients` of n/d by the reach row."""
    if not isinstance(mu, _BeliefView):
        for h in env.forest.nodes:
            for s, mass in mu[h].items():
                _require_mass(mass, h, s)
        mu = {h: _integer_row(mu[h]) for h in env.forest.nodes}
    reach = env.reach
    return CoherenceGraph(env.states, {h: _quotients(d, n, reach[h]) for h, (d, n) in mu.items()})


def _condensation_walk(
    cond: dict[int, dict[int, OddsLink]]
) -> tuple[list[OddsLink] | None, dict[int, int]]:
    """One depth-first walk of the condensation in sorted order, on an
    explicit stack of (component, remaining successors) frames, as chains can
    be long. Returns the first directed cycle of zero edges, closed along the
    frames by a successor whose frame is still open; else None and each
    component's level, set as its frame closes (so every successor has one):
    1 with no successor, else one more than its deepest successor."""
    levels: dict[int, int] = {}
    open_frames: set[int] = set()
    for root in sorted(cond):
        if root in levels:
            continue
        frames = [(root, iter(sorted(cond[root])))]
        open_frames.add(root)
        while frames:
            c, succs = frames[-1]
            for d in succs:
                if d in open_frames:
                    path = [x for x, _ in frames]
                    path = path[path.index(d):] + [d]
                    return [cond[x][y] for x, y in zip(path, path[1:])], levels
                if d not in levels:
                    open_frames.add(d)
                    frames.append((d, iter(sorted(cond[d]))))
                    break
            else:
                levels[c] = 1 + max((levels[d] for d in cond[c]), default=0)
                open_frames.remove(c)
                frames.pop()
    return None, levels


def _make_violation(cycle: list[OddsLink]) -> CoherenceViolation:
    """The witness for a closed cycle of links, which needs no clean-up.

    Its sources are distinct: it is either one failing edge closed by the
    simple tree path back to its source, or a simple cycle of distinct
    condensation components, each zero edge joined to the next by a simple
    tree path inside one component. Every link is finite (tree links and a
    failing finite edge) or zero, so the product is zero or finite and is
    never reversed. A zero link makes it zero; otherwise the tree links
    agree with the potentials and the failing edge does not, so it is not 1.
    """
    product = ExtendedRatio.finite(ONE)
    for link in cycle:
        product = product * link.value
    if product.is_one:
        raise InternalError("constructed witness cycle has product 1")
    return CoherenceViolation(tuple(cycle), product)


def check_coherence(graph: CoherenceGraph) -> CoherenceCertificate | CoherenceViolation:
    """Certificate iff every generalized self-odds ratio is 1, else a witness
    self-cycle with product Zero or Finite(!= 1).

    Read from the weight rows: at h the finite edges join every two states
    of positive[h] (positive weight, state order) and the zero edges run
    from each other state of S(h) into positive[h]. Each step finds what a
    scan of all the edges in (src, dst, h) order would find, at a cost of
    sum |S(h)| plus sorting. Link values are computed only for the witness.
    """
    rows, states = graph.rows, graph.states
    order = {s: i for i, s in enumerate(states)}
    positive = {h: [s for s, w in row.items() if w[0]] for h, row in rows.items()}
    incident: dict[str, list[str]] = {s: [] for s in states}
    for h in sorted(positive):
        for s in positive[h]:
            incident[s].append(h)

    # Breadth-first over the finite edges. The first expansion of h reaches
    # all of positive[h], so h is never expanded again, and the tree edge
    # into v is the least h (by id) it shares with u. Potentials are kept as
    # gcd-reduced integer pairs (n, d), n, d > 0.
    component: dict[str, int] = {}
    potential: dict[str, tuple[int, int]] = {}
    up: dict[str, tuple[str, str]] = {}  # v -> (h, u) of the tree edge into v
    expanded: set[str] = set()
    comp = 0
    for root in states:
        if root in component:
            continue
        component[root] = comp
        potential[root] = (1, 1)
        queue = [root]
        for u in queue:  # the queue grows while it is read
            found: dict[str, str] = {}
            for h in incident[u]:
                if h not in expanded:
                    expanded.add(h)
                    for v in positive[h]:
                        if v not in component:
                            found.setdefault(v, h)
            pn, pd = potential[u]
            for v in sorted(found, key=order.__getitem__):
                h = found[v]
                component[v] = comp
                # pot(u)/pot(v) = o(u, v|h) for the tree edge, so
                # pot(v) = pot(u)*w(v|h)/w(u|h).
                (vn, vd), (un, ud) = rows[h][v], rows[h][u]
                n, d = pn * vn * ud, pd * vd * un
                g = gcd(n, d)
                potential[v] = (n // g, d // g)
                up[v] = (h, u)
                queue.append(v)
        comp += 1

    def link(h: str, s: str, t: str) -> OddsLink:
        return OddsLink(h, s, t, _ratio(rows[h][s], rows[h][t]))

    def tree_path(frm: str, to: str) -> list[OddsLink]:
        """Links along the spanning tree from `frm` to `to` (same component)."""

        def to_root(x: str) -> list[str]:
            path = [x]
            while path[-1] in up:
                path.append(up[path[-1]][1])
            return path

        up_a, up_b = to_root(frm), to_root(to)
        common = set(up_b)
        i = next(i for i, x in enumerate(up_a) if x in common)
        j = up_b.index(up_a[i])
        return ([link(up[x][0], x, up[x][1]) for x in up_a[:i]]
                + [link(up[x][0], up[x][1], x) for x in reversed(up_b[:j])])

    # Every finite edge must agree with the potentials: pot(s)/w(s|h) is
    # constant on positive[h]. The least failing edge at h runs from its
    # head to the first state that disagrees with the head, compared as
    # pot(s)*w(head) != pot(head)*w(s) in integers.
    failing = []
    for h, pos in positive.items():
        if pos:
            w, head = rows[h], pos[0]
            (pn, pd), (wn, wd) = potential[head], w[head]
            cn, cd = pn * wd, pd * wn
            for s in pos:
                (pn, pd), (wn, wd) = potential[s], w[s]
                if pn * wd * cd != cn * pd * wn:
                    failing.append((order[head], order[s], h, head, s))
                    break
    if failing:
        *_, h, head, s = min(failing)
        return _make_violation([link(h, head, s)] + tree_path(s, head))

    # Zero edges: inside a finite component they witness a violation;
    # across components they must form a DAG on the condensation. All of
    # positive[h] is one component, so the least zero edge from s at h,
    # the one into the head of positive[h], decides both. Edges are sorted
    # as plain tuples; a link is built only for a violating edge and for
    # the first edge between two components.
    zero = ExtendedRatio.zero()
    zero_edges = sorted(
        (order[s], order[pos[0]], h, s, pos[0])
        for h, pos in positive.items() if pos
        for s, w in rows[h].items() if not w[0]
    )
    cond: dict[int, dict[int, OddsLink]] = {c: {} for c in range(comp)}
    for *_, h, s, head in zero_edges:
        ca, cb = component[s], component[head]
        if ca == cb:
            return _make_violation([OddsLink(h, s, head, zero)] + tree_path(head, s))
        if cb not in cond[ca]:
            cond[ca][cb] = OddsLink(h, s, head, zero)

    cyc, comp_levels = _condensation_walk(cond)
    if cyc is not None:
        links: list[OddsLink] = []
        for i, e in enumerate(cyc):
            nxt = cyc[(i + 1) % len(cyc)]
            links.append(e)
            if e.dst != nxt.src:
                links.extend(tree_path(e.dst, nxt.src))
        return _make_violation(links)

    levels: list[list[str]] = [[] for _ in range(max(comp_levels.values(), default=1))]
    for s in states:
        levels[comp_levels[component[s]] - 1].append(s)
    # Each level's potentials are totalled in integers over the lcm of their
    # denominators, as `consistency._bayes_rows` does; one Fraction per state.
    potentials: dict[str, Fraction] = {}
    for members in levels:
        pots = [potential[s] for s in members]
        td = lcm(*(pd for _, pd in pots))
        tn = sum(pn * (td // pd) for pn, pd in pots)
        for s, (pn, pd) in zip(members, pots):
            potentials[s] = _fraction(pn * td, pd * tn)
    return CoherenceCertificate(PlausibilityPartition(tuple(map(tuple, levels))), potentials)


def plausibility_levels(graph: CoherenceGraph) -> PlausibilityPartition:
    """The partition (P^1,...,P^n) by depth of zero-odds reachability."""
    outcome = check_coherence(graph)
    if isinstance(outcome, CoherenceViolation):
        raise PreconditionViolation("belief system is not coherent")
    return outcome.partition
