"""Complete-consistency checking, LCPS extraction and belief derivation,
and forward-consistency checking."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping

from .errors import InputError, InternalError, PreconditionViolation
from .model import (
    BeliefSystem,
    Distribution,
    LearningEnvironment,
    ONE,
    ZERO,
    _exact_sum,
    _require_rational,
    dist_equal,
    validate_belief_system,
)
from .odds import (
    CoherenceCertificate,
    CoherenceViolation,
    build_coherence_graph,
    check_coherence,
)


@dataclass(frozen=True)
class Lcps:
    """Ordered mutually-singular probability measures covering all states."""

    levels: tuple[Distribution, ...]

    @cached_property
    def _first_level(self) -> dict[str, int]:
        """Each state's first level with positive mass."""
        first: dict[str, int] = {}
        for m, level in enumerate(self.levels):
            for s, mass in level.items():
                if mass > 0:
                    first.setdefault(s, m)
        return first

    def level_for(self, states: tuple[str, ...] | frozenset[str]) -> int:
        """Index of the first level putting positive mass on the event
        (levels have no negative mass once `validate_lcps` passed)."""
        hits = [self._first_level[s] for s in states if s in self._first_level]
        if not hits:
            raise InternalError(f"no level explains event {sorted(states)}")
        return min(hits)


def validate_lcps(lcps: Lcps, states: tuple[str, ...]) -> None:
    if not lcps.levels:
        raise InputError("LCPS has no levels")
    known = set(states)
    for m, level in enumerate(lcps.levels):
        bad = [s for s in level if s not in known]
        if bad:
            raise InputError(f"LCPS level {m} has unknown states {bad}")
        for s, mass in level.items():
            _require_rational(
                mass, "LCPS level %d: non-rational mass at %r", m, s, error=InputError
            )
        if any(mass < 0 for mass in level.values()):
            raise InputError(f"LCPS level {m} has negative mass")
        if sum(level.values(), ZERO) != ONE:
            raise InputError(f"LCPS level {m} does not sum to 1")
    positive = Counter(s for level in lcps.levels for s, mass in level.items() if mass > 0)
    for s in states:
        hits = positive[s]
        if hits != 1:
            raise InputError(f"state {s!r} is positive at {hits} levels, expected 1")


@dataclass(frozen=True)
class ForwardViolation:
    """Witness that mu(.|h') is not the conditioning of mu(.|h)."""

    h: str
    h_prime: str
    s: str
    lhs: Fraction  # mu(s|h)
    rhs: Fraction  # mu(s|h') * mu(S(h')|h)


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    lcps: Lcps | None = None
    certificate: CoherenceCertificate | None = None
    violation: CoherenceViolation | None = None


def derive_beliefs(env: LearningEnvironment, lcps: Lcps) -> BeliefSystem:
    """Bayes rule at every contingency from the first level explaining it."""
    validate_lcps(lcps, env.states)
    beliefs: BeliefSystem = {}
    for h in env.forest.nodes:
        reach = env.reach[h]
        level = lcps.levels[lcps.level_for(env.consistent_states[h])]
        weights = {s: p * level.get(s, ZERO) for s, p in reach.items()}
        total = sum(weights.values(), ZERO)
        beliefs[h] = {s: w / total for s, w in weights.items() if w > 0}
    return beliefs


def verify_ccbs(env: LearningEnvironment, mu: BeliefSystem, lcps: Lcps) -> bool:
    """True iff mu is exactly the belief system the LCPS induces, row for row;
    a non-rational mass in a row of the forest raises DomainError."""
    derived = derive_beliefs(env, lcps)
    for h in derived:
        for s, m in mu.get(h, {}).items():
            if type(m) is not Fraction:
                _require_rational(m, "mu[%r]: non-rational mass at %r", h, s)
    same_rows = mu.keys() == derived.keys()
    return same_rows and all(dist_equal(row, mu[h]) for h, row in derived.items())


def require_valid_beliefs(env: LearningEnvironment, mu: Mapping) -> None:
    violations = validate_belief_system(env, mu)
    if violations:
        raise InputError(f"invalid belief system: {violations[:3]}")


def extract_lcps(env: LearningEnvironment, mu: BeliefSystem) -> Lcps:
    """The verified rationalizing LCPS of `check_complete_consistency`."""
    result = check_complete_consistency(env, mu)
    if not result.consistent:
        raise PreconditionViolation("belief system is not coherent")
    return result.lcps


def check_complete_consistency(
    env: LearningEnvironment, mu: BeliefSystem
) -> ConsistencyResult:
    """Decide consistency; certificate side returns a verified LCPS.

    Its levels follow the plausibility partition; within a level, masses are
    the certificate potentials (already normalized to sum 1 per level).
    """
    require_valid_beliefs(env, mu)
    outcome = check_coherence(build_coherence_graph(env, mu))
    if isinstance(outcome, CoherenceViolation):
        return ConsistencyResult(consistent=False, violation=outcome)
    levels = outcome.partition.levels
    lcps = Lcps(tuple({s: outcome.potentials[s] for s in members} for members in levels))
    if not verify_ccbs(env, mu, lcps):
        raise InternalError("extracted LCPS does not reproduce the belief system")
    return ConsistencyResult(consistent=True, lcps=lcps, certificate=outcome)


def check_forward_consistency(
    env: LearningEnvironment, mu: BeliefSystem
) -> ForwardViolation | None:
    """Conditioning criterion over all comparable pairs; None means consistent.

    Returns the first violation in canonical (h, h', state) order.

    `forward_violations` decides this from the parent-child edges. Call an
    edge a -> c ok when M(c) = mu(S(c)|a) > 0 and mu(s|a) = mu(s|c)*M(c) for
    every s in S(c); zero when M(c) = 0; bad otherwise. For valid beliefs and
    a descendant d of h, take the chain h = x0 -> x1 -> ... -> xk = d; every
    S(x_j+1) is a subset of S(x_j).
    - All edges ok: by induction on k, mu(s|h) = mu(s|d) * M(x1)...M(xk) on
      S(d); summing over S(d), where mu(.|d) has all its mass, gives
      mu(S(d)|h) = M(x1)...M(xk) > 0, so the pair (h, d) is consistent.
    - The first non-ok edge x_j -> x_j+1 is zero: on S(x_j+1), mu(.|h) is
      mu(.|x_j) scaled by M(x1)...M(xj), so mu(S(x_j+1)|h) = 0, and with
      non-negative masses mu(S(d)|h) = 0: the pair is skipped.
    - It is bad: with P = M(x1)...M(xj) > 0, mu(S(x_j+1)|h) = P * M(x_j+1) > 0
      and, for s in S(x_j+1), mu(s|h) = mu(s|x_j+1) * mu(S(x_j+1)|h) iff
      mu(s|x_j) = mu(s|x_j+1) * M(x_j+1). So (h, x_j+1) violates, first at
      the edge's own first mismatching state; a pair (h, d) below x_j+1 is
      decided by the explicit conditioning check.
    Only pairs of the last kind can be yielded, so a system without bad
    edges is consistent after one pass costing sum |S(c)| over the edges.
    """
    require_valid_beliefs(env, mu)
    return next(forward_violations(env, mu), None)


def _pair_violation(
    mu: BeliefSystem, h: str, hp: str, shp: tuple[str, ...]
) -> ForwardViolation | None:
    """The explicit conditioning check of mu(.|hp) against mu(.|h) on S(hp)."""
    event_mass = _exact_sum(mu[h].get(s, ZERO) for s in shp)
    if event_mass == 0:
        return None
    for s in shp:
        lhs = mu[h].get(s, ZERO)
        rhs = mu[hp].get(s, ZERO) * event_mass
        if lhs != rhs:
            return ForwardViolation(h, hp, s, lhs, rhs)
    return None


def forward_violations(env: LearningEnvironment, mu: BeliefSystem) -> Iterator[ForwardViolation]:
    """Each comparable pair (h, h') with mu(S(h')|h) > 0 whose mu(.|h') is not
    mu(.|h) conditioned on S(h'), in canonical order, witnessed by its first
    mismatching state. Beliefs must be valid; they are not validated here.

    One pass classifies the parent-child edges; only the pairs whose first
    non-ok edge is bad are then visited (see `check_forward_consistency`).
    """
    forest, states = env.forest, env.consistent_states
    mass: dict[str, Fraction] = {}  # child c -> mu(S(c)|parent)
    bad: dict[str, str] = {}  # child of a bad edge -> its first mismatching state
    for c, a in forest.parent.items():
        row_a, row_c = mu[a], mu[c]
        m = mass[c] = _exact_sum(row_a.get(s, ZERO) for s in states[c])
        if m:
            p, q = m.numerator, m.denominator
            for s in states[c]:
                # mu(s|a) == mu(s|c) * m, cross-multiplied
                x, y = row_a.get(s, ZERO), row_c.get(s, ZERO)
                if x.numerator * y.denominator * q != y.numerator * p * x.denominator:
                    bad[c] = s
                    break
    if not bad:
        return

    # Nodes with an all-ok path down to the parent of a bad edge.
    hot: set[str] = set()
    for c in bad:
        a = forest.parent[c]
        while a not in hot:
            hot.add(a)
            if a in bad or not mass.get(a):  # a root, or a bad or zero edge into a
                break
            a = forest.parent[a]

    for h in forest.nodes:
        if h not in hot:
            continue
        found: list[tuple[int, str, ForwardViolation | None]] = []  # None: check explicitly
        stack = [(h, ONE)]  # (node, mu(S(node)|h)) along all-ok chains
        while stack:
            a, m = stack.pop()
            for c in forest.children[a]:
                if c in bad:
                    s, mc = bad[c], m * mass[c]
                    v = ForwardViolation(h, c, s, mu[h].get(s, ZERO), mu[c].get(s, ZERO) * mc)
                    found.append((forest.index[c], c, v))
                    below = list(forest.children[c])
                    while below:
                        d = below.pop()
                        found.append((forest.index[d], d, None))
                        below.extend(forest.children[d])
                elif mass[c] and c in hot:
                    stack.append((c, m * mass[c]))
        found.sort(key=lambda item: item[0])
        for _, d, v in found:
            if v is None:
                v = _pair_violation(mu, h, d, states[d])
            if v is not None:
                yield v
