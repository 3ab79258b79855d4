"""Complete-consistency checking, LCPS extraction and belief derivation,
and forward-consistency checking."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    mass_of,
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
        if any(mass.numerator < 0 for mass in level.values()):
            raise InputError(f"LCPS level {m} has negative mass")
        if _exact_sum(level.values()) != ONE:
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


def _bayes_rows(
    env: LearningEnvironment, lcps: Lcps
) -> dict[str, tuple[dict[str, tuple[int, int]], int, int]]:
    """Bayes rule at every contingency h, in node order, from the first
    level l explaining it, in integers: the weights p(h|s)*l(s) > 0 in state
    order as pairs (a, b), the lcm d of the b and n = sum of a*d/b, so that
    mu(s|h) = a*d / (b*n)."""
    validate_lcps(lcps, env.states)
    rows = {}
    for h in env.forest.nodes:
        level = lcps.levels[lcps.level_for(env.consistent_states[h])]
        weights = {}
        for s, p in env.reach[h].items():
            m = level.get(s)
            if m:
                weights[s] = p.numerator * m.numerator, p.denominator * m.denominator
        d = lcm(*(b for _, b in weights.values()))
        rows[h] = weights, d, sum(a * (d // b) for a, b in weights.values())
    return rows


def derive_beliefs(env: LearningEnvironment, lcps: Lcps) -> BeliefSystem:
    """Bayes rule at every contingency from the first level explaining it:
    one Fraction a*d / (b*n) per weight of `_bayes_rows`."""
    return {
        h: {s: Fraction(a * d, b * n) for s, (a, b) in weights.items()}
        for h, (weights, d, n) in _bayes_rows(env, lcps).items()
    }


def verify_ccbs(env: LearningEnvironment, mu: BeliefSystem, lcps: Lcps) -> bool:
    """True iff mu is exactly the belief system the LCPS induces, row for row;
    a non-rational mass in a row of the forest raises DomainError.

    Row mu(.|h) is read against the Bayes row (weights (a, b), d, n) of
    `_bayes_rows`. It matches iff it has exactly as many nonzero masses as
    there are weights, and m = mu(s|h) has m.numerator*b*n = m.denominator*a*d
    at each weight. Proof: every Bayes mass a*d/(b*n) is positive, so a
    matching row carries each one exactly, at a nonzero mass; the count then
    leaves no other nonzero mass, negative or outside S(h) included.
    """
    rows = _bayes_rows(env, lcps)
    for h in rows:
        for s, m in mu.get(h, {}).items():
            _require_rational(m, "mu[%r]: non-rational mass at %r", h, s)
    if mu.keys() != rows.keys():
        return False
    for h, (weights, d, n) in rows.items():
        row = mu[h]
        if sum(1 for m in row.values() if m) != len(weights):
            return False
        for s, (a, b) in weights.items():
            m = row.get(s, ZERO)
            if m.numerator * b * n != m.denominator * a * d:
                return False
    return True


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


def _conditioning(
    mu: BeliefSystem, h: str, hp: str, shp: tuple[str, ...]
) -> tuple[Fraction, str | None]:
    """M = mu(S(h')|h) and the first state s of S(h') with mu(s|h) other than
    mu(s|h') * M, compared by integer cross-multiplication; None when there
    is no such state or M = 0, where there is nothing to condition."""
    row_h, row_hp = mu[h], mu[hp]
    m = mass_of(row_h, shp)
    if m:
        p, q = m.numerator, m.denominator
        for s in shp:
            x, y = row_h.get(s, ZERO), row_hp.get(s, ZERO)
            if x.numerator * y.denominator * q != y.numerator * p * x.denominator:
                return m, s
    return m, None


def forward_violations(env: LearningEnvironment, mu: BeliefSystem) -> Iterator[ForwardViolation]:
    """Each comparable pair (h, h') with mu(S(h')|h) > 0 whose mu(.|h') is not
    mu(.|h) conditioned on S(h'), in canonical order, witnessed by its first
    mismatching state. Beliefs must be valid; they are not validated here.

    One pass classifies the parent-child edges; only the pairs whose first
    non-ok edge is bad are then visited (see `check_forward_consistency`).
    By its first bullet, the pairs whose first non-ok edge is a -> c are
    exactly (h, c) for h = a and for each ancestor h that ok edges join to a,
    so each bad edge is walked up from a while the edge into h is ok. Each
    such (h, c) violates at the edge's first mismatching state (third
    bullet); it is checked explicitly, like the pairs (h, d) below c.
    """
    forest, states = env.forest, env.consistent_states
    ok: set[str] = set()  # children of the ok edges
    bad: set[str] = set()  # children of the bad edges; a zero edge is in neither
    for c, a in forest.parent.items():
        m, s = _conditioning(mu, a, c, states[c])
        if m:
            (ok if s is None else bad).add(c)
    found: dict[str, list[str]] = {}  # h -> children c of the bad edges that ok edges join h to
    for c in bad:
        for h in forest.path(forest.parent[c]):
            found.setdefault(h, []).append(c)
            if h not in ok:
                break

    for h in sorted(found, key=forest.index.__getitem__):
        pairs: list[tuple[int, str]] = []  # each such c and every node below it
        below = list(found[h])
        while below:
            d = below.pop()
            pairs.append((forest.index[d], d))
            below.extend(forest.children[d])
        for _, d in sorted(pairs):
            m, s = _conditioning(mu, h, d, states[d])
            if s is not None:
                yield ForwardViolation(h, d, s, mu[h].get(s, ZERO), mu[d].get(s, ZERO) * m)
