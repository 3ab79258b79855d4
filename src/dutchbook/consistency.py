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
    dist_equal,
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
    """True iff mu is exactly the belief system the LCPS induces."""
    derived = derive_beliefs(env, lcps)
    return all(dist_equal(derived[h], mu.get(h, {})) for h in env.forest.nodes)


def require_valid_beliefs(env: LearningEnvironment, mu: Mapping) -> None:
    violations = validate_belief_system(env, mu)
    if violations:
        raise InputError(f"invalid belief system: {violations[:3]}")


def extract_lcps(env: LearningEnvironment, mu: BeliefSystem) -> Lcps:
    """Build the rationalizing LCPS from a coherence certificate.

    Levels follow the plausibility partition; within a level, masses are the
    certificate potentials (already normalized to sum 1 per level).
    """
    require_valid_beliefs(env, mu)
    outcome = check_coherence(build_coherence_graph(env, mu))
    if isinstance(outcome, CoherenceViolation):
        raise PreconditionViolation("belief system is not coherent")
    return _lcps_from_certificate(outcome)


def _lcps_from_certificate(cert: CoherenceCertificate) -> Lcps:
    levels = tuple(
        {s: cert.potentials[s] for s in members} for members in cert.partition.levels
    )
    return Lcps(levels)


def check_complete_consistency(
    env: LearningEnvironment, mu: BeliefSystem
) -> ConsistencyResult:
    """Decide consistency; certificate side returns a verified LCPS."""
    require_valid_beliefs(env, mu)
    outcome = check_coherence(build_coherence_graph(env, mu))
    if isinstance(outcome, CoherenceViolation):
        return ConsistencyResult(consistent=False, violation=outcome)
    lcps = _lcps_from_certificate(outcome)
    if not verify_ccbs(env, mu, lcps):
        raise InternalError("extracted LCPS does not reproduce the belief system")
    return ConsistencyResult(consistent=True, lcps=lcps, certificate=outcome)


def check_forward_consistency(
    env: LearningEnvironment, mu: BeliefSystem
) -> ForwardViolation | None:
    """Conditioning criterion over all comparable pairs; None means consistent.

    Returns the first violation in canonical (h, h', state) order.
    """
    require_valid_beliefs(env, mu)
    return next(forward_violations(env, mu), None)


def forward_violations(env: LearningEnvironment, mu: BeliefSystem) -> Iterator[ForwardViolation]:
    """Each comparable pair (h, h') with mu(S(h')|h) > 0 whose mu(.|h') is not
    mu(.|h) conditioned on S(h'), in canonical order, witnessed by its first
    mismatching state. Beliefs are not validated."""
    for h, hp in env.forest.comparable_pairs():
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
