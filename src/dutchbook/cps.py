"""Complete conditional probability systems, LCPS<->CPS conversion, and the
generalized chain-rule consistency check for uniform-reach environments."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import InputError, NonUniformReach
from .model import (
    BeliefSystem,
    Distribution,
    LearningEnvironment,
    ONE,
    ZERO,
    _require_rational,
    is_uniform_reach,
    mass_of,
)
from .consistency import Lcps, require_valid_beliefs, validate_lcps

MAX_CPS_STATES = 16  # 2^16 - 1 conditioning events is the practical ceiling


@dataclass
class CompleteCps:
    """One conditional distribution per nonempty subset of states."""

    states: tuple[str, ...]
    conditionals: dict[frozenset[str], Distribution]

    def __post_init__(self):
        if len(self.states) > MAX_CPS_STATES:
            raise InputError(f"CPS limited to {MAX_CPS_STATES} states")

    def subsets(self):
        """All nonempty subsets in canonical (size-major, order-minor) order."""
        for k in range(1, len(self.states) + 1):
            yield from (frozenset(c) for c in combinations(self.states, k))


@dataclass(frozen=True)
class CpsViolation:
    c: frozenset[str]
    d: frozenset[str] | None  # None: the C row itself is not a distribution on C
    e: str | None
    lhs: Fraction
    rhs: Fraction


def validate_complete_cps(cps: CompleteCps) -> CpsViolation | None:
    """Check every row and the chain rule on all nested pairs.

    Singleton events suffice for the chain rule by additivity. Returns the
    first violation in canonical order, or None.
    """
    for c in cps.subsets():
        if c not in cps.conditionals:
            raise InputError(f"missing subset entry {sorted(c)}")
        row = cps.conditionals[c]
        for s, m in row.items():
            _require_rational(m, "row %s: non-rational mass at %r", sorted(c), s, error=InputError)
        if any(m < 0 for m in row.values()):
            return CpsViolation(c, None, None, min(row.values()), ZERO)
        if any(s not in cps.states for s in row):
            raise InputError(f"row {sorted(c)} has unknown states")
        total = sum(row.values(), ZERO)
        on_c = mass_of(row, c)
        if total != ONE or on_c != ONE:
            return CpsViolation(c, None, None, on_c, ONE)
    for c in cps.subsets():
        row_c = cps.conditionals[c]
        for k in range(1, len(c)):
            for d_tuple in combinations(sorted(c, key=cps.states.index), k):
                d = frozenset(d_tuple)
                row_d = cps.conditionals[d]
                d_mass = mass_of(row_c, d)
                for e in sorted(d, key=cps.states.index):
                    lhs = row_c.get(e, ZERO)
                    rhs = row_d.get(e, ZERO) * d_mass
                    if lhs != rhs:
                        return CpsViolation(c, d, e, lhs, rhs)
    return None


def lcps_to_cps(lcps: Lcps, states: tuple[str, ...]) -> CompleteCps:
    """Condition the first level explaining each event."""
    validate_lcps(lcps, states)
    cps = CompleteCps(states, {})
    for c in cps.subsets():
        level = lcps.levels[lcps.level_for(c)]
        total = mass_of(level, c)
        cps.conditionals[c] = {
            s: level[s] / total for s in states if s in c and level.get(s, ZERO) > 0
        }
    return cps


def cps_to_lcps(cps: CompleteCps) -> Lcps:
    """Walk the decreasing chain of never-yet-explained events."""
    violation = validate_complete_cps(cps)
    if violation is not None:
        raise InputError(f"invalid complete CPS: {violation}")
    levels: list[Distribution] = []
    current = frozenset(cps.states)
    explained: set[str] = set()
    while current:
        row = cps.conditionals[current]
        levels.append({s: m for s, m in row.items() if m > 0})
        explained |= {s for s, m in row.items() if m > 0}
        current = frozenset(s for s in cps.states if s not in explained)
    lcps = Lcps(tuple(levels))
    validate_lcps(lcps, cps.states)
    return lcps


@dataclass(frozen=True)
class SiniscalchiViolation:
    sequence: tuple[str, ...]
    event: tuple[str, ...]
    lhs: Fraction
    rhs: Fraction


def check_siniscalchi(
    env: LearningEnvironment, mu: BeliefSystem, max_len: int | None = None
) -> SiniscalchiViolation | None:
    """Generalized chain rule over sequences of distinct contingencies.

    For a sequence (h^1,...,h^n) and event E in S(h^1) & S(h^n), requires
        mu(E|h^1) * prod_m mu(S(h^m) & S(h^m+1) | h^m+1)
      = mu(E|h^n) * prod_m mu(S(h^m) & S(h^m+1) | h^m).
    Only defined on uniform-reach environments. E ranges over singletons and
    the full intersection; singletons suffice by additivity.
    """
    require_valid_beliefs(env, mu)
    if not is_uniform_reach(env):
        raise NonUniformReach("generalized chain rule requires uniform reach")
    if max_len is None:
        max_len = len(env.forest.nodes)
    if max_len < 2:
        raise InputError("max_len must be at least 2")
    contingencies = env.forest.nodes
    supports = {h: frozenset(env.consistent_states[h]) for h in contingencies}
    for n in range(2, min(max_len, len(contingencies)) + 1):
        for seq in permutations(contingencies, n):
            ends = supports[seq[0]] & supports[seq[-1]]
            if not ends:
                continue
            left_prod = right_prod = ONE
            for a, b in zip(seq, seq[1:]):
                overlap = supports[a] & supports[b]
                left_prod *= mass_of(mu[b], overlap)
                right_prod *= mass_of(mu[a], overlap)
            events = [(s,) for s in sorted(ends, key=env.state_index.get)]
            if len(ends) > 1:
                events.append(tuple(sorted(ends, key=env.state_index.get)))
            for event in events:
                lhs = mass_of(mu[seq[0]], event) * left_prod
                rhs = mass_of(mu[seq[-1]], event) * right_prod
                if lhs != rhs:
                    return SiniscalchiViolation(seq, event, lhs, rhs)
    return None
