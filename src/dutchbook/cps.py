"""Complete conditional probability systems, LCPS<->CPS conversion, and the
generalized chain-rule consistency check for uniform-reach environments."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, NonUniformReach
from .model import (
    BeliefSystem,
    Distribution,
    LearningEnvironment,
    ONE,
    ZERO,
    _exact_sum,
    _require_rational,
    is_uniform_reach,
    mass_of,
)
from .consistency import Lcps, require_valid_beliefs, validate_lcps

# 2^16 - 1 conditioning events: validating the CPS of a two-level LCPS over
# 16 states took 15.6 s (CPython 3.11.7, one core of a 2-core x86-64 machine).
MAX_CPS_STATES = 16


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
    """Check every row, then the chain rule on two-state events only.

    Returns the first violation of the full scan (every C in canonical order,
    every D strictly inside C in size-major order, every e in D in state
    order, mu(e|C) = mu(e|D) * mu(D|C)), or None. Why pairs suffice, once
    the first loop has made every row a distribution on its event:
    - |D| = 1 never fails, as mu(.|{e}) = {e: 1}.
    - For D = {e, f}, the e condition is mu(e|C) * mu(f|D) = mu(f|C) * mu(e|D)
      (use mu(e|D) + mu(f|D) = 1), which is also the f condition.
    - Let the pair conditions hold at C and inside some D strictly inside C;
      let m = mu(.|C), q = mu(.|D) and P = {e, f} for e, f in D. Then
      m(e) * q(f) = mu(e|P) mu(f|P) m(P) q(P) = m(f) * q(e), and summing
      over f in D gives m(e) = q(e) * m(D).
    - Every D strictly inside C precedes C in canonical (size-major) order.
      By induction, the first C with any failure is the first C with a pair
      failure, and inside C the full scan reaches the pairs (after the
      singletons) before any larger D.
    So n^2 * 2^n cross products replace the n * 3^n nested checks.
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
        total = _exact_sum(row.values())
        on_c = mass_of(row, c)
        if total != ONE or on_c != ONE:
            return CpsViolation(c, None, None, on_c, ONE)
    order = {s: i for i, s in enumerate(cps.states)}
    for c in cps.subsets():
        row_c = cps.conditionals[c]
        # At |C| = 2 the one pair is C itself, whose condition holds trivially.
        for e, f in combinations(sorted(c, key=order.get), 2):
            d = frozenset((e, f))
            me, mf, row_d = row_c.get(e, ZERO), row_c.get(f, ZERO), cps.conditionals[d]
            if me * row_d.get(f, ZERO) != mf * row_d.get(e, ZERO):
                return CpsViolation(c, d, e, me, row_d.get(e, ZERO) * mass_of(row_c, d))
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
    Only defined on uniform-reach environments. Returns the first violation
    over sequences by length, then in `permutations` order, and singleton
    events in state order; only these can fail:
    - A sequence with an empty overlap S(h^m) & S(h^m+1) gives 0 = 0, so
      only simple paths of the support-overlap graph are walked. Extending
      paths one length at a time, neighbours in node order, visits them in
      the order `permutations` lists those sequences.
    - Any other E is a sum of singletons, whose equations already hold.
    """
    require_valid_beliefs(env, mu)
    if not is_uniform_reach(env):
        raise NonUniformReach("generalized chain rule requires uniform reach")
    contingencies = env.forest.nodes
    if max_len is None:
        max_len = len(contingencies)
    elif max_len < 2:
        raise InputError("max_len must be at least 2")
    supports = {h: frozenset(env.consistent_states[h]) for h in contingencies}
    # a -> [(b, mu(O|b), mu(O|a))] for O = S(a) & S(b) nonempty, b in node order
    links = {a: [(b, mass_of(mu[b], o), mass_of(mu[a], o)) for b in contingencies
                 if b != a and (o := supports[a] & supports[b])] for a in contingencies}
    for n in range(2, min(max_len, len(contingencies)) + 1):
        for first in contingencies:
            stack = [((first,), ONE, ONE)]
            while stack:
                seq, left_prod, right_prod = stack.pop()
                if len(seq) < n:
                    stack.extend((seq + (b,), left_prod * to_b, right_prod * from_a)
                                 for b, to_b, from_a in reversed(links[seq[-1]]) if b not in seq)
                    continue
                last = seq[-1]
                for s in sorted(supports[first] & supports[last], key=env.state_index.get):
                    lhs = mu[first].get(s, ZERO) * left_prod
                    rhs = mu[last].get(s, ZERO) * right_prod
                    if lhs != rhs:
                        return SiniscalchiViolation(seq, (s,), lhs, rhs)
    return None
