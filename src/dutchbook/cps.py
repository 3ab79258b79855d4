"""Complete conditional probability systems, LCPS<->CPS conversion, and the
generalized chain-rule consistency check for uniform-reach environments."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterator

from .errors import InputError, NonUniformReach
from .model import (
    BeliefSystem,
    Distribution,
    LearningEnvironment,
    ONE,
    ZERO,
    _exact_sum,
    _fraction,
    _pair,
    _require_rational,
    is_uniform_reach,
    mass_of,
    require_valid_beliefs,
)
from .consistency import Lcps, validate_lcps

# 2^16 - 1 conditioning events: validating the CPS of a two-level LCPS over
# 16 states takes 0.65-0.7 s and building it with `lcps_to_cps` about 0.8 s
# (best of 3, CPython 3.11.7, one core of a 2-core x86-64 machine).
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
    """Check every row, then the chain rule through the CPS's own LCPS.

    Returns the first violation of the full scan (every C in canonical order,
    every D strictly inside C in size-major order, every e in D in state
    order, mu(e|C) = mu(e|D) * mu(D|C)), or None. Once the row pass of
    `_check` has made every row a distribution on its event, `_levels`
    walks the never-yet-explained events X_0 = S, X_1, ... and takes each
    level l_k, the positive part of mu(.|X_k); every state is positive at
    exactly one level. For C, let k be the first level with l_k(C) > 0.
    Then the CPS satisfies the chain rule iff mu(e|C) * l_k(C) = l_k(e) for
    every e in C:
    - "If": each row is then the conditioning at C of the LCPS (l_0, l_1,
      ...). Take D inside C with levels k <= j and e in D. If l_k(D) > 0,
      then j = k and mu(e|D) * mu(D|C) = l_k(e)/l_k(D) * l_k(D)/l_k(C)
      = mu(e|C). Otherwise l_k(e) = 0, so mu(e|C) = 0 = mu(D|C).
    - "Only if": C misses the supports of l_0, ..., l_(k-1), so C lies in
      X_k, and the chain rule at (X_k, C) reads l_k(e) = mu(e|C) * l_k(C).
    This check costs sum_C |C| = n * 2^(n-1) integer cross products, so a
    valid CPS returns None from it alone. On a failure the pair scan of
    `_check` finds the first violation. Why pairs suffice:
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
    return _check(cps)[0]


def _check(cps: CompleteCps) -> tuple[CpsViolation | None, Lcps | None]:
    """The first violation, or None and the CPS's LCPS."""
    known = set(cps.states)
    for c in cps.subsets():
        if c not in cps.conditionals:
            raise InputError(f"missing subset entry {sorted(c)}")
        row = cps.conditionals[c]
        for s, m in row.items():
            if type(m) is not Fraction:
                _require_rational(
                    m, "row %s: non-rational mass at %r", sorted(c), s, error=InputError
                )
        if any(_pair(m)[0] < 0 for m in row.values()):
            return CpsViolation(c, None, None, min(row.values()), ZERO), None
        if not known.issuperset(row):
            raise InputError(f"row {sorted(c)} has unknown states")
        # A row on C sums to its mass on C, so only a row reaching outside C
        # is summed twice.
        if _exact_sum(row.values()) != ONE or (not c.issuperset(row) and mass_of(row, c) != ONE):
            return CpsViolation(c, None, None, mass_of(row, c), ONE), None
    lcps = Lcps(tuple(_levels(cps)))
    if _represents(cps, lcps):
        return None, lcps
    order = {s: i for i, s in enumerate(cps.states)}
    for c in cps.subsets():
        row_c = cps.conditionals[c]
        # At |C| = 2 the one pair is C itself, whose condition holds trivially.
        for e, f in combinations(sorted(c, key=order.get), 2):
            d = frozenset((e, f))
            me, mf, row_d = row_c.get(e, ZERO), row_c.get(f, ZERO), cps.conditionals[d]
            if me * row_d.get(f, ZERO) != mf * row_d.get(e, ZERO):
                return CpsViolation(c, d, e, me, row_d.get(e, ZERO) * mass_of(row_c, d)), None
    return None, lcps


def _levels(cps: CompleteCps) -> list[Distribution]:
    """Walk the decreasing chain of never-yet-explained events X_0 = S,
    X_1, ...; level k is the positive part of mu(.|X_k). Every row being a
    distribution on its event, each level explains at least one state, sums
    to 1 and lies in X_k, so every state is positive at exactly one level:
    the levels form a valid LCPS."""
    levels: list[Distribution] = []
    current = frozenset(cps.states)
    explained: set[str] = set()
    while current:
        level = {s: m for s, m in cps.conditionals[current].items() if m > 0}
        levels.append(level)
        explained |= level.keys()
        current = frozenset(s for s in cps.states if s not in explained)
    return levels


def _conditionings(
    lcps: Lcps, states: tuple[str, ...]
) -> Iterator[tuple[frozenset[str], list[tuple[str, int]], int]]:
    """For each nonempty C in canonical order (as `CompleteCps.subsets`):
    C, the states of C at the first level k explaining C, in state order,
    with their numerators over level k's lcm (the LCPS's integer view), and
    the total of those numerators. The conditioning at C of the LCPS is
    then n/total at each of these states and 0 on the rest of C."""
    view = lcps._view
    for size in range(1, len(states) + 1):
        for combo in combinations(states, size):
            k = min([view[s][0] for s in combo])
            at_k = [(s, view[s][1]) for s in combo if view[s][0] == k]
            yield frozenset(combo), at_k, sum([n for _, n in at_k])


def _represents(cps: CompleteCps, lcps: Lcps) -> bool:
    """True iff every row is the conditioning of the LCPS:
    mu(e|C) * l_k(C) = l_k(e) for every C and e in C, with k the first level
    with l_k(C) > 0, cross-multiplied against `_conditionings`. Only the e
    of C at level k are tested: when they pass, their masses sum to
    l_k(C)/l_k(C) = 1, which leaves 0 = l_k(e) for the rest of C, as the
    row is a distribution on C."""
    for c, at_k, total in _conditionings(lcps, cps.states):
        row = cps.conditionals[c]
        for e, n in at_k:
            a, b = _pair(row.get(e, ZERO))
            if a * total != b * n:
                return False
    return True


def lcps_to_cps(lcps: Lcps, states: tuple[str, ...]) -> CompleteCps:
    """Condition the first level explaining each event: n/total at each
    state of `_conditionings`, in state order."""
    validate_lcps(lcps, states)
    cps = CompleteCps(states, {})
    for c, at_k, total in _conditionings(lcps, states):
        cps.conditionals[c] = {s: _fraction(n, total) for s, n in at_k}
    return cps


def cps_to_lcps(cps: CompleteCps) -> Lcps:
    """The LCPS `validate_complete_cps` found, once it found no violation."""
    violation, lcps = _check(cps)
    if violation is not None:
        raise InputError(f"invalid complete CPS: {violation}")
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
    - A path whose two overlap products are both 0 gives 0 = 0, and so does
      every extension of it, so the walk does not extend it.
    - Any other E is a sum of singletons, whose equations already hold.
    When every overlap mass is positive, `_potentials_hold` may first show
    that no sequence fails, and then the walk is skipped.
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
    # s -> the contingencies h with s in S(h) that the loop below has not
    # reached yet, in node order: at a, those sharing a state with a and
    # after it. So each overlapping pair is found through a state it shares,
    # at a cost of sum_s |H(s)|^2, not intersected among all pairs.
    meets: dict[str, deque[str]] = {s: deque() for s in env.states}
    for h in contingencies:
        for s in env.consistent_states[h]:
            meets[s].append(h)
    # a -> [(b, mu(O|b), mu(O|a))] for O = S(a) & S(b) nonempty, b in node order,
    # each mass as its numerator and denominator. Each unordered pair is summed
    # once and listed from both sides; pairs come in node order, so each list
    # stays in node order.
    links: dict[str, list[tuple]] = {a: [] for a in contingencies}
    index = env.forest.index
    for a in contingencies:
        later: set[str] = set()
        for s in env.consistent_states[a]:
            hs = meets[s]
            hs.popleft()  # a itself
            later.update(hs)
        for b in sorted(later, key=index.__getitem__):
            o = supports[a] & supports[b]
            to_a, to_b = _mass(mu[a], o), _mass(mu[b], o)
            links[a].append((b, *to_b, *to_a))
            links[b].append((a, *to_a, *to_b))
    # Every overlap is listed from both sides, so this reads every overlap mass.
    positive = all(to_b for out in links.values() for _, to_b, _, _, _ in out)
    if positive and _potentials_hold(env, mu, links):
        return None
    ends: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    back = {a: out[::-1] for a, out in links.items()}
    for n in range(2, min(max_len, len(contingencies)) + 1):
        for first in contingencies:
            # (sequence, left product, right product) as integer pairs
            stack = [((first,), 1, 1, 1, 1)]
            while stack:
                seq, ln, ld, rn, rd = stack.pop()
                if len(seq) < n:
                    for b, tn, td, fn, fd in back[seq[-1]]:
                        # Both products 0: 0 = 0 here and on every extension.
                        if b not in seq and (ln * tn or rn * fn):
                            stack.append((seq + (b,), ln * tn, ld * td, rn * fn, rd * fd))
                    continue
                last = seq[-1]
                if (first, last) not in ends:
                    ends[first, last] = _end_states(
                        env, mu[first], mu[last], supports[first] & supports[last]
                    )
                left, right = ln * rd, rn * ld
                for s, x, y in ends[first, last]:
                    if x * left != y * right:
                        return SiniscalchiViolation(
                            seq, (s,),
                            mu[first].get(s, ZERO) * _fraction(ln, ld),
                            mu[last].get(s, ZERO) * _fraction(rn, rd),
                        )
    return None


def _mass(row: Distribution, keys: frozenset[str]) -> tuple[int, int]:
    return _pair(mass_of(row, keys))


def _end_states(env, row_first, row_last, ends) -> list[tuple[str, int, int]]:
    """(s, a*d, c*b) for each end state s in state order, where
    mu(s|first) = a/b and mu(s|last) = c/d."""
    out = []
    for s in sorted(ends, key=env.state_index.get):
        (a, b), (c, d) = _pair(row_first.get(s, ZERO)), _pair(row_last.get(s, ZERO))
        out.append((s, a * d, c * b))
    return out


def _potentials_hold(
    env: LearningEnvironment, mu: BeliefSystem, links: dict[str, list[tuple]]
) -> bool:
    """True only if no sequence breaks the chain rule, given links whose
    overlap masses are all positive.

    Potentials phi > 0 are spread breadth first along a spanning tree of
    each component, phi(b) = phi(a) * mu(O|b) / mu(O|a) on a tree link
    a -> b with overlap O, as gcd-reduced integer pairs phi = p/q. Suppose
    mu(s|h) = c(s) * phi(h) for every h and s in S(h), with one c(s) per
    state (the h with s in S(h) are pairwise linked, by s). Then a link's
    overlap masses are mu(O|a) = C * phi(a) and mu(O|b) = C * phi(b), with
    C the sum of c over O, so rho(a->b) = mu(O|a)/mu(O|b) = phi(a)/phi(b) on
    every link, tree or not. On a sequence (h^1, ..., h^n) both sides of the
    condition at s then equal c(s) * prod_m C_m * prod_i phi(h^i): the
    products telescope, and no sequence fails. This "if" direction is all a
    None verdict needs. Conversely, when every simple path holds, summing
    the tree path from c to d over the overlap of a non-tree link c - d
    gives rho(c->d) = phi(c)/phi(d), and tree paths then give one c(s); so
    with positive masses this check decides the rule.
    """
    phi: dict[str, tuple[int, int]] = {}
    for root in env.forest.nodes:
        if root in phi:
            continue
        phi[root] = 1, 1
        queue = [root]
        for a in queue:  # the list grows while it is read
            p, q = phi[a]
            for b, tn, td, fn, fd in links[a]:
                if b not in phi:
                    n, d = p * tn * fd, q * td * fn
                    g = gcd(n, d)
                    phi[b] = n // g, d // g
                    queue.append(b)
    scaled: dict[str, tuple[int, int]] = {}  # s -> c(s) = mu(s|h)/phi(h)
    for h, states in env.consistent_states.items():
        p, q = phi[h]
        row = mu[h]
        for s in states:
            a, b = _pair(row.get(s, ZERO))
            n, d = a * q, b * p
            if s not in scaled:
                scaled[s] = n, d
            elif n * scaled[s][1] != scaled[s][0] * d:
                return False
    return True
