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
    _BeliefView,
    _fraction,
    _integer_row,
    _is_rational_type,
    _pair,
    _require_rational,
    is_uniform_reach,
    mass_of,
    require_valid_beliefs,
)
from .consistency import Lcps, validate_lcps

# 2^16 - 1 conditioning events. For the CPS of a two-level LCPS over 16
# states (best of 5 in a fresh process, CPython 3.11.7, one core of a 2-core
# x86-64 machine): `lcps_to_cps` builds it in 0.3-0.35 s, half of that in
# the cyclic garbage collector; `validate_complete_cps` and `cps_to_lcps`
# take about 0.2 s; `serialize.cps_to_doc` writes it in 0.25 s and
# `serialize.dumps` in 0.15 s; `serialize.cps_from_doc` reads it back in
# about 0.35 s, 0.2 s of it outside the collector. A CPS whose only failure
# is at S runs the pair scan through every event: 1-1.5 s.
MAX_CPS_STATES = 16


def _events(states: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], frozenset[str]]]:
    """Every nonempty event over the states in canonical order (size-major,
    then state order), as its states in state order and as its frozenset."""
    for size in range(1, len(states) + 1):
        for combo in combinations(states, size):
            yield combo, frozenset(combo)


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
        for _, c in _events(self.states):
            yield c


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
    """The first violation, or None and the CPS's LCPS.

    `_levels` reads the CPS's LCPS off the rows X_k first. Then one walk
    over the events in canonical order checks each row against
    `_conditionings` of its `Lcps._view` while every row so far is the
    conditioning of that LCPS. A row that `_is_conditioning` matches entry
    for entry is a distribution on C and needs no more. Any other row is
    checked with `_row_ints` and compared on its integer row (d, n):
    mu(e|C) * l_k(C) = l_k(e) for the e of C at level k, as
    n(e) * total = numerator(e) * d.
    Only those e are tested: when they pass, their masses sum to
    l_k(C)/l_k(C) = 1, which leaves 0 = l_k(e) for the rest of C, as the
    row is a distribution on C. When `_levels` finds no LCPS, some row X_k
    is not a distribution on its event, and the walk stops at or before it.
    Only a CPS whose rows are all distributions but not all conditionings
    reaches the pair scan."""
    states, conditionals = cps.states, cps.conditionals
    known = set(states)
    lcps = _levels(cps, known)
    conditionings = _conditionings(lcps._view, states) if lcps is not None else None
    for _, c in _events(states):
        if conditionings is not None:
            at_k, total = next(conditionings)
            if _is_conditioning(conditionals.get(c), at_k, total):
                continue
        ints = _row_ints(conditionals, c, known)
        if type(ints) is CpsViolation:
            return ints, None
        if conditionings is not None:
            d, n = ints
            if any(n.get(e, 0) * total != x * d for e, x in at_k):
                conditionings = None
    if conditionings is not None:
        return None, lcps
    # Every row is now a distribution on its event. The pair condition
    # mu(e|C) * mu(f|D) = mu(f|C) * mu(e|D) is tested on integer rows, the
    # lcms of the two rows cancelling from both sides.
    pairs = {pair: _row_ints(conditionals, frozenset(pair), known)[1]
             for pair in combinations(states, 2)}
    for combo, c in _events(states):
        # At |C| = 2 the one pair is C itself, whose condition holds trivially.
        if len(combo) < 3:
            continue
        n_c = _row_ints(conditionals, c, known)[1]
        for e, f in combinations(combo, 2):
            n_d = pairs[e, f]
            if n_c.get(e, 0) * n_d.get(f, 0) != n_c.get(f, 0) * n_d.get(e, 0):
                row_c, d = conditionals[c], frozenset((e, f))
                rhs = conditionals[d].get(e, ZERO) * mass_of(row_c, d)
                return CpsViolation(c, d, e, row_c.get(e, ZERO), rhs), None
    return None, lcps


def _is_conditioning(
    row: Distribution | None, at_k: tuple[tuple[str, int], ...], total: int
) -> bool:
    """True if the row holds exactly the states of `at_k`, each at an exact
    Fraction p/q with p * total = n * q for its numerator n: the masses
    n/total are positive and sum to 1 on C, so the row is a distribution on
    C and the conditioning there. False says nothing: `_row_ints` decides."""
    if row is None or len(row) != len(at_k):
        return False
    for e, x in at_k:
        m = row.get(e)
        if type(m) is not Fraction:
            return False
        p, q = _pair(m)
        if p * total != x * q:
            return False
    return True


def _row_ints(
    conditionals: dict[frozenset[str], Distribution], c: frozenset[str], known: set[str]
) -> tuple[int, dict[str, int]] | CpsViolation:
    """The integer row (d, n) of the row on C (`_integer_row`: d the lcm of
    its denominators, n its nonzero numerators over d, in row order), once
    it is a distribution on C: no negative n, n summing to d, and all of it
    on C; otherwise the row's violation. Raises InputError for a missing
    row, a non-rational mass or a state outside the CPS."""
    try:
        row = conditionals[c]
    except KeyError:
        raise InputError(f"missing subset entry {sorted(c)}") from None
    if not all(map(_is_rational_type, map(type, row.values()))):
        for s, m in row.items():
            _require_rational(m, "row %s: non-rational mass at %r", sorted(c), s, error=InputError)
    d, n = _integer_row(row)
    if min(n.values(), default=0) < 0:
        return CpsViolation(c, None, None, min(row.values()), ZERO)
    if not known.issuperset(row):
        raise InputError(f"row {sorted(c)} has unknown states")
    # A row on C sums to its mass on C, so only a row reaching outside C
    # is summed twice.
    if sum(n.values()) != d or (
        not c.issuperset(n) and sum([x for s, x in n.items() if s in c]) != d
    ):
        return CpsViolation(c, None, None, mass_of(row, c), ONE)
    return d, n


def _levels(cps: CompleteCps, known: set[str]) -> Lcps | None:
    """Walk the decreasing chain of never-yet-explained events X_0 = S,
    X_1, ...; level k is the positive part of mu(.|X_k). When every row
    X_k is a distribution on its event (`_row_ints`), each level explains
    at least one state, sums to 1 and lies in X_k, so every state is
    positive at exactly one level: the levels form a valid LCPS, which is
    returned. Returns None when some row X_k is not such a distribution."""
    levels: list[Distribution] = []
    current = frozenset(cps.states)
    while current:
        try:
            ints = _row_ints(cps.conditionals, current, known)
        except InputError:
            return None
        if type(ints) is CpsViolation:
            return None
        row = cps.conditionals[current]
        levels.append({s: row[s] for s in ints[1]})  # the positive masses, in row order
        current = current.difference(ints[1])
    return Lcps(tuple(levels))


def _conditionings(
    view: dict[str, tuple[int, int]], states: tuple[str, ...]
) -> Iterator[tuple[tuple[tuple[str, int], ...], int]]:
    """For each nonempty C in canonical order (as `_events`): the states of
    C at the first level k explaining C, in state order, with their
    numerators over level k's lcm (an LCPS's integer view), and the total of
    those numerators. The conditioning at C of the LCPS is then n/total at
    each of these states and 0 on the rest of C.

    Each C of size m is read off its prefix, C without its last state s,
    which the pass over size m - 1 gave: s starts a new entry if its level
    comes before the prefix's, joins it if the levels tie, and leaves it
    unchanged otherwise. So each C costs one step plus a copy of its
    entry when it grows."""
    previous: dict[tuple[str, ...], tuple] = {(): (len(states), (), 0)}
    for size in range(1, len(states) + 1):
        current: dict[tuple[str, ...], tuple] = {}
        for combo in combinations(states, size):
            s = combo[-1]
            k, x = view[s]
            entry = first = previous[combo[:-1]]
            if k < first[0]:
                entry = k, ((s, x),), x
            elif k == first[0]:
                entry = k, first[1] + ((s, x),), first[2] + x
            current[combo] = entry
            yield entry[1], entry[2]
        previous = current


def lcps_to_cps(lcps: Lcps, states: tuple[str, ...]) -> CompleteCps:
    """Condition the first level explaining each event: n/total at each
    state of `_conditionings`, in state order. Each distinct n/total is
    built once and shared by the rows that hold it."""
    validate_lcps(lcps, states)
    cps = CompleteCps(states, {})
    fractions: dict[tuple[int, int], Fraction] = {}
    for (_, c), (at_k, total) in zip(_events(states), _conditionings(lcps._view, states)):
        row = cps.conditionals[c] = {}
        for s, x in at_k:
            f = fractions.get((x, total))
            if f is None:
                f = fractions[x, total] = _fraction(x, total)
            row[s] = f
    return cps


def cps_to_lcps(cps: CompleteCps) -> Lcps:
    """The LCPS `validate_complete_cps` found, once it found no violation."""
    violation, lcps = _check(cps)
    if violation is not None:
        raise InputError(f"invalid complete CPS: {_describe(violation, cps.states)}")
    return lcps


def _describe(v: CpsViolation, states: tuple[str, ...]) -> str:
    """The violation in words, each event as its states in state order and
    each rational as p/q, so the text does not depend on string hashing."""

    def event(x: frozenset[str]) -> str:
        return "{" + ",".join(s for s in states if s in x) + "}"

    lhs, rhs = str(Fraction(v.lhs)), str(Fraction(v.rhs))
    if v.d is None and v.rhs == 0:
        return f"row {event(v.c)} has negative mass {lhs}"
    if v.d is None:
        return f"row {event(v.c)} puts mass {lhs} on its event, not 1"
    c, d = event(v.c), event(v.d)
    return f"mu({v.e}|{c}) = {lhs}, but mu({v.e}|{d}) * mu({d}|{c}) = {rhs}"


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
    that no sequence fails, and then the walk is skipped. Both read only
    the integer view that `require_valid_beliefs` returns; a Fraction is
    built only for a violation's two sides.
    """
    view = require_valid_beliefs(env, mu)
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
            to_a, to_b = _overlap_mass(view[a], o), _overlap_mass(view[b], o)
            links[a].append((b, *to_b, *to_a))
            links[b].append((a, *to_a, *to_b))
    # Every overlap is listed from both sides, so this reads every overlap mass.
    positive = all(to_b for out in links.values() for _, to_b, _, _, _ in out)
    if positive and _potentials_hold(env, view, links):
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
                    # mu(s|first) * ln/ld = mu(s|last) * rn/rd iff x * left = y * right
                    (df, nf), (dl, nl) = view[first], view[last]
                    ends[first, last] = [
                        (s, nf.get(s, 0) * dl, nl.get(s, 0) * df)
                        for s in sorted(supports[first] & supports[last], key=env.state_index.get)
                    ]
                left, right = ln * rd, rn * ld
                for s, x, y in ends[first, last]:
                    if x * left != y * right:
                        (df, nf), (dl, nl) = view[first], view[last]
                        return SiniscalchiViolation(
                            seq, (s,),
                            _fraction(nf.get(s, 0) * ln, df * ld),
                            _fraction(nl.get(s, 0) * rn, dl * rd),
                        )
    return None


def _overlap_mass(row: tuple[int, dict[str, int]], o: frozenset[str]) -> tuple[int, int]:
    """mu(O|h) in lowest terms from h's integer row (d, n): sum of n over O, over d."""
    x = sum([row[1].get(s, 0) for s in o])
    g = gcd(x, row[0])
    return x // g, row[0] // g


def _potentials_hold(
    env: LearningEnvironment, view: _BeliefView, links: dict[str, list[tuple]]
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
        dh, nh = view[h]
        for s in states:
            n, d = nh.get(s, 0) * q, dh * p
            if s not in scaled:
                scaled[s] = n, d
            elif n * scaled[s][1] != scaled[s][0] * d:
                return False
    return True
