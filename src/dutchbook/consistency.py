"""Complete-consistency checking, LCPS extraction and belief derivation,
and forward-consistency checking."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator

from .errors import InputError, InternalError, PreconditionViolation
from .model import (
    BeliefSystem,
    Distribution,
    LearningEnvironment,
    _BeliefView,
    _fraction,
    _integer_row,
    _require_rational,
    require_valid_beliefs,
)
from .odds import (
    CoherenceCertificate,
    CoherenceViolation,
    build_coherence_graph,
    check_coherence,
)


class _LevelRows(dict):
    """The `_integer_row` of each level of one LCPS, keyed by level index: a
    level's row is built on its first lookup and kept, so `validate_lcps`,
    which looks a level up only once its masses are known to be rational,
    and `Lcps._view` build each level's integers once between them."""

    def __init__(self, levels: tuple[Distribution, ...]):
        super().__init__()
        self.levels = levels

    def __missing__(self, k: int) -> tuple[int, dict[str, int]]:
        row = self[k] = _integer_row(self.levels[k])
        return row


@dataclass(frozen=True)
class Lcps:
    """Ordered mutually-singular probability measures covering all states."""

    levels: tuple[Distribution, ...]

    @cached_property
    def _rows(self) -> _LevelRows:
        return _LevelRows(self.levels)

    @cached_property
    def _view(self) -> dict[str, tuple[int, int]]:
        """Each state's first level k with positive mass, and that mass as an
        integer numerator over the lcm of level k's denominators, read from
        the level's integer row."""
        view: dict[str, tuple[int, int]] = {}
        rows = self._rows
        for k in range(len(self.levels)):
            for s, x in rows[k][1].items():
                if x > 0:
                    view.setdefault(s, (k, x))
        return view

    def level_for(self, states: tuple[str, ...] | frozenset[str]) -> int:
        """Index of the first level putting positive mass on the event
        (levels have no negative mass once `validate_lcps` passed)."""
        view = self._view
        hits = [view[s][0] for s in states if s in view]
        if not hits:
            raise InternalError(f"no level explains event {sorted(states)}")
        return min(hits)


def validate_lcps(lcps: Lcps, states: tuple[str, ...]) -> None:
    """Raise InputError unless the LCPS is valid on the states: every level
    a distribution on known states, checked on its `_integer_row` (d, n) as
    no negative numerator and numerators summing to d, and every state
    positive at exactly one level."""
    if not lcps.levels:
        raise InputError("LCPS has no levels")
    known = set(states)
    positive: Counter[str] = Counter()
    for m, level in enumerate(lcps.levels):
        bad = [s for s in level if s not in known]
        if bad:
            raise InputError(f"LCPS level {m} has unknown states {bad}")
        for s, mass in level.items():
            _require_rational(
                mass, "LCPS level %d: non-rational mass at %r", m, s, error=InputError
            )
        d, n = lcps._rows[m]
        if min(n.values(), default=0) < 0:
            raise InputError(f"LCPS level {m} has negative mass")
        if sum(n.values()) != d:
            raise InputError(f"LCPS level {m} does not sum to 1")
        positive.update(n.keys())  # every nonzero numerator is positive here
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
    level l explaining it, the least level of a state of S(h), in integers:
    for each s with p(h|s) = p/q in lowest terms (the slots of its exact
    Fraction) and p*l(s) > 0, in state order, the
    weight (a, b) = (p*N, q), where l(s) = N/L in the LCPS's integer view,
    so that a/b = L*p(h|s)*l(s); the lcm d of the b; and n = sum of a*d/b.
    Then mu(s|h) = a*d / (b*n), as the common factor L cancels."""
    validate_lcps(lcps, env.states)
    view = lcps._view
    level = {s: k for s, (k, _) in view.items()}
    rows = {}
    for h in env.forest.nodes:
        k = min(map(level.__getitem__, env.reach[h]))
        weights, d = {}, 1
        for s, r in env.reach[h].items():
            j, m = view[s]
            if j == k:
                weights[s] = r._numerator * m, r._denominator
                d = lcm(d, r._denominator)
        rows[h] = weights, d, sum([a * (d // b) for a, b in weights.values()])
    return rows


def derive_beliefs(env: LearningEnvironment, lcps: Lcps) -> BeliefSystem:
    """Bayes rule at every contingency from the first level explaining it:
    one Fraction a*d / (b*n) per weight of `_bayes_rows`."""
    return {
        h: {s: _fraction(a * d, b * n) for s, (a, b) in weights.items()}
        for h, (weights, d, n) in _bayes_rows(env, lcps).items()
    }


def verify_ccbs(env: LearningEnvironment, mu: BeliefSystem, lcps: Lcps) -> bool:
    """True iff mu is exactly the belief system the LCPS induces, row for row.
    mu is a belief system, where a non-rational mass in a row of the forest
    raises DomainError, or the integer view `require_valid_beliefs` made of
    one.

    Row h of the view, (d, n) with n the nonzero masses times d, is read
    against the Bayes row (weights (a, b), d', n') of `_bayes_rows`. It
    matches iff n has exactly as many entries as there are weights, and
    n(s)*b*n' = d*a*d' at each weight. Proof: every Bayes mass a*d'/(b*n')
    is positive, so a matching row carries each one exactly, at a nonzero
    mass; the count then leaves no other nonzero mass, negative or outside
    S(h) included.
    """
    rows = _bayes_rows(env, lcps)
    if not isinstance(mu, _BeliefView):
        for h in rows:
            for s, m in mu.get(h, {}).items():
                _require_rational(m, "mu[%r]: non-rational mass at %r", h, s)
        if mu.keys() != rows.keys():
            return False
        mu = {h: _integer_row(mu[h]) for h in rows}
    for h, (weights, dd, total) in rows.items():
        d, n = mu[h]
        if len(n) != len(weights):
            return False
        for s, (a, b) in weights.items():
            if n.get(s, 0) * b * total != d * a * dd:
                return False
    return True


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
    view = require_valid_beliefs(env, mu)
    outcome = check_coherence(build_coherence_graph(env, view))
    if isinstance(outcome, CoherenceViolation):
        return ConsistencyResult(consistent=False, violation=outcome)
    levels = outcome.partition.levels
    lcps = Lcps(tuple({s: outcome.potentials[s] for s in members} for members in levels))
    lcps._rows.update(enumerate(outcome.level_rows))  # the levels' `_integer_row`s
    if not verify_ccbs(env, view, lcps):
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
    return next(forward_violations(env, require_valid_beliefs(env, mu)), None)


def forward_violations(env: LearningEnvironment, view: _BeliefView) -> Iterator[ForwardViolation]:
    """Each comparable pair (h, h') with mu(S(h')|h) > 0 whose mu(.|h') is not
    mu(.|h) conditioned on S(h'), in canonical order, witnessed by its first
    mismatching state. The caller validates the beliefs: `view` is the
    integer view `require_valid_beliefs` returned.

    Pairs are compared on the integer view: with rows (d, n) at h and
    (d', n') at h', M = sum of n(s) over S(h') is mu(S(h')|h) times d, and
    mu(s|h) = mu(s|h') * mu(S(h')|h) iff n(s)*d' = n'(s)*M. A Fraction is
    built only for a witness's two sides, n(s)/d and n'(s)*M/(d'*d).

    One pass classifies the parent-child edges; only the pairs whose first
    non-ok edge is bad are then visited (see `check_forward_consistency`).
    By its first bullet, the pairs whose first non-ok edge is a -> c are
    exactly (h, c) for h = a and for each ancestor h that ok edges join to a,
    so each bad edge is walked up from a while the edge into h is ok. Each
    such (h, c) violates at the edge's first mismatching state (third
    bullet); it is checked explicitly, like the pairs (h, d) below c.
    """
    forest, states = env.forest, env.consistent_states

    def conditioning(h: str, hp: str) -> tuple[int, str | None]:
        """M, and the first state of S(h') where n(s)*d' != n'(s)*M; None
        when there is none or M = 0, where there is nothing to condition."""
        (_, n), (dp, np_) = view[h], view[hp]
        shp = states[hp]
        m = sum([n.get(s, 0) for s in shp])
        if m:
            for s in shp:
                if n.get(s, 0) * dp != np_.get(s, 0) * m:
                    return m, s
        return m, None

    ok: set[str] = set()  # children of the ok edges
    bad: set[str] = set()  # children of the bad edges; a zero edge is in neither
    for c, a in forest.parent.items():
        m, s = conditioning(a, c)
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
        dh, nh = view[h]
        for _, d in sorted(pairs):
            m, s = conditioning(h, d)
            if s is not None:
                dd, nd = view[d]
                yield ForwardViolation(
                    h, d, s, _fraction(nh.get(s, 0), dh), _fraction(nd.get(s, 0) * m, dd * dh)
                )
