"""Gamble systems, acceptance semantics, Dutch-book classification, and the
two constructive synthesizers."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, InternalError, PreconditionViolation, UnsupportedEnvironment
from .model import (
    BeliefSystem,
    LearningEnvironment,
    ONE,
    ZERO,
    _exact_sum,
    _require_rational,
    has_deterministic_continuation,
)
from .consistency import (
    ForwardViolation,
    check_complete_consistency,
    forward_violations,
    require_valid_beliefs,
)
from .odds import OddsLink

# A gamble system maps each contingency to a state->payoff map (missing = 0).
GambleSystem = dict[str, dict[str, Fraction]]


@dataclass(frozen=True)
class BookVerdict:
    per_state: dict[str, Fraction]  # objective expected payoff per state
    is_dutch_book: bool


@dataclass(frozen=True)
class DeterministicVerdict:
    per_path: dict[str, dict[str, Fraction]]  # state -> leaf -> realized sum
    is_deterministic_db: bool


@dataclass(frozen=True)
class AcceptanceReport:
    accepted: bool
    per_contingency: dict[str, tuple[Fraction, bool]]  # h -> (expectation, accepted)


class Synthesis(NamedTuple):
    """A synthesized book with the acceptance report and verdict verifying it."""

    book: GambleSystem
    acceptance: AcceptanceReport
    verdict: BookVerdict | DeterministicVerdict


def expected_payoff(nu: Mapping[str, Fraction], gamble: Mapping[str, Fraction]) -> Fraction:
    """Exact expectation; a non-rational mass or payoff raises DomainError."""
    total = ZERO
    for s, x in gamble.items():
        m = nu.get(s, ZERO)
        _require_rational(m, "non-rational mass at %r", s)
        _require_rational(x, "gamble pays non-rational %r on %r", x, s)
        total += m * x
    return total


def is_willing_to_accept(nu: Mapping[str, Fraction], gamble: Mapping[str, Fraction]) -> bool:
    """Positive expectation, or zero expectation with no loss on nu-null states
    (non-rational masses and payoffs are rejected as in `expected_payoff`)."""
    return _accepts(expected_payoff(nu, gamble), nu, gamble)


def _accepts(value: Fraction, nu: Mapping[str, Fraction], gamble: Mapping[str, Fraction]) -> bool:
    """The acceptance rule, given the gamble's expectation under nu."""
    if value:
        return value > 0
    return all(x >= 0 for s, x in gamble.items() if nu.get(s, ZERO) == 0)


def _check_supports(env: LearningEnvironment, g: GambleSystem) -> None:
    for h, gamble in g.items():
        env.forest.require_node(h)
        for s, x in gamble.items():
            env.require_state(s)
            _require_rational(x, "gamble at %r pays non-rational %r on %r", h, x, s)
            if x != 0 and s not in env.reach[h]:
                raise DomainError(f"gamble at {h!r} pays {x} on {s!r} outside S(h)")


def accepts_system(
    env: LearningEnvironment, mu: BeliefSystem, g: GambleSystem
) -> AcceptanceReport:
    """Per-contingency acceptance of every gamble; mu is not validated."""
    _check_supports(env, g)
    detail: dict[str, tuple[Fraction, bool]] = {}
    for h in env.forest.nodes:
        gamble = g.get(h, {})
        belief = mu[h]
        for s in gamble:
            _require_rational(belief.get(s, ZERO), "mu[%r]: non-rational mass at %r", h, s)
        value = expected_payoff(belief, gamble)
        detail[h] = (value, _accepts(value, belief, gamble))
    return AcceptanceReport(all(ok for _, ok in detail.values()), detail)


def classify_dutch_book(env: LearningEnvironment, g: GambleSystem) -> BookVerdict:
    """Objective expected payoff per state; a Dutch book never gains and
    sometimes loses."""
    _check_supports(env, g)
    per_state = dict.fromkeys(env.states, ZERO)
    for h, gamble in g.items():
        for s, x in gamble.items():
            if x:
                per_state[s] += env.reach[h][s] * x
    values = per_state.values()
    return BookVerdict(per_state, all(v <= 0 for v in values) and any(v < 0 for v in values))


def classify_deterministic(env: LearningEnvironment, g: GambleSystem) -> DeterministicVerdict:
    """Realized cumulative payoff along every consistent path of every state."""
    _check_supports(env, g)
    pays: dict[str, dict[str, Fraction]] = {s: {} for s in env.states}  # s -> h -> payoff != 0
    for h, gamble in g.items():
        for s, x in gamble.items():
            if x:
                pays[s][h] = x
    per_path: dict[str, dict[str, Fraction]] = {}
    flat: list[Fraction] = []
    for s in env.states:
        per_path[s] = {}
        paid = pays[s]
        for leaf in env.eta[s]:
            total = _exact_sum(paid[h] for h in env.forest.path(leaf) if h in paid)
            per_path[s][leaf] = total
            flat.append(total)
    verdict = all(v <= 0 for v in flat) and any(v < 0 for v in flat)
    return DeterministicVerdict(per_path, verdict)


def _orient_cycle(cycle: tuple[OddsLink, ...], product) -> tuple[OddsLink, ...]:
    """Reverse the witness cycle if its finite product exceeds 1."""
    if product.is_finite and product.value > 1:
        return tuple(link.reversed() for link in reversed(cycle))
    return cycle


def _expected_terms_book(
    env: LearningEnvironment,
    mu: BeliefSystem,
    cycle: tuple[OddsLink, ...],
    eps: Fraction,
) -> GambleSystem:
    """The telescoping gamble recursion along a witness cycle.

    Entries at a repeated contingency are summed. Uses the uniform recursion
        g(s^m | h^m) = -g(s^m-1 | h^m) * mu(s^m-1|h^m)/mu(s^m|h^m) + eps,
    which makes each cycle contingency's subjective expectation exactly
    eps * mu(s^m | h^m) > 0.
    """
    g: GambleSystem = {}

    def add(h: str, s: str, x: Fraction) -> None:
        g.setdefault(h, {})
        g[h][s] = g[h].get(s, ZERO) + x

    prev_b = None  # g(s^m-1 | h^m-1)
    for m, link in enumerate(cycle):
        h, s_prev, s_cur = link.h, link.src, link.dst
        if m == 0:
            a = Fraction(-1)
        else:
            h_last = cycle[m - 1].h
            a = -prev_b * env.reach[h_last][s_prev] / env.reach[h][s_prev] - eps
        b = -a * mu[h].get(s_prev, ZERO) / mu[h][s_cur] + eps
        add(h, s_prev, a)
        add(h, s_cur, b)
        prev_b = b
    return g


def _positive_epsilon(epsilon: Fraction) -> Fraction:
    """epsilon as a Fraction; DomainError unless it is a positive rational."""
    _require_rational(epsilon, "epsilon must be rational, not %r", epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    return Fraction(epsilon)


def synthesize_dutch_book(
    env: LearningEnvironment, mu: BeliefSystem, epsilon: Fraction = ONE
) -> GambleSystem:
    """The verified, accepted Dutch book of `dutch_book_synthesis`."""
    return dutch_book_synthesis(env, mu, epsilon).book


def dutch_book_synthesis(
    env: LearningEnvironment, mu: BeliefSystem, epsilon: Fraction = ONE
) -> Synthesis:
    """Turn a coherence violation into a verified, accepted Dutch book.

    Every book entry is affine in eps, so each state's objective expectation
    is a + eps * d: a from the book at eps = 0, d from one more classification
    at eps = 1 (a state with a = d = 0 is 0 at every eps and is left out).

    The book is a Dutch book for exactly 0 < eps <= hi = min(-a/d over d > 0).
    Proof: let link m of the oriented witness run from t_m to t_m+1 at h_m,
    with g(t_m | h_m) = a_m and g(t_m+1 | h_m) = b_m, and t_M = t_0 the
    anchor; the t_m are distinct and M >= 2. For 0 < m < M, t_m is worth
    p(h_m-1|t_m) * b_m-1 + p(h_m|t_m) * a_m = -eps * p(h_m|t_m) < 0 by the
    recursion; states off the cycle are worth 0. The anchor is worth
    -p(h_0|t_0) * (1 - r) + eps * d, r < 1 being the product or its inverse,
    and d > 0: b_0 = q_0 + eps and b_m = (rho_m * b_m-1 + eps) * q_m + eps,
    where q_m = mu(t_m|h_m)/mu(t_m+1|h_m) >= 0 and rho_m =
    p(h_m-1|t_m)/p(h_m|t_m) > 0, so b_M-1 has an eps coefficient c >= 1 and
    d = p(h_M-1|t_0) * c. So only the anchor can be positive, iff eps > hi.

    eps is the first of epsilon, epsilon/2, ... at most hi (hi <= 0 leaves none),
    in closed form as in `deterministic_synthesis`: epsilon/2^k <= hi iff
    2^k > ceil(epsilon/hi) - 1, so k is the bit length of ceil(epsilon/hi) - 1.
    Acceptance holds for every eps > 0: each cycle contingency's expectation
    is a sum of eps * mu(t_m+1 | h_m) terms, positive as the oriented witness
    has no infinite link; other contingencies get no gamble.
    """
    epsilon = _positive_epsilon(epsilon)
    result = check_complete_consistency(env, mu)
    if result.consistent:
        raise PreconditionViolation("belief system is completely consistent")
    witness = result.violation
    cycle = _orient_cycle(witness.cycle, witness.product)

    # Telescoping identity at eps = 0: the anchor's objective expectation
    # is exactly -p(h_0|t_0) * (1 - r).
    anchor, h0 = cycle[0].src, cycle[0].h
    r = ZERO
    if witness.product.is_finite:
        r = min(witness.product.value, 1 / witness.product.value)
    v0 = classify_dutch_book(env, _expected_terms_book(env, mu, cycle, ZERO)).per_state
    if v0[anchor] != -env.reach[h0][anchor] * (ONE - r):
        raise InternalError("telescoping identity failed on witness cycle")
    v1 = classify_dutch_book(env, _expected_terms_book(env, mu, cycle, ONE)).per_state

    terms = [(v0[s], v1[s] - v0[s]) for s in env.states if v0[s] or v1[s]]
    hi = min(-a / d for a, d in terms if d > 0)
    if hi <= 0:
        raise InternalError("epsilon shrinking exhausted; witness cycle is defective")
    eps = epsilon / 2 ** (math.ceil(epsilon / hi) - 1).bit_length()
    g = _expected_terms_book(env, mu, cycle, eps)
    acceptance, verdict = accepts_system(env, mu, g), classify_dutch_book(env, g)
    if not (acceptance.accepted and verdict.is_dutch_book):
        raise InternalError("telescoping book failed verification")
    return Synthesis(g, acceptance, verdict)


def _deterministic_witness_pair(
    env: LearningEnvironment,
    mu: BeliefSystem,
    violations: Iterable[ForwardViolation],
) -> tuple[str, str, str, str, Fraction, Fraction] | None:
    """Find (h, h', s, s') with both odds finite and x = odds at h strictly
    above y = odds at h', scanning the violating comparable pairs
    `violations` in order."""
    for v in violations:
        h, hp = v.h, v.h_prime
        shp = env.consistent_states[hp]
        for s in shp:
            for sp in shp:
                if s == sp:
                    continue
                if mu[hp].get(sp, ZERO) == 0 or mu[h].get(sp, ZERO) == 0:
                    continue
                x = mu[h].get(s, ZERO) / mu[h][sp]
                y = mu[hp].get(s, ZERO) / mu[hp][sp]
                if x > y:
                    return h, hp, s, sp, x, y
    return None


def synthesize_deterministic_db(
    env: LearningEnvironment, mu: BeliefSystem, epsilon: Fraction | None = None
) -> GambleSystem:
    """The verified deterministic Dutch book of `deterministic_synthesis`."""
    return deterministic_synthesis(env, mu, epsilon).book


def deterministic_synthesis(
    env: LearningEnvironment, mu: BeliefSystem, epsilon: Fraction | None = None
) -> Synthesis:
    """Two-contingency deterministic Dutch book from a conditioning failure.

    Requires deterministic continuation, so every path of a state in S(h')
    that passes h reaches h'. With odds x at h above y at h', the book is
    g(.|h) = {s: 1, s': eps/3 - x}, g(.|h') = {s: -1 - d, s': y + eps/3}
    for the first eps of epsilon, epsilon/2, ... below x - y > 0, that is
    eps = epsilon / 2^k with k the bit length of floor(epsilon / (x - y)).
    Proof: the expectation at h is mu(s'|h)*eps/3 > 0, at h' it is
    mu(s'|h')*(eps/3 - y*d), i.e. mu(s'|h')*eps*(1/3 - y^2/4) for the drag
    d = y*eps/4; so d = y*eps/4 iff 3y^2 < 4 (no rational y has 3y^2 = 4),
    else d = 0. Paths through h sum to -d <= 0 for s and to
    y - x + 2*eps/3 < 0 for s' (one exists as mu(s'|h) > 0); others to 0.
    """
    if epsilon is not None:
        epsilon = _positive_epsilon(epsilon)
    require_valid_beliefs(env, mu)
    violations = forward_violations(env, mu)
    first = next(violations, None)
    if first is None:
        raise PreconditionViolation("belief system is forward consistent")
    if not has_deterministic_continuation(env):
        raise UnsupportedEnvironment(
            "environment lacks deterministic continuation; the two-contingency "
            "construction does not yield a deterministic Dutch book here"
        )
    found = _deterministic_witness_pair(env, mu, itertools.chain([first], violations))
    if found is None:
        raise PreconditionViolation(
            "every violating orientation has an infinite odds ratio; "
            "no finite witness pair available"
        )
    h, hp, s, sp, x, y = found

    eps = epsilon if epsilon is not None else (x - y) / 2
    eps /= 2 ** (eps // (x - y)).bit_length()
    drag = y * eps / 4 if 3 * y * y < 4 else ZERO
    g: GambleSystem = {h: {s: ONE, sp: -x + eps / 3}, hp: {s: -ONE - drag, sp: y + eps / 3}}
    acceptance, verdict = accepts_system(env, mu, g), classify_deterministic(env, g)
    if not (acceptance.accepted and verdict.is_deterministic_db):
        raise InternalError("deterministic book failed verification")
    return Synthesis(g, acceptance, verdict)
