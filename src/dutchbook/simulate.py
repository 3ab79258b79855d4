"""Monte Carlo auditor: replays a gamble system over sampled learning paths
and compares empirical means with the exact per-state expectations."""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, InputError
from .model import (
    BeliefSystem,
    Distribution,
    LearningEnvironment,
    ZERO,
    _exact_sum,
    _require_rational,
    check_distribution,
    require_valid_beliefs,
)
from .gambles import (
    GambleSystem,
    _accepts_row,
    _path_payoffs,
    classify_dutch_book,
)

_U64 = 1 << 64


@dataclass(frozen=True)
class FixedState:
    state: str


@dataclass(frozen=True)
class Prior:
    distribution: Distribution


@dataclass(frozen=True)
class SimConfig:
    rounds: int
    seed: int
    mode: FixedState | Prior

    def __post_init__(self):
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InputError(f"{name} must be an int, not {type(value).__name__}")
        if self.rounds < 1:
            raise InputError("rounds must be at least 1")


@dataclass
class StateStats:
    count: int
    empirical_mean: float
    empirical_mean_exact: Fraction
    exact_expectation: Fraction  # gated by acceptance
    exact_expectation_ungated: Fraction
    sample_std_dev: float


@dataclass
class SimReport:
    rounds: int
    seed: int
    per_state: dict[str, StateStats]


def _thresholds(masses: Iterable[tuple[str, Fraction]]) -> tuple[list[int], list[str]]:
    """Integer bounds ceil(b * 2**64) of the cumulative masses b, with their
    keys. For a 64-bit draw r and u = r / 2**64, u < b iff r < ceil(b * 2**64),
    so the first key with u < b is keys[bisect_right(bounds, r)]."""
    acc = ZERO
    bounds: list[int] = []
    keys: list[str] = []
    for k, mass in masses:
        if mass > 0:
            acc += mass
            bounds.append(-((-acc.numerator << 64) // acc.denominator))
            keys.append(k)
    # The last key takes every draw that no earlier bound catches.
    bounds[-1] = _U64
    return bounds, keys


def _squares(s: str, payoffs: list[Fraction], rounds: int) -> list[float]:
    """float(x)**2 for each path payoff x of state s, once rounds * x**2 is
    a finite float for each: then no square sum, mean or standard deviation
    of the replay overflows. DomainError otherwise."""
    try:
        squares = [float(x) ** 2 for x in payoffs]
        if math.isfinite(rounds * max(squares)):
            return squares
    except OverflowError:  # float(x), its square, or rounds itself
        pass
    raise DomainError(
        f"state {s!r}: a path payoff is too large for {rounds} rounds of float squares"
    )


def run_rounds(
    env: LearningEnvironment,
    mu: BeliefSystem,
    g: GambleSystem,
    cfg: SimConfig,
) -> SimReport:
    """Replay cfg.rounds rounds; per round, draw a state, draw a path from
    eta, and credit each accepted gamble along the path."""
    view = require_valid_beliefs(env, mu)
    exact_ungated = classify_dutch_book(env, g).per_state
    gated = {h: gamble for h, gamble in g.items() if _accepts_row(view[h][1], gamble)}
    exact_gated = classify_dutch_book(env, gated).per_state

    if isinstance(cfg.mode, FixedState):
        env.require_state(cfg.mode.state)
        tracked = (cfg.mode.state,)
        state_bounds = None
    else:
        prior = cfg.mode.distribution
        for s, mass in prior.items():
            _require_rational(mass, "prior: non-rational mass at %r", s)
        check_distribution(prior, "prior")
        for s in prior:
            env.require_state(s)
        state_bounds, tracked = _thresholds((s, prior.get(s, ZERO)) for s in env.states)

    # The gated payoff along a path depends only on (state, leaf).
    payoff = _path_payoffs(env, gated, tracked)
    # eta rows are in forest order, so paths are drawn in forest order. Per
    # tracked state: leaf thresholds, per-leaf hit counts, and float squares.
    leaves: dict[str, list[str]] = {}
    rows = {}
    for s in tracked:
        bounds, leaves[s] = _thresholds(env.eta[s].items())
        squares = _squares(s, [payoff[s][leaf] for leaf in leaves[s]], cfg.rounds)
        rows[s] = (bounds, [0] * len(bounds), squares)

    # Float addition is not associative, so the square sums are added round
    # by round, in round order; count * x**2 per leaf would round otherwise.
    sq_sums = {s: 0.0 for s in tracked}
    rng = random.Random()
    for i in range(cfg.rounds):
        # Counter-based: each round's state is derived from (seed, index)
        # alone, so rounds are order-independent and parallel-safe. Reseeding
        # one generator gives the state random.Random(f"{seed}:{i}") has.
        rng.seed(f"{cfg.seed}:{i}")
        if state_bounds is None:
            s = cfg.mode.state
        else:
            s = tracked[bisect_right(state_bounds, rng.getrandbits(64))]
        bounds, hits, squares = rows[s]
        j = bisect_right(bounds, rng.getrandbits(64))
        hits[j] += 1
        sq_sums[s] += squares[j]

    per_state: dict[str, StateStats] = {}
    for s in tracked:
        hits = rows[s][1]
        n = sum(hits)
        total = _exact_sum(c * payoff[s][leaf] for leaf, c in zip(leaves[s], hits) if c)
        mean_exact = total / n if n else ZERO
        mean = float(mean_exact)
        if n >= 2:
            var = max(0.0, (sq_sums[s] - n * mean * mean) / (n - 1))
            std = math.sqrt(var)
        else:
            std = 0.0
        per_state[s] = StateStats(n, mean, mean_exact, exact_gated[s], exact_ungated[s], std)
    return SimReport(cfg.rounds, cfg.seed, per_state)


def compare_to_exact(report: SimReport) -> dict[str, float]:
    """Deviation of each empirical mean from the exact expectation, in
    sample standard errors. States beyond the threshold are suspect."""
    deviations: dict[str, float] = {}
    for s, stats in report.per_state.items():
        if stats.count < 2:
            raise DomainError(f"state {s!r} has fewer than 2 samples")
        se = stats.sample_std_dev / math.sqrt(stats.count)
        if se == 0.0:
            exact = stats.empirical_mean_exact == stats.exact_expectation
            deviations[s] = 0.0 if exact else math.inf
        else:
            deviations[s] = abs(
                float(stats.empirical_mean_exact - stats.exact_expectation)
            ) / se
    return deviations


def flagged_states(deviations: dict[str, float], threshold: float = 4.0) -> list[str]:
    return [s for s, d in deviations.items() if d > threshold]
