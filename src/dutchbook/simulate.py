"""Monte Carlo auditor: replays a gamble system over sampled learning paths
and compares empirical means with the exact per-state expectations."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, InputError
from .model import BeliefSystem, Distribution, LearningEnvironment, ZERO, check_distribution
from .gambles import (
    GambleSystem,
    classify_deterministic,
    classify_dutch_book,
    is_willing_to_accept,
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


def _round_rng(seed: int, index: int) -> random.Random:
    # Counter-based: each round's generator is derived from (seed, index)
    # alone, so rounds are order-independent and parallel-safe.
    return random.Random(f"{seed}:{index}")


def _draw(rng: random.Random, cumulative: list[tuple[Fraction, str]]) -> str:
    u = Fraction(rng.getrandbits(64), _U64)
    for bound, key in cumulative:
        if u < bound:
            return key
    return cumulative[-1][1]


def _cumulative(masses: Iterable[tuple[str, Fraction]]) -> list[tuple[Fraction, str]]:
    acc = ZERO
    out = []
    for k, mass in masses:
        if mass > 0:
            acc += mass
            out.append((acc, k))
    return out


def run_rounds(
    env: LearningEnvironment,
    mu: BeliefSystem,
    g: GambleSystem,
    cfg: SimConfig,
) -> SimReport:
    """Replay cfg.rounds rounds; per round, draw a state, draw a path from
    eta, and credit each accepted gamble along the path."""
    exact_ungated = classify_dutch_book(env, g).per_state
    gated = {h: gamble for h, gamble in g.items() if is_willing_to_accept(mu[h], gamble)}
    exact_gated = classify_dutch_book(env, gated).per_state
    # The gated payoff along a path depends only on (state, leaf).
    payoff = classify_deterministic(env, gated).per_path

    if isinstance(cfg.mode, FixedState):
        env.require_state(cfg.mode.state)
        tracked = (cfg.mode.state,)
        state_cum = None
    else:
        check_distribution(cfg.mode.distribution, "prior")
        for s in cfg.mode.distribution:
            env.require_state(s)
        tracked = tuple(s for s in env.states if cfg.mode.distribution.get(s, ZERO) > 0)
        state_cum = _cumulative((s, cfg.mode.distribution.get(s, ZERO)) for s in env.states)

    # eta rows are in forest order, so paths are drawn in forest order.
    path_cum = {s: _cumulative(env.eta[s].items()) for s in env.states}

    counts = {s: 0 for s in tracked}
    sums = {s: ZERO for s in tracked}
    sq_sums = {s: 0.0 for s in tracked}
    for i in range(cfg.rounds):
        rng = _round_rng(cfg.seed, i)
        s = cfg.mode.state if state_cum is None else _draw(rng, state_cum)
        leaf = _draw(rng, path_cum[s])
        value = payoff[s][leaf]
        counts[s] += 1
        sums[s] += value
        sq_sums[s] += float(value) ** 2

    per_state: dict[str, StateStats] = {}
    for s in tracked:
        n = counts[s]
        mean_exact = sums[s] / n if n else ZERO
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
