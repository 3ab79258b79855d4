"""Seeded instance generators for the three workloads.

Everything here uses the benchmark's own `random.Random` and `oracle`
arithmetic; the program under test never produces an input. Probabilities
keep small common denominators so instances stay exact and cheap to write.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import ONE, ZERO, Env, bayes_beliefs, cycle_product, two_gamble_book


def weights(rng: random.Random, keys, spare: int = 12) -> dict[str, Fraction]:
    """Full-support distribution over `keys` with a common denominator."""
    keys = list(keys)
    counts = {k: 1 for k in keys}
    for _ in range(rng.randint(0, spare)):
        counts[rng.choice(keys)] += 1
    d = sum(counts.values())
    return {k: Fraction(c, d) for k, c in counts.items()}


def random_lcps(rng: random.Random, states, n_levels: int) -> list[dict[str, Fraction]]:
    """Ordered partition of the states into `n_levels` full-support levels."""
    order = list(states)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), n_levels - 1)) if n_levels > 1 else []
    bounds = [0] + cuts + [len(order)]
    return [weights(rng, order[a:b], spare=len(order[a:b])) for a, b in zip(bounds, bounds[1:])]


def filtration(env: Env, prior: dict[str, Fraction]) -> dict[str, dict[str, Fraction]]:
    mu = {}
    for h in env.nodes:
        support = env.support(h)
        total = sum((prior[s] for s in support), ZERO)
        mu[h] = {s: prior[s] / total for s in support}
    return mu


@dataclass
class Instance:
    """One generated environment with the documents and expectations the
    requests against it need. `bad` is inconsistent by construction (the
    generator checks a witness cycle of its own); `book` is the benchmark's
    own accepted Dutch book against `bad`, and `book_state` a state it
    makes lose."""

    name: str
    family: str
    env: Env
    lcps: list[dict[str, Fraction]]
    good: dict  # completely (hence forward) consistent beliefs
    bad: dict | None = None
    book: dict | None = None
    book_state: str | None = None
    extra: dict = field(default_factory=dict)


def _two_cycle(rng: random.Random, env: Env, base: dict):
    """Break `base` along a 2-cycle (h: s -> s', h': s' -> s).

    Prefer moving half of the mass of s' onto s in the one row h, where h'
    also gives both states positive mass; otherwise redraw the rows of h and
    h' at full support. Returns (beliefs, own book, s) or None.
    """
    holders: dict[tuple[str, str], list[str]] = {}
    for h in env.nodes:
        pos = [s for s in env.reach[h] if base[h].get(s, ZERO) > 0]
        for i, s in enumerate(pos):
            for sp in pos[i + 1:]:
                holders.setdefault((s, sp), []).append(h)
    shared = [pair for pair, hs in holders.items() if len(hs) >= 2]
    mu = {k: dict(row) for k, row in base.items()}
    if shared:
        s, sp = rng.choice(shared)
        h, hp = rng.sample(holders[(s, sp)], 2)
        mu[h][s], mu[h][sp] = mu[h][s] + mu[h][sp] / 2, mu[h][sp] / 2
    else:
        pairs = [(h, hp) for i, h in enumerate(env.nodes) for hp in env.nodes[i + 1:]
                 if len(env.reach[h].keys() & env.reach[hp].keys()) >= 2]
        if not pairs:
            return None
        h, hp = rng.choice(pairs)
        s, sp = rng.sample([t for t in env.reach[h] if t in env.reach[hp]], 2)
        mu[h] = weights(rng, env.support(h))
        mu[hp] = weights(rng, env.support(hp))
    if cycle_product(env, mu, [(h, s, sp), (hp, sp, s)]) == ONE:
        return None
    return mu, two_gamble_book(env, mu, h, hp, s, sp), s


def flat_instance(rng: random.Random, name: str, n: int) -> Instance:
    """|S| = n, |H| = 2n flat contingencies of 6 states each: n circulant
    windows plus n random 6-subsets, with a 2- or 3-level LCPS."""
    states = [f"s{i}" for i in range(n)]
    nodes = [f"h{j}" for j in range(2 * n)]
    members = [[states[(j + k) % n] for k in range(6)] for j in range(n)]
    members += [rng.sample(states, 6) for _ in range(n)]
    leaves_of = {s: [] for s in states}
    for h, ms in zip(nodes, members):
        for s in ms:
            leaves_of[s].append(h)
    eta = {s: weights(rng, leaves_of[s]) for s in states}
    env = Env(states, nodes, {}, eta)
    lcps = random_lcps(rng, states, rng.randint(2, 3))
    good = bayes_beliefs(env, lcps)
    bad, book, book_state = _two_cycle(rng, env, good)
    return Instance(name, "flat", env, lcps, good, bad, book, book_state)


def _binary_tree(rng: random.Random, n_leaves: int):
    nodes, parent, leaves = ["t0"], {}, ["t0"]
    while len(leaves) < n_leaves:
        split = leaves.pop(rng.randrange(len(leaves)))
        for _ in range(2):
            child = f"t{len(nodes)}"
            nodes.append(child)
            parent[child] = split
            leaves.append(child)
    return nodes, parent


def _caterpillar(depth: int):
    nodes, parent = ["c0"], {}
    for i in range(1, depth):
        nodes += [f"c{i}", f"l{i - 1}"]
        parent[f"c{i}"] = parent[f"l{i - 1}"] = f"c{i - 1}"
    return nodes, parent


def point_mass_env(nodes: list[str], parent: dict[str, str], rng: random.Random, extra: int = 0) -> Env:
    """One state per leaf, plus `extra` states dropped on random leaves."""
    leaves = [h for h in nodes if h not in set(parent.values())]
    homes = leaves + [rng.choice(leaves) for _ in range(extra)]
    states = [f"s{i}" for i in range(len(homes))]
    return Env(states, nodes, parent, {s: {leaf: ONE} for s, leaf in zip(states, homes)})


def _forward_break(rng: random.Random, env: Env, prior: dict):
    """Filtration beliefs with one non-root row re-weighted, plus the
    benchmark's own deterministic book on that row and its parent."""
    good = filtration(env, prior)
    candidates = [h for h in env.nodes if h in env.parent and len(env.reach[h]) >= 2]
    h = rng.choice(candidates)
    s, sp = rng.sample(env.support(h), 2)
    bad = {k: dict(row) for k, row in good.items()}
    bad[h] = dict(bad[h])
    bad[h][s], bad[h][sp] = bad[h][s] + bad[h][sp] / 2, bad[h][sp] / 2
    book = two_gamble_book(env, bad, env.parent[h], h, s, sp)
    return good, bad, book, s


def deep_instance(rng: random.Random, name: str, shape: str, size: int) -> Instance:
    """A binary tree with `size` leaves or a caterpillar of depth `size`,
    one state per leaf, an LCPS of |S|/2 two-state levels, filtration
    beliefs and two forward-inconsistent perturbations of them."""
    nodes, parent = _binary_tree(rng, size) if shape == "tree" else _caterpillar(size)
    env = point_mass_env(nodes, parent, rng)
    lcps = random_lcps(rng, env.states, len(env.states) // 2)
    prior = weights(rng, env.states, spare=len(env.states))
    filt, bad, book, book_state = _forward_break(rng, env, prior)
    inst = Instance(name, "deep", env, lcps, bayes_beliefs(env, lcps), bad, book, book_state)
    inst.extra["filtration"] = filt
    _, inst.extra["bad2"], inst.extra["book2"], _ = _forward_break(rng, env, prior)
    return inst


def _random_forest(rng: random.Random, max_nodes: int):
    n = rng.randint(2, max_nodes)
    nodes = [f"h{i}" for i in range(n)]
    parent = {nodes[i]: nodes[rng.randrange(i)] for i in range(1, n) if rng.random() < 0.5}
    return nodes, parent


def small_random_instance(rng: random.Random, name: str) -> Instance:
    """<= 6 states and <= 12 contingencies with random paths per state."""
    while True:
        nodes, parent = _random_forest(rng, 12)
        leaves = [h for h in nodes if h not in set(parent.values())]
        states = [f"s{i}" for i in range(rng.randint(2, 6))]
        eta = {s: weights(rng, rng.sample(leaves, rng.randint(1, len(leaves))), spare=6) for s in states}
        env = Env(states, nodes, parent, eta)
        if all(env.reach[h] for h in nodes):
            break
    lcps = random_lcps(rng, states, rng.randint(1, len(states)))
    inst = Instance(name, "small", env, lcps, bayes_beliefs(env, lcps))
    inst.extra["filtration"] = filtration(env, weights(rng, states))
    found = _two_cycle(rng, env, inst.good)
    if found:
        inst.bad, inst.book, inst.book_state = found
    return inst


def small_tree_instance(rng: random.Random, name: str) -> Instance:
    """A small point-mass tree (deterministic continuation by construction)
    with a forward-inconsistent row."""
    while True:
        n = rng.randint(3, 10)
        nodes = [f"h{i}" for i in range(n)]
        parent = {nodes[i]: nodes[rng.randrange(i)] for i in range(1, n)}
        leaves = [h for h in nodes if h not in set(parent.values())]
        if len(leaves) > 6:
            continue
        env = point_mass_env(nodes, parent, rng, extra=rng.randint(0, 6 - len(leaves)))
        if any(h in parent and len(env.reach[h]) >= 2 for h in nodes):
            break
    lcps = random_lcps(rng, env.states, rng.randint(1, len(env.states)))
    good, bad, book, book_state = _forward_break(rng, env, weights(rng, env.states))
    inst = Instance(name, "tree", env, lcps, bayes_beliefs(env, lcps), bad, book, book_state)
    inst.extra["filtration"] = good
    return inst


def ring_instance(rng: random.Random, name: str, k: int, larry: bool) -> Instance:
    """Uniform-reach rings: k states, one pair contingency per ring edge,
    and with `larry` one singleton contingency per state (the worked
    example's shape when k = 3). Every path of a state is equally likely."""
    states = [f"s{i}" for i in range(k)]
    pairs = [(f"p{i}", states[i], states[(i + 1) % k]) for i in range(k)]
    nodes = [f"o{i}" for i in range(k)] if larry else []
    nodes += [p for p, _, _ in pairs]
    paths = {s: ([f"o{i}"] if larry else []) for i, s in enumerate(states)}
    for p, a, b in pairs:
        paths[a].append(p)
        paths[b].append(p)
    eta = {s: {leaf: Fraction(1, len(ls)) for leaf in ls} for s, ls in paths.items()}
    env = Env(states, nodes, {}, eta)
    lcps = random_lcps(rng, states, rng.randint(1, 2))
    good = bayes_beliefs(env, lcps)
    witness = [(p, a, b) for p, a, b in pairs]
    while True:
        bad = dict(good)
        for p, a, b in pairs:
            bad[p] = weights(rng, [a, b], spare=4)
        if cycle_product(env, bad, witness) != ONE:
            break
    return Instance(name, "ring", env, lcps, good, bad)
