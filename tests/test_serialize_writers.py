"""The canonical row writers against the dense writers they replaced.

Every sparse row now goes through `serialize._row_to_doc`. The `reference_*`
functions below are the earlier writers, which scanned every state for every
contingency and filtered and ordered each row themselves; on seeded
instances both must give the same `dumps` bytes.
"""
import random
import time
from collections import Counter
from fractions import Fraction

from conftest import inconsistent_beliefs, perturbable, random_environment, random_lcps

from dutchbook import (
    ContingencyForest,
    build_environment,
    check_complete_consistency,
    derive_beliefs,
    lcps_to_cps,
)
from dutchbook import serialize as sz
from dutchbook.gambles import dutch_book_synthesis
from dutchbook.model import ZERO

F = Fraction


def reference_environment_to_doc(env):
    return {
        "states": list(env.states),
        "contingencies": [
            {"id": h, "parent": env.forest.parent.get(h)} for h in env.forest.nodes
        ],
        "eta": {
            s: {leaf: sz.format_rational(mass) for leaf, mass in env.eta[s].items()}
            for s in env.states
        },
    }


def reference_beliefs_to_doc(env, mu):
    return {
        "beliefs": {
            h: {
                s: sz.format_rational(mu[h][s])
                for s in env.states
                if mu[h].get(s, ZERO) != 0
            }
            for h in env.forest.nodes
        }
    }


def reference_gambles_to_doc(env, g):
    return {
        "gambles": {
            h: {
                s: sz.format_rational(g[h][s])
                for s in env.states
                if g.get(h, {}).get(s, ZERO) != 0
            }
            for h in env.forest.nodes
            if any(v != 0 for v in g.get(h, {}).values())
        }
    }


def reference_lcps_to_doc(lcps, states):
    order = {s: i for i, s in enumerate(states)}
    return {
        "levels": [
            {
                s: sz.format_rational(level[s])
                for s in sorted(level, key=order.get)
                if level[s] != 0
            }
            for level in lcps.levels
        ]
    }


def reference_cps_to_doc(cps):
    order = {s: i for i, s in enumerate(cps.states)}
    out = {}
    for subset in cps.subsets():
        key = ",".join(sorted(subset, key=order.get))
        row = cps.conditionals[subset]
        out[key] = {
            s: sz.format_rational(row[s])
            for s in sorted(row, key=order.get)
            if row[s] != 0
        }
    return {"conditionals": out}


def reference_certificate_to_doc(cert, states):
    order = {s: i for i, s in enumerate(states)}
    return {
        "levels": [sorted(members, key=order.get) for members in cert.partition.levels],
        "potentials": {
            s: sz.format_rational(cert.potentials[s])
            for s in sorted(cert.potentials, key=order.get)
        },
    }


def shuffled(rng, row):
    """The same row with its keys in a random order."""
    items = list(row.items())
    rng.shuffle(items)
    return dict(items)


def out_of_order(row, order):
    return list(row) != sorted(row, key=order.__getitem__)


def noisy_beliefs(rng, env, mu, seen):
    """Each row padded with explicit zeros (some keyed outside the states)
    and listed in a random key order."""
    noisy = {}
    for h, row in mu.items():
        row = dict(row)
        for s in rng.sample(env.states, rng.randint(0, len(env.states))):
            row.setdefault(s, ZERO)
        if rng.random() < 0.2:
            row["not-a-state"] = ZERO if rng.random() < 0.5 else F(1, 3)
        noisy[h] = shuffled(rng, row)
        seen["belief zero"] += any(v == 0 for v in noisy[h].values())
        seen["belief out of order"] += out_of_order(
            {s: v for s, v in noisy[h].items() if s in env.state_index}, env.state_index
        )
    return noisy


def noisy_book(rng, env, book, seen):
    """A synthesized book with rows dropped, all-zero rows added and zeros
    inside kept rows; the surviving rows stay in witness-cycle order."""
    noisy = {}
    for h, row in book.items():
        seen["book cycle order"] += out_of_order(row, env.state_index)
        if rng.random() < 0.2:
            seen["book missing row"] += 1
            continue
        noisy[h] = dict(row)
        noisy[h].setdefault(rng.choice(env.states), ZERO)
    for h in env.forest.nodes:
        if h not in noisy and rng.random() < 0.3:
            noisy[h] = {s: ZERO for s in env.consistent_states[h]}
            seen["book zero row"] += 1
    return noisy


def noisy_lcps(rng, lcps, states, seen):
    """Each level padded with zeros at some other states, keys shuffled."""
    levels = []
    for level in lcps.levels:
        level = dict(level)
        for s in rng.sample(states, rng.randint(0, len(states))):
            if level.setdefault(s, ZERO) == 0:
                seen["lcps zero"] += 1
        levels.append(shuffled(rng, level))
    return type(lcps)(tuple(levels))


def assert_same_bytes(new, reference):
    assert sz.dumps(new) == sz.dumps(reference)


def test_row_writer_matches_dense_writers():
    rng = random.Random(1207)
    seen = Counter()
    for _ in range(150):
        env = random_environment(rng, max_states=6, max_nodes=10)
        assert_same_bytes(sz.environment_to_doc(env), reference_environment_to_doc(env))

        lcps = random_lcps(rng, env.states)
        mu = derive_beliefs(env, lcps)
        result = check_complete_consistency(env, mu)
        assert result.consistent
        assert_same_bytes(sz.certificate_to_doc(result.certificate, env.states),
                          reference_certificate_to_doc(result.certificate, env.states))
        seen["certificate"] += 1
        assert_same_bytes(sz.lcps_to_doc(result.lcps, env.states),
                          reference_lcps_to_doc(result.lcps, env.states))

        noisy = noisy_beliefs(rng, env, mu, seen)
        assert_same_bytes(sz.beliefs_to_doc(env, noisy), reference_beliefs_to_doc(env, noisy))

        padded = noisy_lcps(rng, lcps, env.states, seen)
        assert_same_bytes(sz.lcps_to_doc(padded, env.states),
                          reference_lcps_to_doc(padded, env.states))
        if len(env.states) <= 5:
            cps = lcps_to_cps(padded, env.states)
            assert_same_bytes(sz.cps_to_doc(cps), reference_cps_to_doc(cps))
            seen["cps"] += 1

        if perturbable(env):
            bad = inconsistent_beliefs(rng, env)
            book = noisy_book(rng, env, dutch_book_synthesis(env, bad).book, seen)
            assert_same_bytes(sz.gambles_to_doc(env, book), reference_gambles_to_doc(env, book))
            seen["book"] += 1
    kinds = ("certificate", "belief zero", "belief out of order", "lcps zero", "cps", "book",
             "book cycle order", "book missing row", "book zero row")
    assert all(seen[kind] > 0 for kind in kinds), seen


def test_gamble_row_keyed_only_outside_states_is_omitted():
    env = build_environment(["a", "b"], ContingencyForest(["h"], {}),
                            {"a": {"h": F(1)}, "b": {"h": F(1)}})
    assert sz.gambles_to_doc(env, {"h": {"z": F(1)}}) == {"gambles": {}}
    assert sz.gambles_to_doc(env, {"h": {"z": F(1), "b": F(-1)}}) == {
        "gambles": {"h": {"b": "-1"}}
    }


def test_beliefs_writer_is_sparse_at_scale():
    # 2000 states, 4000 contingencies, each state on two of them: the
    # dense writer visited 8 million (h, s) pairs here and took seconds.
    states = [f"s{i}" for i in range(2000)]
    nodes = [f"h{j}" for j in range(4000)]
    eta = {s: {nodes[2 * i]: F(1, 2), nodes[2 * i + 1]: F(1, 2)} for i, s in enumerate(states)}
    env = build_environment(states, ContingencyForest(nodes, {}), eta)
    mu = {h: {states[j // 2]: F(1)} for j, h in enumerate(nodes)}
    start = time.perf_counter()
    doc = sz.beliefs_to_doc(env, mu)
    assert time.perf_counter() - start < 0.5
    assert doc["beliefs"]["h3999"] == {"s1999": "1"}
