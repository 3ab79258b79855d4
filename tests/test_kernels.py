"""Differentials of the integer kernels against the `Fraction` code they
replaced: `_exact_sum`, `derive_beliefs`, `verify_ccbs`, the weight rows,
potentials and failing-edge test of `check_coherence`, and
`classify_deterministic`."""
import random
from fractions import Fraction

import pytest

from dutchbook import (
    ContingencyForest,
    Lcps,
    build_coherence_graph,
    build_environment,
    check_coherence,
    classify_deterministic,
    derive_beliefs,
    extract_lcps,
    validate_lcps,
    verify_ccbs,
)
from dutchbook import fixtures as fx
from dutchbook.errors import InvalidEnvironment
from dutchbook.model import ONE, ZERO, _exact_sum, _require_rational
from dutchbook.odds import CoherenceViolation

from conftest import chain, random_environment, random_lcps, weights
from test_odds import ReferenceAnalysis, coherence_instances, reference_edges

F = Fraction


# ------------------------------------------------------------------ exact sum

class TestExactSum:
    def test_empty(self):
        total = _exact_sum([])
        assert type(total) is Fraction and total == 0

    def test_ints_and_coprime_denominators_above_2_64(self):
        big = [2**89 - 1, 2**107 - 1, 2**127 - 1]  # Mersenne primes
        values = [3, -5, F(7, big[0]), F(-2, big[1]), F(big[2] + 1, big[2]), F(1, 2**70)]
        assert _exact_sum(values) == sum(values, F(0))
        assert _exact_sum(iter(values)) == sum(values, F(0))

    def test_matches_fraction_sum(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        denominators = st.one_of(
            st.integers(1, 30),
            st.integers(2**64, 2**80),
            st.sampled_from([2**61 - 1, 2**89 - 1, 2**107 - 1]),
        )
        rationals = st.one_of(
            st.integers(-(2**70), 2**70),
            st.builds(F, st.integers(-(2**70), 2**70), denominators),
        )

        @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
        @hypothesis.given(st.lists(rationals, max_size=12))
        def check(values):
            total = _exact_sum(values)
            assert type(total) is Fraction
            assert total == sum(values, F(0))

        check()


# ------------------------------------------------ Bayes rule and its checking
# Reference implementation: the Fraction code the integer kernels replaced.
# `derive_beliefs` built a product, a running sum and a quotient per belief;
# `verify_ccbs` derived every row and compared it with mu, missing keys as 0.

def reference_derive_beliefs(env, lcps):
    validate_lcps(lcps, env.states)
    beliefs = {}
    for h in env.forest.nodes:
        reach = env.reach[h]
        level = lcps.levels[lcps.level_for(env.consistent_states[h])]
        row = {s: p * level.get(s, ZERO) for s, p in reach.items()}
        total = sum(row.values(), ZERO)
        beliefs[h] = {s: w / total for s, w in row.items() if w > 0}
    return beliefs


def reference_verify_ccbs(env, mu, lcps):
    derived = reference_derive_beliefs(env, lcps)
    for h in derived:
        for s, m in mu.get(h, {}).items():
            _require_rational(m, "mu[%r]: non-rational mass at %r", h, s)
    if mu.keys() != derived.keys():
        return False
    return all(
        row.get(s, ZERO) == mu[h].get(s, ZERO)
        for h, row in derived.items()
        for s in set(row) | set(mu[h])
    )


def outcome(f, *args):
    """f's value, or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def wide_environment(rng):
    """A random environment with more states and large, coprime path masses."""
    while True:
        n = rng.randint(2, 10)
        nodes = [f"h{i}" for i in range(n)]
        parent = {nodes[i]: nodes[rng.randrange(i)] for i in range(1, n) if rng.random() < 0.6}
        forest = ContingencyForest(nodes, parent)
        states = [f"s{i}" for i in range(rng.randint(1, 9))]
        eta = {}
        for s in states:
            leaves = rng.sample(forest.leaves, rng.randint(1, len(forest.leaves)))
            raw = {leaf: rng.randint(1, 10**12) for leaf in leaves}
            total = sum(raw.values())
            eta[s] = {leaf: F(k, total) for leaf, k in raw.items()}
        try:
            return build_environment(states, forest, eta)
        except InvalidEnvironment:
            continue


def perturbations(rng, env, mu):
    """Named variants of a belief system that the LCPS induces."""
    nodes = env.forest.nodes
    h = rng.choice(nodes)
    row, reach = mu[h], env.reach[h]
    yield "as derived", mu
    yield "row scaled by 2", {**mu, h: {s: 2 * m for s, m in row.items()}}
    outside = [s for s in env.states if s not in reach]
    if outside:
        t = rng.choice(outside)
        s, m = next(iter(row.items()))
        moved = {**row, s: m / 2, t: m / 2}
        yield "mass moved outside S(h)", {**mu, h: moved}
        yield "explicit zero outside S(h)", {**mu, h: {**row, t: ZERO}}
    zeros = [s for s in reach if s not in row]
    if zeros:
        yield "explicit zero inside S(h)", {**mu, h: {**row, rng.choice(zeros): ZERO}}
        t = rng.choice(zeros)  # a state of S(h) where l(s) = 0
        s, m = next(iter(row.items()))
        yield "mass moved onto l(s) = 0 inside S(h)", {**mu, h: {**row, s: m / 2, t: m / 2}}
        yield "a Bayes mass moved onto l(s) = 0", {**mu, h: {**row, s: ZERO, t: m}}
    yield "missing row", {k: v for k, v in mu.items() if k != h}
    yield "extra row", {**mu, "zz": {env.states[0]: ONE}}
    if len(reach) >= 2:
        a, b = rng.sample(list(reach), 2)
        shifted = {**row, a: row.get(a, ZERO) + 2, b: row.get(b, ZERO) - 2}
        yield "negative entry", {**mu, h: shifted}
    if len(row) >= 2:
        a, b = rng.sample(list(row), 2)
        yield "two masses swapped", {**mu, h: {**row, a: row[b], b: row[a]}}


class TestDeriveBeliefsMatchesReference:
    def test_same_rows_in_the_same_key_order(self):
        rng = random.Random(0xBA7E)
        for i in range(600):
            env = (random_environment, wide_environment)[i % 2](rng)
            lcps = random_lcps(rng, env.states)
            got, want = derive_beliefs(env, lcps), reference_derive_beliefs(env, lcps)
            assert list(got) == list(want)
            for h in want:
                assert list(got[h].items()) == list(want[h].items())
                assert all(type(m) is Fraction for m in got[h].values())

    def test_errors_match_reference(self):
        env = fx.larry_environment()
        bad = [
            Lcps(()),
            Lcps(({"sq": 0.5, "ma": 0.25, "pa": 0.25},)),
            Lcps(({"sq": F(1)},)),
            Lcps(({"sq": F(3, 2), "ma": F(-1, 2), "pa": F(0)},)),
        ]
        for lcps in bad:
            assert outcome(derive_beliefs, env, lcps) == outcome(reference_derive_beliefs, env, lcps)
            assert isinstance(outcome(derive_beliefs, env, lcps), tuple)


class TestVerifyCcbsMatchesReference:
    def test_seeded_coherence_instances_in_both_directions(self):
        rng = random.Random(0xCCB5)
        seen = {True: 0, False: 0}
        for env, mu in coherence_instances(0x7E57, 300):
            candidates = [random_lcps(rng, env.states)]
            if not isinstance(check_coherence(build_coherence_graph(env, mu)), CoherenceViolation):
                candidates.append(extract_lcps(env, mu))
            for lcps in candidates:
                got = verify_ccbs(env, mu, lcps)
                assert got == reference_verify_ccbs(env, mu, lcps)
                seen[got] += 1
        assert seen[True] >= 100 and seen[False] >= 100, seen

    def test_perturbed_beliefs(self):
        rng = random.Random(0xF00D)
        seen = {}
        for i in range(400):
            env = (random_environment, wide_environment)[i % 2](rng)
            lcps = random_lcps(rng, env.states)
            mu = derive_beliefs(env, lcps)
            for name, variant in perturbations(rng, env, mu):
                got = verify_ccbs(env, variant, lcps)
                assert got == reference_verify_ccbs(env, variant, lcps), name
                seen.setdefault(name, set()).add(got)
        assert seen["as derived"] == {True}
        assert seen["explicit zero outside S(h)"] == {True}
        assert seen["explicit zero inside S(h)"] == {True}
        for name in ("row scaled by 2", "mass moved outside S(h)", "missing row", "extra row",
                     "negative entry"):
            assert seen[name] == {False}, name

    def test_support_rule_rejects_mass_where_the_level_is_zero(self):
        # Moving a whole Bayes mass keeps the count of nonzero masses, so only
        # the per-weight test can reject it.
        rng = random.Random(0x5EED)
        names = ("mass moved onto l(s) = 0 inside S(h)", "a Bayes mass moved onto l(s) = 0")
        seen = {name: 0 for name in names}
        for i in range(200):
            env = (random_environment, wide_environment)[i % 2](rng)
            lcps = random_lcps(rng, env.states)
            for name, variant in perturbations(rng, env, derive_beliefs(env, lcps)):
                if name in seen:
                    assert verify_ccbs(env, variant, lcps) is False, name
                    seen[name] += 1
        assert min(seen.values()) >= 20, seen

    def test_float_mass_and_bad_lcps_raise_as_the_reference(self):
        env, good = fx.larry_environment(), fx.uniform_beliefs()
        lcps = extract_lcps(env, good)
        floats = {**good, "mp": {"ma": 0.5, "pa": 0.5}}
        later_float = {**good, "ps": {"pa": F(1, 2), "sq": 0.5}}
        bad_lcps = [Lcps(({"sq": 0.5, "ma": 0.25, "pa": 0.25},)), Lcps(({"sq": F(1)},)),
                    Lcps(({"sq": F(1, 2), "ma": F(1, 2)}, {"ma": F(1), "pa": F(0)}))]
        cases = [(floats, lcps), (later_float, lcps)]
        cases += [(mu, bad) for bad in bad_lcps for mu in (good, floats)]
        for mu, levels in cases:
            got = outcome(verify_ccbs, env, mu, levels)
            assert isinstance(got, tuple), got
            assert got == outcome(reference_verify_ccbs, env, mu, levels)


# ------------------------------------------------------- failing-edge test
# Reference: the breadth-first potentials of `check_coherence` with the
# failing-edge test it had before, pot(s)/w(s|h) compared by Fraction division.

def reference_failing_edge(graph):
    weights, states = graph.weights, graph.states
    order = {s: i for i, s in enumerate(states)}
    positive = {h: [s for s, w in row.items() if w] for h, row in weights.items()}
    incident = {s: [] for s in states}
    for h in sorted(positive):
        for s in positive[h]:
            incident[s].append(h)
    potential, expanded = {}, set()
    for root in states:
        if root in potential:
            continue
        potential[root] = ONE
        queue = [root]
        for u in queue:
            found = {}
            for h in incident[u]:
                if h not in expanded:
                    expanded.add(h)
                    for v in positive[h]:
                        if v not in potential:
                            found.setdefault(v, h)
            for v in sorted(found, key=order.__getitem__):
                h = found[v]
                potential[v] = potential[u] * weights[h][v] / weights[h][u]
                queue.append(v)
    failing = []
    for h, pos in positive.items():
        if pos:
            w, head = weights[h], pos[0]
            c = potential[head] / w[head]
            s = next((s for s in pos if potential[s] / w[s] != c), None)
            if s is not None:
                failing.append((order[head], order[s], h, head, s))
    return min(failing)[2:] if failing else None


class TestCheckCoherenceMatchesReference:
    def test_failing_edge_and_outcome_on_seeded_instances(self):
        finite = 0
        for env, mu in coherence_instances(0xC0DE, 600):
            graph = build_coherence_graph(env, mu)
            got = check_coherence(graph)
            reference = ReferenceAnalysis(env.states, reference_edges(env, mu))
            assert got == reference.outcome()
            edge = reference_failing_edge(graph)
            assert (edge is not None) == (reference.kind == "finite")
            if edge is not None:
                finite += 1
                first = got.cycle[0]
                assert (first.h, first.src, first.dst) == edge
        assert finite >= 50, finite

    def test_flat_book_sized_instances(self):
        # Up to 100 states and 200 contingencies, where the seeded instances
        # above have a handful of each, so one spanning tree holds up to 100
        # integer potentials.
        rng, seen = random.Random(0xF1A7), set()
        for n in (25, 40, 60, 100):
            env = flat_environment(rng, n)
            for mu in flat_beliefs(rng, env):
                got = check_coherence(build_coherence_graph(env, mu))
                reference = ReferenceAnalysis(env.states, reference_edges(env, mu))
                assert got == reference.outcome()
                assert repr(got) == repr(reference.outcome())
                seen.add(reference.kind)
        assert {"certificate", "finite", "inside"} <= seen, seen


def flat_environment(rng, n):
    """|S| = n states under 2n root contingencies of 6 states each: n
    circulant windows s_j..s_(j+5) and n random 6-subsets."""
    states = [f"s{i}" for i in range(n)]
    nodes = [f"h{j}" for j in range(2 * n)]
    members = [[states[(j + k) % n] for k in range(6)] for j in range(n)]
    members += [rng.sample(states, 6) for _ in range(n)]
    leaves_of = {s: [] for s in states}
    for h, ms in zip(nodes, members):
        for s in ms:
            leaves_of[s].append(h)
    eta = {s: weights(rng, leaves_of[s], full_support=True) for s in states}
    return build_environment(states, ContingencyForest(nodes, {}), eta)


def flat_beliefs(rng, env):
    """Bayes beliefs from a 2- or 3-level LCPS, then copies with one and with
    two rows re-drawn, and a copy where one row drops one of its positive
    masses and rescales the rest."""
    order = list(env.states)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(1, 2)))
    bounds = [0, *cuts, len(order)]
    lcps = Lcps(tuple(weights(rng, order[a:b], max_denom=2 * (b - a), full_support=True)
                      for a, b in zip(bounds, bounds[1:])))
    mu = derive_beliefs(env, lcps)
    yield mu
    for k in (1, 2):
        perturbed = dict(mu)
        for h in rng.sample(env.forest.nodes, k):
            perturbed[h] = weights(rng, env.consistent_states[h], full_support=rng.random() < 0.5)
        yield perturbed
    h = rng.choice([h for h in env.forest.nodes if sum(1 for m in mu[h].values() if m) >= 2])
    s = rng.choice([s for s, m in mu[h].items() if m])
    yield {**mu, h: {t: m / (1 - mu[h][s]) for t, m in mu[h].items() if t != s}}


# --------------------------------------------------- deterministic classifier

def reference_per_path(env, g):
    """The chain sum that classify_deterministic replaced, zeros included."""
    return {
        s: {
            leaf: sum((g.get(h, {}).get(s, ZERO) for h in chain(env.forest, leaf)), ZERO)
            for leaf in env.eta[s]
        }
        for s in env.states
    }


def seeded_books(rng, env):
    """A random book with explicit zeros, zero entries off every chain of their
    state, and a book that pays at every contingency of one chain."""
    book = {}
    for h in env.forest.nodes:
        if rng.random() < 0.3:
            continue
        row = {s: F(rng.randint(-40, 40), rng.randint(1, 16)) for s in env.reach[h]
               if rng.random() < 0.7}
        row.update({s: ZERO for s in env.states if s not in env.reach[h] and rng.random() < 0.3})
        book[h] = row
    yield book
    s = rng.choice(env.states)
    leaf = rng.choice(list(env.eta[s]))
    yield {h: {s: F(rng.randint(1, 9), rng.randint(1, 9))} for h in chain(env.forest, leaf)}
    yield {}


class TestClassifyDeterministicMatchesReference:
    def test_seeded_books(self):
        rng = random.Random(0xD1CE)
        for i in range(400):
            env = (random_environment, wide_environment)[i % 2](rng)
            for book in seeded_books(rng, env):
                verdict = classify_deterministic(env, book)
                want = reference_per_path(env, book)
                assert verdict.per_path == want
                assert all(list(verdict.per_path[s]) == list(want[s]) for s in env.states)
                flat = [v for row in want.values() for v in row.values()]
                assert verdict.is_deterministic_db == (
                    all(v <= 0 for v in flat) and any(v < 0 for v in flat)
                )

    def test_deep_chain_pays_at_every_contingency(self):
        depth = 60
        nodes = [f"h{i}" for i in range(depth)]
        forest = ContingencyForest(nodes, {nodes[i]: nodes[i - 1] for i in range(1, depth)})
        env = build_environment(["a"], forest, {"a": {nodes[-1]: ONE}})
        book = {h: {"a": F(-1, i + 2)} for i, h in enumerate(nodes)}
        verdict = classify_deterministic(env, book)
        assert verdict.per_path == reference_per_path(env, book)
        assert verdict.is_deterministic_db
