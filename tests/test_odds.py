import dataclasses
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from dutchbook import (
    CoherenceCertificate,
    CoherenceViolation,
    ContingencyForest,
    ExtendedRatio,
    Lcps,
    OddsLink,
    PlausibilityPartition,
    build_coherence_graph,
    build_environment,
    check_complete_consistency,
    check_coherence,
    derive_beliefs,
    discounted_odds_ratio,
    generalized_odds_ratio,
    plausibility_levels,
)
from dutchbook.errors import (
    DomainError,
    IndeterminateProduct,
    IndeterminateRatio,
    InternalError,
    InvalidEnvironment,
    PreconditionViolation,
)
from dutchbook import fixtures as fx
from dutchbook.model import ONE, ZERO
from dutchbook import odds
from dutchbook.odds import _condensation_walk, _ratio

from conftest import random_environment, random_lcps, weights

F = Fraction


class TestExtendedRatio:
    def test_finite_must_be_positive(self):
        with pytest.raises(ValueError):
            ExtendedRatio.finite(F(0))
        with pytest.raises(ValueError):
            ExtendedRatio.finite(F(-1))

    def test_finite_must_be_rational(self):
        with pytest.raises(DomainError, match="finite ratio must be rational"):
            ExtendedRatio.finite(0.1)
        assert ExtendedRatio.finite(2).value == 2

    def test_value_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(ExtendedRatio)] == ["value"]
        assert ExtendedRatio.zero().value == 0
        assert ExtendedRatio.infinite().value is None
        assert ExtendedRatio.finite(F(2, 3)) == ExtendedRatio(F(2, 3))

    def test_inverse(self):
        assert ExtendedRatio.finite(F(3)).inverse().value == F(1, 3)
        assert ExtendedRatio.zero().inverse().is_infinite
        assert ExtendedRatio.infinite().inverse().is_zero

    def test_products(self):
        three = ExtendedRatio.finite(F(3))
        assert (three * three).value == 9
        assert (three * ExtendedRatio.zero()).is_zero
        assert (three * ExtendedRatio.infinite()).is_infinite
        with pytest.raises(IndeterminateProduct):
            ExtendedRatio.zero() * ExtendedRatio.infinite()

    def test_is_one(self):
        assert ExtendedRatio.finite(F(1)).is_one
        assert not ExtendedRatio.zero().is_one


class TestDiscountedOddsRatio:
    def test_regret_value(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        r = discounted_odds_ratio(env, mu, "sm", "ma", "sq")
        assert r.is_finite and r.value == 3
        assert discounted_odds_ratio(env, mu, "sm", "sq", "ma").value == F(1, 3)

    def test_uniform_is_one(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        for h, s, sp in [("sm", "sq", "ma"), ("mp", "ma", "pa"), ("ps", "pa", "sq")]:
            assert discounted_odds_ratio(env, mu, h, s, sp).is_one

    def test_reach_discounting(self):
        # Equal reach cancels; skewed reach does not.
        env, mu = fx.skewed_environment(), fx.skewed_beliefs()
        r = discounted_odds_ratio(env, mu, "a", "u", "v")
        assert r.value == (F(3, 4) / F(3, 4)) * (F(1, 4) / F(1, 4))

    def test_zero_and_infinite(self):
        env, mu = fx.larry_environment(), fx.lex_beliefs()
        assert discounted_odds_ratio(env, mu, "sm", "ma", "sq").is_zero
        assert discounted_odds_ratio(env, mu, "sm", "sq", "ma").is_infinite

    def test_indeterminate(self):
        env = fx.larry_environment()
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": F(1, 2), "ma": F(1, 2)}
        # Force a 0/0 pair on a three-state contingency: needs a bigger S(h),
        # so fake it via beliefs zero on both states of sm.
        mu_bad = dict(mu)
        mu_bad["sm"] = {"sq": F(0), "ma": F(0)}
        with pytest.raises(IndeterminateRatio):
            discounted_odds_ratio(env, mu_bad, "sm", "sq", "ma")

    def test_domain_errors(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        with pytest.raises(DomainError):
            discounted_odds_ratio(env, mu, "sm", "sq", "sq")
        with pytest.raises(DomainError):
            discounted_odds_ratio(env, mu, "sm", "sq", "pa")  # pa not in S(sm)


    def test_float_mass_rejected(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        mu["sm"] = {"sq": 0.1, "ma": 0.9}
        with pytest.raises(DomainError, match=r"^mu\['sm'\]: non-rational mass at 'sq'$"):
            discounted_odds_ratio(env, mu, "sm", "sq", "ma")
        with pytest.raises(DomainError, match=r"^mu\['sm'\]: non-rational mass at 'sq'$"):
            generalized_odds_ratio(env, mu, [("sm", "sq", "ma"), ("sm", "ma", "sq")])

    def test_negative_mass_rejected(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        mu["sm"] = {"sq": F(-1, 2), "ma": F(3, 2)}
        for s, sp in (("sq", "ma"), ("ma", "sq")):
            with pytest.raises(DomainError, match=r"^mu\['sm'\]: negative mass at 'sq'$"):
                discounted_odds_ratio(env, mu, "sm", s, sp)


class TestGeneralizedOddsRatio:
    def test_two_link_chain(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        r = generalized_odds_ratio(env, mu, [("sm", "sq", "ma"), ("mp", "ma", "pa")])
        assert r.value == F(1, 9)

    def test_self_cycle(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        r = generalized_odds_ratio(
            env, mu, [("sm", "sq", "ma"), ("mp", "ma", "pa"), ("ps", "pa", "sq")]
        )
        assert r.value == F(1, 27)

    def test_broken_chain_rejected(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        with pytest.raises(DomainError, match="chain breaks"):
            generalized_odds_ratio(env, mu, [("sm", "sq", "ma"), ("ps", "pa", "sq")])

    def test_empty_chain_rejected(self):
        with pytest.raises(DomainError):
            generalized_odds_ratio(fx.larry_environment(), fx.regret_beliefs(), [])


class TestCoherenceGraph:
    def test_larry_edge_count(self):
        # One ordered pair per direction per shared two-state contingency;
        # singleton contingencies contribute nothing.
        graph = build_coherence_graph(fx.larry_environment(), fx.regret_beliefs())
        assert len(graph.edges) == 6

    def test_indeterminate_pairs_omitted(self):
        env = fx.nested_environment()
        mu = fx.nested_ok_beliefs()
        mu["h0"] = {"A": F(1)}
        mu["h1"] = {"A": F(1)}
        graph = build_coherence_graph(env, mu)
        # B and C both hold zero belief at h0, so the (B,C) pair there is
        # indeterminate and must not appear; (A,B) stays (zero one way).
        assert all({e.src, e.dst} != {"B", "C"} for e in graph.edges)
        assert any({e.src, e.dst} == {"A", "B"} and e.h == "h0" for e in graph.edges)


    def test_float_row_rejected(self):
        # Float weights would make pot(s)/w(s|h) compare unequal by rounding
        # and end in InternalError("constructed witness cycle has product 1").
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": 0.5, "ma": 0.5}
        with pytest.raises(DomainError, match=r"mu\['sm'\]: non-rational mass at 'sq'"):
            build_coherence_graph(fx.larry_environment(), mu)

    def test_negative_mass_rejected(self):
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": F(-1, 2), "ma": F(3, 2)}
        with pytest.raises(DomainError, match=r"^mu\['sm'\]: negative mass at 'sq'$"):
            check_coherence(build_coherence_graph(fx.larry_environment(), mu))


class TestCheckCoherence:
    def test_regret_violation(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        outcome = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(outcome, CoherenceViolation)
        assert outcome.product.value == F(1, 27)
        # The witness must close up and re-evaluate to the same product.
        cycle = outcome.cycle
        assert cycle[0].src == cycle[-1].dst
        re_evaluated = generalized_odds_ratio(env, mu, cycle)
        assert re_evaluated.value == outcome.product.value

    def test_uniform_certificate(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        cert = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(cert, CoherenceCertificate)
        assert cert.partition.levels == (("sq", "ma", "pa"),)
        assert cert.potentials == {"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)}

    def test_lex_certificate(self):
        env, mu = fx.larry_environment(), fx.lex_beliefs()
        cert = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(cert, CoherenceCertificate)
        assert cert.partition.levels == (("sq",), ("ma", "pa"))
        assert cert.potentials == {"sq": F(1), "ma": F(2, 3), "pa": F(1, 3)}

    def test_zero_edge_inside_component(self):
        # sm pins sq over ma with certainty while mp and ps keep everything
        # positive: the zero edge lands inside a finite component.
        env = fx.larry_environment()
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": F(1)}
        outcome = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(outcome, CoherenceViolation)
        assert outcome.product.is_zero

    def test_zero_condensation_cycle(self):
        # sm pins sq, ps pins pa, mp pins ma: plausibility must cycle.
        env = fx.larry_environment()
        mu = {
            "sq": {"sq": F(1)},
            "ma": {"ma": F(1)},
            "pa": {"pa": F(1)},
            "sm": {"sq": F(1)},
            "mp": {"ma": F(1)},
            "ps": {"pa": F(1)},
        }
        outcome = check_coherence(build_coherence_graph(env, mu))
        assert isinstance(outcome, CoherenceViolation)
        assert outcome.product.is_zero
        assert generalized_odds_ratio(env, mu, outcome.cycle).is_zero


class TestPlausibilityLevels:
    def test_uniform_single_level(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.uniform_beliefs())
        assert plausibility_levels(graph).levels == (("sq", "ma", "pa"),)

    def test_lex_two_levels(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.lex_beliefs())
        assert plausibility_levels(graph).levels == (("sq",), ("ma", "pa"))

    def test_incoherent_graph_rejected(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.regret_beliefs())
        with pytest.raises(PreconditionViolation, match="belief system is not coherent"):
            plausibility_levels(graph)


# Reference implementations: the recursive condensation DFS and level memo
# that the explicit-stack walk replaced, kept to check that it visits in the
# same order and returns the same witness and levels.

def reference_condensation_cycle(cond):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {c: WHITE for c in cond}
    stack = []

    def dfs(c):
        color[c] = GRAY
        for d in sorted(cond[c]):
            if color[d] == GRAY:
                cyc = [cond[c][d]]
                for node, edge in reversed(stack):
                    cyc.append(edge)
                    if node == d:
                        break
                return list(reversed(cyc))
            if color[d] == WHITE:
                stack.append((c, cond[c][d]))
                found = dfs(d)
                stack.pop()
                if found:
                    return found
        color[c] = BLACK
        return None

    for c in sorted(cond):
        if color[c] == WHITE:
            found = dfs(c)
            if found:
                return found
    return None


def reference_dag_levels(cond):
    memo = {}

    def level(c):
        if c not in memo:
            memo[c] = 1 if not cond[c] else 1 + max(level(d) for d in cond[c])
        return memo[c]

    return {c: level(c) for c in cond}


def random_condensation(rng, acyclic):
    """Random digraph on 1..9 nodes whose edge values name the edge; with
    `acyclic`, edges only run from lower to higher node numbers."""
    n = rng.randint(1, 9)
    cond = {c: {} for c in range(n)}
    for c in range(n):
        for d in range(n):
            if c != d and (d > c or not acyclic) and rng.random() < 0.3:
                cond[c][d] = f"{c}->{d}"
    return cond


class TestCondensationWalks:
    def test_cycle_matches_recursive_reference(self):
        rng, cyclic = random.Random(41), 0
        for _ in range(500):
            cond = random_condensation(rng, acyclic=rng.random() < 0.3)
            found, _ = _condensation_walk(cond)
            assert found == reference_condensation_cycle(cond)
            cyclic += found is not None
        assert 100 < cyclic < 500

    def test_levels_match_recursive_reference(self):
        rng = random.Random(42)
        for _ in range(500):
            cond = random_condensation(rng, acyclic=True)
            assert _condensation_walk(cond) == (None, reference_dag_levels(cond))

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        chain = {c: ({c + 1: f"{c}->{c + 1}"} if c + 1 < n else {}) for c in range(n)}
        cycle, levels = _condensation_walk(chain)
        assert cycle is None
        assert levels[0] == n
        chain[n - 1] = {0: f"{n - 1}->0"}
        assert len(_condensation_walk(chain)[0]) == n


# Reference implementation: the edge-list coherence analysis that the weight
# rows replaced. It materialized every defined discounted odds ratio, ran the
# spanning-tree search and the two checks over sorted edge scans, and passed
# each witness through a cycle clean-up and an infinite-product reversal.

def reference_edges(env, mu):
    edges = []
    for h in env.forest.nodes:
        reach, sh = env.reach[h], env.consistent_states[h]
        for s in sh:
            for sp in sh:
                a, b = mu[h].get(s, ZERO), mu[h].get(sp, ZERO)
                if s == sp or (a == 0 and b == 0):
                    continue
                if a == 0:
                    value = ExtendedRatio.zero()
                elif b == 0:
                    value = ExtendedRatio.infinite()
                else:
                    value = ExtendedRatio.finite(a / reach[s] * reach[sp] / b)
                edges.append(OddsLink(h, s, sp, value))
    return edges


def reference_simplify_cycle(cycle):
    while True:
        seen, split = {}, None
        for i, link in enumerate(cycle):
            if link.src in seen:
                split = (seen[link.src], i)
                break
            seen[link.src] = i
        if split is None:
            return cycle
        lo, hi = split
        for candidate in (cycle[lo:hi], cycle[:lo] + cycle[hi:]):
            if not candidate:
                continue
            product = ExtendedRatio.finite(ONE)
            try:
                for link in candidate:
                    product = product * link.value
            except IndeterminateProduct:
                continue
            if not product.is_one:
                cycle = candidate
                break
        else:
            raise InternalError("cycle decomposition lost the violation")


def reference_make_violation(cycle):
    cycle = reference_simplify_cycle(cycle)
    product = ExtendedRatio.finite(ONE)
    for link in cycle:
        product = product * link.value
    if product.is_infinite:
        cycle = [link.reversed() for link in reversed(cycle)]
        product = ExtendedRatio.zero()
    if product.is_one:
        raise InternalError("constructed witness cycle has product 1")
    return CoherenceViolation(tuple(cycle), product)


class ReferenceAnalysis:
    """`kind` names the step that decided: certificate, finite (a finite edge
    disagrees with the potentials), inside (a zero edge inside a component)
    or cycle (a cycle of the zero-edge condensation)."""

    def __init__(self, states, edges):
        self.states, self.edges = states, edges
        self.order = {s: i for i, s in enumerate(states)}
        self.component, self.potential, self.tree_parent = {}, {}, {}
        self.violation, self.comp_levels = None, {}
        self.kind = self._run()

    def _tree_path(self, frm, to):
        def to_root(x):
            path = [x]
            while path[-1] in self.tree_parent:
                path.append(self.tree_parent[path[-1]].dst)
            return path

        up_a, up_b = to_root(frm), to_root(to)
        common = set(up_b)
        i = next(i for i, x in enumerate(up_a) if x in common)
        lca = up_a[i]
        links = [self.tree_parent[x] for x in up_a[:i]]
        down = [self.tree_parent[x].reversed() for x in up_b[: up_b.index(lca)]]
        return links + list(reversed(down))

    def _run(self):
        order = self.order
        adj = {s: [] for s in self.states}
        for e in self.edges:
            if e.value.is_finite:
                adj[e.src].append(e)
        for s in adj:
            adj[s].sort(key=lambda e: (order[e.dst], e.h))
        comp = 0
        for root in self.states:
            if root in self.component:
                continue
            self.component[root], self.potential[root] = comp, ONE
            queue = [root]
            while queue:
                u = queue.pop(0)
                for e in adj[u]:
                    if e.dst not in self.component:
                        self.component[e.dst] = comp
                        self.potential[e.dst] = self.potential[u] / e.value.value
                        self.tree_parent[e.dst] = e.reversed()
                        queue.append(e.dst)
            comp += 1

        scan = sorted(self.edges, key=lambda e: (order[e.src], order[e.dst], e.h))
        for e in scan:
            if e.value.is_finite and self.potential[e.src] / self.potential[e.dst] != e.value.value:
                self.violation = reference_make_violation([e] + self._tree_path(e.dst, e.src))
                return "finite"
        cond = {c: {} for c in range(comp)}
        for e in scan:
            if not e.value.is_zero:
                continue
            ca, cb = self.component[e.src], self.component[e.dst]
            if ca == cb:
                self.violation = reference_make_violation([e] + self._tree_path(e.dst, e.src))
                return "inside"
            cond[ca].setdefault(cb, e)
        cyc = reference_condensation_cycle(cond)
        if cyc is not None:
            links = []
            for i, e in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                links.append(e)
                if e.dst != nxt.src:
                    links.extend(self._tree_path(e.dst, nxt.src))
            self.violation = reference_make_violation(links)
            return "cycle"
        self.comp_levels = reference_dag_levels(cond)
        return "certificate"

    def outcome(self):
        if self.violation is not None:
            return self.violation
        n = max(self.comp_levels.values(), default=1)
        levels = [[] for _ in range(n)]
        for s in self.states:
            levels[self.comp_levels[self.component[s]] - 1].append(s)
        potentials = {}
        for members in levels:
            total = sum((self.potential[s] for s in members), ZERO)
            potentials.update({s: self.potential[s] / total for s in members})
        partition = PlausibilityPartition(tuple(tuple(members) for members in levels))
        return CoherenceCertificate(partition, potentials)


def renamed_forest_environment(rng):
    """Random environment on a shuffled forest whose node ids are drawn out of
    order, so that id order, forest order and state order all differ."""
    while True:
        n = rng.randint(2, 9)
        order = [f"h{k}" for k in rng.sample(range(40), n)]
        parent = {}
        for i in range(1, n):
            if rng.random() < 0.6:
                parent[order[i]] = order[rng.randrange(i)]
        nodes = order[:]
        rng.shuffle(nodes)
        forest = ContingencyForest(nodes, parent)
        states = [f"s{i}" for i in range(rng.randint(3, 7))]
        eta = {s: weights(rng, forest.leaves) for s in states}
        try:
            return build_environment(states, forest, eta)
        except InvalidEnvironment:
            continue


def coherence_instances(seed, count, environment=renamed_forest_environment):
    """Seeded (env, mu): random beliefs with zeros, beliefs derived from an
    LCPS, and derived beliefs with one to three rows re-drawn, in turn."""
    rng = random.Random(seed)
    for i in range(count):
        env = environment(rng)
        nodes, sh = env.forest.nodes, env.consistent_states
        if i % 3 == 0:
            mu = {h: weights(rng, sh[h]) for h in nodes}
        else:
            mu = derive_beliefs(env, random_lcps(rng, env.states))
            if i % 3 == 2:
                for h in rng.sample(nodes, min(len(nodes), rng.randint(1, 3))):
                    mu[h] = weights(rng, sh[h], full_support=rng.random() < 0.5)
        yield env, mu


class TestWeightRowsMatchEdgeList:
    def test_outcomes_and_edges_on_seeded_instances(self):
        seen = Counter()
        for env, mu in coherence_instances(0xC0DE, 2400):
            graph = build_coherence_graph(env, mu)
            edges = reference_edges(env, mu)
            assert graph.edges == edges
            reference = ReferenceAnalysis(env.states, edges)
            outcome = check_coherence(graph)
            assert outcome == reference.outcome()
            assert repr(outcome) == repr(reference.outcome())
            if reference.kind == "certificate":
                assert plausibility_levels(graph) == outcome.partition
                multi_level = len(outcome.partition.levels) > 1
                seen["multi-level certificate" if multi_level else "certificate"] += 1
            else:
                seen[reference.kind] += 1
        assert all(
            seen[kind] >= 50 for kind in ("multi-level certificate", "finite", "inside", "cycle")
        ), seen

    def test_witness_shape(self):
        witnesses = 0
        for env, mu in coherence_instances(0x5AFE, 900):
            outcome = check_coherence(build_coherence_graph(env, mu))
            if isinstance(outcome, CoherenceCertificate):
                continue
            witnesses += 1
            cycle = outcome.cycle
            assert cycle[-1].dst == cycle[0].src
            assert all(prev.dst == link.src for prev, link in zip(cycle, cycle[1:]))
            assert len({link.src for link in cycle}) == len(cycle)
            assert all(link.value.is_finite or link.value.is_zero for link in cycle)
            assert outcome.product.is_zero or outcome.product.is_finite
            assert generalized_odds_ratio(env, mu, cycle) == outcome.product
        assert witnesses >= 300

    def test_edges_are_derived_on_demand(self):
        graph = build_coherence_graph(fx.larry_environment(), fx.lex_beliefs())
        assert "edges" not in vars(graph)
        check_coherence(graph)
        plausibility_levels(graph)
        assert "edges" not in vars(graph)
        assert "weights" not in vars(graph)
        assert graph.edges is graph.edges

    def test_weights_view_is_the_fraction_rows(self):
        for env, mu in coherence_instances(0x3E1, 300):
            view = build_coherence_graph(env, mu).weights
            assert list(view) == list(env.forest.nodes)
            for h, row in view.items():
                assert list(row) == [s for s in env.states if s in env.reach[h]]
                assert row == {s: mu[h].get(s, 0) / env.reach[h][s] for s in row}
                assert all(type(w) is Fraction for w in row.values())

    def test_link_values_are_computed_only_on_witnesses(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return _ratio(a, b)

        env = fx.larry_environment()
        coherent = [(env, fx.uniform_beliefs()), (env, fx.lex_beliefs())]
        coherent += [(e, m) for e, m in coherence_instances(0x1DEA, 300)
                     if check_complete_consistency(e, m).consistent]
        assert len(coherent) >= 100
        monkeypatch.setattr(odds, "_ratio", counted)
        for e, m in coherent:
            assert isinstance(check_coherence(build_coherence_graph(e, m)), CoherenceCertificate)
        assert calls == []
        # On a violation, one value per finite witness link; zero links share
        # a constant.
        witnesses = 0
        for e, m in coherence_instances(0x1DEA, 300):
            outcome = check_coherence(build_coherence_graph(e, m))
            if isinstance(outcome, CoherenceViolation):
                witnesses += 1
                assert len(calls) == sum(link.value.is_finite for link in outcome.cycle)
            calls.clear()
        assert witnesses >= 50


def two_contingency_environment(n):
    """n states, two contingencies a and b over all of them, and one
    singleton leaf l_i under a per state."""
    states = [f"s{i}" for i in range(n)]
    leaves = [f"l{i}" for i in range(n)]
    forest = ContingencyForest(["a", "b"] + leaves, {leaf: "a" for leaf in leaves})
    half = Fraction(1, 2)
    eta = {s: {leaf: half, "b": half} for s, leaf in zip(states, leaves)}
    return build_environment(states, forest, eta)


class TestScale:
    def test_two_contingencies_over_a_thousand_states(self):
        n = 1000
        env = two_contingency_environment(n)
        first, rest = env.states[: n // 2], env.states[n // 2 :]
        lcps = Lcps(
            (
                {s: Fraction(1, len(first)) for s in first},
                {s: Fraction(1, len(rest)) for s in rest},
            )
        )
        mu = derive_beliefs(env, lcps)
        started = time.perf_counter()
        result = check_complete_consistency(env, mu)
        assert time.perf_counter() - started < 3.0
        assert result.consistent and result.lcps == lcps

        total = n * (n + 1) // 2
        mu["b"] = {s: Fraction(i + 1, total) for i, s in enumerate(env.states)}
        started = time.perf_counter()
        result = check_complete_consistency(env, mu)
        assert time.perf_counter() - started < 3.0
        assert not result.consistent and result.violation.product.is_finite
        assert generalized_odds_ratio(env, mu, result.violation.cycle) == result.violation.product


# Brute-force oracle: a belief system is incoherent iff some simple directed
# cycle of states, with one contingency per link, has a determinate product
# of discounted odds ratios other than 1. A certificate makes every such
# product 1 or indeterminate; a witness is such a cycle.

def oracle_violating_cycles(env, mu):
    """{((h, src, dst), ...): product} over the violating simple cycles, each
    listed from its first state in state order."""
    ratios = {}
    for h in env.forest.nodes:
        for s in env.reach[h]:
            for t in env.reach[h]:
                if s != t:
                    try:
                        ratio = discounted_odds_ratio(env, mu, h, s, t)
                    except IndeterminateRatio:
                        continue
                    ratios.setdefault((s, t), []).append((h, ratio))
    violating = {}
    for i, start in enumerate(env.states):
        for k in range(1, len(env.states) - i):
            for rest in itertools.permutations(env.states[i + 1 :], k):
                cycle = (start, *rest, start)
                choices = [ratios.get(pair, []) for pair in zip(cycle, cycle[1:])]
                for picked in itertools.product(*choices):
                    value = ExtendedRatio.finite(ONE)
                    try:
                        for _, ratio in picked:
                            value = value * ratio
                    except IndeterminateProduct:
                        continue
                    if not value.is_one:
                        links = tuple((h, s, t) for (h, _), s, t in zip(picked, cycle, cycle[1:]))
                        violating[links] = value
    return violating


class TestBruteForceOracle:
    def test_verdicts_and_witnesses(self):
        seen = Counter()
        small = partial(random_environment, max_states=5, max_nodes=5)
        for env, mu in coherence_instances(0x0AC1E, 250, small):
            violating = oracle_violating_cycles(env, mu)
            outcome = check_coherence(build_coherence_graph(env, mu))
            if isinstance(outcome, CoherenceCertificate):
                assert not violating
                seen["coherent"] += 1
                continue
            assert violating
            cycle = outcome.cycle
            first = min(range(len(cycle)), key=lambda i: env.state_index[cycle[i].src])
            links = cycle[first:] + cycle[:first]
            assert violating[tuple((l.h, l.src, l.dst) for l in links)] == outcome.product
            seen["incoherent"] += 1
            seen["longer witness"] += len(links) >= 3
        assert seen["coherent"] >= 50 and seen["incoherent"] >= 50, seen
        assert seen["longer witness"] >= 10, seen
