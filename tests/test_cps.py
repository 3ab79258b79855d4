import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from dutchbook import (
    CompleteCps,
    ContingencyForest,
    CpsViolation,
    Lcps,
    SiniscalchiViolation,
    build_environment,
    check_complete_consistency,
    check_siniscalchi,
    cps_to_lcps,
    derive_beliefs,
    lcps_to_cps,
    validate_complete_cps,
)
from dutchbook.errors import InputError, NonUniformReach
from dutchbook.model import ONE, ZERO, mass_of
from dutchbook import cps as cps_module
from dutchbook import serialize as sz
from dutchbook import fixtures as fx

import conftest
from conftest import random_environment, random_lcps, weights
from test_odds import coherence_instances

F = Fraction
STATES = ("sq", "ma", "pa")


class TestLcpsToCps:
    def test_lex_rows(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        assert cps.conditionals[frozenset({"ma", "pa"})] == {"ma": F(2, 3), "pa": F(1, 3)}
        assert cps.conditionals[frozenset({"sq", "ma"})] == {"sq": F(1)}
        assert cps.conditionals[frozenset(STATES)] == {"sq": F(1)}

    def test_result_satisfies_chain_rule(self):
        assert validate_complete_cps(lcps_to_cps(fx.lex_lcps(), STATES)) is None

    def test_state_count_ceiling(self):
        many = tuple(f"s{i}" for i in range(17))
        with pytest.raises(InputError, match="limited"):
            CompleteCps(many, {})


class TestValidateCompleteCps:
    def test_missing_subset(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        del cps.conditionals[frozenset({"sq", "pa"})]
        with pytest.raises(InputError, match="missing subset"):
            validate_complete_cps(cps)

    def test_row_not_a_distribution(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(1, 2), "pa": F(1, 4)}
        v = validate_complete_cps(cps)
        assert v is not None and v.d is None

    def test_float_row_rejected(self):
        # 0.5 + 0.5 == 1.0 in floating point; the mass must be rejected
        # before any row arithmetic, not compared as a float.
        cps = CompleteCps(("a", "b"), {
            frozenset("a"): {"a": 1.0},
            frozenset("b"): {"b": F(1)},
            frozenset("ab"): {"a": 0.5, "b": 0.5},
        })
        with pytest.raises(InputError, match=r"row \['a'\]: non-rational mass at 'a'"):
            validate_complete_cps(cps)
        with pytest.raises(InputError, match="non-rational mass"):
            cps_to_lcps(cps)

    def test_integer_masses_accepted(self):
        # Any rational may be a mass; signs and sums read its numerator and
        # denominator, which an int has too.
        cps = CompleteCps(("a", "b"), {
            frozenset("a"): {"a": 1},
            frozenset("b"): {"b": 1},
            frozenset("ab"): {"a": 1, "b": 0},
        })
        assert validate_complete_cps(cps) is None
        assert cps_to_lcps(cps) == Lcps(({"a": 1}, {"b": 1}))
        cps.conditionals[frozenset("ab")] = {"a": 2, "b": -1}
        assert validate_complete_cps(cps) == CpsViolation(frozenset("ab"), None, None, -1, ZERO)

    def test_chain_rule_violation(self):
        cps = lcps_to_cps(Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},)), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(2, 3), "pa": F(1, 3)}
        v = validate_complete_cps(cps)
        assert v is not None and v.d == frozenset({"ma", "pa"})
        assert v.lhs != v.rhs


class TestCpsToLcps:
    def test_lex_round_trip(self):
        assert cps_to_lcps(lcps_to_cps(fx.lex_lcps(), STATES)) == fx.lex_lcps()

    def test_single_level_round_trip(self):
        lcps = Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},))
        assert cps_to_lcps(lcps_to_cps(lcps, STATES)) == lcps

    def test_random_round_trips(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            states = tuple(f"s{i}" for i in range(n))
            lcps = random_lcps(rng, states)
            assert cps_to_lcps(lcps_to_cps(lcps, states)) == lcps

    def test_unconstrained_row_tamper_still_valid(self):
        # The {ma,pa} row is free when the full row puts zero mass on it:
        # tampering there just selects a different LCPS.
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(1, 2), "pa": F(1, 2)}
        assert cps_to_lcps(cps).levels[1] == {"ma": F(1, 2), "pa": F(1, 2)}

    def test_invalid_cps_rejected(self):
        cps = lcps_to_cps(Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},)), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(2, 3), "pa": F(1, 3)}
        with pytest.raises(InputError, match="invalid complete CPS"):
            cps_to_lcps(cps)


class TestInvalidCpsMessage:
    """`cps_to_lcps` words a violation with events in state order and
    rationals as p/q, never with the repr of a frozenset."""

    def test_negative_mass(self):
        cps = CompleteCps(("b", "a"), {
            frozenset("a"): {"a": F(1)},
            frozenset("b"): {"b": F(1)},
            frozenset("ab"): {"a": F(3, 2), "b": F(-1, 2)},
        })
        with pytest.raises(InputError) as caught:
            cps_to_lcps(cps)
        assert str(caught.value) == "invalid complete CPS: row {b,a} has negative mass -1/2"

    def test_mass_off_the_event(self):
        cps = lcps_to_cps(fx.lex_lcps(), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(1, 2), "sq": F(1, 2)}
        with pytest.raises(InputError) as caught:
            cps_to_lcps(cps)
        assert str(caught.value) == (
            "invalid complete CPS: row {ma,pa} puts mass 1/2 on its event, not 1"
        )

    def test_chain_rule(self):
        cps = lcps_to_cps(Lcps(({"sq": F(1, 3), "ma": F(1, 3), "pa": F(1, 3)},)), STATES)
        cps.conditionals[frozenset({"ma", "pa"})] = {"ma": F(2, 3), "pa": F(1, 3)}
        with pytest.raises(InputError) as caught:
            cps_to_lcps(cps)
        assert str(caught.value) == (
            "invalid complete CPS: mu(ma|{sq,ma,pa}) = 1/3, "
            "but mu(ma|{ma,pa}) * mu({ma,pa}|{sq,ma,pa}) = 4/9"
        )


def sparse_lcps(rng, states):
    """`random_lcps` with zero masses at other levels' states and masses of 1
    or 0 sometimes plain ints, as in ({a: 1, b: 0}, {b: 1})."""
    levels = []
    for level in random_lcps(rng, states).levels:
        level = {s: 1 if m == 1 and rng.random() < 0.5 else m for s, m in level.items()}
        for s in rng.sample(states, rng.randint(0, len(states))):
            level.setdefault(s, rng.choice((0, ZERO)))
        keys = list(level)
        rng.shuffle(keys)
        levels.append({s: level[s] for s in keys})
    return Lcps(tuple(levels))


def reference_lcps_to_cps(lcps, states):
    """Each row as `Fraction`s: the first level with positive mass on C,
    divided by its mass on C, at C's positive states in state order."""
    rows = {}
    for k in range(1, len(states) + 1):
        for combo in combinations(states, k):
            c = frozenset(combo)
            level = next(l for l in lcps.levels if any(l.get(s, ZERO) > 0 for s in c))
            total = sum((level.get(s, ZERO) for s in c), ZERO)
            rows[c] = {s: level[s] / total for s in states if s in c and level.get(s, ZERO) > 0}
    return rows


def reference_derive_beliefs(env, lcps):
    """Bayes rule at each h from the first level with positive mass on S(h)."""
    mu = {}
    for h in env.forest.nodes:
        sh = env.consistent_states[h]
        level = next(l for l in lcps.levels if any(l.get(s, ZERO) > 0 for s in sh))
        joint = {s: p * level[s] for s, p in env.reach[h].items() if level.get(s, ZERO) > 0}
        total = sum(joint.values(), ZERO)
        mu[h] = {s: w / total for s, w in joint.items()}
    return mu


class TestZeroAndIntegerLevelMasses:
    def test_example(self):
        lcps = Lcps(({"a": 1, "b": 0}, {"b": 1}))
        cps = lcps_to_cps(lcps, ("a", "b"))
        rows = [{"a": F(1)}, {"b": F(1)}, {"a": F(1)}]
        assert repr(list(cps.conditionals.values())) == repr(rows)
        assert cps_to_lcps(cps).levels == ({"a": 1}, {"b": 1})

    def test_conversions_and_beliefs_match_references(self):
        rng = random.Random(2020)
        seen = Counter()
        for _ in range(150):
            env = random_environment(rng, max_states=6, max_nodes=8)
            lcps = sparse_lcps(rng, env.states)
            for level in lcps.levels:
                seen["int"] += any(type(m) is int for m in level.values())
                seen["zero"] += any(m == 0 for m in level.values())
            cps = lcps_to_cps(lcps, env.states)
            reference = reference_lcps_to_cps(lcps, env.states)
            assert list(cps.conditionals) == list(reference)
            assert repr(cps.conditionals) == repr(reference)
            assert repr(derive_beliefs(env, lcps)) == repr(reference_derive_beliefs(env, lcps))
            positive = tuple({s: m for s, m in level.items() if m > 0} for level in lcps.levels)
            assert cps_to_lcps(cps).levels == positive
        assert seen["int"] >= 50 and seen["zero"] >= 100


class TestSiniscalchi:
    def test_regret_violation(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        v = check_siniscalchi(env, mu, 3)
        assert v.sequence == ("sm", "mp", "ps")
        assert v.event == ("sq",)
        assert v.lhs != v.rhs

    def test_uniform_ok(self):
        assert check_siniscalchi(fx.larry_environment(), fx.uniform_beliefs(), 3) is None

    def test_lex_ok(self):
        assert check_siniscalchi(fx.larry_environment(), fx.lex_beliefs()) is None

    def test_missing_belief_row_rejected(self):
        mu = fx.regret_beliefs()
        del mu["sm"]
        with pytest.raises(InputError, match="invalid belief system: .*undefined belief"):
            check_siniscalchi(fx.larry_environment(), mu)

    def test_float_belief_row_rejected(self):
        mu = fx.uniform_beliefs()
        mu["sm"] = {"sq": 0.5, "ma": 0.5}
        with pytest.raises(InputError, match="invalid belief system: .*non-rational mass"):
            check_siniscalchi(fx.larry_environment(), mu)

    def test_beliefs_validated_before_uniform_reach(self):
        with pytest.raises(InputError, match="invalid belief system"):
            check_siniscalchi(fx.skewed_environment(), {})

    def test_requires_uniform_reach(self):
        with pytest.raises(NonUniformReach):
            check_siniscalchi(fx.skewed_environment(), fx.skewed_beliefs())

    def test_max_len_bounds(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        with pytest.raises(InputError):
            check_siniscalchi(env, mu, 1)
        # The Larry violation needs three contingencies.
        assert check_siniscalchi(env, mu, 2) is None

    def test_single_contingency_holds_by_default(self):
        # No sequence of two distinct contingencies exists, so the rule holds;
        # only a max_len that was passed in is checked.
        forest = ContingencyForest(["h"], {})
        env = build_environment(["a", "b"], forest, {"a": {"h": ONE}, "b": {"h": ONE}})
        mu = {"h": {"a": F(1, 2), "b": F(1, 2)}}
        assert check_siniscalchi(env, mu) is None
        with pytest.raises(InputError, match="max_len must be at least 2"):
            check_siniscalchi(env, mu, 1)

    def test_agrees_with_complete_consistency_on_derived_beliefs(self, rng):
        env = fx.larry_environment()
        for _ in range(25):
            mu = derive_beliefs(env, random_lcps(rng, env.states))
            assert check_siniscalchi(env, mu) is None
            assert check_complete_consistency(env, mu).consistent


# Reference implementations: the scans `validate_complete_cps` and
# `check_siniscalchi` ran before they were cut to the checks that can fail
# (every nested pair (C, D) with every e in D; every permutation of
# contingencies with singleton and full-intersection events).


def reference_validate_complete_cps(cps):
    for c in cps.subsets():
        if c not in cps.conditionals:
            raise InputError(f"missing subset entry {sorted(c)}")
        row = cps.conditionals[c]
        if any(m < 0 for m in row.values()):
            return CpsViolation(c, None, None, min(row.values()), ZERO)
        if any(s not in cps.states for s in row):
            raise InputError(f"row {sorted(c)} has unknown states")
        total = sum(row.values(), ZERO)
        on_c = mass_of(row, c)
        if total != ONE or on_c != ONE:
            return CpsViolation(c, None, None, on_c, ONE)
    for c in cps.subsets():
        row_c = cps.conditionals[c]
        for k in range(1, len(c)):
            for d_tuple in combinations(sorted(c, key=cps.states.index), k):
                d = frozenset(d_tuple)
                row_d = cps.conditionals[d]
                d_mass = mass_of(row_c, d)
                for e in sorted(d, key=cps.states.index):
                    lhs = row_c.get(e, ZERO)
                    rhs = row_d.get(e, ZERO) * d_mass
                    if lhs != rhs:
                        return CpsViolation(c, d, e, lhs, rhs)
    return None


def reference_check_siniscalchi(env, mu, max_len=None):
    if max_len is None:
        max_len = len(env.forest.nodes)
    contingencies = env.forest.nodes
    supports = {h: frozenset(env.consistent_states[h]) for h in contingencies}
    for n in range(2, min(max_len, len(contingencies)) + 1):
        for seq in permutations(contingencies, n):
            ends = supports[seq[0]] & supports[seq[-1]]
            if not ends:
                continue
            left_prod = right_prod = ONE
            for a, b in zip(seq, seq[1:]):
                overlap = supports[a] & supports[b]
                left_prod *= mass_of(mu[b], overlap)
                right_prod *= mass_of(mu[a], overlap)
            events = [(s,) for s in sorted(ends, key=env.state_index.get)]
            if len(ends) > 1:
                events.append(tuple(sorted(ends, key=env.state_index.get)))
            for event in events:
                lhs = mass_of(mu[seq[0]], event) * left_prod
                rhs = mass_of(mu[seq[-1]], event) * right_prod
                if lhs != rhs:
                    return SiniscalchiViolation(seq, event, lhs, rhs)
    return None


def tampered_cps(rng):
    """The CPS of a random LCPS over at most six shuffled states, with zero
    to three rows of two or more states re-drawn as distributions."""
    states = [f"s{i}" for i in range(rng.randint(1, 6))]
    rng.shuffle(states)
    cps = lcps_to_cps(random_lcps(rng, states), tuple(states))
    wide = [c for c in cps.subsets() if len(c) >= 2]
    for c in rng.sample(wide, min(len(wide), rng.randint(0, 3))):
        cps.conditionals[c] = weights(rng, sorted(c), full_support=rng.random() < 0.5)
    return cps


def cps_document(rng, cps):
    """`cps` as a document with its events in shuffled order, each key
    listing the event's states in shuffled order and each row its entries in
    shuffled order, with explicit zeros at some states inside the event and
    outside it. One time in four, the row of one event other than S moves
    1/2, 1 or 3/2 from a state inside the event to one outside it, so the
    row has a negative mass or mass off its event: a row violation."""
    rows = {c: dict(row) for c, row in cps.conditionals.items()}
    narrow = [c for c in rows if len(c) < len(cps.states)]
    if narrow and rng.random() < 0.25:
        c = rng.choice(sorted(narrow, key=lambda c: sorted(map(cps.states.index, c))))
        inside = rng.choice([s for s in cps.states if s in c])
        outside = rng.choice([s for s in cps.states if s not in c])
        moved = rng.choice((Fraction(1, 2), ONE, Fraction(3, 2)))
        rows[c][inside] = rows[c].get(inside, ZERO) - moved
        rows[c][outside] = moved
    table = {}
    for c in rng.sample(list(cps.subsets()), len(rows)):
        row = rows[c]
        for s in rng.sample(cps.states, rng.randint(0, len(cps.states))):
            row.setdefault(s, ZERO)
        names = [s for s in cps.states if s in c]
        rng.shuffle(names)
        table[",".join(names)] = {s: str(row[s]) for s in rng.sample(list(row), len(row))}
    return {"conditionals": table}


def positive_rows(cps):
    return {c: {s: m for s, m in row.items() if m > 0} for c, row in cps.conditionals.items()}


class TestDocumentsMatchReferences:
    def test_read_validate_convert_and_write(self, monkeypatch):
        drawn = []  # the LCPS each `tampered_cps` call draws

        def recorded_lcps(rng, states):
            drawn.append(conftest.random_lcps(rng, states))
            return drawn[-1]

        monkeypatch.setitem(globals(), "random_lcps", recorded_lcps)
        rng, seen = random.Random(0xD0C), Counter()
        for _ in range(600):
            cps = tampered_cps(rng)
            read = sz.cps_from_doc(cps_document(rng, cps))
            assert sorted(read.states) == sorted(cps.states)
            outcome = validate_complete_cps(read)
            assert repr(outcome) == repr(reference_validate_complete_cps(read))
            again = sz.cps_from_doc(sz.cps_to_doc(read))
            assert again.states == read.states
            assert again.conditionals == {
                c: {s: m for s, m in row.items() if m != 0} for c, row in read.conditionals.items()
            }
            if outcome is not None:
                seen["row violation" if outcome.d is None else "chain-rule violation"] += 1
                with pytest.raises(InputError, match="^invalid complete CPS: "):
                    cps_to_lcps(read)
                continue
            # A valid CPS has exactly one LCPS, whose conditionings are its rows.
            lcps = cps_to_lcps(read)
            assert reference_lcps_to_cps(lcps, read.states) == positive_rows(read)
            source = drawn[-1]
            if reference_lcps_to_cps(source, read.states) == positive_rows(read):
                assert lcps.levels == tuple(
                    {s: m for s, m in level.items() if m > 0} for level in source.levels
                )
                seen["valid, the source LCPS"] += 1
            else:
                seen["valid, another LCPS"] += 1
        assert seen["row violation"] >= 80 and seen["chain-rule violation"] >= 120, seen
        assert seen["valid, the source LCPS"] >= 120 and seen["valid, another LCPS"] >= 25, seen


def uniform_reach_environment(rng):
    """Two to four distinct pairs of three or four states, sometimes with a
    triple, as flat contingencies each reached with the same probability 1/d,
    d being the most contingencies a state lies in; a state in fewer gets a
    singleton contingency for the rest of its mass. Two disjoint contingencies
    may be grouped under a parent (reached with 1/d too). Nodes are shuffled
    and number at most five."""
    while True:
        states = [f"s{i}" for i in range(rng.randint(3, 4))]
        pairs = list(combinations(states, 2))
        blocks = rng.sample(pairs, rng.randint(2, min(4, len(pairs))))
        if rng.random() < 0.5:
            blocks.append(tuple(rng.sample(states, 3)))
        degree = Counter(s for block in blocks for s in block)
        share = Fraction(1, max(degree.values()))
        eta = {s: {f"h{i}": share for i, block in enumerate(blocks) if s in block} for s in states}
        for s in states:
            if degree[s] * share < 1:
                eta[s][f"x{s}"] = 1 - degree[s] * share
        nodes, parent = list(dict.fromkeys(h for row in eta.values() for h in row)), {}
        disjoint = [
            (f"h{i}", f"h{j}")
            for (i, a), (j, b) in combinations(enumerate(blocks), 2)
            if not set(a) & set(b)
        ]
        if disjoint and rng.random() < 0.5:
            parent = dict.fromkeys(rng.choice(disjoint), "g")
            nodes.append("g")
        if len(nodes) <= 5:
            rng.shuffle(nodes)
            return build_environment(states, ContingencyForest(nodes, parent), eta)


def cyclic_window_environment(k):
    """k states and k flat contingencies, contingency i over the cyclic
    window of states i, i+1, i+2: each state lies in three windows."""
    states = [f"s{i}" for i in range(k)]
    nodes = [f"w{i}" for i in range(k)]
    third = Fraction(1, 3)
    eta = {s: {nodes[(i - j) % k]: third for j in range(3)} for i, s in enumerate(states)}
    return build_environment(states, ContingencyForest(nodes, {}), eta)


class TestMatchesFullScans:
    def test_complete_cps_first_violation(self):
        rng, seen = random.Random(0xC95), Counter()
        for _ in range(2000):
            cps = tampered_cps(rng)
            outcome = validate_complete_cps(cps)
            assert repr(outcome) == repr(reference_validate_complete_cps(cps))
            if outcome is None:
                seen["valid"] += 1
            else:
                assert outcome.d is not None and len(outcome.d) == 2
                seen["violating"] += 1
                seen["in a row of four or more"] += len(outcome.c) >= 4
        assert seen["valid"] >= 500 and seen["violating"] >= 500, seen
        assert seen["in a row of four or more"] >= 50, seen

    def test_siniscalchi_first_violation(self):
        seen = Counter()
        for env, mu in coherence_instances(0x51E, 1000, uniform_reach_environment):
            for max_len in (None, 2, 3):
                outcome = check_siniscalchi(env, mu, max_len)
                assert repr(outcome) == repr(reference_check_siniscalchi(env, mu, max_len))
                if outcome is None:
                    seen["none"] += max_len is None
                    continue
                seen[min(len(outcome.sequence), 4)] += 1
                first, last = outcome.sequence[0], outcome.sequence[-1]
                ends = set(env.consistent_states[first]) & set(env.consistent_states[last])
                seen["multi-state ends"] += len(ends) > 1
        assert seen[2] >= 100 and seen[3] >= 50 and seen[4] >= 1 and seen["none"] >= 300, seen
        assert seen["multi-state ends"] >= 20, seen


def larry_beliefs(rng, env):
    """Beliefs on the Larry ring from a one- or two-level LCPS, with zero to
    two of the pair rows sm, mp, ps redrawn."""
    order = list(env.states)
    rng.shuffle(order)
    cut = rng.choice([len(order), rng.randint(1, len(order) - 1)])
    parts = [part for part in (order[:cut], order[cut:]) if part]
    mu = derive_beliefs(env, Lcps(tuple(weights(rng, p, full_support=True) for p in parts)))
    for h in rng.sample(["sm", "mp", "ps"], rng.randint(0, 2)):
        mu[h] = weights(rng, env.consistent_states[h], full_support=rng.random() < 0.5)
    return mu


def has_prunable_step(env, mu):
    """True iff some contingency b gives no mass to its overlaps with two
    others a and c: the path a, b, c then has both overlap products 0."""
    supports = {h: set(env.consistent_states[h]) for h in env.forest.nodes}
    nulls = {
        b: {a for a in supports if a != b and (o := supports[a] & supports[b])
            and mass_of(mu[b], o) == 0}
        for b in supports
    }
    return any(len(hs) >= 2 for hs in nulls.values())


class TestLarryRing:
    def test_potentials_and_pruned_walk_match_full_scan(self, monkeypatch):
        verdicts = []
        potentials_hold = cps_module._potentials_hold

        def spy(*args):
            verdicts.append(potentials_hold(*args))
            return verdicts[-1]

        monkeypatch.setattr(cps_module, "_potentials_hold", spy)
        env, rng, seen = fx.larry_environment(), random.Random(0x1A7), Counter()
        for _ in range(100):
            mu = larry_beliefs(rng, env)
            verdicts.clear()
            outcome = check_siniscalchi(env, mu)
            assert repr(outcome) == repr(reference_check_siniscalchi(env, mu))
            if verdicts == [True]:
                seen["potentials"] += 1
            elif outcome is None:
                seen["walked, pruned"] += has_prunable_step(env, mu)
            else:
                seen["violation"] += 1
        assert seen["potentials"] >= 15 and seen["walked, pruned"] >= 15, seen
        assert seen["violation"] >= 40, seen

    def test_each_overlap_mass_is_summed_once(self, monkeypatch):
        # Larry's six contingencies meet in nine overlapping pairs; each
        # overlap is summed once from each side, 18 sums in all.
        calls = []
        overlap_mass = cps_module._overlap_mass
        monkeypatch.setattr(
            cps_module, "_overlap_mass", lambda *a: calls.append(a) or overlap_mass(*a)
        )
        assert check_siniscalchi(fx.larry_environment(), fx.lex_beliefs()) is None
        assert len(calls) == 18


class TestScale:
    def test_cyclic_windows_of_eight(self):
        env = cyclic_window_environment(8)
        mu = derive_beliefs(env, Lcps(({s: Fraction(1, 8) for s in env.states},)))
        started = time.perf_counter()
        assert check_siniscalchi(env, mu) is None
        assert time.perf_counter() - started < 2.0

    def test_twelve_state_two_level_cps(self):
        states = tuple(f"s{i}" for i in range(12))
        lcps = Lcps(
            ({s: Fraction(1, 7) for s in states[:7]}, {s: Fraction(1, 5) for s in states[7:]})
        )
        cps = lcps_to_cps(lcps, states)
        started = time.perf_counter()
        assert validate_complete_cps(cps) is None
        assert time.perf_counter() - started < 3.0

    def test_cyclic_windows_of_fourteen(self):
        # The walk alone would visit every simple path: several seconds here.
        env = cyclic_window_environment(14)
        mu = derive_beliefs(env, Lcps(({s: Fraction(1, 14) for s in env.states},)))
        started = time.perf_counter()
        assert check_siniscalchi(env, mu) is None
        assert time.perf_counter() - started < 0.1

    def test_cyclic_windows_of_two_thousand(self):
        # 2000 contingencies: intersecting every pair of supports alone
        # costs about 2 million set intersections; each contingency meets
        # only four others through the states of its window.
        env = cyclic_window_environment(2000)
        mu = derive_beliefs(env, Lcps(({s: Fraction(1, 2000) for s in env.states},)))
        started = time.perf_counter()
        assert check_siniscalchi(env, mu) is None
        assert time.perf_counter() - started < 0.2

    def test_fourteen_state_two_level_cps(self):
        states = tuple(f"s{i}" for i in range(14))
        lcps = Lcps(
            ({s: Fraction(1, 8) for s in states[:8]}, {s: Fraction(1, 6) for s in states[8:]})
        )
        cps = lcps_to_cps(lcps, states)
        started = time.perf_counter()
        assert validate_complete_cps(cps) is None
        assert time.perf_counter() - started < 1.0
