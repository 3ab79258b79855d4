"""`model.require_valid_beliefs`: one validation of a belief system, into the
integer view that every verdict path reads."""
import random
from fractions import Fraction
from math import lcm
from numbers import Rational

import pytest

from dutchbook import (
    ContingencyForest,
    FixedState,
    SimConfig,
    build_environment,
    check_complete_consistency,
    check_forward_consistency,
    check_siniscalchi,
    derive_beliefs,
    is_uniform_reach,
    run_rounds,
    validate_belief_system,
)
from dutchbook import fixtures as fx
from dutchbook.consistency import forward_violations
from dutchbook.errors import InputError, PreconditionViolation, UnsupportedEnvironment
from dutchbook.gambles import deterministic_synthesis, dutch_book_synthesis
from dutchbook.model import has_deterministic_continuation, require_valid_beliefs
from dutchbook.serialize import beliefs_from_doc, beliefs_to_doc

from conftest import random_environment, random_lcps, weights
from test_consistency import fine_lcps

F = Fraction

# Each mutation of Larry's uniform beliefs breaks one rule of
# `validate_belief_system`.
INVALID = {
    "unknown contingency": lambda mu: mu.update(zz={"sq": F(1)}),
    "renamed row": lambda mu: mu.update(zz=mu.pop("sm")),
    "missing row": lambda mu: mu.pop("sm"),
    "unknown state": lambda mu: mu["sm"].update(xx=F(0)),
    "float mass": lambda mu: mu.update(sm={"sq": 0.5, "ma": 0.5}),
    "negative mass": lambda mu: mu.update(sm={"sq": F(-1, 2), "ma": F(3, 2)}),
    "sum not 1": lambda mu: mu.update(sm={"sq": F(1, 2), "ma": F(1, 4)}),
    "mass outside S(h)": lambda mu: mu.update(sm={"sq": F(1, 2), "ma": F(1, 4), "pa": F(1, 4)}),
    "empty row": lambda mu: mu.update(sm={}),
}

ENTRY_POINTS = {
    "check_complete_consistency": check_complete_consistency,
    "check_forward_consistency": check_forward_consistency,
    "dutch_book_synthesis": dutch_book_synthesis,
    "deterministic_synthesis": deterministic_synthesis,
    "run_rounds": lambda env, mu: run_rounds(
        env, mu, fx.larry_book(), SimConfig(10, 0, FixedState("sq"))
    ),
    "check_siniscalchi": check_siniscalchi,
}


def reference_view(env, mu):
    """The view from its definition: for each h in node order, the lcm d of
    the row's denominators and mu(s|h)*d for each positive mass."""
    view = {}
    for h in env.forest.nodes:
        row = mu[h]
        d = lcm(*(F(m).denominator for m in row.values()))
        view[h] = d, {s: int(m * d) for s, m in row.items() if m > 0}
    return view


def reference_validate_belief_system(env, mu):
    """An independent oracle for the violations and their order: each rule
    checked on the masses themselves, with Fraction sums. The library's
    `validate_belief_system` and `require_valid_beliefs` read one pass, so
    comparing them with each other checks nothing; both are compared with
    this copy instead."""
    violations = []
    for h in mu:
        if h not in env.forest.index:
            violations.append((h, "unknown contingency"))
    for h in env.forest.nodes:
        if h not in mu:
            violations.append((h, "undefined belief"))
            continue
        row = mu[h]
        bad = [s for s in row if s not in env.state_index]
        if bad:
            violations.append((h, f"unknown states {bad}"))
            continue
        if not all(isinstance(m, Rational) for m in row.values()):
            violations.append((h, "non-rational mass"))
            continue
        if any(m.numerator < 0 for m in row.values()):
            violations.append((h, "negative mass"))
            continue
        total = sum(row.values(), F(0))
        if total != 1:
            violations.append((h, f"masses sum to {total}, not 1"))
            continue
        outside = [row[s] for s in row.keys() - env.reach[h].keys()]
        if any(outside):
            violations.append((h, f"mass {sum(outside, F(0))} outside S(h)"))
    return violations


def seeded_mutations(seed, count):
    """(env, mu) pairs: valid beliefs, then up to two random breakages."""
    rng = random.Random(seed)
    for _ in range(count):
        env = random_environment(rng, max_states=5, max_nodes=8)
        mu = derive_beliefs(env, random_lcps(rng, env.states))
        for _ in range(rng.choice((0, 0, 1, 2))):
            h = rng.choice([h for h in env.forest.nodes if h in mu] or ["zz"])
            kind = rng.randrange(6) if h in mu else 0
            if kind == 0:
                mu[h] = weights(rng, env.states)  # may reach outside S(h)
            elif kind == 1:
                mu[h] = {s: m * rng.choice((1, 2, F(1, 2))) for s, m in mu[h].items()}
            elif kind == 2:
                mu[h][rng.choice(env.states)] = F(0)
            elif kind == 3:
                mu[h] = {s: -m if rng.random() < 0.3 else m for s, m in mu[h].items()}
            elif kind == 4:
                mu[rng.choice((h, "zz"))] = mu.pop(h)
            else:
                mu[h] = {s: int(m) if m in (0, 1) else m for s, m in mu[h].items()}
        yield env, mu


# Breakages of Larry's uniform beliefs that stack several faults: in one
# row, across rows, and more rows than the InputError message carries.
COMBINED = {
    "unknown state and negative mass": lambda mu: mu.update(
        sm={"sq": F(-1, 2), "ma": F(3, 2), "xx": F(0)}),
    "unknown contingency and missing row": lambda mu: mu.update(zz=mu.pop("sm")),
    "five broken rows": lambda mu: mu.update(
        sq={"sq": F(1, 2)},
        ma={"ma": F(1), "yy": F(0)},
        pa={"pa": 0.5, "sq": 0.5},
        sm={"sq": F(-1), "ma": F(2)},
        ps={"sq": F(1, 2), "pa": F(1, 4), "ma": F(1, 4)},
    ),
}


def int_twin(mu):
    """mu with every mass 0 or 1 as a plain int."""
    return {h: {s: int(m) if m in (0, 1) else m for s, m in row.items()} for h, row in mu.items()}


class TestInvalidBeliefs:
    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
    @pytest.mark.parametrize("case", INVALID, ids=list(INVALID))
    def test_every_entry_point_raises_the_validation_message(self, case, entry):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        INVALID[case](mu)
        problems = validate_belief_system(env, mu)
        assert problems
        with pytest.raises(InputError) as caught:
            ENTRY_POINTS[entry](env, mu)
        assert str(caught.value) == f"invalid belief system: {problems[:3]}"

    def test_zero_masses_outside_the_support_are_valid_and_left_out(self):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        mu["sm"]["pa"] = F(0)
        mu["sq"]["ma"] = 0
        assert validate_belief_system(env, mu) == []
        view = require_valid_beliefs(env, mu)
        assert view["sm"] == (2, {"sq": 1, "ma": 1})
        assert view["sq"] == (1, {"sq": 1})
        assert list(view) == list(env.forest.nodes)


class TestKernelsReadTheView:
    # `beliefs_from_doc` builds a row's Fractions on its first lookup and
    # keeps them in `_rows`, so `_rows` names every row a kernel read
    # outside the validated integer view.
    @pytest.mark.parametrize("name", ["regret", "lex", "uniform"])
    def test_chain_rule_check_reads_no_belief_row(self, name):
        # regret breaks the rule on a walked path; lex and uniform pass
        # through the potentials.
        env = fx.larry_environment()
        mu = beliefs_from_doc(beliefs_to_doc(env, getattr(fx, f"{name}_beliefs")()))
        assert (check_siniscalchi(env, mu) is None) == (name != "regret")
        assert mu._rows == {}

    def test_deterministic_synthesis_reads_only_the_book_rows(self):
        # The violation (h0, h1) has no finite odds pair, as A is null at h1
        # and B at h0; (h0, h2) has one, so the book is on h0 and h2, and
        # h1's row is not read.
        forest = ContingencyForest(["h0", "h1", "h2"], {"h1": "h0", "h2": "h0"})
        env = build_environment(
            ["A", "B", "C", "D"], forest, {s: {"h1" if s in "AB" else "h2": F(1)} for s in "ABCD"}
        )
        mu = beliefs_from_doc({"beliefs": {
            "h0": {"A": "1/2", "C": "1/4", "D": "1/4"},
            "h1": {"B": "1"},
            "h2": {"C": "1/4", "D": "3/4"},
        }})
        book = deterministic_synthesis(env, mu).book
        assert list(book) == ["h0", "h2"]
        assert mu._rows.keys() <= book.keys()


class TestIntegerMasses:
    def test_int_masses_give_the_verdicts_of_their_fraction_twins(self):
        # Fine LCPSs put many rows at a single state; zero entries are added
        # inside S(h). Every verdict, witness and book of the int twin has
        # the repr of the Fraction original's.
        rng, seen = random.Random(0x1A7), {"int rows": 0, "complete": 0, "forward": 0,
                                           "deterministic": 0, "siniscalchi": 0}
        for _ in range(300):
            env = random_environment(rng, max_states=5, max_nodes=8)
            mu = derive_beliefs(env, fine_lcps(rng, env.states))
            for h in rng.sample(env.forest.nodes, rng.randint(0, min(2, len(env.forest.nodes)))):
                mu[h] = weights(rng, env.consistent_states[h])
            for h in env.forest.nodes:
                for s in env.consistent_states[h]:
                    if rng.random() < 0.2:
                        mu[h].setdefault(s, F(0))
            twin = int_twin(mu)
            if all(type(m) is F for row in twin.values() for m in row.values()):
                continue
            seen["int rows"] += 1
            assert repr(require_valid_beliefs(env, twin)) == repr(require_valid_beliefs(env, mu))

            complete = check_complete_consistency(env, mu)
            assert repr(check_complete_consistency(env, twin)) == repr(complete)
            if not complete.consistent:
                seen["complete"] += 1
                assert repr(dutch_book_synthesis(env, twin)) == repr(dutch_book_synthesis(env, mu))

            violations = list(forward_violations(env, require_valid_beliefs(env, mu)))
            assert repr(list(forward_violations(env, require_valid_beliefs(env, twin)))) == repr(violations)
            assert repr(check_forward_consistency(env, twin)) == repr(check_forward_consistency(env, mu))
            if violations:
                seen["forward"] += 1
                if has_deterministic_continuation(env):
                    seen["deterministic"] += 1
                    assert (repr(deterministic_synthesis(env, twin))
                            == repr(deterministic_synthesis(env, mu)))
                else:
                    with pytest.raises(UnsupportedEnvironment):
                        deterministic_synthesis(env, twin)
            else:
                with pytest.raises(PreconditionViolation):
                    deterministic_synthesis(env, twin)
            if is_uniform_reach(env):
                seen["siniscalchi"] += 1
                assert repr(check_siniscalchi(env, twin)) == repr(check_siniscalchi(env, mu))
        assert min(seen.values()) >= 20, seen


class TestValidationMatchesReference:
    def assert_matches_reference(self, env, mu):
        problems = reference_validate_belief_system(env, mu)
        assert validate_belief_system(env, mu) == problems
        if problems:
            with pytest.raises(InputError) as caught:
                require_valid_beliefs(env, mu)
            assert str(caught.value) == f"invalid belief system: {problems[:3]}"
        else:
            view = require_valid_beliefs(env, mu)
            assert view == reference_view(env, mu)
            assert list(view) == list(env.forest.nodes)
        return problems

    def test_seeded_mutations(self):
        seen = {"valid": 0, "invalid": 0}
        for env, mu in seeded_mutations(0xB1E, 600):
            seen["invalid" if self.assert_matches_reference(env, mu) else "valid"] += 1
        assert min(seen.values()) >= 150, seen

    @pytest.mark.parametrize("case", [*INVALID, *COMBINED], ids=[*INVALID, *COMBINED])
    def test_larry_breakages(self, case):
        env, mu = fx.larry_environment(), fx.uniform_beliefs()
        {**INVALID, **COMBINED}[case](mu)
        assert self.assert_matches_reference(env, mu)

    def test_combined_breakages_report_every_fault(self):
        env = fx.larry_environment()
        reasons = {}
        for case, breakage in COMBINED.items():
            mu = fx.uniform_beliefs()
            breakage(mu)
            reasons[case] = validate_belief_system(env, mu)
        assert reasons == {
            "unknown state and negative mass": [("sm", "unknown states ['xx']")],
            "unknown contingency and missing row": [
                ("zz", "unknown contingency"), ("sm", "undefined belief")],
            "five broken rows": [
                ("sq", "masses sum to 1/2, not 1"),
                ("ma", "unknown states ['yy']"),
                ("pa", "non-rational mass"),
                ("sm", "negative mass"),
                ("ps", "mass 1/4 outside S(h)"),
            ],
        }
