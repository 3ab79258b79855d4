"""The model helpers that own Fraction's integers: `_fraction` builds a
Fraction from its two slots, and `_integer_row`, `_exact_sum`, `_pair` and
`_quotients` read an exact Fraction's slots. Each is checked against the public
`Fraction` API it stands in for, and the LCPS level checks and the
deterministic path sums that now read them are checked against test-side
copies of the code they replaced."""
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from dutchbook import Lcps, classify_deterministic, consistency, validate_lcps
from dutchbook.errors import InputError
from dutchbook.model import ZERO, _exact_sum, _fraction, _integer_row, _pair, _quotients

from conftest import random_environment, random_lcps
from test_kernels import reference_per_path, wide_environment

F = Fraction


class Half(Fraction):
    """A Fraction subclass, which keeps the property path: it counts the
    reads of its properties."""

    reads = 0

    @property
    def numerator(self):
        Half.reads += 1
        return super().numerator

    @property
    def denominator(self):
        Half.reads += 1
        return super().denominator


def test_fraction_slot_layout():
    # `_fraction` and the slot readers rely on this layout; it is the same on
    # every supported interpreter, and a new one that changes it fails here.
    assert Fraction.__slots__ == ("_numerator", "_denominator")


# ------------------------------------------------------------------ _fraction

def seeded_pairs(seed, count):
    """(n, d) with d > 0: small, negative, zero and huge numerators, shared
    factors, and denominators of 1 and above 2**64."""
    rng = random.Random(seed)
    sizes = (3, 20, 64, 200)
    for i in range(count):
        n = rng.randint(-(2 ** rng.choice(sizes)), 2 ** rng.choice(sizes))
        d = rng.randint(1, 2 ** rng.choice(sizes))
        if i % 7 == 0:
            n = 0
        elif i % 7 == 1:
            d = 1
        elif i % 7 == 2:
            k = rng.randint(2, 2**40)
            n, d = n * k, d * k
        yield n, d


class TestFractionMatchesConstructor:
    def test_value_type_and_text(self):
        for n, d in seeded_pairs(0xF12A, 1200):
            got, want = _fraction(n, d), Fraction(n, d)
            assert type(got) is Fraction
            assert got == want and _pair(got) == (want.numerator, want.denominator)
            assert repr(got) == repr(want) and str(got) == str(want)
            assert hash(got) == hash(want)

    def test_arithmetic_and_order(self):
        ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
               operator.mod, operator.lt, operator.le, operator.eq, operator.ne)
        pairs = list(seeded_pairs(0xA51, 1000))
        rng = random.Random(7)
        for (n, d), (m, e) in zip(pairs, pairs[1:] + pairs[:1]):
            a, b = _fraction(n, d), _fraction(m, e)
            ra, rb = Fraction(n, d), Fraction(m, e)
            other = rng.choice((b, m, 3, -1))
            ref = rb if other is b else other
            for op in ops:
                if op in (operator.truediv, operator.floordiv, operator.mod) and not ref:
                    continue
                got, want = op(a, other), op(ra, ref)
                assert got == want and type(got) is type(want)
            assert -a == -ra and abs(a) == abs(ra) and a**2 == ra**2
            assert int(a) == int(ra) and round(a) == round(ra) and bool(a) == bool(ra)
            assert {a: 1}[ra] == 1


# ---------------------------------------------------------------- slot readers

def reference_integer_row(row):
    """`_integer_row` as it read the public properties only."""
    d = lcm(*[m.denominator for m in row.values()])
    return d, {s: x for s, m in row.items() if (x := m.numerator * (d // m.denominator))}


def seeded_rows(seed, count):
    """Rows of exact Fractions, of ints and bools, of a Fraction subclass, and
    of mixed types, with zeros, negatives and empty rows."""
    rng = random.Random(seed)

    def fraction():
        return F(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12, 2**70 + 1)))

    makers = (
        fraction,
        lambda: rng.randint(-3, 3),
        lambda: rng.choice((True, False)),
        lambda: Half(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: ZERO,
    )
    for i in range(count):
        size = rng.randint(0, 8)
        kind = i % 4
        if kind == 0:  # exact Fractions only
            values = [fraction() for _ in range(size)]
        elif kind == 1:  # one other type
            make = rng.choice(makers[1:])
            values = [make() for _ in range(size)]
        else:  # mixed
            values = [rng.choice(makers)() for _ in range(size)]
        yield {f"s{j}": v for j, v in enumerate(values)}


class TestSlotReadersMatchProperties:
    def test_integer_row(self):
        seen = Counter()
        for row in seeded_rows(0x1A7, 2000):
            got, want = _integer_row(row), reference_integer_row(row)
            assert got == want
            assert list(got[1]) == list(want[1])  # row order
            assert all(type(x) is int for x in got[1].values()) and type(got[0]) is int
            kinds = frozenset(map(type, row.values()))
            seen[kinds] += 1
            Half.reads = 0
            _integer_row(row)
            assert bool(Half.reads) == (Half in kinds)
        assert seen[frozenset()] and seen[frozenset({Fraction})]
        assert seen[frozenset({Half})] and seen[frozenset({int})] and seen[frozenset({bool})]
        assert sum(n for kinds, n in seen.items() if len(kinds) > 1) > 100

    def test_exact_sum_pair_and_quotients(self):
        rng = random.Random(0x9E7)
        quotients = 0
        for row in seeded_rows(0x5E7, 1000):
            values = list(row.values())
            total = _exact_sum(iter(values))
            assert type(total) is Fraction and total == sum(values, F(0))
            assert all(_pair(m) == (m.numerator, m.denominator) for m in values)
            # `_quotients` reads reach rows, whose masses are exact Fractions.
            positive = {s: m for s, m in row.items() if m > 0}
            if any(type(m) is not Fraction for m in positive.values()):
                continue
            quotients += 1
            d = rng.randint(1, 50)
            n = {s: rng.randint(0, 9) for s in positive if rng.random() < 0.7}
            want = {s: (n.get(s, 0) * m.denominator, d * m.numerator) for s, m in positive.items()}
            got = _quotients(d, n, positive)
            assert got == want and list(got) == list(want)
        assert quotients > 400


# ------------------------------------------------------------ LCPS validation

def reference_validate_lcps(lcps, states):
    """`validate_lcps` as it read the masses through Fraction comparisons."""
    if not lcps.levels:
        raise InputError("LCPS has no levels")
    known = set(states)
    for m, level in enumerate(lcps.levels):
        bad = [s for s in level if s not in known]
        if bad:
            raise InputError(f"LCPS level {m} has unknown states {bad}")
        for s, mass in level.items():
            if not isinstance(mass, (int, Fraction)):
                raise InputError(f"LCPS level {m}: non-rational mass at {s!r}")
        if any(mass.numerator < 0 for mass in level.values()):
            raise InputError(f"LCPS level {m} has negative mass")
        if sum(level.values(), F(0)) != 1:
            raise InputError(f"LCPS level {m} does not sum to 1")
    positive = Counter(s for level in lcps.levels for s, mass in level.items() if mass > 0)
    for s in states:
        if positive[s] != 1:
            raise InputError(f"state {s!r} is positive at {positive[s]} levels, expected 1")


def reference_view(lcps):
    """`Lcps._view` as it compared each mass with 0 as a Fraction."""
    view = {}
    for k, level in enumerate(lcps.levels):
        d = lcm(*(m.denominator for m in level.values()))
        for s, m in level.items():
            if m > 0:
                view.setdefault(s, (k, m.numerator * (d // m.denominator)))
    return view


def mutated_lcpss(seed, count):
    """(lcps, states): valid LCPSs, then up to two breakages each."""
    rng = random.Random(seed)
    for _ in range(count):
        states = [f"s{i}" for i in range(rng.randint(1, 6))]
        levels = [dict(level) for level in random_lcps(rng, states).levels]
        for _ in range(rng.choice((0, 0, 1, 2))):
            k = rng.randrange(len(levels))
            kind = rng.randrange(7)
            if kind == 0:
                levels[k] = {s: -m for s, m in levels[k].items()}
            elif kind == 1:
                levels[k] = {s: 2 * m for s, m in levels[k].items()}
            elif kind == 2:
                levels[k] = {}
            elif kind == 3:
                levels[k][rng.choice(states)] = ZERO
            elif kind == 4:
                levels.append(dict(levels[k]))
            elif kind == 5:
                levels[k] = {s: int(m) if m in (0, 1) else m for s, m in levels[k].items()}
            else:
                levels[k]["zz"] = F(0)
        yield Lcps(tuple(levels)), tuple(states)


def outcome(f, *args):
    try:
        return f(*args)
    except InputError as exc:
        return str(exc)


class TestLcpsLevelsCheckedOnIntegerRows:
    def test_validation_matches_reference(self):
        verdicts = Counter()
        for lcps, states in mutated_lcpss(0x1C95, 1500):
            got = outcome(validate_lcps, lcps, states)
            assert got == outcome(reference_validate_lcps, lcps, states)
            verdicts[re.sub(r"\d+|'\w+'|\[.*\]", "", got) if got else "valid"] += 1
            assert lcps._view == reference_view(lcps)
        assert verdicts["valid"] > 300 and len(verdicts) >= 5

    def test_messages_keep_their_order(self):
        lcps = Lcps(({"a": F(-1), "b": F(3)}, {}))
        with pytest.raises(InputError, match="LCPS level 0 has negative mass"):
            validate_lcps(lcps, ("a", "b"))
        with pytest.raises(InputError, match="LCPS level 1 does not sum to 1"):
            validate_lcps(Lcps(({"a": F(1)}, {})), ("a",))
        with pytest.raises(InputError, match="non-rational mass"):
            validate_lcps(Lcps(({"a": F(1)}, {"b": 1.0})), ("a", "b"))
        validate_lcps(Lcps(({"a": 1, "b": 0}, {"b": True})), ("a", "b"))
        # A level's integers are built only after its own checks, so a later
        # level's unknown state or non-rational mass does not come first.
        with pytest.raises(InputError, match="LCPS level 0 has negative mass"):
            validate_lcps(Lcps(({"a": F(-1), "b": F(2)}, {"z": 1.0})), ("a", "b"))

    def test_each_level_row_is_built_once(self, monkeypatch):
        built = Counter()

        def counting(row):
            built[id(row)] += 1
            return _integer_row(row)

        monkeypatch.setattr(consistency, "_integer_row", counting)
        lcps = Lcps(({"a": F(1, 3), "b": F(2, 3)}, {"c": F(1)}))
        validate_lcps(lcps, ("a", "b", "c"))
        assert lcps.level_for(("c",)) == 1 and lcps.level_for(("b", "c")) == 0
        assert sorted(built.values()) == [1, 1]


# ---------------------------------------------- deterministic path payoffs

def subset_books(rng, env):
    """Books that pay only some states, some with explicit zero payoffs."""
    paid = rng.sample(env.states, rng.randint(0, len(env.states)))
    book = {}
    for h in env.forest.nodes:
        row = {s: F(rng.randint(-20, 20), rng.randint(1, 9)) for s in env.reach[h]
               if s in paid and rng.random() < 0.6}
        if row:
            book[h] = row
    yield book
    yield {h: {s: ZERO for s in row} for h, row in book.items()}


class TestUnpaidStatesSkipThePathWalk:
    def test_matches_path_walk(self):
        rng = random.Random(0x5B5E7)
        for i in range(400):
            env = (random_environment, wide_environment)[i % 2](rng)
            for book in subset_books(rng, env):
                verdict = classify_deterministic(env, book)
                want = reference_per_path(env, book)
                assert verdict.per_path == want
                assert all(list(verdict.per_path[s]) == list(want[s]) for s in env.states)
                assert all(type(v) is Fraction for row in verdict.per_path.values()
                           for v in row.values())
