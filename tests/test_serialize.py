import json
import random
import re
import sys
from fractions import Fraction

import pytest

from dutchbook import check_complete_consistency, classify_dutch_book, generalized_odds_ratio
from dutchbook import fixtures as fx
from dutchbook import serialize as sz
from dutchbook.errors import InputError

F = Fraction


class TestRationals:
    @pytest.mark.parametrize("text,value", [("1/3", F(1, 3)), ("-7/2", F(-7, 2)), ("4", F(4)), ("0", F(0))])
    def test_parse(self, text, value):
        assert sz.parse_rational(text) == value

    @pytest.mark.parametrize("text", ["0.5", "1/0", "1 / 3", "", "1/-3", None, 3, "inf"])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            sz.parse_rational(text)

    def test_matches_fraction_of_text(self):
        # parse_rational takes p and q from its regex groups; the reference
        # is the same regex gate followed by Fraction(text).
        gate = re.compile(r"^-?\d+(/[1-9]\d*)?$")

        def reference(text):
            if not gate.match(text):
                return "reject"
            try:
                return Fraction(text)
            except ValueError as exc:
                return f"value: {exc}"

        def parsed(text):
            try:
                return sz.parse_rational(text)
            except InputError as exc:
                return "reject" if "expected rational string" in str(exc) else str(exc)

        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
        rng = random.Random(11)
        tokens = ["0", "00", "1", "7", "9", "10", "007", "-", "-0", "/", "+", " ", "\n", ".",
                  "_", "e", "\u0663", "\u0661\u0662", "\uff15", ""]

        def number(max_digits):
            return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, max_digits)))

        texts = ["-0", "0/5", "-0/7", "007/010", "\u0663/4", "-\u0663", "1/\u0664", "3/4\n",
                 "1" * limit, "-" + "9" * limit, "1" * (limit + 1), "2/" + "3" * (limit + 1),
                 "1" * (limit + 1) + "/" + "3" * (limit + 1)]
        texts += ["".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
                  for _ in range(3000)]
        texts += [rng.choice(["", "-"]) + number(12) + rng.choice(["", "/" + number(12)])
                  for _ in range(3000)]
        texts += [rng.choice(["", "-"]) + number(limit) + "/" + number(limit)
                  for _ in range(20)]
        accepted = 0
        for text in texts:
            want, got = reference(text), parsed(text)
            if isinstance(want, Fraction):
                accepted += 1
                assert type(got) is Fraction and got == want, text
            else:
                assert got == want, text
        assert 3000 < accepted < len(texts)

    def test_format_lowest_terms(self):
        assert sz.format_rational(F(2, 6)) == "1/3"
        assert sz.format_rational(F(4, 2)) == "2"


class TestEnvironmentDocs:
    def test_round_trip(self):
        env = fx.nested_environment()
        doc = sz.environment_to_doc(env)
        again = sz.environment_from_doc(doc)
        assert sz.environment_to_doc(again) == doc
        assert again.states == env.states
        assert again.reach == env.reach

    def test_rejects_unknown_keys(self):
        doc = sz.environment_to_doc(fx.larry_environment())
        doc["extra"] = 1
        with pytest.raises(InputError, match="unknown keys"):
            sz.environment_from_doc(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(InputError, match="missing keys"):
            sz.environment_from_doc({"states": ["a"]})


class TestTableDocs:
    def test_beliefs_round_trip(self):
        env = fx.larry_environment()
        doc = sz.beliefs_to_doc(env, fx.regret_beliefs())
        assert sz.beliefs_from_doc(doc) == fx.regret_beliefs()

    def test_gambles_round_trip_drops_zero_rows(self):
        env = fx.larry_environment()
        doc = sz.gambles_to_doc(env, fx.larry_book())
        assert set(doc["gambles"]) == {"sm", "mp", "ps"}
        parsed = sz.gambles_from_doc(doc)
        assert parsed["sm"] == {"ma": F(9), "sq": F(-10)}


class TestLcpsCpsDocs:
    def test_lcps_round_trip(self):
        doc = sz.lcps_to_doc(fx.lex_lcps(), ("sq", "ma", "pa"))
        assert doc == {"levels": [{"sq": "1"}, {"ma": "2/3", "pa": "1/3"}]}
        assert sz.lcps_from_doc(doc) == fx.lex_lcps()

    def test_lcps_requires_levels(self):
        with pytest.raises(InputError):
            sz.lcps_from_doc({"levels": []})

    def test_cps_round_trip(self):
        from dutchbook import lcps_to_cps

        cps = lcps_to_cps(fx.lex_lcps(), ("sq", "ma", "pa"))
        doc = sz.cps_to_doc(cps)
        assert doc["conditionals"]["ma,pa"] == {"ma": "2/3", "pa": "1/3"}
        again = sz.cps_from_doc(doc)
        assert again.states == cps.states
        assert again.conditionals == cps.conditionals

    def test_cps_rejects_a_state_with_a_comma(self):
        # A key "a,b,c" could not tell state "a,b" and "c" from "a", "b", "c".
        from dutchbook import Lcps, lcps_to_cps

        cps = lcps_to_cps(Lcps(({"a,b": F(1)}, {"c": F(1)})), ("a,b", "c"))
        with pytest.raises(InputError, match=r"cps state 'a,b' contains ','"):
            sz.cps_to_doc(cps)

    def test_cps_requires_all_events(self):
        doc = {"conditionals": {"a,b": {"a": "1"}, "a": {"a": "1"}}}
        with pytest.raises(InputError, match="conditioning events"):
            sz.cps_from_doc(doc)

    def test_cps_rejects_a_key_that_repeats_a_state(self):
        # "a,a" would otherwise stand in for the event {a}.
        doc = {"conditionals": {"a,b": {"a": "1"}, "a,a": {"a": "1"}, "b": {"b": "1"}}}
        with pytest.raises(InputError, match=r"cps key 'a,a' repeats a state"):
            sz.cps_from_doc(doc)

    def test_cps_rejects_two_keys_for_one_event(self):
        # Four keys for three events would pass the count check, the last row winning.
        doc = {"conditionals": {"a,b": {"a": "1/2", "b": "1/2"}, "b,a": {"a": "1/3", "b": "2/3"},
                                "a": {"a": "1"}, "b": {"b": "1"}}}
        with pytest.raises(InputError, match=r"cps key 'b,a' names an event already given"):
            sz.cps_from_doc(doc)


class TestVerdictDocs:
    def test_violation_doc(self):
        result = check_complete_consistency(fx.larry_environment(), fx.regret_beliefs())
        doc = sz.violation_to_doc(result.violation)
        assert doc["product"] == "1/27"
        assert all(set(link) == {"h", "from", "to", "value"} for link in doc["cycle"])
        links = sz.violation_links(doc)
        assert [(l.h, l.src, l.dst) for l in links] == [
            (e["h"], e["from"], e["to"]) for e in doc["cycle"]
        ]

    def test_stored_witness_rehydrates_without_values(self):
        env, mu = fx.larry_environment(), fx.regret_beliefs()
        doc = sz.violation_to_doc(check_complete_consistency(env, mu).violation)
        links = sz.violation_links(json.loads(sz.dumps(doc)))
        assert all(link.value is None for link in links)
        assert generalized_odds_ratio(env, mu, links).value == F(1, 27)

    def test_certificate_doc(self):
        result = check_complete_consistency(fx.larry_environment(), fx.lex_beliefs())
        doc = sz.certificate_to_doc(result.certificate, ("sq", "ma", "pa"))
        assert doc == {
            "levels": [["sq"], ["ma", "pa"]],
            "potentials": {"sq": "1", "ma": "2/3", "pa": "1/3"},
        }

    def test_book_verdict_doc(self):
        verdict = classify_dutch_book(fx.larry_environment(), fx.larry_book())
        doc = sz.book_verdict_to_doc(verdict, ("sq", "ma", "pa"))
        assert doc == {
            "perState": {"sq": "-1/3", "ma": "-1/3", "pa": "-1/3"},
            "isDutchBook": True,
        }


class TestFiles:
    def test_dumps_is_stable_json(self):
        text = sz.dumps({"a": 1})
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}

    def test_load_file_errors(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            sz.load_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            sz.load_file(str(bad))

    @pytest.mark.parametrize(
        "content",
        [b"1" + b"0" * 5000, b"\xff\xfe{}", b'{"a": 1' + b"0" * 4400 + b"}"],
        ids=["5001-digit-document", "not-utf-8", "4401-digit-value"],
    )
    def test_unreadable_json_is_input_error(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(InputError, match="invalid JSON"):
            sz.load_file(str(bad))

    def test_directory_is_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            sz.load_file(str(tmp_path))
