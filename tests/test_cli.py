"""End-to-end CLI tests against the canonical JSON files in tests/data."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dutchbook import cli, gambles
from dutchbook.cli import main
from dutchbook.gambles import AcceptanceReport

DATA = Path(__file__).parent / "data"


def run(capsys, *argv) -> tuple[int, dict]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerdictCommands:
    def test_check_complete_regret(self, capsys):
        code, payload = run(
            capsys, "check-complete",
            "--env", DATA / "larry.json", "--beliefs", DATA / "regret.json",
        )
        assert code == 1
        assert payload["consistent"] is False
        assert payload["violation"]["product"] == "1/27"

    def test_check_complete_lex(self, capsys):
        code, payload = run(
            capsys, "check-complete",
            "--env", DATA / "larry.json", "--beliefs", DATA / "lex.json",
        )
        assert code == 0
        assert payload["certificate"]["levels"] == [["sq"], ["ma", "pa"]]

    def test_extract_lcps_uniform_golden(self, capsys):
        code, payload = run(
            capsys, "extract-lcps",
            "--env", DATA / "larry.json", "--beliefs", DATA / "uniform.json",
        )
        assert code == 0
        assert payload == {"levels": [{"sq": "1/3", "ma": "1/3", "pa": "1/3"}]}

    def test_verify_book_larry(self, capsys):
        code, payload = run(
            capsys, "verify-book",
            "--env", DATA / "larry.json", "--book", DATA / "larry-book.json",
            "--beliefs", DATA / "regret.json",
        )
        assert code == 0
        assert payload["perState"] == {"sq": "-1/3", "ma": "-1/3", "pa": "-1/3"}
        assert payload["acceptance"]["accepted"] is True

    def test_verify_book_rejected_under_uniform(self, capsys):
        code, payload = run(
            capsys, "verify-book",
            "--env", DATA / "larry.json", "--book", DATA / "larry-book.json",
            "--beliefs", DATA / "uniform.json",
        )
        assert code == 1
        assert payload["isDutchBook"] is True  # the book itself still qualifies
        assert payload["acceptance"]["accepted"] is False

    def test_verify_deterministic(self, capsys):
        code, payload = run(
            capsys, "verify-deterministic",
            "--env", DATA / "nested.json", "--book", DATA / "ddb-nested.json",
            "--beliefs", DATA / "drift.json",
        )
        assert code == 0
        assert payload["perPath"]["A"] == {"h1": "-1/3"}
        assert payload["isDeterministicDB"] is True

    def test_check_forward(self, capsys):
        code, payload = run(
            capsys, "check-forward",
            "--env", DATA / "nested.json", "--beliefs", DATA / "drift.json",
        )
        assert code == 1
        assert payload["violation"]["h"] == "h0"
        assert payload["violation"]["hprime"] == "h1"
        code, payload = run(
            capsys, "check-forward",
            "--env", DATA / "nested.json", "--beliefs", DATA / "nested-ok.json",
        )
        assert code == 0 and payload == {"consistent": True}

    def test_check_siniscalchi(self, capsys):
        code, payload = run(
            capsys, "check-siniscalchi",
            "--env", DATA / "larry.json", "--beliefs", DATA / "regret.json",
            "--max-len", 3,
        )
        assert code == 1
        assert payload["violation"]["sequence"] == ["sm", "mp", "ps"]

    def test_check_siniscalchi_single_contingency(self, capsys, tmp_path):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({
            "states": ["a", "b"],
            "contingencies": [{"id": "h", "parent": None}],
            "eta": {"a": {"h": "1"}, "b": {"h": "1"}},
        }))
        beliefs = tmp_path / "beliefs.json"
        beliefs.write_text(json.dumps({"beliefs": {"h": {"a": "1/2", "b": "1/2"}}}))
        code, payload = run(capsys, "check-siniscalchi", "--env", env, "--beliefs", beliefs)
        assert code == 0 and payload == {"ok": True}

    def test_siniscalchi_non_uniform_is_input_error(self, capsys):
        code, payload = run(
            capsys, "check-siniscalchi",
            "--env", DATA / "skewed.json", "--beliefs", DATA / "skewed-beliefs.json",
        )
        assert code == 2
        assert "uniform" in payload["error"]["message"]

    def test_validate(self, capsys):
        code, payload = run(capsys, "validate", "--env", DATA / "larry.json")
        assert code == 0
        assert payload["uniformReach"] is True
        code, payload = run(
            capsys, "validate",
            "--env", DATA / "larry.json", "--beliefs", DATA / "drift.json",
        )
        assert code == 1 and payload["ok"] is False

    def test_validate_lists_every_belief_problem_in_order(self, capsys):
        # Unknown contingencies first, then one reason per broken row in
        # node order; the valid row "ma" is not listed.
        code, payload = run(
            capsys, "validate",
            "--env", DATA / "larry.json", "--beliefs", DATA / "broken-beliefs.json",
        )
        assert code == 1 and payload["ok"] is False
        assert payload["problems"] == [
            {"contingency": "zz", "reason": "unknown contingency"},
            {"contingency": "sq", "reason": "unknown states ['xx']"},
            {"contingency": "pa", "reason": "undefined belief"},
            {"contingency": "sm", "reason": "negative mass"},
            {"contingency": "mp", "reason": "masses sum to 3/4, not 1"},
            {"contingency": "ps", "reason": "mass 1/4 outside S(h)"},
        ]


class TestConversionCommands:
    def test_round_trip_is_file_level_fixed_point(self, capsys, tmp_path):
        beliefs1 = tmp_path / "b1.json"
        lcps1 = tmp_path / "l1.json"
        beliefs2 = tmp_path / "b2.json"
        assert main(["derive-beliefs", "--env", str(DATA / "larry.json"),
                     "--lcps", str(DATA / "lex-lcps.json"), "--out", str(beliefs1)]) == 0
        assert main(["extract-lcps", "--env", str(DATA / "larry.json"),
                     "--beliefs", str(beliefs1), "--out", str(lcps1)]) == 0
        assert main(["derive-beliefs", "--env", str(DATA / "larry.json"),
                     "--lcps", str(lcps1), "--out", str(beliefs2)]) == 0
        capsys.readouterr()
        assert lcps1.read_bytes() == (DATA / "lex-lcps.json").read_bytes()
        assert beliefs2.read_bytes() == beliefs1.read_bytes()

    def test_to_cps_to_lcps_round_trip(self, capsys, tmp_path):
        cps = tmp_path / "c.json"
        assert main(["to-cps", "--lcps", str(DATA / "lex-lcps.json"),
                     "--env", str(DATA / "larry.json"), "--out", str(cps)]) == 0
        capsys.readouterr()
        code, payload = run(capsys, "to-lcps", "--cps", cps)
        assert code == 0
        assert payload == json.loads((DATA / "lex-lcps.json").read_text())


class TestSynthesisCommands:
    def test_synth_book(self, capsys):
        code, payload = run(
            capsys, "synth-book",
            "--env", DATA / "larry.json", "--beliefs", DATA / "regret.json",
        )
        assert code == 0
        assert payload["verdict"]["isDutchBook"] is True
        assert payload["acceptance"]["accepted"] is True

    def test_synth_book_consistent_is_negative(self, capsys):
        code, payload = run(
            capsys, "synth-book",
            "--env", DATA / "larry.json", "--beliefs", DATA / "uniform.json",
        )
        assert code == 1
        assert payload["synthesized"] is False

    def test_synth_deterministic(self, capsys):
        code, payload = run(
            capsys, "synth-deterministic",
            "--env", DATA / "nested.json", "--beliefs", DATA / "drift.json",
        )
        assert code == 0
        assert payload["verdict"]["isDeterministicDB"] is True

    def test_synth_deterministic_without_finite_pair(self, capsys, tmp_path):
        # Every violating pair of states has a zero mass, so no two finite
        # odds compare; the indicator book is built, and verifies.
        env, beliefs = DATA / "single-child.json", DATA / "disjoint-beliefs.json"
        code, payload = run(capsys, "synth-deterministic", "--env", env, "--beliefs", beliefs)
        assert code == 0
        assert payload["gambles"] == {
            "r": {"a": "1/4", "b": "1/4", "c": "-3/4"},
            "x": {"a": "-1/2", "b": "-1/2", "c": "1/2"},
        }
        book = tmp_path / "book.json"
        book.write_text(json.dumps({"gambles": payload["gambles"]}))
        code, payload = run(capsys, "verify-deterministic", "--env", env, "--book", book,
                            "--beliefs", beliefs)
        assert code == 0
        assert payload["perPath"] == {s: {"x": "-1/4"} for s in "abc"}

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["synth-book", "--env", "larry.json", "--beliefs", "regret.json"],
                "70cc3b57b79a04f6a338ace7bcfb9b1b4d650e90ed5582704ec7cd56594ada26",
            ),
            (
                ["synth-deterministic", "--env", "nested.json", "--beliefs", "drift.json"],
                "827dfead53bed4ade1df9cc0d7c1babd44060a128d2f7003407b729f83b58b35",
            ),
            (
                ["verify-book", "--env", "larry.json", "--book", "larry-book.json",
                 "--beliefs", "regret.json"],
                "f377f145315a52dde6b382d03227e2bdc8f119f9d791d3b2cfbe90f63da2d081",
            ),
            (
                ["verify-deterministic", "--env", "larry.json", "--book", "larry-book.json",
                 "--beliefs", "regret.json"],
                "11177ee66ff19f451bfc95e11cf0fb7294513b032b38dfdb62a385494ec476f9",
            ),
            (
                ["check-siniscalchi", "--env", "larry.json", "--beliefs", "uniform.json"],
                "12b34da73b0c67a0319e6eddbd3582af66e3b558b4d44e4a6860e0cec20d726f",
            ),
            (
                ["derive-beliefs", "--env", "larry.json", "--lcps", "lex-lcps.json"],
                "d1bcc68fafbd91b3a203242af701e6c299651642b1aa0fc1214f1698c94a73a5",
            ),
            (
                ["extract-lcps", "--env", "nested.json", "--beliefs", "nested-ok.json"],
                "83439557d98eb06da77499d6c7dd7fbc2980f44667aa9d80feb41d386e3ab286",
            ),
            (
                ["check-complete", "--env", "larry.json", "--beliefs", "lex.json"],
                "44b3ec047d30c3d5785721a018164804bde7d8e7896c5a42525af494970675fa",
            ),
            (
                ["to-cps", "--lcps", "lex-lcps.json", "--env", "larry.json"],
                "169a2e3e29f3a89b216de23b04098e61581f27b457658033bc7f7158ba9ff842",
            ),
            (
                # keys out of state order and explicit zeros in the input rows
                ["to-lcps", "--cps", "lex-cps.json"],
                "067b1652865a5aef05019487d44bd17552aa760469ad46e8db2e7644ee1f0f0e",
            ),
            (
                ["validate", "--env", "larry.json", "--beliefs", "regret.json",
                 "--lcps", "lex-lcps.json"],
                "416b2fc9df1a8e046ac199d17d3d9eaf6cca725f25c8d022a4a674f9baf22140",
            ),
        ],
        ids=["synth-book", "synth-deterministic", "verify-book", "verify-deterministic",
             "check-siniscalchi", "derive-beliefs", "extract-lcps", "check-complete", "to-cps",
             "to-lcps", "validate"],
    )
    def test_stdout_is_pinned(self, capsys, argv, digest):
        # sha256 of stdout as printed when the CLI re-verified synthesized
        # books itself: serializing the synthesizer's own reports must not
        # change a byte.
        main([str(DATA / a) if a.endswith(".json") else a for a in argv])
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, env, beliefs, expected",
        [
            ("synth-book", "larry.json", "regret.json",
             {"accepts_system": 1, "classify_dutch_book": 1, "classify_deterministic": 0}),
            ("synth-deterministic", "nested.json", "drift.json",
             {"accepts_system": 1, "classify_dutch_book": 0, "classify_deterministic": 1}),
        ],
        ids=["synth-book", "synth-deterministic"],
    )
    def test_one_verification_per_synthesis(self, capsys, monkeypatch, command, env, beliefs,
                                            expected):
        # synth-book reads its eps bound off the anchor's entries alone, so
        # each synthesizer classifies only its final book; the CLI re-checks
        # nothing.
        calls = dict.fromkeys(expected, 0)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in expected:
            for module in (gambles, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(gambles, name)))
        code = main([command, "--env", str(DATA / env), "--beliefs", str(DATA / beliefs)])
        capsys.readouterr()
        assert code == 0
        assert calls == expected

    @pytest.mark.parametrize(
        "command, env, beliefs, message",
        [
            ("synth-book", "larry.json", "regret.json", "telescoping book"),
            ("synth-deterministic", "nested.json", "drift.json", "deterministic book"),
        ],
        ids=["synth-book", "synth-deterministic"],
    )
    def test_failed_verification_is_internal_error(self, capsys, monkeypatch, command, env,
                                                   beliefs, message):
        monkeypatch.setattr(gambles, "accepts_system", lambda *_: AcceptanceReport(False, {}))
        code = main([command, "--env", str(DATA / env), "--beliefs", str(DATA / beliefs)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == {
            "code": "internal",
            "message": f"InternalError: {message} failed verification",
            "location": None,
        }
        assert captured.err.startswith("Traceback")


class TestSimulateCommand:
    def test_fixed_state(self, capsys):
        code, payload = run(
            capsys, "simulate",
            "--env", DATA / "larry.json", "--beliefs", DATA / "regret.json",
            "--book", DATA / "larry-book.json",
            "--rounds", 500, "--seed", 11, "--state", "sq",
        )
        assert code == 0
        assert payload["perState"]["sq"]["exactExpectation"] == "-1/3"
        assert payload["flagged"] == []

    def test_reproducible(self, capsys):
        args = ["simulate", "--env", str(DATA / "larry.json"),
                "--beliefs", str(DATA / "regret.json"),
                "--book", str(DATA / "larry-book.json"),
                "--rounds", "200", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "mode, digest",
        [
            (
                ["--state", "sq"],
                "3b8201e35cca2a37e993f30f5c161e07a1b3d83ab5dd734c462e757856409295",
            ),
            ([], "4383d0cfa28de3c6c3b131c16ebadc00c58cc8823ac39c7d2d69f0955ea6ebb0"),
        ],
        ids=["fixed-state", "prior"],
    )
    def test_draws_are_pinned(self, capsys, mode, digest):
        # sha256 of stdout as the Fraction-comparison replay printed it: any
        # change to the seeding, the draws or the float sums shows here.
        code = main(["simulate", "--env", str(DATA / "larry.json"),
                     "--beliefs", str(DATA / "regret.json"),
                     "--book", str(DATA / "larry-book.json"),
                     "--rounds", "5000", "--seed", "2022", *mode])
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "state, digest",
        [
            ("A", "a4269c3639cd0e9f76a13e904df8ef5714555d3b8222ba01b6043c35ab2cb37c"),
            ("B", "15b512a227f87937ddd8c3428a8bd8b06bc06747ad65647ce3a85faefeaaef87"),
        ],
    )
    def test_one_path_states_are_pinned(self, capsys, state, digest):
        # States A and B continue along one path, so no round draws. sha256
        # of stdout as printed when every round still seeded a generator.
        # A's sampleStdDev, 4.649959278143782e-08, comes only from adding its
        # square once per round, in round order.
        code = main(["simulate", "--env", str(DATA / "nested.json"),
                     "--beliefs", str(DATA / "drift.json"),
                     "--book", str(DATA / "ddb-nested.json"),
                     "--rounds", "1000", "--seed", "42", "--state", state])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert json.loads(out)["perState"][state]["count"] == 1000


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestSimulateStrictJson:
    """States a, b; root r with leaves x, y; eta[a] puts 2**-40 on y, so 20
    rounds at a never reach y, and a book pays `payoff` at y."""

    def run(self, capsys, tmp_path, payoff):
        env = {
            "states": ["a", "b"],
            "contingencies": [{"id": "r", "parent": None}, {"id": "x", "parent": "r"},
                              {"id": "y", "parent": "r"}],
            "eta": {"a": {"x": f"{2**40 - 1}/{2**40}", "y": f"1/{2**40}"},
                    "b": {"x": "1/2", "y": "1/2"}},
        }
        half = {"a": "1/2", "b": "1/2"}
        files = {
            "env": env,
            "beliefs": {"beliefs": {"r": half, "x": half, "y": half}},
            "book": {"gambles": {"y": {"a": payoff, "b": payoff}}},
        }
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = main(["simulate", *(f"--{name}={tmp_path / name}.json" for name in files),
                     "--rounds", "20", "--seed", "1", "--state", "a"])
        captured = capsys.readouterr()
        return code, json.loads(captured.out, parse_constant=_reject_constant), captured.err

    def test_infinite_deviation_is_the_string_inf(self, capsys, tmp_path):
        code, payload, err = self.run(capsys, tmp_path, "5")
        assert code == 0
        assert payload["perState"]["a"]["sampleStdDev"] == 0.0
        assert payload["deviations"] == {"a": "inf"}
        assert payload["flagged"] == ["a"]
        assert err == ""

    @pytest.mark.parametrize("payoff", [str(10**200), str(10**400)], ids=["1e200", "1e400"])
    def test_overflowing_payoff_is_a_domain_error(self, capsys, tmp_path, payoff):
        code, payload, err = self.run(capsys, tmp_path, payoff)
        assert code == 2
        assert payload["error"]["code"] == "domain"
        assert err == ""


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, payload = run(capsys, "validate", "--env", "no-such-file.json")
        assert code == 2
        assert payload["error"]["code"] == "input"

    @pytest.mark.parametrize(
        "conditionals, key",
        [
            ({"a,b": {"a": "1"}, "a,a": {"a": "1"}, "b": {"b": "1"}}, "a,a"),
            ({"a,b": {"a": "1/2", "b": "1/2"}, "b,a": {"a": "1/3", "b": "2/3"},
              "a": {"a": "1"}, "b": {"b": "1"}}, "b,a"),
        ],
        ids=["repeated-state", "repeated-event"],
    )
    def test_to_lcps_rejects_duplicate_cps_events(self, capsys, tmp_path, conditionals, key):
        cps = tmp_path / "cps.json"
        cps.write_text(json.dumps({"conditionals": conditionals}))
        code, payload = run(capsys, "to-lcps", "--cps", cps)
        assert code == 2
        assert payload["error"]["code"] == "input"
        assert repr(key) in payload["error"]["message"]

    def test_invalid_cps_message_does_not_depend_on_string_hashing(self, tmp_path):
        # A frozenset of strings iterates in an order set by PYTHONHASHSEED;
        # seeds 0 and 2 order {'a', 'b'} differently, so a message holding
        # the repr of an event would differ between the two runs.
        cps = tmp_path / "cps.json"
        cps.write_text(json.dumps({"conditionals": {
            "a": {"a": "1"}, "b": {"b": "1"}, "a,b": {"a": "2", "b": "-1"}}}))
        src = str(Path(cli.__file__).parents[1])
        outputs = []
        for seed in ("0", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "dutchbook.cli", "to-lcps", "--cps", str(cps)],
                capture_output=True, check=False,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            )
            assert done.returncode == 2, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["error"] == {
            "code": "input",
            "message": "invalid complete CPS: row {a,b} has negative mass -1",
            "location": None,
        }

    def test_to_lcps_rejects_a_row_with_unknown_states(self, capsys, tmp_path):
        # Row {b} holds "zz", a state of no CPS key; its mass 0 keeps the
        # row a distribution, so only the state check refuses it.
        cps = tmp_path / "cps.json"
        cps.write_text(json.dumps({"conditionals": {
            "a": {"a": "1"}, "b": {"b": "1", "zz": "0"}, "a,b": {"a": "1/2", "b": "1/2"}}}))
        code, payload = run(capsys, "to-lcps", "--cps", cps)
        assert code == 2
        assert payload["error"] == {
            "code": "input", "message": "row ['b'] has unknown states", "location": None,
        }

    def test_to_cps_rejects_a_state_with_a_comma(self, capsys, tmp_path):
        lcps = tmp_path / "lcps.json"
        lcps.write_text(json.dumps({"levels": [{"a,b": "1"}, {"c": "1"}]}))
        code, payload = run(capsys, "to-cps", "--lcps", lcps)
        assert code == 2
        assert payload["error"]["code"] == "input"
        assert "'a,b'" in payload["error"]["message"]

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, payload = run(capsys, "validate", "--env", bad)
        assert code == 2

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["validate", "--env", str(deep)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"]["code"] == "input"
        assert captured.err == ""

    def test_usage_error_is_json(self, capsys):
        code, payload = run(capsys, "simulate", "--env", DATA / "larry.json")
        assert code == 2
        assert "error" in payload

    def test_unsupported_environment(self, capsys, tmp_path):
        # Forward-inconsistent beliefs on a branching-state environment:
        # the deterministic synthesizer must refuse with an input-class error.
        env = {
            "states": ["A", "B"],
            "contingencies": [
                {"id": "h0", "parent": None},
                {"id": "h1", "parent": "h0"},
                {"id": "h2", "parent": "h0"},
            ],
            "eta": {
                "A": {"h1": "1/2", "h2": "1/2"},
                "B": {"h1": "1/2", "h2": "1/2"},
            },
        }
        beliefs = {
            "beliefs": {
                "h0": {"A": "1/2", "B": "1/2"},
                "h1": {"A": "3/4", "B": "1/4"},
                "h2": {"A": "1/2", "B": "1/2"},
            }
        }
        (tmp_path / "env.json").write_text(json.dumps(env))
        (tmp_path / "mu.json").write_text(json.dumps(beliefs))
        code, payload = run(
            capsys, "synth-deterministic",
            "--env", tmp_path / "env.json", "--beliefs", tmp_path / "mu.json",
        )
        assert code == 2
        assert payload["error"]["code"] == "unsupported"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-siniscalchi", "--beliefs", "uniform.json"],
            ["verify-book", "--book", "larry-book.json", "--beliefs", "regret.json"],
            ["verify-deterministic", "--book", "larry-book.json", "--beliefs", "regret.json"],
            ["simulate", "--beliefs", "regret.json", "--book", "larry-book.json",
             "--rounds", "10", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_belief_row_is_input_error(self, capsys, tmp_path, argv):
        # Commands whose library call skips belief validation must still
        # report a malformed belief system as an input error, not crash.
        at = argv.index("--beliefs") + 1
        doc = json.loads((DATA / argv[at]).read_text())
        del doc["beliefs"]["sm"]
        (tmp_path / argv[at]).write_text(json.dumps(doc))
        argv = [DATA / a if a.endswith(".json") else a for a in argv]
        argv[at] = tmp_path / argv[at].name
        code, payload = run(capsys, *argv, "--env", DATA / "larry.json")
        assert code == 2
        assert payload["error"]["code"] == "input"
        assert payload["error"]["message"].startswith("invalid belief system: ")
        assert "undefined belief" in payload["error"]["message"]


def _set_first_id(doc, value):
    doc["contingencies"][0]["id"] = value


def _set_parent(doc, value):
    doc["contingencies"][3]["parent"] = value


def _set_eta_mass(doc, value):
    doc["eta"]["sq"]["sq"] = value


class TestMalformedEnvironment:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: _set_first_id(d, ["sq"]), "contingency id: expected a string"),
            (
                lambda d: _set_parent(d, {"id": "sq"}),
                "contingency parent: expected a string or null",
            ),
            (lambda d: _set_eta_mass(d, "1" + "0" * 4400), "eta['sq']['sq']: Exceeds the limit"),
            (lambda d: d.update(eta=["sq"]), "environment.eta: expected an object"),
        ],
        ids=["list-id", "dict-parent", "4401-digit-mass", "list-eta"],
    )
    def test_is_input_error(self, capsys, tmp_path, mutate, message):
        doc = json.loads((DATA / "larry.json").read_text())
        mutate(doc)
        (tmp_path / "env.json").write_text(json.dumps(doc))
        code, payload = run(
            capsys, "check-complete",
            "--env", tmp_path / "env.json", "--beliefs", DATA / "regret.json",
        )
        assert code == 2
        assert payload["error"]["code"] == "input"
        assert payload["error"]["message"].startswith(message)


class TestUnexpectedFailures:
    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        code, payload = run(
            capsys, "validate", "--env", DATA / "larry.json",
            "--out", tmp_path / "no-such-dir" / "out.json",
        )
        assert code == 2
        assert payload["error"]["code"] == "input"
        assert payload["error"]["message"].startswith("cannot write ")

    def test_any_other_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(path):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr("dutchbook.cli._load_env", broken)
        code = main(["validate", "--env", str(DATA / "larry.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == {
            "code": "internal", "message": "ZeroDivisionError: boom", "location": None
        }
        assert captured.err.startswith("Traceback")


class TestParserReuse:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        calls = [
            ["check-forward", "--env", DATA / "larry.json"],  # usage: --beliefs missing
            ["no-such-command"],
            ["validate", "--env", tmp_path / "missing.json"],  # InputError
            ["check-complete", "--env", DATA / "larry.json", "--beliefs", DATA / "regret.json"],
            ["extract-lcps", "--env", DATA / "larry.json", "--beliefs", DATA / "uniform.json"],
            ["validate", "--env", DATA / "larry.json", "--out", out],
        ]

        def answer(argv, fresh):
            if fresh:
                cli._build_parser.cache_clear()
            code = main([str(a) for a in argv])
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, capsys.readouterr().out.encode(), written

        parser = cli._build_parser()
        reused = [answer(argv, False) for argv in calls + calls]
        assert cli._build_parser() is parser
        fresh = [answer(argv, True) for argv in calls]
        assert reused == fresh + fresh
        assert [code for code, _, _ in fresh] == [2, 2, 2, 1, 0, 0]
        assert fresh[-1][2] == fresh[-1][1]

    @pytest.mark.parametrize("name, argv, code", [
        ("classify_dutch_book", ["verify-book", "--env", "larry.json",
                                 "--book", "larry-book.json"], 0),
        ("check_forward_consistency", ["check-forward", "--env", "nested.json",
                                       "--beliefs", "drift.json"], 1),
        ("check_siniscalchi", ["check-siniscalchi", "--env", "larry.json",
                               "--beliefs", "regret.json"], 1),
        ("check_complete_consistency", ["check-complete", "--env", "larry.json",
                                        "--beliefs", "regret.json"], 1),
    ], ids=["verify-book", "check-forward", "check-siniscalchi", "check-complete"])
    def test_library_functions_are_looked_up_per_call(self, capsys, monkeypatch, name, argv, code):
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == code
        capsys.readouterr()
        calls = []
        original = getattr(cli, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, name, counting)
        assert main(argv) == code
        capsys.readouterr()
        assert len(calls) == 1


class TestOneValidationPerRequest:
    @pytest.mark.parametrize("argv, views", [
        (["validate", "--env", "larry.json", "--beliefs", "regret.json"], 0),
        (["check-forward", "--env", "nested.json", "--beliefs", "drift.json"], 1),
        (["check-complete", "--env", "larry.json", "--beliefs", "lex.json"], 1),
        (["extract-lcps", "--env", "larry.json", "--beliefs", "uniform.json"], 1),
        (["check-siniscalchi", "--env", "larry.json", "--beliefs", "regret.json"], 1),
        (["verify-book", "--env", "larry.json", "--book", "larry-book.json",
          "--beliefs", "regret.json"], 1),
        (["verify-deterministic", "--env", "nested.json", "--book", "ddb-nested.json",
          "--beliefs", "drift.json"], 1),
        (["synth-book", "--env", "larry.json", "--beliefs", "regret.json"], 1),
        (["synth-deterministic", "--env", "nested.json", "--beliefs", "drift.json"], 1),
        (["simulate", "--env", "larry.json", "--beliefs", "regret.json",
          "--book", "larry-book.json", "--rounds", "10", "--seed", "1"], 1),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_beliefs_document_is_validated_once(self, capsys, monkeypatch, argv, views):
        # Every command that reads a beliefs document builds its integer view
        # once (`validate` lists the problems instead); no command validates
        # through validate_belief_system as well.
        from dutchbook import consistency, cps, model, simulate

        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("require_valid_beliefs", "validate_belief_system"):
            original = getattr(model, name)
            for module in (model, consistency, cps, gambles, simulate, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        assert main(argv) in (0, 1)
        capsys.readouterr()
        assert calls.count("require_valid_beliefs") == views
        assert len(calls) == 1
