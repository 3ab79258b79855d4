"""Request streams for the three workloads, and the output checks that
judge each response.

A stream is a list of blocks. Each block holds one instance of every size
(or shape) class of its workload, so any run of whole blocks sees the same
size mix whatever the seed. Requests are `dutchbook` command lines over the
JSON files that `write_files` puts in the work directory.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import instances as gen
import oracle
from oracle import ZERO, Env

CHECK_KINDS = (
    "validate", "check-complete", "check-forward", "extract-lcps",
    "derive-beliefs", "to-cps", "to-lcps", "check-siniscalchi",
)
SYNTH_KINDS = ("synth-book", "synth-deterministic")
VERIFY_KINDS = ("verify-book", "verify-deterministic")
MC_KINDS = ("simulate",)


def request_class(kind: str) -> str:
    for name, kinds in (("check", CHECK_KINDS), ("synth", SYNTH_KINDS),
                        ("verify", VERIFY_KINDS), ("mc", MC_KINDS)):
        if kind in kinds:
            return name
    raise ValueError(kind)


@dataclass
class Request:
    rid: str
    kind: str
    argv: list[str]
    expect: int  # exit code
    check: Callable[[dict], None]  # raises CheckFailed on a wrong answer
    rounds: int = 0


class CheckFailed(Exception):
    pass


def require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# ------------------------------------------------------------ documents

def rationals(row: dict) -> dict[str, str]:
    return {k: str(v) for k, v in row.items()}


def env_doc(env: Env) -> dict:
    return {
        "states": env.states,
        "contingencies": [{"id": h, "parent": env.parent.get(h)} for h in env.nodes],
        "eta": {s: rationals(env.eta[s]) for s in env.states},
    }


def cps_doc(env: Env, levels) -> dict:
    return {
        "conditionals": {
            ",".join(c): rationals(oracle.conditional(levels, list(c)))
            for k in range(1, len(env.states) + 1)
            for c in combinations(env.states, k)
        }
    }


def write_files(inst: gen.Instance, folder: Path) -> dict[str, str]:
    """Write the instance's documents; returns name -> path."""
    docs = {
        "env": env_doc(inst.env),
        "good": {"beliefs": {h: rationals(r) for h, r in inst.good.items()}},
        "lcps": {"levels": [rationals(level) for level in inst.lcps]},
    }
    if inst.bad is not None:
        docs["bad"] = {"beliefs": {h: rationals(r) for h, r in inst.bad.items()}}
    if inst.book is not None:
        docs["book"] = {"gambles": {h: rationals(g) for h, g in inst.book.items()}}
    if "filtration" in inst.extra:
        docs["filt"] = {"beliefs": {h: rationals(r) for h, r in inst.extra["filtration"].items()}}
    if "bad2" in inst.extra:
        docs["bad2"] = {"beliefs": {h: rationals(r) for h, r in inst.extra["bad2"].items()}}
        docs["book2"] = {"gambles": {h: rationals(g) for h, g in inst.extra["book2"].items()}}
    if inst.family in ("small", "ring"):
        docs["cps"] = cps_doc(inst.env, inst.lcps)
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------- checks

def frac_row(row: dict) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in row.items()}


def lcps_levels(doc: dict) -> list[dict[str, Fraction]]:
    return [frac_row(level) for level in doc["levels"]]


def expect_certificate(env: Env, mu, key: str | None = "lcps"):
    """The returned LCPS must reproduce the input beliefs by Bayes rule."""
    def check(payload):
        if key is not None:
            require(payload.get("consistent") is True, "verdict is not consistent")
        levels = lcps_levels(payload[key] if key else payload)
        derived = oracle.bayes_beliefs(env, levels)
        require(all(derived[h] == oracle.positive(mu[h]) for h in env.nodes),
                "LCPS does not reproduce the beliefs")
    return check


def expect_witness(env: Env, mu):
    """The witness cycle's product, recomputed, is not 1 and is as reported."""
    def check(payload):
        require(payload.get("consistent") is False, "verdict is not inconsistent")
        links = [(l["h"], l["from"], l["to"]) for l in payload["violation"]["cycle"]]
        product = oracle.cycle_product(env, mu, links)
        require(product is not None, "witness is not a closed cycle of defined odds")
        require(product != 1, "witness product is 1")
        require(oracle.format_ratio(product) == payload["violation"]["product"],
                "reported product differs from the recomputed one")
    return check


def expect_forward_ok(env: Env, mu):
    def check(payload):
        require(payload == {"consistent": True}, "forward check did not pass")
        require(oracle.forward_consistent(env, mu), "parent-child check disagrees")
    return check


def expect_forward_violation(env: Env, mu):
    def check(payload):
        require(payload.get("consistent") is False, "forward check passed")
        v = payload["violation"]
        h, hp, s = v["h"], v["hprime"], v["s"]
        require(h != hp and h in env.chain[hp], "violation pair is not comparable")
        mass = sum((mu[h].get(t, ZERO) for t in env.support(hp)), ZERO)
        lhs, rhs = mu[h].get(s, ZERO), mu[hp].get(s, ZERO) * mass
        require(lhs != rhs, "reported violation holds")
        require((str(lhs), str(rhs)) == (v["lhs"], v["rhs"]), "violation sides differ")
        require(not oracle.forward_consistent(env, mu), "parent-child check disagrees")
    return check


def _acceptance(env: Env, mu, g, payload) -> None:
    for h in env.nodes:
        require(oracle.acceptable(mu[h], g.get(h, {})), f"gamble at {h} is not acceptable")
    require(payload["acceptance"]["accepted"] is True, "acceptance not reported")
    reported = payload["acceptance"]["perContingency"]
    require(all(Fraction(reported[h]["expectation"]) == oracle.expectation(mu[h], g.get(h, {}))
                for h in env.nodes), "reported expectations differ")


def _book_verdict(env: Env, g, verdict) -> None:
    sums = oracle.state_sums(env, g)
    require(oracle.is_book(sums.values()), "not a Dutch book per state")
    require(frac_row(verdict["perState"]) == sums, "per-state sums differ")
    require(verdict["isDutchBook"] is True, "book not reported")


def _deterministic_verdict(env: Env, g, verdict) -> None:
    sums = oracle.path_sums(env, g)
    require(oracle.is_book(v for row in sums.values() for v in row.values()),
            "not a Dutch book per path")
    require({s: frac_row(r) for s, r in verdict["perPath"].items()} == sums,
            "per-path sums differ")
    require(verdict["isDeterministicDB"] is True, "deterministic book not reported")


def expect_synth(env: Env, mu, deterministic: bool):
    def check(payload):
        g = {h: frac_row(row) for h, row in payload["gambles"].items()}
        _acceptance(env, mu, g, payload)
        (_deterministic_verdict if deterministic else _book_verdict)(env, g, payload["verdict"])
    return check


def expect_verify(env: Env, mu, g, deterministic: bool):
    def check(payload):
        _acceptance(env, mu, g, payload)
        (_deterministic_verdict if deterministic else _book_verdict)(env, g, payload)
    return check


def expect_simulation(env: Env, mu, g, rounds: int):
    def check(payload):
        require(payload["rounds"] == rounds, "rounds differ")
        per_state = payload["perState"]
        require(sum(st["count"] for st in per_state.values()) == rounds, "counts do not add up")
        for s, st in per_state.items():
            gated = sum((env.reach[h].get(s, ZERO) * x.get(s, ZERO)
                         for h, x in g.items() if oracle.acceptable(mu[h], x)), ZERO)
            require(Fraction(st["exactExpectation"]) == gated, f"exact expectation of {s} differs")
    return check


def expect_beliefs(env: Env, levels):
    def check(payload):
        derived = oracle.bayes_beliefs(env, levels)
        require({h: frac_row(r) for h, r in payload["beliefs"].items()} == derived,
                "derived beliefs differ")
    return check


def expect_validate(env: Env):
    def check(payload):
        require(payload == {"ok": True, "states": len(env.states), "contingencies": len(env.nodes),
                            "uniformReach": env.uniform_reach()}, "validate payload differs")
    return check


def expect_cps(env: Env, levels):
    def check(payload):
        rows = payload["conditionals"]
        require(len(rows) == 2 ** len(env.states) - 1, "wrong number of conditioning events")
        for key, row in rows.items():
            require(frac_row(row) == oracle.conditional(levels, key.split(",")), f"row {key} differs")
    return check


def expect_lcps(levels):
    def check(payload):
        require(lcps_levels(payload) == levels, "LCPS differs")
    return check


def expect_chain_rule(env: Env, mu, ok: bool):
    def check(payload):
        if ok:
            require(payload == {"ok": True}, "chain rule reported violated")
            return
        require(payload.get("ok") is False, "chain rule reported satisfied")
        v = payload["violation"]
        seq, event = v["sequence"], v["event"]
        left = right = Fraction(1)
        for a, b in zip(seq, seq[1:]):
            overlap = [s for s in env.support(a) if s in env.reach[b]]
            left *= sum((mu[b].get(s, ZERO) for s in overlap), ZERO)
            right *= sum((mu[a].get(s, ZERO) for s in overlap), ZERO)
        lhs = sum((mu[seq[0]].get(s, ZERO) for s in event), ZERO) * left
        rhs = sum((mu[seq[-1]].get(s, ZERO) for s in event), ZERO) * right
        require(lhs != rhs and (str(lhs), str(rhs)) == (v["lhs"], v["rhs"]),
                "chain-rule violation does not recompute")
    return check


# --------------------------------------------------------------- streams

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blocks: int  # generated at set-up: 1.5 to 2 times what a run serves at this commit
    make_block: Callable  # (rng, block index) -> list[Instance]
    requests: Callable  # (inst, paths) -> list[Request]
    # Tail percentile per request class: high, but leaving 14 or more
    # samples beyond it in a run of `run_seconds` at this commit.
    tail_pct: dict


def _rq(inst, kind, argv, expect, check, rounds=0, tag=""):
    return Request(f"{inst.name}.{kind}{tag}", kind, [kind] + argv, expect, check, rounds)


def _simulate(inst, p, rounds, seed, state):
    """Audit the instance's own book against its perturbed beliefs."""
    argv = ["--env", p["env"], "--beliefs", p["bad"], "--book", p["book"],
            "--rounds", str(rounds), "--seed", str(seed)]
    if state:
        argv += ["--state", state]
    return _rq(inst, "simulate", argv, 0, expect_simulation(inst.env, inst.bad, inst.book, rounds),
               rounds, ".fixed" if state else ".prior")


MC_ROUNDS_BIG = 2000
MC_ROUNDS_SMALL = 5000

# Each size holds a ninth of the samples, so the flat-book tail percentiles
# below sit in the middle of one size's band, not at the edge between two.
FLAT_SIZES = (25, 60, 30, 80, 35, 50, 40, 100, 45)


def flat_block(rng: random.Random, b: int) -> list[gen.Instance]:
    return [gen.flat_instance(rng, f"b{b}.flat{n}", n) for n in FLAT_SIZES]


def flat_requests(inst, p) -> list[Request]:
    env = inst.env
    return [
        _rq(inst, "check-complete", ["--env", p["env"], "--beliefs", p["good"]], 0,
            expect_certificate(env, inst.good), tag=".good"),
        _rq(inst, "check-complete", ["--env", p["env"], "--beliefs", p["bad"]], 1,
            expect_witness(env, inst.bad), tag=".bad"),
        _rq(inst, "synth-book", ["--env", p["env"], "--beliefs", p["bad"]], 0,
            expect_synth(env, inst.bad, False)),
        _rq(inst, "verify-book", ["--env", p["env"], "--book", p["book"], "--beliefs", p["bad"]], 0,
            expect_verify(env, inst.bad, inst.book, False)),
        _simulate(inst, p, MC_ROUNDS_BIG, 7, inst.book_state),
    ]


DEEP_SHAPES = (("tree", 16), ("cat", 80), ("tree", 64), ("cat", 40),
               ("tree", 128), ("cat", 20), ("tree", 32), ("cat", 60), ("tree", 192))


def deep_block(rng: random.Random, b: int) -> list[gen.Instance]:
    return [gen.deep_instance(rng, f"b{b}.{shape}{size}", shape, size) for shape, size in DEEP_SHAPES]


def deep_requests(inst, p) -> list[Request]:
    env = inst.env
    filt = inst.extra["filtration"]
    reqs = [
        _rq(inst, "derive-beliefs", ["--env", p["env"], "--lcps", p["lcps"]], 0,
            expect_beliefs(env, inst.lcps)),
        _rq(inst, "check-complete", ["--env", p["env"], "--beliefs", p["good"]], 0,
            expect_certificate(env, inst.good)),
        _rq(inst, "check-forward", ["--env", p["env"], "--beliefs", p["filt"]], 0,
            expect_forward_ok(env, filt), tag=".filt"),
    ]
    for tag, bad, book in (("", inst.bad, inst.book), ("2", inst.extra["bad2"], inst.extra["book2"])):
        reqs += [
            _rq(inst, "check-forward", ["--env", p["env"], "--beliefs", p["bad" + tag]], 1,
                expect_forward_violation(env, bad), tag=".bad" + tag),
            _rq(inst, "synth-deterministic", ["--env", p["env"], "--beliefs", p["bad" + tag]], 0,
                expect_synth(env, bad, True), tag=tag and "." + tag),
            _rq(inst, "verify-deterministic",
                ["--env", p["env"], "--book", p["book" + tag], "--beliefs", p["bad" + tag]], 0,
                expect_verify(env, bad, book, True), tag=tag and "." + tag),
        ]
    return reqs + [_simulate(inst, p, MC_ROUNDS_BIG, 7, inst.book_state)]


def small_block(rng: random.Random, b: int) -> list[gen.Instance]:
    block = [gen.small_random_instance(rng, f"b{b}.rand{i}") for i in range(6)]
    for i, inst in enumerate(block):
        inst.extra["fixed_state"] = i % 2 == 1  # alternate the two simulate modes
    block += [gen.small_tree_instance(rng, f"b{b}.tree{i}") for i in range(2)]
    block.append(gen.ring_instance(rng, f"b{b}.larry", 3, larry=True))
    block.append(gen.ring_instance(rng, f"b{b}.ring", rng.randint(3, 6), larry=False))
    return block


def small_requests(inst, p) -> list[Request]:
    env, fam = inst.env, inst.family
    e = ["--env", p["env"]]
    reqs = []
    if fam in ("small", "tree"):
        reqs += [
            _rq(inst, "validate", e + ["--beliefs", p["good"], "--lcps", p["lcps"]], 0,
                expect_validate(env)),
            _rq(inst, "derive-beliefs", e + ["--lcps", p["lcps"]], 0, expect_beliefs(env, inst.lcps)),
            _rq(inst, "check-complete", e + ["--beliefs", p["good"]], 0,
                expect_certificate(env, inst.good), tag=".good"),
            _rq(inst, "extract-lcps", e + ["--beliefs", p["good"]], 0,
                expect_certificate(env, inst.good, key=None)),
            _rq(inst, "check-forward", e + ["--beliefs", p["filt"]], 0,
                expect_forward_ok(env, inst.extra["filtration"]), tag=".filt"),
        ]
    if fam == "small":
        reqs += [
            _rq(inst, "to-cps", ["--lcps", p["lcps"]] + e, 0, expect_cps(env, inst.lcps)),
            _rq(inst, "to-lcps", ["--cps", p["cps"]], 0, expect_lcps(inst.lcps)),
        ]
        if inst.bad is not None:
            state = inst.book_state if inst.extra["fixed_state"] else None
            reqs += [
                _rq(inst, "check-complete", e + ["--beliefs", p["bad"]], 1,
                    expect_witness(env, inst.bad), tag=".bad"),
                _rq(inst, "synth-book", e + ["--beliefs", p["bad"]], 0,
                    expect_synth(env, inst.bad, False)),
                _rq(inst, "verify-book", e + ["--book", p["book"], "--beliefs", p["bad"]], 0,
                    expect_verify(env, inst.bad, inst.book, False)),
                _simulate(inst, p, MC_ROUNDS_SMALL, 11, state),
            ]
    if fam == "tree":
        reqs += [
            _rq(inst, "check-forward", e + ["--beliefs", p["bad"]], 1,
                expect_forward_violation(env, inst.bad), tag=".bad"),
            _rq(inst, "synth-deterministic", e + ["--beliefs", p["bad"]], 0,
                expect_synth(env, inst.bad, True)),
            _rq(inst, "verify-deterministic", e + ["--book", p["book"], "--beliefs", p["bad"]], 0,
                expect_verify(env, inst.bad, inst.book, True)),
            _simulate(inst, p, MC_ROUNDS_SMALL, 13, inst.book_state),
        ]
    if fam == "ring":
        reqs += [
            _rq(inst, "check-siniscalchi", e + ["--beliefs", p["good"]], 0,
                expect_chain_rule(env, inst.good, True), tag=".good"),
            _rq(inst, "check-siniscalchi", e + ["--beliefs", p["bad"]], 1,
                expect_chain_rule(env, inst.bad, False), tag=".bad"),
            _rq(inst, "check-complete", e + ["--beliefs", p["bad"]], 1,
                expect_witness(env, inst.bad), tag=".bad"),
            _rq(inst, "synth-book", e + ["--beliefs", p["bad"]], 0,
                expect_synth(env, inst.bad, False)),
            _rq(inst, "to-cps", ["--lcps", p["lcps"]] + e, 0, expect_cps(env, inst.lcps)),
            _rq(inst, "to-lcps", ["--cps", p["cps"]], 0, expect_lcps(inst.lcps)),
        ]
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flat-book",
            "flat forests, |S| 25-100, |H| = 2|S|, 6 states per contingency: odds-graph "
            "building and dense Dutch-book classification dominate",
            14, flat_block, flat_requests, {"check": 83, "synth": 72, "verify": 72},
        ),
        Workload(
            "deep-forest",
            "binary trees of 16-192 leaves and caterpillars of depth 20-80, one state per "
            "leaf: forest chains, comparable pairs and LCPS level lookups dominate",
            8, deep_block, deep_requests, {"check": 90, "synth": 75, "verify": 75},
        ),
        Workload(
            "small-cli",
            "many environments of <= 6 states through every subcommand: argparse, JSON and "
            "environment building dominate; the only chain-rule and CPS work",
            36, small_block, small_requests, {"check": 99, "synth": 90, "verify": 90},
        ),
    )
}
