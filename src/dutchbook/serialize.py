"""Canonical JSON documents for environments, beliefs, LCPSs, CPSs, gamble
systems, and verdicts.

Rationals travel as strings "p/q" (or "n" for integers). Canonical writers
put every sparse row through `_row_to_doc`, which orders its keys by the
state-space / forest order so output is byte-stable; readers reject
unknown keys.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping

from .errors import InputError
from .model import (
    BeliefSystem,
    ContingencyForest,
    LearningEnvironment,
    build_environment,
)
from .consistency import ForwardViolation, Lcps
from .cps import CompleteCps, SiniscalchiViolation
from .gambles import AcceptanceReport, BookVerdict, DeterministicVerdict, GambleSystem
from .odds import CoherenceCertificate, CoherenceViolation, ExtendedRatio, OddsLink
from .simulate import SimReport

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: Any, where: str = "value") -> Fraction:
    match = isinstance(text, str) and _RATIONAL_RE.match(text)
    if not match:
        raise InputError(f"{where}: expected rational string 'p/q', got {text!r}")
    p, q = match.groups()
    try:  # the same value as Fraction(text), without its second regex
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except ValueError as exc:  # integers over sys.get_int_max_str_digits() digits
        raise InputError(f"{where}: {exc}")


def format_rational(value: Fraction) -> str:
    return str(value)


def _require_keys(doc: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    unknown = set(doc) - allowed
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise InputError(f"{where}: missing keys {sorted(missing)}")


def _row_to_doc(row: Mapping[str, Fraction], order: Mapping[str, int]) -> dict[str, str]:
    """A sparse row as `{key: "p/q"}`: zero entries and keys outside `order`
    dropped, the rest ranked by `order`. Costs O(k log k) for k entries."""
    keys = sorted(filter(order.__contains__, row), key=order.__getitem__)
    return {k: format_rational(row[k]) for k in keys if row[k] != 0}


def _rational_row(doc: Any, where: str) -> dict[str, Fraction]:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object of rationals")
    return {k: parse_rational(v, f"{where}[{k!r}]") for k, v in doc.items()}


# ---------------------------------------------------------------- environment

def environment_from_doc(doc: Any) -> LearningEnvironment:
    _require_keys(doc, {"states", "contingencies", "eta"}, {"states", "contingencies", "eta"}, "environment")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputError("environment.states: expected a list of strings")
    entries = doc["contingencies"]
    if not isinstance(entries, list):
        raise InputError("environment.contingencies: expected a list")
    nodes, parent = [], {}
    for entry in entries:
        _require_keys(entry, {"id", "parent"}, {"id", "parent"}, "contingency entry")
        if not isinstance(entry["id"], str):
            raise InputError(f"contingency id: expected a string, got {entry['id']!r}")
        if not isinstance(entry["parent"], (str, type(None))):
            raise InputError(
                f"contingency parent: expected a string or null, got {entry['parent']!r}"
            )
        nodes.append(entry["id"])
        if entry["parent"] is not None:
            parent[entry["id"]] = entry["parent"]
    if not isinstance(doc["eta"], dict):
        raise InputError("environment.eta: expected an object")
    eta = {s: _rational_row(row, f"eta[{s!r}]") for s, row in doc["eta"].items()}
    return build_environment(states, ContingencyForest(nodes, parent), eta)


def environment_to_doc(env: LearningEnvironment) -> dict:
    return {
        "states": list(env.states),
        "contingencies": [
            {"id": h, "parent": env.forest.parent.get(h)} for h in env.forest.nodes
        ],
        "eta": {s: _row_to_doc(env.eta[s], env.forest.index) for s in env.states},
    }


# -------------------------------------------------------- distribution tables

def _table_from_doc(doc: Any, outer: str) -> dict[str, dict[str, Fraction]]:
    _require_keys(doc, {outer}, {outer}, outer)
    table = doc[outer]
    if not isinstance(table, dict):
        raise InputError(f"{outer}: expected an object")
    return {k: _rational_row(row, f"{outer}[{k!r}]") for k, row in table.items()}


def beliefs_from_doc(doc: Any) -> BeliefSystem:
    return _table_from_doc(doc, "beliefs")


def beliefs_to_doc(env: LearningEnvironment, mu: BeliefSystem) -> dict:
    return {"beliefs": {h: _row_to_doc(mu[h], env.state_index) for h in env.forest.nodes}}


def gambles_from_doc(doc: Any) -> GambleSystem:
    return _table_from_doc(doc, "gambles")


def gambles_to_doc(env: LearningEnvironment, g: GambleSystem) -> dict:
    rows = ((h, _row_to_doc(g[h], env.state_index)) for h in env.forest.nodes if h in g)
    return {"gambles": {h: row for h, row in rows if row}}


# ------------------------------------------------------------------- LCPS/CPS

def lcps_from_doc(doc: Any) -> Lcps:
    _require_keys(doc, {"levels"}, {"levels"}, "lcps")
    levels = doc["levels"]
    if not isinstance(levels, list) or not levels:
        raise InputError("lcps.levels: expected a nonempty list")
    return Lcps(tuple(_rational_row(level, "lcps level") for level in levels))


def lcps_to_doc(lcps: Lcps, states: tuple[str, ...]) -> dict:
    order = {s: i for i, s in enumerate(states)}
    return {"levels": [_row_to_doc(level, order) for level in lcps.levels]}


def cps_from_doc(doc: Any) -> CompleteCps:
    _require_keys(doc, {"conditionals"}, {"conditionals"}, "cps")
    table = doc["conditionals"]
    if not isinstance(table, dict) or not table:
        raise InputError("cps.conditionals: expected a nonempty object")
    states = tuple(max(table, key=lambda k: len(k.split(","))).split(","))
    conditionals = {}
    for key, row in table.items():
        subset = key.split(",")
        event = frozenset(subset)
        if len(event) != len(subset):
            raise InputError(f"cps key {key!r} repeats a state")
        if event in conditionals:
            raise InputError(f"cps key {key!r} names an event already given")
        if not event.issubset(states):
            raise InputError(f"cps key {key!r} has states outside {states}")
        conditionals[event] = _rational_row(row, f"cps[{key!r}]")
    expected = (1 << len(states)) - 1
    if len(conditionals) != expected:
        raise InputError(
            f"cps: expected {expected} conditioning events, found {len(conditionals)}"
        )
    return CompleteCps(states, conditionals)


def cps_to_doc(cps: CompleteCps) -> dict:
    for s in cps.states:
        if "," in s:
            raise InputError(f"cps state {s!r} contains ',', the cps key separator")
    order = {s: i for i, s in enumerate(cps.states)}
    return {
        "conditionals": {
            ",".join(sorted(c, key=order.get)): _row_to_doc(cps.conditionals[c], order)
            for c in cps.subsets()
        }
    }


# ------------------------------------------------------------------- verdicts

def _ratio_to_str(value: ExtendedRatio) -> str:
    if value.is_zero:
        return "0"
    if value.is_infinite:
        return "inf"
    return format_rational(value.value)


def violation_to_doc(violation: CoherenceViolation) -> dict:
    return {
        "cycle": [
            {"h": l.h, "from": l.src, "to": l.dst, "value": _ratio_to_str(l.value)}
            for l in violation.cycle
        ],
        "product": _ratio_to_str(violation.product),
    }


def violation_links(doc: Any) -> list[OddsLink]:
    """Rehydrate just the (h, from, to) walk of a stored witness, as links
    without values; `generalized_odds_ratio` recomputes them."""
    _require_keys(doc, {"cycle", "product"}, {"cycle"}, "violation")
    if not isinstance(doc["cycle"], list):
        raise InputError("violation.cycle: expected a list")
    links = []
    for entry in doc["cycle"]:
        _require_keys(entry, {"h", "from", "to", "value"}, {"h", "from", "to"}, "cycle link")
        ends = entry["h"], entry["from"], entry["to"]
        if not all(isinstance(x, str) for x in ends):
            raise InputError(f"cycle link: expected string h, from and to, got {ends!r}")
        links.append(OddsLink(*ends))
    return links


def certificate_to_doc(cert: CoherenceCertificate, states: tuple[str, ...]) -> dict:
    order = {s: i for i, s in enumerate(states)}
    return {
        "levels": [sorted(members, key=order.get) for members in cert.partition.levels],
        "potentials": _row_to_doc(cert.potentials, order),
    }


def forward_violation_to_doc(v: ForwardViolation) -> dict:
    return {
        "h": v.h,
        "hprime": v.h_prime,
        "s": v.s,
        "lhs": format_rational(v.lhs),
        "rhs": format_rational(v.rhs),
    }


def siniscalchi_violation_to_doc(v: SiniscalchiViolation) -> dict:
    return {
        "sequence": list(v.sequence),
        "event": list(v.event),
        "lhs": format_rational(v.lhs),
        "rhs": format_rational(v.rhs),
    }


def book_verdict_to_doc(verdict: BookVerdict, states: tuple[str, ...]) -> dict:
    return {
        "perState": {s: format_rational(verdict.per_state[s]) for s in states},
        "isDutchBook": verdict.is_dutch_book,
    }


def deterministic_verdict_to_doc(
    verdict: DeterministicVerdict, env: LearningEnvironment
) -> dict:
    return {
        "perPath": {
            s: {leaf: format_rational(v) for leaf, v in verdict.per_path[s].items()}
            for s in env.states
        },
        "isDeterministicDB": verdict.is_deterministic_db,
    }


def acceptance_to_doc(report: AcceptanceReport, env: LearningEnvironment) -> dict:
    return {
        "accepted": report.accepted,
        "perContingency": {
            h: {
                "expectation": format_rational(report.per_contingency[h][0]),
                "accepted": report.per_contingency[h][1],
            }
            for h in env.forest.nodes
        },
    }


def sim_report_to_doc(report: SimReport, states: tuple[str, ...]) -> dict:
    return {
        "rounds": report.rounds,
        "seed": report.seed,
        "perState": {
            s: {
                "count": report.per_state[s].count,
                "empiricalMean": report.per_state[s].empirical_mean,
                "exactExpectation": format_rational(report.per_state[s].exact_expectation),
                "exactExpectationUngated": format_rational(
                    report.per_state[s].exact_expectation_ungated
                ),
                "sampleStdDev": report.per_state[s].sample_std_dev,
            }
            for s in states
            if s in report.per_state
        },
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except OSError as exc:  # a directory, or no permission
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over the digit limit
        raise InputError(f"{path}: invalid JSON ({exc})")
