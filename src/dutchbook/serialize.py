"""Canonical JSON documents for environments, beliefs, LCPSs, CPSs, gamble
systems, and verdicts.

Rationals travel as strings "p/q" (or "n" for integers). Canonical writers
put every sparse row through `_row_to_doc`, which orders its keys by the
state-space / forest order so output is byte-stable; eta rows, which
`build_environment` already stores that way, are written as stored.
Readers reject unknown keys.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

from .errors import InputError
from .model import (
    BeliefSystem,
    ContingencyForest,
    LearningEnvironment,
    _ReadBeliefs,
    _fraction,
    _pair,
    build_environment,
)
from .consistency import ForwardViolation, Lcps
from .cps import MAX_CPS_STATES, CompleteCps, SiniscalchiViolation, _events
from .gambles import AcceptanceReport, BookVerdict, DeterministicVerdict, GambleSystem
from .odds import CoherenceCertificate, CoherenceViolation, ExtendedRatio, OddsLink
from .simulate import SimReport

def _reduced(text: str) -> tuple[int, int]:
    """The rational string "p/q" or "p" as its reduced (p, q): the whole
    string must read -?D+ or -?D+/ND*, D any Unicode decimal digit (category
    Nd, as `str.isdecimal` and `int` read them) and N an ASCII digit 1-9;
    then two ints and one gcd. Any other value raises InputError (another
    string), TypeError (not a string) or ValueError (an integer over
    sys.get_int_max_str_digits() digits); `parse_rational` words the error."""
    if not isinstance(text, str):
        raise TypeError(f"expected a string, got {type(text).__name__}")
    p, slash, q = text.partition("/")
    if not (p[1:] if p.startswith("-") else p).isdecimal() or (
        slash and not (q.isdecimal() and "1" <= q[0] <= "9")
    ):
        raise InputError(f"expected rational string 'p/q', got {text!r}")
    p, q = int(p), int(q) if slash else 1
    g = math.gcd(p, q)
    return p // g, q // g


def parse_rational(text: Any, where: str = "value") -> Fraction:
    try:
        return _fraction(*_reduced(text))
    except (InputError, TypeError):
        raise InputError(f"{where}: expected rational string 'p/q', got {text!r}") from None
    except ValueError as exc:  # integers over sys.get_int_max_str_digits() digits
        raise InputError(f"{where}: {exc}") from None


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
    dropped, the rest ranked by `order`. Costs O(k log k) for k entries. An
    exact Fraction's zero test and text read its two integers (`_pair`),
    the text being `format_rational`'s."""
    out = {}
    for k in sorted(filter(order.__contains__, row), key=order.__getitem__):
        m = row[k]
        if type(m) is Fraction:
            p, q = _pair(m)
            if p:
                out[k] = f"{p}/{q}" if q != 1 else str(p)
        elif m != 0:
            out[k] = format_rational(m)
    return out


class _Pairs(dict):
    """The rationals already read from one document, keyed by their string,
    each as its reduced (p, q): a missing string is parsed by `_reduced` on
    its first lookup and kept. A value that fails raises from `_reduced`,
    and `_rational_row` names it."""

    def __missing__(self, text: Any) -> tuple[int, int]:
        pair = self[text] = _reduced(text)
        return pair


class _Memo(dict):
    """The same memo for the readers whose tables hold Fractions (eta rows,
    gambles, LCPS levels, CPS rows): each distinct string is kept as one
    Fraction."""

    def __missing__(self, text: Any) -> Fraction:
        value = self[text] = _fraction(*_reduced(text))
        return value


def _rational_row(doc: Any, memo: _Pairs | _Memo, where: str, key: str | None = None) -> dict:
    """A row of rationals, each read through the document's `memo`, so each
    distinct string is parsed once, in order of first occurrence. The row is
    named `where`, or `where[key]` when a key is given; the name is written
    only into an error."""
    if isinstance(doc, dict):
        try:
            return {k: memo[v] for k, v in doc.items()}
        except (InputError, TypeError, ValueError):  # a bad value, an unhashable one too
            pass
    where = where if key is None else f"{where}[{key!r}]"
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object of rationals")
    # Every value before the first bad one is in memo: read again, the first
    # bad value raises with its own name.
    return {k: memo[v] if isinstance(v, str) and v in memo else parse_rational(v, f"{where}[{k!r}]")
            for k, v in doc.items()}


# ---------------------------------------------------------------- environment

_ENV_KEYS = {"states", "contingencies", "eta"}
_ENTRY_KEYS = {"id", "parent"}


def environment_from_doc(doc: Any) -> LearningEnvironment:
    _require_keys(doc, _ENV_KEYS, _ENV_KEYS, "environment")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputError("environment.states: expected a list of strings")
    entries = doc["contingencies"]
    if not isinstance(entries, list):
        raise InputError("environment.contingencies: expected a list")
    nodes, parent = [], {}
    for entry in entries:
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
            _require_keys(entry, _ENTRY_KEYS, _ENTRY_KEYS, "contingency entry")
        h, p = entry["id"], entry["parent"]
        if not isinstance(h, str):
            raise InputError(f"contingency id: expected a string, got {h!r}")
        nodes.append(h)
        if p is not None:
            if not isinstance(p, str):
                raise InputError(f"contingency parent: expected a string or null, got {p!r}")
            parent[h] = p
    if not isinstance(doc["eta"], dict):
        raise InputError("environment.eta: expected an object")
    # Each row in one loop of memo lookups; a row that fails is read again by
    # `_rational_row`, which raises with the name of the row or of its value.
    memo, eta = _Memo(), {}
    for s, row in doc["eta"].items():
        if not isinstance(row, dict):
            _rational_row(row, memo, "eta", s)
        eta[s] = masses = {}
        try:
            for k, v in row.items():
                masses[k] = memo[v]
        except (InputError, TypeError, ValueError):  # a bad value, an unhashable one too
            _rational_row(row, memo, "eta", s)
    return build_environment(states, ContingencyForest(nodes, parent), eta)


def environment_to_doc(env: LearningEnvironment) -> dict:
    """`build_environment` stores each eta row positive and in forest order,
    so the rows are written as stored."""
    return {
        "states": list(env.states),
        "contingencies": [
            {"id": h, "parent": env.forest.parent.get(h)} for h in env.forest.nodes
        ],
        "eta": {
            s: {leaf: format_rational(m) for leaf, m in env.eta[s].items()} for s in env.states
        },
    }


# -------------------------------------------------------- distribution tables

def _table(doc: Any, outer: str) -> dict:
    """The object of rows that the document {outer: {...}} holds."""
    _require_keys(doc, {outer}, {outer}, outer)
    table = doc[outer]
    if not isinstance(table, dict):
        raise InputError(f"{outer}: expected an object")
    return table


def beliefs_from_doc(doc: Any) -> Mapping[str, Mapping[str, Fraction]]:
    """The belief system of the document, read-only (`model._ReadBeliefs`).
    One loop over each row's entries builds both forms the mapping holds:
    the reduced (p, q) pairs, and the integer row (d, n), d the running lcm
    of the q (the numerators so far are scaled up whenever it grows) and n
    the nonzero numerators over d. A row's Fractions are built when the row
    is first looked up. A row that fails is read again by `_rational_row`,
    which raises with the name of the row or of its value."""
    memo, pairs, ints = _Pairs(), {}, {}
    for h, row in _table(doc, "beliefs").items():
        if not isinstance(row, dict):
            _rational_row(row, memo, "beliefs", h)
        pairs[h] = reduced = {}
        n: dict[str, int] = {}
        d = 1
        try:
            for s, v in row.items():
                p, q = reduced[s] = memo[v]
                if d % q:
                    grown = math.lcm(d, q)
                    scale = grown // d
                    for t in n:
                        n[t] *= scale
                    d = grown
                if p:
                    n[s] = p * (d // q)
        except (InputError, TypeError, ValueError):  # a bad value, an unhashable one too
            _rational_row(row, memo, "beliefs", h)
        ints[h] = d, n
    return _ReadBeliefs(pairs, ints)


def beliefs_to_doc(env: LearningEnvironment, mu: BeliefSystem) -> dict:
    return {"beliefs": {h: _row_to_doc(mu[h], env.state_index) for h in env.forest.nodes}}


def gambles_from_doc(doc: Any) -> GambleSystem:
    memo = _Memo()
    return {h: _rational_row(row, memo, "gambles", h) for h, row in _table(doc, "gambles").items()}


def gambles_to_doc(env: LearningEnvironment, g: GambleSystem) -> dict:
    rows = ((h, _row_to_doc(g[h], env.state_index)) for h in env.forest.nodes if h in g)
    return {"gambles": {h: row for h, row in rows if row}}


# ------------------------------------------------------------------- LCPS/CPS

def lcps_from_doc(doc: Any) -> Lcps:
    _require_keys(doc, {"levels"}, {"levels"}, "lcps")
    levels = doc["levels"]
    if not isinstance(levels, list) or not levels:
        raise InputError("lcps.levels: expected a nonempty list")
    memo = _Memo()
    return Lcps(tuple(_rational_row(level, memo, "lcps level") for level in levels))


def lcps_to_doc(lcps: Lcps, states: tuple[str, ...]) -> dict:
    order = {s: i for i, s in enumerate(states)}
    return {"levels": [_row_to_doc(level, order) for level in lcps.levels]}


def cps_from_doc(doc: Any) -> CompleteCps:
    """The CPS of the document. The key with the most `,` names the states,
    in its order; the distinct states it names are checked against
    `MAX_CPS_STATES` before any event is read. Then each key is split at `,`
    once."""
    _require_keys(doc, {"conditionals"}, {"conditionals"}, "cps")
    table = doc["conditionals"]
    if not isinstance(table, dict) or not table:
        raise InputError("cps.conditionals: expected a nonempty object")
    states = tuple(max(table, key=lambda key: key.count(",")).split(","))
    known = set(states)
    if len(known) > MAX_CPS_STATES:
        raise InputError(f"CPS limited to {MAX_CPS_STATES} states")
    conditionals, memo = {}, _Memo()
    for key, row in table.items():
        subset = key.split(",")
        event = frozenset(subset)
        if len(event) != len(subset):
            raise InputError(f"cps key {key!r} repeats a state")
        if event in conditionals:
            raise InputError(f"cps key {key!r} names an event already given")
        if not event <= known:
            raise InputError(f"cps key {key!r} has states outside {states}")
        conditionals[event] = _rational_row(row, memo, "cps", key)
    expected = (1 << len(states)) - 1
    if len(conditionals) != expected:
        raise InputError(
            f"cps: expected {expected} conditioning events, found {len(conditionals)}"
        )
    return CompleteCps(states, conditionals)


def cps_to_doc(cps: CompleteCps) -> dict:
    """One walk over the events in canonical order: each key joins the
    event's states, already in state order. A missing event raises
    InputError, worded as `cps._row_ints` words it."""
    for s in cps.states:
        if "," in s:
            raise InputError(f"cps state {s!r} contains ',', the cps key separator")
    order = {s: i for i, s in enumerate(cps.states)}
    conditionals = cps.conditionals
    try:
        return {
            "conditionals": {
                ",".join(combo): _row_to_doc(conditionals[c], order)
                for combo, c in _events(cps.states)
            }
        }
    except KeyError as exc:  # the only lookup that can miss is conditionals[c]
        raise InputError(f"missing subset entry {sorted(exc.args[0])}") from None


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
    """`payload` as `json.dumps(payload, indent=2, allow_nan=False) + "\\n"`,
    byte for byte, for payloads of dict, list, str, int, float, bool and None
    with string keys. `json.dumps` with an indent always runs the pure-Python
    encoder, since the C encoder does not indent; this writer does less work
    per value. A non-finite float raises ValueError, as `json` does."""
    return _encode(payload, "\n") + "\n"


def _encode(value: Any, indent: str) -> str:
    """One JSON value; `indent` is the line break and indentation of the line
    the value starts on, and items of a container go one level deeper."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in value]) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except OSError as exc:  # a directory, or no permission
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long or too deep
        raise InputError(f"{path}: invalid JSON ({exc})")
