"""Command-line front end.

Exit codes: 0 = positive verdict or success, 1 = negative verdict
(inconsistent / not a book / rejected), 2 = input, usage or internal error.
The payload on stdout is always a single JSON document; diagnostics go to
stderr.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction
from functools import cache

from . import serialize
from .consistency import (
    check_complete_consistency,
    check_forward_consistency,
    derive_beliefs,
    require_valid_beliefs,
    validate_lcps,
)
from .cps import check_siniscalchi, cps_to_lcps, lcps_to_cps
from .errors import (
    DomainError,
    IndeterminateRatio,
    InputError,
    PreconditionViolation,
    UnsupportedEnvironment,
)
from .gambles import (
    accepts_system,
    classify_deterministic,
    classify_dutch_book,
    deterministic_synthesis,
    dutch_book_synthesis,
)
from .model import is_uniform_reach, validate_belief_system
from .simulate import (
    FixedState,
    Prior,
    SimConfig,
    compare_to_exact,
    flagged_states,
    run_rounds,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# The first class an exception belongs to names its error code; any other
# exception, an InternalError too, is a bug and reported as "internal". All exit 2.
_ERROR_CODES = ((InputError, "input"), (UnsupportedEnvironment, "unsupported"),
                ((DomainError, IndeterminateRatio, PreconditionViolation), "domain"))


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as JSON input errors."""

    def error(self, message):
        raise InputError(message)


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused for the life
    of the process. The handlers it binds look up the library functions
    they call at call time, so rebinding a module global takes effect on
    the next call."""
    parser = _Parser(
        prog="dutchbook",
        description="Exact consistency checks and Dutch-book construction "
        "for belief systems over learning environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_, *needs, **optional):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for flag in needs:
            p.add_argument(flag, required=True)
        for flag, kw in optional.items():
            p.add_argument(flag.replace("_", "-"), **kw)
        p.add_argument("--out", help="also write the JSON payload to this file")
        return p

    cmd("validate", _validate, "validate an environment and optional beliefs or LCPS",
        "--env", __beliefs={"required": False}, __lcps={"required": False})
    cmd("check-forward", lambda args: _verdict(
            "consistent", check_forward_consistency(*_load_pair(args)),
            serialize.forward_violation_to_doc),
        "forward-consistency check", "--env", "--beliefs")
    cmd("check-complete", _check_complete, "complete-consistency check", "--env", "--beliefs")
    cmd("extract-lcps", lambda args: _check_complete(args, certificate=False),
        "extract the rationalizing LCPS", "--env", "--beliefs")
    cmd("derive-beliefs", _derive_beliefs, "derive beliefs from an LCPS", "--env", "--lcps")
    cmd("to-cps", _to_cps, "expand an LCPS to a complete CPS", "--lcps",
        __env={"required": False, "help": "fixes the state order"})
    cmd("to-lcps", _to_lcps, "collapse a complete CPS to an LCPS", "--cps")
    cmd("check-siniscalchi", lambda args: _verdict(
            "ok", check_siniscalchi(*_load_pair(args), args.max_len),
            serialize.siniscalchi_violation_to_doc),
        "generalized chain-rule check (uniform reach only)",
        "--env", "--beliefs", __max_len={"type": int, "default": None})
    cmd("verify-book", lambda args: _verify(args, classify_dutch_book, _book_verdict),
        "classify a gamble system as a Dutch book",
        "--env", "--book", __beliefs={"required": False})
    cmd("verify-deterministic",
        lambda args: _verify(args, classify_deterministic, _deterministic_verdict),
        "classify a gamble system path-by-path",
        "--env", "--book", __beliefs={"required": False})
    cmd("synth-book", lambda args: _synth(args, dutch_book_synthesis, _book_verdict),
        "construct a Dutch book against inconsistent beliefs", "--env", "--beliefs")
    cmd("synth-deterministic",
        lambda args: _synth(args, deterministic_synthesis, _deterministic_verdict),
        "construct a deterministic Dutch book against forward-inconsistent beliefs",
        "--env", "--beliefs")
    cmd("simulate", _simulate, "Monte Carlo audit of a gamble system", "--env", "--beliefs",
        "--book", __rounds={"type": int, "required": True}, __seed={"type": int, "required": True},
        __state={"required": False, "help": "fixed true state (default: uniform prior)"})
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = serialize.dumps(payload)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}")
    sys.stdout.write(text)


def _load_env(path: str):
    return serialize.environment_from_doc(serialize.load_file(path))


def _load_beliefs(path: str):
    return serialize.beliefs_from_doc(serialize.load_file(path))


def _load_pair(args):
    return _load_env(args.env), _load_beliefs(args.beliefs)


def _verdict(key: str, violation, to_doc) -> tuple[int, dict]:
    """{key: true} without a violation, else {key: false} and its document."""
    if violation is None:
        return EXIT_OK, {key: True}
    return EXIT_NEGATIVE, {key: False, "violation": to_doc(violation)}


def _validate(args) -> tuple[int, dict]:
    env = _load_env(args.env)
    payload = {
        "ok": True,
        "states": len(env.states),
        "contingencies": len(env.forest.nodes),
        "uniformReach": is_uniform_reach(env),
    }
    if args.beliefs:
        problems = validate_belief_system(env, _load_beliefs(args.beliefs))
        if problems:
            payload["ok"] = False
            payload["problems"] = [{"contingency": h, "reason": why} for h, why in problems]
    if args.lcps:
        lcps = serialize.lcps_from_doc(serialize.load_file(args.lcps))
        try:
            validate_lcps(lcps, env.states)
        except InputError as exc:
            payload["ok"] = False
            payload.setdefault("problems", []).append({"lcps": str(exc)})
    return (EXIT_OK if payload["ok"] else EXIT_NEGATIVE), payload


def _check_complete(args, certificate: bool = True) -> tuple[int, dict]:
    """check-complete, or extract-lcps (certificate=False: the bare LCPS)."""
    env, mu = _load_pair(args)
    result = check_complete_consistency(env, mu)
    if not result.consistent:
        return _verdict("consistent", result.violation, serialize.violation_to_doc)
    lcps = serialize.lcps_to_doc(result.lcps, env.states)
    if not certificate:
        return EXIT_OK, lcps
    return EXIT_OK, {
        "consistent": True,
        "lcps": lcps,
        "certificate": serialize.certificate_to_doc(result.certificate, env.states),
    }


def _derive_beliefs(args) -> tuple[int, dict]:
    env = _load_env(args.env)
    lcps = serialize.lcps_from_doc(serialize.load_file(args.lcps))
    return EXIT_OK, serialize.beliefs_to_doc(env, derive_beliefs(env, lcps))


def _to_cps(args) -> tuple[int, dict]:
    lcps = serialize.lcps_from_doc(serialize.load_file(args.lcps))
    if args.env:
        states = _load_env(args.env).states
    else:
        states = tuple(dict.fromkeys(s for level in lcps.levels for s in level))
    cps = lcps_to_cps(lcps, states)
    return EXIT_OK, serialize.cps_to_doc(cps)


def _to_lcps(args) -> tuple[int, dict]:
    cps = serialize.cps_from_doc(serialize.load_file(args.cps))
    lcps = cps_to_lcps(cps)
    return EXIT_OK, serialize.lcps_to_doc(lcps, cps.states)


def _book_verdict(env, verdict) -> tuple[dict, bool]:
    return serialize.book_verdict_to_doc(verdict, env.states), verdict.is_dutch_book


def _deterministic_verdict(env, verdict) -> tuple[dict, bool]:
    return serialize.deterministic_verdict_to_doc(verdict, env), verdict.is_deterministic_db


def _verify(args, classify, judge) -> tuple[int, dict]:
    env = _load_env(args.env)
    g = serialize.gambles_from_doc(serialize.load_file(args.book))
    payload, positive = judge(env, classify(env, g))
    if args.beliefs:
        mu = _load_beliefs(args.beliefs)
        require_valid_beliefs(env, mu)  # accepts_system does not validate
        report = accepts_system(env, mu, g)
        payload["acceptance"] = serialize.acceptance_to_doc(report, env)
        positive = positive and report.accepted
    return (EXIT_OK if positive else EXIT_NEGATIVE), payload


def _synth(args, synthesize, judge) -> tuple[int, dict]:
    env, mu = _load_pair(args)
    try:
        g, acceptance, verdict = synthesize(env, mu)
    except UnsupportedEnvironment:
        raise
    except PreconditionViolation as exc:
        return EXIT_NEGATIVE, {"synthesized": False, "reason": str(exc)}
    payload = serialize.gambles_to_doc(env, g)
    payload["acceptance"] = serialize.acceptance_to_doc(acceptance, env)
    payload["verdict"], _ = judge(env, verdict)
    return EXIT_OK, payload


def _simulate(args) -> tuple[int, dict]:
    env, mu = _load_pair(args)
    g = serialize.gambles_from_doc(serialize.load_file(args.book))
    if args.state:
        mode = FixedState(args.state)
    else:
        n = len(env.states)
        mode = Prior({s: Fraction(1, n) for s in env.states})
    report = run_rounds(env, mu, g, SimConfig(args.rounds, args.seed, mode))
    payload = serialize.sim_report_to_doc(report, env.states)
    deviations = compare_to_exact(report)
    payload["deviations"] = {s: deviations[s] for s in env.states if s in deviations}
    payload["flagged"] = flagged_states(deviations)
    return EXIT_OK, payload


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload = args.handler(args)
        _emit(payload, args.out)
        return code
    except Exception as exc:
        kind = next((k for cls, k in _ERROR_CODES if isinstance(exc, cls)), "internal")
        message = str(exc)
        if kind == "internal":
            traceback.print_exc(file=sys.stderr)
            message = f"{type(exc).__name__}: {exc}"
        _emit({"error": {"code": kind, "message": message, "location": None}}, None)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
