"""Seeded, stdlib-only benchmark of the `dutchbook` command line.

    python3 bench/run.py --workload flat-book --seed 3 --seconds 28 --trace 0

One client replays a seeded stream of in-process `dutchbook.cli.main`
requests in a closed loop: each request is sent when the previous one has
returned. Requests read the JSON files that set-up wrote; stdout is
captured and, after the request's timer stops, judged by the benchmark's
own arithmetic (`oracle.py`). The stream is a list of blocks, each holding
one instance of every size class. A block is started only before `--seconds`
have passed and is always finished, so every run serves whole blocks and the
same size mix. Set-up generates more blocks than a run serves at this
commit, so no request is sent twice in a run; a run that uses them all up
ends early.

Times are reported at a reference machine speed. Where other tenants share
its cores, a machine's speed can drift by up to half within seconds, and
all pure-Python work drifts together. So a fixed kernel of the
benchmark's own code is timed between requests every
`CALIBRATION_INTERVAL_S`, and each time is scaled by `REFERENCE_KERNEL_S`
over the mean kernel time of the two samples before and the two after it.
Set-up is timed the same way, in pieces of one import or one block with a
kernel sample between them. The unscaled figures are in the details line.

`--trace 0` reports the end-to-end metrics. `--trace 1` spends half the
time untraced and half with every public function wrapped (`spans.py`),
and reports the per-layer metrics (wall seconds, not scaled) plus the
tracing overhead, untraced over traced requests per second; the stdout
digests of the two halves must match, and the spans go to
`.bench_work/spans/` as JSON lines. Every run starts with a warm-up pass
of small instances through every subcommand, which is checked but left out
of the end-to-end figures. For the default seed each request's stdout
digest must also match the one committed in `digests/`; `--record-digests`
rewrites that file.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The line before it holds the details: workload descriptors, sample
counts, tail percentiles, unscaled figures and any failures.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
CALIBRATION_INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 0.003

import spans  # noqa: E402  (sibling modules; run.py is started as a script)
import workloads as wl  # noqa: E402


@dataclass
class Result:
    rid: str
    kind: str
    start: float
    wall: float  # seconds as measured
    rounds: int
    digest: str
    failure: str | None
    warmup: bool
    seconds: float = 0.0  # at reference speed; set once the run is calibrated


def _kernel() -> Fraction:
    """Fixed pure-Python work: rational sums, comparisons and dict updates."""
    zero = Fraction(0)
    best, table = zero, {}
    for i in range(1, 600):
        key = i % 23
        table[key] = table.get(key, zero) + Fraction(i % 7 + 1, i % 11 + 3)
        if table[key] > best:
            best = table[key]
    return best


class Calibration:
    """Kernel timings taken between requests, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.kernel_s.append(end - start)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= CALIBRATION_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed: the mean of the two kernel samples
        before `start` and the two after `end`."""
        before = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        near = self.kernel_s[max(0, before - 2):before] + self.kernel_s[after:after + 2]
        return REFERENCE_KERNEL_S / (sum(near) / len(near))

    def scaled(self, start: float, wall: float) -> float:
        return wall * self.scale(start, start + wall)

    def apply(self, results: list[Result]) -> None:
        for r in results:
            r.seconds = self.scaled(r.start, r.wall)


def import_cli():
    """Import `dutchbook.cli` afresh from this checkout's `src`."""
    for name in [k for k in sys.modules if k == "dutchbook" or k.startswith("dutchbook.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("dutchbook.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dutchbook imported from {cli.__file__}, not from {SRC}")
    return cli


def descriptor(inst) -> dict:
    env = inst.env
    return {
        "S": len(env.states),
        "H": len(env.nodes),
        "depth": env.depth(),
        "nnz_eta": sum(len(row) for row in env.eta.values()),
        "sum_Sh_sq": sum(len(row) ** 2 for row in env.reach.values()),
        "H_times_S": len(env.nodes) * len(env.states),
        "levels": len(inst.lcps),
    }


def build_stream(workload: wl.Workload, seed: int, folder: Path, timed=None):
    """Generate the blocks and the warm-up pass and write their files.

    `timed(fn, *args)` calls `fn`; set-up passes one that times each block."""
    def requests(insts, make=workload.requests):
        out = []
        for inst in insts:
            out += make(inst, wl.write_files(inst, folder / inst.name))
        return out

    def block(rng, b, make_block=workload.make_block, make=workload.requests):
        insts = make_block(rng, b)
        return insts, requests(insts, make)

    timed = timed or (lambda fn, *args: fn(*args))
    rng = random.Random(f"{workload.name}:{seed}")
    blocks, descriptors = [], []
    for b in range(workload.blocks):
        insts, reqs = timed(block, rng, b)
        descriptors += [descriptor(inst) for inst in insts]
        blocks.append(reqs)
    _, warm = timed(block, random.Random(f"warm-up:{seed}"), "w", wl.small_block, wl.small_requests)
    for req in warm:
        req.rid = "warmup." + req.rid
    return blocks, warm, descriptors


def setup(workload: wl.Workload, seed: int, folder: Path, cal: Calibration):
    """Import, generate and write: one set-up, timed piece by piece. Each
    set-up of a run writes the same files over again; deleting them first
    would slow the next writes by half or more, and unevenly, on a file
    system that discards freed blocks.

    Returns (seconds at reference speed, wall seconds, cli, blocks, warm-up,
    descriptors)."""
    pieces = []  # (start, wall seconds)

    def timed(fn, *args):
        cal.maybe_sample()
        start = time.perf_counter()
        out = fn(*args)
        pieces.append((start, time.perf_counter() - start))
        return out

    cli = timed(import_cli)
    blocks, warm, descriptors = build_stream(workload, seed, folder, timed)
    cal.sample()
    return (sum(cal.scaled(start, wall) for start, wall in pieces), sum(w for _, w in pieces),
            cli, blocks, warm, descriptors)


def judge(req: wl.Request, code, text: str) -> str | None:
    if code != req.expect:
        return f"exit code {code}, expected {req.expect}"
    try:
        req.check(json.loads(text))
    except wl.CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return None


def serve(cli, req: wl.Request, warmup: bool, tracer=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request_id = req.rid
    failure = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(req.argv)
        except Exception as exc:  # a crash is a failed request, not a stopped run
            code, failure = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    if failure is None:
        failure = judge(req, code, text)
    digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    return Result(req.rid, req.kind, start, elapsed, req.rounds, digest, failure, warmup)


def run_requests(cli, blocks, warm, seconds: float, cal: Calibration, tracer=None) -> list[Result]:
    """The warm-up pass, then whole blocks, each started before `seconds`
    have passed."""
    results = []
    for req in warm:
        cal.maybe_sample()
        results.append(serve(cli, req, True, tracer))
    deadline = time.perf_counter() + seconds
    for block in blocks:
        if time.perf_counter() >= deadline:
            break
        for req in block:
            cal.maybe_sample()
            results.append(serve(cli, req, False, tracer))
    cal.sample()
    cal.apply(results)
    return results


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def served_per_second(results: list[Result], field: str = "seconds") -> float:
    timed = [getattr(r, field) for r in results
             if not r.warmup and wl.request_class(r.kind) != "mc"]
    return len(timed) / sum(timed)


def end_to_end(workload: wl.Workload, results: list[Result], setup_s: float,
               field: str = "seconds") -> tuple[dict, dict]:
    """Metric name -> (value, unit), and the sample counts behind them."""
    primary = [r for r in results if not r.warmup]
    metrics = {"setup_s": (setup_s, "s"),
               "requests_per_s": (served_per_second(results, field), "1/s")}
    samples = {}
    for cls in ("check", "synth", "verify"):
        ms = [getattr(r, field) * 1000 for r in primary if wl.request_class(r.kind) == cls]
        pct = workload.tail_pct[cls]
        tail = percentile(ms, pct)
        metrics[f"{cls}_p50_ms"] = (statistics.median(ms), "ms")
        metrics[f"{cls}_tail_ms"] = (tail, "ms")
        samples[cls] = {"n": len(ms), "tail_pct": pct, "beyond_tail": sum(v > tail for v in ms)}
    sims = [r for r in primary if r.kind == "simulate"]
    rounds = sum(r.rounds for r in sims)
    metrics["mc_rounds_per_s"] = (rounds / sum(getattr(r, field) for r in sims), "1/s")
    samples["mc"] = {"n": len(sims), "rounds": rounds}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, samples


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> Path:
    """One JSON line per span: name, start, end, parent index, request id."""
    path = WORK / "spans" / f"{workload}-{seed}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def failure_summary(results: list[Result]) -> dict:
    failures = [f"{r.rid}: {r.failure}" for r in results if r.failure]
    return {"failed": len(failures), "failed_ratio": len(failures) / len(results),
            "failures": failures[:20]}


def check_digests(results: list[Result], workload: str, seed: int) -> list[str]:
    """For the default seed, stdout digests must match the committed ones."""
    if seed != DEFAULT_SEED:
        return []
    committed = json.loads((DIGESTS / f"{workload}.json").read_text(encoding="utf-8"))
    return [f"{r.rid}: stdout digest differs from the committed one"
            for r in results if committed.get(r.rid) != r.digest]


def record_digests(cli, blocks, warm, workload: str) -> None:
    digests = {}
    for req in warm + [req for block in blocks for req in block]:
        result = serve(cli, req, False)
        if result.failure:
            raise SystemExit(f"{req.rid}: {result.failure}")
        digests[req.rid] = result.digest
    DIGESTS.mkdir(exist_ok=True)
    path = DIGESTS / f"{workload}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="serve every request of the default-seed stream once and "
                             "rewrite its committed digests")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    folder = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        shutil.rmtree(folder, ignore_errors=True)
        cal = Calibration()
        setup_s, setup_wall_s = [], []
        for _ in range(SETUP_REPEATS):
            stream = None  # each set-up starts without the last one's objects
            gc.collect()
            try:
                seconds, wall, *stream = setup(workload, args.seed, folder, cal)
            except ImportError as exc:
                print(f"cannot import dutchbook from {SRC}: {exc}", file=sys.stderr)
                return 2
            setup_s.append(seconds)
            setup_wall_s.append(wall)
        cli, blocks, warm, descriptors = stream
        # The collector then skips the benchmark's own objects, so requests
        # pay only for the garbage the program makes.
        gc.collect()
        gc.freeze()
        if args.record_digests:
            if args.seed != DEFAULT_SEED:
                parser.error(f"digests are committed for --seed {DEFAULT_SEED} only")
            record_digests(cli, blocks, warm, workload.name)
            return 0

        details = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                   "setup_s": setup_s, "setup_wall_s": setup_wall_s}
        if args.trace:
            plain = run_requests(cli, blocks, warm, args.seconds / 2, cal)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_requests(cli, blocks, warm, args.seconds / 2, cal, tracer)
            finally:
                tracer.uninstall()
            results = plain + traced
            raw = tracer.metrics()
            raw["trace.overhead_ratio"] = served_per_second(plain) / served_per_second(traced)
            metrics = {name: (raw[name], unit) for name, unit, _ in spans.layer_metric_names()}
            plain_digests = {r.rid: r.digest for r in plain}
            problems = [f"{r.rid}: traced stdout differs from untraced" for r in traced
                        if plain_digests.get(r.rid, r.digest) != r.digest]
            details["spans_file"] = str(write_spans(tracer, workload.name, args.seed).relative_to(ROOT))
        else:
            results = run_requests(cli, blocks, warm, args.seconds, cal)
            metrics, details["samples"] = end_to_end(workload, results, statistics.median(setup_s))
            wall, _ = end_to_end(workload, results, statistics.median(setup_wall_s), "wall")
            details["wall_clock_metrics"] = {name: value for name, (value, _) in wall.items()}
            problems = []
        details["calibration_kernel_ms"] = {
            "median": statistics.median(cal.kernel_s) * 1000, "min": min(cal.kernel_s) * 1000,
            "max": max(cal.kernel_s) * 1000, "samples": len(cal.kernel_s)}
        problems += check_digests(results, workload.name, args.seed)

        summary = failure_summary(results)
        kinds: dict[str, int] = {}
        for r in results:
            kinds[r.kind] = kinds.get(r.kind, 0) + 1
        sizes = {key: [d[key] for d in descriptors] for key in descriptors[0]}
        details.update(summary)
        details.update({
            "descriptors": {key: {"min": min(v), "median": statistics.median(v), "max": max(v),
                                  "total": sum(v)} for key, v in sizes.items()},
            "instances": len(descriptors),
            "blocks": {"generated": len(blocks),
                       "served": len({r.rid.split(".")[0] for r in results if not r.warmup})},
            "requests_by_kind": kinds,
            "digest_problems": problems[:20],
        })
        print(json.dumps(details, sort_keys=True))
        print(json.dumps({
            "correct": summary["failed"] == 0 and not problems,
            "attempted": len(results),
            "failed": summary["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(folder, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
