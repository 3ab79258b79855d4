"""The benchmark's own tests (stdlib unittest; about a minute).

    python3 bench/selftest.py
"""
from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def file_bytes(folder: Path) -> dict[str, bytes]:
    return {str(p.relative_to(folder)): p.read_bytes() for p in sorted(folder.rglob("*.json"))}


class FlipPayoff:
    """A stand-in for `dutchbook.cli` that flips the sign of one payoff in
    every synthesized book before it reaches stdout."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(argv)
        payload = json.loads(buf.getvalue())
        if argv[0] == "synth-book":
            gamble = next(iter(payload["gambles"].values()))
            state = next(iter(gamble))
            gamble[state] = "-" + gamble[state] if not gamble[state].startswith("-") else gamble[state][1:]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return code


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        cls.root = Path(cls.tmp.name)
        cls.cli = run.import_cli()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    def serve(self, requests, cli=None, tracer=None):
        return [run.serve(cli or self.cli, r, False, tracer) for r in requests]

    def stream(self, workload: str, seed: int, name: str):
        folder = self.root / name
        blocks, warm, _ = run.build_stream(wl.WORKLOADS[workload], seed, folder)
        return folder, blocks, warm

    def test_same_seed_same_inputs_and_outputs(self):
        for workload in wl.WORKLOADS:
            a, blocks_a, _ = self.stream(workload, 5, f"{workload}-a")
            b, blocks_b, _ = self.stream(workload, 5, f"{workload}-b")
            self.assertEqual(file_bytes(a), file_bytes(b), workload)
            self.assertEqual([[r.rid for r in blk] for blk in blocks_a],
                             [[r.rid for r in blk] for blk in blocks_b])
        digests = [[r.digest for r in self.serve(self.stream("small-cli", 5, name)[1][0])]
                   for name in ("x", "y")]
        self.assertEqual(digests[0], digests[1])

    def test_different_seed_different_instances(self):
        for workload in wl.WORKLOADS:
            a = file_bytes(self.stream(workload, 5, f"{workload}-5")[0])
            b = file_bytes(self.stream(workload, 6, f"{workload}-6")[0])
            envs = [name for name in a if name.endswith("env.json")]
            self.assertTrue(envs)
            self.assertTrue(any(a[n] != b.get(n) for n in envs), workload)

    def test_default_seed_matches_committed_digests(self):
        _, blocks, warm = self.stream("small-cli", run.DEFAULT_SEED, "default")
        results = self.serve(warm + [r for blk in blocks for r in blk])
        self.assertEqual([r.failure for r in results if r.failure], [])
        self.assertEqual(run.check_digests(results, "small-cli", run.DEFAULT_SEED), [])

    def test_corrupted_book_is_counted_as_failed(self):
        _, blocks, warm = self.stream("small-cli", 7, "corrupt")
        results = self.serve(warm + blocks[0], cli=FlipPayoff(self.cli))
        failed = [r for r in results if r.failure]
        synths = [r for r in results if r.kind == "synth-book"]
        self.assertTrue(synths)
        self.assertEqual({r.rid for r in failed}, {r.rid for r in synths})
        summary = run.failure_summary(results)
        self.assertEqual(summary["failed"], len(synths))
        self.assertAlmostEqual(summary["failed_ratio"], len(synths) / len(results))

    def test_tracing_keeps_stdout_and_reports_every_layer_metric(self):
        _, blocks, warm = self.stream("small-cli", 8, "traced")
        plain = self.serve(warm + blocks[0])
        original = self.cli.main
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = self.serve(warm + blocks[0], tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertEqual([r.digest for r in plain], [r.digest for r in traced])
        self.assertEqual([r.failure for r in traced if r.failure], [])
        metrics = tracer.metrics()
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in declared["per_layer"]]
        self.assertEqual(names, [n for n, _, _ in spans.layer_metric_names()])
        for name in names:
            if name != "trace.overhead_ratio":
                self.assertIn(name, metrics)
        for layer in ("model.build_environment", "cps.check_siniscalchi", "simulate.run_rounds",
                      "serialize.load", "cli.main"):
            self.assertGreater(metrics[f"{layer}.calls"], 0, layer)
        self.assertIs(self.cli.main, original)

    def test_eps_attempts_per_book_repeat_exactly(self):
        _, blocks, _ = self.stream("flat-book", run.DEFAULT_SEED, "eps")
        synths = [r for r in blocks[0] if r.kind == "synth-book"][:3]
        ratios = []
        for _ in range(2):
            tracer = spans.Tracer()
            tracer.install()
            try:
                for result in self.serve(synths, tracer=tracer):
                    self.assertIsNone(result.failure)
            finally:
                tracer.uninstall()
            ratios.append(tracer.metrics()["gambles.eps_attempts_per_book"])
        self.assertEqual(ratios[0], ratios[1])
        self.assertGreaterEqual(ratios[0], 2)  # several epsilon attempts per book

    def test_layer_map_names_known_metrics(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"] for m in declared["end_to_end"]} | {"failed_ratio"}
        workloads = {w["name"] for w in declared["workloads"]}
        self.assertEqual(workloads, set(wl.WORKLOADS))
        layer_names = [n for n, _, _ in spans.layer_metric_names()]
        table = json.loads((run.BENCH / "layer_map.json").read_text())["map"]
        for row in table:
            for layer in row["layers"]:
                self.assertTrue(any(n == layer or n.startswith(layer + ".") for n in layer_names), layer)
            self.assertLessEqual(set(row["moves"]), e2e)
            self.assertLessEqual(set(row["on"]) | set(row["flat_on"]), workloads)


if __name__ == "__main__":
    unittest.main()
