"""Outside-in tracing of `dutchbook`'s public functions.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `dutchbook` module namespace that binds it, so calls between
modules nest (a call to `check_complete_consistency` from `gambles` or
`cli` goes through the wrapper too). Classes are traced through their
`__init__`. No source file changes; `uninstall()` restores every binding.

Each call records a span (name, start, end, parent span, request id) in
memory. Self time is a span's duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("model", "odds", "consistency", "cps", "gambles", "simulate", "serialize", "cli")

# (module, attribute) -> the layer metric it is reported under.
TRACED = {
    ("model", "build_environment"): "model.build_environment",
    ("model", "ContingencyForest"): "model.ContingencyForest",
    ("model", "validate_belief_system"): "model.validate_belief_system",
    ("model", "has_deterministic_continuation"): "model.has_deterministic_continuation",
    ("odds", "build_coherence_graph"): "odds.build_coherence_graph",
    ("odds", "check_coherence"): "odds.check_coherence",
    ("consistency", "check_complete_consistency"): "consistency.check_complete_consistency",
    ("consistency", "derive_beliefs"): "consistency.derive_beliefs",
    ("consistency", "verify_ccbs"): "consistency.verify_ccbs",
    ("consistency", "check_forward_consistency"): "consistency.check_forward_consistency",
    ("cps", "check_siniscalchi"): "cps.check_siniscalchi",
    ("cps", "lcps_to_cps"): "cps.lcps_to_cps",
    ("cps", "cps_to_lcps"): "cps.cps_to_lcps",
    ("gambles", "synthesize_dutch_book"): "gambles.synthesize_dutch_book",
    ("gambles", "classify_dutch_book"): "gambles.classify_dutch_book",
    ("gambles", "accepts_system"): "gambles.accepts_system",
    ("gambles", "synthesize_deterministic_db"): "gambles.synthesize_deterministic_db",
    ("gambles", "classify_deterministic"): "gambles.classify_deterministic",
    ("simulate", "run_rounds"): "simulate.run_rounds",
    ("cli", "main"): "cli.main",
}
SERIALIZE_LOAD = ("load_file", "environment_from_doc", "beliefs_from_doc", "gambles_from_doc",
                  "lcps_from_doc", "cps_from_doc")
SERIALIZE_DUMP = ("dumps", "environment_to_doc", "beliefs_to_doc", "gambles_to_doc",
                  "lcps_to_doc", "cps_to_doc", "violation_to_doc", "certificate_to_doc",
                  "forward_violation_to_doc", "siniscalchi_violation_to_doc",
                  "book_verdict_to_doc", "deterministic_verdict_to_doc",
                  "acceptance_to_doc", "sim_report_to_doc")
TRACED.update({("serialize", f): "serialize.load" for f in SERIALIZE_LOAD})
TRACED.update({("serialize", f): "serialize.dump" for f in SERIALIZE_DUMP})

SPAN_NAMES = tuple(dict.fromkeys(TRACED.values()))
COUNTS = ("odds.graph_edges", "odds.levels", "odds.witness_links", "simulate.rounds",
          "serialize.bytes_out")
RATIOS = ("gambles.eps_attempts_per_book", "gambles.classify_per_book")


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(c, "count", "lower") for c in COUNTS]
    out += [(r, "1/book", "lower") for r in RATIOS]
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out += [("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.request_id = None
        self._last_error = None
        self._patches: list[tuple[object, str, object]] = []

    def _count(self, name: str, result, args) -> None:
        if name == "odds.build_coherence_graph":
            self.counts["odds.graph_edges"] += len(result.edges)
        elif name == "odds.check_coherence":
            if hasattr(result, "cycle"):
                self.counts["odds.witness_links"] += len(result.cycle)
            else:
                self.counts["odds.levels"] += len(result.partition.levels)
        elif name == "simulate.run_rounds":
            self.counts["simulate.rounds"] += args[3].rounds
        elif name == "serialize.dump" and isinstance(result, str):
            self.counts["serialize.bytes_out"] += len(result.encode())

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:  # count where it was raised
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, result, args)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "dutchbook" or k.startswith("dutchbook.")]
        for (mod, attr), name in TRACED.items():
            owner = sys.modules[f"dutchbook.{mod}"]
            original = getattr(owner, attr)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self.wrap(name, mod, init)
                continue
            wrapper = self.wrap(name, mod, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Calls, self time, counts, ratios and errors over every span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
        attempts = classify = 0
        for name, _, _, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == "gambles.synthesize_dutch_book":
                attempts += name == "gambles.accepts_system"
                classify += name == "gambles.classify_dutch_book"
        books = calls["gambles.synthesize_dutch_book"]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for c in COUNTS:
            out[c] = self.counts[c]
        out["gambles.eps_attempts_per_book"] = attempts / books if books else 0.0
        out["gambles.classify_per_book"] = classify / books if books else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out
