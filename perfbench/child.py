"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py <spec.json>

The spec names the corpus files, the oracle seeds (one ``cli.main`` call
per seed, all in this interpreter), whether to trace, and where to write
spans.  Prints one JSON line: when the odetorsion import finished (clock
and process CPU time), the CLI records without their timing field, wall
and CPU time per call, per-verdict times, peak RSS and, when traced, the
per-layer figures.
"""

import os
import sys
import time

sys.path.insert(0, os.path.abspath("src"))
import odetorsion.cli  # noqa: E402  (the set-up window ends here)

IMPORTED_NS = time.monotonic_ns()
IMPORTED_CPU_S = time.process_time()

if not os.path.abspath(odetorsion.__file__).startswith(os.path.abspath("src") + os.sep):
    sys.exit(f"odetorsion was imported from {odetorsion.__file__}, not from ./src")

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from odetorsion import calculus, cli, oracle, parsing, torsion  # noqa: E402
from odetorsion import expr as ex  # noqa: E402

from tracer import Tracer  # noqa: E402


def _dag_nodes(roots) -> int:
    seen = set()
    todo = list(roots)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(ex.children(node))
    return len(seen)


def _tree_nodes(roots, memo: dict) -> int:
    """Nodes of the expressions written out as trees (memoized by node)."""
    todo = list(roots)
    while todo:
        node = todo[-1]
        if id(node) in memo:
            todo.pop()
            continue
        pending = [c for c in ex.children(node) if id(c) not in memo]
        if pending:
            todo.extend(pending)
        else:
            todo.pop()
            memo[id(node)] = 1 + sum(memo[id(c)] for c in ex.children(node))
    return sum(memo[id(r)] for r in roots)


def _invariant_exprs(invariant) -> list:
    if isinstance(invariant, ex.Expr):
        return [invariant]
    out = []
    for item in invariant:
        out.extend([item] if isinstance(item, ex.Expr) else item)
    return out


class _JsonProxy:
    """Stands in for the json module inside cli so json.dumps is timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Traced:
    """Installs the layer wrappers and turns their spans into figures."""

    def __init__(self):
        t = self.tracer = Tracer()
        self.entries: dict = {}
        self.invariants: list = []
        self.is_zero_results: list = []
        t.install(parsing, "parse_corpus", "parsing.parse_corpus",
                  on_result=lambda out: self.entries.update((e.system.name, e) for e in out))
        t.install(ex, "build", "expr.build", recursive=True)
        for fn in ("free_vars", "is_polynomial", "contains_fn", "node_count"):
            t.install(ex, fn, "expr." + fn)
        t.install(ex, "evaluate", "expr.evaluate")
        t.install(ex, "evaluate_exact", "expr.evaluate_exact")

        def partial_enter(args):
            if (id(args[0]), args[1]) in calculus._partial_cache:
                t.count("calculus.partial.hit")

        t.install(calculus, "partial", "calculus.partial", recursive=True, on_enter=partial_enter)
        t.install(calculus, "total_derivative", "calculus.total_derivative")
        t.install(calculus, "nth_partial", "calculus.nth_partial")
        for fn in ("tresse_torsion", "fels_torsion"):
            t.install(torsion, fn, "torsion." + fn,
                      on_result=lambda report: self.invariants.append((t.input(), report.invariant)))
        t.install(torsion, "quartic_test", "torsion.quartic_test")
        t.install(torsion, "check_conserved", "torsion.check_conserved")
        t.install(oracle, "is_zero", "oracle.is_zero", on_result=self.is_zero_results.append)
        t.install(oracle, "is_zero_matrix", "oracle.is_zero_matrix")
        t.install(cli, "analyze_entry", "cli.analyze_entry",
                  on_enter=lambda args: t.set_input(f"{args[1].seed}:{args[0].system.name}"))
        cli.json = _JsonProxy(t.wrap("cli.json_dumps", json.dumps))

    def layers(self, verdicts: int) -> dict:
        t = self.tracer
        c = t.counts
        memo: dict = {}
        dag = tree = 0
        self.ratios = {}
        for input_id, inv in self.invariants:
            exprs = _invariant_exprs(inv)
            d, n = _dag_nodes(exprs), _tree_nodes(exprs, memo)
            dag += d
            tree += n
            self.ratios.setdefault(input_id.partition(":")[2], n / d)
        calls = c["oracle.is_zero"]
        numeric = c["expr.evaluate"]
        singular = c["expr.evaluate.raised.EvalSingular"]
        partials = c["calculus.partial"]
        return {
            "parsing.self_ms": t.self_ms("parsing.parse_corpus"),
            "parsing.rhs_dag_nodes": sum(_dag_nodes(e.system.rhs) for e in self.entries.values()),
            "expr.build.visits": c["expr.build"],
            "expr.build.self_ms": t.self_ms("expr.build"),
            "expr.walk.self_ms": t.self_ms("expr.free_vars", "expr.is_polynomial",
                                           "expr.contains_fn", "expr.node_count"),
            "expr.invariant_dag_nodes": dag,
            "expr.invariant_tree_nodes": tree,
            "expr.tree_dag_ratio": tree / dag if dag else 1.0,
            "expr.intern_entries": len(ex._intern),
            "calculus.memo_entries": len(calculus._partial_cache),
            "calculus.partial.calls": partials,
            "calculus.self_ms": t.self_ms("calculus.partial", "calculus.total_derivative",
                                          "calculus.nth_partial"),
            "calculus.memo_hit_ratio": c["calculus.partial.hit"] / partials if partials else 0.0,
            "torsion.assembly.self_ms": t.self_ms("torsion.tresse_torsion", "torsion.fels_torsion",
                                                  "torsion.quartic_test", "torsion.check_conserved"),
            "torsion.invariant.ms": t.total_ms("torsion.tresse_torsion", "torsion.fels_torsion"),
            "torsion.quartic.ms": t.total_ms("torsion.quartic_test"),
            "torsion.conserved.ms": t.total_ms("torsion.check_conserved"),
            "oracle.calls": calls,
            "oracle.calls_per_verdict": calls / verdicts if verdicts else 0.0,
            "oracle.exact_share": sum(v.exact for v in self.is_zero_results) / calls if calls else 0.0,
            "oracle.self_ms": t.self_ms("oracle.is_zero", "oracle.is_zero_matrix"),
            "oracle.evaluations": numeric + c["expr.evaluate_exact"],
            "oracle.evaluate.self_ms": t.self_ms("expr.evaluate"),
            "oracle.evaluate_exact.self_ms": t.self_ms("expr.evaluate_exact"),
            "oracle.singular_retries": singular,
            "oracle.valid_sample_ratio": (numeric - singular) / numeric if numeric else 1.0,
            "oracle.inconclusive": sum(v.outcome == oracle.INCONCLUSIVE for v in self.is_zero_results),
            "oracle.gray_zone_verdicts": sum("gray" in v.reason for v in self.is_zero_results),
            "cli.analyze_entry.ms": t.total_ms("cli.analyze_entry"),
            "cli.json_ms": t.total_ms("cli.json_dumps"),
        }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"imported_ns": IMPORTED_NS, "imported_cpu_s": IMPORTED_CPU_S, "jobs": cli.build_parser().parse_args(["analyze", "-"]).jobs}
    if not spec["files"]:
        print(json.dumps(out))
        return 0

    traced = Traced() if spec["trace"] else None
    verdict_ms: list = []
    raised: list = []
    analyze = cli.analyze_entry

    # Per-verdict time is the worker thread's CPU time: with --jobs > 1 the
    # wall time of one verdict mostly measures which other verdict held
    # the interpreter lock meanwhile.  Wall time shows in throughput.
    def timed_analyze_entry(entry, cfg, method="auto"):
        started = time.thread_time()
        try:
            return analyze(entry, cfg, method)
        except Exception as err:
            raised.append(f"{entry.system.name}: {type(err).__name__}: {err}")
            raise
        finally:
            verdict_ms.append((time.thread_time() - started) * 1000.0)

    cli.analyze_entry = timed_analyze_entry

    calls = []
    for seed in spec["seeds"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        started, started_cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(["analyze", *spec["files"], "--json", "--seed", str(seed), *spec["options"]])
        except Exception as err:  # reported to the parent as failed verdicts
            rc, error = None, f"{type(err).__name__}: {err}"
        wall, cpu = time.perf_counter() - started, time.process_time() - started_cpu
        try:
            records = json.loads(stdout.getvalue()) if rc in (0, 1) else []
        except ValueError as err:
            records, error = [], f"unreadable CLI output: {err}"
        for r in records:
            r.pop("wall_ms", None)
        calls.append({"seed": seed, "rc": rc, "wall_s": wall, "cpu_s": cpu, "records": records,
                      "verdict_ms": verdict_ms[:], "error": error or stderr.getvalue().strip() or None})
        verdict_ms.clear()

    out.update(calls=calls, raised=raised,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if traced is not None:
        out["layers"] = traced.layers(sum(len(c["verdict_ms"]) for c in calls))
        out["invariant_ratios"] = traced.ratios
        if spec.get("spans_out"):
            traced.tracer.write(spec["spans_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
