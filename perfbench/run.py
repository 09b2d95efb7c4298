"""odetorsion benchmark: time-to-verdict and throughput, plus a traced run.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
./src).  Each pass starts a fresh interpreter (perfbench/child.py), so the
intern table and the partial-derivative memo start empty as they do for
a CLI user, and drives ``odetorsion.cli.main(["analyze", <files>, "--json",
"--seed", S])`` in process.  Passes repeat until --seconds have elapsed;
figures are medians over passes, and timings are CPU time (README.md says
why).  Every verdict is compared with the
input's known answer.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Details (tail
percentile, digests, overhead, families) go to
.perfbench_work/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = ("corpus", "scalar", "systems", "reseed")
# Entry counts are odd so that the median verdict is one entry's own
# repeated verdicts, and a tenth of each count sits away from a whole
# number, so that p90 falls inside one entry's repeats as well.
SCALAR_COUNT = 35
SYSTEMS_COUNT = 31
# reseed classifies its inputs under one untimed warm-up seed and then
# RESEED_SEEDS timed ones, so it measures the warm memo and intern table.
RESEED_SCALAR, RESEED_SYSTEMS, RESEED_SEEDS = 9, 4, 4
# The tail percentile is fixed per workload, so that every run and commit
# reports the same one, and untraced passes continue past --seconds until
# at least ten verdicts lie beyond it.  p90 suits the generated workloads,
# whose counts are chosen for it; on the shipped corpus p90 falls between
# entries of quite different cost, while p95 falls among two of equal cost.
TAIL_PERCENTILE = {"corpus": 95.0, "scalar": 90.0, "systems": 90.0, "reseed": 90.0}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 60
HARD_STOP_S = 100

# Record fields that do not depend on timing; --json minus wall_ms.
DIGEST_FIELDS = ("name", "classification", "method", "witness", "witness_value",
                 "witness_entry", "quartic", "conserved", "reason")

# hitchin-dual ships with "expect unspecified": its whole non-timing
# record is pinned to what the parent implementation answers for every
# seed (a zero verdict carries no seed-dependent witness).
PINNED = {
    "hitchin-dual": {"name": "hitchin-dual", "classification": "straight", "method": "tresse",
                     "witness": None, "witness_value": None, "witness_entry": None,
                     "quartic": "not-straight", "conserved": None, "reason": None},
}

# Counts that must repeat exactly between traced passes of the same inputs.
DETERMINISTIC = ("expr.build.visits", "calculus.partial.calls", "oracle.calls", "oracle.evaluations")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Inputs


def corpus_known(path: Path) -> dict:
    """Known answers from the shipped corpus: its expect and conserved lines."""
    known, name = {}, None
    for raw in path.read_text(encoding="utf-8").splitlines():
        word, _, rest = raw.strip().partition(" ")
        if word == "system":
            name = rest.strip()
            known[name] = {"conserved": []}
        elif word == "conserved":
            known[name]["conserved"].append("zero")
        elif word == "expect":
            known[name]["classification"] = rest.strip()
    for name, k in known.items():
        if not k["conserved"]:
            del k["conserved"]
        if k.get("classification") == "unspecified":
            del k["classification"]
    return known


def make_inputs(workload: str, seed: int, work: Path):
    """Corpus files, oracle seeds, untimed leading seeds and known answers."""
    if workload == "corpus":
        files = sorted(Path("corpus").iterdir())
        known = {}
        for f in files:
            known.update(corpus_known(f))
        return [str(f) for f in files], [seed], 0, known, {}

    rng = random.Random(f"{workload}:{seed}")
    if workload == "scalar":
        entries, seeds, warmup = gen.scalar_set(rng, SCALAR_COUNT), [seed], 0
    elif workload == "systems":
        entries, seeds, warmup = gen.systems_set(rng, SYSTEMS_COUNT), [seed], 0
    else:
        entries = gen.scalar_set(rng, RESEED_SCALAR) + gen.systems_set(rng, RESEED_SYSTEMS, dims=(2, 3, 4))
        seeds, warmup = [seed + k for k in range(1 + RESEED_SEEDS)], 1
    path = work / f"{workload}.corpus"
    path.write_text("".join(e.corpus_text() for e in entries), encoding="utf-8")
    return [str(path)], seeds, warmup, {e.name: e.known() for e in entries}, {e.name: e.family for e in entries}


# ---------------------------------------------------------------------------
# Passes


def run_child(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    launched = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_wall_s"] = (out["imported_ns"] - launched) / 1e9
    return out


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: this machine's speed right
    now, recorded so that drift between runs can be told from a change."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def view(record: dict) -> dict:
    return {k: record.get(k) for k in DIGEST_FIELDS}


def digest(calls: list) -> str:
    views = [[c["seed"], [view(r) for r in c["records"]]] for c in calls]
    blob = json.dumps(views, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_pass(out: dict, known: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one pass against known answers."""
    attempted = failed = 0
    problems = []
    problems += out["raised"]
    for call in out["calls"]:
        got = {r["name"]: r for r in call["records"]}
        if call["error"] and call["rc"] not in (0, 1):
            problems.append(f"seed {call['seed']}: {call['error']}")
        for name, answer in known.items():
            attempted += 1
            r = got.get(name)
            if r is None:
                failed += 1
                problems.append(f"seed {call['seed']} {name}: no record")
                continue
            wrong = [k for k, v in answer.items() if r.get(k) != v]
            if name in PINNED and view(r) != PINNED[name]:
                wrong.append("pinned record")
            if wrong or r["classification"] == "inconclusive":
                failed += 1
                problems.append(f"seed {call['seed']} {name}: {', '.join(wrong) or 'inconclusive'}"
                                f" (got {r['classification']}, quartic {r.get('quartic')})")
    return attempted, failed, problems


def percentile(sorted_values: list, p: float) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "odetorsion" / "__init__.py").is_file() or not (root / "corpus").is_dir():
        fail("run from the root of an odetorsion checkout (needs ./src/odetorsion and ./corpus)")
    spec_file = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec_file["per_layer" if args.trace else "end_to_end"]}

    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files, seeds, warmup, known, families = make_inputs(args.workload, args.seed, work)

    import_spec = {"files": [], "seeds": [], "trace": False}
    run_child(import_spec, work / "import.json")  # compiles bytecode once, untimed
    launches = []

    passes = {False: [], True: []}
    per_pass = len(known) * (len(seeds) - warmup)
    tail_p = TAIL_PERCENTILE[args.workload]
    min_verdicts = round(10 / (1 - tail_p / 100.0))

    def enough() -> bool:
        if args.trace:
            return min(len(passes[False]), len(passes[True])) >= MIN_TRACED_PASSES
        return len(passes[False]) >= max(MIN_PASSES, -(-min_verdicts // per_pass))

    probe_before = machine_probe_ms()
    started = time.monotonic()
    k = 0
    while True:
        elapsed = time.monotonic() - started
        if (elapsed >= args.seconds and enough()) or elapsed >= HARD_STOP_S:
            break
        traced = bool(args.trace) and k % 2 == 1
        # The traced run pins --jobs 1: with worker threads the partial
        # memo's check-then-store can race, so call counts would not repeat.
        spec = {"files": files, "seeds": seeds, "trace": traced,
                "options": ["--jobs", "1"] if args.trace else [],
                "spans_out": str(work / "spans.tsv") if traced else None}
        out = run_child(spec, work / "pass.json")
        launches.append(out)
        passes[traced].append(out)
        k += 1
    while len(launches) < SETUP_SAMPLES:
        launches.append(run_child(import_spec, work / "import.json"))
    probe = [probe_before, machine_probe_ms()]

    # -- correctness ----------------------------------------------------------
    attempted = failed = 0
    problems: list = []
    for out in passes[False] + passes[True]:
        a, f, p = check_pass(out, known)
        attempted += a
        failed += f
        problems += p
    digests = {digest(out["calls"]) for out in passes[False] + passes[True]}
    if len(digests) != 1:
        problems.append(f"non-timing record fields differ between passes ({len(digests)} digests)")
    the_digest = sorted(digests)[0]

    plain = passes[False]
    def rate(o: dict, clock: str) -> float:
        return (sum(len(c["records"]) for c in o["calls"][warmup:])
                / sum(c[clock] for c in o["calls"][warmup:]))

    throughput = [rate(o, "cpu_s") for o in plain]
    verdicts = sorted(ms for o in plain for c in o["calls"][warmup:] for ms in c["verdict_ms"])
    tail_ms = percentile(verdicts, tail_p)
    e2e = {
        "throughput_vps": statistics.median(throughput),
        "verdict_ms_p50": statistics.median(verdicts),
        "verdict_ms_tail": tail_ms,
        "setup_s": statistics.median(o["imported_cpu_s"] for o in launches),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in plain),
    }

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "oracle_seeds": seeds, "untimed_warmup_seeds": seeds[:warmup], "passes": len(plain),
        "jobs_default": plain[0]["jobs"], "cli_options": "--jobs 1" if args.trace else "none",
        "verdicts_per_pass": per_pass,
        "tail": {"percentile": tail_p, "verdicts": len(verdicts),
                 "beyond": sum(v > tail_ms for v in verdicts)},
        "pass_throughput_vps": throughput,
        "pass_wall_throughput_vps": [rate(o, "wall_s") for o in plain],
        "setup_cpu_s": [o["imported_cpu_s"] for o in launches],
        "setup_wall_s": [o["setup_wall_s"] for o in launches],
        "machine_probe_ms": probe,
        "digest": the_digest, "problems": problems,
        "end_to_end": e2e,
    }
    baseline_digest = (json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
                       .get("digests", {}).get(args.workload, {}).get(str(args.seed)))
    details["digest_matches_baseline"] = None if baseline_digest is None else baseline_digest == the_digest

    if args.trace:
        layered = passes[True]
        names = list(layered[0]["layers"])
        layers = {n: statistics.median(o["layers"][n] for o in layered) for n in names}
        mismatches = sum(len({o["layers"][n] for o in layered}) > 1 for n in DETERMINISTIC)
        traced_cpu = statistics.median(sum(c["cpu_s"] for c in o["calls"]) for o in layered)
        plain_cpu = statistics.median(sum(c["cpu_s"] for c in o["calls"]) for o in plain)
        traced_verdicts = [ms for o in layered for c in o["calls"][warmup:] for ms in c["verdict_ms"]]
        layers["trace.overhead_pct"] = 100.0 * (traced_cpu - plain_cpu) / plain_cpu
        layers["trace.count_mismatches"] = mismatches
        details["layers"] = layers
        details["deterministic_counts"] = {n: [o["layers"][n] for o in layered] for n in DETERMINISTIC}
        details["overhead"] = {
            "cli_cpu_s": {"untraced": plain_cpu, "traced": traced_cpu},
            "verdict_ms_p50": {"untraced": e2e["verdict_ms_p50"],
                               "traced": statistics.median(traced_verdicts)},
        }
        details["families"] = family_stats(layered[-1], families, known)
        if mismatches:
            problems.append(f"{mismatches} deterministic counts differ between traced passes")
        measured = layers
    else:
        measured = e2e
    if set(measured) != set(units):
        fail(f"metrics {sorted(set(measured) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {n: {"value": measured[n], "unit": units[n]} for n in units}

    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + {len(passes[True])} traced"
          f" passes, --jobs resolves to {details['jobs_default']} (options passed: {details['cli_options']}),"
          f" oracle seeds {seeds}")
    if not args.trace:
        print(f"verdict_ms_tail is p{tail_p:g} of {len(verdicts)} verdicts"
              f" ({details['tail']['beyond']} beyond it)")
    print(f"digest {the_digest} (baseline: {details['digest_matches_baseline']})")
    for p in problems[:20]:
        print("problem:", p)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def family_stats(traced_pass: dict, families: dict, known: dict) -> dict:
    """Per generated family: straight / not-straight mix and invariant tree/DAG ratios."""
    ratios = traced_pass.get("invariant_ratios", {})
    out: dict = {}
    for name, family in families.items():
        f = out.setdefault(family, {"entries": 0, "straight": 0, "not_straight": 0, "ratios": []})
        f["entries"] += 1
        f["straight" if known[name]["classification"] == gen.STRAIGHT else "not_straight"] += 1
        if name in ratios:
            f["ratios"].append(ratios[name])
    for f in out.values():
        r = sorted(f.pop("ratios"))
        f["tree_dag_ratio"] = {"min": r[0], "median": statistics.median(r), "max": r[-1]} if r else None
    return out


if __name__ == "__main__":
    sys.exit(main())
