"""Command-line front end.

    odetorsion analyze corpus/table1.straight --json
    odetorsion analyze --rhs "6*y^2 + x"

A classification says whether the invariant ``--method`` names vanishes
identically, as the zero oracle decides: ``tresse`` (n = 1), Tresse's
fourth-order invariant, by this package's choice of his two (Tresse 1896;
Cartan, Bull. SMF 52, 1924); ``fels``, Fels's trace-free torsion (Proc.
LMS 71, 1995; Grossman, Selecta Math. 6, 2000), zero by definition for
n = 1; ``quartic``, every fourth dy-partial of every f^I (each f^I cubic
in dy), for n = 1 Tresse's other invariant f_pppp.  ``auto`` runs tresse
for n = 1 and fels for n >= 2, and adds the quartic check as a field.
So ``straight`` means torsion-free, which is not flat: point-equivalence
to y'' = 0 also needs f_pppp = 0 (n = 1) or Fels's curvature S = 0.

Exit codes: 0 when every entry matches its expectation (or has none),
1 on any mismatch, 2 on a file that is not UTF-8 text, on parse errors
(among them a division by a constant zero, y/0 or 0^-1, groups nested
deeper than 5,000 levels, an integer text of more digits than ``int``
reads, and a constant leaving the float range while it is read,
(2+i)^100000 or (1e-170*i)^-2, named by line and column),
on validation errors (a right-hand side or conserved quantity that no
sample point evaluates, such as 1/(y-y)), on corpus files given
together with --rhs, on a --method the system's dimension does not fit
and on a number leaving the float range while classifying, both named
by the system and the second by the invariant, side check or conserved
quantity it was met in, and on an output pipe closed before the records
are written.  A parse or validation error met while reading names its
corpus file by path, or its ``--rhs`` as ``inline: fk``.  The oracle's
seed is the one oracle option; its sample count is ``oracle.SAMPLES``.
A ``--rhs`` value may start with ``-``.

Entries are classified one after another on the calling thread.
``--jobs N`` is accepted and ignored: threads would share the
interpreter lock and shorten no run, and the option stays only until
the benchmark stops passing it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .expr import Var, free_vars
from .oracle import INCONCLUSIVE, NONZERO, SAMPLES, ZERO, OracleConfig
from .parsing import (
    NOT_STRAIGHT,
    STRAIGHT,
    UNSPECIFIED,
    CorpusEntry,
    OdeSystem,
    ParseError,
    ValidationError,
    parse_corpus,
    parse_expr,
)
from .torsion import (
    FELS,
    QUARTIC,
    TRESSE,
    DimensionError,
    check_conserved,
    fels_torsion,
    is_straight,
    quartic_test,
    tresse_torsion,
)

_CLASSIFICATION = {ZERO: STRAIGHT, NONZERO: NOT_STRAIGHT, INCONCLUSIVE: "inconclusive"}


def _serialize_witness(witness) -> dict:
    return {str(v): [value.real, value.imag] for v, value in sorted(witness.items(), key=lambda kv: str(kv[0]))}


def _named(where: str, classify, system: OdeSystem, *args):
    """classify(system, *args); a DimensionError or OverflowError it raises
    is a ValidationError naming the system, and for an OverflowError where
    it was met."""
    try:
        return classify(system, *args)
    except DimensionError as err:
        raise ValidationError(f"{system.name}: {err}") from None
    except OverflowError as err:
        raise ValidationError(f"{system.name}: {err} in {where}") from None


def analyze_entry(entry: CorpusEntry, cfg: OracleConfig, method: str) -> dict:
    """Run the classifiers on one corpus entry and build its record.

    The classifiers are read from this module's namespace at each call, so
    a function rebound there (as perfbench's tracer does) is the one run.
    """
    sys_ = entry.system
    started = time.perf_counter()
    classify = {"auto": is_straight, TRESSE: tresse_torsion, FELS: fels_torsion, QUARTIC: quartic_test}.get(method)
    if classify is None:
        raise ValueError(f"unknown method {method!r}")
    invariant = (TRESSE if sys_.n == 1 else FELS) if method == "auto" else method
    report = _named(f"the {invariant} invariant", classify, sys_, cfg)

    classification = _CLASSIFICATION[report.verdict.outcome]
    expected = entry.expect if entry.expect != UNSPECIFIED else None
    record = {
        "name": sys_.name,
        "n": sys_.n,
        "method": report.method,
        "classification": classification,
        "expected": expected,
        "match": None if expected is None else classification == expected,
        "seed": cfg.seed,
        "samples": SAMPLES,
        "expr_nodes": report.expr_nodes,
    }
    if report.verdict.witness is not None:
        record["witness"] = _serialize_witness(report.verdict.witness)
        record["witness_value"] = [report.verdict.value.real, report.verdict.value.imag]
    if report.verdict.entry is not None:
        record["witness_entry"] = list(report.verdict.entry)
    if report.verdict.reason:
        record["reason"] = report.verdict.reason
    if report.verdict.branch_limited:
        record["branch_limited"] = True

    if method == "auto":
        record["quartic"] = _CLASSIFICATION[_named("the quartic check", quartic_test, sys_, cfg).verdict.outcome]
        if entry.conserved:
            record["conserved"] = [
                _named(f"conserved quantity {k}", check_conserved, sys_, g, cfg).outcome
                for k, g in enumerate(entry.conserved, 1)
            ]
    record["wall_ms"] = (time.perf_counter() - started) * 1000.0
    return record


def _load_entries(args) -> list[CorpusEntry]:
    if args.rhs:
        if args.files:
            raise ValidationError("give corpus files or --rhs, not both")
        rhs = tuple(_read(f"inline: f{k}", parse_expr, text) for k, text in enumerate(args.rhs, 1))
        params = tuple(sorted({r.name for f in rhs for r in free_vars(f) if r.kind == Var.PARAM}))
        sys_ = OdeSystem(rhs=rhs, params=params, name="inline")
        return [CorpusEntry(system=sys_)]
    entries: list[CorpusEntry] = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as err:
                raise ValidationError(f"{path}: not UTF-8 text (byte {err.start})") from None
        # a leading byte-order mark is no text; decoded as plain UTF-8, so a
        # bad byte is still named by its offset in the file
        entries.extend(_read(path, parse_corpus, text.removeprefix("\ufeff")))
    return entries


def _read(where: str, parse, text: str):
    """parse(text); a ParseError or ValidationError it raises names where
    it was met: a corpus file's path, or ``inline: fk`` for the k-th
    ``--rhs``."""
    try:
        return parse(text)
    except (ParseError, ValidationError) as err:
        raise type(err)(f"{where}: {err}") from None


def _text_row(r: dict) -> str:
    match = "n/a" if r["match"] is None else ("ok" if r["match"] else "MISMATCH")
    extra = ""
    if "witness_entry" in r:
        extra += f" entry={tuple(r['witness_entry'])}"
    if r.get("branch_limited"):
        extra += " branch-limited"
    if "reason" in r:
        extra += f" [{r['reason']}]"
    return (
        f"{r['name']:<24} n={r['n']:<2} {r['method']:<8} "
        f"{r['classification']:<13} expect={r['expected'] or '-':<13} {match:<8} "
        f"{r['wall_ms']:8.1f}ms{extra}"
    )


def cmd_analyze(args) -> int:
    cfg = OracleConfig(seed=args.seed)
    try:
        entries = _load_entries(args)
        records = [analyze_entry(e, cfg, args.method) for e in entries]
    except (ParseError, ValidationError, OSError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        if args.json:
            print(json.dumps(records, indent=2))
        else:
            for r in records:
                print(_text_row(r))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed", file=sys.stderr)
        return 2

    mismatched = any(r["match"] is False for r in records)
    return 1 if mismatched else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odetorsion",
        description="Decide whether second-order complex-analytic ODE systems are straight.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="classify corpus files or an inline system")
    an.add_argument("files", nargs="*", help="corpus files")
    an.add_argument("--rhs", action="append", default=None, metavar="EXPR",
                    help="inline right-hand side; repeat for systems (f1, f2, ...)")
    an.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
    an.add_argument("--json", action="store_true", help="machine-readable output")
    an.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: entries are classified one after another on the "
                         "calling thread (kept until the benchmark stops passing it)")
    an.add_argument("--method", choices=["auto", TRESSE, FELS, QUARTIC], default="auto",
                    help="invariant whose vanishing 'straight' means (torsion-free, not flat): "
                         "tresse (Tresse's fourth-order invariant, n = 1), fels (Fels's trace-free "
                         "torsion), quartic (every fourth dy-partial, so each f cubic in dy); auto: "
                         "tresse for n = 1, fels for n >= 2, plus the quartic check (default)")
    an.set_defaults(func=cmd_analyze)
    return parser


def _attach_rhs(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with each ``--rhs X`` passed as ``--rhs=X``, unless X is an
    option string of the parser or of a subcommand: argparse would take an
    X such as "-y^2" for an unknown option."""
    commands = [p for action in parser._actions if isinstance(action.choices, dict) for p in action.choices.values()]
    options = {s for p in (parser, *commands) for s in p._option_string_actions}
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--rhs" and arg not in options:
            joined[-1] = f"--rhs={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_rhs(parser, sys.argv[1:] if argv is None else argv))
    if args.command == "analyze" and not args.files and not args.rhs:
        parser.error("need a corpus file or --rhs")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
