"""End-to-end acceptance gate.

Each test covers one acceptance criterion and emits exactly one
``[acceptance] ... PASS``/``FAIL`` line, bypassing pytest capture so the
lines are visible in a plain ``pytest -v`` run.
"""

import inspect
import pathlib
import random
import time

import pytest

from conftest import (
    linear_const_straight,
    linear_const_system,
    rand_fraction,
    random_linear_pair,
    random_point,
    random_polynomial,
)
from odetorsion import expr as ex
from odetorsion.calculus import nth_partial, partial, total_derivative
from odetorsion.expr import X, Y, YDot
from odetorsion.oracle import OracleConfig, is_zero
from odetorsion.parsing import OdeSystem, parse_corpus, parse_expr
from odetorsion.torsion import (
    check_conserved,
    fels_torsion,
    is_straight,
    quartic_test,
    tresse_torsion,
)

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _entries(name):
    return parse_corpus((CORPUS_DIR / name).read_text())


@pytest.fixture(scope="module")
def table1():
    return _entries("table1.straight")


@pytest.fixture(scope="module")
def table2():
    return _entries("table2.notstraight")


def _criterion(num, label):
    """Decorator: emit one uncaptured pass/fail line per criterion.

    Injects the ``capfd`` fixture so the line can be written with
    capture suspended; pytest passes fixtures by keyword.
    """

    def wrap(fn):
        def run(**kwargs):
            capfd = kwargs.pop("capfd")

            def emit(status):
                with capfd.disabled():
                    print(f"[acceptance] {num}. {label}: {status}", flush=True)

            try:
                fn(**kwargs)
            except BaseException:
                emit("FAIL")
                raise
            emit("PASS")

        params = list(inspect.signature(fn).parameters.values())
        params.append(inspect.Parameter("capfd", inspect.Parameter.POSITIONAL_OR_KEYWORD))
        run.__signature__ = inspect.Signature(params)
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


@_criterion(1, "straight table reproduces under default settings")
def test_criterion_1_straight_table(table1):
    started = time.perf_counter()
    gated = [e for e in table1 if not e.transcription_uncertain]
    assert len(gated) >= 19
    for entry in gated:
        report = is_straight(entry.system)
        assert report.straight is True, entry.system.name
    # the excluded rows still run; their verdicts are informational only
    for entry in table1:
        if entry.transcription_uncertain:
            is_straight(entry.system)
    assert time.perf_counter() - started < 60.0


@_criterion(2, "non-straight table reproduces with reproducible witnesses")
def test_criterion_2_notstraight_table(table2):
    by_name = {}
    for entry in table2:
        report = is_straight(entry.system)
        assert report.straight is False, entry.system.name
        v = report.verdict
        assert v.witness is not None, entry.system.name
        got = ex.evaluate(report.invariant[0][0], dict(v.witness))
        assert abs(got - v.value) <= 1e-6 * max(abs(v.value), 1.0), entry.system.name
        # reproducible: the same seed returns the identical witness
        again = is_straight(entry.system)
        assert again.verdict == v, entry.system.name
        by_name[entry.system.name] = entry
    # the unconditional rows hold at 5 distinct random parameter draws
    for name in ("painleve1", "painleve2", "painleve4"):
        for seed in (1, 2, 3, 4, 5):
            report = is_straight(by_name[name].system, OracleConfig(seed=seed))
            assert report.straight is False, (name, seed)


@_criterion(3, "degenerate parameter loci classify straight")
def test_criterion_3_degenerate_loci():
    for entry in _entries("table2.degenerate"):
        report = is_straight(entry.system)
        assert report.straight is True, entry.system.name


@_criterion(4, "oscillator dichotomy at 10 seeds each")
def test_criterion_4_oscillators():
    shared = OdeSystem(
        rhs=(parse_expr("-(w^2)*y1"), parse_expr("-(w^2)*y2")),
        params=("w",),
        name="oscillators-shared",
    )
    split = OdeSystem(
        rhs=(parse_expr("-(w1^2)*y1"), parse_expr("-(w2^2)*y2")),
        params=("w1", "w2"),
        name="oscillators-split",
    )
    for seed in range(10):
        cfg = OracleConfig(seed=seed)
        assert fels_torsion(shared, cfg).straight is True, seed
        assert fels_torsion(split, cfg).straight is False, seed


@_criterion(5, "linear constant-coefficient form theorem, 100 + 100 cases")
def test_criterion_5_linear_form():
    rng = random.Random(1105)
    for trial in range(100):
        n = rng.choice((2, 3))
        A, B = random_linear_pair(rng, n)
        assert linear_const_straight(A, B), trial
        assert fels_torsion(linear_const_system(A, B)).straight is True, trial
    for trial in range(100):
        n = rng.choice((2, 3))
        A, B = random_linear_pair(rng, n)
        # a non-scalar rational perturbation: hit one off-diagonal slot
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j = j if j < i else j + 1
        B[i][j] += rand_fraction(rng, lo=1, hi=5)
        assert not linear_const_straight(A, B), trial
        assert fels_torsion(linear_const_system(A, B)).straight is False, trial


@_criterion(6, "conserved quantities: known integrals zero, random g nonzero")
def test_criterion_6_conserved():
    energy_sys = OdeSystem(rhs=(parse_expr("6*y^2"),), name="energy")
    assert check_conserved(energy_sys, parse_expr("dy^2 - 4*y^3")).is_zero
    (elliptic,) = [
        e for e in _entries("duals") if e.system.name == "elliptic-example"
    ]
    assert len(elliptic.conserved) == 1
    assert check_conserved(elliptic.system, elliptic.conserved[0]).is_zero
    rng = random.Random(606)
    count = 0
    while count < 20:
        g = random_polynomial(rng, [X, Y(1), YDot(1)])
        if total_derivative(g, energy_sys) is ex.ZERO:
            continue  # drew a constant
        assert check_conserved(energy_sys, g).is_nonzero, count
        count += 1


@_criterion(7, "dual pair: singular power law, its dual, and Picard-Fuchs")
def test_criterion_7_dual_pair():
    entries = {e.system.name: e for e in _entries("duals")}
    assert is_straight(entries["hitchin-original"].system).straight is False
    assert is_straight(entries["picard-fuchs"].system).straight is True
    # soft, non-gating in spirit, but stable in practice: the explicit
    # dual yields a branch-limited zero
    dual = is_straight(entries["hitchin-dual"].system)
    assert dual.verdict.is_zero
    assert dual.verdict.branch_limited


@_criterion(8, "structural invariants of the calculus, torsion, and oracle")
def test_criterion_8_structural():
    rng = random.Random(808)
    # trace-freedom of the matrix invariant on 50 random systems
    for trial in range(50):
        n = rng.choice((2, 3))
        refs = [X] + [Y(i + 1) for i in range(n)] + [YDot(i + 1) for i in range(n)]
        sys_ = OdeSystem(
            rhs=tuple(random_polynomial(rng, refs, max_degree=2, max_terms=3) for _ in range(n)),
        )
        matrix = fels_torsion(sys_).invariant
        trace = ex.add(*(matrix[k][k] for k in range(n)))
        point = random_point(rng, refs)
        assert abs(ex.evaluate(trace, point)) < 1e-6, trial
    # n=1 matrix invariant is structurally zero, no sampling involved
    one = OdeSystem(rhs=(parse_expr("exp(y)*dy^5"),))
    report = fels_torsion(one)
    assert report.invariant == [[ex.ZERO]]
    assert report.verdict.exact and report.verdict.is_zero
    # Leibniz rule and mixed-partial symmetry, checked numerically
    for _ in range(10):
        u = random_polynomial(rng, [X, Y(1)])
        v = random_polynomial(rng, [Y(1), YDot(1)])
        point = random_point(rng, [X, Y(1), YDot(1)])
        lhs = ex.evaluate(partial(ex.mul(u, v), Y(1)), dict(point))
        rhs = ex.evaluate(
            ex.add(ex.mul(partial(u, Y(1)), v), ex.mul(u, partial(v, Y(1)))),
            dict(point),
        )
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
        w = random_polynomial(rng, [X, Y(1), YDot(1)], max_degree=4)
        assert nth_partial(w, [Y(1), YDot(1)]) == nth_partial(w, [YDot(1), Y(1)])
    # finite differences agree with the symbolic partial
    h = 1e-5
    for _ in range(10):
        e = random_polynomial(rng, [X, Y(1), YDot(1)])
        ref = rng.choice([X, Y(1), YDot(1)])
        point = random_point(rng, [X, Y(1), YDot(1)])
        hi, lo = dict(point), dict(point)
        hi[ref] += h
        lo[ref] -= h
        approx = (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)
        exact = ex.evaluate(partial(e, ref), dict(point))
        assert abs(approx - exact) <= 1e-6 * max(abs(exact), 1.0)
    # oracle determinism and witness re-verification
    probe = parse_expr("exp(y)*dy - x")
    for seed in range(5):
        v1 = is_zero(probe, cfg=OracleConfig(seed=seed))
        v2 = is_zero(probe, cfg=OracleConfig(seed=seed))
        assert v1 == v2
        assert v1.is_nonzero
        got = ex.evaluate(probe, dict(v1.witness))
        assert abs(got - v1.value) <= 1e-9 * max(abs(v1.value), 1.0)


@_criterion(9, "quartic criterion across the straight table")
def test_criterion_9_quartic(table1):
    for entry in table1:
        report = quartic_test(entry.system)
        assert report.verdict.is_zero, entry.system.name
    failing = quartic_test(OdeSystem(rhs=(parse_expr("dy^4"),)))
    assert failing.straight is False
    assert failing.verdict.value == 24
    assert failing.verdict.witness is not None
