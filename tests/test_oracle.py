import ast
import math
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import random_polynomial
from odetorsion import expr as ex
from odetorsion.expr import X, Y, YDot
from odetorsion import oracle
from odetorsion.oracle import (
    INCONCLUSIVE,
    NONZERO,
    ZERO,
    OracleConfig,
    Verdict,
    is_zero,
    is_zero_matrix,
)
from odetorsion.parsing import (
    FIXED,
    GENERIC,
    GENERIC_NONZERO,
    OdeSystem,
    ParamDecl,
    parse_corpus,
    parse_expr,
)
from odetorsion.torsion import fels_torsion, quartic_test, tresse_torsion

x = X
y = Y(1)
dy = YDot(1)


class TestExactPath:
    def test_structural_zero(self):
        v = is_zero(ex.ZERO)
        assert v.is_zero and v.exact

    def test_difference_of_equal_polynomials(self):
        a = parse_expr("(y + dy)^2")
        b = parse_expr("y^2 + 2*y*dy + dy^2")
        v = is_zero(ex.sub(a, b))
        assert v.is_zero and v.exact

    def test_nonzero_constant(self):
        v = is_zero(ex.const(72))
        assert v.is_nonzero and v.exact
        assert v.value == 72

    @pytest.mark.parametrize("value", [0, Fraction(3, 2), 1 + 2j])
    def test_constant_decided_as_sampling_would(self, monkeypatch, value):
        # a zero constant is a degree-0 polynomial: k = 1 exact point, bound 0.0;
        # a nonzero one is nonzero at any point, its exact value with no witness point
        want = {0: Verdict(ZERO, seed=5, samples_passed=1, exact=True, bound=0.0),
                Fraction(3, 2): Verdict(NONZERO, seed=5, witness={}, value=1.5 + 0j, exact=True),
                1 + 2j: Verdict(NONZERO, seed=5, witness={}, value=1 + 2j, exact=False)}[value]

        def unused(*_):
            raise AssertionError("a constant needs no sample")

        for name in ("evaluate", "evaluate_exact", "exact_ratios", "evaluate_roots"):
            monkeypatch.setattr(ex, name, unused)
        monkeypatch.setattr(oracle.random, "Random", unused)
        assert is_zero(ex.const(value), cfg=OracleConfig(seed=5)) == want

    @pytest.mark.parametrize("coefficient, expected", [(10 ** 400, float("inf")),
                                                       (-10 ** 400, float("-inf"))])
    def test_witness_value_beyond_float_range(self, coefficient, expected):
        v = is_zero(ex.mul(ex.const(coefficient), y))
        assert v.is_nonzero and v.exact
        assert v.value == complex(expected)

    def test_witness_value_below_float_range_stays_nonzero(self):
        v = is_zero(ex.mul(ex.const(Fraction(1, 10 ** 400)), y))
        assert v.is_nonzero and v.exact
        assert v.value == 0j

    @pytest.mark.parametrize("text", ["y^2 - dy", "y^300*dy^7/3 - x", "10^400*y - dy",
                                      "-(10^400)*y^5*dy"])
    def test_value_matches_evaluate_exact_at_the_seeded_point(self, text):
        e = parse_expr(text)
        cfg = OracleConfig(seed=11)
        refs = sorted(e.free, key=str)
        point = oracle.sample_point(random.Random(cfg.seed), refs, (),
                                    oracle._sample_rational, Fraction)
        exact = ex.evaluate_exact(e, point)
        try:
            expected = complex(exact)
        except OverflowError:
            expected = complex(math.inf if exact > 0 else -math.inf)
        v = is_zero(e, cfg=cfg)
        assert v.is_nonzero and v.exact and v.samples_passed == 0
        assert v.value == expected
        assert v.witness == {r: complex(q) for r, q in point.items()}

    @pytest.mark.parametrize("text", ["y/(y-y)", "y*(dy-dy)^-2"])
    def test_singular_points_redrawn(self, text):
        # a division by a non-constant zero: a negative power is no
        # polynomial, so it is sampled numerically, and singular at every point
        e = parse_expr(text)
        assert not e.poly
        v = is_zero(e)
        assert v.outcome == INCONCLUSIVE and not v.exact
        assert v.reason == "only 0/32 valid samples after retries"

    def test_nonzero_gives_witness(self):
        v = is_zero(parse_expr("y^2 - dy"))
        assert v.is_nonzero and v.exact
        assert set(v.witness) == {Y(1), YDot(1)}
        got = ex.evaluate(parse_expr("y^2 - dy"), dict(v.witness))
        assert abs(got - v.value) <= 1e-9 * max(abs(v.value), 1.0)

    def test_fixed_rational_param_stays_on_exact_path(self):
        decls = [ParamDecl("a", FIXED, Fraction(1, 2))]
        v = is_zero(parse_expr("2*a*y - y"), decls)
        assert v.is_zero and v.exact

    def test_generic_nonzero_forces_numeric_path(self):
        decls = [ParamDecl("a", GENERIC_NONZERO)]
        v = is_zero(parse_expr("a*y"), decls)
        assert v.is_nonzero and not v.exact

    def test_nonpolynomial_forces_numeric_path(self):
        v = is_zero(parse_expr("exp(y) - exp(y)"))
        assert v.is_zero and not v.exact


class TestExactSamples:
    @pytest.mark.parametrize("d, k", [(1, 4), (6, 4), (14, 4), (23, 5), (1000, 7)])
    def test_least_k_meeting_the_bound(self, d, k):
        assert oracle._exact_samples(d, 32) == k
        assert 2 ** 64 * d ** k <= 10 ** (6 * k) < 2 ** 64 * d ** (k - 1) * 10 ** 6

    def test_cap_is_tested_in_the_loop(self):
        # uncapped, d = 999,999 would need tens of millions of steps
        assert oracle._exact_samples(23, 2) == 2
        assert oracle._exact_samples(999_999, 32) == 32
        assert oracle._exact_samples(10 ** 6, 32) == 32

    def test_bound(self):
        assert oracle._miss_bound(23, 5) == (23 / 10 ** 6) ** 5 <= 2.0 ** -64
        assert oracle._miss_bound(10 ** 6, 32) == oracle._miss_bound(10 ** 400, 32) == 1.0

    def test_zero_verdict_decides_k_points_exactly(self, monkeypatch):
        term = ex.mul(ex.const(Fraction(1, P)), y)  # degree 1: a constant counts 0
        calls = []
        exact_ratios = ex.exact_ratios
        monkeypatch.setattr(ex, "exact_ratios", lambda *a: calls.append(a) or exact_ratios(*a))
        v = is_zero(ex.sub(term, term))
        k = oracle._exact_samples(1, 32)
        assert v.is_zero and v.exact and v.samples_passed == k == 4
        assert len(calls) == k  # every point, decided exactly
        assert v.bound == oracle._miss_bound(1, k)
        v = is_zero(term)
        point = _seeded_rational_point([Y(1)])
        assert v.is_nonzero and v.exact and v.value == complex(point[Y(1)] / P)
        assert v.bound is None

    def test_k_follows_the_largest_root_degree(self, monkeypatch):
        # y^22 + -1*y^22 has degree 22: the constant -1 counts 0
        roots = [ex.sub(e, e) for e in (y, ex.pow_(y, 22))]
        calls = []
        exact_ratios = ex.exact_ratios
        monkeypatch.setattr(ex, "exact_ratios", lambda *a: calls.append(a) or exact_ratios(*a))
        v = is_zero_matrix([roots])
        assert v.is_zero and v.samples_passed == len(calls) == 5
        assert v.bound == oracle._miss_bound(22, 5)
        v = is_zero_matrix([roots], cfg=OracleConfig(samples=3))
        assert v.is_zero and v.samples_passed == 3 and v.bound == oracle._miss_bound(22, 3)

    def test_a_constant_factor_adds_no_degree(self, monkeypatch):
        # y^15 + -1*y^15 has degree 15, so 4 points: the constant factor adds no degree
        calls = []
        exact_ratios = ex.exact_ratios
        monkeypatch.setattr(ex, "exact_ratios", lambda *a: calls.append(a) or exact_ratios(*a))
        v = is_zero(parse_expr("y^15 - y^15"))
        assert v.is_zero and v.exact and v.samples_passed == len(calls) == 4
        assert v.bound == (15 / 10 ** 6) ** 4

    def test_mixed_matrix_numeric_path_keeps_its_samples_and_stream(self, monkeypatch):
        exact_zero = ex.sub(ex.mul(x, y), ex.mul(x, y))
        numeric_zero = parse_expr("sin(y)^2 + cos(y)^2 - 1")
        points, calls = [], []
        evaluate_roots, exact_ratios = ex.evaluate_roots, ex.exact_ratios
        monkeypatch.setattr(ex, "evaluate_roots", lambda prog, pt: points.append(pt) or evaluate_roots(prog, pt))
        monkeypatch.setattr(ex, "exact_ratios", lambda *a: calls.append(a) or exact_ratios(*a))
        cfg = OracleConfig(seed=3)
        v = is_zero_matrix([[exact_zero, numeric_zero]], cfg=cfg)
        # x*y + -1*x*y has degree 2
        assert v.is_zero and not v.exact and v.bound == oracle._miss_bound(2, 4)
        assert len(calls) == 4 and len(points) == cfg.samples
        rng = random.Random(cfg.seed)
        assert points == [oracle.sample_point(rng, [Y(1)]) for _ in range(cfg.samples)]

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_matrix_names_the_numeric_witness(self, seed):
        exact_zero = ex.sub(ex.mul(x, y), ex.mul(x, y))
        numeric = parse_expr("exp(y) - 1")
        cfg = OracleConfig(seed=seed)
        alone = is_zero(numeric, cfg=cfg)
        v = is_zero_matrix([[exact_zero, numeric]], cfg=cfg)
        assert v.is_nonzero and v.entry == (1, 2) and not v.exact and v.bound is None
        assert v.witness == alone.witness == oracle.sample_point(random.Random(seed), [Y(1)])
        assert v.value == alone.value


class TestNumericPath:
    def test_identity_log_exp(self):
        v = is_zero(parse_expr("exp(log(y)) - y"))
        assert v.is_zero
        assert v.branch_limited

    def test_branch_limited_flag_for_sqrt(self):
        v = is_zero(parse_expr("sqrt(y^2 + 1) - sqrt(y^2 + 1)"))
        assert v.is_zero and v.branch_limited

    def test_no_branch_flag_without_sqrt_or_log(self):
        v = is_zero(parse_expr("exp(y) - exp(y)"))
        assert not v.branch_limited

    def test_nonzero_with_witness_in_annulus(self):
        v = is_zero(parse_expr("exp(y) - 1 - y"))
        assert v.is_nonzero
        assert oracle.R_MIN <= abs(v.witness[Y(1)]) <= oracle.R_MAX

    def test_retries_past_singularities(self):
        # singular on a measure-zero set only; retries find valid samples
        v = is_zero(parse_expr("exp(y)/(y - 1) - exp(y)/(y - 1)"))
        assert v.is_zero

    def test_everywhere_singular_is_inconclusive(self):
        v = is_zero(parse_expr("log(y - y)"))
        assert v.outcome == INCONCLUSIVE
        assert "valid samples" in v.reason

    def test_non_finite_values_are_redrawn_not_zero(self):
        # 1.7e308 * |y^2 + 10| overflows at every annulus point
        v = is_zero(parse_expr("17*10^307*(y^2+10)*exp(x)"))
        assert v.outcome == INCONCLUSIVE
        assert v.samples_passed == 0 and "valid samples" in v.reason

    def test_overflowing_complex_constant_rejected(self):
        with pytest.raises(OverflowError):
            parse_expr("(10^308+10^308*i)*(10^308+10^308*i)")
        with pytest.raises(OverflowError):
            ex.const(complex(math.inf, 1.0))

    def test_huge_coefficient_cancellation_still_zero(self):
        big = 10 ** 12
        e = parse_expr(f"exp(y)*({big}*y - {big}*y)")
        assert is_zero(e).is_zero

    def test_tiny_residual_relative_to_terms_is_zero(self):
        # (y + 1e-12) - y is absolutely tiny next to its term magnitudes
        e = ex.add(ex.apply("exp", ex.add(y, ex.const(Fraction(1, 10 ** 13)))),
                   ex.neg(ex.apply("exp", y)))
        assert is_zero(e).is_zero

    def test_constants_converted_once_per_program(self, monkeypatch):
        e = parse_expr("(3/7)*exp(y) + (1/3)*y^2 - 5*dy")
        converted = []
        to_complex = ex._to_complex
        monkeypatch.setattr(ex, "_to_complex", lambda v: converted.append(v) or to_complex(v))
        first = is_zero(e)
        assert first.is_nonzero and not first.exact
        assert sorted(converted) == [Fraction(-5), Fraction(1, 3), Fraction(3, 7)]
        converted.clear()
        assert is_zero(e, cfg=OracleConfig(seed=1)).is_nonzero
        assert converted == []  # the root's program keeps them


class TestDeterminism:
    def test_same_seed_same_verdict(self):
        e = parse_expr("exp(y)*dy - x")
        a = is_zero(e, cfg=OracleConfig(seed=7))
        b = is_zero(e, cfg=OracleConfig(seed=7))
        assert a == b

    def test_seed_recorded(self):
        v = is_zero(parse_expr("exp(y) - x"), cfg=OracleConfig(seed=123))
        assert v.seed == 123

    def test_witness_reverifies(self):
        e = parse_expr("exp(y)*dy - x")
        for seed in range(5):
            v = is_zero(e, cfg=OracleConfig(seed=seed))
            assert v.is_nonzero
            got = ex.evaluate(e, dict(v.witness))
            assert abs(got - v.value) <= 1e-9 * max(abs(v.value), 1.0)


class TestCanonicalInput:
    def test_is_zero_does_not_rebuild_its_input(self, monkeypatch):
        corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "duals"
        (entry,) = [e for e in parse_corpus(corpus.read_text()) if e.system.name == "hitchin-dual"]
        invariant = tresse_torsion(entry.system).invariant
        before = len(ex._intern)
        made = []
        mk = ex._mk
        monkeypatch.setattr(ex, "_mk", lambda node, *args, **kw: made.append(node) or mk(node, *args, **kw))
        assert is_zero(invariant, entry.system.params).is_zero
        assert len(ex._intern) == before
        assert made == []


class TestConfig:
    def test_rejects_floor_above_tol(self):
        with pytest.raises(ValueError):
            OracleConfig(rel_tol=1e-14)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            OracleConfig(samples=0)


class TestSampler:
    def test_fixed_parameter_takes_its_value_and_draws_nothing(self):
        a, b = ex.Param("a"), ex.Param("b")
        params = (ParamDecl("a", FIXED, Fraction(1, 2)), ParamDecl("b", GENERIC_NONZERO))
        point = oracle.sample_point(random.Random(3), [Y(1), a, b], params)
        rng = random.Random(3)
        assert point == {Y(1): oracle._sample_annulus(rng), a: 0.5 + 0j,
                         b: oracle._sample_annulus(rng)}
        exact = oracle.sample_point(random.Random(3), [a], params, oracle._sample_rational, Fraction)
        assert exact == {a: Fraction(1, 2)}

    @pytest.mark.parametrize("module", ["expr", "calculus", "oracle", "parsing", "torsion", "cli"])
    def test_module_imports_alone(self, module):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        subprocess.run([sys.executable, "-c", f"import odetorsion.{module}"],
                       check=True, timeout=60, env={"PYTHONPATH": str(src)})

    def test_no_cycle_and_no_local_imports(self):
        src = pathlib.Path(oracle.__file__).parent

        def imports(module):
            tree = ast.parse((src / f"{module}.py").read_text())
            top = {id(node) for node in tree.body}
            return [(getattr(node, "module", None), id(node) in top) for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))]

        assert all(name != "parsing" for name, _ in imports("oracle"))
        for module in ("parsing", "torsion", "cli"):
            assert all(at_top for _, at_top in imports(module)), module


P = 2 ** 61 - 1  # a prime a residue test modulo P would be blind to


def _seeded_rational_point(refs, seed=0):
    return oracle.sample_point(random.Random(seed), refs, (), oracle._sample_rational, Fraction)


class TestModularPath:
    def test_content_divisible_by_modulus_is_nonzero(self):
        # every coefficient a multiple of P: exact values see it at once
        e = ex.mul(ex.const(P), y)
        point = _seeded_rational_point([Y(1)])
        expected = complex(P * point[Y(1)])
        for v in (is_zero(e), is_zero_matrix([[e]])):
            assert v.is_nonzero and v.exact and v.samples_passed == 0
            assert v.value == expected
            assert v.witness == {Y(1): complex(point[Y(1)])}
        assert is_zero_matrix([[e]]).entry == (1, 1)

    def test_straight_fels_matrix_runs_one_program_per_sample(self, monkeypatch):
        sys_ = OdeSystem(n=3, rhs=tuple(parse_expr(t) for t in (
            "(3/2)*((-4)*y2 + 2*((-4)*x + y2)*dy2 + (x + 3)*(dy2)^2 + (2/3)*((-2)*(x)^2 + 3*y2"
            " + x*y2)*((-5)*y3 + 2*((-5)*x + y3)*dy3 + (x + 1)*(dy3)^2 + 2*((-5/2)*(x)^2 + y3"
            " + x*y3)*(18*x + (-3))))",
            "(2/3)*((-5)*y3 + 2*((-5)*x + y3)*dy3 + (x + 1)*(dy3)^2 + 2*((-5/2)*(x)^2 + y3 + x*y3)"
            "*(18*x + (-3)))",
            "2*(18*x + (-3))",
        )))
        runs = []
        run = ex._run
        monkeypatch.setattr(ex, "_run", lambda *a, **k: runs.append(a) or run(*a, **k))
        cfg = OracleConfig()
        report = fels_torsion(sys_, cfg)
        assert report.straight is True and report.verdict.exact
        assert sum(type(e) is not ex.Const for row in report.invariant for e in row) >= 2
        assert len(runs) <= cfg.samples + 1


def _assert_names_nonzero_entry(rows, verdict):
    """The verdict's entry evaluates, at its witness, to its value."""
    if not verdict.is_nonzero:
        return
    i, j = verdict.entry
    got = ex.evaluate(rows[i - 1][j - 1], dict(verdict.witness))
    assert verdict.value != 0
    assert abs(got - verdict.value) <= 1e-6 * max(abs(verdict.value), 1.0)


class TestMatrix:
    def test_first_nonzero_entry_wins(self):
        m = [[ex.ZERO, ex.ZERO], [parse_expr("y"), parse_expr("x")]]
        v = is_zero_matrix(m)
        assert v.is_nonzero
        assert v.entry == (2, 1)

    def test_all_zero(self):
        m = [[ex.ZERO, ex.sub(y, y)], [ex.ZERO, ex.ZERO]]
        v = is_zero_matrix(m)
        assert v.is_zero

    def test_witness_entry_names_a_nonzero_entry_on_the_corpus(self):
        root = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        named = 0
        for name in ("table1.straight", "table2.notstraight", "table2.degenerate", "duals"):
            for entry in parse_corpus((root / name).read_text()):
                sys_ = entry.system
                for seed in range(2):
                    cfg = OracleConfig(seed=seed)
                    report = quartic_test(sys_, cfg)
                    width = len(report.invariant) // sys_.n
                    rows = [report.invariant[k:k + width] for k in range(0, len(report.invariant), width)]
                    _assert_names_nonzero_entry(rows, report.verdict)
                    named += report.verdict.is_nonzero
        assert named

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_entry_names_a_nonzero_entry_inline(self, n):
        rng = random.Random(400 + n)
        refs = [X] + [Y(i + 1) for i in range(n)] + [YDot(i + 1) for i in range(n)]
        for trial in range(6):
            rhs = [random_polynomial(rng, refs, max_degree=2, max_terms=3) for _ in range(n)]
            if trial % 2:
                # a transcendental term sends entries to the numeric path
                rhs[-1] = ex.add(rhs[-1], ex.apply("exp", ex.mul(Y(1), YDot(n))))
            sys_ = OdeSystem(n=n, rhs=tuple(rhs))
            cfg = OracleConfig(seed=trial)
            fels = fels_torsion(sys_, cfg)
            assert fels.verdict.is_nonzero
            _assert_names_nonzero_entry(fels.invariant, fels.verdict)
            quartic = quartic_test(sys_, cfg)
            width = len(quartic.invariant) // n
            _assert_names_nonzero_entry(
                [quartic.invariant[k:k + width] for k in range(0, len(quartic.invariant), width)],
                quartic.verdict)

    def test_inconclusive_entry_reported(self):
        m = [[parse_expr("log(y - y)")]]
        v = is_zero_matrix(m)
        assert v.outcome == INCONCLUSIVE
        assert v.entry == (1, 1)
        assert v.reason == "entry (1,1): only 0/32 valid samples after retries"

    @pytest.mark.parametrize("row, entry", [
        (["log(y-y)", "exp(y)"], (1, 2)),
        (["exp(y)", "log(y-y)"], (1, 1)),
        (["17*10^307*(y^2+10)*exp(x)", "exp(y)"], (1, 2)),
        # cmath.exp raises OverflowError rather than returning inf
        (["exp(y)", "exp(y^400)"], (1, 1)),
        (["exp(y^400)", "exp(y)"], (1, 2)),
        # an exact-path entry wins the sample at which a numeric one overflows
        (["y", "exp(y^400)"], (1, 1)),
        (["exp(y^400)", "y"], (1, 2)),
    ])
    def test_entry_invalid_everywhere_hides_no_neighbour(self, row, entry):
        # a point where one entry is singular or not finite is still
        # decided by an entry that is finite and clearly nonzero there
        m = [[parse_expr(t) for t in row]]
        v = is_zero_matrix(m)
        assert v.is_nonzero and v.entry == entry and v.samples_passed == 0
        _assert_names_nonzero_entry(m, v)

    def test_overflow_with_no_winner_propagates(self):
        # alone, an entry that overflows at the first point still raises
        with pytest.raises(OverflowError):
            is_zero_matrix([[parse_expr("exp(y^400)")]])
        with pytest.raises(OverflowError):
            is_zero_matrix([[parse_expr("sin(y)^2 + cos(y)^2 - 1"), parse_expr("exp(y^400)")]])
        with pytest.raises(OverflowError):
            is_zero_matrix([[parse_expr("y^2 - y*y"), parse_expr("exp(y^400)")]])

    def test_invalid_point_casts_no_vote(self):
        # exp(y) - exp(y) wins nothing where log(y-y) is singular, and
        # such a point counts as neither clear nor gray for it
        roots = [parse_expr("exp(y) - exp(y)"), parse_expr("log(y-y)")]
        path = oracle._Numeric(roots, [0, 1], (), OracleConfig())
        assert path.sample() is None
        assert path.valid == 0 and path.clear == [0, 0] and path.gray == [0, 0]
        v = is_zero_matrix([roots])
        assert v.outcome == INCONCLUSIVE and v.samples_passed == 0 and v.entry == (1, 1)


def test_empirical_false_zero_rate():
    """Schwartz-Zippel sanity: nonzero polynomials are essentially never
    misclassified, even with far fewer samples than the default."""
    rng = random.Random(31337)
    refs = [X, Y(1), YDot(1)]
    trials = 10 ** 4
    false_zero = 0
    for _ in range(trials):
        e = random_polynomial(rng, refs, max_degree=4, max_terms=4)
        if isinstance(e, ex.Const) and e.value == 0:
            continue  # coefficients happened to cancel: actually zero
        v = is_zero(e, cfg=OracleConfig(samples=2, seed=rng.randrange(2 ** 30)))
        if v.is_zero:
            # only count it against the oracle if the polynomial is not
            # identically zero, checked at a deterministic probe point
            probe = {r: Fraction(k + 2, 7) for k, r in enumerate(refs)}
            if ex.evaluate_exact(e, probe) != 0:
                false_zero += 1
    assert false_zero == 0
