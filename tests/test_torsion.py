import random
from fractions import Fraction

import pytest

from conftest import rand_fraction, random_point, random_polynomial
from odetorsion import expr as ex
from odetorsion.expr import X, Y, YDot
from odetorsion.oracle import INCONCLUSIVE, OracleConfig
from odetorsion.parsing import GENERIC, OdeSystem, ParamDecl, parse_expr
from odetorsion.torsion import (
    DimensionError,
    LinearConstSystem,
    check_conserved,
    classify_linear_const,
    fels_torsion,
    is_straight,
    linear_const_to_system,
    phi_matrix,
    quartic_test,
    tresse_torsion,
)


# ---------------------------------------------------------------------------
# An independent numeric evaluation of the scalar invariant, built from
# nested central differences of a plain python callable.  It knows nothing
# about the expression tree machinery.

def _numeric_tresse(f, x, y, p, h=1e-2):
    def dx(g):
        return lambda a, b, c: (g(a + h, b, c) - g(a - h, b, c)) / (2 * h)

    def dy(g):
        return lambda a, b, c: (g(a, b + h, c) - g(a, b - h, c)) / (2 * h)

    def dp(g):
        return lambda a, b, c: (g(a, b, c + h) - g(a, b, c - h)) / (2 * h)

    def D(g):  # total derivative along solutions
        gx, gy, gp = dx(g), dy(g), dp(g)
        return lambda a, b, c: gx(a, b, c) + c * gy(a, b, c) + f(a, b, c) * gp(a, b, c)

    fy, fp = dy(f), dp(f)
    fyp, fpp, fyy = dp(fy), dp(fp), dy(fy)
    total = (
        D(D(fpp))(x, y, p)
        - 4 * D(fyp)(x, y, p)
        + fp(x, y, p) * (4 * fyp(x, y, p) - D(fpp)(x, y, p))
        - 3 * fy(x, y, p) * fpp(x, y, p)
        + 6 * fyy(x, y, p)
    )
    return total


def _sys1(text, params=()):
    return OdeSystem(n=1, rhs=(parse_expr(text),), params=tuple(params))


class TestTresse:
    def test_constant_curvature_example(self):
        # f = 6 y^2: the invariant collapses to the constant 72
        report = tresse_torsion(_sys1("6*y^2"))
        assert report.invariant == ex.const(72)
        assert report.straight is False
        assert report.verdict.value == 72

    def test_constant_matches_numeric_oracle(self):
        got = _numeric_tresse(lambda a, b, c: 6 * b ** 2, 0.4, 1.1, -0.2)
        assert got == pytest.approx(72, rel=1e-4)

    def test_nontrivial_invariant_matches_numeric_oracle(self):
        # f = y dy: the invariant reduces to 4 y
        sys = _sys1("y*dy")
        report = tresse_torsion(sys)
        pt = (0.3, 1.2, 0.7)
        symbolic = ex.evaluate(
            report.invariant, {X: pt[0], Y(1): pt[1], YDot(1): pt[2]}
        )
        assert symbolic == pytest.approx(4 * pt[1], rel=1e-12)
        numeric = _numeric_tresse(lambda a, b, c: b * c, *pt)
        assert numeric == pytest.approx(symbolic, rel=1e-3)

    def test_airy_is_straight(self):
        report = tresse_torsion(_sys1("x*y"))
        assert report.straight is True
        assert _numeric_tresse(lambda a, b, c: a * b, 0.7, -0.4, 1.3) == pytest.approx(
            0, abs=1e-6
        )

    def test_painleve1_not_straight_with_witness(self):
        report = tresse_torsion(_sys1("6*y^2 + x"))
        assert report.straight is False
        v = report.verdict
        got = ex.evaluate(report.invariant, dict(v.witness))
        assert abs(got - v.value) <= 1e-9 * max(abs(v.value), 1.0)

    @pytest.mark.parametrize("text, straight", [("-y", True), ("6*y^2", False)])
    def test_autonomous_classification(self, text, straight):
        # d^2y/dx^2 = f(y, dy) needs no invariant of its own
        report = tresse_torsion(_sys1(text))
        assert report.method == "tresse" and report.straight is straight

    def test_rejects_systems(self):
        sys = OdeSystem(n=2, rhs=(parse_expr("y2"), parse_expr("y1")))
        with pytest.raises(DimensionError):
            tresse_torsion(sys)

    def test_cubic_in_dy_can_still_be_straight(self):
        # geodesics after a coordinate twist stay straight
        report = tresse_torsion(_sys1("dy^3 + dy"))
        assert report.straight in (True, False)  # classified, not inconclusive
        # and the invariant itself decides: compare with the numeric oracle
        numeric = _numeric_tresse(lambda a, b, c: c ** 3 + c, 0.2, 0.5, 0.4)
        symbolic = ex.evaluate(
            report.invariant, {X: 0.2, Y(1): 0.5, YDot(1): 0.4}
        )
        assert numeric == pytest.approx(symbolic, rel=1e-3, abs=1e-4)


class TestFels:
    def test_n1_structural_zero(self):
        report = fels_torsion(_sys1("exp(y)*dy^5"))
        assert report.method == "fels"
        assert report.invariant == [[ex.ZERO]]
        assert report.verdict.exact and report.verdict.is_zero
        assert report.verdict.samples_passed == 0  # no sampling happened

    def test_trace_free(self, rng):
        for n in (2, 3):
            for _ in range(5):
                refs = [X] + [Y(i + 1) for i in range(n)] + [YDot(i + 1) for i in range(n)]
                sys = OdeSystem(
                    n=n,
                    rhs=tuple(random_polynomial(rng, refs, max_degree=2) for _ in range(n)),
                )
                report = fels_torsion(sys)
                trace = ex.add(*(report.invariant[k][k] for k in range(n)))
                point = random_point(rng, refs)
                assert abs(ex.evaluate(trace, point)) < 1e-6

    def test_uncoupled_oscillators_straight_iff_equal_frequencies(self):
        shared = OdeSystem(
            n=2,
            rhs=(parse_expr("-(w^2)*y1"), parse_expr("-(w^2)*y2")),
            params=(ParamDecl("w", GENERIC),),
        )
        assert fels_torsion(shared).straight is True

        split = OdeSystem(
            n=2,
            rhs=(parse_expr("-(w1^2)*y1"), parse_expr("-(w2^2)*y2")),
            params=(ParamDecl("w1", GENERIC), ParamDecl("w2", GENERIC)),
        )
        report = fels_torsion(split)
        assert report.straight is False
        assert report.verdict.entry == (1, 1)

    def test_oscillator_torsion_entry_value(self):
        # for frequencies w1, w2 the (1,1) entry is (w1^2 - w2^2)/2 up to
        # the overall sign convention
        split = OdeSystem(
            n=2,
            rhs=(parse_expr("-(w1^2)*y1"), parse_expr("-(w2^2)*y2")),
            params=(ParamDecl("w1", GENERIC), ParamDecl("w2", GENERIC)),
        )
        entry = fels_torsion(split).invariant[0][0]
        w1, w2 = ex.Param("w1"), ex.Param("w2")
        got = ex.evaluate(entry, {w1: 2.0, w2: 3.0})
        assert abs(got) == pytest.approx((9 - 4) / 2)

    def test_phi_matrix_shape(self):
        sys = OdeSystem(n=3, rhs=(ex.ZERO, ex.ZERO, ex.ZERO))
        phi = phi_matrix(sys)
        assert len(phi) == 3 and all(len(row) == 3 for row in phi)
        assert all(e is ex.ZERO for row in phi for e in row)

    def test_dispatch(self):
        assert is_straight(_sys1("6*y^2")).method == "tresse"
        sys2 = OdeSystem(n=2, rhs=(ex.ZERO, ex.ZERO))
        assert is_straight(sys2).method == "fels"


class TestQuartic:
    def test_quartic_rhs_fails_with_24(self):
        report = quartic_test(_sys1("dy^4"))
        assert report.straight is False
        assert report.verdict.value == 24

    def test_cubic_rhs_passes(self):
        report = quartic_test(_sys1("dy^3 + y*dy^2 - x"))
        assert report.straight is True

    def test_transcendental_in_dy_fails(self):
        report = quartic_test(_sys1("exp(dy)"))
        assert report.straight is False

    def test_transcendental_in_y_passes(self):
        report = quartic_test(_sys1("exp(y)*dy^2"))
        assert report.straight is True

    def test_mixed_partials_covered(self):
        # quartic only through a mixed monomial dy1^2 dy2^2
        sys = OdeSystem(n=2, rhs=(parse_expr("dy1^2*dy2^2"), ex.ZERO))
        report = quartic_test(sys)
        assert report.straight is False


    def test_no_oracle_call_after_nonzero(self, monkeypatch):
        from odetorsion import oracle

        sys = OdeSystem(n=2, rhs=(parse_expr("dy1^4"), parse_expr("dy2^4")))
        calls, runs = [], []
        decide, run = oracle._decide, ex._run
        monkeypatch.setattr(oracle, "_decide", lambda *a: calls.append(a) or decide(*a))
        monkeypatch.setattr(ex, "_run", lambda *a, **k: runs.append(a) or run(*a, **k))
        report = quartic_test(sys)
        assert report.straight is False
        # one verdict over all partials; the first, the constant 24, needs
        # no evaluation and no later partial is tested
        assert len(calls) == 1 and runs == []
        # every fourth partial is still built: 2 * C(5, 4)
        assert len(report.invariant) == 10

    def test_witness_names_row_and_partial(self):
        # f2's partials in combinations_with_replacement order: the 3rd is
        # d^4/(ddy1 ddy1 ddy2 ddy2), the first nonzero one of dy1^2*dy2^2
        sys = OdeSystem(n=2, rhs=(parse_expr("dy1^3"), parse_expr("dy1^2*dy2^2")))
        report = quartic_test(sys)
        assert report.straight is False
        assert report.verdict.entry == (2, 3)
        assert report.verdict.value == 4


class TestConserved:
    def test_energy(self):
        v = check_conserved(_sys1("6*y^2"), parse_expr("dy^2 - 4*y^3"))
        assert v.is_zero and v.exact

    def test_elliptic_modulus(self):
        sys = _sys1("(1/2)*y*(y - 1) + (y - 1/2)*dy^2/(y*(y - 1))")
        v = check_conserved(sys, parse_expr("y - dy^2/(y*(y-1))"))
        assert v.is_zero

    def test_non_conserved(self):
        v = check_conserved(_sys1("6*y^2"), parse_expr("dy^2 - 4*y^3 + x"))
        assert v.is_nonzero

    def test_validates_indices(self):
        from odetorsion.parsing import ValidationError

        with pytest.raises(ValidationError):
            check_conserved(_sys1("6*y^2"), parse_expr("y2"))

    @pytest.mark.parametrize("text", ["1/(y-y)", "log(0*y)"])
    def test_undefined_quantity_rejected(self, text):
        from odetorsion.parsing import ValidationError

        with pytest.raises(ValidationError, match="conserved quantity cannot be evaluated"):
            check_conserved(_sys1("6*y^2"), parse_expr(text))


    def test_division_by_zero_cannot_reach_a_conserved_quantity(self):
        # no conserved quantity holds 0^-1: making the node raises
        with pytest.raises(ZeroDivisionError):
            ex.Product([Y(1), ex.Power(ex.Const(0), -1)])


class TestDeepInput:
    def test_deep_polynomial_at_the_default_recursion_limit(self):
        # y'' = y*(1 + y*(1 + ...)) has f_yy != 0; no walk may recurse on its depth
        import sys

        text = "y*(1+" * 1500 + "y" + ")" * 1500
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            report = is_straight(_sys1(text))
        finally:
            sys.setrecursionlimit(limit)
        assert report.straight is False


class TestLinearConst:
    def _random_pair(self, rng, n):
        A = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        a = rand_fraction(rng)
        # B = a I - A^2 / 4
        B = [
            [
                (a if i == j else 0)
                - Fraction(1, 4) * sum(A[i][k] * A[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        return A, B

    def test_straight_form_detected(self, rng):
        for n in (2, 3):
            for _ in range(10):
                A, B = self._random_pair(rng, n)
                assert classify_linear_const(LinearConstSystem(A, B))

    def test_nonscalar_perturbation_detected(self, rng):
        for n in (2, 3):
            for _ in range(10):
                A, B = self._random_pair(rng, n)
                B[0][min(1, n - 1)] += Fraction(1, 3)
                assert not classify_linear_const(LinearConstSystem(A, B))

    def test_agrees_with_fels(self, rng):
        for _ in range(5):
            A, B = self._random_pair(rng, 2)
            ls = LinearConstSystem(A, B)
            assert fels_torsion(linear_const_to_system(ls)).straight is True
            B[1][0] += 1
            ls2 = LinearConstSystem(A, B)
            assert not classify_linear_const(ls2)
            assert fels_torsion(linear_const_to_system(ls2)).straight is False

    def test_float_tolerance(self):
        A = [[0.5, 0.1], [-0.2, 0.3]]
        a = 1.25
        B = [
            [a * (i == j) - 0.25 * sum(A[i][k] * A[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert classify_linear_const(LinearConstSystem(A, B))
        B[0][1] += 1e-6
        assert not classify_linear_const(LinearConstSystem(A, B))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            LinearConstSystem([[1, 2]], [[1]])


class TestReport:
    def test_expr_nodes_sums_the_invariant_entries(self):
        sys = OdeSystem(n=2, rhs=(parse_expr("y1*dy2^4"), parse_expr("dy1^2")))
        tresse, fels, quartic = tresse_torsion(_sys1("6*y^2")), fels_torsion(sys), quartic_test(sys)
        assert tresse.expr_nodes == ex.node_count(tresse.invariant)
        assert fels.expr_nodes == sum(ex.node_count(e) for row in fels.invariant for e in row)
        assert quartic.expr_nodes == sum(ex.node_count(e) for e in quartic.invariant)
        assert not hasattr(tresse, "telemetry")


class TestDeterminism:
    def test_reports_repeat(self):
        sys = _sys1("exp(x)*dy + 6*y^2")
        a = tresse_torsion(sys, OracleConfig(seed=3))
        b = tresse_torsion(sys, OracleConfig(seed=3))
        assert a.verdict == b.verdict
        assert a.invariant is b.invariant  # interned
