import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mixed_systems, random_point, random_polynomial
from odetorsion import calculus
from odetorsion import expr as ex
from odetorsion.calculus import nth_partial, partial, partials, total_derivative
from odetorsion.expr import EvalSingular, X, Y, YDot
from odetorsion.parsing import OdeSystem, parse_expr

x = X
y = Y(1)
dy = YDot(1)


def central_difference(e, ref, point, h=1e-5):
    hi = dict(point)
    lo = dict(point)
    hi[ref] = point[ref] + h
    lo[ref] = point[ref] - h
    a = ex.evaluate(e, hi)
    b = ex.evaluate(e, lo)
    return (a - b) / (2 * h)


class TestPartial:
    def test_the_parsed_leaf_is_the_variable(self):
        f = parse_expr("y^3 + x*y")
        assert partial(f, parse_expr("y")) is parse_expr("3*y1^2 + x")
        assert partial(f, parse_expr("x")) is Y(1)

    def test_power_rule(self):
        assert partial(ex.pow_(y, 3), Y(1)) == ex.mul(ex.const(3), ex.pow_(y, 2))

    def test_constant(self):
        assert partial(ex.const(7), X) is ex.ZERO

    def test_unrelated_variable(self):
        assert partial(ex.pow_(y, 2), YDot(1)) is ex.ZERO

    def test_chain_rule_exp(self):
        e = ex.apply("exp", ex.pow_(x, 2))
        d = partial(e, X)
        pt = {X: 0.7}
        import cmath

        expected = 2 * 0.7 * cmath.exp(0.49)
        assert abs(ex.evaluate(d, pt) - expected) < 1e-12

    def test_log(self):
        d = partial(ex.apply("log", y), Y(1))
        assert ex.evaluate(d, {Y(1): 4}) == pytest.approx(0.25)

    def test_sqrt(self):
        d = partial(ex.apply("sqrt", x), X)
        assert ex.evaluate(d, {X: 4}) == pytest.approx(0.25)

    def test_quotient_rule(self):
        e = ex.quot(dy, y)
        d = partial(e, Y(1))
        pt = {Y(1): 2, YDot(1): 6}
        assert ex.evaluate(d, pt) == pytest.approx(-1.5)

    def test_memoized(self):
        e = parse_expr("exp(x)*y^5 + dy^3/x")
        assert partial(e, Y(1)) is partial(e, Y(1))

    def test_absent_variable_not_memoized(self):
        e = parse_expr("exp(x)*y^5 + absent_var_probe*x^3")
        before = len(calculus._partial_cache)
        assert partial(e, YDot(1)) is ex.ZERO
        assert len(calculus._partial_cache) == before


@pytest.mark.parametrize("trial", range(25))
def test_partial_matches_finite_difference(trial):
    rng = random.Random(9100 + trial)
    refs = [X, Y(1), YDot(1)]
    base = random_polynomial(rng, refs)
    e = base
    if trial % 3 == 0:
        e = ex.apply("exp", ex.mul(ex.const(rng.choice([1, -1])), base))
    elif trial % 3 == 1:
        e = ex.quot(base, ex.add(ex.pow_(y, 2), ex.const(3)))
    ref = rng.choice(refs)
    point = random_point(rng, refs)
    try:
        exact = ex.evaluate(partial(e, ref), dict(point))
        approx = central_difference(e, ref, point)
    except (EvalSingular, OverflowError):
        pytest.skip("singular sample")
    scale = max(abs(exact), abs(approx), 1.0)
    assert abs(exact - approx) <= 1e-6 * scale


def test_partials_commute(rng):
    for _ in range(15):
        e = random_polynomial(rng, [X, Y(1), YDot(1)], max_degree=4)
        ab = nth_partial(e, [Y(1), YDot(1)])
        ba = nth_partial(e, [YDot(1), Y(1)])
        assert ab == ba


def test_leibniz_rule(rng):
    for _ in range(15):
        u = random_polynomial(rng, [X, Y(1)])
        v = random_polynomial(rng, [Y(1), YDot(1)])
        lhs = partial(ex.mul(u, v), Y(1))
        rhs = ex.add(ex.mul(partial(u, Y(1)), v), ex.mul(u, partial(v, Y(1))))
        point = random_point(rng, [X, Y(1), YDot(1)])
        a = ex.evaluate(lhs, dict(point))
        b = ex.evaluate(rhs, dict(point))
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)


@given(mixed_systems(), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_partials_are_the_nth_partials_in_order(sys_, k):
    # the prefix walk, ZERO-filled subtrees included, gives the very nodes
    # nth_partial gives, in combinations_with_replacement order
    dys = [YDot(i) for i in range(1, sys_.n + 1)]
    for f in sys_.rhs:
        got = partials(f, dys, k)
        want = [nth_partial(f, c) for c in combinations_with_replacement(dys, k)]
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_partials_take_each_prefix_once(monkeypatch):
    # one call per prefix whose parent prefix is nonzero, none on a ZERO
    f = parse_expr("dy1^2*dy2^2 + exp(dy3)*y1 + y2*dy1")
    dys = [YDot(1), YDot(2), YDot(3)]
    prefixes = [c for j in range(1, 5) for c in combinations_with_replacement(dys, j)]
    wanted = sum(nth_partial(f, c[:-1]) is not ex.ZERO for c in prefixes)
    calls = []
    real = calculus.partial
    monkeypatch.setattr(calculus, "partial", lambda e, v: calls.append(e) or real(e, v))
    assert len(partials(f, dys, 4)) == 15
    assert len(calls) == wanted < len(prefixes)
    assert ex.ZERO not in calls


def full_total_derivative(g, sys_):
    """d/dx as the sum of all 2n + 1 terms, ZERO ones included."""
    terms = [partial(g, X)]
    for i in range(1, sys_.n + 1):
        terms.append(ex.mul(partial(g, Y(i)), YDot(i)))
        terms.append(ex.mul(partial(g, YDot(i)), sys_.rhs[i - 1]))
    return ex.add(*terms)


@given(mixed_systems())
@settings(max_examples=150, deadline=None)
def test_total_derivative_is_the_full_sum(sys_):
    # summing over the variables g contains builds the node the full sum builds
    gs = list(sys_.rhs) + [partial(f, v) for f in sys_.rhs for v in sorted(f.free, key=str)]
    for g in gs:
        assert total_derivative(g, sys_) is full_total_derivative(g, sys_)


class TestTotalDerivative:
    def test_conserved_energy_is_exact_zero_numerically(self):
        # d/dx (dy^2 - 4 y^3) along y'' = 6 y^2 is identically zero
        sys = OdeSystem(rhs=(parse_expr("6*y^2"),))
        g = parse_expr("dy^2 - 4*y^3")
        d = total_derivative(g, sys)
        rng = random.Random(5)
        for _ in range(10):
            point = random_point(rng, [X, Y(1), YDot(1)])
            assert abs(ex.evaluate(d, point)) < 1e-9

    def test_x_slot(self):
        sys = OdeSystem(rhs=(ex.ZERO,))
        assert total_derivative(x, sys) is ex.ONE

    def test_y_slot_uses_dy(self):
        sys = OdeSystem(rhs=(ex.ZERO,))
        assert total_derivative(y, sys) == dy

    def test_dy_slot_uses_rhs(self):
        sys = OdeSystem(rhs=(parse_expr("6*y^2"),))
        assert total_derivative(dy, sys) == parse_expr("6*y^2")

    def test_multi_dimensional(self):
        sys = OdeSystem(rhs=(parse_expr("y2"), parse_expr("y1")))
        g = parse_expr("y1*dy2")
        d = total_derivative(g, sys)
        # d/dx (y1 dy2) = dy1 dy2 + y1 f2 = dy1 dy2 + y1^2
        expected = parse_expr("dy1*dy2 + y1^2")
        pt = {X: 0.3, Y(1): 1.1, Y(2): -0.4, YDot(1): 0.8, YDot(2): 2.2}
        a = ex.evaluate(d, dict(pt))
        b = ex.evaluate(expected, dict(pt))
        assert abs(a - b) < 1e-12

    def test_matches_finite_difference_along_solutions(self):
        # integrate y'' = 6 y^2 a tiny step with RK4 and difference g
        sys = OdeSystem(rhs=(parse_expr("6*y^2"),))
        g = parse_expr("x*dy + y^2")
        d = total_derivative(g, sys)

        def flow(state, h):
            def deriv(s):
                xv, yv, pv = s
                return (1.0, pv, 6 * yv ** 2)

            k1 = deriv(state)
            k2 = deriv(tuple(s + h / 2 * k for s, k in zip(state, k1)))
            k3 = deriv(tuple(s + h / 2 * k for s, k in zip(state, k2)))
            k4 = deriv(tuple(s + h * k for s, k in zip(state, k3)))
            return tuple(
                s + h / 6 * (a + 2 * b + 2 * c + e)
                for s, a, b, c, e in zip(state, k1, k2, k3, k4)
            )

        def gval(state):
            xv, yv, pv = state
            return ex.evaluate(g, {X: xv, Y(1): yv, YDot(1): pv})

        state = (0.4, 0.9, -0.3)
        h = 1e-5
        approx = (gval(flow(state, h)) - gval(flow(state, -h))) / (2 * h)
        exact = ex.evaluate(
            d, {X: state[0], Y(1): state[1], YDot(1): state[2]}
        )
        assert abs(approx - exact) <= 1e-6 * max(abs(exact), 1.0)
