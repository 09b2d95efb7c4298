import cmath
import copy
import math
import operator
import os
import pathlib
import pickle
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odetorsion import expr as ex
from odetorsion.parsing import parse_expr
from odetorsion.expr import (
    Apply,
    Const,
    EvalSingular,
    Param,
    Power,
    Product,
    Sum,
    Var,
    X,
    Y,
    YDot,
    build,
    evaluate,
    evaluate_exact,
    is_polynomial,
    substitute,
)

x = X
y1 = Y(1)
dy1 = YDot(1)


class TestBuild:
    """The node classes' constructors canonicalize, and build returns its argument."""

    def test_constant_folding(self):
        assert Sum([Const(2), Const(3)]) is ex.const(5)

    def test_annihilator(self):
        assert Product([Const(0), X]) is ex.ZERO

    def test_flatten_and_drop_zero(self):
        e = Sum([X, Sum([Y(1), Const(0)])])
        assert e is ex.add(x, y1) and build(e) is e

    def test_power_collapse(self):
        assert Power(X, 1) is x
        assert Power(Power(X, 2), 3) is ex.pow_(x, 6)

    def test_quotient_by_constant_folds(self):
        # x/2 is x*2^-1, and the constant's power folds
        assert Product([X, Power(Const(2), -1)]) is ex.mul(ex.const(Fraction(1, 2)), x)
        assert ex.quot(x, ex.const(2)) is ex.mul(ex.const(Fraction(1, 2)), x)

    def test_no_nested_sums_or_products(self):
        out = Sum([Sum([X, Y(1)]), Sum([YDot(1), Const(1)])])
        assert isinstance(out, Sum)
        assert not any(isinstance(t, Sum) for t in out.kids)
        consts = [t for t in out.kids if isinstance(t, Const)]
        assert len(consts) == 1


class TestCanonicalWhenMade:
    def test_no_node_class_defines_init(self):
        # Python calls __init__ on whatever __new__ returns: an interned node
        for cls in (ex.Expr, Const, Var, Sum, Product, Power, Apply):
            assert "__init__" not in vars(cls)

    def test_a_constant_operand_is_the_interned_constant(self):
        assert Const(2) is ex.const(2) and Const(0.5) is ex.const(Fraction(1, 2))
        assert ex.mul(Const(2), y1) is ex.mul(ex.const(2), y1)
        assert ex.add(Const(0), y1) is y1
        assert ex.mul(Const(1), y1) is y1

    def test_one_operand_and_a_zero_factor(self):
        assert Sum([y1]) is y1 and Product([y1]) is y1
        assert Product([Const(0), X]) is ex.ZERO

    def test_a_division_by_a_constant_zero_cannot_be_made(self):
        with pytest.raises(ZeroDivisionError):
            Power(Const(0), -1)
        with pytest.raises(ZeroDivisionError):
            Product([y1, Power(Sum([ex.ONE, Const(-1)]), -1)])

    def test_an_unknown_function_cannot_be_made(self):
        with pytest.raises(ValueError, match="unknown function 'tan'"):
            Apply("tan", y1)


class TestCopy:
    @pytest.mark.parametrize("node", [parse_expr("2*y + x*sin(dy2)^-3 - a/7"), X, Y(2), YDot(3),
                                      Param("a"), ex.const(2 + 3j), ex.const(Fraction(-5, 3))],
                             ids=["parsed", "x", "y2", "dy3", "param", "complex", "rational"])
    def test_copy_deepcopy_and_pickle_return_the_node(self, node):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node

    def test_deepcopy_of_a_deep_expression_does_not_recurse(self):
        e = parse_expr("y*(1+" * 1500 + "y" + ")" * 1500)
        assert copy.deepcopy(e) is e and copy.deepcopy([e])[0] is e

    @pytest.mark.parametrize("depth", [170, 1500])
    def test_pickle_of_a_deep_expression_does_not_recurse(self, depth):
        # a node pickles as its program's flat steps
        e = parse_expr("y*(1+" * depth + "y" + ")" * depth)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert pickle.loads(pickle.dumps(e)) is e
        finally:
            sys.setrecursionlimit(limit)

    def test_unpickling_in_a_fresh_interpreter_gives_the_parsed_node(self, tmp_path):
        texts = ["2*y + x*sin(dy2)^-3 - a/7 + (1+2*i)*log(y)^2", "y*(1+" * 1500 + "y" + ")" * 1500]
        path = tmp_path / "nodes.pickle"
        path.write_bytes(pickle.dumps([(t, parse_expr(t)) for t in texts]))
        code = ("import pickle, sys; from odetorsion import parse_expr; "
                "pairs = pickle.load(open(sys.argv[1], 'rb')); "
                "print([f is parse_expr(t) for t, f in pairs])")
        src = str(pathlib.Path(ex.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout == "[True, True]\n"


# A small strategy for trees.  Each draw is a plain description, nested
# tuples: ("c", k), ("v", variable), ("+", terms), ("*", factors),
# ("^", base, k) or ("f", name, argument).  _make builds it through the
# node classes' constructors, and _ref_value reads it by recursion.
_leaves = st.one_of(
    st.integers(-4, 4).map(lambda k: ("c", k)),
    st.sampled_from([X, Y(1), YDot(1), ex.Param("a")]).map(lambda v: ("v", v)),
)


def _branch(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ("+", ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: ("*", fs)),
        st.tuples(children, st.sampled_from([-2, 2, 3])).map(lambda t: ("^", *t)),
        st.tuples(children, children).map(lambda t: ("*", [t[0], ("^", t[1], -1)])),  # t0/t1
        children.map(lambda c: ("*", [("c", -1), c])),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), children).map(lambda t: ("f", *t)),
    )


trees = st.recursive(_leaves, _branch, max_leaves=12)


def _make(d):
    """The node of description d, or None where the constructors raise
    ZeroDivisionError (a constant zero to a negative power)."""

    def go(d):
        tag = d[0]
        if tag == "c":
            return Const(d[1])
        if tag == "v":
            return d[1]
        if tag == "+":
            return Sum([go(t) for t in d[1]])
        if tag == "*":
            return Product([go(f) for f in d[1]])
        if tag == "^":
            return Power(go(d[1]), d[2])
        return Apply(d[1], go(d[2]))

    try:
        return go(d)
    except ZeroDivisionError:
        return None


def _ref_value(d, point, number=complex):
    """The value of description d at point by a plain recursive walk, in
    complex (principal branches) or Fraction arithmetic."""
    tag = d[0]
    if tag == "c":
        return number(d[1])
    if tag == "v":
        return number(point[d[1]])
    if tag == "^":
        return _ref_value(d[1], point, number) ** d[2]
    if tag == "f":
        return getattr(cmath, d[1])(_ref_value(d[2], point, number))
    kids = [_ref_value(k, point, number) for k in d[1]]
    return sum(kids, number(0)) if tag == "+" else math.prod(kids, start=number(1))


def _ref_poly(d):
    """Whether description d is evaluable in integers as it stands: no
    negative power and no function."""
    tag = d[0]
    if tag in ("c", "v"):
        return True
    if tag == "^":
        return d[2] > 0 and _ref_poly(d[1])
    return tag != "f" and all(_ref_poly(k) for k in d[1])


def _loose(d):
    """Description d as uninterned nodes, unflattened and unfolded as no
    constructor leaves them, with the slots that a program reads set
    directly; its variables are the interned ones."""
    tag = d[0]
    if tag == "v":
        return d[1]
    n = object.__new__({"c": Const, "+": Sum, "*": Product, "^": Power}[tag])
    if tag == "c":
        n.kids, n.num, n.den = (), d[1], 1
    elif tag == "^":
        n.kids, n.exponent = (_loose(d[1]),), d[2]
    else:
        n.kids = tuple(_loose(k) for k in d[1])
    return n


@given(trees)
@settings(max_examples=200, deadline=None)
def test_build_idempotent(desc):
    """Every node is made again, from its own constructor arguments or by
    build, as the very same node."""
    node = _make(desc)
    if node is None:
        return
    for n in _nodes(node):
        cls, args = n.__reduce__()
        assert cls(*args) is n and build(n) is n


@given(trees, st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_build_preserves_value(desc, seed):
    """The constructors, folding and flattening as they build, keep the
    value of the description they are given."""
    import random

    from conftest import random_point

    node = _make(desc)
    if node is None:
        return
    point = random_point(random.Random(seed), [X, Y(1), YDot(1), ex.Param("a")])
    try:
        a = _ref_value(desc, point)
        b = evaluate(node, point)
    except (ZeroDivisionError, EvalSingular, OverflowError):
        return
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        return
    scale = max(abs(a), abs(b), 1.0)
    assert abs(a - b) <= 1e-12 * scale


def _nodes(root):
    seen = {}  # by node: nodes hash by identity

    def go(n):
        if n not in seen:
            seen[n] = None
            for c in ex.children(n):
                go(c)

    go(root)
    return list(seen)


def _reference_summary(n):
    """free, poly and fns of n, recomputed by a plain recursive walk."""
    kids = [_reference_summary(c) for c in ex.children(n)]
    free = frozenset().union(*(k[0] for k in kids))
    fns = frozenset().union(*(k[2] for k in kids))
    if isinstance(n, Const):
        return frozenset(), isinstance(n.value, Fraction), frozenset()
    if isinstance(n, Var):
        return frozenset((n,)), True, frozenset()
    if isinstance(n, Apply):
        return free, False, fns | {n.fn}
    if isinstance(n, Power):
        ((_, base_poly, _),) = kids
        return free, base_poly and n.exponent >= 0, fns
    return free, all(k[1] for k in kids), fns


_point_values = st.tuples(st.integers(-5, 5), st.integers(1, 3)).map(lambda t: Fraction(*t))


@given(trees, st.lists(_point_values, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_node_summaries_and_one_evaluator(desc, values):
    node = _make(desc)
    if node is None:
        return
    point = dict(zip([X, Y(1), YDot(1), ex.Param("a")], values))
    nodes = _nodes(node)
    assert ex.node_count(node) == len(nodes)
    for n in nodes:
        # interned: its own constructor remakes it from its class, its own
        # data and its operands, which live in kids alone (none for a leaf)
        assert ex._remake(type(n), ex._own(n), list(n.kids)) is n
        free, poly, fns = _reference_summary(n)
        assert (n.free, n.poly) == (free, poly)
        assert [ex.contains_fn(n, (name,)) for name in ex.FUNCTIONS] == [name in fns for name in ex.FUNCTIONS]
        assert type(n.kids) is tuple and ex.children(n) is n.kids
        if isinstance(n, (Const, Var)):
            assert n.kids == ()
        if isinstance(n, (Power, Apply)):
            assert len(n.kids) == 1 and (n.base if isinstance(n, Power) else n.arg) is n.kids[0]
    if not node.poly:
        return
    try:
        exact = evaluate_exact(node, point)
        scale = max(abs(evaluate_exact(n, point)) for n in nodes)
        value = evaluate(node, point)
    except (EvalSingular, OverflowError):
        return
    assert abs(value - complex(exact)) <= 1e-9 * max(scale, 1)


def _reference_exact(n, point):
    """n's value by a plain recursive walk in Fraction arithmetic."""
    if isinstance(n, Const):
        return n.value
    if isinstance(n, Var):
        return point[n]
    kids = [_reference_exact(c, point) for c in ex.children(n)]
    if isinstance(n, Sum):
        return sum(kids, Fraction(0))
    if isinstance(n, Product):
        return math.prod(kids, start=Fraction(1))
    assert isinstance(n, Power)
    return kids[0] ** n.exponent


# small values make exact zeros common, large ones make big denominators
_exact_values = st.one_of(
    _point_values,
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)).map(lambda t: Fraction(*t)),
)


@given(trees, st.lists(_exact_values, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_integer_exact_evaluation_matches_fraction_reference(desc, values):
    node = _make(desc)
    if node is None or not node.poly:
        return
    point = dict(zip([X, Y(1), YDot(1), ex.Param("a")], values))
    # a canonical sum with a term and its negation is zero at every point
    for root in (node, ex.sub(node, node)):
        got = evaluate_exact(root, point)
        assert type(got) is Fraction
        assert got == _reference_exact(root, point)
    if _ref_poly(desc):
        # the description's own structure, unflattened and unfolded, runs in the same integers
        prog = ex.Program((_loose(desc),))
        (num,), s = ex.exact_ratios(prog, point)
        den = s ** prog.degrees()[0][prog.roots[0]]
        assert Fraction(num, den) == evaluate_exact(node, point) == _ref_value(desc, point, Fraction)


@given(trees, st.lists(_exact_values, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_integer_evaluation_meets_no_singular_step(desc, values):
    """A canonical poly root has no negative power, so
    exact evaluation cannot divide by zero."""
    node = _make(desc)
    if node is None or not node.poly:
        return
    point = dict(zip([X, Y(1), YDot(1), ex.Param("a")], values))
    roots = (node, ex.add(node, x))
    prog = ex.Program(roots)
    nums, s = ex.exact_ratios(prog, point)
    degs = prog.degrees()[0]
    # one program over both roots gives each its own exact value, N / S^d
    assert [Fraction(num, s ** degs[r]) for num, r in zip(nums, prog.roots)] == [
        _reference_exact(root, point) for root in roots]


def test_interning_is_race_free():
    """Two threads interning the same new nodes get one node per key."""
    a = ex.Param("race")
    results = ([], [])
    start = threading.Barrier(2)

    def work(out):
        start.wait(timeout=10)
        out.extend(ex.mul(ex.const(k), a) for k in range(2, 20002))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first, second = results
    assert len(first) == len(second) == 20000
    assert all(p is q for p, q in zip(first, second))
    assert all(ex._remake(type(p), ex._own(p), list(p.kids)) is p for p in first)


# Node-first reference constructors: build the whole node, fold every
# constant from the unit, then intern it through _mk under the key
# _ref_key works out from the whole node.  The smart constructors look
# the key up first and must return the very same nodes.


def _ref_key(node):
    t = type(node)
    if t is Const:
        # Fraction(2) == complex(2) under ==, but keep exactness distinct.
        return ("q", node.num, node.den) if node.den else ("c", node.value)
    if t is Var:
        return ("v", node.kind, node.index, node.name)
    if t is Power:
        return ("^", node.kids[0], node.exponent)
    if t is Apply:
        return ("f", node.fn, node.kids[0])
    return ("+" if t is Sum else "*", node.kids)


def _ref_node(cls, kids, poly, **slots):
    node = object.__new__(cls)
    node.kids = kids = tuple(kids)
    for name, value in slots.items():
        setattr(node, name, value)
    return ex._mk(node, _ref_key(node), kids, poly)


def _ref_const(value):
    # a finite complex with a zero imaginary part is its real part, and an
    # int, float or Fraction is held as its Fraction's lowest terms
    if isinstance(value, complex):
        if not cmath.isfinite(value):
            raise OverflowError(f"constant {value} outside the float range")
        if value.imag:
            return _ref_node(Const, (), False, num=0, den=0, _complex=value)
        value = value.real
    v = Fraction(value)
    return _ref_node(Const, (), True, num=v.numerator, den=v.denominator)


def _ref_num(a, b, op):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return op(a, b)
    return op(complex(a), complex(b))


def _ref_flatten(operands, kind, unit, op):
    flat, acc = [], unit
    for o in operands:
        for s in o.kids if isinstance(o, kind) else (o,):
            if isinstance(s, Const):
                acc = _ref_num(acc, s.value, op)
            else:
                flat.append(s)
    return flat, acc


def _ref_add(*terms):
    flat, acc = _ref_flatten(terms, Sum, Fraction(0), operator.add)
    if acc != 0:
        flat.append(_ref_const(acc))
    if not flat:
        return ex.ZERO
    if len(flat) == 1:
        return flat[0]
    return _ref_node(Sum, flat, all(t.poly for t in flat))


def _ref_mul(*factors):
    flat, acc = _ref_flatten(factors, Product, Fraction(1), operator.mul)
    if acc == 0:
        return ex.ZERO
    if acc != 1:
        flat.insert(0, _ref_const(acc))
    if not flat:
        return ex.ONE
    if len(flat) == 1:
        return flat[0]
    return _ref_node(Product, flat, all(f.poly for f in flat))


def _ref_neg(e):
    return _ref_mul(_ref_const(-1), e)


def _ref_pow(base, exponent):
    if exponent == 0:
        return ex.ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return _ref_const(base.value ** exponent)
    if isinstance(base, Power):
        return _ref_pow(base.kids[0], base.exponent * exponent)
    return _ref_node(Power, (base,), base.poly and exponent >= 0, exponent=exponent)


def _ref_quot(numerator, denominator):
    return _ref_mul(numerator, _ref_pow(denominator, -1))


_constants = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 4), 0.5, 1j, -1j, 2 + 3j, 10 ** 300])


_operands = st.one_of(_constants.map(ex.const), trees.map(lambda d: _make(d) or ex.ONE))


def _same(got, want):
    """got() and want() return the identical node, or raise the same error.

    got() runs first, so a node it has not seen takes its miss path; the
    reference's _mk then returns got()'s node exactly when the keys agree.
    """
    try:
        node = got()
    except (ZeroDivisionError, OverflowError) as err:
        with pytest.raises(type(err)):
            want()
        return
    assert want() is node


@given(st.lists(_operands, min_size=1, max_size=4), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_key_first_constructors_match_node_first_reference(operands, exponent):
    a, b = operands[0], operands[-1]
    _same(lambda: ex.add(*operands), lambda: _ref_add(*operands))
    _same(lambda: ex.mul(*operands), lambda: _ref_mul(*operands))
    _same(lambda: ex.neg(a), lambda: _ref_neg(a))
    _same(lambda: ex.sub(a, b), lambda: _ref_add(a, _ref_neg(b)))
    _same(lambda: ex.quot(a, b), lambda: _ref_quot(a, b))
    _same(lambda: ex.pow_(a, exponent), lambda: _ref_pow(a, exponent))


class TestKeyFirstInterning:
    def test_a_hit_builds_no_node(self, monkeypatch):
        a = ex.Param("hit")
        nodes = [ex.add(a, y1, ex.ONE), ex.mul(ex.const(3), a), ex.neg(a), ex.pow_(a, 4),
                 ex.quot(y1, a), ex.apply("exp", a), ex.const(7), ex.const(Fraction(3, 5))]
        made = []
        mk = ex._mk
        monkeypatch.setattr(ex, "_mk", lambda node, *args, **kw: made.append(node) or mk(node, *args, **kw))
        again = [ex.add(a, y1, ex.ONE), ex.mul(ex.const(3), a), ex.neg(a), ex.pow_(a, 4),
                 ex.quot(y1, a), ex.apply("exp", a), ex.const(7), ex.const(Fraction(3, 5))]
        assert made == []
        assert all(p is q for p, q in zip(nodes, again, strict=True))

    def test_integer_literal_reaches_the_fraction_constant(self):
        c = ex.const(Fraction(123457))
        assert ex.const(123457) is c and type(c.value) is Fraction
        assert ex.const(-5) is ex.const(Fraction(-5)) and ex.neg(ex.const(5)) is ex.const(-5)

    def test_one_var_per_index(self):
        assert Y(3) is Y(3) and YDot(3) is YDot(3) and Y(3) != YDot(3)
        assert Var(Var.Y, 1) is Y(1) and Var(Var.YDOT, index=2) is YDot(2)
        assert Param("a") is Param("a") and Param("a") is not Param("b")
        assert Var(Var.X) is X
        with pytest.raises(ValueError):
            Y(0)

    def test_nodes_compare_and_hash_by_identity(self):
        for cls in (ex.Expr, Const, Var, Sum, Product, Power, Apply):
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
            assert "_h" not in getattr(cls, "__slots__", ())

        def tree():
            return Sum([Product([Const(3), X]), Power(Y(1), 2)])

        a, b = tree(), tree()  # two equal trees made by the constructors are one node
        assert a is b and len({a: 1, b: 2}) == 1
        prog = ex.Program((a, b))
        # 3, x, 3*x, y1, y1^2 and the sum, once: both roots are one step
        assert len(prog.steps) == 6 and prog.roots[0] == prog.roots[1]
        s = X
        assert len(ex.Program((Product([s, s]),)).steps) == 2  # one object, one step
        assert a is ex.add(ex.mul(ex.const(3), x), ex.pow_(y1, 2))


_rationals = st.one_of(
    st.integers(-12, 12),
    st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) <= 10 ** 6),
    st.integers(-(10 ** 60), 10 ** 60),
    st.builds(Fraction, st.integers(-(10 ** 40), 10 ** 40), st.integers(1, 10 ** 40)),
)
_mixed = st.one_of(_rationals, st.sampled_from([1j, -0.5j, 2 + 3j, 1e-3 - 7j]))


def _complex_fold(values, unit, op):
    # the fold from the unit, left to right, in Fraction then complex
    acc = Fraction(unit)
    for v in values:
        acc = op(acc, v) if isinstance(acc, Fraction) and isinstance(v, Fraction) else op(complex(acc), complex(v))
    return acc


class TestConstantPairs:
    @given(st.lists(_rationals, min_size=2, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_rational_fold_agrees_with_fraction_arithmetic(self, values):
        values = [Fraction(v) for v in values]
        consts = [ex.const(v) for v in values]
        total, product = ex.add(*consts), ex.mul(*consts)
        want_sum, want_product = sum(values, Fraction(0)), math.prod(values, start=Fraction(1))
        assert type(total) is Const and total.value == want_sum
        assert type(product) is Const and product.value == want_product
        assert total is ex.const(want_sum) and product is ex.const(want_product)
        assert (total.num, total.den) == (want_sum.numerator, want_sum.denominator)
        assert (product.num, product.den) == (want_product.numerator, want_product.denominator)
        a, b = consts[0], consts[1]
        if b.value:
            assert ex.quot(a, b) is ex.const(values[0] / values[1])
        for k in (-3, -1, 2, 3):
            if a.value or k > 0:
                assert ex.pow_(a, k) is ex.const(values[0] ** k)
            else:
                with pytest.raises(ZeroDivisionError):
                    ex.pow_(a, k)

    @given(st.integers(-(10 ** 40), 10 ** 40) | st.sampled_from([10 ** 300, -(10 ** 300) - 1]),
           st.integers(1, 10 ** 40) | st.just(7 ** 400),
           st.integers(-9, 9))
    @example(-3, 2, -3)
    @example(0, 5, 3)
    @example(0, 1, -2)
    @settings(max_examples=300, deadline=None)
    def test_rational_power_is_the_fraction_power(self, num, den, k):
        # raised as an int pair, and looked up with the coprime pair and
        # positive denominator that _rational takes
        q = Fraction(num, den)
        rational = ex._rational

        def checked(n, d):
            assert d > 0 and math.gcd(n, d) == 1, (n, d)
            return rational(n, d)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(ex, "_rational", checked)
            if q == 0 and k < 0:
                with pytest.raises(ZeroDivisionError, match="^0 raised to a negative power$"):
                    ex.pow_(ex.const(q), k)
                return
            got = ex.pow_(ex.const(q), k)
        assert got is ex.const(q ** k)

    @given(st.lists(_mixed, min_size=2, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_fold_with_complex_operands_keeps_the_unit_order(self, values):
        values = [v if isinstance(v, complex) else Fraction(v) for v in values]
        consts = [ex.const(v) for v in values]
        for unit, op, build_op in ((0, operator.add, ex.add), (1, operator.mul, ex.mul)):
            try:
                want = ex.const(_complex_fold(values, unit, op))
            except OverflowError:
                with pytest.raises(OverflowError):
                    build_op(*consts)
                continue
            assert build_op(*consts) is want

    def test_a_nonzero_constant_that_converts_to_zero_is_an_overflow(self):
        # 10^-400 and (10^-170*i)^2 are 0 as floats, which would make the
        # term they scale vanish at every sample point
        tiny = ex.const(1e-170j)
        with pytest.raises(OverflowError, match="constant power outside the float range"):
            ex.pow_(tiny, 2)
        with pytest.raises(OverflowError, match="constant product outside the float range"):
            ex.mul(tiny, tiny)
        assert ex.pow_(ex.ZERO, 2) is ex.ZERO and ex.mul(ex.ZERO, tiny, tiny) is ex.ZERO
        exp_y = ex.apply("exp", Y(1))
        with pytest.raises(OverflowError, match="constant outside the float range"):
            ex.program(ex.mul(ex.const(Fraction(1, 10 ** 400)), exp_y)).constants()
        subnormal = ex.const(Fraction(1, 10 ** 320))
        assert ex.program(ex.mul(subnormal, exp_y)).constants()[subnormal] == 1e-320

    @pytest.mark.parametrize("value, key, want", [
        (3, ("q", 3, 1), Fraction(3)), (True, ("q", 1, 1), Fraction(1)), (Fraction(-6, 4), ("q", -3, 2), Fraction(-3, 2)),
        (0.1, ("q", 3602879701896397, 36028797018963968), Fraction(0.1)), (-0.0, ("q", 0, 1), Fraction(0)),
        (2 + 0j, ("q", 2, 1), Fraction(2)), (1 + 2j, ("c", 1 + 2j), 1 + 2j),
    ])
    def test_const_converts_its_argument(self, value, key, want):
        c = ex.const(value)
        assert c is ex._intern[key] and type(c.num) is int and type(c.den) is int
        assert (c.num, c.den) == (key[1:] if key[0] == "q" else (0, 0))
        assert type(c.value) is type(want) and c.value == want
        assert c.poly == (key[0] == "q") and ex.Const(value) is c

    @pytest.mark.parametrize("value, error, message", [
        (float("inf"), OverflowError, "cannot convert Infinity to integer ratio"),
        (float("nan"), ValueError, "cannot convert NaN to integer ratio"),
        (complex("inf"), OverflowError, "constant (inf+0j) outside the float range"),
        ("1", TypeError, "not a constant: '1'"),
    ])
    def test_const_rejects_what_no_constant_holds(self, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ex.const(value)

    def test_a_new_rational_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        fresh = [(10 ** 40 + 1, 7), (-(3 ** 90), 2 ** 70)]  # coprime pairs no other test makes
        half_fresh = ex.const(Fraction(5 ** 60, 2 ** 61 - 1))  # its argument is the one Fraction
        monkeypatch.setattr(Fraction, "__new__", refuse)
        nodes = [ex._rational(*pair) for pair in fresh]
        nodes += [ex.const(7 ** 50), ex.const(0.1 ** 7), ex.pow_(half_fresh, -3),
                  ex.add(ex.const(11 ** 30), half_fresh), ex.mul(nodes[0], nodes[1])]
        monkeypatch.undo()
        assert [(c.num, c.den) for c in nodes[:2]] == fresh
        assert [c.value for c in nodes[2:]] == [Fraction(7 ** 50), Fraction(0.1 ** 7), Fraction(5 ** 60, 2 ** 61 - 1) ** -3,
                                                11 ** 30 + Fraction(5 ** 60, 2 ** 61 - 1),
                                                Fraction(10 ** 40 + 1, 7) * Fraction(-(3 ** 90), 2 ** 70)]

    def test_new_constants_round_trip(self):
        from odetorsion.parsing import to_str

        consts = [ex._rational(13 ** 41, 2 ** 80 + 1), ex._rational(-(17 ** 33), 1), ex.const(Fraction(-1, 3 ** 50)),
                  ex.const(-0.375 + 2.5j), ex.const(1e-3 - 7j)]
        for c in consts:
            assert pickle.loads(pickle.dumps(c)) is c
            assert copy.copy(c) is c and copy.deepcopy(c) is c
            assert parse_expr(to_str(c)) is c
            assert type(ex._own(c)) is type(c.value) and ex._own(c) == c.value

    def test_no_intern_key_holds_a_fraction(self):
        from odetorsion.parsing import parse_expr

        parse_expr("(1/2)*y^2 + 0.25*dy - 3/7 + (2/3)^-2*x + i/4")

        def fractions(key):
            if isinstance(key, Fraction):
                return True
            return isinstance(key, tuple) and any(fractions(k) for k in key)

        assert not any(fractions(key) for key in list(ex._intern))

    def test_threads_interning_one_new_param_get_one_instance(self):
        names = [f"fresh{k}" for k in range(2000)]
        results = ([], [])
        start = threading.Barrier(2)

        def work(out):
            start.wait(timeout=10)
            out.extend(Param(name) for name in names)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(p is q for p, q in zip(*results, strict=True))
        assert all(Param(name) is p for name, p in zip(names, results[0]))


class TestOneVariableObject:
    def test_the_parsed_leaf_is_the_variable(self):
        assert Y(1) is parse_expr("y") is parse_expr("y1")
        assert X is parse_expr("x") and Param("a") is parse_expr("a")
        assert parse_expr("y^3 + x*y").free == {Y(1), X}

    def test_substitute_takes_the_parsed_leaf(self):
        e = parse_expr("y^2 + dy")
        assert substitute(e, {parse_expr("y"): X}) is parse_expr("x^2 + dy")

    def test_a_variable_is_never_raw(self):
        assert build(Y(2)) is Y(2) and substitute(Y(2), {}) is Y(2)
        with pytest.raises(ValueError, match="unknown variable kind"):
            Var(X)
        assert (str(X), str(Y(1)), str(YDot(2)), str(Param("a"))) == ("x", "y1", "dy2", "a")


class TestSubstitute:
    def test_param_to_zero(self):
        e = ex.mul(ex.Param("a"), y1)
        assert substitute(e, {ex.Param("a"): ex.ZERO}) is ex.ZERO

    def test_param_to_variable(self):
        e = ex.mul(ex.const(2), ex.Param("a"))
        assert substitute(e, {ex.Param("a"): x}) == ex.mul(ex.const(2), x)

    def test_non_expressions_are_type_errors(self):
        a = ex.Param("a")
        with pytest.raises(TypeError, match="not an expression: 3"):
            substitute(ex.mul(a, y1), {a: 3})
        with pytest.raises(TypeError, match="not an expression: 'y'"):
            substitute("y", {})

    def test_empty_map_is_identity(self):
        e = ex.sub(ex.pow_(dy1, 2), ex.mul(ex.const(4), ex.pow_(y1, 3)))
        assert substitute(e, {}) == e

    def test_respects_evaluation(self, rng):
        from conftest import random_point, random_polynomial

        a = ex.Param("a")
        for _ in range(20):
            e = random_polynomial(rng, [X, Y(1), a])
            m = {a: random_polynomial(rng, [X, Y(1)])}
            point = random_point(rng, [X, Y(1)])
            inner = evaluate(m[a], dict(point))
            direct = evaluate(substitute(e, m), dict(point))
            extended = evaluate(e, {**point, a: inner})
            scale = max(abs(direct), abs(extended), 1.0)
            assert abs(direct - extended) <= 1e-12 * scale


def _reference_program(roots):
    """(steps, roots) of a plain recursive post-order from each root in
    turn, kids left to right, a node placed where it is first reached."""
    steps, step = [], {}

    def go(n):
        if n not in step:
            for k in n.kids:
                go(k)
            step[n] = len(steps)
            steps.append((n, tuple(step[k] for k in n.kids)))

    for r in roots:
        go(r)
    return steps, tuple(step[r] for r in roots)


# a DAG as a list of (op, picks): each op makes one node over earlier
# nodes, picked by index modulo the pool, so kids repeat (y + y) and nodes
# are shared; roots pick from the same pool, so a root can lie below another
_picks = st.lists(st.integers(0, 63), min_size=1, max_size=3)
_dag_ops = st.lists(st.tuples(st.sampled_from(["+", "*", "^", "exp"]), _picks), max_size=14)


@given(_dag_ops, _picks)
@example([("+", [1, 1]), ("*", [4, 1, 4])], [5, 4, 1])  # (y+y)*y*(y+y), then y + y and y below it
def test_program_steps_are_the_recursive_post_order(ops, picks):
    pool = [X, Y(1), YDot(1), Const(2)]
    for op, at in ops:
        kids = [pool[i % len(pool)] for i in at]
        if op == "+":
            pool.append(ex.add(*kids))
        elif op == "*":
            pool.append(ex.mul(*kids))
        elif op == "^":
            pool.append(Power(kids[0], 3))
        else:
            pool.append(Apply("exp", kids[0]))
    roots = tuple(pool[i % len(pool)] for i in picks)
    prog = ex.Program(roots)
    assert (prog.steps, prog.roots) == _reference_program(roots)


class TestProgramTable:
    def test_one_program_per_tuple_of_roots(self):
        a, b = parse_expr("y^2 + x"), parse_expr("exp(y) + x")
        prog = ex.program(a, b)
        assert ex.program(a, b) is prog and ex._programs[(a, b)] is prog
        assert ex.program(b, a) is not prog
        assert ex.program(a) is ex.program(a) is ex._programs[(a,)]
        assert [prog.steps[r][0] for r in prog.roots] == [a, b]

    def test_threads_sharing_the_table_get_equal_programs(self):
        # two threads may both make one entry's program; either copy is correct
        a = ex.Param("table_race")
        roots = [(ex.mul(ex.const(k), a), ex.add(ex.const(k), a)) for k in range(2, 3002)]
        results = ([], [], [], [])
        start = threading.Barrier(len(results))

        def work(out):
            start.wait(timeout=10)
            out.extend(ex.program(*r) for r in roots)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == len(roots) for out in results)
        for r, *progs in zip(roots, *results):
            want = ex.Program(r)
            assert all((p.steps, p.roots) == (want.steps, want.roots) for p in progs)
            assert ex._programs[r] in progs

    def test_node_count_reads_the_cached_program(self, monkeypatch):
        e = parse_expr("y^3 + 7*dy")
        assert ex.node_count(e) == len(ex.program(e).steps) == 6
        monkeypatch.setitem(ex._programs, (e,), ex.Program((X,)))
        assert ex.node_count(e) == 1

    def test_contains_fn_reads_the_nodes_and_makes_no_program(self, monkeypatch):
        e = parse_expr("y*sqrt(1 + exp(dy))")
        before = dict(ex._programs)
        assert ex.contains_fn(e, ("log", "sqrt")) and ex.contains_fn(e, ("exp",))
        assert not ex.contains_fn(e, ("log", "sin", "cos"))
        assert ex._programs == before
        monkeypatch.setitem(ex._programs, (e,), ex.Program((X,)))
        assert not ex.contains_fn(e, ("sqrt",))
        assert not hasattr(e, "fns")


class TestEvaluate:
    def test_square(self):
        assert evaluate(ex.pow_(x, 2), {X: 3}) == 9

    def test_division_by_zero(self):
        with pytest.raises(EvalSingular):
            evaluate(ex.quot(ex.ONE, x), {X: 0})

    def test_principal_sqrt(self):
        v = evaluate(ex.apply("sqrt", x), {X: -1})
        assert abs(v - 1j) < 1e-15

    def test_log_zero(self):
        with pytest.raises(EvalSingular):
            evaluate(ex.apply("log", x), {X: 0})

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalSingular):
            evaluate(ex.pow_(x, -2), {X: 0})

    @pytest.mark.parametrize("k", [2, 3])
    def test_negative_power_beyond_the_float_range_overflows(self, k):
        # complex v**-k raises ZeroDivisionError once v**k underflows to 0;
        # the value left the float range, as when v**-1 overflows
        ay = ex.mul(Param("a"), y1)
        point = {Param("a"): 1e-170, Y(1): 1}
        assert evaluate(ex.pow_(ay, -1), point) == pytest.approx(1e170)
        with pytest.raises(OverflowError):
            evaluate(ex.pow_(ay, -k), point)
        with pytest.raises(OverflowError):
            evaluate(ex.pow_(ay, -1), {Param("a"): 1e-320, Y(1): 1j})

    @pytest.mark.parametrize("text, at, other, error, message", [
        ("(a*y)^-2", 1, 1, OverflowError, "negative power outside the float range"),
        ("sin(2*exp(y))", 709.5, 1, OverflowError, "sin of a value outside the float range"),
        ("exp(y)^200", 5, 1, OverflowError, "power outside the float range"),
        ("exp(500*y)", 2, 1, OverflowError, "exp value outside the float range"),
        ("(y-2)^400", 8, 2, OverflowError, "power outside the float range"),
        ("(y-2)^-1", 2, 1, EvalSingular, "0 raised to a negative power"),
        ("log(y-2)", 2, 1, EvalSingular, "log(0)"),
        ("b*y", 1, 1, KeyError, "'no assignment for b'"),
    ], ids=["negative-power", "function", "power", "function-value", "zero-base-positive-power",
            "zero-to-a-negative-power", "log-zero", "missing-assignment"])
    def test_block_overflow_is_the_one_point_overflow(self, text, at, other, error, message):
        # a = 1e-170: (a*y)^2 underflows to 0; exp(709.5) doubles to inf, which
        # sin rejects; e^1000 overflows as exp(5)^200 and as exp(1000) itself;
        # 6^400 overflows in a block whose other point raises 0 to a positive
        # power, which is not singular; the block's other point is regular
        # unless it is that one
        prog = ex.program(parse_expr(text))
        point = {Param("a"): 1e-170 + 0j, Y(1): complex(at)}
        with pytest.raises(error, match=f"^{re.escape(message)}$") as one:
            ex.evaluate_block(prog, [point])
        with pytest.raises(error, match=f"^{re.escape(message)}$") as block:
            ex.evaluate_block(prog, [{Param("a"): 1 + 0j, Y(1): complex(other)}, point])
        if error is EvalSingular:
            assert one.value.subexpr is block.value.subexpr is parse_expr(text)

    def test_singular_error_names_subexpression(self):
        bad = ex.pow_(x, -1)
        e = ex.add(ex.mul(y1, bad), ex.ONE)
        with pytest.raises(EvalSingular) as err:
            evaluate(e, {X: 0, Y(1): 1})
        assert err.value.subexpr is bad

    @pytest.mark.parametrize("text", ["log(0*y)", "y/(y-y)", "log(0*y)/(y-y) + x",
                                      "x/(y-y) + log(0*y)", "(y/(y-y))/(y-y)"])
    def test_singular_error_names_a_singular_node_of_the_input(self, text):
        from odetorsion.parsing import parse_expr

        e = parse_expr(text)
        with pytest.raises(EvalSingular) as err:
            evaluate(e, {X: 1, Y(1): 2})
        bad = err.value.subexpr
        assert type(bad) in (Apply, Power) and any(n is bad for n in _nodes(e))
        for k in ex.children(bad):
            evaluate(k, {X: 1, Y(1): 2})  # its own step fails, not a child's

    def test_one_point_runs_on_the_one_point_loop(self, monkeypatch):
        # a root's value and scale as the one-point loop gives them: the sum
        # of its terms' magnitudes for a sum, its own magnitude otherwise
        def one_point(prog, point):
            consts = prog.constants()
            vals = ex._run(prog, lambda n: consts[n] if type(n) is Const else point[n], 0j, 1 + 0j)
            return [(vals[r], sum(abs(vals[k]) for k in prog.steps[r][1]) if type(prog.steps[r][0]) is Sum
                     else abs(vals[r])) for r in prog.roots]

        def refuse(prog, points):
            raise AssertionError("a lone point runs on _run")

        roots = [parse_expr(t) for t in ("x^2 - x*y + 1/3", "exp(y)*sqrt(x)", "sin(x)^2 + cos(x)^2 - 1", "log(-y)")]
        prog = ex.Program(roots)
        points = [{X: a, Y(1): b} for a in (0.5 - 1j, complex(-0.0, 0.0), 3 + 0j) for b in (1j, complex(-2, -0.0))]
        monkeypatch.setattr(ex, "_run_block", refuse)
        for point in points:
            assert repr(ex.evaluate_block(prog, [point])) == repr([one_point(prog, point)])
        assert ex.evaluate_block(ex.Program([]), [{}]) == [[]]  # no root: one empty row

    def test_cancellation_scale(self):
        e = ex.add(ex.pow_(x, 2), ex.mul(ex.const(-1), ex.pow_(x, 2)), ex.ONE)
        [[(value, scale)]] = ex.evaluate_block(ex.program(e), [{X: 10}])
        assert value == 1
        assert scale == pytest.approx(201.0)

    def test_missing_assignment(self):
        with pytest.raises(KeyError):
            evaluate(y1, {X: 1})

    def test_missing_assignment_on_the_exact_path_is_named(self):
        # as the complex runners name it, not as the bare variable
        e = ex.add(x, ex.pow_(y1, 2))
        with pytest.raises(KeyError, match="^'no assignment for y1'$"):
            evaluate_exact(e, {X: Fraction(1)})
        with pytest.raises(KeyError, match="^'no assignment for y1'$"):
            ex.exact_ratios(ex.program(e), {X: Fraction(1)})


class TestIsPolynomial:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("6*y^2", True),
            ("dy^2/y", False),
            ("exp(x)*y", False),
            ("x^3 + y1*dy1 - 1/2", True),
            ("y^-2", False),
            ("x/3", True),
            ("1/(y-y)", False),
        ],
    )
    def test_cases(self, text, expected):
        from odetorsion.parsing import parse_expr

        assert is_polynomial(parse_expr(text)) is expected

    def test_complex_constant_not_polynomial(self):
        assert not is_polynomial(ex.mul(ex.const(1j), y1))

    @pytest.mark.parametrize("e, poly", [(Product([Y(1), Power(Const(2), -1)]), True), (Power(Y(1), -1), False)],
                             ids=["y/2", "y^-1"])
    def test_quotient_and_negative_power(self, e, poly):
        # the constructors make y*2^-1 the product (1/2)*y; y^-1 stays a negative power
        assert is_polynomial(e) is poly
        assert type(e) is (Product if poly else Power)

    @pytest.mark.parametrize("text", ["1/(y-y)", "exp(y)", "1/y", "y^-2"])
    def test_evaluate_exact_rejects_non_polynomial(self, text):
        from odetorsion.parsing import parse_expr

        with pytest.raises(TypeError):
            evaluate_exact(parse_expr(text), {Y(1): Fraction(1, 2)})
