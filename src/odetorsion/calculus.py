"""Symbolic partial derivatives and the on-solutions total derivative.

The total derivative d/dx of g(x, y, dy) along a system with right-hand
sides f^I is

    dg/dx = dg/dx|_partial + sum_I dg/dy^I * dy^I + sum_I dg/ddy^I * f^I

which is the only derivative operator the torsion constructions need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import expr as ex
from .expr import ZERO, Apply, Expr, Power, Product, Sum, Var

_HALF = ex.const(Fraction(1, 2))

# Partial derivatives are memoized across calls.  Every node is interned
# and immutable, and the intern table keeps it alive, so no id() in a key
# is reused and the cache is sound for the process lifetime.
_partial_cache: dict[tuple[int, Var], Expr] = {}


def partial(e: Expr, v: Var) -> Expr:
    """Exact symbolic partial derivative, canonicalized.

    The unmemoized nodes under e that mention v are differentiated children first, on a
    stack: a node with a child missing from the memo goes back on, then a None marker,
    then those children, and is retried when the marker comes off."""
    if v not in e.free:
        # every rule below gives ZERO here; skip the walk and the memo
        return ZERO
    memo = _partial_cache
    got = memo.get((id(e), v))
    if got is not None:
        return got
    stack = [e]
    while stack:
        n = stack.pop()
        if n is None:
            n = stack.pop()  # its children's partials are in the memo now
        elif (id(n), v) in memo:
            continue
        t = type(n)
        ds, waiting = [], False  # the children's partials, None where missing
        for k in ex.children(n):
            d = memo.get((id(k), v)) if v in k.free else ZERO
            if d is None:
                if not waiting:
                    stack += (n, None)
                    waiting = True
                stack.append(k)
            ds.append(d)
        if waiting:
            continue
        if t is Var:
            out = ex.ONE
        elif t is Sum:
            out = ex.add(*ds)
        elif t is Product:
            fs = n.factors
            out = ex.add(*[ex.mul(*fs[:i], d, *fs[i + 1 :]) for i, d in enumerate(ds) if d is not ZERO])
        elif t is Power:
            out = ex.mul(ex.const(n.exponent), ex.pow_(n.base, n.exponent - 1), ds[0])
        elif n.fn == "exp":  # an Apply; a Const mentions no variable
            out = ex.mul(n, ds[0])
        elif n.fn == "log":
            out = ex.mul(ds[0], ex.pow_(n.arg, -1))
        elif n.fn == "sin":
            out = ex.mul(ex.apply("cos", n.arg), ds[0])
        elif n.fn == "cos":
            out = ex.neg(ex.mul(ex.apply("sin", n.arg), ds[0]))
        else:  # sqrt
            out = ex.mul(_HALF, ds[0], ex.pow_(n, -1))
        memo[(id(n), v)] = out
    return memo[(id(e), v)]


def nth_partial(e: Expr, vars: Iterable[Var]) -> Expr:
    out = e
    for v in vars:
        out = partial(out, v)
    return out


def total_derivative(g: Expr, sys) -> Expr:
    """d/dx along solutions of sys (an OdeSystem)."""
    terms = [partial(g, ex.X)]
    for i in range(1, sys.n + 1):
        terms.append(ex.mul(partial(g, ex.Y(i)), ex.YDot(i)))
        terms.append(ex.mul(partial(g, ex.YDot(i)), sys.rhs[i - 1]))
    return ex.add(*terms)
