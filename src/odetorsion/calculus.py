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
from .expr import Expr, VarRef

_HALF = ex.const(Fraction(1, 2))

# Partial derivatives are memoized across calls; expressions are interned
# and immutable, so the cache is sound for the process lifetime.
_partial_cache: dict[tuple[int, VarRef], Expr] = {}
_cache_pins: dict[int, Expr] = {}  # keep cached keys' id()s stable


def partial(e: Expr, v: VarRef) -> Expr:
    """Exact symbolic partial derivative, canonicalized."""
    if v not in e.free:
        # every rule below gives ZERO here; skip the walk and the memo
        return ex.ZERO
    key = (id(e), v)
    got = _partial_cache.get(key)
    if got is not None:
        return got

    if isinstance(e, ex.Const):
        out = ex.ZERO
    elif isinstance(e, ex.Var):
        out = ex.ONE if e.ref == v else ex.ZERO
    elif isinstance(e, ex.Sum):
        out = ex.add(*(partial(t, v) for t in e.terms))
    elif isinstance(e, ex.Product):
        terms = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = partial(f, v)
            if df is ex.ZERO:
                continue
            terms.append(ex.mul(*fs[:i], df, *fs[i + 1 :]))
        out = ex.add(*terms)
    elif isinstance(e, ex.Power):
        db = partial(e.base, v)
        out = ex.mul(ex.const(e.exponent), ex.pow_(e.base, e.exponent - 1), db)
    elif isinstance(e, ex.Apply):
        da = partial(e.arg, v)
        if e.fn == "exp":
            out = ex.mul(e, da)
        elif e.fn == "log":
            out = ex.mul(da, ex.pow_(e.arg, -1))
        elif e.fn == "sin":
            out = ex.mul(ex.apply("cos", e.arg), da)
        elif e.fn == "cos":
            out = ex.neg(ex.mul(ex.apply("sin", e.arg), da))
        else:  # sqrt
            out = ex.mul(_HALF, da, ex.pow_(e, -1))
    else:
        raise TypeError(f"not an expression: {e!r}")

    _partial_cache[key] = out
    _cache_pins[id(e)] = e
    return out


def nth_partial(e: Expr, vars: Iterable[VarRef]) -> Expr:
    out = e
    for v in vars:
        out = partial(out, v)
    return out


def total_derivative(g: Expr, sys) -> Expr:
    """d/dx along solutions of sys (an OdeSystem)."""
    terms = [partial(g, ex.X)]
    for i in range(1, sys.n + 1):
        terms.append(ex.mul(partial(g, ex.Y(i)), ex.var(ex.YDot(i))))
        terms.append(ex.mul(partial(g, ex.YDot(i)), sys.rhs[i - 1]))
    return ex.add(*terms)
