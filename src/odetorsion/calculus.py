"""Symbolic partial derivatives and the on-solutions total derivative.

The total derivative d/dx of g(x, y, dy) along a system with right-hand
sides f^I is

    dg/dx = dg/dx|_partial + sum_I dg/dy^I * dy^I + sum_I dg/ddy^I * f^I

which is the only derivative operator the torsion constructions need.
Its sums run over the variables g contains: a partial along a variable
outside ``g.free`` is ZERO, a ZERO factor makes ``mul`` return ZERO and
a ZERO term is a zero constant that ``add`` folds away, so leaving those
terms out builds the node the full sum of 2n + 1 terms builds.

``partials(e, vs, k)`` takes e's k-th partials along every nondecreasing
k-tuple of vs, each prefix once, and knows a whole subtree of them is
ZERO when the prefix's partial is; the quartic check takes its fourth
dy-partials with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from . import expr as ex
from .expr import ZERO, Apply, Expr, Power, Product, Sum, Var

_HALF = ex.const(Fraction(1, 2))

# Partial derivatives are memoized across calls.  Every node is interned
# and immutable, and the intern table keeps it alive, so no id() in a key
# is reused and the cache is sound for the process lifetime.  The key stays
# (id(node), var), not (node, var): perfbench's tracer tests membership by
# that key, so the two change together (ROADMAP item 4's benchmark change).
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
        for k in n.kids:
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
            fs = n.kids
            out = ex.add(*[ex.mul(*fs[:i], d, *fs[i + 1 :]) for i, d in enumerate(ds) if d is not ZERO])
        elif t is Power:
            out = ex.mul(ex.const(n.exponent), ex.pow_(n.kids[0], n.exponent - 1), ds[0])
        elif n.fn == "exp":  # an Apply; a Const mentions no variable
            out = ex.mul(n, ds[0])
        elif n.fn == "log":
            out = ex.mul(ds[0], ex.pow_(n.kids[0], -1))
        elif n.fn == "sin":
            out = ex.mul(ex.apply("cos", n.kids[0]), ds[0])
        elif n.fn == "cos":
            out = ex.neg(ex.mul(ex.apply("sin", n.kids[0]), ds[0]))
        else:  # sqrt
            out = ex.mul(_HALF, ds[0], ex.pow_(n, -1))
        memo[(id(n), v)] = out
    return memo[(id(e), v)]


def nth_partial(e: Expr, vars: Iterable[Var]) -> Expr:
    out = e
    for v in vars:
        out = partial(out, v)
    return out


def partials(e: Expr, vs: Sequence[Var], k: int) -> list[Expr]:
    """e's k-th partials along every nondecreasing k-tuple of vs, in
    ``combinations_with_replacement(vs, k)`` order: the list
    ``[nth_partial(e, c) for c in combinations_with_replacement(vs, k)]``.

    The tuples are walked as a prefix tree, each prefix's partial taken once.
    A prefix whose partial is ZERO has ZERO below it: with m variables left
    (its last one and those after it) and j orders to go, its C(m+j-1, j)
    entries are filled with ZERO without a call."""
    out: list[Expr] = []

    def walk(g: Expr, start: int, j: int) -> None:
        if j == 0:
            out.append(g)
            return
        for i in range(start, len(vs)):
            d = partial(g, vs[i])
            if d is ZERO:  # m = len(vs) - i variables left, j - 1 orders to go
                out.extend([ZERO] * comb(len(vs) - i + j - 2, j - 1))
            else:
                walk(d, i, j - 1)

    walk(e, 0, k)
    return out


def total_derivative(g: Expr, sys) -> Expr:
    """d/dx along solutions of sys (an OdeSystem).

    The y^I and dy^I terms are added only for the variables g contains;
    any other term is ZERO, which ``add`` would fold away, so the node
    built is the one the full sum builds."""
    free = g.free
    terms = [partial(g, ex.X)]
    for i, f in enumerate(sys.rhs, start=1):
        y, dy = ex.Y(i), ex.YDot(i)
        if y in free:
            terms.append(ex.mul(partial(g, y), dy))
        if dy in free:
            terms.append(ex.mul(partial(g, dy), f))
    return ex.add(*terms)
