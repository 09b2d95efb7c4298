"""Hash-consed expression DAG over x, y^I, dy^I and named parameters.

Expressions are complex-analytic: rational constants, the variables of a
second-order ODE system, field operations, integer powers and the
functions exp, log, sin, cos, sqrt (principal branches).

Every node is canonical and interned when it is made: ``Const(v)``,
``Sum(terms)``, ``Product(factors)``, ``Power(base, k)`` and
``Apply(fn, arg)`` return what ``const``, ``add``, ``mul``, ``pow_`` and
``apply`` do, so ``Sum([y])`` is ``y``.  These canonicalize, deliberately
shallowly: nested sums/products are flattened, rational constants folded
exactly (a constant's power too, so a division by a nonzero constant is
a constant factor, and one by a constant zero raises
``ZeroDivisionError`` as ``0^-1`` does), units dropped and ``Power``
exponents of one collapsed.  Deciding whether an expression vanishes is
the zero oracle's job.  There is one division: ``quot(a, b)`` is
``a * b^-1``.  A node carries its own metadata: ``free`` (variables),
``poly`` (evaluable in integers: a polynomial over the rationals, with
no negative power) and ``fns`` (function names), equal sets shared.

Interning is key-first: a constructor works out the intern key of its
result and looks it up; only on a miss does it make the node, which
``_mk`` summarizes and inserts with its one ``setdefault``.  A node is
therefore unique: identity is structural equality, so nodes compare and
hash by identity (object's ``__eq__`` and ``__hash__``, in C), and every
map over nodes is keyed by the node itself.  A copy of a node is the
node, and unpickling rebuilds it through its constructor.  A rational
``Const`` also holds its lowest terms as the ints ``num`` and ``den``,
and its intern key is ``("q", num, den)``, so ``const`` looks an ``int``
or ``Fraction`` up, and ``add`` and ``mul`` fold rationals as integer
pairs, with no ``Fraction`` built or hashed unless the result is a new
constant.  Constants are folded only where two or more meet; once a
complex one is among them the fold runs over their values from the unit,
left to right (float rounding depends on the order).  A lone constant
operand is kept as the node it is, and ``neg`` multiplies by the shared
``MINUS_ONE``.  A variable is one ``Var`` node, interned under
``("v", kind, index, name)``; ``X``, ``Y(i)``, ``YDot(i)`` and
``Param(name)`` return it.  That node is at once an expression's leaf, a
member of ``free``, a key of a sample point and the variable
``partial`` and ``substitute`` take.

A program lists the distinct nodes of a tuple of roots in evaluation
order, a node shared between roots once.  Each root caches its own
program on first use; the oracle builds one over all the entries of a
matrix.  Every walk runs in program order, children before parents, so
none recurses on the nesting depth: ``evaluate`` and ``evaluate_roots``
(complex), ``exact_ratios`` and ``evaluate_exact`` (rational) and
``node_count`` run on cached programs, through one loop, and
``substitute`` and ``parsing.to_str`` on a program made for the call.  A
``poly`` program is evaluated exactly in integers over one common
denominator S: a step of degree d holds its value times S^d, so no step
builds or reduces a ``Fraction``.  Every other program runs in complex
floats only.  The step degrees and the complex values of the constants
are cached on the program.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

Number = Union[Fraction, complex]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


# ---------------------------------------------------------------------------
# Shared summaries

_EMPTY: frozenset = frozenset()
_sets: dict = {_EMPTY: _EMPTY}


def _shared(s: frozenset) -> frozenset:
    return _sets.setdefault(s, s)


def _union(sets: Iterable[frozenset]) -> frozenset:
    out = _EMPTY
    for s in sets:
        if s is not out and not s <= out:
            out = out | s if out else s
    return _shared(out)


# ---------------------------------------------------------------------------
# Nodes
#
# A node class's constructor returns the interned node; it defines no
# __init__, which Python would call on that node.  A node is never mutated
# once _mk interned it, except that _prog caches its program when needed.


class Expr:
    __slots__ = ("free", "poly", "fns", "_prog")

    def __reduce__(self):
        # the constructor rebuilds the interned node in any process
        return type(self), ((self.value,) if type(self) is Const else self._key()[1:])

    def __copy__(self, memo=None):
        return self  # immutable and interned

    __deepcopy__ = __copy__

    def __repr__(self):
        from .parsing import to_str

        try:
            return f"<Expr {to_str(self)}>"
        except Exception:
            return object.__repr__(self)


class Const(Expr):
    """A rational (exact) or complex (inexact) literal.

    ``value`` is a ``Fraction`` or a complex; a rational value's lowest
    terms are also kept as the ints ``num`` and ``den`` (den > 0), which
    fold and key the constant.  A complex constant has ``den`` 0.
    """

    __slots__ = ("value", "num", "den")

    def __new__(cls, value):
        return const(value)

    def _key(self):
        # Fraction(2) == complex(2) under ==, but keep exactness distinct.
        return ("q", self.num, self.den) if self.den else ("c", self.value)


class Var(Expr):
    """x, y^I, dy^I or a named parameter.

    ``Var(kind, index, name)`` returns the one node for its (kind, index,
    name), so the node an expression holds is the variable that ``free``,
    sample points and ``partial`` take.
    """

    __slots__ = ("kind", "index", "name")

    X = "x"
    Y = "y"
    YDOT = "dy"
    PARAM = "param"

    def __new__(cls, kind: str, index: int = 0, name: str = ""):
        node = _intern.get(key := ("v", kind, index, name))
        if node is None:
            if kind not in (Var.X, Var.Y, Var.YDOT, Var.PARAM):
                raise ValueError(f"unknown variable kind {kind!r}")
            if kind in (Var.Y, Var.YDOT) and index < 1:
                raise ValueError(f"{kind} index must be >= 1, got {index}")
            node = object.__new__(cls)
            node.kind, node.index, node.name = kind, index, name
            node = _mk(node, key, (), True, free=_shared(frozenset((node,))))
        return node

    def _key(self):
        return ("v", self.kind, self.index, self.name)

    def __str__(self):
        if self.kind == Var.X:
            return "x"
        if self.kind == Var.PARAM:
            return self.name
        return f"{self.kind}{self.index}"


class Sum(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: Iterable[Expr]):
        return add(*terms)

    def _key(self):
        return ("+", self.terms)


class Product(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[Expr]):
        return mul(*factors)

    def _key(self):
        return ("*", self.factors)


class Power(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        return pow_(base, exponent)

    def _key(self):
        return ("^", self.base, self.exponent)


class Apply(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        return apply(fn, arg)

    def _key(self):
        return ("f", self.fn, self.arg)


def _coerce_number(value) -> Number:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Decimal-point literals convert exactly (0.5 -> 1/2).
        return Fraction(value)
    if isinstance(value, complex):
        if not cmath.isfinite(value):
            # a fold that left the float range; no sample could test it
            raise OverflowError(f"constant {value} outside the float range")
        if value.imag == 0.0:
            return Fraction(value.real)
        return value
    raise TypeError(f"not a constant: {value!r}")


# ---------------------------------------------------------------------------
# Interning

_intern: dict = {}


def _mk(node: Expr, key: tuple, kids: tuple, poly: bool, fns: frozenset = _EMPTY, free=None) -> Expr:
    """The one way a node is made: summarize node, its own slots filled,
    and intern it under key.  One ``setdefault`` publishes the whole node,
    so two threads interning equal nodes get one node."""
    node.free = _union(k.free for k in kids) if free is None else free
    node.fns = _union([fns, *(k.fns for k in kids)])
    node.poly = poly
    node._prog = None
    return _intern.setdefault(key, node)


# ---------------------------------------------------------------------------
# Smart constructors (canonicalizing)


def const(value) -> Const:
    t = type(value)
    if t is int:
        key = ("q", value, 1)
    elif t is Fraction:
        key = ("q", value.numerator, value.denominator)
    else:
        value = _coerce_number(value)
        key = ("q", value.numerator, value.denominator) if type(value) is Fraction else ("c", value)
    node = _intern.get(key)
    if node is None:
        node = object.__new__(Const)
        node.value = _coerce_number(value)
        node.num, node.den = key[1:] if key[0] == "q" else (0, 0)
        node = _mk(node, key, (), node.den != 0)
    return node


def _rational(num: int, den: int) -> Const:
    """The constant num/den, for coprime num and den > 0; a Fraction is
    built only when the constant is new."""
    node = _intern.get(("q", num, den))
    return node if node is not None else const(Fraction(num, den))


ZERO = const(0)
ONE = const(1)
MINUS_ONE = const(-1)
X = Var(Var.X)


def Y(index: int) -> Var:
    return Var(Var.Y, index)


def YDot(index: int) -> Var:
    return Var(Var.YDOT, index)


def Param(name: str) -> Var:
    return Var(Var.PARAM, name=name)


def _to_complex(v: Number) -> complex:
    return complex(v) if isinstance(v, Fraction) else v


def _fold(consts: list, unit: int, op: Callable) -> Const:
    """The constant node of two or more constant operands under op (add or
    mul), folded from the unit, left to right.

    Rationals fold as (num, den) int pairs, reduced once at the end.  Once
    a complex constant is met the fold restarts as a loop over the values,
    in the same order, since complex rounding depends on it; there an
    integer is folded as an ``int``, which converts to complex exactly as
    its ``Fraction`` does.
    """
    num, den = unit, 1
    adding = op is operator.add
    for c in consts:
        d = c.den
        if not d:
            acc = unit
            for k in consts:
                acc = op(acc, k.num if k.den == 1 else k.value)
            return const(acc)
        if not adding:
            num *= c.num
            den *= d
        elif d == den:
            num += c.num
        else:
            num = num * d + c.num * den
            den *= d
    g = gcd(num, den)
    return _rational(num // g, den // g)


def add(*terms: Expr) -> Expr:
    """The canonical sum of terms."""
    flat: list[Expr] = []
    consts: list[Const] = []
    for t in terms:
        tt = type(t)
        if tt is Sum:
            # canonical: at most one Const, and it is the last term
            ts = t.terms
            if type(ts[-1]) is Const:
                flat.extend(ts[:-1])
                consts.append(ts[-1])
            else:
                flat.extend(ts)
        elif tt is Const:
            consts.append(t)
        else:
            flat.append(t)
    if consts:
        c = consts[0] if len(consts) == 1 else _fold(consts, 0, operator.add)
        if c is not ZERO:
            flat.append(c)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    node = _intern.get(key := ("+", tuple(flat)))
    if node is None:
        node = object.__new__(Sum)
        node.terms = ts = key[1]
        node = _mk(node, key, ts, all(t.poly for t in ts))
    return node


def mul(*factors: Expr) -> Expr:
    """The canonical product of factors."""
    flat: list[Expr] = []
    consts: list[Const] = []
    for f in factors:
        tf = type(f)
        if tf is Product:
            # canonical: at most one Const, and it is the first factor
            fs = f.factors
            if type(fs[0]) is Const:
                consts.append(fs[0])
                flat.extend(fs[1:])
            else:
                flat.extend(fs)
        elif tf is Const:
            consts.append(f)
        else:
            flat.append(f)
    if consts:
        c = consts[0] if len(consts) == 1 else _fold(consts, 1, operator.mul)
        if c is ZERO:
            return ZERO
        if c is not ONE:
            flat.insert(0, c)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    node = _intern.get(key := ("*", tuple(flat)))
    if node is None:
        node = object.__new__(Product)
        node.factors = fs = key[1]
        node = _mk(node, key, fs, all(f.poly for f in fs))
    return node


def neg(e: Expr) -> Expr:
    return mul(MINUS_ONE, e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def pow_(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if v == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        try:
            v = v ** exponent
        except (ZeroDivisionError, OverflowError):  # or v^-k where v^k underflowed
            raise OverflowError("constant power outside the float range") from None
        return const(v)
    if isinstance(base, Power):
        return pow_(base.base, base.exponent * exponent)
    node = _intern.get(key := ("^", base, exponent))
    if node is None:
        node = object.__new__(Power)
        node.base, node.exponent = base, exponent
        node = _mk(node, key, (base,), base.poly and exponent >= 0)
    return node


def quot(numerator: Expr, denominator: Expr) -> Expr:
    """numerator * denominator^-1; ZeroDivisionError for a constant zero."""
    return mul(numerator, pow_(denominator, -1))


def apply(fn: str, arg: Expr) -> Expr:
    node = _intern.get(key := ("f", fn, arg))
    if node is None:
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        node = object.__new__(Apply)
        node.fn, node.arg = fn, arg
        node = _mk(node, key, (arg,), False, _shared(frozenset((fn,))))
    return node


def build(e: Expr) -> Expr:
    """e: every node is canonical when made (``perfbench`` still wraps this name)."""
    return e


# ---------------------------------------------------------------------------
# Node summaries


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Apply):
        return (e.arg,)
    return ()


def free_vars(e: Expr) -> frozenset[Var]:
    return e.free


def contains_fn(e: Expr, fns: tuple[str, ...]) -> bool:
    return not e.fns.isdisjoint(fns)


def is_polynomial(e: Expr) -> bool:
    """True iff e is evaluable in integers: exact rational constants,
    variables, sums, products and non-negative powers only.

    A negative Power is never polynomial.  Canonically a division by a
    nonzero constant is a constant factor, so only a division by a
    non-constant, such as 1/y or 1/(y-y), is turned away for that.
    """
    return e.poly


def node_count(e: Expr) -> int:
    """Number of distinct nodes in the (shared) expression DAG: e's cached
    program's length, else a plain walk that caches nothing."""
    if e._prog is not None:
        return len(e._prog.steps)
    seen = {e}
    todo = [e]
    while todo:
        for k in children(todo.pop()):
            if k not in seen:
                seen.add(k)
                todo.append(k)
    return len(seen)


def substitute(e: Expr, mapping: Mapping[Var, Expr]) -> Expr:
    """Simultaneous substitution, canonicalized, over e's program.

    Subexpressions that mention no mapped variable are kept, and a root
    that is one is returned without a walk.
    """
    for n in (e, *mapping.values()):
        if not isinstance(n, Expr):
            raise TypeError(f"not an expression: {n!r}")
    if e.free.isdisjoint(mapping):
        return e
    out: list[Expr] = []
    for n, kids in Program((e,)).steps:
        if n.free.isdisjoint(mapping):  # every constant, and every unmapped variable
            new = n
        elif isinstance(n, Var):
            new = mapping[n]
        elif isinstance(n, Sum):
            new = add(*(out[k] for k in kids))
        elif isinstance(n, Product):
            new = mul(*(out[k] for k in kids))
        elif isinstance(n, Power):
            new = pow_(out[kids[0]], n.exponent)
        else:
            new = apply(n.fn, out[kids[0]])
        out.append(new)
    return out[-1]


# ---------------------------------------------------------------------------
# Evaluation


class EvalSingular(ArithmeticError):
    """0 to a negative power (a division by zero) or log(0) during eval;
    ``subexpr`` is the node whose step failed."""

    def __init__(self, message: str, subexpr: Expr):
        super().__init__(message)
        self.subexpr = subexpr


_CFUNCS: dict[str, Callable[[complex], complex]] = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sqrt": cmath.sqrt,
}


class Program:
    """The distinct nodes of a tuple of roots as steps (node, steps of its
    children()), and the step of each root.

    Depth-first post-order from each root in turn, so a node shared
    between roots is one step.  Evaluation stops at the first step that
    is singular.
    """

    __slots__ = ("steps", "roots", "_degs", "_consts")

    def __init__(self, roots: Iterable[Expr]):
        roots = tuple(roots)
        steps: list = []
        step: dict[Expr, int] = {}
        for root in roots:
            stack = [root]
            while stack:
                n = stack[-1]
                if n in step:
                    stack.pop()
                    continue
                kids = children(n)
                todo = [k for k in kids if k not in step]
                if todo:
                    stack.extend(reversed(todo))
                    continue
                stack.pop()
                step[n] = len(steps)
                steps.append((n, tuple(step[k] for k in kids)))
        self.steps = steps
        self.roots = tuple(step[r] for r in roots)
        self._degs = self._consts = None

    def degrees(self) -> tuple[list, list, int]:
        """(each step's degree with constants at 1, each step's degree,
        lcm of the constant denominators) of a ``poly`` program; TypeError
        at a step that is not.

        A variable has degree 1 and a constant 0, or 1 in the first list,
        which gives the power of S that a step's integer value carries; a
        product has the sum of its children's degrees, a sum their maximum
        and a power e times its base's.
        """
        if self._degs is None:
            degs: list = []
            true: list = []
            den = 1
            for n, kids in self.steps:
                t = type(n)
                if t is Const and n.den:
                    den = lcm(den, n.den)
                    d, e = 1, 0
                elif t is Var:
                    d = e = 1
                elif t is Sum:
                    d = max((degs[k] for k in kids), default=0)
                    e = max((true[k] for k in kids), default=0)
                elif t is Product:
                    d = sum(degs[k] for k in kids)
                    e = sum(true[k] for k in kids)
                elif t is Power and n.exponent >= 0:
                    d = n.exponent * degs[kids[0]]
                    e = n.exponent * true[kids[0]]
                else:
                    raise TypeError(f"not evaluable in integers: {n!r}")
                degs.append(d)
                true.append(e)
            self._degs = (degs, true, den)
        return self._degs

    def constants(self) -> dict[Const, complex]:
        """The complex value of each constant step, by its node."""
        if self._consts is None:
            self._consts = {n: _to_complex(n.value) for n, _ in self.steps if type(n) is Const}
        return self._consts


def program(e: Expr) -> Program:
    """e's own program, made on first use and cached on e."""
    prog = e._prog
    if prog is None:
        prog = e._prog = Program((e,))
    return prog


def batch(roots: Sequence[Expr]) -> Program:
    """One program over roots: a single root's cached one, else a new one."""
    return program(roots[0]) if len(roots) == 1 else Program(roots)


def _run(prog: Program, leaf: Callable[[Expr], Number], zero: Number, one: Number,
         degs: Union[list, None] = None, scale: int = 1) -> list:
    """Every step's value, in program order.

    Without step degrees the values are complex.  With step degrees
    ``degs`` (constants at 1, from ``Program.degrees``) the leaves are
    integers, each value times ``scale``, and a sum brings each term up
    to its own degree, so every step holds its value times scale^degree.
    """
    vals: list = []
    push = vals.append
    for n, kids in prog.steps:
        t = type(n)
        if t is Product:
            v = one
            for k in kids:
                v *= vals[k]
        elif t is Sum:
            v = zero
            if degs is None:
                for k in kids:
                    v += vals[k]
            else:
                d = degs[len(vals)]
                for k in kids:
                    gap = d - degs[k]
                    v += vals[k] * scale ** gap if gap else vals[k]
        elif t is Power:
            v = vals[kids[0]]
            if v == 0 and n.exponent < 0:
                raise EvalSingular("0 raised to a negative power", n)
            try:
                v = v ** n.exponent
            except ZeroDivisionError:
                # v^-k where v^k underflowed to 0: the value left the float range
                raise OverflowError("negative power outside the float range") from None
        elif t is Apply:
            v = vals[kids[0]]
            if v == 0 and n.fn == "log":
                raise EvalSingular("log(0)", n)
            v = _CFUNCS[n.fn](v)
        else:
            v = leaf(n)
        push(v)
    return vals


def evaluate_roots(prog: Program, assignment: Mapping[Var, complex]) -> list[tuple[complex, float]]:
    """Each root's complex value and cancellation scale: the sum of its
    terms' magnitudes for a sum, its own magnitude otherwise."""
    consts = prog.constants()

    def leaf(n: Expr) -> complex:
        if type(n) is Const:
            return consts[n]
        try:
            return assignment[n]
        except KeyError:
            raise KeyError(f"no assignment for {n}") from None

    vals = _run(prog, leaf, 0j, 1 + 0j)
    out = []
    for r in prog.roots:
        n, kids = prog.steps[r]
        v = vals[r]
        out.append((v, sum(abs(vals[k]) for k in kids) if type(n) is Sum else abs(v)))
    return out


def evaluate(e: Expr, assignment: Mapping[Var, Number]) -> complex:
    """Evaluate with standard complex arithmetic, each assigned value taken
    as a complex; principal branches."""
    ((value, _),) = evaluate_roots(program(e), {k: complex(v) for k, v in assignment.items()})
    return value


def exact_ratios(prog: Program, assignment: Mapping[Var, Fraction]) -> list[tuple[int, int]]:
    """Each root's (N, D), D > 0 and not reduced, with exact value N / D,
    for a ``poly`` program (TypeError otherwise).

    The program runs in integers over S, the lcm of its constant
    denominators and the assigned values' denominators: D is S^d for a
    root of degree d.
    """
    degs, _, den = prog.degrees()
    s = lcm(den, *(v.denominator for v in assignment.values()))

    def scaled(n: Expr) -> int:
        if type(n) is Const:
            return n.num * (s // n.den)
        v = assignment[n]
        return v.numerator * (s // v.denominator)

    vals = _run(prog, scaled, 0, 1, degs, s)
    return [(vals[r], s ** degs[r]) for r in prog.roots]


def evaluate_exact(e: Expr, assignment: Mapping[Var, Fraction]) -> Fraction:
    """Exact rational evaluation; TypeError unless is_polynomial(e)."""
    ((num, den),) = exact_ratios(program(e), assignment)
    return Fraction(num, den)
