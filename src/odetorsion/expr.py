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
``a * b^-1``.  A node's operands are held in one slot, the tuple
``kids`` (empty for a ``Const`` or a ``Var``); ``Power.base`` and
``Apply.arg`` read ``kids[0]``.  A node carries its own metadata:
``free`` (variables, equal sets shared) and ``poly`` (evaluable in
integers: a polynomial over the rationals, with no negative power).
Which functions an expression applies is not stored: ``contains_fn``
reads it off the root's distinct nodes as ``node_count`` counts them, a
walk made only when the oracle asks whether a verdict is branch-limited.

Interning is key-first: a constructor works out the intern key of its
result and looks it up; only on a miss does it make the node, which
``_mk`` summarizes and inserts with its one ``setdefault``.  A node is
therefore unique: identity is structural equality, so nodes compare and
hash by identity (object's ``__eq__`` and ``__hash__``, in C), and every
map over nodes is keyed by the node itself.  A copy of a node is the
node, and a node pickles as its program's steps.  ``_remake`` makes a
node again from its class, what it holds besides its operands (``_own``)
and new operands, through the constructors; unpickling and
``substitute`` both remake nodes with it.  A rational
``Const`` also holds its lowest terms as the ints ``num`` and ``den``,
and its intern key is ``("q", num, den)``, so ``const`` looks an ``int``
or ``Fraction`` up, and ``add`` and ``mul`` fold rationals as integer
pairs, with no ``Fraction`` built or hashed unless the result is a new
constant.  So does ``pow_``: a nonzero rational to the power k is
(num^k, den^k), the pair swapped and its sign moved to the numerator for
k < 0, which is how the parser's division by a constant folds.
Constants are folded only where two or more meet; once a complex one is
among them the fold runs over their values from the unit, left to right
(float rounding depends on the order).  A fold or power
that leaves the float range, or underflows to 0, raises ``OverflowError``,
as ``Program.constants`` does for such a rational.  A lone constant operand
is kept as the node it is, and ``neg`` multiplies by the shared
``MINUS_ONE``.  A variable is one ``Var`` node, interned under
``("v", kind, index, name)``; ``X``, ``Y(i)``, ``YDot(i)`` and
``Param(name)`` return it.  That node is at once an expression's leaf, a
member of ``free``, a key of a sample point and the variable
``partial`` and ``substitute`` take.

A program lists the distinct nodes of a tuple of roots in evaluation
order, a node shared between roots once.  There is one program table:
``program(*roots)`` makes the program of a tuple of roots on first use
and keeps it in ``_programs``, keyed by that tuple, whether it is one
root's or the oracle's over all the entries of a matrix.  Every walk runs
in program order, children before parents, so none recurses on the
nesting depth: ``evaluate`` and ``evaluate_roots`` (complex),
``exact_ratios`` and ``evaluate_exact`` (rational) and ``node_count`` run
on programs from the table, and ``substitute``, pickling and
``parsing.to_str`` on a program made for the call.  The evaluators at
one point share one loop, ``_run``.  ``evaluate_block`` runs a complex
program at many points in one pass, ``_run_block``: each step's value
is a list over the points, so a step's type is looked at once per
block, not once per point, and each value is bit for bit the one
``_run`` gives at its point.  A sum or a product folds each operand
across the block with one ``map``, from the unit (0j or 1 + 0j) and left
to right as ``_run`` does; the unit stays because it can change a sign of
zero (0j + (-0.0-0j) is 0j), and a sign of zero picks the branch of
``sqrt`` and ``log``.  The one-point loop stays, because a block
of one point runs 3-4 times slower than it: the oracle decides its
first point, and any point where a block fails, on it, and it is the
reference the block runner is tested against.  Both runners only
compute, in one ``try`` around the step loop; ``_failure`` judges a
failing step, zero test included: Python raises on 0^-k and log(0), so
no step is tested for zero before it runs.  A
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
# once _mk interned it.


class Expr:
    __slots__ = ("kids", "free", "poly")

    def __reduce__(self):
        # flat steps, so neither pickling nor unpickling recurses on depth
        return _rebuild, (tuple((type(n), _own(n), kids) for n, kids in Program((self,)).steps),)

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

    def __str__(self):
        if self.kind == Var.X:
            return "x"
        if self.kind == Var.PARAM:
            return self.name
        return f"{self.kind}{self.index}"


class Sum(Expr):
    __slots__ = ()

    def __new__(cls, terms: Iterable[Expr]):
        return add(*terms)


class Product(Expr):
    __slots__ = ()

    def __new__(cls, factors: Iterable[Expr]):
        return mul(*factors)


class Power(Expr):
    __slots__ = ("exponent",)

    def __new__(cls, base: Expr, exponent: int):
        return pow_(base, exponent)

    @property
    def base(self) -> Expr:
        return self.kids[0]


class Apply(Expr):
    __slots__ = ("fn",)

    def __new__(cls, fn: str, arg: Expr):
        return apply(fn, arg)

    @property
    def arg(self) -> Expr:
        return self.kids[0]


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


def _mk(node: Expr, key: tuple, kids: tuple, poly: bool, free=None) -> Expr:
    """The one way a node is made: store kids, summarize node, its own
    slots filled, and intern it under key.  One ``setdefault`` publishes
    the whole node, so two threads interning equal nodes get one node."""
    node.kids = kids
    node.free = _union(k.free for k in kids) if free is None else free
    node.poly = poly
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
            if not acc and not adding and ZERO not in consts:
                raise OverflowError("constant product outside the float range")  # it underflowed
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
            ts = t.kids
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
        node = _mk(object.__new__(Sum), key, key[1], all(t.poly for t in flat))
    return node


def mul(*factors: Expr) -> Expr:
    """The canonical product of factors."""
    flat: list[Expr] = []
    consts: list[Const] = []
    for f in factors:
        tf = type(f)
        if tf is Product:
            # canonical: at most one Const, and it is the first factor
            fs = f.kids
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
        node = _mk(object.__new__(Product), key, key[1], all(f.poly for f in flat))
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
        num, den = base.num, base.den
        if den:  # rational: raised as an int pair, which stays coprime
            if exponent < 0:
                if not num:
                    raise ZeroDivisionError("0 raised to a negative power")
                num, den, exponent = (den, num, -exponent) if num > 0 else (-den, -num, -exponent)
            return _rational(num ** exponent, den ** exponent)
        v = base.value
        if v == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        try:
            p = v ** exponent
        except (ZeroDivisionError, OverflowError):  # or v^-k where v^k underflowed
            p = 0
        if v and not p:  # the power overflowed, or underflowed to 0
            raise OverflowError("constant power outside the float range")
        return const(p)
    if isinstance(base, Power):
        return pow_(base.kids[0], base.exponent * exponent)
    node = _intern.get(key := ("^", base, exponent))
    if node is None:
        node = object.__new__(Power)
        node.exponent = exponent
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
        node.fn = fn
        node = _mk(node, key, (arg,), False)
    return node


def build(e: Expr) -> Expr:
    """e: every node is canonical when made (``perfbench`` still wraps this name)."""
    return e


# ---------------------------------------------------------------------------
# Node summaries


def children(e: Expr) -> tuple[Expr, ...]:
    return e.kids


def free_vars(e: Expr) -> frozenset[Var]:
    return e.free


def contains_fn(e: Expr, fns: tuple[str, ...]) -> bool:
    """True iff some node of e applies one of the functions fns, read off
    e's distinct nodes as ``node_count`` reads them."""
    return not {n.fn for n in _nodes(e) if type(n) is Apply}.isdisjoint(fns)


def is_polynomial(e: Expr) -> bool:
    """True iff e is evaluable in integers: exact rational constants,
    variables, sums, products and non-negative powers only.

    A negative Power is never polynomial.  Canonically a division by a
    nonzero constant is a constant factor, so only a division by a
    non-constant, such as 1/y or 1/(y-y), is turned away for that.
    """
    return e.poly


def node_count(e: Expr) -> int:
    """Number of distinct nodes in the (shared) expression DAG."""
    return len(_nodes(e))


def _nodes(e: Expr) -> list[Expr] | set[Expr]:
    """e's distinct nodes: the steps of its program in the table, else a
    plain walk that caches nothing, so no program is made for the call."""
    prog = _programs.get((e,))
    if prog is not None:
        return [n for n, _ in prog.steps]
    seen = {e}
    todo = [e]
    while todo:
        for k in todo.pop().kids:
            if k not in seen:
                seen.add(k)
                todo.append(k)
    return seen


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
        elif n in mapping:
            new = mapping[n]
        else:
            new = _remake(type(n), _own(n), [out[k] for k in kids])
        out.append(new)
    return out[-1]


def _own(n: Expr):
    """What n holds besides its children: a constant's value, a variable's
    fields, a power's exponent, a function's name, or None."""
    t = type(n)
    if t is Const or t is Var:
        return n.value if t is Const else (n.kind, n.index, n.name)
    return n.exponent if t is Power else n.fn if t is Apply else None


def _remake(cls: type, own, kids: list) -> Expr:
    """The node of class cls with ``_own`` data own and operands kids,
    made through its constructor: canonical and interned."""
    if cls is Sum or cls is Product:
        return add(*kids) if cls is Sum else mul(*kids)
    if cls is Power or cls is Apply:
        return pow_(kids[0], own) if cls is Power else apply(own, kids[0])
    return const(own) if cls is Const else Var(*own)


def _rebuild(steps: tuple) -> Expr:
    """The node whose program steps are (class, ``_own``, child steps),
    remade in order: the interned node, in any process."""
    out: list[Expr] = []
    for cls, own, kids in steps:
        out.append(_remake(cls, own, [out[k] for k in kids]))
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
    kids), and the step of each root.

    Depth-first post-order from each root in turn, kids left to right,
    so a node shared between roots is one step, made where it is first
    reached.  Evaluation stops at the first step that is singular.

    One pass over a stack: a node with kids and no step yet goes back on
    it under a ``None`` marker and its kids, and takes its step when the
    marker comes off, after every kid has one.
    """

    __slots__ = ("steps", "roots", "_degs", "_consts")

    def __init__(self, roots: Iterable[Expr]):
        roots = tuple(roots)
        steps: list = []
        step: dict[Expr, int] = {}
        stack = list(reversed(roots))
        pop, push = stack.pop, stack.extend
        while stack:
            n = pop()
            if n is None:
                n = pop()
            elif n in step:
                continue
            elif n.kids:
                push((n, None))
                push(reversed(n.kids))
                continue
            step[n] = len(steps)
            steps.append((n, tuple(map(step.__getitem__, n.kids))))
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
        """The complex value of each constant step, by its node;
        OverflowError for one outside the float range, or nonzero and
        converted to 0."""
        if self._consts is None:
            try:
                consts = {n: complex(n.value) for n, _ in self.steps if type(n) is Const}
                if any(n.num and not v for n, v in consts.items()):
                    raise OverflowError  # it underflowed to 0
            except OverflowError:
                raise OverflowError("constant outside the float range") from None
            self._consts = consts
        return self._consts


_programs: dict = {}  # tuple of roots -> their Program


def program(*roots: Expr) -> Program:
    """The one program over roots, made on first use and kept in
    ``_programs``; two threads that both make it get equal programs."""
    prog = _programs.get(roots)
    if prog is None:
        prog = _programs[roots] = Program(roots)
    return prog


def _run(prog: Program, leaf: Callable[[Expr], Number], zero: Number, one: Number,
         degs: Union[list, None] = None, scale: int = 1) -> list:
    """Every step's value, in program order.

    Without step degrees the values are complex.  With step degrees
    ``degs`` (constants at 1, from ``Program.degrees``) the leaves are
    integers, each value times ``scale``, and a sum brings each term up
    to its own degree, so every step holds its value times scale^degree.
    A step that fails raises what ``_failure`` makes of it.
    """
    vals: list = []
    push = vals.append
    try:
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
                v = vals[kids[0]] ** n.exponent
            elif t is Apply:
                v = _CFUNCS[n.fn](vals[kids[0]])
            else:
                v = leaf(n)
            push(v)
    except (ZeroDivisionError, OverflowError, ValueError, KeyError) as err:
        raise _failure(n, err, vals[kids[0]] if kids else None) from None
    return vals


def _failure(n: Expr, err: Exception, operand) -> Exception:
    """What step n raises when it raised err, its operand's value being
    operand (a list over a block's points): a missing variable, a singular
    step (0^-k, log(0)) or a value outside the float range, such as a
    negative power whose positive power underflowed, or a function of the
    infinity that only a sum or a product overflowing silently makes."""
    if type(err) is KeyError:
        return KeyError(f"no assignment for {n}")
    zero = 0 in operand if type(operand) is list else operand == 0
    if type(n) is Power:
        if zero and n.exponent < 0:
            return EvalSingular("0 raised to a negative power", n)
        what = "negative power" if type(err) is ZeroDivisionError else "power"
    else:
        if zero and n.fn == "log":
            return EvalSingular("log(0)", n)
        what = f"{n.fn} of a value" if type(err) is ValueError else f"{n.fn} value"
    return OverflowError(f"{what} outside the float range")


def evaluate_roots(prog: Program, assignment: Mapping[Var, complex]) -> list[tuple[complex, float]]:
    """Each root's complex value and cancellation scale: the sum of its
    terms' magnitudes for a sum, its own magnitude otherwise."""
    consts = prog.constants()

    def leaf(n: Expr) -> complex:
        return consts[n] if type(n) is Const else assignment[n]

    vals = _run(prog, leaf, 0j, 1 + 0j)
    out = []
    for r in prog.roots:
        n, kids = prog.steps[r]
        v = vals[r]
        out.append((v, sum(abs(vals[k]) for k in kids) if type(n) is Sum else abs(v)))
    return out


_CHAIN = 256  # maps chained before a fold is made a list: each link is a C stack frame


def _run_block(prog: Program, points: Sequence[Mapping[Var, complex]]) -> list[list]:
    """Every step's complex values at each of points, in program order:
    one pass over the steps, each step's value a list over the points.

    Each value is bit-identical to ``_run``'s at that point: a sum or a
    product folds each operand across the block with one ``map`` of
    ``operator.add`` or ``operator.mul``, from 0j or 1 + 0j and left to
    right, and a power or a function is the same call.  The unit is kept
    because a sign of zero picks the branch of ``sqrt`` and ``log``, and
    0j + (-0.0-0j) is 0j.  The maps chain lazily, ``_CHAIN`` operands at
    a time.  A step that fails at any point raises what ``_failure``
    makes of it, for the whole block.
    """
    consts = prog.constants()
    ones, zeros = [1 + 0j] * len(points), [0j] * len(points)
    vals: list = []
    push = vals.append
    try:
        for n, kids in prog.steps:
            t = type(n)
            if t is Product or t is Sum:
                v, op = (ones, operator.mul) if t is Product else (zeros, operator.add)
                for at in range(0, len(kids), _CHAIN):
                    for k in kids[at:at + _CHAIN]:
                        v = map(op, v, vals[k])
                    v = list(v)
            elif t is Power:
                k = n.exponent
                v = [p ** k for p in vals[kids[0]]]
            elif t is Apply:
                v = list(map(_CFUNCS[n.fn], vals[kids[0]]))
            elif t is Const:
                v = [consts[n]] * len(points)
            else:
                v = [p[n] for p in points]
            push(v)
    except (ZeroDivisionError, OverflowError, ValueError, KeyError) as err:
        raise _failure(n, err, vals[kids[0]] if kids else None) from None
    return vals


def evaluate_block(prog: Program, points: Sequence[Mapping[Var, complex]]) -> list[list[tuple[complex, float]]]:
    """``evaluate_roots`` at each of points, in one pass over the program;
    raises where it would raise at any of them."""
    vals = _run_block(prog, points)
    out = []
    for r in prog.roots:
        n, kids = prog.steps[r]
        v = vals[r]
        if type(n) is Sum:
            # builtin sum, as in evaluate_roots: from 3.12 it compensates a
            # float sum, so a left-to-right fold would round differently
            out.append(zip(v, [sum(map(abs, c)) for c in zip(*[vals[k] for k in kids])]))
        else:
            out.append(zip(v, map(abs, v)))
    return [list(at) for at in zip(*out)]


def evaluate(e: Expr, assignment: Mapping[Var, Number]) -> complex:
    """Evaluate with standard complex arithmetic, each assigned value taken
    as a complex; principal branches."""
    ((value, _),) = evaluate_roots(program(e), {k: complex(v) for k, v in assignment.items()})
    return value


def exact_ratios(prog: Program, assignment: Mapping[Var, Fraction]) -> tuple[list[int], int]:
    """(each root's N, S) for a ``poly`` program (TypeError otherwise): a
    root of degree d, its entry in the first list of ``degrees``, has the
    exact value N / S^d, not reduced.

    The program runs in integers over S, the lcm of its constant
    denominators and the assigned values' denominators.  On the oracle's
    grid a/10^6, S divides the lcm of the constant denominators and 10^6,
    whatever the number of variables.  S^d is left to the caller that
    needs a root's value, since most only ask whether N is zero.
    """
    degs, _, den = prog.degrees()
    s = lcm(den, *(v.denominator for v in assignment.values()))

    def scaled(n: Expr) -> int:
        if type(n) is Const:
            return n.num * (s // n.den)
        v = assignment[n]
        return v.numerator * (s // v.denominator)

    vals = _run(prog, scaled, 0, 1, degs, s)
    return [vals[r] for r in prog.roots], s


def evaluate_exact(e: Expr, assignment: Mapping[Var, Fraction]) -> Fraction:
    """Exact rational evaluation; TypeError unless is_polynomial(e)."""
    prog = program(e)
    (num,), s = exact_ratios(prog, assignment)
    return Fraction(num, s ** prog.degrees()[0][prog.roots[0]])
