"""Expression and corpus-file parsing, plus the OdeSystem value types.

Expression grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := number | "i" | ident | fn "(" expr ")" | "(" expr ")"
    fn     := "exp"|"log"|"sin"|"cos"|"sqrt"

``parse_expr`` reads it in one loop over the tokens, with no recursion:
a stack holds the open groups (parentheses and calls), at most
``_MAX_DEPTH`` of them.  A group collects a run of terms and the current
term a run of factors; each run goes to ``add`` or ``mul`` in one call.
A factor is an atom or a closed group, raised to its ``^`` integer, then
negated once per unary minus before it, then inverted after a ``/``.
``to_str`` renders a node's program, children before parents.

The tokens are plain strings from one pattern's ``findall`` (``_TOKENS``),
with ``""`` as the end token; a token's kind is read off its first
character, and each number or variable text is resolved to its node once
per call.  No offset is kept.  A text holding a character that no token
can start is turned away first, before any constant is folded, by
``_tokenize``, the tokenizer that keeps offsets; it runs again only when
an error is placed, to find the offset of the token to blame.  One
``try`` around the loop places every ``ZeroDivisionError`` or
``OverflowError`` a constructor raises, and the ``ValueError`` of ``int``
reading a number, exponent or variable index of more digits than
``sys.get_int_max_str_digits()`` allows: before each call that can raise
one (a power, a division, a run of factors or terms, reading a number or
an identifier), the loop notes the token to blame.

Reserved identifiers: x, y, dy, yK, dyK (K >= 1 decimal), i, and the
function names; anything else is a named parameter.  y and dy are
aliases for y1 and dy1.

Corpus files are line oriented (see parse_corpus); blank lines and lines
beginning with ``#`` are ignored.
"""

from __future__ import annotations

import cmath
import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import expr as ex
from .expr import EvalSingular, Expr, Var
from .oracle import sample_point


class ParseError(ValueError):
    def __init__(self, message, line=0, col=0, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        loc = f" at line {line}, column {col}" if line else ""
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{exp}")


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer

_KINDS = {  # each kind of token and its pattern, in the order they are tried
    "number": r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?",
    "ident": r"[A-Za-z][A-Za-z0-9_]*",
    "op": r"[-+*/^()]",
    "bad": r"\S",
}
_TOKEN_RE = re.compile(r"\s*(?:" + "|".join(f"(?P<{k}>{p})" for k, p in _KINDS.items()) + ")")
# the same alternatives with no named group, so findall gives each
# token's text; its kind is read off its first character: a (Unicode)
# decimal digit starts a number, an ASCII letter an identifier
_TOKENS = re.compile(r"\s*(" + "|".join(_KINDS.values()) + ")").findall

_YVAR_RE = re.compile(r"^(dy|y)([0-9]+)?$")

# the one-character tokens other than bad ones, but for the non-ASCII
# decimal digits; a longer token is a number or an identifier.  A text
# made of these and ASCII spaces, tabs and line ends has no bad token.
_ONE_CHAR = frozenset("-+*/^()abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
_PLAIN = _ONE_CHAR | frozenset(" \t\r\n")


def _location(text: str, offset: int, line0: int, col0: int) -> tuple[int, int]:
    """The (line, column) of offset in text, which starts at line line0,
    column col0."""
    nl = text.rfind("\n", 0, offset)
    return line0 + text.count("\n", 0, offset), offset - nl + (col0 - 1 if nl < 0 else 0)


def _tokenize(text: str, line0: int = 1, col0: int = 1) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, kind one of number, ident, op and
    a final end; whitespace is skipped.  ``parse_expr`` calls it only to
    raise a bad character's error or to place another."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             *_location(text, m.start(kind), line0, col0))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


_MAX_DEPTH = 5000  # open groups, parentheses and calls, one text may nest


def parse_expr(text: str, line: int = 1, col: int = 1) -> Expr:
    """Parse text, which starts at line line, column col, of its source.

    A token is its text, the end token ``""``; an operator token's text is
    never that of another kind of token, so ``tokens[pos] == "+"`` tests
    for the operator alone.
    """
    tokens = _TOKENS(text)
    if not _PLAIN.issuperset(text) and any(
            len(t) == 1 and t not in _ONE_CHAR and not t.isdecimal() for t in set(tokens)):
        _tokenize(text, line, col)  # raises at the first bad character
    tokens.append("")

    def error(message: str, at: int, expected=()) -> ParseError:
        """A ParseError at the token with index at."""
        return ParseError(message, *_location(text, _tokenize(text)[at][2], line, col), expected)

    def fail(at: int, expected):
        raise error(f"unexpected {repr(tokens[at]) if tokens[at] else 'end of input'}", at, expected)

    # The innermost group's call (None for parentheses) and terms, the
    # current term's factors and sign, the index of the "/" before the
    # current factor (None after "*") and its unary minuses; groups holds
    # those of the enclosing groups.  atoms maps each number and variable
    # text met to its node, and blame is the index of the token that a
    # ZeroDivisionError or OverflowError from the constructor called next
    # is placed at: the division's "/" (worded "division by zero"), the
    # exponent of "^" or the token ending a run of factors or terms.
    pos, groups, atoms, blame = 0, [], {}, 0
    fn, terms, factors, sign, div, minuses = None, [], [], "+", None, 0
    try:
        while True:
            tok = tokens[pos]
            pos += 1
            if tok == "-":
                minuses += 1
                continue
            out = atoms.get(tok)
            if out is None:
                if tok == "(" or tok in ex.FUNCTIONS:
                    if tok != "(" and tokens[pos] != "(":
                        fail(pos, ("(",))
                    if len(groups) == _MAX_DEPTH:
                        raise error(f"nested deeper than {_MAX_DEPTH} levels", pos - 1)
                    pos += tok != "("
                    groups.append((fn, terms, factors, sign, div, minuses))
                    fn = None if tok == "(" else tok
                    terms, factors, sign, div, minuses = [], [], "+", None, 0
                    continue
                if tok[:1].isdecimal():
                    blame = pos - 1
                    out = ex.const(int(tok) if tok.isdigit() else Fraction(tok))
                elif tok == "i":
                    out = ex.const(1j)
                elif tok == "x":
                    out = ex.X
                elif tok[:1].isalpha():  # an identifier: no bad character is left
                    blame = pos - 1
                    m = _YVAR_RE.match(tok)
                    index = int(m.group(2) or 1) if m else 1
                    if index < 1:
                        raise error(f"bad variable index in {tok!r}", pos - 1)
                    out = ex.Param(tok) if not m else ex.YDot(index) if m.group(1) == "dy" else ex.Y(index)
                else:
                    fail(pos - 1, ("number", "identifier", "(", "-"))
                atoms[tok] = out
            while True:  # out is an atom or a closed group
                if tokens[pos] == "^":
                    negative = tokens[pos + 1] == "-"  # the end token follows any "^"
                    pos += 2 if negative else 1
                    tok = tokens[pos]
                    if not tok.isdigit():  # no bad character, such as "²", is left
                        fail(pos, ("integer exponent",))
                    blame = pos
                    k = int(tok)
                    pos += 1
                    if k == 0:
                        raise error("zero exponent", blame)
                    out = ex.pow_(out, -k if negative else k)
                for _ in range(minuses):
                    out = ex.neg(out)
                if div is not None:
                    blame = div
                    out = ex.pow_(out, -1)  # a/b is a*b^-1
                factors.append(out)
                op = tokens[pos]
                blame = pos
                pos += 1
                if op == "*" or op == "/":
                    div, minuses = (blame if op == "/" else None), 0
                    break
                # a run in one call to mul or add, flattened as a left fold would be
                # without interning every prefix, and placed at the token ending it
                term = factors[0] if len(factors) == 1 else ex.mul(*factors)
                terms.append(term if sign == "+" else ex.neg(term))
                if op == "+" or op == "-":
                    factors, sign, div, minuses = [], op, None, 0
                    break
                out = terms[0] if len(terms) == 1 else ex.add(*terms)
                if op == ")" and groups:
                    if fn is not None:
                        out = ex.apply(fn, out)
                    fn, terms, factors, sign, div, minuses = groups.pop()
                    continue
                if groups or op:
                    fail(pos - 1, (")",) if groups else ("operator", "end of input"))
                return out
    except ParseError:
        raise
    except ValueError:  # int() of a number, exponent or index of too many digits
        raise error(_too_many_digits(), blame) from None
    except (ZeroDivisionError, OverflowError) as err:
        zero = type(err) is ZeroDivisionError and tokens[blame] == "/"
        raise error("division by zero" if zero else str(err), blame) from None


def _too_many_digits() -> str:
    """The message for an integer text of more digits than ``int`` reads,
    whose ValueError is the one a parse can meet."""
    return f"integer of more than {sys.get_int_max_str_digits()} digits"


# ---------------------------------------------------------------------------
# Pretty printing


def _fmt_number(v) -> str:
    if isinstance(v, Fraction):
        if v < 0:
            return "-" + _fmt_number(-v)
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    re_, im = v.real, v.imag
    parts = []
    if re_ != 0 or im == 0:
        parts.append(repr(re_))
    if im != 0:
        parts.append(f"{im!r}*i")
    s = " + ".join(parts)
    return f"({s})" if len(parts) > 1 else s


def to_str(e: Expr) -> str:
    """Render in the expression grammar; reparses to an equal Expr."""
    steps = ex.Program((e,)).steps
    out: list[str] = []
    for n, kids in steps:
        if isinstance(n, ex.Const):
            s = _fmt_number(n.value)
        elif isinstance(n, ex.Var):
            s = str(n)
        elif isinstance(n, ex.Sum):
            s = " + ".join(out[k] for k in kids)
        elif isinstance(n, ex.Product):
            s = "*".join(f"({out[k]})" if _wrapped(steps[k][0]) else out[k] for k in kids)
        elif isinstance(n, ex.Power):
            base = out[kids[0]] if isinstance(n.base, (ex.Var, ex.Apply)) else f"({out[kids[0]]})"
            s = f"{base}^{n.exponent}"
        elif isinstance(n, ex.Apply):
            s = f"{n.fn}({out[kids[0]]})"
        else:
            raise TypeError(f"not an expression: {n!r}")
        out.append(s)
    return out[-1]


def _wrapped(e: Expr) -> bool:
    """Whether e goes in parentheses as a factor: a sum, or a complex
    constant with both parts."""
    if isinstance(e, ex.Sum):
        return True
    return isinstance(e, ex.Const) and not isinstance(e.value, Fraction) and e.value.real != 0 and e.value.imag != 0


# ---------------------------------------------------------------------------
# Systems and corpus entries

_RESERVED = {"x", "y", "dy", "i"} | set(ex.FUNCTIONS)
_POINTS = 8  # sample points an expression gets to show it is defined


class _OdeSystem(NamedTuple):
    rhs: tuple[Expr, ...]
    params: tuple[str, ...] = ()
    name: str = "system"


class OdeSystem(_OdeSystem):
    """d^2 y^I / dx^2 = rhs[I-1](x, y, dy), I = 1..n, in the parameters
    named by params; n is the number of right-hand sides.  A named tuple
    whose constructor takes rhs and params as any sequences, and checks
    and validates them."""

    __slots__ = ()

    def __new__(cls, rhs, params=(), name="system"):
        rhs = tuple(rhs)
        if isinstance(params, str):
            # a string is a sequence of letters, not of names
            raise TypeError(f"params must be a sequence of names, not the string {params!r}")
        params = tuple(params)
        for p in params:
            if not isinstance(p, str):
                raise TypeError(f"not a parameter name: {p!r}")
        if not rhs:
            raise ValidationError(f"{name}: no right-hand side")
        if len(set(params)) != len(params):
            raise ValidationError(f"{name}: duplicate parameter names")
        for p in params:
            if p in _RESERVED or _YVAR_RE.match(p):
                raise ValidationError(f"{name}: parameter name {p!r} is reserved")
        self = super().__new__(cls, rhs, params, name)
        self.validate((f"f{k}", f) for k, f in enumerate(rhs, start=1))
        return self

    @property
    def n(self) -> int:
        return len(self.rhs)

    def validate(self, labelled) -> None:
        """Reject the first of labelled's (label, expression) pairs that
        this system cannot take, checking every pair's variables before any
        pair's evaluability.

        An expression that no sample point evaluates to a finite value is
        undefined (1/(y-y), log(0*y)), however its torsion might cancel; if
        it overflowed or was not finite at every point, it leaves the float
        range (exp(700)*exp(700)*exp(y)).  So does one with a constant
        outside the float range (10^400 or 10^-400), or with a
        constant-valued subexpression that leaves it: exp(1000), a step
        whose float is not finite (exp(700)*exp(700), which overflows
        without raising), or exp(-800), a product, power, exp or sqrt step
        whose float is 0 while none of its operands is.  The
        points come from a generator of their own, so validation leaves the
        oracle's seeded draws untouched.  A polynomial over the rationals
        (``poly``) is skipped: it is defined everywhere and only ever
        evaluated exactly, so 10^400*y is not unevaluable.
        """
        labelled = list(labelled)
        for label, e in labelled:
            if not isinstance(e, Expr):
                raise TypeError(f"not an expression: {e!r}")
            for v in sorted(ex.free_vars(e), key=str):
                if v.kind in (Var.Y, Var.YDOT):
                    if not 1 <= v.index <= self.n:
                        raise ValidationError(f"{self.name}: {label}: variable index {v.index} outside 1..{self.n}")
                elif v.kind == Var.PARAM and v.name not in self.params:
                    raise ValidationError(f"{self.name}: {label}: undeclared parameter {v.name!r}")
        rng = random.Random(0)
        for label, e in labelled:
            if e.poly:
                continue
            prog = ex.program(e)
            valued = [n for n, _ in prog.steps if not n.free and type(n) is not ex.Const]
            try:
                value = dict(prog.constants())
                # exp(1000) overflows at every point
                value.update(zip(valued, (v for v, _ in ex.evaluate_roots(ex.Program(valued), {}))))
                if any(not cmath.isfinite(value[n]) or _cannot_vanish(n) and not value[n]
                       and all(value[k] for k in n.kids) for n in valued):
                    raise OverflowError  # exp(700)*exp(700) overflowed to inf, exp(-800) underflowed to 0
            except OverflowError:
                raise ValidationError(f"{self.name}: {label} has a constant outside the float range") from None
            except EvalSingular:
                pass  # log(0) is blamed on the sample points below
            variables = sorted(ex.free_vars(e), key=str)
            overflows = 0
            for _ in range(_POINTS):
                try:
                    if cmath.isfinite(ex.evaluate(e, sample_point(rng, variables))):
                        break
                    overflows += 1
                except OverflowError:
                    overflows += 1
                except ArithmeticError:
                    pass
            else:
                failed = "leaves the float range at all" if overflows == _POINTS else "cannot be evaluated at any of"
                raise ValidationError(f"{self.name}: {label} {failed} {_POINTS} sample points")


def _cannot_vanish(n: Expr) -> bool:
    """Whether n is a product, a power, an exp or a sqrt: a step that is 0
    only where one of its operands is."""
    return type(n) in (ex.Product, ex.Power) or type(n) is ex.Apply and n.fn in ("exp", "sqrt")


STRAIGHT = "straight"
NOT_STRAIGHT = "not-straight"
UNSPECIFIED = "unspecified"


class CorpusEntry(NamedTuple):
    system: OdeSystem
    expect: str = UNSPECIFIED
    conserved: tuple[Expr, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def transcription_uncertain(self) -> bool:
        return any("transcription-uncertain" in n for n in self.notes)


def _parse_fixed_value(text: str, line: int, col: int) -> ex.Const:
    e = parse_expr(text, line, col)
    if not isinstance(e, ex.Const):
        raise ParseError("fixed parameter value must be a constant", line, col)
    return e


def _column(raw: str, text: str) -> int:
    """The column at which text, a suffix of the stripped line raw, starts."""
    return len(raw.rstrip()) - len(text) + 1


def parse_corpus(text: str) -> list[CorpusEntry]:
    """Parse a corpus file into validated entries."""
    entries: list[CorpusEntry] = []
    state = None  # None or dict while inside a system block
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, rest = (line.split(None, 1) + [""])[:2]  # at any whitespace
        if state is None:
            if word != "system":
                raise ParseError("expected 'system <name>'", lineno, 1, ("system",))
            if not rest:
                raise ParseError("missing system name", lineno, 1)
            state = {"name": rest, "n": None, "params": [], "fixed": {}, "rhs": {},
                     "conserved": [], "expect": None, "notes": [], "line": lineno}
            continue
        if word in ("n", "expect") and state[word] is not None:
            raise ParseError(f"duplicate {word}", lineno, 1)
        if word == "n":
            try:
                state["n"] = int(rest)
            except ValueError:
                raise ParseError(f"bad dimension {rest!r}", lineno, 1) from None
        elif word == "param":
            pname, policy = (rest.split(None, 1) + ["", ""])[:2]
            if policy.startswith("="):
                text = policy[1:].strip()
                state["fixed"][ex.Param(pname)] = _parse_fixed_value(text, lineno, _column(raw, text))
            elif policy not in ("generic", "generic-nonzero"):
                raise ParseError(f"bad parameter policy {policy!r}", lineno, 1,
                                 ("generic", "generic-nonzero", "= <value>"))
            # a fixed name stays declared, so the name checks cover it
            state["params"].append(pname)
        elif re.fullmatch(r"f[0-9]+", word):
            try:
                k = int(word[1:])
            except ValueError:
                raise ParseError(_too_many_digits(), lineno, 1) from None
            if not rest.startswith("="):
                raise ParseError(f"expected '{word} = <expr>'", lineno, 1, ("=",))
            if k in state["rhs"]:
                raise ParseError(f"duplicate {word}", lineno, 1)
            text = rest[1:].strip()
            state["rhs"][k] = parse_expr(text, lineno, _column(raw, text))
        elif word == "conserved":
            state["conserved"].append(parse_expr(rest, lineno, _column(raw, rest)))
        elif word == "expect":
            if rest not in (STRAIGHT, NOT_STRAIGHT, UNSPECIFIED):
                raise ParseError(f"bad expectation {rest!r}", lineno, 1,
                                 (STRAIGHT, NOT_STRAIGHT, UNSPECIFIED))
            state["expect"] = rest
        elif word == "note":
            state["notes"].append(rest)
        elif word == "end":
            entries.append(_finish_entry(state))
            state = None
        else:
            raise ParseError(f"unknown directive {word!r}", lineno, 1)
    if state is not None:
        raise ParseError(f"system {state['name']!r} not closed with 'end'", state["line"], 1)
    return entries


def _finish_entry(state) -> CorpusEntry:
    """The entry a closed block declares, with each fixed parameter's
    value substituted into its right-hand sides and conserved quantities."""
    name = state["name"]

    def fix(label: str, e: Expr) -> Expr:
        try:
            return ex.substitute(e, state["fixed"])
        except (ZeroDivisionError, OverflowError) as err:  # y/a at a = 0, a^-2 at a tiny complex a
            raise ValidationError(f"{name}: {err} in {label}") from None

    if state["n"] is None:
        raise ValidationError(f"{name}: missing dimension 'n'")
    if state["expect"] is None:
        raise ValidationError(f"{name}: missing 'expect' line")
    n = state["n"]
    missing = [k for k in range(1, n + 1) if k not in state["rhs"]]
    if missing:
        raise ValidationError(f"{name}: missing f{missing[0]}")
    extra = [k for k in state["rhs"] if not 1 <= k <= n]
    if extra:
        raise ValidationError(f"{name}: f{extra[0]} outside n={n}")
    if n < 1:
        raise ValidationError(f"{name}: n must be positive")
    sys = OdeSystem(
        rhs=tuple(fix(f"f{k}", state["rhs"][k]) for k in range(1, n + 1)),
        params=tuple(state["params"]),
        name=name,
    )
    conserved = tuple(fix(f"conserved quantity {k}", g) for k, g in enumerate(state["conserved"], start=1))
    sys.validate((f"conserved quantity {k}", g) for k, g in enumerate(conserved, start=1))
    return CorpusEntry(
        system=sys,
        expect=state["expect"],
        conserved=conserved,
        notes=tuple(state["notes"]),
    )
