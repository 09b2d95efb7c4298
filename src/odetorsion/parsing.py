"""Expression and corpus-file parsing, plus the OdeSystem value types.

Expression grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := number | "i" | ident | fn "(" expr ")" | "(" expr ")"
    fn     := "exp"|"log"|"sin"|"cos"|"sqrt"

Reserved identifiers: x, y, dy, yK, dyK (K >= 1 decimal), i, and the
function names; anything else is a named parameter.  y and dy are
aliases for y1 and dy1.

Corpus files are line oriented (see parse_corpus); blank lines and lines
beginning with ``#`` are ignored.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .expr import Expr, VarRef
from .oracle import FIXED, GENERIC, GENERIC_NONZERO, ParamDecl, sample_point


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

_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<op>[-+*/^()])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

_YVAR_RE = re.compile(r"^(dy|y)([0-9]+)?$")


def _location(text: str, offset: int, line0: int, col0: int) -> tuple[int, int]:
    """The (line, column) of offset in text, which starts at line line0,
    column col0."""
    nl = text.rfind("\n", 0, offset)
    return line0 + text.count("\n", 0, offset), offset - nl + (col0 - 1 if nl < 0 else 0)


def _tokenize(text: str, line0: int = 1, col0: int = 1) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, kind one of number, ident, op and
    a final end; whitespace is skipped."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             *_location(text, m.start(kind), line0, col0))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _combine(op, operands: list[Expr]) -> Expr:
    """A run of operands in one call to add or mul, which flattens it as a
    left fold would without interning every prefix; one operand as it is."""
    return operands[0] if len(operands) == 1 else op(*operands)


class _Parser:
    """Recursive descent over one text's tokens, read through an index.

    An operator token's text is never that of another kind of token, so
    ``peek() == "+"`` tests for the operator alone.
    """

    def __init__(self, text: str, line0: int = 1, col0: int = 1):
        self.text = text
        self.line0 = line0
        self.col0 = col0
        self.tokens = _tokenize(text, line0, col0)
        self.pos = 0

    def peek(self) -> str:
        """The current token's text ("" at the end)."""
        return self.tokens[self.pos][1]

    def error(self, message: str, offset: int, expected=()) -> ParseError:
        return ParseError(message, *_location(self.text, offset, self.line0, self.col0), expected)

    def _fail(self, expected):
        kind, text, offset = self.tokens[self.pos]
        what = "end of input" if kind == "end" else repr(text)
        raise self.error(f"unexpected {what}", offset, expected)

    def eat(self, op: str) -> None:
        if self.tokens[self.pos][1] != op:
            self._fail((op,))
        self.pos += 1

    def expr(self) -> Expr:
        tokens = self.tokens
        terms = [self.term()]
        op = tokens[self.pos][1]
        while op == "+" or op == "-":
            self.pos += 1
            rhs = self.term()
            terms.append(rhs if op == "+" else ex.neg(rhs))
            op = tokens[self.pos][1]
        return _combine(ex.add, terms)

    def term(self) -> Expr:
        tokens = self.tokens
        factors = [self.factor()]
        op = tokens[self.pos][1]
        while op == "*" or op == "/":
            offset = tokens[self.pos][2]
            self.pos += 1
            rhs = self.factor()
            if op == "/":
                try:
                    rhs = ex.pow_(rhs, -1)  # a/b is a*b^-1
                except ZeroDivisionError:
                    raise self.error("division by zero", offset) from None
            factors.append(rhs)
            op = tokens[self.pos][1]
        return _combine(ex.mul, factors)

    def factor(self) -> Expr:
        tokens = self.tokens
        if tokens[self.pos][1] == "-":
            self.pos += 1
            return ex.neg(self.factor())
        out = self.atom()
        if tokens[self.pos][1] != "^":
            return out
        self.pos += 1
        sign = 1
        if tokens[self.pos][1] == "-":
            self.pos += 1
            sign = -1
        kind, text, offset = tokens[self.pos]
        if kind != "number" or not text.isdigit():
            self._fail(("integer exponent",))
        self.pos += 1
        n = sign * int(text)
        if n == 0:
            raise self.error("zero exponent", offset)
        try:
            return ex.pow_(out, n)
        except ZeroDivisionError as err:
            raise self.error(str(err), offset) from None

    def atom(self) -> Expr:
        kind, text, offset = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            return ex.const(int(text) if text.isdigit() else Fraction(text))
        if kind == "ident":
            self.pos += 1
            name = text
            if name == "i":
                return ex.const(1j)
            if name in ex.FUNCTIONS:
                self.eat("(")
                arg = self.expr()
                self.eat(")")
                return ex.apply(name, arg)
            if name == "x":
                return ex.var(ex.X)
            m = _YVAR_RE.match(name)
            if m:
                index = int(m.group(2)) if m.group(2) else 1
                if index < 1:
                    raise self.error(f"bad variable index in {name!r}", offset)
                ref = ex.YDot(index) if m.group(1) == "dy" else ex.Y(index)
                return ex.var(ref)
            return ex.var(ex.Param(name))
        if text == "(":
            self.pos += 1
            out = self.expr()
            self.eat(")")
            return out
        self._fail(("number", "identifier", "(", "-"))


def parse_expr(text: str, line: int = 1, col: int = 1) -> Expr:
    """Parse text, which starts at line line, column col, of its source."""
    p = _Parser(text, line, col)
    out = p.expr()
    if p.peek():
        p._fail(("operator", "end of input"))
    return out


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
    if isinstance(e, ex.Const):
        return _fmt_number(e.value)
    if isinstance(e, ex.Var):
        return str(e.ref)
    if isinstance(e, ex.Sum):
        return " + ".join(to_str(t) for t in e.terms)
    if isinstance(e, ex.Product):
        return "*".join(_wrap(f) for f in e.factors)
    if isinstance(e, ex.Power):
        base = to_str(e.base) if isinstance(e.base, (ex.Var, ex.Apply)) else f"({to_str(e.base)})"
        return f"{base}^{e.exponent}"
    if isinstance(e, ex.Apply):
        return f"{e.fn}({to_str(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expr) -> str:
    if isinstance(e, ex.Sum):
        return f"({to_str(e)})"
    if isinstance(e, ex.Const) and not isinstance(e.value, Fraction):
        return f"({to_str(e)})" if e.value.real != 0 and e.value.imag != 0 else to_str(e)
    return to_str(e)


# ---------------------------------------------------------------------------
# Systems and corpus entries

_RESERVED = {"x", "y", "dy", "i"} | set(ex.FUNCTIONS)
_POINTS = 8  # sample points an expression gets to show it is defined


@dataclass(frozen=True)
class OdeSystem:
    """d^2 y^I / dx^2 = rhs[I-1](x, y, dy), I = 1..n."""

    n: int
    rhs: tuple[Expr, ...]
    params: tuple[ParamDecl, ...] = ()
    name: str = "system"

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(ex.build(f) for f in self.rhs))
        object.__setattr__(self, "params", tuple(self.params))
        if self.n < 1:
            raise ValidationError(f"{self.name}: n must be positive")
        if len(self.rhs) != self.n:
            raise ValidationError(f"{self.name}: expected {self.n} right-hand sides, got {len(self.rhs)}")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValidationError(f"{self.name}: duplicate parameter names")
        for name in names:
            if name in _RESERVED or _YVAR_RE.match(name):
                raise ValidationError(f"{self.name}: parameter name {name!r} is reserved")
        for f in self.rhs:
            self.validate_expr(f)
        self.require_evaluable((f"f{k}", f) for k, f in enumerate(self.rhs, start=1))

    def validate_expr(self, e: Expr):
        declared = {p.name for p in self.params}
        for ref in sorted(ex.free_vars(e), key=str):
            if ref.kind in (VarRef.Y, VarRef.YDOT):
                if not 1 <= ref.index <= self.n:
                    raise ValidationError(f"{self.name}: variable index {ref.index} outside 1..{self.n}")
            elif ref.kind == VarRef.PARAM and ref.name not in declared:
                raise ValidationError(f"{self.name}: undeclared parameter {ref.name!r}")

    def require_evaluable(self, labelled) -> None:
        """Reject an expression that no sample point evaluates.

        labelled holds (label, expression) pairs.  Such an input is
        undefined (1/(y-y), log(0*y)), however its torsion might cancel.  The
        points come from a generator of their own, so validation leaves
        the oracle's seeded draws untouched.
        """
        rng = random.Random(0)
        for label, e in labelled:
            refs = sorted(ex.free_vars(e), key=str)
            for _ in range(_POINTS):
                try:
                    ex.evaluate(e, sample_point(rng, refs, self.params))
                    break
                except ArithmeticError:
                    continue
            else:
                raise ValidationError(
                    f"{self.name}: {label} cannot be evaluated at any of {_POINTS} sample points"
                )

    def param_map(self) -> dict[str, ParamDecl]:
        return {p.name: p for p in self.params}


STRAIGHT = "straight"
NOT_STRAIGHT = "not-straight"
UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class CorpusEntry:
    system: OdeSystem
    expect: str = UNSPECIFIED
    conserved: tuple[Expr, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def transcription_uncertain(self) -> bool:
        return any("transcription-uncertain" in n for n in self.notes)


def _parse_fixed_value(text: str, line: int, col: int):
    e = parse_expr(text, line, col)
    if not isinstance(e, ex.Const):
        raise ParseError("fixed parameter value must be a constant", line, col)
    return e.value


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
            state = {"name": rest, "n": None, "params": [], "rhs": {},
                     "conserved": [], "expect": None, "notes": [], "line": lineno}
            continue
        if word == "n":
            try:
                state["n"] = int(rest)
            except ValueError:
                raise ParseError(f"bad dimension {rest!r}", lineno, 1) from None
        elif word == "param":
            pname, policy = (rest.split(None, 1) + ["", ""])[:2]
            if policy == "generic":
                state["params"].append(ParamDecl(pname, GENERIC))
            elif policy == "generic-nonzero":
                state["params"].append(ParamDecl(pname, GENERIC_NONZERO))
            elif policy.startswith("="):
                text = policy[1:].strip()
                value = _parse_fixed_value(text, lineno, _column(raw, text))
                state["params"].append(ParamDecl(pname, FIXED, value))
            else:
                raise ParseError(f"bad parameter policy {policy!r}", lineno, 1,
                                 ("generic", "generic-nonzero", "= <value>"))
        elif re.fullmatch(r"f[0-9]+", word):
            k = int(word[1:])
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
    name, lineno = state["name"], state["line"]
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
    sys = OdeSystem(
        n=n,
        rhs=tuple(state["rhs"][k] for k in range(1, n + 1)),
        params=tuple(state["params"]),
        name=name,
    )
    conserved = tuple(ex.build(g) for g in state["conserved"])
    for g in conserved:
        sys.validate_expr(g)
    sys.require_evaluable((f"conserved quantity {k}", g) for k, g in enumerate(conserved, start=1))
    return CorpusEntry(
        system=sys,
        expect=state["expect"],
        conserved=conserved,
        notes=tuple(state["notes"]),
    )
