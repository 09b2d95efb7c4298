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
from .expr import Expr, Var
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


_MAX_DEPTH = 5000  # open groups, parentheses and calls, one text may nest


def parse_expr(text: str, line: int = 1, col: int = 1) -> Expr:
    """Parse text, which starts at line line, column col, of its source.

    An operator token's text is never that of another kind of token, so
    ``tokens[pos][1] == "+"`` tests for the operator alone.
    """
    tokens = _tokenize(text, line, col)

    def error(message: str, offset: int, expected=()) -> ParseError:
        return ParseError(message, *_location(text, offset, line, col), expected)

    def fail(pos: int, expected):
        kind, tok, offset = tokens[pos]
        raise error(f"unexpected {'end of input' if kind == 'end' else repr(tok)}", offset, expected)

    # The innermost group's call (None for parentheses) and terms, the
    # current term's factors and sign, the offset of the "/" before the
    # current factor (None after "*") and its unary minuses; groups holds
    # those of the enclosing groups.
    pos, groups = 0, []
    fn, terms, factors, sign, div, minuses = None, [], [], "+", None, 0
    while True:
        kind, tok, offset = tokens[pos]
        pos += 1
        if tok == "-":
            minuses += 1
            continue
        if kind == "number":
            out = ex.const(int(tok) if tok.isdigit() else Fraction(tok))
        elif tok == "i":
            out = ex.const(1j)
        elif tok == "x":
            out = ex.X
        elif kind == "ident" and tok not in ex.FUNCTIONS:
            m = _YVAR_RE.match(tok)
            index = int(m.group(2) or 1) if m else 1
            if index < 1:
                raise error(f"bad variable index in {tok!r}", offset)
            out = ex.Param(tok) if not m else ex.YDot(index) if m.group(1) == "dy" else ex.Y(index)
        elif tok == "(" or kind == "ident":
            if kind == "ident" and tokens[pos][1] != "(":
                fail(pos, ("(",))
            pos += kind == "ident"
            if len(groups) == _MAX_DEPTH:
                raise error(f"nested deeper than {_MAX_DEPTH} levels", offset)
            groups.append((fn, terms, factors, sign, div, minuses))
            fn = tok if kind == "ident" else None
            terms, factors, sign, div, minuses = [], [], "+", None, 0
            continue
        else:
            fail(pos - 1, ("number", "identifier", "(", "-"))
        while True:  # out is an atom or a closed group
            if tokens[pos][1] == "^":
                negative = tokens[pos + 1][1] == "-"  # the end token follows any "^"
                pos += 2 if negative else 1
                kind, tok, offset = tokens[pos]
                if kind != "number" or not tok.isdigit():
                    fail(pos, ("integer exponent",))
                pos += 1
                if int(tok) == 0:
                    raise error("zero exponent", offset)
                try:
                    out = ex.pow_(out, -int(tok) if negative else int(tok))
                except ZeroDivisionError as err:
                    raise error(str(err), offset) from None
            for _ in range(minuses):
                out = ex.neg(out)
            if div is not None:
                try:
                    out = ex.pow_(out, -1)  # a/b is a*b^-1
                except ZeroDivisionError:
                    raise error("division by zero", div) from None
            factors.append(out)
            op = tokens[pos][1]
            pos += 1
            if op == "*" or op == "/":
                div, minuses = (tokens[pos - 1][2] if op == "/" else None), 0
                break
            term = _combine(ex.mul, factors)
            terms.append(term if sign == "+" else ex.neg(term))
            if op == "+" or op == "-":
                factors, sign, div, minuses = [], op, None, 0
                break
            out = _combine(ex.add, terms)
            if op == ")" and groups:
                if fn is not None:
                    out = ex.apply(fn, out)
                fn, terms, factors, sign, div, minuses = groups.pop()
                continue
            if groups or op:
                fail(pos - 1, (")",) if groups else ("operator", "end of input"))
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


@dataclass(frozen=True)
class OdeSystem:
    """d^2 y^I / dx^2 = rhs[I-1](x, y, dy), I = 1..n."""

    n: int
    rhs: tuple[Expr, ...]
    params: tuple[ParamDecl, ...] = ()
    name: str = "system"

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))
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
        if not isinstance(e, Expr):
            raise TypeError(f"not an expression: {e!r}")
        declared = {p.name for p in self.params}
        for v in sorted(ex.free_vars(e), key=str):
            if v.kind in (Var.Y, Var.YDOT):
                if not 1 <= v.index <= self.n:
                    raise ValidationError(f"{self.name}: variable index {v.index} outside 1..{self.n}")
            elif v.kind == Var.PARAM and v.name not in declared:
                raise ValidationError(f"{self.name}: undeclared parameter {v.name!r}")

    def require_evaluable(self, labelled) -> None:
        """Reject an expression that no sample point evaluates.

        labelled holds (label, expression) pairs.  Such an input is
        undefined (1/(y-y), log(0*y)), however its torsion might cancel.  The
        points come from a generator of their own, so validation leaves
        the oracle's seeded draws untouched.
        """
        rng = random.Random(0)
        for label, e in labelled:
            variables = sorted(ex.free_vars(e), key=str)
            for _ in range(_POINTS):
                try:
                    ex.evaluate(e, sample_point(rng, variables, self.params))
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
        if word in ("n", "expect") and state[word] is not None:
            raise ParseError(f"duplicate {word}", lineno, 1)
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
    name = state["name"]
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
    conserved = tuple(state["conserved"])
    for g in conserved:
        sys.validate_expr(g)
    sys.require_evaluable((f"conserved quantity {k}", g) for k, g in enumerate(conserved, start=1))
    return CorpusEntry(
        system=sys,
        expect=state["expect"],
        conserved=conserved,
        notes=tuple(state["notes"]),
    )
