import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odetorsion import expr as ex
from odetorsion import parsing
from odetorsion.parsing import (
    CorpusEntry,
    OdeSystem,
    ParseError,
    ValidationError,
    parse_corpus,
    parse_expr,
    to_str,
)

x = ex.X
y = ex.Y(1)
dy = ex.YDot(1)


class TestParseExpr:
    def test_precedence_unary_minus_and_power(self):
        # -x^2 parses as -(x^2)
        assert parse_expr("-x^2") == ex.neg(ex.pow_(x, 2))

    def test_power_binds_tighter_than_product(self):
        assert parse_expr("2*x^3") == ex.mul(ex.const(2), ex.pow_(x, 3))

    def test_left_assoc_subtraction(self):
        assert parse_expr("1 - 2 - 3") == ex.const(-4)

    def test_division_chain(self):
        e = parse_expr("x/y/dy")
        pt = {ex.X: 12, ex.Y(1): 3, ex.YDot(1): 2}
        assert ex.evaluate(e, pt) == 2

    def test_division_is_a_negative_power(self):
        assert parse_expr("y/x") is ex.mul(y, ex.pow_(x, -1))
        assert parse_expr("x/y/dy") is ex.mul(x, ex.pow_(y, -1), ex.pow_(dy, -1))
        assert parse_expr("1/(x*y)") is ex.pow_(ex.mul(x, y), -1)
        assert parse_expr("6/4*y") is ex.mul(ex.const(Fraction(3, 2)), y)

    @pytest.mark.parametrize("text, col", [("y/0", 2), ("x/(2-2)", 2), ("1 + y*x/0.0", 8)])
    def test_division_by_constant_zero_is_a_parse_error(self, text, col):
        with pytest.raises(ParseError, match=f"^division by zero at line 1, column {col}$"):
            parse_expr(text)

    @pytest.mark.parametrize("text", ["1/(x*y)", "(y+1)/(x-1)/dy", "-y/x"])
    def test_division_round_trips_to_the_identical_node(self, text):
        e = parse_expr(text)
        assert parse_expr(to_str(e)) is e

    def test_aliases(self):
        assert parse_expr("y") == parse_expr("y1")
        assert parse_expr("dy") == parse_expr("dy1")

    def test_indexed_variables(self):
        e = parse_expr("y2*dy3")
        assert ex.free_vars(e) == {ex.Y(2), ex.YDot(3)}

    def test_imaginary_unit(self):
        assert parse_expr("i^2") == ex.const(-1)

    def test_decimal_is_exact(self):
        assert parse_expr("0.1") == ex.const(Fraction(1, 10))

    def test_exponent_notation(self):
        assert parse_expr("2.5e2") == ex.const(250)

    def test_functions(self):
        e = parse_expr("exp(a*log(y))")
        assert ex.contains_fn(e, ("log",))
        assert ex.Param("a") in ex.free_vars(e)

    def test_conserved_quantity_shape(self):
        e = parse_expr("y - dy^2/(y*(y-1))")
        assert isinstance(e, ex.Sum)
        assert ex.free_vars(e) == {ex.Y(1), ex.YDot(1)}

    def test_negative_exponent(self):
        assert parse_expr("y^-2") == ex.pow_(y, -2)

    @pytest.mark.parametrize(
        "bad", ["x +", "exp x", "(x", "x^y", "x^0", "2 3", "$", "x^1.5"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    def test_error_location(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x + * y")
        assert err.value.line == 1
        assert err.value.col == 5
        assert err.value.expected


class TestErrorSites:
    """Every place parse_expr raises, with the text starting at line 3,
    column 5 of its source."""

    @pytest.mark.parametrize("text, message, line, col, expected", [
        ("y + é", "unexpected character 'é'", 3, 9, ()),
        ("y +\n  dy*é", "unexpected character 'é'", 4, 6, ()),
        ("y + * x", "unexpected '*'", 3, 9, ("number", "identifier", "(", "-")),
        ("y x", "unexpected 'x'", 3, 7, ("operator", "end of input")),
        ("(y x", "unexpected 'x'", 3, 8, (")",)),
        ("exp y", "unexpected 'y'", 3, 9, ("(",)),
        ("exp", "unexpected end of input", 3, 8, ("(",)),
        ("y^1.5", "unexpected '1.5'", 3, 7, ("integer exponent",)),
        ("y^-x", "unexpected 'x'", 3, 8, ("integer exponent",)),
        ("y^0", "zero exponent", 3, 7, ()),
        ("y +\r\n dy^0", "zero exponent", 4, 5, ()),
        ("x + y0", "bad variable index in 'y0'", 3, 9, ()),
        ("y/0", "division by zero", 3, 6, ()),
        ("0^-1", "0 raised to a negative power", 3, 8, ()),
        ("(1e-170*i)^-2*y", "constant power outside the float range", 3, 17, ()),
        ("1e200*i*1e200*y + x", "constant infj outside the float range", 3, 21, ()),
        ("(y + 1e308*i + 1e308*i)*x", "constant infj outside the float range", 3, 27, ()),
    ])
    def test_message_place_and_expected(self, text, message, line, col, expected):
        with pytest.raises(ParseError) as err:
            parse_expr(text, 3, 5)
        assert (str(err.value).split(" at line ")[0], err.value.line, err.value.col, err.value.expected) == (
            message, line, col, expected)

    def test_nesting_deeper_than_the_limit(self):
        n = parsing._MAX_DEPTH + 1
        with pytest.raises(ParseError) as err:
            parse_expr("(" * n + "y" + ")" * n, 3, 5)
        assert (str(err.value), err.value.line, err.value.col, err.value.expected) == (
            "nested deeper than 5000 levels at line 3, column 5005", 3, 5005, ())

    def test_a_bad_character_comes_before_a_division_by_zero(self):
        with pytest.raises(ParseError, match=r"^unexpected character '\$' at line 3, column 9$"):
            parse_expr("1/0 $", 3, 5)

    def test_a_bad_character_comes_before_a_huge_power(self):
        # the power, 10^42000000, would take minutes to fold
        import time

        start = time.process_time()
        with pytest.raises(ParseError, match="^unexpected character 'é' at line 1, column 27$"):
            parse_expr("(((10^300)^400)^50)^7*y + é")
        assert time.process_time() - start < 1.0

    def test_a_unicode_decimal_digit_is_a_number(self):
        assert parse_expr("٣*y") is parse_expr("3*y")
        assert parse_expr("y^٣") is parse_expr("y^3")

    @pytest.mark.parametrize("text, col", [("²", 1), ("y^²", 3), ("2²", 2)])
    def test_a_superscript_digit_is_a_bad_character(self, text, col):
        with pytest.raises(ParseError, match=f"^unexpected character '²' at line 1, column {col}$"):
            parse_expr(text)


_pieces = st.sampled_from(
    ["x", "y2", "dy", "exp", "a_b", "e", "E", "1", "25", "1.5", "3e-2", "1e", "2.", "٣", "١٢", "²", "½",
     "+", "-", "*", "/", "^", "(", ")", " ", "\t", "\r\n", "\n", "\x0b", "\xa0", "\x1c",
     ".", "_", "é", "ß", "π", "$", "#", ","]
)


@given(st.lists(_pieces, max_size=12).map("".join) | st.text(max_size=12))
@settings(max_examples=500, deadline=None)
def test_string_tokens_are_the_tokenizer_texts(text):
    # a text the tokenizer turns away raises its error from parse_expr too
    try:
        want = [tok for _, tok, _ in parsing._tokenize(text, 3, 5)]
    except ParseError as err:
        assert str(err).startswith("unexpected character ")
        with pytest.raises(ParseError) as got:
            parse_expr(text, 3, 5)
        assert (str(got.value), got.value.line, got.value.col) == (str(err), err.line, err.col)
        return
    assert parsing._TOKENS(text) + [""] == want


_texts = st.sampled_from(
    [
        "6*y^2 + x",
        "dy^2/y - dy/x",
        "-(x*dy + exp(a*log(y)))",
        "(1/2)*(1/y + 1/(y - 1) + 1/(y - x))*dy^2",
        "a*(1 - y^2)*dy - y",
        "y - dy^2/(y*(y-1))",
        "sqrt(y^2 - 2*x*y*dy + x^2*dy^2 + dy)",
        "1/(4*y^3)",
        "2*y1 + 3*dy2 - y2*dy1",
        "0.25*x - i*y",
    ]
)


@given(_texts)
@settings(deadline=None)
def test_to_str_round_trips(text):
    e = parse_expr(text)
    assert parse_expr(to_str(e)) == e


class _FoldParser:
    """The reference: recursive descent over the grammar in the module
    docstring, each operand folded into the result so far.  Any input it
    rejects raises ParseError, whatever the message."""

    def __init__(self, text):
        self.tokens = parsing._tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][1]

    def take(self):
        kind, text, _ = self.tokens[self.pos]
        self.pos += 1
        return kind, text

    def eat(self, op):
        if self.take()[1] != op:
            raise ParseError(f"expected {op!r}")

    def expr(self):
        out = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            out = ex.add(out, rhs if op == "+" else ex.neg(rhs))
        return out

    def term(self):
        out = self.factor()
        while (op := self.peek()) in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            try:
                out = ex.mul(out, rhs) if op == "*" else ex.quot(out, rhs)
            except ZeroDivisionError:
                raise ParseError("division by zero") from None
        return out

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return ex.neg(self.factor())
        out = self.atom()
        if self.peek() != "^":
            return out
        self.pos += 1
        sign = -1 if self.peek() == "-" else 1
        self.pos += sign < 0
        kind, text = self.take()
        if kind != "number" or not text.isdigit() or int(text) == 0:
            raise ParseError("bad exponent")
        try:
            return ex.pow_(out, sign * int(text))
        except ZeroDivisionError:
            raise ParseError("0 raised to a negative power") from None

    def atom(self):
        kind, text = self.take()
        if kind == "number":
            return ex.const(int(text) if text.isdigit() else Fraction(text))
        if text == "(":
            out = self.expr()
            self.eat(")")
            return out
        if kind != "ident":
            raise ParseError(f"unexpected {text!r}")
        if text in ex.FUNCTIONS:
            self.eat("(")
            arg = self.expr()
            self.eat(")")
            return ex.apply(text, arg)
        if text == "i":
            return ex.const(1j)
        if text == "x":
            return ex.X
        m = re.fullmatch(r"(dy|y)([0-9]*)", text)
        if not m:
            return ex.Param(text)
        index = int(m.group(2) or 1)
        if index < 1:
            raise ParseError("bad index")
        return ex.YDot(index) if m.group(1) == "dy" else ex.Y(index)


def _fold_parse(text, line=1, col=1):
    p = _FoldParser(text)
    out = p.expr()
    if p.peek():
        raise ParseError("trailing input")
    return out


_operands = st.sampled_from(["x", "y", "dy2", "a", "2", "0", "1/2", "0.5", "i", "3*i", "(y - y)"])
_source = st.recursive(
    _operands,
    lambda inner: st.one_of(
        st.tuples(st.lists(inner, min_size=2, max_size=5),
                  st.lists(st.sampled_from(["+", "-", "*", "/"]), min_size=4, max_size=4))
        .map(lambda t: "".join(o + op for o, op in zip(t[0], t[1])) + t[0][-1]),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"exp({e})"),
        inner.map(lambda e: f"({e})^2"),
    ),
    max_leaves=16,
)


# Three entries in the format of perfbench's generated `systems` workload
# (only parsed here): a triangular polynomial system, a gradient system
# and one with exp.
_SYSTEMS_TEXT = """
system m000
  n 2
  f1 = (2/3)*((-5)*y2 + 2*((-5)*x + (-6)*y2)*dy2 + ((-6)*x + (-4))*(dy2)^2 + (2/5)*((-5/2)*(x)^2 + (-4)*y2 + (-6)*x*y2)*(4*x + 3))
  f2 = (2/5)*(4*x + 3)
  conserved ((-3/2)*dy1 + (-5)*x*y2 + (-3)*(y2)^2 + ((-5/2)*(x)^2 + (-4)*y2 + (-6)*x*y2)*dy2)
  expect straight
end
system m001
  n 3
  f1 = ((1/2)*y2 + (-3)*y1 + (-2)*(y1)^2 + (5/2)*(y2)^2)
  f2 = ((1/2)*y1 + 5*y1*y2 + (-5)*y2 + 2*(y2)^2 + (1/2)*(y3)^2)
  f3 = (y2*y3 + 5*y3 + 2*(y3)^2)
  expect not-straight
end
system m008
  n 3
  f1 = ((-1/2)*y2 + (-6)*y1 + (-2)*(y1)^2 + (5/2)*(y2)^2)
  f2 = ((-1/2)*y1 + 5*y1*y2 + (-1)*y2 + 2*(y2)^2 + (-2/3)*(y3)^2)
  f3 = ((-4/3)*y2*y3 + (-5)*y3 + (3/2)*(y3)^2 + (-5/2)*exp((-5/2)*y3))
  conserved ((1/2)*(dy1)^2 + (1/2)*(dy2)^2 + (1/2)*(dy3)^2 + (-1)*((-1/2)*y1*y2 + (-3)*(y1)^2 + (-2/3)*(y1)^3 + (5/2)*y1*(y2)^2 + (-1/2)*(y2)^2 + (2/3)*(y2)^3 + (-2/3)*y2*(y3)^2 + (-5/2)*(y3)^2 + (1/2)*(y3)^3 + exp((-5/2)*y3)))
  expect not-straight
end
"""


class TestOperandRuns:
    @given(_source)
    @settings(max_examples=300, deadline=None)
    def test_same_node_as_a_left_fold(self, text):
        try:
            want = _fold_parse(text)
        except ParseError:
            with pytest.raises(ParseError):
                parse_expr(text)
            return
        assert parse_expr(text) is want

    def test_corpus_parses_to_the_same_nodes(self, monkeypatch):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        for name in ("table1.straight", "table2.notstraight", "table2.degenerate", "duals"):
            text = (root / name).read_text()
            got = parse_corpus(text)
            with monkeypatch.context() as m:
                m.setattr(parsing, "parse_expr", _fold_parse)
                want = parse_corpus(text)
            for a, b in zip(got, want, strict=True):
                assert all(p is q for p, q in zip(a.system.rhs, b.system.rhs, strict=True))
                assert all(p is q for p, q in zip(a.conserved, b.conserved, strict=True))

    def test_second_parse_only_looks_up(self, monkeypatch):
        # every node of a parse already seen is found before one is built
        first = parse_corpus(_SYSTEMS_TEXT)
        made = []
        mk = ex._mk
        monkeypatch.setattr(ex, "_mk", lambda node, *args, **kw: made.append(node) or mk(node, *args, **kw))
        second = parse_corpus(_SYSTEMS_TEXT)
        assert made == []
        for a, b in zip(first, second, strict=True):
            assert all(p is q for p, q in zip(a.system.rhs, b.system.rhs, strict=True))
            assert all(p is q for p, q in zip(a.conserved, b.conserved, strict=True))

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_intern_table_grows_linearly(self, n):
        # interning every prefix of the sum would hold n^2/2 term slots
        text = "+".join(f"{k}*run{n}^{k}" for k in range(1, n + 1))
        before = len(ex._intern)
        parse_expr(text)
        added = list(ex._intern.values())[before:]
        assert sum(1 + len(ex.children(e)) for e in added) <= 8 * n


class TestDepth:
    def test_max_depth_parses(self):
        n = parsing._MAX_DEPTH
        assert n == 5000
        assert parse_expr("(" * n + "y" + ")" * n) is y

    def test_one_level_deeper_fails_at_its_own_column(self):
        n = parsing._MAX_DEPTH + 1
        with pytest.raises(ParseError, match="^nested deeper than 5000 levels at line 1, column 5001$"):
            parse_expr("(" * n + "y" + ")" * n)

    def test_calls_are_groups(self):
        n = parsing._MAX_DEPTH + 1
        assert parse_expr("sin(" * (n - 1) + "y" + ")" * (n - 1)) is not None
        with pytest.raises(ParseError, match=f"^nested deeper than 5000 levels at line 1, column {4 * n - 3}$"):
            parse_expr("sin(" * n + "y" + ")" * n)

    def test_to_str_of_a_deep_expression_reparses_to_the_same_node(self):
        e = parse_expr("y*(1+" * 3000 + "y" + ")" * 3000)
        assert parse_expr(to_str(e)) is e

    def test_parsing_is_linear(self):
        import gc
        import statistics
        import time

        def timed(text):
            # the process's own CPU time, with no collection inside the parse
            gc.disable()
            try:
                start = time.process_time()
                parse_expr(text)
                return time.process_time() - start
            finally:
                gc.enable()

        long, short = ("+".join(f"{k}*lin{n}^{k}" for k in range(1, n + 1)) for n in (8000, 4000))
        parse_expr(long), parse_expr(short)  # intern both first
        # five back-to-back pairs, so that a slow spell of the machine
        # slows both parses of a pair; the median pair decides
        ratios = [timed(long) / timed(short) for _ in range(5)]
        assert statistics.median(ratios) < 2.5


class TestOdeSystem:
    def test_division_by_zero_cannot_reach_a_system(self):
        # no right-hand side holds 0^-1: making the node raises
        with pytest.raises(ZeroDivisionError):
            ex.Product([ex.Y(1), ex.Power(ex.Const(0), -1)])

    def test_a_non_expression_is_a_type_error(self):
        with pytest.raises(TypeError, match="not an expression: 3"):
            OdeSystem(rhs=(3,))

    def test_deepcopy_keeps_the_nodes(self):
        import copy

        f = parse_expr("y^2 + a*dy")
        sys_ = OdeSystem(rhs=(f,), params=("a",))
        assert copy.deepcopy(sys_).rhs[0] is f

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            OdeSystem(rhs=(parse_expr("y2"),))

    def test_undeclared_parameter(self):
        with pytest.raises(ValidationError):
            OdeSystem(rhs=(parse_expr("a*y"),))

    def test_declared_parameter_ok(self):
        sys = OdeSystem(rhs=(parse_expr("a*y"),), params=("a",))
        assert sys.params == ("a",)

    @pytest.mark.parametrize("params, match", [
        # a string would be read as its letters: ("a", "b"), and "ab" undeclared
        ("ab", "not the string 'ab'"),
        ("a", "not the string 'a'"),
        (("a", 1), "not a parameter name: 1"),
        ([ex.Param("a")], "not a parameter name: <Expr a>"),
    ])
    def test_params_must_be_names(self, params, match):
        with pytest.raises(TypeError, match=match):
            OdeSystem(rhs=(parse_expr("a*y+b"),), params=params)

    def test_a_system_is_a_named_tuple_of_its_fields(self):
        f = parse_expr("a*y")
        sys_ = OdeSystem([f], ["a"], "s")
        assert sys_ == ((f,), ("a",), "s")
        assert sys_._fields == ("rhs", "params", "name")
        with pytest.raises(AttributeError):
            sys_.name = "t"

    def test_params_may_be_any_sequence_of_names(self):
        sys_ = OdeSystem(rhs=(parse_expr("ab*y"),), params=["ab"])
        assert sys_.params == ("ab",)

    def test_reserved_parameter_name(self):
        with pytest.raises(ValidationError):
            OdeSystem(rhs=(y,), params=("dy7",))

    @pytest.mark.parametrize("text, index", [
        ("y5 + dy7 + y9 + dy3", 3),
        ("dy4 + y6 + dy8 + y2", 4),
        ("y12 + y3 + dy11 + y10", 11),
        ("dy5 + dy6 + y7 + y8 + dy9", 5),
    ])
    def test_index_out_of_range_names_the_first_by_name(self, text, index):
        # free variables are checked in str order, not in the set's order
        with pytest.raises(ValidationError, match=f"variable index {index} outside 1..1$"):
            parse_corpus(f"system s\n n 1\n f1 = {text}\n expect straight\nend")

    def test_n_is_the_number_of_right_hand_sides(self):
        assert OdeSystem(rhs=(parse_expr("y2"), parse_expr("y1"))).n == 2
        with pytest.raises(ValidationError, match="^empty: no right-hand side$"):
            OdeSystem(rhs=(), name="empty")
        with pytest.raises(TypeError):
            OdeSystem(n=1, rhs=(y,))

    @pytest.mark.parametrize("n, f, match", [
        ("0", "", "^s: n must be positive$"),
        ("-1", "", "^s: n must be positive$"),
        ("0", " f1 = y\n", "^s: f1 outside n=0$"),
    ])
    def test_corpus_dimension_must_be_positive(self, n, f, match):
        with pytest.raises(ValidationError, match=match):
            parse_corpus(f"system s\n n {n}\n{f} expect straight\nend")

    @pytest.mark.parametrize("text, error, match", [
        # a division by a constant zero fails while parsing, at the "/"
        ("y/0", ParseError, "^division by zero at line 1, column 2$"),
        ("1/(y-y)", ValidationError, "^undefined: f2 "),
        ("log(0*y)", ValidationError, "^undefined: f2 "),
    ], ids=["y/0", "1/(y-y)", "log(0*y)"])
    def test_undefined_rhs_rejected(self, text, error, match):
        with pytest.raises(error, match=match):
            OdeSystem(rhs=(parse_expr("y2"), parse_expr(text)), name="undefined")

    def test_fixed_parameter_takes_declared_value(self):
        OdeSystem(rhs=(parse_expr("y/(a - 2)"),), params=("a",))
        with pytest.raises(ValidationError, match="^s: 0 raised to a negative power in f1$"):
            parse_corpus("system s\n n 1\n param a = 2\n f1 = y/(a - 2)\n expect straight\nend")
        with pytest.raises(ValidationError, match="^s: 0 raised to a negative power in conserved quantity 2$"):
            parse_corpus("system s\n n 1\n param a = 2\n f1 = y\n conserved y\n conserved 1/(a - 2)\n"
                         " expect straight\nend")

    def test_fixed_policy_needs_value(self):
        # a parameter is generic, generic-nonzero or a constant value
        for policy in ("", "fixed", "generic = 3", "= x"):
            with pytest.raises(ParseError):
                parse_corpus(f"system s\n n 1\n param a {policy}\n f1 = y\n expect straight\nend")


CORPUS = """
# comment line

system demo
  n 2
  param a generic
  param b generic-nonzero
  param c = 3/2
  f1 = a*dy2 + c*y1
  f2 = b*y2
  conserved y1 + y2
  expect unspecified
  note just a demo
end
"""


class TestParseCorpus:
    def test_full_block(self):
        (entry,) = parse_corpus(CORPUS)
        assert entry.system.name == "demo"
        assert entry.system.n == 2
        assert entry.expect == "unspecified"
        assert len(entry.conserved) == 1
        assert entry.notes == ("just a demo",)
        # every declared name is a parameter; a fixed one's value is in the entry
        assert entry.system.params == ("a", "b", "c")
        assert entry.system.rhs == (parse_expr("a*dy2 + 3/2*y1"), parse_expr("b*y2"))

    def test_transcription_uncertain_flag(self):
        text = CORPUS.replace("note just a demo", "note transcription-uncertain")
        (entry,) = parse_corpus(text)
        assert entry.transcription_uncertain

    def test_missing_rhs(self):
        with pytest.raises(ValidationError, match="missing f2"):
            parse_corpus("system s\n n 2\n f1 = y1\n expect straight\nend")

    def test_rhs_outside_dimension(self):
        with pytest.raises(ValidationError, match="f2"):
            parse_corpus("system s\n n 1\n f1 = y\n f2 = y\n expect straight\nend")

    def test_unclosed_block(self):
        with pytest.raises(ParseError, match="not closed"):
            parse_corpus("system s\n n 1\n f1 = y\n expect straight")

    def test_missing_expect(self):
        with pytest.raises(ValidationError, match="expect"):
            parse_corpus("system s\n n 1\n f1 = y\nend")

    def test_bad_expectation(self):
        with pytest.raises(ParseError):
            parse_corpus("system s\n n 1\n f1 = y\n expect maybe\nend")

    @pytest.mark.parametrize("line, word", [
        (" n 1", "n"),
        (" f1 = 6*y^2", "f1"),
        (" expect not-straight", "expect"),
    ], ids=["n", "f1", "expect"])
    def test_a_second_directive_line_is_an_error(self, line, word):
        # each directive before "end" holds one value; a repeat is not a silent override
        text = f"system s\n n 1\n f1 = 6*y^2\n expect straight\n{line}\nend"
        with pytest.raises(ParseError, match=f"^duplicate {word} at line 5, column 1$"):
            parse_corpus(text)

    def test_tabs_separate_directives_from_arguments(self):
        text = "system\ttabbed\n n\t2\n f1\t=\ty1\n f2 \t= \tdy1\n param\ta\tgeneric\n expect\tstraight\nend"
        (entry,) = parse_corpus(text)
        assert entry.system.name == "tabbed" and entry.system.n == 2
        assert entry.system.rhs == (ex.Y(1), ex.YDot(1))
        assert entry.system.params == ("a",)
        assert entry.expect == "straight"
        with pytest.raises(ParseError, match="at line 3, column 10$"):
            parse_corpus("system s\n n 1\n f1\t=\t0^-1\n expect straight\nend")

    @pytest.mark.parametrize("text, error, match", [
        # a division by a constant zero fails while parsing, at the "/"
        ("y/0", ParseError, "^division by zero at line 5, column 13$"),
        ("log(0*y)", ValidationError, "^s: conserved quantity 2 cannot be evaluated"),
    ], ids=["y/0", "log(0*y)"])
    def test_undefined_conserved_quantity_rejected(self, text, error, match):
        block = f"system s\n n 1\n f1 = y\n conserved dy\n conserved {text}\n expect straight\nend"
        with pytest.raises(error, match=match):
            parse_corpus(block)

    @pytest.mark.parametrize("line, col, message", [
        ("  f1 = y + )", 12, "unexpected ')'"),
        (" conserved  dy*(y", 18, "unexpected end of input"),
        ("param a =  y", 12, "fixed parameter value must be a constant"),
    ], ids=["rhs", "conserved", "fixed-param"])
    def test_error_column_counts_from_the_line(self, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_corpus(f"system s\n n 1\n{line}\n f1 = y\n expect straight\nend")
        assert (err.value.line, err.value.col) == (3, col)
        assert str(err.value).startswith(f"{message} at line 3, column {col}")

    def test_shipped_corpus_parses(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        total = 0
        for name in ("table1.straight", "table2.notstraight", "table2.degenerate", "duals"):
            entries = parse_corpus((root / name).read_text())
            assert entries
            total += len(entries)
        assert total >= 38
