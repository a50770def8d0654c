"""Source language: grammar, round trips, error positions."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcalc.cells import Inf, RawMono, Zero
from cfcalc.core import CExpr, LogExprAtom, Term
from cfcalc.errors import ParseError
from cfcalc.parser import (
    _TOKEN_RE,
    _tokenize,
    parse,
    print_cell,
    print_expr,
    print_source,
)


def test_single_term_with_cell():
    form = parse("x1^(-1/2) * log(x1)^2 on cell { 0 < x1 < 1 }")
    (t,) = form.expr.terms
    assert t.exps[0] == F(-1, 2) and t.logpows[0] == 2
    assert form.names == ("x1",)


def test_composite_log_deferred():
    form = parse("log(1 + 1/2 * x1) on {0 < x1 < 1}")
    (t,) = form.expr.terms
    assert any(isinstance(a, LogExprAtom) for a, _ in t.extras)


def test_simple_log_expands_at_parse():
    form = parse("log(4 * x1^(1/2))")
    vals = sorted((t.logpows, t.extras != ()) for t in form.expr.terms)
    assert vals == [((0,), True), ((1,), False)]


def test_undeclared_variable():
    with pytest.raises(ParseError):
        parse("x1 + y on {0 < x1 < 1}")


def test_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse("x1 + $ on {0<x1<1}")
    assert "1:5" in str(exc.value)


def test_decimals_rejected():
    with pytest.raises(ParseError):
        parse("1.5 * x1 on {0<x1<1}")


def test_duplicate_cell_variable():
    with pytest.raises(ParseError):
        parse("x1 on {0<x1<1, 0<x1<1}")


def test_forward_bound_reference_rejected():
    with pytest.raises(ParseError):
        parse("x1 on {0 < x1 < x2, 0 < x2 < 1}")


def test_inf_bound():
    form = parse("5 on {2 < x1 < inf}")
    assert isinstance(form.raw_cell.vars[0].upper, Inf)
    assert form.raw_cell.vars[0].lower == RawMono.const(2, 1)


def test_thin_chain():
    form = parse("x2 on {0 < x1 < 1, x2 = 1/2 * x1}")
    assert form.raw_cell.vars[1].thin == RawMono(F(1, 2), form.raw_cell.vars[1].thin.exps)


def test_print_zero():
    form = parse("x1 - x1 on {0<x1<1}")
    assert print_expr(form.expr) == "0"


def test_print_deterministic_order():
    a = parse("y1 + y2 on {0<y1<1, 0<y2<1}")
    b = parse("y2 + y1 on {0<y1<1, 0<y2<1}")
    assert print_expr(a.expr, a.names) == print_expr(b.expr, b.names)


ROUND_TRIP_CORPUS = [
    "x1 on {0 < x1 < 1}",
    "x1^(-1/2) * log(x1)^2 on cell { 0 < x1 < 1 }",
    "log(4 * x1^(1/2))",
    "1 on {0<y1<1, 0<y2<y1}",
    "y1^(-1) - y1^(-1)*log(y1) on {0<y1<1}",
    "3/2 * x1^(2) * log(x1 * x2) + x2 on {0<x1<1, 0<x2<x1}",
    "log(1 + 1/2 * x1) on {0 < x1 < 1}",
    "5 on {2 < x1 < inf}",
    "x2 + x1 * x2^(3/2) on {0<x1<1, 1/4 * x1^(2) < x2 < x1}",
    "log(x1)^3 - 2 on {0 < x1 < 1}",
    "x2 on {0 < x1 < 1, x2 = 1/2 * x1}",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_round_trip_fixed_corpus(src):
    a = parse(src)
    b = parse(print_source(a))
    assert a.expr == b.expr
    assert a.raw_cell == b.raw_cell


def test_round_trip_random_corpus(rng):
    # 100 printed random forms re-parse to themselves
    names = ["x1", "x2"]
    count = 0
    while count < 100:
        terms = []
        for _ in range(rng.randint(1, 3)):
            terms.append(
                Term.make(
                    F(rng.randint(-5, 5) or 1, rng.choice([1, 2])),
                    [F(rng.randint(-3, 3), 2), F(rng.randint(0, 4), 2)],
                    [rng.randint(0, 2), rng.randint(0, 2)],
                )
            )
        e = CExpr(2, tuple(terms))
        src = f"{print_expr(e, names)} on {{0 < x1 < 1, 0 < x2 < x1}}"
        a = parse(src)
        b = parse(print_source(a))
        assert a.expr == b.expr and a.raw_cell == b.raw_cell
        count += 1


def test_print_cell_forms():
    form = parse("x1 on {2 < x1 < inf}")
    assert print_cell(form.raw_cell) == "{2 < x1 < inf}"
    form2 = parse("x2 on {0 < x1 < 1, 1/4 * x1^(2) < x2 < x1}")
    assert print_cell(form2.raw_cell) == "{0 < x1 < 1, 1/4 * x1^(2) < x2 < x1}"


def test_expr_only_gets_unit_cube():
    form = parse("x2 * x1")
    assert form.names == ("x1", "x2")
    for rv in form.raw_cell.vars:
        assert isinstance(rv.lower, Zero)
        assert rv.upper == RawMono.const(1, 2)


def test_keyword_collision():
    with pytest.raises(ParseError):
        parse("log on {0 < x1 < 1}")


# The tokenizer as it was before it carried the line along: it recounted the
# newlines from the start of the source for every token.  Kept as the
# reference for positions and error messages.
@dataclass(frozen=True)
class _OldTok:
    kind: str
    text: str
    line: int
    col: int


def _old_tokenize(src):
    toks = []
    line = 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            line = src.count("\n", 0, bad_at) + 1
            col = bad_at - (src.rfind("\n", 0, bad_at) + 1)
            if stripped[0] == ".":
                raise ParseError(
                    "decimal literals are rejected; use exact rationals",
                    line, col,
                )
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        line = src.count("\n", 0, start) + 1
        col = start - (src.rfind("\n", 0, start) + 1)
        if m.group("num"):
            toks.append(_OldTok("num", m.group("num"), line, col))
        elif m.group("name"):
            toks.append(_OldTok("name", m.group("name"), line, col))
        else:
            toks.append(_OldTok("op", m.group("op"), line, col))
        pos = m.end()
    toks.append(_OldTok("eof", "", line, 0))
    return toks


def _tokenized(tokenize, src):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]
    except ParseError as exc:
        return ("error", exc.line, exc.column, str(exc))


_FRAGMENTS = [
    "log", "on", "cell", "inf", "x1", "y2", "_a9", "logx", "3", "12/5", "0",
    "1/0", "1.5", ".5", "2.", "-", "+", "*", "^", "(", ")", "{", "}", "<", "=",
    ",", " ", "  ", "\t", "\n", "\n\n", "\r\n", "\x0b", "\u00a0", "\u2028",
    "#", "$", ".", "!", "\u00e9", "\u0663", "/", "[",
]
_SOURCES = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)), max_size=40
).map("".join)


@settings(max_examples=400)
@given(_SOURCES)
def test_tokenize_matches_old_tokenizer(src):
    assert _tokenized(_tokenize, src) == _tokenized(_old_tokenize, src)


@pytest.mark.parametrize("src", [
    "", "  \n\t ", "x1 +\n\n  y1\n  ", "x1\n\t+ 1.5", "x1 +\n  #",
    "log(y1)^2 on\n{0<y1<1}\n\n", "\n\n  .5",
])
def test_tokenize_matches_old_tokenizer_on_fixed_sources(src):
    assert _tokenized(_tokenize, src) == _tokenized(_old_tokenize, src)
