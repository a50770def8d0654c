"""Source language: grammar, round trips, error positions."""

import gzip
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction, Fraction as F
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cfcalc import cli, parser
from cfcalc.cells import INF, Inf, RawCell, RawMono, RawVar, ZERO, Zero
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogComposite,
    LogExprAtom,
    LogPrime,
    LogUnitAtom,
    LogVar,
    PolyUnit,
    Term,
    expand_log_power,
    log_of_monomial_unit,
    normalize,
    prime_form,
    term_mul,
    times_log_power,
)
from cfcalc.errors import CalcError, ParseError
from cfcalc.parser import (
    SourceForm,
    _KEYWORDS,
    _empty_between,
    _natural_key,
    _position,
    _print_unit,
    _print_varpow,
    _tokenize,
    parse,
    print_cell,
    print_expr,
    print_source,
)
from tests.conftest import source_texts

ROOT = Path(__file__).resolve().parents[1]


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


def test_undeclared_variable_is_reported_at_its_token():
    # the cell is read first, so the expression meets y with x1 declared
    with pytest.raises(ParseError) as exc:
        parse("x1 +\n  2 * y on {0 < x1 < 1}")
    assert (exc.value.line, exc.value.column) == (2, 6)
    assert str(exc.value) == "2:6: undeclared variable 'y'"


def test_logs_of_sums_that_differ_in_a_coefficient_are_two_terms():
    # the arguments' terms have the same signatures; their coefficients
    # tell the two logs apart
    for op in "+-":
        form = parse(f"log(1 + x1) {op} log(2 + x1) on {{0 < x1 < 1}}")
        assert len(form.expr.terms) == 2
        args = {a.arg for t in form.expr.terms for a, _ in t.extras}
        assert len(args) == 2


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


@pytest.mark.parametrize("src,where,message", [
    ("x1 on {0<x1<1,\n  2<x2<1}", (2, 4), "invalid bounds for 'x2'"),
    ("x1 on {0<x1<1, 0<x1<1}", (1, 17),
     "duplicate variable in cell: ['x1', 'x1']"),
    ("x1 on {0 < x1 < x2, 0 < x2 < 1}", (1, 16),
     "bound references 'x2', which is not an earlier variable"),
    ("x1 on {0 < x1 < 1, 0 < x2 < y^(2)}", (1, 28),
     "undeclared variable 'y' in a bound"),
    ("x1 on {0<x1<1, x2 = 0*x1}", (1, 15),
     "thin variable 'x2' needs a monomial graph"),
], ids=["bounds", "duplicate", "later", "undeclared", "thin"])
def test_cell_errors_are_reported_at_their_token(src, where, message):
    # a variable's bounds and name at its name, a bound's variable at its own
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.column) == where
    assert str(exc.value) == f"{where[0]}:{where[1]}: {message}"


def test_upper_bound_zero_parses():
    # (-1, 0) is not empty; the cell normalization mirrors it
    (var,) = parse("x1 on {-1 < x1 < 0}").raw_cell.vars
    assert (var.lower, var.upper) == (RawMono.const(-1, 1), ZERO)


def test_inf_bound():
    form = parse("5 on {2 < x1 < inf}")
    assert isinstance(form.raw_cell.vars[0].upper, Inf)
    assert form.raw_cell.vars[0].lower == RawMono.const(2, 1)


def test_zero_coefficient_bound_is_zero():
    # 0 * x1 is the bound 0, not a monomial bound with coefficient 0
    form = parse("x2 on {0 < x1 < 1, 0 * x1 < x2 < x1}")
    assert form.raw_cell == parse("x2 on {0 < x1 < 1, 0 < x2 < x1}").raw_cell


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


def _check_print_parse_round_trip(form):
    """Printing, parsing and printing again gives the same text, the same
    raw cell and the same prime-log terms."""
    text = print_source(form)
    again = parse(text)
    assert print_source(again) == text
    assert again.raw_cell == form.raw_cell
    assert prime_form(again.expr) == prime_form(form.expr)


def _golden_sources():
    """Every distinct source of the benchmark's cli-mix and log-growth
    goldens; the few that do not parse are refusals with exit 2."""
    sources = set()
    for pool in ("cli-mix", "log-growth"):
        golden = ROOT / "bench" / "goldens" / f"{pool}.json.gz"
        entries = json.loads(gzip.decompress(golden.read_bytes()))["entries"]
        sources |= {e["argv"][1] for e in entries if e["argv"][0] != "validate"}
    return sorted(sources)


def test_golden_sources_print_and_parse_back():
    sources = _golden_sources()
    parsed = 0
    for source in sources:
        try:
            form = parse(source)
        except ParseError:
            continue
        _check_print_parse_round_trip(form)
        parsed += 1
    assert (parsed, len(sources)) == (700, 711)


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(source_texts())
def test_drawn_sources_print_and_parse_back(drawn):
    try:
        form = parse(drawn[1])
    except (ParseError, CalcError):
        return
    _check_print_parse_round_trip(form)


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


# The tokenizer as it was when tokens carried their line and column: it
# recounted the newlines from the start of the source for every token.  Kept
# as the reference for positions and error messages, with two changes made
# in the parser: numbers are ASCII digits (the pattern's [0-9], where it had
# \d), and the end of input lies just past the last token (it was column 0).
_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(){}<=,]))"
)


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
        m = _OLD_TOKEN_RE.match(src, pos)
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
    toks.append(_OldTok("eof", "", line, pos - (src.rfind("\n", 0, pos) + 1)))
    return toks


def _kind(text):
    """A token's kind, from its first character."""
    if not text:
        return "eof"
    if text[0].isascii() and text[0].isdigit():
        return "num"
    return "name" if text[0].isalpha() or text[0] == "_" else "op"


def _tokenized(src):
    """The tokens of src as (kind, text, line, column), or the error."""
    try:
        return [(_kind(t), t, *_position(src, at))
                for at, t in enumerate(_tokenize(src))]
    except ParseError as exc:
        return ("error", exc.line, exc.column, str(exc))


def _old_tokenized(src):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _old_tokenize(src)]
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
    assert _tokenized(src) == _old_tokenized(src)


@pytest.mark.parametrize("src", [
    "", "  \n\t ", "x1 +\n\n  y1\n  ", "x1\n\t+ 1.5", "x1 +\n  #",
    "log(y1)^2 on\n{0<y1<1}\n\n", "\n\n  .5", "y1 * \u0663",
])
def test_tokenize_matches_old_tokenizer_on_fixed_sources(src):
    assert _tokenized(src) == _old_tokenized(src)


# The parser as it was when each factor was multiplied into the running
# product of terms as it was read: a number scaled every term, a variable
# power rebuilt every term's exponents, and a log's argument was parsed,
# normalized and expanded as a sum of terms.  Kept as the reference for the
# accumulator, over the reference tokenizer above.
class _ReferenceParser:
    def __init__(self, src: str):
        self.toks = _old_tokenize(src)
        self.i = 0

    def peek(self) -> _OldTok:
        return self.toks[self.i]

    def next(self) -> _OldTok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _OldTok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def expect_end(self, end: int) -> None:
        if self.i != end:
            raise self.error(f"unexpected trailing input {self.peek().text!r}")

    def declare(self, names: Sequence[str]) -> None:
        """Fix every variable's final position before any term is built."""
        self.positions = {n: i for i, n in enumerate(names)}
        self.nv = nv = len(names)
        self.one = Term(Fraction(1), ExpVec.zero(nv), (0,) * nv)

    # -- numbers and variables ------------------------------------------------

    def parse_rat(self) -> Fraction:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        t = self.next()
        if t.kind != "num":
            raise ParseError(f"expected a rational, found {t.text!r}", t.line, t.col)
        if "/" in t.text:
            a, b = t.text.split("/")
            if int(b) == 0:
                raise ParseError("zero denominator", t.line, t.col)
            v = Fraction(int(a), int(b))
        else:
            v = Fraction(int(t.text))
        return -v if neg else v

    # -- expressions: lists of terms over the declared positions ---------------

    def parse_expr(self) -> list[Term]:
        out = self.parse_term(1)
        while self.peek().text in ("+", "-"):
            out += self.parse_term(-1 if self.next().text == "-" else 1)
        return out

    def parse_term(self, sign: int) -> list[Term]:
        while self.peek().text == "-":
            self.next()
            sign = -sign
        out = self.parse_factor([self.one.scaled(sign)])
        while self.peek().text == "*":
            self.next()
            out = self.parse_factor(out)
        return out

    def parse_factor(self, base: list[Term]) -> list[Term]:
        """The product of base and the next factor."""
        t = self.peek()
        if t.kind == "num":
            q = self.parse_rat()
            return [b.scaled(q) for b in base] if q else []
        if t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return [x for a in base for b in inner for x in term_mul(a, b)]
        if t.kind != "name":
            raise self.error(f"expected a factor, found {t.text or 'end of input'!r}")
        if t.text == "log":
            self.next()
            self.expect("(")
            arg = normalize(CExpr(self.nv, tuple(self.parse_expr())))
            self.expect(")")
            power = 1
            if self.peek().text == "^":
                self.next()
                ptok = self.peek()
                p = self.parse_rat()
                if p.denominator != 1 or p <= 0:
                    raise ParseError(
                        "log powers must be positive integers", ptok.line, ptok.col
                    )
                power = int(p)
            if not arg.terms:
                raise ParseError("log of zero", t.line, t.col)
            pieces = _log_pieces(arg, power, self.nv)
            return [x for b in base for x in times_log_power(b, pieces)]
        name = self.next().text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is a keyword", t.line, t.col)
        pos = self.positions.get(name)
        if pos is None:
            raise ParseError(f"undeclared variable {name!r}", t.line, t.col)
        power = self.parse_power()
        return [b.with_exps(b.exps.with_entry(pos, b.exps[pos] + power)) for b in base]

    # -- cells -----------------------------------------------------------------

    def parse_cell(self) -> RawCell:
        self.expect("{")
        chains = [self.parse_chain()]
        while self.peek().text == ",":
            self.next()
            chains.append(self.parse_chain())
        self.expect("}")
        names = [c[0].text for c in chains]
        for i, (tok, *_) in enumerate(chains):
            if tok.text in names[:i]:
                raise ParseError(f"duplicate variable in cell: {names}",
                                 tok.line, tok.col)
        self.declare(names)
        rawvars = []
        for i, (tok, lower, upper, thin) in enumerate(chains):
            name = tok.text
            if thin is not None:
                tb = self.resolve(thin, i)
                if not isinstance(tb, RawMono):
                    raise ParseError(f"thin variable {name!r} needs a monomial graph",
                                     tok.line, tok.col)
                rawvars.append(RawVar(name, ZERO, RawMono.const(1, self.nv), thin=tb))
                continue
            lo = self.resolve(lower, i)
            hi = self.resolve(upper, i)
            # a non-empty fiber ending at 0 is left to normalize_cell:
            # (-b, 0) mirrors
            if isinstance(lo, Inf) or _empty_between(lo, hi, rawvars):
                raise ParseError(f"invalid bounds for {name!r}", tok.line, tok.col)
            rawvars.append(RawVar(name, lo, hi))
        return RawCell(tuple(rawvars))

    def parse_chain(self):
        """(name token, lower, upper, thin); parse_cell resolves the bounds."""
        save = self.i
        t = self.peek()
        if t.kind == "name" and t.text not in _KEYWORDS:
            name_tok = self.next()
            if self.peek().text == "=":
                self.next()
                bound = self.parse_bound()
                return (name_tok, None, None, bound)
            self.i = save
        lower = self.parse_bound()
        self.expect("<")
        vt = self.next()
        if vt.kind != "name" or vt.text in _KEYWORDS:
            raise ParseError("expected a variable name", vt.line, vt.col)
        self.expect("<")
        upper = self.parse_bound()
        return (vt, lower, upper, None)

    def parse_bound(self):
        t = self.peek()
        if t.text == "inf":
            self.next()
            return INF
        q, factors = Fraction(1), []
        if t.kind == "num" or t.text == "-":
            q = self.parse_rat()
        elif t.kind == "name" and t.text not in _KEYWORDS:
            factors.append(self.parse_varpow())
        else:
            raise ParseError(f"expected a bound, found {t.text!r}", t.line, t.col)
        while self.peek().text == "*":
            self.next()
            factors.append(self.parse_varpow())
        return (q, factors)

    def parse_varpow(self) -> tuple[_OldTok, Fraction]:
        t = self.next()
        if t.kind != "name" or t.text in _KEYWORDS:
            raise ParseError("expected a variable name", t.line, t.col)
        return (t, self.parse_power())

    def parse_power(self) -> Fraction:
        """['^' '(' RAT ')'], 1 when absent."""
        if self.peek().text != "^":
            return Fraction(1)
        self.next()
        self.expect("(")
        power = self.parse_rat()
        self.expect(")")
        return power

    def resolve(self, bound, upto: int):
        if bound is INF:
            return bound
        q, factors = bound
        exps = [Fraction(0)] * self.nv
        for tok, power in factors:
            name = tok.text
            if name not in self.positions:
                raise ParseError(f"undeclared variable {name!r} in a bound",
                                 tok.line, tok.col)
            j = self.positions[name]
            if j >= upto:
                raise ParseError(
                    f"bound references {name!r}, which is not an earlier variable",
                    tok.line, tok.col,
                )
            exps[j] += power
        if q == 0:
            # 0 * y^e is the bound 0 whatever the variables
            return ZERO
        return RawMono(q, ExpVec(tuple(exps)))



def _log_pieces(arg: CExpr, power: int, nvars: int):
    """(log arg)^power: expand immediately for single positive monomials,
    defer composites for preparation."""
    if len(arg.terms) == 1:
        t = arg.terms[0]
        if not any(t.logpows) and not t.extras and t.unit.is_trivial and t.coeff > 0:
            items = log_of_monomial_unit(t.coeff, t.exps, PolyUnit.one())
            return expand_log_power(items, power, nvars)
    # a deferred argument keeps its constant logs over primes, as printed:
    # its terms are part of the signature of every term it enters
    return [(Fraction(1), (0,) * nvars, ((LogExprAtom(prime_form(arg)), power),))]



def _parse_reference(text: str) -> SourceForm:
    """The cell first, so that every variable has its final position before
    the expression's terms are built: the cell after the top-level 'on', or
    without one the unit cube over the expression's variables in natural
    order (x2 before x10)."""
    p = _ReferenceParser(text)
    depth = 0
    for on, t in enumerate(p.toks):
        depth += (t.text == "(") - (t.text == ")")
        if t.text == "on" and depth == 0:
            p.i = on + 1
            if p.peek().text == "cell":
                p.next()
            raw = p.parse_cell()
            p.expect_end(len(p.toks) - 1)
            break
    else:
        on = len(p.toks) - 1
        names = sorted({t.text for t in p.toks
                        if t.kind == "name" and t.text not in _KEYWORDS},
                       key=_natural_key)
        p.declare(names)
        raw = RawCell(tuple(RawVar(n, ZERO, RawMono.const(1, p.nv)) for n in names))
    p.i = 0
    terms = p.parse_expr()
    p.expect_end(on)
    return SourceForm(raw, normalize(CExpr(p.nv, tuple(terms))))



def _outcome(parse_source, src):
    """The parsed form, or the error with its position."""
    try:
        return parse_source(src)
    except ParseError as exc:
        return ("parse error", exc.line, exc.column, str(exc))
    except CalcError as exc:
        return (type(exc).__name__, str(exc))


def test_parser_matches_reference_on_golden_sources():
    sources = _golden_sources()
    assert len(sources) == 711
    for source in sources:
        assert _outcome(parse, source) == _outcome(_parse_reference, source), source


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(source_texts())
def test_parser_matches_reference_on_drawn_sources(drawn):
    assert _outcome(parse, drawn[1]) == _outcome(_parse_reference, drawn[1])


@settings(max_examples=400, deadline=None)
@given(_SOURCES)
def test_parser_errors_match_reference(src):
    assert _outcome(parse, src) == _outcome(_parse_reference, src)


@pytest.mark.parametrize("src", [
    "log(y1 + y1)", "log(2*y1 - y1)^2", "log(y1*log(y1))", "log(log(y1))",
    "log(1)", "log(1) * y1", "log(0*y1)", "0 * log(2*y1)", "log(2*y1) * 0",
    "log(-y1)", "log()", "log(y1 *)", "log(y1 y2)", "log(y1^(1/2))^3",
    "y1 * (y1 + 1) * 2", "(y1 - y1) * log(3*y1)", "--y1 * -(1)",
    "-(y1 + 2) * (log(2) + y1) * y1^(-1) * log(6*y1)^2",
    "log(4) * y1 * log(6*y1)^2 * 3/2 * log(y1)", "y1 * y1^(-1) * log(y1)",
    "2 * 3 * 4/5 * log(7/3*y1) * y2", "log(on)", "y1 * on", "1 * 1/1 * y1",
])
def test_parser_matches_reference_on_fixed_sources(src):
    src = f"{src} on {{0<y1<1, 0<y2<y1}}"
    assert _outcome(parse, src) == _outcome(_parse_reference, src)


@pytest.mark.parametrize("src,where", [
    ("y1*", "1:3"), ("(y1", "1:3"), ("log(y1", "1:6"), ("y1 on", "1:5"),
    ("y1 on {0<y1<1", "1:13"), ("y1 *\n  ", "1:4"),
])
def test_end_of_input_is_reported_past_the_last_token(src, where, capsys):
    assert cli.main(["integrate", src]) == 2
    assert f"{where}: " in capsys.readouterr().err
    with pytest.raises(ParseError, match="end of input"):
        parse(src)


def test_non_ascii_digits_are_rejected(capsys):
    # U+0663 (ARABIC-INDIC DIGIT THREE) is a decimal digit, not a number
    assert cli.main(["integrate", "\u0663 * y1 on {0<y1<1}"]) == 2
    assert "1:0: unexpected character '\u0663'" in capsys.readouterr().err


def test_one_term_per_product(monkeypatch):
    # numbers, variable powers and a log of a variable update one
    # accumulator: the product builds one Term, and normalize what it builds
    built = [0]
    in_normalize = [0]
    init = Term.__init__
    norm = parser.normalize

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counting_normalize(e):
        before = built[0]
        out = norm(e)
        in_normalize[0] += built[0] - before
        return out

    monkeypatch.setattr(Term, "__init__", counting_init)
    monkeypatch.setattr(parser, "normalize", counting_normalize)
    form = parse("3/2 * y1^(1/2) * y2^(2) * log(y1)^2 on {0<y1<1, 0<y2<y1}")
    (t,) = form.expr.terms
    assert (t.coeff, tuple(t.exps), t.logpows) == (F(3, 2), (F(1, 2), 2), (2, 0))
    assert built[0] - in_normalize[0] == 1


# -- printing over primes, against the route that built prime-form terms ------


def _print_reference(e, names=None):
    """print_expr as it was: prime_form builds every term over primes, then
    each term is formatted factor by factor."""
    e = prime_form(e)
    if not e.terms:
        return "0"
    names = names or [f"x{i+1}" for i in range(e.nvars)]
    parts = []
    for idx, t in enumerate(e.terms):
        factors = [
            _print_varpow(names[i], ex) for i, ex in enumerate(t.exps) if ex
        ]
        factors += [
            f"log({names[i]})" + (f"^{l}" if l > 1 else "")
            for i, l in enumerate(t.logpows)
            if l
        ]
        for atom, k in t.extras:
            if isinstance(atom, LogPrime):
                arg = str(atom.prime)
            elif isinstance(atom, LogUnitAtom):
                arg = _print_unit(atom.unit, names)
            else:
                arg = _print_reference(atom.arg, names)
            factors.append(f"log({arg})" + (f"^{k}" if k > 1 else ""))
        if not t.unit.is_trivial:
            factors.append(_print_unit(t.unit, names))
        mag = abs(t.coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " * ".join(factors)
        if idx == 0:
            parts.append(body if t.coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if t.coeff > 0 else f"- {body}")
    return " ".join(parts)


def _composite(*primes):
    return LogComposite(math.prod(primes), primes)


_UNIT = PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)})
# a deferred log argument whose own constant log is a composite
_NESTED = LogExprAtom(CExpr(2, (
    Term.make(1, [0, 0]),
    Term.make(F(1, 2), [1, 0], extras=[(_composite(2, 3), 2)]),
)))
_CONSTANT_LOGS = [LogPrime(p) for p in (2, 3, 5, 7, 11)] + [
    _composite(*ps) for ps in ((2, 3), (2, 5), (5, 7), (3, 7, 11), (2, 3, 5))
]
_PRINT_ATOMS = st.one_of(
    st.sampled_from(_CONSTANT_LOGS),
    st.sampled_from([LogUnitAtom(_UNIT), _NESTED]),
)
_PRINT_TERMS = st.builds(
    Term.make,
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
    # few monomials, so that rows of different terms share one and sort by
    # their constant logs
    st.lists(st.sampled_from([F(0), F(1), F(-1, 2)]), min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=2),
    st.lists(st.tuples(_PRINT_ATOMS, st.integers(min_value=1, max_value=3)),
             max_size=4),
    st.sampled_from([
        PolyUnit.one(), PolyUnit(F(-3, 2)),
        PolyUnit.build(2, {ExpVec.of([0, 1]): F(-1, 2)}),
    ]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PRINT_TERMS, max_size=4))
def test_print_expr_matches_prime_form_route(terms):
    e = CExpr(2, tuple(terms))
    assert print_expr(e, ["y1", "y2"]) == _print_reference(e, ["y1", "y2"])


@st.composite
def _composite_beside_kept_primes(draw):
    """Terms that share one composite log and keep prime logs above, inside
    and below its primes, each prime in one term only: the constant logs of
    the sum are pairwise coprime, so normalize keeps them all."""
    primes = draw(st.sampled_from([(3, 7), (5, 11), (2, 5, 13)]))
    pool = [p for p in (2, 3, 5, 7, 11, 13, 17) if p not in primes]
    kept = draw(st.lists(st.lists(st.sampled_from(pool), max_size=2),
                         min_size=1, max_size=3))
    terms, used = [], set()
    for ps in kept:
        extras = [(_composite(*primes), draw(st.integers(min_value=1, max_value=3)))]
        extras += [(LogPrime(p), draw(st.integers(min_value=1, max_value=2)))
                   for p in sorted(set(ps) - used)]
        used.update(ps)
        if draw(st.booleans()):
            extras.append((LogUnitAtom(_UNIT), 1))
        coeff = draw(st.fractions(min_value=-9, max_value=9, max_denominator=6))
        terms.append(Term.make(coeff or 1, draw(st.sampled_from([[0, 0], [1, 0]])),
                               None, extras))
    return CExpr(2, tuple(terms))


@settings(max_examples=200, deadline=None)
@given(_composite_beside_kept_primes())
def test_print_expr_matches_prime_form_route_beside_kept_primes(e):
    assert print_expr(e, ["y1", "y2"]) == _print_reference(e, ["y1", "y2"])


def _sum(*terms):
    return CExpr(2, tuple(Term.make(*t) for t in terms))


_Y1 = [1, 0]


@pytest.mark.parametrize("e", [
    CExpr(2, ()),
    # several composites in one term; a kept prime between a composite's primes
    _sum((3, _Y1, [0, 1], [(_composite(2, 3), 2), (_composite(5, 7), 1)])),
    _sum((-1, _Y1, None, [(LogPrime(3), 1), (_composite(2, 5), 2)])),
    # 1/6 * 3 = 1/2: the multinomial cancels part of the denominator
    _sum((F(1, 6), [0, 0], None, [(_composite(2, 3, 5), 3)]), (-1, [0, 0])),
    _sum((1, [0, 0]), (F(-5, 4), _Y1, [1, 0], [(_composite(2, 3), 1)])),
    # rows of two terms with one monomial interleave by their prime logs
    _sum((1, _Y1, None, [(_composite(2, 3), 2), (LogUnitAtom(_UNIT), 1)]),
         (2, _Y1, None, [(_composite(2, 3), 1)])),
    # unit and expression logs and a non-trivial unit
    _sum((F(-2, 3), _Y1, None,
          [(_composite(3, 7, 11), 2), (LogUnitAtom(_UNIT), 1), (_NESTED, 2)],
          PolyUnit.build(2, {ExpVec.of([0, 1]): F(-1, 2)}))),
    _sum((-1, [0, 0], None, [(LogPrime(2), 1), (_NESTED, 1)])),
])
def test_print_expr_matches_prime_form_route_on_fixed_sums(e):
    assert print_expr(e, ["y1", "y2"]) == _print_reference(e, ["y1", "y2"])


def test_print_expr_refuses_an_atom_it_cannot_print():
    # LogVar belongs in logpows; a hand-built term that carries it as an
    # extra is refused, not printed without the factor
    t = Term(F(1), ExpVec.of([0]), (0,), ((LogVar(0), 1),))
    with pytest.raises(TypeError):
        print_expr(CExpr(1, (t,)))
