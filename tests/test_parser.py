"""Source language: grammar, round trips, error positions."""

import gzip
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cfcalc.cells import Inf, RawMono, ZERO, Zero
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
    prime_form,
)
from cfcalc.errors import CalcError, ParseError
from cfcalc.parser import (
    _TOKEN_RE,
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


def test_golden_sources_print_and_parse_back():
    # every distinct source of the benchmark's cli-mix and log-growth
    # goldens; the few that do not parse are refusals with exit 2
    sources = set()
    for pool in ("cli-mix", "log-growth"):
        golden = ROOT / "bench" / "goldens" / f"{pool}.json.gz"
        entries = json.loads(gzip.decompress(golden.read_bytes()))["entries"]
        sources |= {e["argv"][1] for e in entries if e["argv"][0] != "validate"}
    parsed = 0
    for source in sorted(sources):
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
