"""Parser and printer for the expression/cell source language.

Grammar (whitespace-insensitive):

    file   := expr ['on' ['cell'] cell]
    expr   := term (('+' | '-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := RAT | VAR ['^' '(' RAT ')'] | 'log' '(' expr ')' ['^' INT]
    cell   := '{' chain (',' chain)* '}'
    chain  := bound '<' VAR '<' bound | VAR '=' bound
    bound  := '0' | 'inf' | mono
    mono   := RAT ['*' varpow ('*' varpow)*] | varpow ('*' varpow)*
    varpow := VAR ['^' '(' RAT ')']

Numbers are exact rationals ("3/2", "-1/2") of ASCII digits; decimal points
are rejected.  The cell is read first: its chains declare the variables
(order defines positions), or without a cell the unit cube over the
expression's variables; every term is then built at its final positions.
Logs of single positive monomials expand immediately; composite log
arguments stay deferred.

The source is read as a list of token texts, found by one regular
expression, with "" for the end of input; a token's kind is its first
character (a digit, a letter or '_', or an operator).  Tokens keep no
position: an error scans the source again up to its token and reports that
token's line and column, or the position just past the last token for the
end of input.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from math import gcd
from operator import add
from typing import Sequence

from .cells import INF, Inf, RawCell, RawMono, RawVar, ZERO, Zero
from .core import (
    CExpr,
    ExpVec,
    LogComposite,
    LogExprAtom,
    LogPrime,
    LogUnitAtom,
    PolyUnit,
    Term,
    expand_log_power,
    log_of_monomial_unit,
    normalize,
    prime_form,
    term_mul,
    times_log_power,
    times_term,
    _extras_key,
    _over_primes,
    _prime_powers,
)
from .errors import ParseError
from .values import Value

# a character that starts no token is a token of its own, so that findall
# skips only whitespace and the first stray character can be reported
_TOKEN_RE = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^(){}<=,]|\S")
_STRAY_RE = re.compile(r"[^\s0-9A-Za-z_/+*^(){}<=,-]")  # and '/' outside a number

_DIGITS = frozenset(string.digits)
_NAME_START = frozenset(string.ascii_letters + "_")
_MONOMIAL_START = _DIGITS | _NAME_START
_TOKEN_START = _MONOMIAL_START | frozenset("-+*^(){}<=,")
_KEYWORDS = {"log", "on", "cell", "inf"}

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)
_UNIT_ONE = PolyUnit.one()


def _tokenize(src: str) -> list[str]:
    """The token texts of src, then "" for the end of input."""
    toks = _TOKEN_RE.findall(src)
    if "/" in toks or _STRAY_RE.search(src):
        for at, t in enumerate(toks):
            if t[0] not in _TOKEN_START:
                raise ParseError("decimal literals are rejected; use exact rationals"
                                 if t == "." else f"unexpected character {t!r}",
                                 *_position(src, at))
    toks.append("")
    return toks


def _position(src: str, at: int) -> tuple[int, int]:
    """(line, column) of token number at of src; for the end of input, just
    past the last token."""
    spans = [(0, 0)] + [m.span() for m in _TOKEN_RE.finditer(src)]
    offset = spans[at + 1][0] if at + 1 < len(spans) else spans[-1][1]
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset) - 1


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def fail(self, msg: str, at: int | None = None) -> ParseError:
        """An error at token number at, by default the current one."""
        return ParseError(msg, *_position(self.src, self.i if at is None else at))

    def expect(self, text: str) -> None:
        t = self.toks[self.i]
        if t != text:
            raise self.fail(f"expected {text!r}, found {t or 'end of input'!r}")
        self.i += 1

    def expect_end(self, end: int) -> None:
        if self.i != end:
            raise self.fail(f"unexpected trailing input {self.toks[self.i]!r}")

    def declare(self, names: Sequence[str]) -> None:
        """Fix every variable's final position before any term is built."""
        self.positions = {n: i for i, n in enumerate(names)}
        self.nv = len(names)

    # -- numbers and variables ------------------------------------------------

    def parse_rat(self) -> Fraction:
        neg = self.toks[self.i] == "-"
        self.i += neg
        t = self.toks[self.i]
        if t[:1] not in _DIGITS:
            raise self.fail(f"expected a rational, found {t!r}")
        num, _, den = t.partition("/")
        if den and int(den) == 0:
            raise self.fail("zero denominator")
        self.i += 1
        v = Fraction(int(num), int(den)) if den else Fraction(int(num))
        return -v if neg else v

    def times_factor(self, coeff: Fraction, exps: list) -> Fraction:
        """coeff times the number at the current token, returned, or the
        variable power there added into exps.  A factor 1 or a variable's
        first power does no Fraction arithmetic."""
        t = self.toks[self.i]
        if t[:1] in _DIGITS:
            q = self.parse_rat()
            return coeff if t == "1" else q if coeff is _ONE else coeff * q
        if t in _KEYWORDS:
            raise self.fail(f"{t!r} is a keyword")
        pos = self.positions.get(t)
        if pos is None:
            raise self.fail(f"undeclared variable {t!r}")
        self.i += 1
        power = self.parse_power()
        exps[pos] = power if exps[pos] is _ZERO else exps[pos] + power
        return coeff

    # -- expressions: lists of terms over the declared positions ---------------

    def parse_expr(self) -> list[Term]:
        out = self.parse_term(1)
        while self.toks[self.i] in ("+", "-"):
            self.i += 1
            out += self.parse_term(-1 if self.toks[self.i - 1] == "-" else 1)
        return out

    def parse_term(self, sign: int) -> list[Term]:
        """One product.  Numbers, variable powers and logs that expand to one
        piece without constant logs update one accumulator coeff * y^exps *
        log(y)^logpows.  A parenthesised factor or another log makes terms:
        the first takes the accumulator in, which starts again from 1, and
        what it holds at the end is multiplied into the terms once."""
        toks, nv = self.toks, self.nv
        while toks[self.i] == "-":
            self.i += 1
            sign = -sign
        coeff = _ONE if sign > 0 else _MINUS_ONE
        exps, logpows = [_ZERO] * nv, [0] * nv
        made = None
        while True:
            t = toks[self.i]
            if t[:1] in _MONOMIAL_START and t != "log":
                coeff = self.times_factor(coeff, exps)
            elif t == "(":
                self.i += 1
                inner = self.parse_expr()
                self.expect(")")
                if made is not None:
                    made = [x for a in made for b in inner for x in term_mul(a, b)]
                elif coeff:
                    ev, lp = ExpVec(tuple(exps)), tuple(logpows)
                    made = [x for b in inner
                            for x in times_term(coeff, ev, lp, (), _UNIT_ONE, b)]
                    coeff, exps, logpows = _ONE, [_ZERO] * nv, [0] * nv
            elif t == "log":
                pieces = self.parse_log()
                if len(pieces) == 1 and not pieces[0][2]:
                    c, lp, _ = pieces[0]
                    coeff = coeff if c == 1 else c if coeff is _ONE else coeff * c
                    logpows = list(map(add, logpows, lp))
                elif made is not None:
                    made = [x for a in made for x in times_log_power(a, pieces)]
                elif coeff:
                    ev = ExpVec(tuple(exps))
                    made = [Term.make(coeff * c, ev, tuple(map(add, logpows, lp)), ex)
                            for c, lp, ex in pieces]
                    coeff, exps, logpows = _ONE, [_ZERO] * nv, [0] * nv
            else:
                raise self.fail(f"expected a factor, found {t or 'end of input'!r}")
            if toks[self.i] != "*":
                break
            self.i += 1
        if not coeff:
            return []
        ev, lp = ExpVec(tuple(exps)), tuple(logpows)
        if made is None:
            return [Term(coeff, ev, lp)]
        if coeff is _ONE and not any(exps) and not any(logpows):
            return made
        return [x for b in made for x in times_term(coeff, ev, lp, (), _UNIT_ONE, b)]

    def parse_log(self) -> list:
        """'log' '(' expr ')' ['^' INT] as (coefficient, logpows, extras)
        pieces.  A single positive monomial expands: an argument that is one
        product of numbers and variable powers is read straight into one,
        with no term built for it, and any other is read again as a sum and
        normalized.  Any other argument stays deferred with its constant
        logs over primes, as printed: its terms are part of the signature of
        every term it enters."""
        toks = self.toks
        at = self.i
        self.i += 1
        self.expect("(")
        start = self.i
        coeff, exps, items = _ONE, [_ZERO] * self.nv, None
        while toks[self.i][:1] in _MONOMIAL_START and toks[self.i] != "log":
            coeff = self.times_factor(coeff, exps)
            if toks[self.i] != "*":
                if toks[self.i] == ")" and coeff > 0:
                    items = log_of_monomial_unit(coeff, ExpVec(tuple(exps)), _UNIT_ONE)
                break
            self.i += 1
        if items is None:
            self.i = start
            arg = normalize(CExpr(self.nv, tuple(self.parse_expr())))
        self.expect(")")
        power = 1
        if toks[self.i] == "^":
            self.i += 1
            ptok = self.i
            p = self.parse_rat()
            if p.denominator != 1 or p <= 0:
                raise self.fail("log powers must be positive integers", ptok)
            power = int(p)
        if items is None:
            if not arg.terms:
                raise self.fail("log of zero", at)
            t, *more = arg.terms
            if more or any(t.logpows) or t.extras or t.coeff < 0 or not t.unit.is_trivial:
                return [(_ONE, (0,) * self.nv, ((LogExprAtom(prime_form(arg)), power),))]
            items = log_of_monomial_unit(t.coeff, t.exps, _UNIT_ONE)
        return expand_log_power(items, power, self.nv)

    # -- cells -----------------------------------------------------------------

    def parse_cell(self) -> RawCell:
        self.expect("{")
        chains = [self.parse_chain()]
        while self.toks[self.i] == ",":
            self.i += 1
            chains.append(self.parse_chain())
        self.expect("}")
        names = [self.toks[c[0]] for c in chains]
        for i, (at, *_) in enumerate(chains):
            if names[i] in names[:i]:
                raise self.fail(f"duplicate variable in cell: {names}", at)
        self.declare(names)
        rawvars = []
        for i, (at, lower, upper, thin) in enumerate(chains):
            name = names[i]
            if thin is not None:
                tb = self.resolve(thin, i)
                if not isinstance(tb, RawMono):
                    raise self.fail(f"thin variable {name!r} needs a monomial graph", at)
                rawvars.append(RawVar(name, ZERO, RawMono.const(1, self.nv), thin=tb))
                continue
            lo = self.resolve(lower, i)
            hi = self.resolve(upper, i)
            # a non-empty fiber ending at 0 is left to normalize_cell:
            # (-b, 0) mirrors
            if isinstance(lo, Inf) or _empty_between(lo, hi, rawvars):
                raise self.fail(f"invalid bounds for {name!r}", at)
            rawvars.append(RawVar(name, lo, hi))
        return RawCell(tuple(rawvars))

    def parse_chain(self):
        """(name token index, lower, upper, thin); parse_cell resolves the
        bounds."""
        at = self.i
        t = self.toks[at]
        if t[:1] in _NAME_START and t not in _KEYWORDS and self.toks[at + 1] == "=":
            self.i += 2
            return (at, None, None, self.parse_bound())
        lower = self.parse_bound()
        self.expect("<")
        at = self.parse_name()
        self.expect("<")
        upper = self.parse_bound()
        return (at, lower, upper, None)

    def parse_bound(self):
        t = self.toks[self.i]
        if t == "inf":
            self.i += 1
            return INF
        q, factors = _ONE, []
        if t[:1] in _DIGITS or t == "-":
            q = self.parse_rat()
        elif t[:1] in _NAME_START and t not in _KEYWORDS:
            factors.append((self.parse_name(), self.parse_power()))
        else:
            raise self.fail(f"expected a bound, found {t!r}")
        while self.toks[self.i] == "*":
            self.i += 1
            factors.append((self.parse_name(), self.parse_power()))
        return (q, factors)

    def parse_name(self) -> int:
        """The index of the variable name at the current token."""
        t = self.toks[self.i]
        if t[:1] not in _NAME_START or t in _KEYWORDS:
            raise self.fail("expected a variable name")
        self.i += 1
        return self.i - 1

    def parse_power(self) -> Fraction:
        """['^' '(' RAT ')'], 1 when absent."""
        if self.toks[self.i] != "^":
            return _ONE
        self.i += 1
        self.expect("(")
        power = self.parse_rat()
        self.expect(")")
        return power

    def resolve(self, bound, upto: int):
        if bound is INF:
            return bound
        q, factors = bound
        exps = [Fraction(0)] * self.nv
        for at, power in factors:
            name = self.toks[at]
            if name not in self.positions:
                raise self.fail(f"undeclared variable {name!r} in a bound", at)
            j = self.positions[name]
            if j >= upto:
                raise self.fail(
                    f"bound references {name!r}, which is not an earlier variable", at
                )
            exps[j] += power
        if q == 0:
            # 0 * y^e is the bound 0 whatever the variables
            return ZERO
        return RawMono(q, ExpVec(tuple(exps)))


def _natural_key(name: str):
    m = re.match(r"([A-Za-z_]+)(\d*)$", name)
    if m:
        return (m.group(1), int(m.group(2) or 0))
    return (name, 0)


class SourceForm(Value):
    """Parsed source: the raw cell with named variables and the expression."""

    raw_cell: RawCell
    expr: CExpr

    @property
    def names(self) -> tuple[str, ...]:
        return self.raw_cell.names


def parse(text: str) -> SourceForm:
    """The cell first, so that every variable has its final position before
    the expression's terms are built: the cell after the top-level 'on', or
    without one the unit cube over the expression's variables in natural
    order (x2 before x10)."""
    p = _Parser(text)
    toks = p.toks
    end = len(toks) - 1
    on = next((k for k, t in enumerate(toks) if t == "on"
               and toks[:k].count("(") == toks[:k].count(")")), end)
    if on < end:
        p.i = on + 1 + (toks[on + 1] == "cell")
        raw = p.parse_cell()
        p.expect_end(end)
    else:
        names = sorted({t for t in toks if t[:1] in _NAME_START and t not in _KEYWORDS},
                       key=_natural_key)
        p.declare(names)
        raw = RawCell(tuple(RawVar(n, ZERO, RawMono.const(1, p.nv)) for n in names))
    p.i = 0
    terms = p.parse_expr()
    p.expect_end(on)
    return SourceForm(raw, normalize(CExpr(p.nv, tuple(terms))))


def _constant_value(b) -> Fraction | None:
    if isinstance(b, Zero):
        return Fraction(0)
    if isinstance(b, RawMono) and b.exps.is_zero():
        return b.coeff
    return None


def _empty_between(lo, hi, earlier: Sequence[RawVar]) -> bool:
    """No value lies strictly between the bounds, whatever the earlier
    variables are: the bounds are identical, constants in reverse order, or
    over the whole cell of the earlier variables the upper bound is 0 or
    negative and the lower one is not negative.  Other monomial bounds are
    ordered by the cell certificate, which knows the ranges of the earlier
    variables."""
    if lo == hi:
        return True
    a, b = _constant_value(lo), _constant_value(hi)
    if a is not None and b is not None:
        return a >= b
    if not (isinstance(hi, Zero) or isinstance(hi, RawMono) and hi.coeff < 0):
        return False
    positive: list[bool] = []  # earlier variables positive over the cell
    for rv in earlier:
        positive.append(rv.thin is None and _sign(rv.lower, positive) in (0, 1))
    return _sign(hi, positive) in (-1, 0) and _sign(lo, positive) in (0, 1)


def _sign(b, positive: Sequence[bool]) -> int | None:
    """The sign of a bound over the whole cell where the raw cell shows it
    exactly: 0 for the bound 0, and the sign of a monomial's coefficient
    when each variable it reads is positive.  None otherwise."""
    if isinstance(b, Zero):
        return 0
    if not isinstance(b, RawMono) or any(e and not p for p, e in zip(positive, b.exps)):
        return None
    return 1 if b.coeff > 0 else -1


# ---------------------------------------------------------------------------
# Printing (canonical, deterministic)
# ---------------------------------------------------------------------------


def _print_varpow(name: str, e: Fraction) -> str:
    if e == 1:
        return name
    return f"{name}^({e})"


def print_expr(e: CExpr, names: Sequence[str] | None = None) -> str:
    """Canonical text: the terms of prime_form(e) in signature order, written
    from normalize(e) without building them.  _prime_powers expands each
    composite constant log with each product's signature key and text."""
    e = normalize(e)
    if not e.terms:
        return "0"
    names = names or [f"x{i+1}" for i in range(e.nvars)]
    powers = _prime_powers(e.terms)
    rows = [row for t in e.terms for row in _rows(t, powers, names)]
    if powers:  # a sum with no composite is in signature order already
        rows.sort(key=lambda row: row[0])
    text = " ".join(term for _, term in rows)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _signed(num: int, den: int, text: str) -> str:
    """num/den times text: the sign, then the magnitude unless it is 1."""
    if abs(num) != 1 or den != 1 or not text:
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        text = f"{mag} * {text}" if text else mag
    return ("+ " if num > 0 else "- ") + text


def _rows(t: Term, powers: dict, names: Sequence[str]) -> list[tuple]:
    """t over primes as printed rows (signature, signed text); the signature
    only when there are composites to sort by."""
    split = [ak for ak in t.extras if type(ak[0]) is LogComposite] if powers else ()
    kept = tuple(ak for ak in t.extras if ak not in split) if split else t.extras
    if len(split) > 1 or split and any(
            type(a) is LogPrime and a.prime < split[0][0].primes[-1] for a, _ in kept):
        # interleaving primes (several composites, a kept prime below one): _over_primes
        return [row for u in _over_primes([t]) for row in _rows(u, powers, names)]
    left = [_print_varpow(names[i], ex) for i, ex in enumerate(t.exps) if ex]
    left += [f"log({names[i]})" + (f"^{l}" if l > 1 else "")
             for i, l in enumerate(t.logpows) if l]
    right = [_print_log(a, k, names) for a, k in kept]
    if not t.unit.is_trivial:
        right.append(_print_unit(t.unit, names))
    num, den = t.coeff.numerator, t.coeff.denominator
    if not split:
        text = _signed(num, den, " * ".join(left + right))
        return [(t.signature() if powers else None, text)]
    # one composite, whose prime logs come before every kept log
    (a, k), = split
    exps, logpows, _ = t.signature()
    kept_key = _extras_key(kept)
    left = "".join(f + " * " for f in left)
    right = "".join(" * " + f for f in right)
    rows = []
    for m, _, key, text in powers[a][k]:
        g = gcd(m, den)
        rows.append(((exps, logpows, key + kept_key),
                     _signed(num * (m // g), den // g, left + text + right)))
    return rows


def _print_log(atom, k: int, names: Sequence[str]) -> str:
    if isinstance(atom, LogPrime):
        arg = str(atom.prime)
    elif isinstance(atom, LogUnitAtom):
        arg = _print_unit(atom.unit, names)
    elif isinstance(atom, LogExprAtom):
        arg = print_expr(atom.arg, names)
    else:
        raise TypeError(f"cannot print the atom {atom!r} over primes")
    return f"log({arg})" + (f"^{k}" if k > 1 else "")


def _print_mono(exps: ExpVec, names: Sequence[str]) -> str:
    return " * ".join(_print_varpow(names[i], e) for i, e in enumerate(exps) if e)


def _print_unit(u: PolyUnit, names: Sequence[str]) -> str:
    bits = [str(u.constant)]
    for c, m in u.monos:
        mono = _print_mono(m, names)
        if abs(c) != 1:
            mono = f"{abs(c)} * {mono}"
        bits.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return "(" + " ".join(bits) + ")"


def print_cell(raw: RawCell) -> str:
    chains = []
    for i, rv in enumerate(raw.vars):
        if rv.thin is not None:
            chains.append(f"{rv.name} = {_print_raw_bound(rv.thin, raw)}")
            continue
        lo = _print_raw_bound(rv.lower, raw)
        hi = _print_raw_bound(rv.upper, raw)
        chains.append(f"{lo} < {rv.name} < {hi}")
    return "{" + ", ".join(chains) + "}"


def _print_raw_bound(b, raw: RawCell) -> str:
    if isinstance(b, Zero):
        return "0"
    if isinstance(b, Inf):
        return "inf"
    mono = _print_mono(b.exps, raw.names)
    if not mono or b.coeff != 1:
        return f"{b.coeff} * {mono}" if mono else str(b.coeff)
    return mono


def print_source(form: SourceForm) -> str:
    """Source text that parses back to form; a form with no variable has
    no cell to print ('{}' is not a cell)."""
    text = print_expr(form.expr, form.names)
    return f"{text} on {print_cell(form.raw_cell)}" if form.names else text
