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

Numbers are exact rationals ("3/2", "-1/2"); decimal points are rejected.
The cell is read first: its chains declare the variables (order defines
positions), or without a cell the unit cube over the expression's variables;
every term is then built at its final positions.  Logs of single positive
monomials expand immediately; composite log arguments stay deferred.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

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
    _extras_key,
    _over_primes,
    _prime_powers,
)
from .errors import ParseError
from .values import Value

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(){}<=,]))"
)

_KEYWORDS = {"log", "on", "cell", "inf"}


class _Tok(NamedTuple):
    kind: str  # "num" | "name" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    """One pass over ``src``.  Tokens hold no newline, so the current line
    and the offset where it starts are carried from token to token."""
    toks: list[_Tok] = []
    match = _TOKEN_RE.match
    line = 1
    line_start = 0
    pos = 0
    end = len(src)
    while pos < end:
        m = match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            start = end - len(stripped)
        else:
            kind = m.lastgroup
            start = m.start(kind)
        nl = src.rfind("\n", pos, start)
        if nl >= 0:
            line += src.count("\n", pos, nl + 1)
            line_start = nl + 1
        if m is None:
            if stripped[0] == ".":
                raise ParseError(
                    "decimal literals are rejected; use exact rationals",
                    line, start - line_start,
                )
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             line, start - line_start)
        toks.append(_Tok(kind, m.group(kind), line, start - line_start))
        pos = m.end()
    # the eof token keeps the last token's line
    toks.append(_Tok("eof", "", line, 0))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
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

    def parse_varpow(self) -> tuple[_Tok, Fraction]:
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
    assert isinstance(b, RawMono)
    bits = []
    for i, e in enumerate(b.exps):
        if e != 0:
            bits.append(_print_varpow(raw.vars[i].name, e))
    if b.coeff != 1 or not bits:
        bits.insert(0, str(b.coeff))
    return " * ".join(bits)


def print_source(form: SourceForm) -> str:
    """Source text that parses back to form; a form with no variable has
    no cell to print ('{}' is not a cell)."""
    text = print_expr(form.expr, form.names)
    return f"{text} on {print_cell(form.raw_cell)}" if form.names else text
