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
Variables are declared by their cell chain (order defines positions); an
expression without a cell gets the unit cube over its variables.  Logs of
single positive monomials expand immediately; composite log arguments stay
deferred for preparation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cells import INF, Inf, RawCell, RawMono, RawVar, ZERO, Zero
from .core import (
    CExpr,
    ExpVec,
    LogExprAtom,
    LogPrime,
    LogUnitAtom,
    PolyUnit,
    Term,
    expand_log_power,
    log_of_monomial_unit,
    normalize,
    times_log_power,
)
from .errors import ParseError

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
        self.var_names: list[str] = []
        self.declared: dict[str, int] | None = None
        self.seen: dict[str, int] = {}

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

    def var_pos(self, name: str, tok: _Tok) -> int:
        if self.declared is not None:
            if name not in self.declared:
                raise ParseError(f"undeclared variable {name!r}", tok.line, tok.col)
            return self.declared[name]
        if name not in self.seen:
            self.seen[name] = len(self.seen)
        return self.seen[name]

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, nv_hint: int | None = None) -> "_ExprBuilder":
        left = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.parse_term()
            if op == "-":
                right = right.scaled(Fraction(-1))
            left = left.add(right)
        return left

    def parse_term(self) -> "_ExprBuilder":
        sign = Fraction(1)
        while self.peek().text == "-":
            self.next()
            sign = -sign
        out = self.parse_factor()
        while self.peek().text == "*":
            self.next()
            out = out.mul(self.parse_factor())
        return out.scaled(sign)

    def parse_factor(self) -> "_ExprBuilder":
        t = self.peek()
        if t.kind == "num":
            return _ExprBuilder.const(self.parse_rat())
        if t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t.kind != "name":
            raise self.error(f"expected a factor, found {t.text or 'end of input'!r}")
        if t.text == "log":
            self.next()
            self.expect("(")
            arg = self.parse_expr()
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
            return _ExprBuilder.log(arg, power)
        name = self.next().text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is a keyword", t.line, t.col)
        pos = self.var_pos(name, t)
        power = Fraction(1)
        if self.peek().text == "^":
            self.next()
            self.expect("(")
            power = self.parse_rat()
            self.expect(")")
        return _ExprBuilder.var(pos, power)

    # -- cells -----------------------------------------------------------------

    def parse_cell(self) -> list[tuple[str, object, object, object]]:
        """Return chains as (name, lower, upper, thin) with raw bound specs
        over *names* (positions resolved afterwards)."""
        self.expect("{")
        chains: list[tuple[str, object, object, object]] = []
        while True:
            chains.append(self.parse_chain())
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect("}")
        return chains

    def parse_chain(self):
        save = self.i
        t = self.peek()
        if t.kind == "name" and t.text not in _KEYWORDS:
            name_tok = self.next()
            if self.peek().text == "=":
                self.next()
                bound = self.parse_bound()
                return (name_tok.text, None, None, bound)
            self.i = save
        lower = self.parse_bound()
        self.expect("<")
        vt = self.next()
        if vt.kind != "name" or vt.text in _KEYWORDS:
            raise ParseError("expected a variable name", vt.line, vt.col)
        self.expect("<")
        upper = self.parse_bound()
        return (vt.text, lower, upper, None)

    def parse_bound(self):
        t = self.peek()
        if t.text == "inf":
            self.next()
            return INF
        if t.kind == "num" or t.text == "-":
            q = self.parse_rat()
            factors: list[tuple[str, Fraction]] = []
            while self.peek().text == "*":
                self.next()
                factors.append(self.parse_varpow())
            if not factors and q == 0:
                return ZERO
            return (q, factors)
        if t.kind == "name" and t.text not in _KEYWORDS:
            factors = [self.parse_varpow()]
            while self.peek().text == "*":
                self.next()
                factors.append(self.parse_varpow())
            return (Fraction(1), factors)
        raise ParseError(f"expected a bound, found {t.text!r}", t.line, t.col)

    def parse_varpow(self) -> tuple[str, Fraction]:
        t = self.next()
        if t.kind != "name" or t.text in _KEYWORDS:
            raise ParseError("expected a variable name", t.line, t.col)
        power = Fraction(1)
        if self.peek().text == "^":
            self.next()
            self.expect("(")
            power = self.parse_rat()
            self.expect(")")
        return (t.text, power)


class _ExprBuilder:
    """Delayed expression: variables may not have positions yet, so factors
    accumulate as (kind, payload) products; realized once the arity is known."""

    def __init__(self, items: list[tuple[str, object]]):
        self.items = items  # list of summand descriptors

    @staticmethod
    def const(q: Fraction) -> "_ExprBuilder":
        return _ExprBuilder([("sum", [(q, [], [])])])

    @staticmethod
    def var(pos: int, power: Fraction) -> "_ExprBuilder":
        return _ExprBuilder([("sum", [(Fraction(1), [("pow", pos, power)], [])])])

    @staticmethod
    def log(arg: "_ExprBuilder", power: int) -> "_ExprBuilder":
        return _ExprBuilder([("sum", [(Fraction(1), [], [("log", arg, power)])])])

    def scaled(self, q: Fraction) -> "_ExprBuilder":
        (tag, summands), = self.items
        return _ExprBuilder(
            [(tag, [(c * q, list(p), list(l)) for c, p, l in summands])]
        )

    def add(self, other: "_ExprBuilder") -> "_ExprBuilder":
        (t1, s1), = self.items
        (t2, s2), = other.items
        return _ExprBuilder([("sum", list(s1) + list(s2))])

    def mul(self, other: "_ExprBuilder") -> "_ExprBuilder":
        (t1, s1), = self.items
        (t2, s2), = other.items
        out = []
        for c1, p1, l1 in s1:
            for c2, p2, l2 in s2:
                out.append((c1 * c2, list(p1) + list(p2), list(l1) + list(l2)))
        return _ExprBuilder([("sum", out)])

    def realize(self, nvars: int) -> CExpr:
        (tag, summands), = self.items
        terms: list[Term] = []
        for coeff, pows, logs in summands:
            if coeff == 0:
                continue
            exps = [Fraction(0)] * nvars
            for _, pos, power in pows:
                exps[pos] += power
            variants = [Term.make(coeff, ExpVec(tuple(exps)))]
            for _, arg, power in logs:
                pieces = _log_pieces(arg.realize(nvars), power, nvars)
                variants = [x for v in variants for x in times_log_power(v, pieces)]
            terms.extend(variants)
        return normalize(CExpr(nvars, tuple(terms)))


def _log_pieces(arg: CExpr, power: int, nvars: int):
    """(log arg)^power: expand immediately for single positive monomials,
    defer composites for preparation."""
    if len(arg.terms) == 1:
        t = arg.terms[0]
        if (
            not any(t.logpows)
            and not t.extras
            and not t.ratios
            and t.unit.is_trivial
            and t.coeff > 0
        ):
            items = log_of_monomial_unit(t.coeff, t.exps, PolyUnit.one())
            return expand_log_power(items, power, nvars)
    if not arg.terms:
        raise ParseError("log of zero")
    return [(Fraction(1), (0,) * nvars, ((LogExprAtom(arg), power),))]


def _natural_key(name: str):
    m = re.match(r"([A-Za-z_]+)(\d*)$", name)
    if m:
        return (m.group(1), int(m.group(2) or 0))
    return (name, 0)


@dataclass(frozen=True)
class SourceForm:
    """Parsed source: the raw cell with named variables and the expression."""

    raw_cell: RawCell
    expr: CExpr

    @property
    def names(self) -> tuple[str, ...]:
        return self.raw_cell.names


def parse(text: str) -> SourceForm:
    p = _Parser(text)
    builder = p.parse_expr()
    chains = None
    if p.peek().text == "on":
        p.next()
        if p.peek().text == "cell":
            p.next()
        chains = p.parse_cell()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)

    if chains is None:
        names = sorted(p.seen.keys(), key=_natural_key)
        positions = {n: i for i, n in enumerate(names)}
        nv = len(names)
        raw = RawCell(
            tuple(
                RawVar(n, ZERO, RawMono.const(1, nv)) for n in names
            )
        )
        remap = _total_remap(p.seen, positions, nv)
        expr = _remap_positions(builder.realize(nv), remap, nv)
        return SourceForm(raw, expr)

    names = [c[0] for c in chains]
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate variable in cell: {names}")
    positions = {n: i for i, n in enumerate(names)}
    for n in p.seen:
        if n not in positions:
            raise ParseError(f"undeclared variable {n!r}")
    nv = len(names)

    def resolve(bound, upto: int):
        if bound is None or isinstance(bound, (Zero, Inf)):
            return bound
        q, factors = bound
        exps = [Fraction(0)] * nv
        for name, power in factors:
            if name not in positions:
                raise ParseError(f"undeclared variable {name!r} in a bound")
            j = positions[name]
            if j >= upto:
                raise ParseError(
                    f"bound references {name!r}, which is not an earlier variable"
                )
            exps[j] += power
        if q == 0 and not factors:
            return ZERO
        return RawMono(q, ExpVec(tuple(exps)))

    rawvars = []
    for i, (name, lower, upper, thin) in enumerate(chains):
        if thin is not None:
            tb = resolve(thin, i)
            if not isinstance(tb, RawMono):
                raise ParseError(f"thin variable {name!r} needs a monomial graph")
            rawvars.append(RawVar(name, ZERO, RawMono.const(1, nv), thin=tb))
            continue
        lo = resolve(lower, i)
        hi = resolve(upper, i)
        if isinstance(hi, Zero) or isinstance(lo, Inf):
            raise ParseError(f"invalid bounds for {name!r}")
        rawvars.append(RawVar(name, lo, hi))
    remap = _total_remap(p.seen, positions, nv)
    expr = _remap_positions(builder.realize(nv), remap, nv)
    return SourceForm(RawCell(tuple(rawvars)), expr)


def _total_remap(
    seen: dict[str, int], positions: dict[str, int], nv: int
) -> dict[int, int]:
    """Permutation sending expression-builder slots to declared positions
    (unused builder slots take the leftover positions)."""
    by_slot = sorted(seen.items(), key=lambda kv: kv[1])
    targets = [positions[name] for name, _ in by_slot]
    leftovers = [i for i in range(nv) if i not in set(targets)]
    full = targets + leftovers
    return {k: full[k] for k in range(nv)}


def _remap_positions(e: CExpr, remap: dict[int, int], nv: int) -> CExpr:
    if all(remap.get(i, i) == i for i in range(nv)):
        return e

    def remap_exps(v: ExpVec) -> ExpVec:
        out = [Fraction(0)] * nv
        for i, x in enumerate(v):
            out[remap.get(i, i)] = x
        return ExpVec(tuple(out))

    def remap_term(t: Term) -> Term:
        logpows = [0] * nv
        for i, l in enumerate(t.logpows):
            logpows[remap.get(i, i)] = l
        extras = []
        for atom, k in t.extras:
            if isinstance(atom, LogExprAtom):
                extras.append((LogExprAtom(_remap_positions(atom.arg, remap, nv)), k))
            else:
                extras.append((atom, k))
        return Term.make(
            t.coeff, remap_exps(t.exps), tuple(logpows), extras, t.ratios, t.unit
        )

    return normalize(e.map_terms(remap_term))


# ---------------------------------------------------------------------------
# Printing (canonical, deterministic)
# ---------------------------------------------------------------------------


def _print_rat(q: Fraction) -> str:
    return str(q)


def _print_varpow(name: str, e: Fraction) -> str:
    if e == 1:
        return name
    return f"{name}^({e})"


def print_expr(e: CExpr, names: Sequence[str] | None = None) -> str:
    """Canonical text: normalized terms in signature order."""
    e = normalize(e)
    if not e.terms:
        return "0"
    names = names or [f"x{i+1}" for i in range(e.nvars)]
    parts: list[str] = []
    for idx, t in enumerate(e.terms):
        factors: list[str] = []
        coeff = t.coeff
        for i, ex in enumerate(t.exps):
            if ex != 0:
                factors.append(_print_varpow(names[i], ex))
        for i, l in enumerate(t.logpows):
            if l:
                factors.append(f"log({names[i]})" + (f"^{l}" if l > 1 else ""))
        for atom, k in t.extras:
            if isinstance(atom, LogPrime):
                factors.append(f"log({atom.prime})" + (f"^{k}" if k > 1 else ""))
            elif isinstance(atom, LogUnitAtom):
                factors.append(
                    f"log({_print_unit(atom.unit, names)})" + (f"^{k}" if k > 1 else "")
                )
            elif isinstance(atom, LogExprAtom):
                factors.append(
                    f"log({print_expr(atom.arg, names)})" + (f"^{k}" if k > 1 else "")
                )
        for rf in t.ratios:
            mono = " * ".join(
                _print_varpow(names[i], e2)
                for i, e2 in enumerate(rf.exps)
                if e2 != 0
            )
            factors.append(f"({mono})^({rf.power})")
        if not t.unit.is_trivial:
            factors.append(_print_unit(t.unit, names))
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, _print_rat(mag))
        body = " * ".join(factors)
        if idx == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _print_unit(u: PolyUnit, names: Sequence[str]) -> str:
    bits = [_print_rat(u.constant)]
    for c, m in u.monos:
        mono = " * ".join(
            _print_varpow(names[i], e) for i, e in enumerate(m) if e != 0
        )
        if abs(c) != 1:
            mono = f"{_print_rat(abs(c))} * {mono}"
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
        bits.insert(0, _print_rat(b.coeff))
    return " * ".join(bits)


def print_source(form: SourceForm) -> str:
    return f"{print_expr(form.expr, form.names)} on {print_cell(form.raw_cell)}"
