"""Exact representations of terms and constructible expressions.

A constructible expression is a finite sum of terms

    coeff * prod_j y_j^(r_j) * prod_j (log y_j)^(l_j) * extras * unit,

with rational coeff and exponents r_j, nonnegative integer log powers l_j,
`extras` a multiset of opaque log atoms (logs of constants, logs of
certified polynomial units), and `unit` a certified polynomial unit.  All
arithmetic is exact: coefficients and exponents are `fractions.Fraction`
and nothing is ever rounded.

Logs of constants are kept over a coprime base: log 30030 is one atom, not
the sum of six prime logs, and normalize keeps the constant logs of a sum
pairwise coprime.  log_of_monomial_unit is the one producer of constant
logs; there is no second route (a LogUnitAtom of a constant is refused,
and Term.make writes no log).  Output is over primes: prime_form builds
those terms for eval and the analyses, and the printer writes them from the
coprime base.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from fractions import Fraction
from types import CodeType, FunctionType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    FragmentEscape,
    NotNormalized,
    UnitCertificateViolated,
    ZeroTestUnsupported,
)
from .tables import table
from .values import Value, set_field

# Exact rational scalar used everywhere.  Always reduced, denominator > 0,
# arbitrary precision.
Rat = Fraction

RatLike = Union[int, Fraction]


def frac_pow(q: Fraction, r: Fraction) -> Fraction | None:
    """Exact q**r for positive rational q, or None when irrational.

    q**(u/v) is rational iff numerator and denominator of q are v-th powers.
    """
    if q <= 0:
        raise ValueError("frac_pow requires a positive base")
    r = Fraction(r)
    if r == 0:
        return Fraction(1)
    if r.denominator == 1:
        return q ** r.numerator
    k = r.denominator
    num, den = floor_root(q.numerator, k), floor_root(q.denominator, k)
    if num ** k != q.numerator or den ** k != q.denominator:
        return None
    return Fraction(num, den) ** r.numerator


def exact_pow(q: Fraction, r: Fraction) -> Fraction:
    """Exact q**r for positive rational q; an irrational power is refused
    with the quantity written in source syntax, e.g. (1/5)^(-3/2)."""
    v = frac_pow(q, r)
    if v is None:
        raise FragmentEscape(f"{_source_rat(q)}^{_source_rat(r)} is irrational")
    return v


def _source_rat(q: Fraction) -> str:
    """A rational as a source-language power base or exponent."""
    return str(q) if q.denominator == 1 and q >= 0 else f"({q})"


def floor_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers n >= 1, k >= 1."""
    if n == 1:
        return 1
    # Integer Newton from 2^ceil(bits/k) >= n^(1/k): the iterates decrease
    # to floor(n^(1/k)) and stop there.  No floats, so n may have any size.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (desk scale)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def log_const_exponents(q: Fraction) -> dict[int, int]:
    """Write log q as an integer combination of logs of primes.

    Returns {p: e} with log q = sum e * log p; exact by unique factorization.
    """
    if q <= 0:
        raise FragmentEscape(f"log of non-positive constant {q}")
    out: dict[int, int] = dict(factorize(q.numerator))
    for p, e in factorize(q.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e != 0}


# ---------------------------------------------------------------------------
# Exponent vectors
# ---------------------------------------------------------------------------


class ExpVec(Value):
    """Per-variable rational exponents; zero entries carried explicitly."""

    exps: tuple[Fraction, ...]

    def __init__(self, exps):
        set_field(self, "exps", exps)

    @staticmethod
    def zero(nvars: int) -> "ExpVec":
        return ExpVec((Fraction(0),) * nvars)

    @staticmethod
    def unit(nvars: int, pos: int, e: RatLike = 1) -> "ExpVec":
        v = [Fraction(0)] * nvars
        v[pos] = Fraction(e)
        return ExpVec(tuple(v))

    @staticmethod
    def of(entries: Sequence[RatLike]) -> "ExpVec":
        return ExpVec(tuple(Fraction(e) for e in entries))

    def __len__(self) -> int:
        return len(self.exps)

    def __getitem__(self, pos: int) -> Fraction:
        return self.exps[pos]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.exps)

    def __add__(self, other: "ExpVec") -> "ExpVec":
        if len(self) != len(other):
            raise ValueError("exponent vectors of different ambient size")
        # a zero entry adds nothing: the other entry's Fraction is reused,
        # not rebuilt as 0 + e
        return ExpVec(tuple(
            b if not a else a if not b else a + b
            for a, b in zip(self.exps, other.exps)
        ))

    def __sub__(self, other: "ExpVec") -> "ExpVec":
        if len(self) != len(other):
            raise ValueError("exponent vectors of different ambient size")
        return ExpVec(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def scale(self, c: RatLike) -> "ExpVec":
        c = Fraction(c)
        return ExpVec(tuple(a * c for a in self.exps))

    def with_entry(self, pos: int, e: RatLike) -> "ExpVec":
        v = list(self.exps)
        v[pos] = Fraction(e)
        return ExpVec(tuple(v))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exps) if e != 0)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exps)

    def pad(self, nvars: int) -> "ExpVec":
        if nvars < len(self):
            raise ValueError("cannot pad to a smaller ambient size")
        return ExpVec(self.exps + (Fraction(0),) * (nvars - len(self)))


# Internal polynomial in cell monomials: ExpVec -> coefficient.
MonoPoly = dict[ExpVec, Fraction]


def poly_add(a: MonoPoly, b: MonoPoly) -> MonoPoly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def poly_mul(a: MonoPoly, b: MonoPoly) -> MonoPoly:
    out: MonoPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            s = out.get(m, Fraction(0)) + ca * cb
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def poly_scale(a: MonoPoly, c: RatLike) -> MonoPoly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {m: k * c for m, k in a.items()}


# ---------------------------------------------------------------------------
# Polynomial units
# ---------------------------------------------------------------------------


def _unit_sort_key(monos: Iterable[tuple[Fraction, ExpVec]]):
    return tuple(sorted((m.exps, c) for c, m in monos))


def _certifies(constant: Fraction, coeffs: Sequence[Fraction]) -> bool:
    """The unit certificate: |constant| > the sum of |c| over the monomial
    coefficients c of the sign opposite to the constant (a zero constant
    certifies nothing)."""
    if constant > 0:
        return constant + sum(c for c in coeffs if c < 0) > 0
    return constant < 0 and constant + sum(c for c in coeffs if c > 0) < 0


class PolyUnit(Value):
    """A certified nonvanishing polynomial: constant + sum coeff_k * y^exps_k.

    Every monomial must take values in (0, 1] on the owning cell (the cells
    module certifies this when a unit is attached to a cell).  The
    certificate below then keeps the value range inside (0, inf) for
    constant > 0, resp. (-inf, 0) for constant < 0:

        |constant| > sum of |coeff_k| over coefficients opposing the constant.

    The classical two-sided test |constant| > sum |coeff_k| certifies against
    monomial values in [-1, 1]; it is needlessly strong here because cell
    monomials are positive, and it would reject the units produced by the
    coordinate transform (e.g. 1/2 + z/2).
    """

    constant: Fraction
    monos: tuple[tuple[Fraction, ExpVec], ...] = ()

    def __init__(self, constant, monos=()):
        set_field(self, "constant", constant)
        set_field(self, "monos", monos)
        if self.constant == 0:
            raise UnitCertificateViolated("unit constant must be nonzero")
        if any(c == 0 or m.is_zero() for c, m in self.monos):
            raise UnitCertificateViolated(
                "unit summands must have nonzero coefficient and exponent"
            )
        if not _certifies(self.constant, [c for c, _ in self.monos]):
            lo, hi = self.value_bounds()
            raise UnitCertificateViolated(
                f"unit may cross 0: value range [{lo}, {hi}]"
            )

    @staticmethod
    def one() -> "PolyUnit":
        return _UNIT_ONE

    @staticmethod
    def build(constant: RatLike, monos: Mapping[ExpVec, RatLike]) -> "PolyUnit":
        items = tuple(
            sorted(
                ((Fraction(c), m) for m, c in monos.items() if Fraction(c) != 0),
                key=lambda cm: (cm[1].exps, cm[0]),
            )
        )
        return PolyUnit(Fraction(constant), items)

    @property
    def sign(self) -> int:
        """Sign of every value the unit takes."""
        return 1 if self.constant > 0 else -1

    @property
    def is_trivial(self) -> bool:
        return self is _UNIT_ONE or (not self.monos and self.constant == 1)

    @property
    def nvars(self) -> int:
        return len(self.monos[0][1]) if self.monos else 0

    def value_bounds(self) -> tuple[Fraction, Fraction]:
        """Value range over monomial values in the closed box [0, 1]."""
        lo = self.constant + sum((c for c, _ in self.monos if c < 0), Fraction(0))
        hi = self.constant + sum((c for c, _ in self.monos if c > 0), Fraction(0))
        return lo, hi

    def as_poly(self, nvars: int) -> MonoPoly:
        poly: MonoPoly = {ExpVec.zero(nvars): self.constant}
        for c, m in self.monos:
            poly[m.pad(nvars) if len(m) < nvars else m] = c
        return poly

    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for _, m in self.monos:
            out |= m.support
        return frozenset(out)

    def scaled(self, q: RatLike) -> "PolyUnit":
        q = Fraction(q)
        if q == 0:
            raise UnitCertificateViolated("cannot scale a unit by zero")
        return PolyUnit(self.constant * q, tuple((c * q, m) for c, m in self.monos))

    def monic(self) -> tuple[Fraction, "PolyUnit"]:
        """Split into (constant, unit with constant 1)."""
        if self.constant == 1:
            return Fraction(1), self
        return self.constant, self.scaled(1 / self.constant)

    def __mul__(self, other: "PolyUnit") -> "PolyUnit":
        nv = max(self.nvars, other.nvars)
        poly = poly_mul(self.as_poly(nv), other.as_poly(nv))
        return unit_from_poly(poly, nv)

    def power(self, k: int) -> "PolyUnit":
        if k < 0:
            raise FragmentEscape("polynomial units have no polynomial inverse")
        out = PolyUnit.one()
        for _ in range(k):
            out = out * self
        return out

    def derivative(self, pos: int, nvars: int) -> MonoPoly:
        """d/dy_pos as a plain polynomial (generally not a unit)."""
        out: MonoPoly = {}
        for c, m in self.monos:
            m = m.pad(nvars) if len(m) < nvars else m
            e = m[pos]
            if e == 0:
                continue
            dm = m.with_entry(pos, e - 1)
            s = out.get(dm, Fraction(0)) + c * e
            if s == 0:
                out.pop(dm, None)
            else:
                out[dm] = s
        return out

    @cached_property
    def _float_plan(self):
        # the float conversions of eval, made once on first use
        return (
            float(self.constant),
            tuple((float(c), _float_monomial(m)) for c, m in self.monos),
        )

    def eval(self, point: Sequence[float]) -> float:
        return _unit_value(self._float_plan, point)

    def eval_exact(self, point: Sequence[Fraction]) -> Fraction:
        total = self.constant
        for c, m in self.monos:
            total += c * _eval_monomial_exact(m, point)
        return total

    def log_magnitude_bound(self) -> float:
        """Upper bound for |log|u|| over the certified value range."""
        lo, hi = self.value_bounds()
        lo, hi = abs(lo), abs(hi)
        if lo > hi:
            lo, hi = hi, lo
        return max(abs(math.log(float(lo))), abs(math.log(float(hi))))


_UNIT_ONE = PolyUnit(Fraction(1))


def unit_from_poly(poly: MonoPoly, nvars: int) -> PolyUnit:
    """Interpret a polynomial as a PolyUnit; raises if uncertifiable."""
    monos: dict[ExpVec, Fraction] = {}
    constant = Fraction(0)
    for m, c in poly.items():
        if m.is_zero():
            constant += c
        else:
            monos[m] = monos.get(m, Fraction(0)) + c
    return PolyUnit.build(constant, monos)


def poly_is_certifiable_unit(poly: MonoPoly) -> bool:
    """Whether unit_from_poly(poly, n) certifies a unit."""
    constant = sum((c for m, c in poly.items() if m.is_zero()), Fraction(0))
    return _certifies(constant, [c for m, c in poly.items() if not m.is_zero()])


# ---------------------------------------------------------------------------
# Log atoms
# ---------------------------------------------------------------------------


class LogVar(Value):
    """log y_pos for a fat variable of the owning cell."""

    pos: int

    def __init__(self, pos):
        set_field(self, "pos", pos)


class LogPrime(Value):
    """log p for a prime p >= 2 (canonical form of log of a constant)."""

    prime: int


class LogComposite(Value):
    """log n for a squarefree n with two or more prime factors (rising in
    primes), kept as one atom of a coprime base instead of the sum of its
    prime logs."""

    n: int
    primes: tuple[int, ...]


class LogUnitAtom(Value):
    """log u for a certified monic nonconstant polynomial unit, kept opaque.
    The log of a constant, the unit's own included, is written over a
    coprime base of constant logs by log_of_monomial_unit instead."""

    unit: PolyUnit

    def __post_init__(self):
        if self.unit.constant != 1 or not self.unit.monos:
            raise FragmentEscape("log-unit atoms carry monic nonconstant units")


class LogExprAtom(Value):
    """log of a not-yet-prepared composite argument (parser output only).

    The argument is an unexpanded constructible expression; preparation
    rewrites it as coeff * monomial * unit and expands the log.
    """

    arg: "CExpr"


LogAtom = Union[LogVar, LogPrime, LogComposite, LogUnitAtom, LogExprAtom]


def _atom_sort_key(atom: LogAtom):
    # constant logs sort by their argument, primes and composites alike
    if type(atom) is LogComposite:
        return (0, atom.n, ())
    if isinstance(atom, LogPrime):
        return (0, atom.prime, ())
    if isinstance(atom, LogUnitAtom):
        u = atom.unit
        return (1, 0, (u.constant, _unit_sort_key(u.monos)))
    if isinstance(atom, LogExprAtom):
        # coefficients and units after the signatures tell log(1+y) from log(2+y)
        terms = atom.arg.terms
        return (2, 0, tuple(t.signature() for t in terms),
                tuple((t.coeff, t.unit.constant, _unit_sort_key(t.unit.monos))
                      for t in terms))
    raise TypeError(f"unexpected atom in extras: {atom!r}")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _rising_constant_logs(extras: tuple[tuple[LogAtom, int], ...]) -> bool:
    """Whether extras are constant logs with positive powers, arguments
    rising: the canonical form Term.make would sort them into."""
    prev = 1
    for atom, k in extras:
        if type(atom) is LogPrime:
            n = atom.prime
        elif type(atom) is LogComposite:
            n = atom.n
        else:
            return False
        if k <= 0 or n <= prev:
            return False
        prev = n
    return True


class Term(Value):
    """One prepared summand: coeff * y^exps * logs * extras * unit."""

    coeff: Fraction
    exps: ExpVec
    logpows: tuple[int, ...]
    extras: tuple[tuple[LogAtom, int], ...] = ()
    unit: PolyUnit = _UNIT_ONE

    def __init__(self, coeff, exps, logpows, extras=(), unit=_UNIT_ONE):
        if coeff == 0:
            raise ValueError("zero terms are deleted, not constructed")
        if len(logpows) != len(exps):
            raise ValueError("logpows and exps must share the ambient size")
        if logpows and min(logpows) < 0:
            raise ValueError("log powers are nonnegative")
        set_field(self, "coeff", coeff)
        set_field(self, "exps", exps)
        set_field(self, "logpows", logpows)
        set_field(self, "extras", extras)
        set_field(self, "unit", unit)

    @staticmethod
    def make(
        coeff: RatLike,
        exps: ExpVec | Sequence[RatLike],
        logpows: Sequence[int] | None = None,
        extras: Iterable[tuple[LogAtom, int]] = (),
        unit: PolyUnit = _UNIT_ONE,
    ) -> "Term":
        """Canonicalizing constructor: makes the unit monic (its constant
        goes to coeff), merges and sorts extras.  It writes no log, and a
        LogVar extra is refused: variable logs belong in logpows.  Parts
        canonical already (a trivial unit, and extras a tuple of constant
        logs with positive powers in rising order, as times_log_power passes
        them) are taken as they are."""
        if not isinstance(exps, ExpVec):
            exps = ExpVec.of(exps)
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        lp = tuple(logpows) if logpows is not None else (0,) * len(exps)
        if unit.is_trivial and type(extras) is tuple and _rising_constant_logs(extras):
            return Term(coeff, exps, lp, extras, unit)
        atom_pows: dict[LogAtom, int] = {}
        for atom, k in extras:
            if k == 0:
                continue
            if k < 0:
                raise ValueError("extra log factors have positive powers")
            if type(atom) is LogVar:
                raise ValueError("variable logs go in logpows, not in extras")
            atom_pows[atom] = atom_pows.get(atom, 0) + k
        if unit is not _UNIT_ONE:
            scale, unit = unit.monic()
            coeff *= scale
        ext = tuple(
            sorted(
                ((a, k) for a, k in atom_pows.items() if k != 0),
                key=lambda ak: _atom_sort_key(ak[0]),
            )
        )
        return Term(coeff, exps, lp, ext, unit)

    @staticmethod
    def constant(c: RatLike, nvars: int) -> "Term":
        return Term.make(c, ExpVec.zero(nvars))

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def signature(self):
        """Merging key: everything except coeff and unit."""
        # computed on first use and kept in the instance dict (a plain store:
        # cached_property takes a lock per first access on Python 3.11); not
        # a field, so equality and hashing are unchanged
        sig = self.__dict__.get("_signature")
        if sig is None:
            sig = self.__dict__["_signature"] = (
                self.exps.exps,
                self.logpows,
                _extras_key(self.extras),
            )
        return sig

    def has_opaque(self) -> bool:
        return any(isinstance(a, (LogUnitAtom, LogExprAtom)) for a, _ in self.extras)

    def opaque_support(self) -> frozenset[int]:
        """Variables appearing inside opaque atoms (unit and expression logs)."""
        out: set[int] = set()
        for a, _ in self.extras:
            if isinstance(a, LogUnitAtom):
                out |= a.unit.support()
            elif isinstance(a, LogExprAtom):
                for t in a.arg.terms:
                    out |= t.exps.support | t.opaque_support()
                    out |= {i for i, p in enumerate(t.logpows) if p > 0}
        return frozenset(out)

    def scaled(self, c: RatLike) -> "Term":
        c = Fraction(c)
        if c == 0:
            raise ValueError("zero terms are deleted, not constructed")
        return Term(self.coeff * c, self.exps, self.logpows, self.extras, self.unit)

    def with_exps(self, exps: ExpVec) -> "Term":
        return Term(self.coeff, exps, self.logpows, self.extras, self.unit)

    @cached_property
    def _float_plan(self):
        # everything eval needs in floats, converted once on first use (a
        # term that is never evaluated never builds it); see _term_values
        return (
            float(self.coeff),
            _float_monomial(self.exps),
            tuple((i, p) for i, p in enumerate(self.logpows) if p),
            tuple((_float_atom(a), k) for a, k in self.extras),
            None if self.unit.is_trivial else self.unit._float_plan,
        )

    def eval(self, point: Sequence[float]) -> float:
        return _term_values((self._float_plan,), point)[0]

    def eval_exact(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point; requires a log-free term whose
        monomial powers are rational at the point (variable logs are exact
        only where the coordinate is 1, where the factor vanishes)."""
        for i, p in enumerate(self.logpows):
            if p:
                if Fraction(point[i]) == 1:
                    return Fraction(0)
                raise FragmentEscape("exact evaluation requires a log-free term")
        if self.extras:
            raise FragmentEscape("exact evaluation requires a log-free term")
        total = self.coeff * _eval_monomial_exact(self.exps, point)
        return total * self.unit.eval_exact(point)


def _extras_key(extras: tuple[tuple[LogAtom, int], ...]) -> tuple:
    """The extras part of a term's signature."""
    return tuple(
        ((0, a.prime, ()) if type(a) is LogPrime else _atom_sort_key(a), k)
        for a, k in extras
    )


def _float_monomial(m: ExpVec) -> tuple[tuple[int, float], ...]:
    return tuple((i, float(e)) for i, e in enumerate(m.exps) if e)


def _float_atom(atom: LogAtom):
    """log n as a float for a constant log; otherwise the unit or expression
    whose log the atom is, evaluated at each point."""
    if isinstance(atom, LogPrime):
        return math.log(atom.prime)
    if isinstance(atom, LogComposite):
        return math.log(atom.n)
    if isinstance(atom, LogUnitAtom):
        return atom.unit
    if isinstance(atom, LogExprAtom):
        return atom.arg
    raise TypeError(f"unexpected atom {atom!r}")


def _monomial_value(
    mono: tuple[tuple[int, float], ...], point: Sequence[float]
) -> float:
    total = 1.0
    for i, e in mono:
        total *= point[i] ** e
    return total


def _unit_value(plan, point: Sequence[float]) -> float:
    constant, monos = plan
    total = constant
    for c, mono in monos:
        total += c * _monomial_value(mono, point)
    return total


def left_sum(values) -> float | int:
    """Add floats left to right from int 0, as sum() does up to Python 3.11.
    From 3.12 on, sum() compensates float rounding, which changes the last
    bits of a result; this keeps every result the same on every version."""
    total = 0
    for v in values:
        total += v
    return total


def _term_values(plans, point: Sequence[float]) -> list[float]:
    """The value of each term at a point, from the terms' _float_plan.

    The floats do not depend on the plan: they are those of evaluating the
    term factor by factor in this order, the coefficient times the monomial
    product (formed on its own first: (c*a)*b is not always c*(a*b) in
    floats), then the variable logs, the extras and the unit.
    """
    values = []
    for coeff, mono, logs, extras, unit in plans:
        total = coeff * _monomial_value(mono, point)
        for i, p in logs:
            total *= math.log(point[i]) ** p
        for a, k in extras:
            total *= (a if a.__class__ is float else math.log(a.eval(point))) ** k
        if unit is not None:
            total *= _unit_value(unit, point)
        values.append(total)
    return values


# The factors of a term along a fiber, after the monomial: a value computed
# once, log(y)^p, or a factor that reads the whole point (base + [y]).  A
# polynomial unit that reads y stands as the tuple of its monomials' y-flags.
_CONST, _LOG_Y, _AT_POINT = range(3)

# Fiber kernels kept compiled, least recently used dropped first.  A
# validate pass over 48 seeds meets ~200 structures, the benchmark's whole
# 192-seed pool 494; repeated passes cycle through theirs, and an LRU cache
# smaller than such a cycle would miss on every fiber.
_KERNEL_CACHE_SIZE = 512


def _mono_reads(mono: tuple[tuple[int, float], ...], pos: int) -> bool:
    return any(i == pos for i, _ in mono)


def _unit_reads(plan, pos: int) -> bool:
    return any(_mono_reads(m, pos) for _, m in plan[1])


def _term_reads(plan, pos: int) -> bool:
    """Whether evaluating a term from its float plan reads point[pos]."""
    _, mono, logs, extras, unit = plan
    return (
        _mono_reads(mono, pos)
        or _mono_reads(logs, pos)
        or any(_atom_reads(a, pos) for a, _ in extras)
        or (unit is not None and _unit_reads(unit, pos))
    )


def _atom_reads(a, pos: int) -> bool:
    if a.__class__ is float:
        return False
    if isinstance(a, PolyUnit):
        return _unit_reads(a._float_plan, pos)
    return any(_term_reads(p, pos) for p in a._float_plan)


def _log_atom_power(a, k: int):
    return lambda point: math.log(a.eval(point)) ** k


def _fiber_monomial(mono, base: list, last: int):
    """(pre, e): the monomial at y is pre * y**e, or pre when e is None.

    pre is the product over the base coordinates, left to right from 1.0;
    y has the highest index, so its power comes last as in eval."""
    e = mono[-1][1] if mono and mono[-1][0] == last else None
    return _monomial_value(mono if e is None else mono[:-1], base), e


def _fiber_term(plan, base: list, last: int, args: list) -> tuple:
    """The structure of a term along the fiber: whether its monomial reads
    y, then the kind of each factor.  Appends the term's constants to args
    in the order the kernel takes them: coeff, pre and e of the monomial,
    then each factor's value, log power or function, a unit's constant and
    then c, pre and e of each of its monomials."""
    coeff, mono, logs, extras, unit = plan
    pre, e = _fiber_monomial(mono, base, last)
    args += (coeff, pre) if e is None else (coeff, pre, e)
    kinds = [e is not None]
    for i, p in logs:
        if i == last:
            kinds.append(_LOG_Y)
            args.append(p)
        else:
            kinds.append(_CONST)
            args.append(math.log(base[i]) ** p)
    for a, k in extras:
        if _atom_reads(a, last):
            kinds.append(_AT_POINT)
            args.append(_log_atom_power(a, k))
        else:
            kinds.append(_CONST)
            args.append(
                a ** k if a.__class__ is float else math.log(a.eval(base)) ** k
            )
    if unit is not None:
        if _unit_reads(unit, last):
            constant, monos = unit
            args.append(constant)
            flags = []
            for c, m in monos:
                pre_u, e_u = _fiber_monomial(m, base, last)
                args += (c, pre_u) if e_u is None else (c, pre_u, e_u)
                flags.append(e_u is not None)
            kinds.append(tuple(flags))
        else:
            kinds.append(_CONST)
            args.append(_unit_value(unit, base))
    return tuple(kinds)


# 7-point Gauss / 15-point Kronrod pair on [-1, 1]: the nodes from the
# outermost in, then the centre, with their Kronrod weights, and the Gauss
# weights of every second node and of the centre.
_KRONROD_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_GAUSS_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# One Gauss-Kronrod panel over (a, b), the float operations of the loop over
# the node table in tests/conftest.gk15_reference, in its order: the centre
# c, then c - x and c + x for each node x from the outermost in.  Each node
# u is the fiber coordinate y, or y = u**k with the Jacobian
# k * u**(k - 1) when k > 1; {value} is the sum's straight-line expression
# at y.
_PANEL_SOURCE = """\
def panel(a, b, k, base{params}):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6 = h * N0, h * N1, h * N2, h * N3, h * N4, h * N5, h * N6
    u = (c, c - x0, c + x0, c - x1, c + x1, c - x2, c + x2, c - x3, c + x3,
         c - x4, c + x4, c - x5, c + x5, c - x6, c + x6)
    f = []
    for y in u if k == 1 else [x ** k for x in u]:
        f.append({value})
    if k != 1:
        f = [v * k * x ** (k - 1) for v, x in zip(f, u)]
    fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 = f
    s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
    kron = (
        W7 * fc + W0 * (l0 + r0) + W1 * s1 + W2 * (l2 + r2) + W3 * s3
        + W4 * (l4 + r4) + W5 * s5 + W6 * (l6 + r6)
    ) * h
    gauss = (G3 * fc + G0 * s1 + G1 * s3 + G2 * s5) * h
    return kron, abs(kron - gauss)
"""


def _kernel_source(structure: tuple) -> str:
    """Source of panel(a, b, k, base, k0, k1, ...): one Gauss-Kronrod panel
    of the fiber's sum, straight-line code at each node, with the constants
    k0, k1, ... in _fiber_term's order.  Only these templates and parameter
    indices go into it."""
    n = 0

    def k() -> str:
        nonlocal n
        n += 1
        return f"k{n - 1}"

    def monomial(reads_y: bool) -> str:
        c, pre = k(), k()
        return f"{c} * ({pre} * y ** {k()})" if reads_y else f"{c} * {pre}"

    once: set[str] = set()  # ly and point, each bound at its first use

    def first_use(name: str, value: str) -> str:
        if name in once:
            return name
        once.add(name)
        return f"({name} := {value})"

    value = ["0"]
    for reads_y, *kinds in structure:
        term = [monomial(reads_y)]
        for kind in kinds:
            if kind.__class__ is tuple:
                # a unit: constant + sum of c * (pre * y**e), as _unit_value adds
                term.append(f"({' + '.join([k()] + [monomial(r) for r in kind])})")
            elif kind == _CONST:
                term.append(k())
            elif kind == _LOG_Y:
                term.append(f"{first_use('ly', 'log(y)')} ** {k()}")
            else:
                term.append(f"{k()}({first_use('point', 'base + [y]')})")
        value.append(" * ".join(term))
    return _PANEL_SOURCE.format(
        params="".join(f", k{i}" for i in range(n)), value=" + ".join(value)
    )


# the names a panel looks up: log, abs, zip and the rule's nodes and weights
_KERNEL_GLOBALS = {
    "log": math.log,
    "abs": abs,
    "zip": zip,
    **{f"N{i}": x for i, x in enumerate(_KRONROD_NODES[:7])},
    **{f"W{i}": w for i, w in enumerate(_KRONROD_WEIGHTS)},
    **{f"G{i}": w for i, w in enumerate(_GAUSS_WEIGHTS)},
}


@table("core._fiber_kernel", _KERNEL_CACHE_SIZE)
def _fiber_kernel(structure: tuple) -> CodeType:
    """The code of panel(a, b, k, base, k0, k1, ...), compiled once per
    structure; k is an argument, so one code serves every substitution."""
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(_kernel_source(structure), "<fiber kernel>", "exec"), namespace)
    return namespace["panel"].__code__


def _eval_monomial_exact(m: ExpVec, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(1)
    for i, e in enumerate(m.exps):
        if e:
            total *= exact_pow(Fraction(point[i]), e)
    return total


# ---------------------------------------------------------------------------
# Constructible expressions
# ---------------------------------------------------------------------------


class CExpr(Value):
    """A finite sum of terms over a fixed ambient variable count."""

    nvars: int
    terms: tuple[Term, ...] = ()
    # True on the results of normalize, which returns such a sum unchanged;
    # not a field, so equality and hashing are unchanged
    _normal = False

    def __init__(self, nvars, terms=()):
        for t in terms:
            if t.nvars != nvars:
                raise ValueError("term ambient size differs from expression")
        set_field(self, "nvars", nvars)
        set_field(self, "terms", terms)

    @staticmethod
    def zero(nvars: int) -> "CExpr":
        return CExpr(nvars, ())

    @staticmethod
    def const(c: RatLike, nvars: int) -> "CExpr":
        c = Fraction(c)
        if c == 0:
            return CExpr.zero(nvars)
        return CExpr(nvars, (Term.constant(c, nvars),))

    def __add__(self, other: "CExpr") -> "CExpr":
        if self.nvars != other.nvars:
            raise ValueError("ambient size mismatch")
        return CExpr(self.nvars, self.terms + other.terms)

    def __sub__(self, other: "CExpr") -> "CExpr":
        return self + other.scaled(-1)

    def __mul__(self, other: "CExpr") -> "CExpr":
        if self.nvars != other.nvars:
            raise ValueError("ambient size mismatch")
        out: list[Term] = []
        for a in self.terms:
            for b in other.terms:
                out.extend(term_mul(a, b))
        return CExpr(self.nvars, tuple(out))

    def scaled(self, c: RatLike) -> "CExpr":
        c = Fraction(c)
        if c == 0:
            return CExpr.zero(self.nvars)
        return CExpr(self.nvars, tuple(t.scaled(c) for t in self.terms))

    @cached_property
    def _float_plan(self):
        return tuple(t._float_plan for t in self.terms)

    def eval(self, point: Sequence[float]) -> float:
        return left_sum(_term_values(self._float_plan, point))

    def panel(
        self, base_point: Sequence[float], k: int = 1
    ) -> Callable[[float, float], tuple[float, float]]:
        """(a, b) -> the 15-point Gauss-Kronrod estimate of the integral of
        y -> self.eval(list(base_point) + [y]) over (a, b), or over y = u**k
        with its Jacobian for k > 1, and its error: the floats of the loop
        over the node table (tests/conftest.gk15_reference) over that
        function, bit for bit.

        Every factor that does not read the last coordinate is computed once
        here, as the value eval would compute for it, and so is the base part
        of each monomial, the term's own and those of a polynomial unit that
        reads y.  The function returned is a compiled kernel: straight-line
        code for the sum's structure (the number of terms; for each, whether
        its monomial reads y and the kind of each factor, a unit that reads
        y with the y-flags of its monomials) at each node, whose parameters
        after b default to k, the base and these constants, so no number
        enters its source.  Sums of one structure share one compile, for
        every k; the _KERNEL_CACHE_SIZE structures used last stay compiled.
        At each node the kernel still multiplies the factors one by one in
        eval's order (constants are never pre-multiplied: (t*a)*b is not
        always t*(a*b) in floats), and adds the terms left to right from
        int 0.
        """
        base = list(base_point)
        if len(base) != self.nvars - 1:
            raise ValueError(
                f"a fiber base point has {self.nvars - 1} coordinates, "
                f"got {len(base)}"
            )
        last = len(base)
        args: list = []
        structure = tuple(
            _fiber_term(plan, base, last, args) for plan in self._float_plan
        )
        return FunctionType(
            _fiber_kernel(structure), _KERNEL_GLOBALS, "panel", (k, base, *args)
        )

    def eval_exact(self, point: Sequence[Fraction]) -> Fraction:
        return sum((t.eval_exact(point) for t in self.terms), Fraction(0))

    def has_opaque(self) -> bool:
        return any(t.has_opaque() for t in self.terms)

    def map_terms(self, f) -> "CExpr":
        """The sum of f(t) over the terms t; f returns a term or a list of
        terms.  When f returns every term itself, this sum comes back (still
        marked if normalize made it)."""
        out: list[Term] = []
        same = True
        for t in self.terms:
            r = f(t)
            if isinstance(r, Term):
                out.append(r)
                same = same and r is t
            else:
                out.extend(r)
                same = False
        return self if same else CExpr(self.nvars, tuple(out))


def term_mul(a: Term, b: Term) -> list[Term]:
    """Product of two terms; distributes if the unit product is uncertifiable."""
    if a.nvars != b.nvars:
        raise ValueError("ambient size mismatch")
    return times_term(a.coeff, a.exps, a.logpows, a.extras, a.unit, b)


def times_term(
    coeff: Fraction,
    exps: ExpVec,
    logpows: tuple[int, ...],
    extras: tuple[tuple[LogAtom, int], ...],
    unit: PolyUnit,
    b: Term,
) -> list[Term]:
    """The term with these canonical parts times b, without building the
    term itself.

    With trivial units (1 * 1 = 1: nothing to multiply out or certify), the
    product is built directly: the two sorted extras tuples merge in one
    pass, so Term.make would rebuild the same term.  Every other product
    goes through Term.make, or distributes an uncertifiable unit product."""
    coeff = coeff * b.coeff
    exps = exps + b.exps
    logpows = tuple(map(operator.add, logpows, b.logpows))
    if unit.is_trivial and b.unit.is_trivial:
        merged = _merge_extras(extras, b.extras)
        if merged is not None:
            return [Term(coeff, exps, logpows, merged)]
        return [Term.make(coeff, exps, logpows, list(extras) + list(b.extras))]
    nv = len(exps)
    poly = poly_mul(unit.as_poly(nv), b.unit.as_poly(nv))
    return terms_from_poly(coeff, exps, logpows, list(extras) + list(b.extras),
                           poly, nv)


def _merge_extras(
    x: tuple[tuple[LogAtom, int], ...], y: tuple[tuple[LogAtom, int], ...]
) -> tuple[tuple[LogAtom, int], ...] | None:
    """The product of two canonical extras tuples, merged in one pass: equal
    atoms add their powers, the rest keep _atom_sort_key order.  None when
    two different atoms share a sort key, whose order Term.make decides."""
    if not x or not y:
        return x or y
    out = []
    i = j = 0
    while i < len(x) and j < len(y):
        (a, k), (b, m) = x[i], y[j]
        if type(a) is LogPrime and type(b) is LogPrime:
            # distinct primes, distinct keys (0, prime, ())
            ka, kb = a.prime, b.prime
        else:
            ka, kb = _atom_sort_key(a), _atom_sort_key(b)
        if ka < kb:
            out.append(x[i])
            i += 1
        elif kb < ka:
            out.append(y[j])
            j += 1
        elif a == b:
            out.append((a, k + m))
            i += 1
            j += 1
        else:
            return None
    out.extend(x[i:])
    out.extend(y[j:])
    return tuple(out)


def terms_from_poly(
    coeff: Fraction,
    exps: ExpVec,
    logpows: tuple[int, ...],
    extras: list[tuple[LogAtom, int]],
    poly: MonoPoly,
    nv: int,
) -> list[Term]:
    """coeff * y^exps * logs * poly, as a unit-carrying term if certifiable,
    otherwise distributed over the monomials of poly."""
    if not poly:
        return []
    if poly_is_certifiable_unit(poly):
        u = unit_from_poly(poly, nv)
        return [Term.make(coeff, exps, logpows, extras, u)]
    out = []
    for m, c in sorted(poly.items(), key=lambda mc: mc[0].exps):
        out.append(Term.make(coeff * c, exps + m, logpows, extras))
    return out


def normalize(e: CExpr) -> CExpr:
    """Merge same-signature terms, delete zero terms, multiply units out.

    Returns an equal function.  Same-signature terms with trivial units
    merge by adding their coefficients (a zero sum is deleted); any other
    group merges by summing its coeff * unit polynomials, and when that sum
    is not a certifiable unit the polynomial is distributed into plain
    monomial terms (which may enable further merging, hence the fixpoint
    loop).  Before grouping, every composite constant log that shares a
    prime with another constant log of the sum is written over its primes
    (_coprime_base), so the constant logs left are pairwise coprime: then
    distinct signatures stay distinct over primes, and merging decides as
    it would on prime_form.  A sum of at most one term with nothing to
    split is already normal and comes back unchanged, and so does a result
    of normalize: its signatures are distinct and sorted, so a second pass
    would rebuild the same terms.
    The result is one CExpr built once, so callers that add many sums
    should collect their terms in a list and normalize the whole once,
    rather than add CExprs step by step (each addition re-validates every
    term so far).
    """
    if e._normal:
        return e
    terms = _coprime_base(e.terms)
    if len(terms) <= 1 and terms is e.terms:
        return e
    terms = list(terms)
    nv = e.nvars
    # Merging can distribute an uncertifiable unit sum into plain monomial
    # terms, whose new signatures may collide again; plain terms merge to
    # plain terms, so the loop settles in at most three passes.
    for _ in range(10):
        groups: dict[tuple, list[Term]] = {}
        for t in terms:
            groups.setdefault(t.signature(), []).append(t)
        out: list[Term] = []
        changed = False
        for group in groups.values():
            if len(group) == 1:
                out.append(group[0])
                continue
            rep = group[0]
            if all(t.unit.is_trivial for t in group):
                # coeff * 1 summed is the coefficient sum; a nonzero sum
                # keeps the group's signature, so it cannot collide again
                coeff = sum((t.coeff for t in group), Fraction(0))
                if coeff:
                    out.append(Term(coeff, rep.exps, rep.logpows, rep.extras))
                continue
            changed = True
            poly: MonoPoly = {}
            for t in group:
                poly = poly_add(poly, poly_scale(t.unit.as_poly(nv), t.coeff))
            out.extend(
                terms_from_poly(
                    Fraction(1), rep.exps, rep.logpows, list(rep.extras), poly, nv
                )
            )
        terms = out
        if not changed:
            break
    else:  # pragma: no cover - see the termination note above
        raise RuntimeError("normalize did not reach a fixpoint")
    terms.sort(key=lambda t: t.signature())
    result = CExpr(nv, tuple(terms))
    object.__setattr__(result, "_normal", True)
    return result


def _coprime_base(terms: Sequence[Term]) -> Sequence[Term]:
    """The terms with every composite constant log that shares a prime with
    another constant log of the sum written over its primes; the terms
    themselves when the constant logs are pairwise coprime already.

    One pass suffices: a composite kept whole shares no prime with any atom
    of the sum, so none with the primes of the composites split."""
    composites = {
        a for t in terms if t.extras for a, _ in t.extras
        if type(a) is LogComposite
    }
    if not composites:
        return terms
    args = {a.n for a in composites} | {
        a.prime for t in terms for a, _ in t.extras if type(a) is LogPrime
    }
    shared = {
        a for a in composites
        if any(m != a.n and math.gcd(m, a.n) > 1 for m in args)
    }
    if not shared:
        return terms
    return _over_primes(terms, shared)


def _over_primes(
    terms: Sequence[Term], which: set[LogComposite] | None = None
) -> list[Term]:
    """The terms with each composite constant log in `which` (every one when
    None) written over its primes, unsorted: the products of _prime_powers,
    built once per composite, their prime-log extras from its keys with one
    LogPrime per prime, each new term built once from canonical parts."""
    powers = _prime_powers(terms, which)
    logs = {p: LogPrime(p) for a in powers for p in a.primes}
    pieces: dict[tuple, list[tuple]] = {}  # (composite, k): its products
    out: list[Term] = []
    for t in terms:
        split = [ak for ak in t.extras if ak[0] in powers]
        if not split:
            out.append(t)
            continue
        variants = [(t.coeff, tuple(ak for ak in t.extras if ak not in split))]
        for a, k in split:
            if (a, k) not in pieces:
                pieces[a, k] = [(m, tuple((logs[pk[1]], i) for pk, i in key))
                                for m, key, _ in powers[a][k]]
            product = []
            for c, ex in variants:
                times = {m: c * m for m in {m for m, _ in pieces[a, k]}}
                product += [(times[m], _merge_extras(ex, piece)) for m, piece in pieces[a, k]]
            variants = product
        out += [Term(c, t.exps, t.logpows, ex, t.unit) for c, ex in variants]
    return out


def _prime_powers(
    terms: Sequence[Term], which: set[LogComposite] | None = None
) -> dict[LogComposite, list[list[tuple]]]:
    """For each composite constant log of the terms (in `which`, if given)
    and j up to its highest power k, (log p_1 + ... + log p_m)^j expanded:
    one entry per product, of its multinomial coefficient, the signature key
    of its prime logs and its text (log(2)^3 * log(5)), built prime by prime
    from (log p + rest)^j = sum_i C(j, i) (log p)^i rest^(j - i).  Taking
    i = 1..j before i = 0 (keys starting at a larger prime), each with
    rest^(j - i) in order, keeps each list in rising key order; no key of
    one j is a prefix of another, so that holds with one key appended to all."""
    top: dict[LogComposite, int] = {}
    for t in terms:
        for a, k in t.extras:
            if type(a) is LogComposite and (which is None or a in which):
                top[a] = max(k, top.get(a, 0))
    out = {}
    for a, k in top.items():
        powers: list[list] = [[(1, (), "")]] + [[] for _ in range(k)]
        for p in reversed(a.primes):
            heads = [((((0, p, ()), i),), f"log({p})^{i}" if i > 1 else f"log({p})")
                     for i in range(k + 1)]
            powers = [
                [
                    (c * m, head + key, f"{log} * {text}" if text else log)
                    for i in range(1, j + 1)
                    for c, (head, log) in ((math.comb(j, i), heads[i]),)
                    for m, key, text in powers[j - i]
                ] + powers[j]
                for j in range(k + 1)
            ]
        out[a] = powers
    return out


def prime_form(e: CExpr) -> CExpr:
    """normalize(e) with every constant log written over primes: the terms
    eval, check-integrability and decay-rate work on.  print_expr prints
    the same terms in the same order without building them.

    normalize keeps the constant logs of a sum pairwise coprime, so distinct
    terms expand to disjoint sets of prime-log terms, each with a positive
    multinomial coefficient: the expansion is normal once sorted, with
    nothing to merge."""
    e = normalize(e)
    if not any(
        type(a) is LogComposite for t in e.terms for a, _ in t.extras
    ):
        return e
    terms = _over_primes(e.terms)
    terms.sort(key=Term.signature)
    result = CExpr(e.nvars, tuple(terms))
    object.__setattr__(result, "_normal", True)
    return result


def is_normalized(e: CExpr) -> bool:
    sigs = [t.signature() for t in e.terms]
    return len(sigs) == len(set(sigs)) and all(
        poly_is_certifiable_unit(poly_scale(t.unit.as_poly(e.nvars), t.coeff))
        for t in e.terms
    )


def is_zero(e: CExpr) -> bool:
    """Zero test for normalized expressions.

    Distinct (monomial, variable-log, constant-log) signatures are linearly
    independent: for variable logs this is the distinct-asymptotic-scale
    argument.  The constant logs of a normalized sum are logs of a pairwise
    coprime base (primes, and squarefree composites such as 30030 kept
    whole), and such logs are multiplicatively independent: in degree 1,
    sum a_i log b_i = 0 only if prod b_i^(a_i) = 1, which for pairwise
    coprime b_i > 1 forces every a_i = 0 (unique factorization, and
    Lindemann's theorem against a rational constant).  Both are proven, so
    the test is exact in degree 1.  Products of two or more constant logs,
    such as log 2 * log 3 or (log 30030)^2, are treated as independent as
    well.  That rests on Schanuel-type algebraic independence of the logs
    of a coprime base, which is a conjecture, not a theorem, so a "nonzero"
    verdict that depends on it is conditional, as over primes.  Unit logs
    have no such independence, so they are rejected.
    """
    sigs = [t.signature() for t in e.terms]
    if len(sigs) != len(set(sigs)):
        raise NotNormalized("duplicate signatures; call normalize first")
    if not e.terms:
        return True
    if e.has_opaque():
        raise ZeroTestUnsupported(
            "zero test is unsupported for expressions with unit-log atoms"
        )
    return False


def expand_ratios(e: CExpr) -> CExpr:
    """e itself.  Kept bound only because bench/tracing.py wraps it by name;
    no code calls it, and it goes with that wrap."""
    return e


def differentiate(t: Term, pos: int) -> CExpr:
    """Exact partial derivative of a term in variable `pos`.

    Product/power/log rules; d(log y)/dy = y^(-1); the unit's derivative is
    a plain polynomial and distributes over monomial terms.  Unit-log atoms
    involving `pos` would need u'/u, which leaves the fragment.
    """
    nv = t.nvars
    out: list[Term] = []
    # power rule on the monomial part
    if t.exps[pos] != 0:
        out.append(
            Term.make(
                t.coeff * t.exps[pos],
                t.exps.with_entry(pos, t.exps[pos] - 1),
                t.logpows, t.extras, t.unit,
            )
        )
    # log rule on (log y_pos)^l
    if t.logpows[pos] > 0:
        lp = list(t.logpows)
        lp[pos] -= 1
        out.append(
            Term.make(
                t.coeff * t.logpows[pos],
                t.exps.with_entry(pos, t.exps[pos] - 1),
                tuple(lp), t.extras, t.unit,
            )
        )
    # opaque log atoms must not involve pos
    for atom, k in t.extras:
        if isinstance(atom, LogUnitAtom) and pos in atom.unit.support():
            raise FragmentEscape(
                "derivative of a unit-log atom leaves the fragment"
            )
        if isinstance(atom, LogExprAtom):
            raise FragmentEscape("prepare composite logs before differentiating")
    # unit derivative: plain polynomial, distribute
    dpoly = t.unit.derivative(pos, nv)
    if dpoly:
        out.extend(
            terms_from_poly(t.coeff, t.exps, t.logpows, list(t.extras), dpoly, nv)
        )
    return normalize(CExpr(nv, tuple(out)))


def differentiate_expr(e: CExpr, pos: int) -> CExpr:
    out: list[Term] = []
    for t in e.terms:
        out.extend(differentiate(t, pos).terms)
    return normalize(CExpr(e.nvars, tuple(out)))


# ---------------------------------------------------------------------------
# Multinomial expansion of powered log sums
# ---------------------------------------------------------------------------


def compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of nonnegative integers summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, k - 1):
            yield (first,) + rest


# One addend of a logarithm written as a sum:  coeff * log(atom), where the
# atom is a cell variable, a prime, or a monic polynomial unit.
LogSumItem = tuple[Fraction, LogAtom]


def log_of_monomial_unit(
    coeff: Fraction, exps: ExpVec, unit: PolyUnit
) -> list[LogSumItem]:
    """log(coeff * y^exps * unit) as a sum of log atoms.

    This is the one producer of constant logs.  The constant, coeff times
    the unit's scale, is written over the coprime base of its own
    factorization (constant_log_items): the primes of equal exponent make
    one atom, so log(30030) stays one LogComposite, while log 12 is
    2 log 2 + log 3.  The atoms come first, arguments rising, then the
    variable logs and the opaque log of the monic unit."""
    if coeff <= 0:
        raise FragmentEscape(f"log of non-positive constant {coeff}")
    scale, u0 = unit.monic()
    if scale <= 0:
        raise FragmentEscape("log of a negative unit")
    items = constant_log_items(coeff * scale)
    for i, e in enumerate(exps):
        if e != 0:
            items.append((e, LogVar(i)))
    if not u0.is_trivial:
        items.append((Fraction(1), LogUnitAtom(u0)))
    return items


def constant_log_items(q: Fraction) -> list[LogSumItem]:
    """log q for a positive rational q over the coprime base of its
    factorization: the primes with one exponent e make one squarefree atom
    with coefficient e, a LogPrime for a single prime and a LogComposite
    otherwise; arguments rising.  The atoms are pairwise coprime."""
    groups: dict[int, list[int]] = {}
    for p, e in sorted(log_const_exponents(q).items()):
        groups.setdefault(e, []).append(p)
    items: list[LogSumItem] = [
        (Fraction(e), LogPrime(ps[0]) if len(ps) == 1
         else LogComposite(math.prod(ps), tuple(ps)))
        for e, ps in groups.items()
    ]
    items.sort(key=lambda item: _atom_sort_key(item[1]))
    return items


# One summand of an expanded log power: (coefficient, logpows, extras).
LogPowerPiece = tuple[Fraction, tuple[int, ...], tuple[tuple[LogAtom, int], ...]]


def expand_log_power(
    items: Sequence[LogSumItem], power: int, nvars: int
) -> list[LogPowerPiece]:
    """Expand (sum coeff_i * log atom_i)^power multinomially.

    Returns (coefficient, logpows delta, extras delta) triples; exact.
    """
    if power == 0:
        return [(Fraction(1), (0,) * nvars, ())]
    fact = [math.factorial(j) for j in range(power + 1)]
    out: list[LogPowerPiece] = []
    for parts in compositions(power, len(items)):
        multinomial = fact[power]
        for k in parts:
            multinomial //= fact[k]
        coeff = Fraction(multinomial)
        logpows = [0] * nvars
        extras: list[tuple[LogAtom, int]] = []
        for (c, atom), k in zip(items, parts):
            if k == 0:
                continue
            if c != 1:
                coeff *= c ** k
            if isinstance(atom, LogVar):
                logpows[atom.pos] += k
            else:
                extras.append((atom, k))
        if coeff != 0:
            out.append((coeff, tuple(logpows), tuple(extras)))
    return out


def times_log_power(base: Term, expansion: Sequence[LogPowerPiece]) -> list[Term]:
    """base times an expanded log power, one term per piece."""
    return [
        Term.make(
            base.coeff * c,
            base.exps,
            tuple(a + b for a, b in zip(base.logpows, lp)),
            base.extras + ex,
            base.unit,
        )
        for c, lp, ex in expansion
    ]
