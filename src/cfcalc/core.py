"""Exact representations of terms and constructible expressions.

A constructible expression is a finite sum of terms

    coeff * prod_j y_j^(r_j) * prod_j (log y_j)^(l_j) * extras * unit,

with rational coeff and exponents r_j, nonnegative integer log powers l_j,
`extras` a multiset of opaque log atoms (logs of primes, logs of certified
polynomial units) and bounded ratio factors, and `unit` a certified
polynomial unit.  All arithmetic is exact: coefficients and exponents are
`fractions.Fraction` and nothing is ever rounded.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    FragmentEscape,
    NotNormalized,
    UnitCertificateViolated,
    ZeroTestUnsupported,
)

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
    num = _int_nth_root(q.numerator, r.denominator)
    den = _int_nth_root(q.denominator, r.denominator)
    if num is None or den is None:
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


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 1, or None if not a perfect power."""
    if n == 1:
        return 1
    # Integer Newton from 2^ceil(bits/k) >= n^(1/k): the iterates decrease
    # to floor(n^(1/k)) and stop there.  No floats, so n may have any size.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == n else None


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


@dataclass(frozen=True)
class ExpVec:
    """Per-variable rational exponents; zero entries carried explicitly."""

    exps: tuple[Fraction, ...]

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

    def drop_last(self) -> "ExpVec":
        return ExpVec(self.exps[:-1])

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


@dataclass(frozen=True)
class PolyUnit:
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

    def __post_init__(self):
        if self.constant == 0:
            raise UnitCertificateViolated("unit constant must be nonzero")
        if any(c == 0 or m.is_zero() for c, m in self.monos):
            raise UnitCertificateViolated(
                "unit summands must have nonzero coefficient and exponent"
            )
        lo, hi = self.value_bounds()
        if self.constant > 0:
            if lo <= 0:
                raise UnitCertificateViolated(
                    f"unit may cross 0: value range [{lo}, {hi}]"
                )
        else:
            if hi >= 0:
                raise UnitCertificateViolated(
                    f"unit may cross 0: value range [{lo}, {hi}]"
                )

    @staticmethod
    def one() -> "PolyUnit":
        return _UNIT_ONE

    @staticmethod
    def constant_unit(c: RatLike) -> "PolyUnit":
        return PolyUnit(Fraction(c))

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
    constant = sum((c for m, c in poly.items() if m.is_zero()), Fraction(0))
    if constant == 0:
        return False
    neg = sum(
        (c for m, c in poly.items() if not m.is_zero() and (c < 0) == (constant > 0)),
        Fraction(0),
    )
    return abs(constant) > abs(neg)


# ---------------------------------------------------------------------------
# Log atoms and ratio factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogVar:
    """log y_pos for a fat variable of the owning cell."""

    pos: int


@dataclass(frozen=True)
class LogPrime:
    """log p for a prime p >= 2 (canonical form of log of a constant)."""

    prime: int


@dataclass(frozen=True)
class LogUnitAtom:
    """log u for a certified positive polynomial unit, kept opaque."""

    unit: PolyUnit

    def __post_init__(self):
        if self.unit.sign < 0:
            raise FragmentEscape("log of a negative unit")


@dataclass(frozen=True)
class LogExprAtom:
    """log of a not-yet-prepared composite argument (parser output only).

    The argument is an unexpanded constructible expression; preparation
    rewrites it as coeff * monomial * unit and expands the log.
    """

    arg: "CExpr"


LogAtom = Union[LogVar, LogPrime, LogUnitAtom, LogExprAtom]


def log_const(q: RatLike) -> list[tuple[LogPrime, int]]:
    """Canonical expansion of log q over prime logs (LogConst surface)."""
    return [
        (LogPrime(p), e) for p, e in sorted(log_const_exponents(Fraction(q)).items())
    ]


def _atom_sort_key(atom: LogAtom):
    if isinstance(atom, LogPrime):
        return (0, atom.prime, ())
    if isinstance(atom, LogUnitAtom):
        u = atom.unit
        return (1, 0, (u.constant, _unit_sort_key(u.monos)))
    if isinstance(atom, LogExprAtom):
        return (2, 0, tuple(t.signature() for t in atom.arg.terms))
    raise TypeError(f"unexpected atom in extras: {atom!r}")


@dataclass(frozen=True)
class RatioFactor:
    """(y^exps)^power with a certified value range (lo, hi), 0 < lo.

    Bookkeeping device for exponents absorbed off asymptotically determined
    variables; folds back into plain exponents via expand_ratios.
    """

    exps: ExpVec
    power: Fraction
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise FragmentEscape(
                f"ratio factor needs a certified range, got ({self.lo}, {self.hi})"
            )

    def key(self):
        return (self.exps.exps, self.power)

    def support(self) -> frozenset[int]:
        return self.exps.support

    def effective_exps(self) -> ExpVec:
        return self.exps.scale(self.power)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _rising_prime_logs(extras: tuple[tuple[LogAtom, int], ...]) -> bool:
    """Whether extras are prime logs with positive powers, primes rising:
    the canonical form Term.make would sort them into."""
    prev = 1
    for atom, k in extras:
        if type(atom) is not LogPrime or k <= 0 or atom.prime <= prev:
            return False
        prev = atom.prime
    return True


@dataclass(frozen=True)
class Term:
    """One prepared summand: coeff * y^exps * logs * extras * ratios * unit."""

    coeff: Fraction
    exps: ExpVec
    logpows: tuple[int, ...]
    extras: tuple[tuple[LogAtom, int], ...] = ()
    ratios: tuple[RatioFactor, ...] = ()
    unit: PolyUnit = _UNIT_ONE

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero terms are deleted, not constructed")
        if len(self.logpows) != len(self.exps):
            raise ValueError("logpows and exps must share the ambient size")
        if self.logpows and min(self.logpows) < 0:
            raise ValueError("log powers are nonnegative")

    @staticmethod
    def make(
        coeff: RatLike,
        exps: ExpVec | Sequence[RatLike],
        logpows: Sequence[int] | None = None,
        extras: Iterable[tuple[LogAtom, int]] = (),
        ratios: Iterable[RatioFactor] = (),
        unit: PolyUnit = _UNIT_ONE,
    ) -> "Term":
        """Canonicalizing constructor.

        Folds LogVar atoms into logpows, expands log-of-constant atoms over
        primes, normalizes the unit to constant 1 (scale goes to coeff), and
        sorts extras/ratios.  Parts that are canonical already (no ratios, a
        trivial unit, and extras a tuple of prime logs with positive powers
        in rising order, as times_log_power passes them) are taken as they
        are.
        """
        if not isinstance(exps, ExpVec):
            exps = ExpVec.of(exps)
        nv = len(exps)
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if (
            not ratios
            and unit.is_trivial
            and type(extras) is tuple
            and _rising_prime_logs(extras)
        ):
            lp = tuple(logpows) if logpows is not None else (0,) * nv
            return Term(coeff, exps, lp, extras, (), unit)
        lp = list(logpows) if logpows is not None else [0] * nv
        atom_pows: dict[LogAtom, int] = {}
        for atom, k in extras:
            if k == 0:
                continue
            if k < 0:
                raise ValueError("extra log factors have positive powers")
            if isinstance(atom, LogVar):
                lp[atom.pos] += k
                continue
            if isinstance(atom, LogUnitAtom):
                # canonicalize log of a constant: log(p^e) = e log p scales
                # the coefficient; multi-prime constants expand into sums and
                # must go through expand_log_power instead.
                scale, u0 = atom.unit.monic()
                if u0.is_trivial:
                    expansion = log_const(scale)
                    if not expansion:
                        raise FragmentEscape("log(1) annihilates the term")
                    if len(expansion) > 1:
                        raise FragmentEscape(
                            "log of a multi-prime constant is a sum; expand "
                            "it with expand_log_power"
                        )
                    patom, pe = expansion[0]
                    coeff *= Fraction(pe) ** k
                    atom_pows[patom] = atom_pows.get(patom, 0) + k
                    continue
                if scale != 1:
                    raise FragmentEscape(
                        "log-unit atoms must carry monic units; "
                        "split the constant with log_const first"
                    )
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
        rts: dict[tuple, RatioFactor] = {}
        for r in ratios:
            prev = rts.get(r.key())
            if prev is None:
                rts[r.key()] = r
            else:
                rts[r.key()] = RatioFactor(
                    r.exps, r.power, max(prev.lo, r.lo), min(prev.hi, r.hi)
                )
        rt = tuple(sorted(rts.values(), key=lambda r: r.key()))
        return Term(coeff, exps, tuple(lp), ext, rt, unit)

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
                tuple(
                    ((0, a.prime, ()) if type(a) is LogPrime else _atom_sort_key(a), k)
                    for a, k in self.extras
                ),
                tuple(r.key() for r in self.ratios),
            )
        return sig

    def has_opaque(self) -> bool:
        return bool(self.ratios) or any(
            isinstance(a, (LogUnitAtom, LogExprAtom)) for a, _ in self.extras
        )

    def opaque_support(self) -> frozenset[int]:
        """Variables appearing inside opaque atoms (unit logs, ratios)."""
        out: set[int] = set()
        for a, _ in self.extras:
            if isinstance(a, LogUnitAtom):
                out |= a.unit.support()
            elif isinstance(a, LogExprAtom):
                for t in a.arg.terms:
                    out |= t.exps.support | t.opaque_support()
                    out |= {i for i, p in enumerate(t.logpows) if p > 0}
        for r in self.ratios:
            out |= r.support()
        return frozenset(out)

    def scaled(self, c: RatLike) -> "Term":
        c = Fraction(c)
        if c == 0:
            raise ValueError("zero terms are deleted, not constructed")
        return Term(self.coeff * c, self.exps, self.logpows, self.extras,
                    self.ratios, self.unit)

    def with_exps(self, exps: ExpVec) -> "Term":
        return Term(self.coeff, exps, self.logpows, self.extras, self.ratios,
                    self.unit)

    @cached_property
    def _float_plan(self):
        # everything eval needs in floats, converted once on first use (a
        # term that is never evaluated never builds it); see _term_values
        return (
            float(self.coeff),
            _float_monomial(self.exps),
            tuple((i, p) for i, p in enumerate(self.logpows) if p),
            tuple((_float_atom(a), k) for a, k in self.extras),
            tuple((_float_monomial(r.exps), float(r.power)) for r in self.ratios),
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
        for r in self.ratios:
            total *= exact_pow(_eval_monomial_exact(r.exps, point), r.power)
        return total * self.unit.eval_exact(point)


def _float_monomial(m: ExpVec) -> tuple[tuple[int, float], ...]:
    return tuple((i, float(e)) for i, e in enumerate(m.exps) if e)


def _float_atom(atom: LogAtom):
    """log p as a float for a prime log; otherwise the unit or expression
    whose log the atom is, evaluated at each point."""
    if isinstance(atom, LogPrime):
        return math.log(atom.prime)
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
    floats), then the variable logs, the extras, the ratios and the unit.
    """
    values = []
    for coeff, mono, logs, extras, ratios, unit in plans:
        total = coeff * _monomial_value(mono, point)
        for i, p in logs:
            total *= math.log(point[i]) ** p
        for a, k in extras:
            total *= (a if a.__class__ is float else math.log(a.eval(point))) ** k
        for rmono, power in ratios:
            total *= _monomial_value(rmono, point) ** power
        if unit is not None:
            total *= _unit_value(unit, point)
        values.append(total)
    return values


# The factors of a term along a fiber, after the monomial: a value computed
# once, log(y)^p, a polynomial unit that reads y, or a factor that reads the
# whole point (base + [y]).
_CONST, _LOG_Y, _UNIT_Y, _AT_POINT = range(4)


def _mono_reads(mono: tuple[tuple[int, float], ...], pos: int) -> bool:
    return any(i == pos for i, _ in mono)


def _unit_reads(plan, pos: int) -> bool:
    return any(_mono_reads(m, pos) for _, m in plan[1])


def _term_reads(plan, pos: int) -> bool:
    """Whether evaluating a term from its float plan reads point[pos]."""
    _, mono, logs, extras, ratios, unit = plan
    return (
        _mono_reads(mono, pos)
        or _mono_reads(logs, pos)
        or any(_atom_reads(a, pos) for a, _ in extras)
        or any(_mono_reads(m, pos) for m, _ in ratios)
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


def _ratio_power(mono, power: float):
    return lambda point: _monomial_value(mono, point) ** power


def _fiber_monomial(mono, base: list, last: int):
    """(pre, e): the monomial at y is pre * y**e, or pre when e is None.

    pre is the product over the base coordinates, left to right from 1.0;
    y has the highest index, so its power comes last as in eval."""
    e = mono[-1][1] if mono and mono[-1][0] == last else None
    return _monomial_value(mono if e is None else mono[:-1], base), e


def _fiber_term(plan, base: list, last: int):
    """(coeff, pre, e, factors): the term at y is coeff * (pre * y**e), or
    coeff * pre when e is None, times each factor in turn."""
    coeff, mono, logs, extras, ratios, unit = plan
    pre, e = _fiber_monomial(mono, base, last)
    factors = []
    for i, p in logs:
        factors.append(
            (_LOG_Y, p) if i == last else (_CONST, math.log(base[i]) ** p)
        )
    for a, k in extras:
        if _atom_reads(a, last):
            factors.append((_AT_POINT, _log_atom_power(a, k)))
        elif a.__class__ is float:
            factors.append((_CONST, a ** k))
        else:
            factors.append((_CONST, math.log(a.eval(base)) ** k))
    for rmono, power in ratios:
        if _mono_reads(rmono, last):
            factors.append((_AT_POINT, _ratio_power(rmono, power)))
        else:
            factors.append((_CONST, _monomial_value(rmono, base) ** power))
    if unit is not None:
        if _unit_reads(unit, last):
            # constant + sum of c * (pre * y**e), added as _unit_value adds
            constant, monos = unit
            factors.append((_UNIT_Y, (constant, tuple(
                (c, *_fiber_monomial(m, base, last)) for c, m in monos
            ))))
        else:
            factors.append((_CONST, _unit_value(unit, base)))
    return coeff, pre, e, tuple(factors)


def _eval_monomial_exact(m: ExpVec, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(1)
    for i, e in enumerate(m.exps):
        if e:
            total *= exact_pow(Fraction(point[i]), e)
    return total


# ---------------------------------------------------------------------------
# Constructible expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CExpr:
    """A finite sum of terms over a fixed ambient variable count."""

    nvars: int
    terms: tuple[Term, ...] = ()
    # True on the results of normalize, which returns such a sum unchanged;
    # not a field, so equality and hashing are unchanged
    _normal = False

    def __post_init__(self):
        for t in self.terms:
            if t.nvars != self.nvars:
                raise ValueError("term ambient size differs from expression")

    @staticmethod
    def of(terms: Iterable[Term], nvars: int) -> "CExpr":
        return CExpr(nvars, tuple(terms))

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

    def fiber(self, base_point: Sequence[float]) -> Callable[[float], float]:
        """y -> self.eval(list(base_point) + [y]), bit for bit.

        Every factor that does not read the last coordinate is computed once
        here, as the value eval would compute for it, and so is the base part
        of each monomial, the term's own and those of a polynomial unit that
        reads y; at each y the factors are still multiplied one by one in
        eval's order (constants are never pre-multiplied: (t*a)*b is not
        always t*(a*b) in floats), and the terms are added left to right
        from int 0.
        """
        base = list(base_point)
        if len(base) != self.nvars - 1:
            raise ValueError(
                f"a fiber base point has {self.nvars - 1} coordinates, "
                f"got {len(base)}"
            )
        last = len(base)
        terms = tuple(_fiber_term(plan, base, last) for plan in self._float_plan)

        def value(y: float) -> float:
            point = log_y = None
            total = 0
            for coeff, pre, e, factors in terms:
                v = coeff * pre if e is None else coeff * (pre * y ** e)
                for kind, f in factors:
                    if kind == _CONST:
                        v *= f
                    elif kind == _LOG_Y:
                        if log_y is None:
                            log_y = math.log(y)
                        v *= log_y ** f
                    elif kind == _UNIT_Y:
                        u, monos = f
                        for c, pre_u, e_u in monos:
                            u += c * pre_u if e_u is None else c * (pre_u * y ** e_u)
                        v *= u
                    else:
                        if point is None:
                            point = base + [y]
                        v *= f(point)
                total += v
            return total

        return value

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
    return times_term(a.coeff, a.exps, a.logpows, a.extras, a.ratios, a.unit, b)


def times_term(
    coeff: Fraction,
    exps: ExpVec,
    logpows: tuple[int, ...],
    extras: tuple[tuple[LogAtom, int], ...],
    ratios: tuple[RatioFactor, ...],
    unit: PolyUnit,
    b: Term,
) -> list[Term]:
    """The term with these canonical parts times b, without building the
    term itself.

    With trivial units (1 * 1 = 1: nothing to multiply out or certify) and
    ratio factors from at most one side, the product is built directly: the
    two sorted extras tuples merge in one pass, so Term.make would rebuild
    the same term.  Every other product goes through Term.make, or
    distributes an uncertifiable unit product."""
    coeff = coeff * b.coeff
    exps = exps + b.exps
    logpows = tuple(map(operator.add, logpows, b.logpows))
    if unit.is_trivial and b.unit.is_trivial:
        if not ratios or not b.ratios:
            merged = _merge_extras(extras, b.extras)
            if merged is not None:
                return [Term(coeff, exps, logpows, merged, ratios or b.ratios)]
        return [Term.make(coeff, exps, logpows, list(extras) + list(b.extras),
                          list(ratios) + list(b.ratios))]
    nv = len(exps)
    poly = poly_mul(unit.as_poly(nv), b.unit.as_poly(nv))
    return terms_from_poly(coeff, exps, logpows, list(extras) + list(b.extras),
                           list(ratios) + list(b.ratios), poly, nv)


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
    ratios: list[RatioFactor],
    poly: MonoPoly,
    nv: int,
) -> list[Term]:
    """coeff * y^exps * logs * poly, as a unit-carrying term if certifiable,
    otherwise distributed over the monomials of poly."""
    if not poly:
        return []
    if poly_is_certifiable_unit(poly):
        u = unit_from_poly(poly, nv)
        return [Term.make(coeff, exps, logpows, extras, ratios, u)]
    out = []
    for m, c in sorted(poly.items(), key=lambda mc: mc[0].exps):
        out.append(Term.make(coeff * c, exps + m, logpows, extras, ratios))
    return out


def normalize(e: CExpr) -> CExpr:
    """Merge same-signature terms, delete zero terms, multiply units out.

    Returns an equal function.  Same-signature terms with trivial units
    merge by adding their coefficients (a zero sum is deleted); any other
    group merges by summing its coeff * unit polynomials, and when that sum
    is not a certifiable unit the polynomial is distributed into plain
    monomial terms (which may enable further merging, hence the fixpoint
    loop).  A sum of at most one term is already normal and comes back
    unchanged, and so does a result of normalize: its signatures are
    distinct and sorted, so a second pass would rebuild the same terms.
    The result is one CExpr built once, so callers that add many sums
    should collect their terms in a list and normalize the whole once,
    rather than add CExprs step by step (each addition re-validates every
    term so far).
    """
    if len(e.terms) <= 1 or e._normal:
        return e
    terms = list(e.terms)
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
                    out.append(Term(coeff, rep.exps, rep.logpows, rep.extras,
                                    rep.ratios))
                continue
            changed = True
            poly: MonoPoly = {}
            for t in group:
                poly = poly_add(poly, poly_scale(t.unit.as_poly(nv), t.coeff))
            out.extend(
                terms_from_poly(
                    Fraction(1), rep.exps, rep.logpows, list(rep.extras),
                    list(rep.ratios), poly, nv,
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


def is_normalized(e: CExpr) -> bool:
    sigs = [t.signature() for t in e.terms]
    return len(sigs) == len(set(sigs)) and all(
        poly_is_certifiable_unit(poly_scale(t.unit.as_poly(e.nvars), t.coeff))
        for t in e.terms
    )


def is_zero(e: CExpr) -> bool:
    """Zero test for normalized expressions.

    Distinct (monomial, variable-log, prime-log) signatures are linearly
    independent: for variable logs this is the distinct-asymptotic-scale
    argument, for prime logs in degree 1 it is unique factorization (and
    Lindemann's theorem against a rational constant).  Both are proven.
    Products of two or more prime logs, such as log 2 * log 3 or (log 2)^2,
    are treated as independent as well.  That rests on Schanuel-type
    algebraic independence of the logs of primes, which is a conjecture,
    not a theorem, so a "nonzero" verdict that depends on it is
    conditional.  Unit logs and ratio factors have no such independence,
    so they are rejected.
    """
    sigs = [t.signature() for t in e.terms]
    if len(sigs) != len(set(sigs)):
        raise NotNormalized("duplicate signatures; call normalize first")
    if not e.terms:
        return True
    if e.has_opaque():
        raise ZeroTestUnsupported(
            "zero test is unsupported for expressions with unit-log or "
            "ratio atoms"
        )
    return False


def expand_ratios(e: CExpr) -> CExpr:
    """Fold ratio factors back into plain exponents (drops J-support
    bookkeeping, value unchanged)."""

    def fold(t: Term) -> Term:
        if not t.ratios:
            return t
        exps = t.exps
        for r in t.ratios:
            exps = exps + r.effective_exps()
        return Term.make(t.coeff, exps, t.logpows, t.extras, (), t.unit)

    return e.map_terms(fold)


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
                t.logpows, t.extras, t.ratios, t.unit,
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
                tuple(lp), t.extras, t.ratios, t.unit,
            )
        )
    # ratio factors: d (y^e)^p = p * e_pos * (y^e)^p / y_pos
    for i, r in enumerate(t.ratios):
        if r.exps[pos] == 0:
            continue
        out.append(
            Term.make(
                t.coeff * r.power * r.exps[pos],
                t.exps.with_entry(pos, t.exps[pos] - 1),
                t.logpows, t.extras, t.ratios, t.unit,
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
            terms_from_poly(
                t.coeff, t.exps, t.logpows, list(t.extras), list(t.ratios),
                dpoly, nv,
            )
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
    """log(coeff * y^exps * unit) as a sum of log atoms."""
    items: list[LogSumItem] = [
        (Fraction(e), LogPrime(p)) for p, e in sorted(log_const_exponents(coeff).items())
    ]
    for i, e in enumerate(exps):
        if e != 0:
            items.append((e, LogVar(i)))
    scale, u0 = unit.monic()
    if scale != 1:
        if scale <= 0:
            raise FragmentEscape("log of a negative unit")
        for p, e in sorted(log_const_exponents(scale).items()):
            items.append((Fraction(e), LogPrime(p)))
    if not u0.is_trivial:
        items.append((Fraction(1), LogUnitAtom(u0)))
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
    # c**k for k = 0..power per item, or None for c == 1 (nothing to multiply)
    coeff_pows = [
        None if c == 1 else [c ** k for k in range(power + 1)] for c, _ in items
    ]
    out: list[LogPowerPiece] = []
    for parts in compositions(power, len(items)):
        multinomial = fact[power]
        for k in parts:
            multinomial //= fact[k]
        coeff = Fraction(multinomial)
        logpows = [0] * nvars
        extras: list[tuple[LogAtom, int]] = []
        for (_, atom), pows, k in zip(items, coeff_pows, parts):
            if k == 0:
                continue
            if pows is not None:
                coeff *= pows[k]
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
            base.ratios,
            base.unit,
        )
        for c, lp, ex in expansion
    ]
