"""Exact closed-form integration in the last variable, and the iterated driver.

The route per prepared sum: distribute each term's polynomial unit (finitely
many monomial pieces) and key every piece by its fiber shape y^r (log y)^s.
The integral is linear over the base, so each shape is integrated once per
process: clear the fractional exponent by y = z^p, sort the integer power
into the Laurent tail (z^-i, i >= 2), the z^-1 slot, or the analytic part
(z^k, k >= 0), integrate that slab by the log-power recursions, and
evaluate the antiderivative at the monomial bounds by exact substitution.
The exact result is kept in a bounded table keyed by the shape and the
fiber's bounds, shared by every later call.  Every piece then multiplies
its base part into its shape's integral.  Improper endpoints
are never approached by limits: a zero lower bound is legal only when the
Laurent part is empty, and then every antiderivative piece vanishes at 0 by
continuous extension.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

# sum_integrable_last is not called here: bench/tracing.py wraps it by name
from .analyze import integrable_locus, refuse_fiber_atoms, sum_integrable_last  # noqa: F401
from .cells import Cell, MonomialBound, Zero
from .core import (
    CExpr,
    ExpVec,
    PolyUnit,
    RatLike,
    Term,
    exact_pow,
    expand_log_power,
    log_of_monomial_unit,
    normalize,
    poly_scale,
    times_log_power,
    times_term,
)
from .errors import BoundUnitUnsupported, NotIntegrable
from .tables import table
from .values import Value

# ---------------------------------------------------------------------------
# Antiderivatives of y^r (log y)^s
# ---------------------------------------------------------------------------


def _falling(s: int, k: int) -> int:
    """s * (s-1) * ... * (s-k+1)."""
    out = 1
    for j in range(k):
        out *= s - j
    return out


def antiderivative_pow_log(r: RatLike, s: int) -> CExpr:
    """Closed-form antiderivative of y^r (log y)^s (one ambient variable).

    r = -1: (log y)^(s+1) / (s+1).
    r != -1: y^(r+1) * sum_{k=0}^{s} (-1)^k s!/(s-k)! (log y)^(s-k)/(r+1)^(k+1).
    """
    r = Fraction(r)
    if s < 0:
        raise ValueError("log power must be nonnegative")
    if r == -1:
        return CExpr(1, (Term.make(Fraction(1, s + 1), [0], [s + 1]),))
    terms = []
    for k in range(s + 1):
        c = Fraction((-1) ** k * _falling(s, k), 1) / (r + 1) ** (k + 1)
        terms.append(Term.make(c, [r + 1], [s - k]))
    return normalize(CExpr(1, tuple(terms)))


def antiderivative_pow_log_recursive(r: RatLike, s: int) -> CExpr:
    """The same antiderivative via the integration-by-parts recursion
    (the reference route; must agree with the closed form)."""
    r = Fraction(r)
    if r == -1:
        return CExpr(1, (Term.make(Fraction(1, s + 1), [0], [s + 1]),))
    terms = [Term.make(1 / (r + 1), [r + 1], [s])]
    if s > 0:
        rest = antiderivative_pow_log_recursive(r, s - 1)
        terms.extend(rest.scaled(Fraction(-s, 1) / (r + 1)).terms)
    return normalize(CExpr(1, tuple(terms)))


def _anti_pieces(m: Fraction, s: int) -> list[tuple[Fraction, int, Fraction]]:
    """Antiderivative of z^m (log z)^s as (zpow, logpow, coeff) pieces."""
    return [
        (t.exps[0], t.logpows[0], t.coeff)
        for t in antiderivative_pow_log(m, s).terms
    ]


# ---------------------------------------------------------------------------
# The claim form and its integration
# ---------------------------------------------------------------------------


class SForm(Value):
    """One prepared summand in claim shape after clearing denominators:

        (sum_i laurent_i(x) z^-i + sum_k analytic_k(x) z^k) (log z)^s

    in z with y = z^p; coefficients are expressions over the base.  When the
    lower bound is zero the Laurent list is empty (integrability gate)."""

    nvars: int
    logpow: int
    p: int
    laurent: tuple[tuple[int, CExpr], ...]
    analytic: tuple[tuple[int, CExpr], ...]


def _monomial_pieces(t: Term) -> list[tuple[Fraction, ExpVec]]:
    """t's coefficient times its polynomial unit, as (coeff, exps) pieces."""
    if t.unit.is_trivial:
        return [(t.coeff, t.exps)]
    return [
        (c, t.exps + m)
        for m, c in poly_scale(t.unit.as_poly(t.nvars), t.coeff).items()
    ]


def build_sform(t: Term) -> SForm:
    """Put one prepared term into claim shape over the base.

    The polynomial unit is distributed into finitely many monomial pieces
    (this is what keeps every series in sight finite), the last-variable
    exponent denominators are cleared by y = z^p, and the integer powers are
    sorted into the Laurent/analytic slots."""
    refuse_fiber_atoms(t)
    nv = t.nvars
    pos = nv - 1
    s = t.logpows[pos]
    pieces = _monomial_pieces(t)
    p = 1
    for _, exps in pieces:
        den = exps[pos].denominator
        p = p * den // math.gcd(p, den)
    laurent: dict[int, list[Term]] = {}
    analytic: dict[int, list[Term]] = {}
    base_nv = nv - 1
    logpows = t.logpows[:pos]
    for c, exps in pieces:
        zpow = p * exps[pos] + (p - 1)
        assert zpow.denominator == 1
        zpow = int(zpow)
        # a unit-free term with t's canonical extras is canonical as it
        # stands, so Term.make would rebuild the same term
        base_term = Term(c * p ** (s + 1), ExpVec(exps.exps[:pos]), logpows, t.extras)
        if zpow <= -1:
            laurent.setdefault(-zpow, []).append(base_term)
        else:
            analytic.setdefault(zpow, []).append(base_term)
    return SForm(
        nv,
        s,
        p,
        tuple(
            (i, normalize(CExpr(base_nv, tuple(ts))))
            for i, ts in sorted(laurent.items())
        ),
        tuple(
            (k, normalize(CExpr(base_nv, tuple(ts))))
            for k, ts in sorted(analytic.items())
        ),
    )


def _eval_antider_at_bound(
    pieces: Sequence[tuple[Fraction, int, Fraction]],
    bound: Union[Zero, MonomialBound],
    p: int,
    base_nv: int,
) -> CExpr:
    """Evaluate antiderivative pieces (zpow, logpow, coeff) at z = bound^(1/p).

    Zero bound: integrate_shape refuses a Laurent slab over it first, so
    every piece carries a positive power of z, and the continuous extension
    vanishes (log powers notwithstanding)."""
    if isinstance(bound, Zero):
        return CExpr.zero(base_nv)
    q = bound.coeff
    beta = ExpVec(bound.exps.exps[:base_nv])
    out: list[Term] = []
    for zpow, logpow, c in pieces:
        e = Fraction(zpow) / p
        qe = exact_pow(q, e)
        exps = beta.scale(e)
        if logpow == 0:
            out.append(Term.make(c * qe, exps))
            continue
        # log z = (1/p)(log q + sum beta_j log y_j)
        items = log_of_monomial_unit(q, beta, PolyUnit.one())
        out.extend(
            times_log_power(
                Term.make(c * qe / p**logpow, exps),
                expand_log_power(items, logpow, base_nv),
            )
        )
    return normalize(CExpr(base_nv, tuple(out)))


# Exact shape integrals kept, least recently used dropped first.  A pass of
# the benchmark's validate workload meets at most ~300 distinct shapes
# (r, s, nvars, lower, upper), and the whole log-growth, cli-mix and
# validate pools 133, 323 and 448; repeated passes cycle through theirs, and
# an LRU table smaller than such a cycle would miss on every shape.
_SHAPE_TABLE_SIZE = 1024


@table("integrate.integrate_shape", _SHAPE_TABLE_SIZE)
def integrate_shape(
    r: Fraction,
    s: int,
    nvars: int,
    lower: Union[Zero, MonomialBound],
    upper: MonomialBound,
) -> tuple[Fraction, CExpr]:
    """The fiber integral of y^r (log y)^s over (lower, upper), as a scale
    and an expression over the base whose product is the integral.

    build_sform puts the shape into claim shape: one slab z^zpow (log z)^s
    with y = z^p and the constant coefficient p^(s+1), which is the scale.
    The slab's antiderivative is evaluated at both bounds (monomials with
    trivial unit part) and the difference returned unnormalized:
    integrate_last normalizes the whole sum once.

    Results are kept per process in an LRU table of _SHAPE_TABLE_SIZE
    entries keyed by the arguments; the value is exact and immutable, so a
    hit is the very integral a fresh call would build.  A refused shape is
    not kept and raises again on every call."""
    base_nv = nvars - 1
    sf = build_sform(
        Term(Fraction(1), ExpVec.unit(nvars, base_nv, r), (0,) * base_nv + (s,))
    )
    if isinstance(lower, Zero) and sf.laurent:
        raise NotIntegrable("Laurent part with a zero lower endpoint")
    if not upper.unit.is_trivial or (
        isinstance(lower, MonomialBound) and not lower.unit.is_trivial
    ):
        raise BoundUnitUnsupported(
            "symbolic bound evaluation needs a trivial unit part"
        )
    ((zpow, coeff),) = [(-i, c) for i, c in sf.laurent] + list(sf.analytic)
    pieces = _anti_pieces(Fraction(zpow), s)
    up = _eval_antider_at_bound(pieces, upper, sf.p, base_nv)
    lo = _eval_antider_at_bound(pieces, lower, sf.p, base_nv)
    return coeff.terms[0].coeff, up - lo


def _slab_order(r: Fraction) -> tuple[int, Fraction]:
    """Where the slab of y^r sorts in a claim form: the Laurent slots
    z^-1, z^-2, ... first, then the analytic ones by rising power."""
    return (0, -r) if r <= -1 else (1, r)


def integrate_last(e: CExpr, cell: Cell) -> CExpr:
    """Exact parameterized integral of a prepared sum over the last fiber,
    as a constructible expression over the base cell.

    The integrability gate is the caller's (integrate_fubini runs
    integrable_locus first); a term that is not integrable, or whose opaque
    atoms involve the last variable, still raises NotIntegrable or
    FragmentEscape, term by term in the order of the sum.  The integral is
    linear over the base: a monomial piece c * b(x) * y^r (log y)^s (the
    polynomial unit distributed, b the base monomial, logs and extras)
    integrates to c * b(x) * integrate_shape(r, s), looked up in
    integrate_shape's per-process table, and every piece multiplies its base
    into that shape's integral; the products are collected in one list and
    normalized once, the only canonicalization of the sum, so the work is
    linear in the number of pieces."""
    e = normalize(e)
    if e.nvars != cell.nvars:
        raise ValueError("expression/cell ambient size mismatch")
    pos = cell.nvars - 1
    spec = cell.specs[pos]
    zero_lower = isinstance(spec.lower, Zero)
    terms: list[Term] = []
    for t in e.terms:
        if zero_lower and t.exps[pos] <= -1:
            raise NotIntegrable(
                f"exponent {t.exps[pos]} <= -1 over an unconstrained fiber"
            )
        refuse_fiber_atoms(t)
        s = t.logpows[pos]
        logpows = t.logpows[:pos]
        pieces = _monomial_pieces(t)
        if len(pieces) > 1:
            # shapes are integrated, and refused, in claim-form slab order
            pieces.sort(key=lambda ce: _slab_order(ce[1][pos]))
        for c, exps in pieces:
            scale, integral = integrate_shape(
                exps[pos], s, cell.nvars, spec.lower, spec.upper
            )
            # the unit-free base part (t's canonical extras) multiplies each
            # term of the integral, never built on its own
            coeff = c * scale
            base_exps = ExpVec(exps.exps[:pos])
            for part in integral.terms:
                terms.extend(times_term(
                    coeff, base_exps, logpows, t.extras, PolyUnit.one(), part
                ))
    return normalize(CExpr(pos, tuple(terms)))


# ---------------------------------------------------------------------------
# Iterated integration with integrability gating
# ---------------------------------------------------------------------------


class FubiniResult(Value):
    pieces: tuple[tuple[Cell, CExpr], ...]

    def value(self) -> CExpr:
        """The integral when everything reduced to a single base."""
        if len(self.pieces) != 1:
            raise ValueError(
                f"{len(self.pieces)} base cells remain; no single value"
            )
        return self.pieces[0][1]

    def constant(self) -> Fraction:
        """The exact rational value of a full integration (no log atoms)."""
        v = self.value()
        if not v.terms:
            return Fraction(0)
        return v.eval_exact([])


def integrate_fubini(pieces: Sequence[tuple[Cell, CExpr]], m: int) -> FubiniResult:
    """Integrate the last m variables, cell by cell.  Each round is gated
    exactly: it goes on only when every term of every cell is integrable
    over its last fiber, and is refused otherwise.  The fiber integrals of
    cells over one base cell are added."""
    work = list(pieces)
    for round_no in range(m):
        locus = integrable_locus(work)
        if locus.discarded:
            raise NotIntegrable(
                f"round {round_no + 1}: {len(locus.discarded)} cell(s) "
                "fail fiberwise integrability"
            )
        merged: dict[Cell, list[CExpr]] = {}
        for cell, e in locus.kept:
            merged.setdefault(cell.drop_last(), []).append(integrate_last(e, cell))
        work = []
        for c, es in merged.items():
            # a base cell with one fiber keeps that fiber's normalized integral
            total = es[0] if len(es) == 1 else CExpr(
                c.nvars, tuple(t for e in es for t in e.terms)
            )
            work.append((c, normalize(total)))
        if not work:
            break
    return FubiniResult(tuple(work))
