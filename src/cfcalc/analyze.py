"""Integrability analysis: dominant-term extraction, fiberwise integrability,
the per-round integrability gate, decay rates at infinity, and log-free majorants.

Everything operates on normalized cells in (0,1)^n with center 0.  On such a
cell, integration toward the puncture y_d -> 0 also covers behavior at
+infinity of the original variable (the reciprocal normalization folds the
Jacobian in), so one criterion serves both: an unconstrained last variable
integrates iff its exponent exceeds -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .cells import Cell, MonomialBound, classify
from .core import (
    CExpr,
    ExpVec,
    LogComposite,
    LogExprAtom,
    LogPrime,
    LogUnitAtom,
    PolyUnit,
    Term,
    left_sum,
    normalize,
)
from .errors import (
    EmptyExpr,
    FragmentEscape,
    NoDecay,
    NotAllUndetermined,
    NotPrepared,
)
from .sliver import (
    Box,
    Sliver,
    box_center,
    build_sliver,
    corners,
    pull_exponent,
    separate,
    shrink_for_decay,
    shrink_toward,
)
from .values import Value


def refuse_fiber_atoms(t: Term) -> None:
    """Opaque atoms involving the last variable make the monomial exponent
    criterion unsound (e.g. y^-1 * log(1+y) is integrable at 0), and the
    fiber integral cannot carry them as constants; the polynomial fragment
    cannot re-prepare them, so reject."""
    if t.nvars - 1 in t.opaque_support():
        raise FragmentEscape(
            "opaque unit-log factor involves the analyzed variable"
        )
    for atom, _ in t.extras:
        if isinstance(atom, LogExprAtom):
            raise NotPrepared("prepare composite logs before analysis")


def term_integrable_last(t: Term, cell: Cell) -> bool:
    """Is the term integrable over the last-variable fiber for every base
    point?  Constrained fibers (lower bound > 0) are always integrable;
    unconstrained ones integrate iff the exponent exceeds -1 (log powers
    never rescue the harmonic threshold)."""
    refuse_fiber_atoms(t)
    return isinstance(cell.specs[-1].lower, MonomialBound) or t.exps[-1] > -1


# ---------------------------------------------------------------------------
# Dominance (the non-cancelling leading term of a prepared sum)
# ---------------------------------------------------------------------------


class DominanceReport(Value):
    """Extremal-exponent bookkeeping certifying a non-cancelling leading
    term: the nested index chain, the comparison term W, the sliver the
    certificate lives on, and the separation margin."""

    rbar: Fraction
    lbar: int
    lbar_prime: int
    chain: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    W: Term
    sliver: Sliver
    margin: Fraction
    limit_floor: float


def _extras_constant(t: Term) -> float:
    """Float value of the constant opaque factors (constant logs)."""
    c = float(t.coeff)
    for atom, k in t.extras:
        if isinstance(atom, LogPrime):
            c *= math.log(atom.prime) ** k
        elif isinstance(atom, LogComposite):
            c *= math.log(atom.n) ** k
        else:  # pragma: no cover - guarded by callers
            raise FragmentEscape("non-constant opaque atom in dominance")
    return c


def _unit_at_base_limit(unit: PolyUnit, tpoint: Sequence[float], pos: int) -> float:
    """Value of lim_{y_d -> 0} unit along the probe at box point tpoint."""
    t1 = tpoint[0]
    total = float(unit.constant)
    for c, m in unit.monos:
        if m[pos] != 0:
            continue  # vanishes in the limit (nonnegative powers certified)
        expo = float(m[0] if len(m) > 0 else 0)
        for j, e in enumerate(m):
            if j == 0 or j >= pos:
                continue
            expo += float(e) * tpoint[j]
        total += float(c) * t1 ** expo
    return total


def _bound_away_poly(
    coeffs: dict[tuple[int, ...], float], box: Box
) -> tuple[Box, float]:
    """Shrink the box until |P| is certifiably bounded away from 0, for
    P(t) = sum c_M prod t^M with float coefficients; Lipschitz certificate."""
    if not box:
        val = abs(left_sum(coeffs.values()))
        if val <= 1e-12:
            raise FragmentEscape(
                "leading-coefficient sum is numerically zero; cannot certify"
            )
        return box, val

    def peval(t: Sequence[float]) -> float:
        total = 0.0
        for m, c in coeffs.items():
            v = c
            for tj, mj in zip(t, m):
                v *= tj ** mj
            total += v
        return total

    pts = [tuple(float(x) for x in c) for c in corners(box)]
    pts.append(tuple(float(x) for x in box_center(box)))
    target = max(pts, key=lambda p: abs(peval(p)))
    if abs(peval(target)) <= 1e-12:
        raise FragmentEscape("leading polynomial is numerically zero on the box")

    def half_center_value(cur: Box) -> float | None:
        radius = max(float(hi - lo) for lo, hi in cur)
        big = max(max(abs(float(lo)), abs(float(hi))) for lo, hi in cur)
        lip = left_sum(
            abs(c) * sum(m) * max(1.0, big) ** max(0, sum(m) - 1)
            for m, c in coeffs.items()
        )
        center_val = abs(peval([float(x) for x in box_center(cur)]))
        ok = center_val - lip * radius * len(cur) >= center_val / 2 > 0
        return center_val / 2 if ok else None

    return shrink_toward(
        box,
        tuple(Fraction(x).limit_denominator(1 << 20) for x in target),
        half_center_value,
        FragmentEscape("could not certify the leading polynomial away from 0"),
    )


def dominance(e: CExpr, cell: Cell) -> DominanceReport:
    """Extract the comparison term W of a prepared sum: along the recorded
    sliver, (sum of terms)/W has a nonzero limit as the last variable
    tends to 0.  Requires all variables asymptotically undetermined (apply
    the coordinate transform first) and no opaque atoms."""
    e = normalize(e)
    if not e.terms:
        raise EmptyExpr("dominance of an empty sum")
    pos = e.nvars - 1
    for t in e.terms:
        if any(isinstance(a, (LogUnitAtom, LogExprAtom)) for a, _ in t.extras):
            raise FragmentEscape("dominance needs unit-log-free prepared input")
    if not classify(cell).all_undetermined():
        raise NotAllUndetermined("apply the coordinate transform first")
    terms = e.terms
    rbar = min(t.exps[pos] for t in terms)
    I1 = tuple(i for i, t in enumerate(terms) if t.exps[pos] == rbar)
    lbar = max(terms[i].logpows[pos] for i in I1)
    I2 = tuple(i for i in I1 if terms[i].logpows[pos] == lbar)

    if pos == 0:
        # no base: the fiber itself carries the asymptotics
        sliver = Sliver(Fraction(1, 2), (), ("trivial (no base)",))
        I3 = I2
        lbar_prime = 0
        I4 = I3
        margin = Fraction(1)
        coeff_sum = left_sum(_extras_constant(terms[i]) for i in I4)
        if abs(coeff_sum) <= 1e-12:
            raise FragmentEscape("leading coefficients cancel numerically")
        W = Term.make(1, ExpVec.unit(1, 0, rbar), (lbar,))
        return DominanceReport(
            rbar, lbar, 0, (I1, I2, I3, I4), W, sliver, margin, abs(coeff_sum) / 2
        )

    base = cell.prefix(pos)
    sliver = build_sliver(base)
    box = sliver.box

    # separation of the base-exponent affine forms among I2
    xparts: dict[tuple, list[int]] = {}
    for i in I2:
        xparts.setdefault(tuple(terms[i].exps.exps[:pos]), []).append(i)
    keys = sorted(xparts.keys())
    if len(keys) == 1:
        I3 = tuple(xparts[keys[0]])
        margin = Fraction(1)
        chosen_key = keys[0]
    else:
        forms = [pull_exponent(ExpVec(k), len(box)) for k in keys]
        which, margin, box = separate(forms, box)
        chosen_key = keys[which]
        I3 = tuple(xparts[chosen_key])
    lbar_prime = max(
        sum(terms[i].logpows[: pos]) for i in I3
    )
    I4 = tuple(
        i for i in I3 if sum(terms[i].logpows[:pos]) == lbar_prime
    )

    # uniform unit limits: certify decay of every unit monomial's pull-back
    cur = Sliver(sliver.epsilon, box, sliver.notes)
    for t in terms:
        for _, m in t.unit.monos:
            base_m = ExpVec(m.exps[:pos]) if m[pos] == 0 else None
            if base_m is None:
                continue
            if base_m.is_zero():
                continue
            cur, _ = shrink_for_decay(base_m, cur)
    box = cur.box

    # leading polynomial in the box parameters, bounded away from 0
    coeffs: dict[tuple[int, ...], float] = {}
    for i in I4:
        m = tuple(terms[i].logpows[1:pos])
        coeffs[m] = coeffs.get(m, 0.0) + _extras_constant(terms[i])
    box, floor = _bound_away_poly(coeffs, box)
    cur = Sliver(cur.epsilon, box, cur.notes + ("dominance-shrink",))

    # shrink epsilon until the non-leading I2 contributions stay below half
    # of the certified leading part at the box center
    chosen_form = pull_exponent(ExpVec(chosen_key))
    eps = cur.epsilon
    tcenter = box_center(box)
    for _ in range(200):
        t1 = float(eps) / 2
        tpt = [t1] + [float(x) for x in tcenter]
        lead = 0.0
        rest = 0.0
        for i in I2:
            t = terms[i]
            c = _extras_constant(t) * _unit_at_base_limit(t.unit, tpt, pos)
            for j in range(1, pos):
                c *= tpt[j] ** t.logpows[j]
            fi = pull_exponent(ExpVec(t.exps.exps[:pos]))
            dexp = float(fi.value(tcenter) - chosen_form.value(tcenter))
            dlog = sum(t.logpows[:pos]) - lbar_prime
            c *= t1 ** dexp * abs(math.log(t1)) ** dlog
            if i in I4:
                lead += c
            else:
                rest += abs(c)
        if abs(lead) > 0 and rest <= abs(lead) / 2:
            break
        eps = eps / 2
    else:  # pragma: no cover
        raise FragmentEscape("could not certify a nonzero sliver limit")
    cur = Sliver(eps, box, cur.notes)

    wexps = ExpVec(chosen_key + (rbar,)).pad(e.nvars)
    wlogs = [0] * e.nvars
    wlogs[0] = lbar_prime
    wlogs[pos] = lbar
    W = Term.make(1, wexps, tuple(wlogs))
    return DominanceReport(
        rbar, lbar, lbar_prime, (I1, I2, I3, I4), W, cur, margin,
        abs(lead) - rest,
    )


# ---------------------------------------------------------------------------
# Sum integrability and the per-round integrability gate
# ---------------------------------------------------------------------------


class SumIntegrability(Value):
    verdict: bool
    per_term: tuple[bool, ...]
    report: DominanceReport | None


def sum_integrable_last(e: CExpr, cell: Cell) -> SumIntegrability:
    """A prepared sum is fiberwise integrable iff every term is; a failing
    sum gets a dominance certificate W with rbar <= -1 witnessing divergence
    of the sum itself, when one can be extracted."""
    e = normalize(e)
    if not e.terms:
        return SumIntegrability(True, (), None)
    per_term = tuple(term_integrable_last(t, cell) for t in e.terms)
    verdict = all(per_term)
    report = None
    if not verdict:
        try:
            report = dominance(e, cell)
        except (FragmentEscape, NotAllUndetermined):
            report = None
    return SumIntegrability(verdict, per_term, report)


class IntegrableLocus(Value):
    kept: tuple[tuple[Cell, CExpr], ...]
    discarded: tuple[tuple[Cell, CExpr], ...]


def integrable_locus(pieces: Sequence[tuple[Cell, CExpr]]) -> IntegrableLocus:
    """Split the cells into those whose every term is integrable over the
    last fiber and the rest.  Every term is decided, so a term that the
    test refuses raises even after an earlier term failed."""
    kept: list[tuple[Cell, CExpr]] = []
    discarded: list[tuple[Cell, CExpr]] = []
    for cell, e in pieces:
        per_term = tuple(term_integrable_last(t, cell) for t in normalize(e).terms)
        (kept if all(per_term) else discarded).append((cell, e))
    return IntegrableLocus(tuple(kept), tuple(discarded))


# ---------------------------------------------------------------------------
# Majorants and decay rates
# ---------------------------------------------------------------------------


class Majorant(Value):
    """Log-free pointwise bound: |e| <= max(1, sum of the stored terms) on
    the open unit box (each |log y| is replaced by 1/y, each |log c| by its
    rational overestimate, units by their certified sup)."""

    nvars: int
    terms: tuple[Term, ...]

    def eval(self, point: Sequence[float]) -> float:
        return max(1.0, CExpr(self.nvars, self.terms).eval(point))


def _log_upper(x_lo: Fraction, x_hi: Fraction) -> Fraction:
    """Rational L with |log x| < L on (x_lo, x_hi), via |log t| < max(1/t, t)."""
    return max(1 / x_lo, x_hi)


def subanalytic_bound(e: CExpr) -> Majorant:
    """Pointwise log-free majorant on the open unit box: replaces every
    variable log power l by y^-l, every constant log by its argument, every
    unit log by the rational log bound of its certified range, and every
    unit by its certified sup."""
    out: list[Term] = []
    for t in e.terms:
        coeff = abs(t.coeff)
        for atom, k in t.extras:
            if isinstance(atom, LogPrime):
                coeff *= Fraction(atom.prime) ** k
            elif isinstance(atom, LogComposite):
                coeff *= Fraction(atom.n) ** k
            elif isinstance(atom, LogUnitAtom):
                lo, hi = atom.unit.value_bounds()
                coeff *= _log_upper(lo, hi) ** k
            else:
                raise NotPrepared("prepare composite logs before bounding")
        lo_u, hi_u = t.unit.value_bounds()
        coeff *= max(abs(lo_u), abs(hi_u))
        exps = t.exps
        for i, l in enumerate(t.logpows):
            if l:
                exps = exps.with_entry(i, exps[i] - l)
        out.append(Term.make(coeff, exps))
    return Majorant(e.nvars, tuple(out))


class DecayRate(Value):
    """Certified decay: |f(x, y)| <= y^(-r) in original coordinates whenever
    y exceeds 1/threshold(x); in normalized coordinates (y_d = 1/y):
    |f(y', y_d)| <= y_d^r for y_d below threshold(y')."""

    r: Fraction
    epsilon: Fraction
    delta: Fraction
    kappa: Fraction
    majorant: Majorant
    report: DominanceReport

    def threshold(self, base_point: Sequence[float]) -> float:
        h = self.majorant.eval(base_point)
        return min(float(self.delta), h ** (-1.0 / float(self.kappa)))


def _delta_for_epsilon(eps: Fraction) -> Fraction:
    """Largest dyadic delta with |log y| < y^(-eps) for all y < delta:
    y^eps |log y| increases up to exp(-1/eps), so it suffices that delta
    stays below that point with value below 1."""
    k = max(1, int(math.ceil(1 / (float(eps) * math.log(2)))))
    while True:
        d = 2.0 ** (-k)
        if d ** float(eps) * k * math.log(2) < 1.0:
            return Fraction(1, 2 ** k)
        k += 1


def decay_rate(e: CExpr, cell: Cell) -> DecayRate:
    """Produce (r, threshold data) with |f| <= y_d^r below the threshold.

    epsilon = rbar/(2*lbar+2) capped by the exponent/log gaps of the
    non-minimal terms (so every term's y_d-weight stays above rbar -
    eps*lbar); r = (rbar - eps*lbar)/2."""
    e = normalize(e)
    report = dominance(e, cell)
    rbar, lbar = report.rbar, report.lbar
    if rbar <= 0:
        raise NoDecay(f"dominant exponent {rbar} is not positive")
    pos = e.nvars - 1
    eps = rbar / (2 * lbar + 2)
    for t in e.terms:
        dr = t.exps[pos] - rbar
        dl = t.logpows[pos] - lbar
        if dl > 0:
            eps = min(eps, dr / dl)
    r = (rbar - eps * lbar) / 2
    kappa = rbar - eps * lbar - r
    # the base-variable part of the sum, bounded log-free
    base_terms = []
    for t in e.terms:
        base_terms.append(
            Term.make(
                t.coeff,
                t.exps.with_entry(pos, 0),
                tuple(t.logpows[:pos]) + (0,),
                t.extras,
                t.unit,
            )
        )
    majorant = subanalytic_bound(CExpr(e.nvars, tuple(base_terms)))
    delta = _delta_for_epsilon(eps)
    return DecayRate(r, eps, delta, kappa, majorant, report)
