"""Restricted preparation: put fragment expressions into canonical prepared
form (distinct log signatures, monomial exponents supported on the
asymptotically undetermined positions), with two-center fiber comparison and
recentering for unit-like bounds.

Composite log arguments expand through dominant-monomial extraction:
log(q * y^gamma * u) = log q + gamma . log y + log u, the constant part
canonically over prime logs and the unit part as an opaque atom.  Exponents
on determined variables are absorbed into certified bounded ratio factors
(the unit payload may reference determined variables; only the prepared
monomial/log part must not).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cells import (
    AxisMap,
    Cell,
    FatVar,
    MonomialBound,
    RawCell,
    RawMono,
    RawVar,
    Zero,
    ZERO,
    classify,
)
from .core import (
    CExpr,
    ExpVec,
    LogExprAtom,
    MonoPoly,
    PolyUnit,
    RatioFactor,
    Term,
    expand_log_power,
    frac_pow,
    log_of_monomial_unit,
    normalize,
    poly_add,
    poly_scale,
    times_log_power,
)
from .errors import (
    EqualCenters,
    FragmentEscape,
    NotCase2,
    NotDetermined,
    NotPrepared,
)

# ---------------------------------------------------------------------------
# Dominant-monomial extraction (shared by log expansion and recentering)
# ---------------------------------------------------------------------------


def extract_unit(
    poly: MonoPoly, cell: Cell
) -> tuple[Fraction, ExpVec, PolyUnit]:
    """Write a polynomial as q * y^gamma * unit with a certified unit.

    Tries each monomial as the dominant pivot; the cofactor monomials must
    be certified (0,1]-bounded on the cell and the coefficient sum must
    keep the certificate one-sided."""
    items = sorted(poly.items(), key=lambda mc: mc[0].exps)
    if not items:
        raise FragmentEscape("cannot extract a unit from the zero polynomial")
    if len(items) == 1:
        (m0, c0), = items
        return c0, m0, PolyUnit.one()
    nv = cell.nvars
    for m0, c0 in items:
        monos: dict[ExpVec, Fraction] = {}
        ok = True
        neg = Fraction(0)
        for m, c in items:
            if m == m0:
                continue
            delta = m - m0
            lo, hi = cell.monomial_interval(delta.pad(nv))
            if hi is None or hi > 1:
                ok = False
                break
            monos[delta] = c / c0
            if (c / c0) < 0:
                neg += abs(c / c0)
        if ok and neg < 1:
            return c0, m0, PolyUnit.build(1, monos)
    raise FragmentEscape(
        "no monomial of the argument dominates the rest on this cell"
    )


def _flatten_to_poly(e: CExpr) -> MonoPoly:
    """Expression as a polynomial in cell monomials (log-free terms only)."""
    poly: MonoPoly = {}
    for t in e.terms:
        if any(t.logpows) or t.extras or t.ratios:
            raise FragmentEscape("log arguments must be log-free")
        upoly = poly_scale(t.unit.as_poly(e.nvars), t.coeff)
        poly = poly_add(poly, {m + t.exps: c for m, c in upoly.items()})
    return poly


# ---------------------------------------------------------------------------
# Two-center comparison on constant fibers
# ---------------------------------------------------------------------------

CMP_A = Fraction(3, 4)
CMP_B = Fraction(3, 2)


@dataclass(frozen=True)
class CenterPiece:
    """One sub-fiber with its bracket rewrite.

    On the piece, |y - other| = |y - center| * bracket (case "iii") or
    |y - other| = delta * bracket (case "ii"/"i"), the bracket a unit with
    the certified value range (bracket_lo, bracket_hi).  gap_lower is the
    exact inf of |y - theta1| over the piece (the case-iii comparison
    bound)."""

    case: str
    lo: Fraction
    hi: Fraction
    center: Fraction
    other: Fraction
    bracket_lo: Fraction
    bracket_hi: Fraction
    gap_lower: Fraction | None = None


def _interval_pieces(
    theta1: Fraction, theta2: Fraction, p: Fraction, q: Fraction
) -> list[CenterPiece]:
    """Cover (p, q) minus the center graphs by the four case regions.

    Region thresholds for centers theta1 > theta2 with gap D:
      upper outer: y > theta2 + b*D            (case iii, bracket near 1+)
      near theta1: |y - theta1| < a*D          (case ii)
      near theta2: |y - theta2| < a*D          (case i)
      lower outer: y < theta1 - b*D            (case iii)
    with a = 3/4 < 1 < b = 3/2 < 1 + a, so the regions overlap."""
    swap = theta1 < theta2
    t1, t2 = (theta2, theta1) if swap else (theta1, theta2)
    D = t1 - t2
    # candidate regions as (case, lo, hi, center, other) in increasing order
    regions = [
        ("iii", None, t1 - CMP_B * D, t1, t2),
        ("i", t2 - CMP_A * D, t2 + CMP_A * D, t2, t1),
        ("ii", t1 - CMP_A * D, t1 + CMP_A * D, t1, t2),
        ("iii", t2 + CMP_B * D, None, t1, t2),
    ]
    pieces: list[CenterPiece] = []
    covered_up_to = p
    for case, rlo, rhi, center, other in regions:
        lo = p if rlo is None else max(p, rlo)
        hi = q if rhi is None else min(q, rhi)
        if lo >= hi:
            continue
        # split at interior center graphs (centers are excluded points)
        cuts = [c for c in (t1, t2) if lo < c < hi]
        subs = []
        edges = [lo] + sorted(cuts) + [hi]
        for a, b in zip(edges, edges[1:]):
            if a < b:
                subs.append((a, b))
        for a, b in subs:
            pieces.append(_certify_piece(case, a, b, center, other))
        covered_up_to = max(covered_up_to, hi)
    return _dedupe_cover(pieces, p, q)


def _certify_piece(
    case: str, lo: Fraction, hi: Fraction, center: Fraction, other: Fraction
) -> CenterPiece:
    D = abs(center - other)
    if case in ("i", "ii"):
        # bracket = 1 + (y - center)/(center - other) on |y-center| < a*D
        denom = center - other
        v1 = 1 + (lo - center) / denom
        v2 = 1 + (hi - center) / denom
        blo, bhi = min(v1, v2), max(v1, v2)
        return CenterPiece(case, lo, hi, center, other, blo, bhi)
    # case iii: bracket = 1 + (center - other)/(y - center), center = theta1
    d1, d2 = lo - center, hi - center
    v1 = 1 + (center - other) / d1
    v2 = 1 + (center - other) / d2
    blo, bhi = min(v1, v2), max(v1, v2)
    gap = min(abs(d1), abs(d2))
    return CenterPiece(case, lo, hi, center, other, blo, bhi, gap)


def _dedupe_cover(
    pieces: list[CenterPiece], p: Fraction, q: Fraction
) -> list[CenterPiece]:
    """Clip overlapping regions into a disjoint ordered cover of (p, q)."""
    pieces = sorted(pieces, key=lambda pc: (pc.lo, pc.hi))
    out: list[CenterPiece] = []
    cursor = p
    for pc in pieces:
        lo = max(pc.lo, cursor)
        if lo >= pc.hi:
            continue
        out.append(_certify_piece(pc.case, lo, pc.hi, pc.center, pc.other))
        cursor = pc.hi
        if cursor >= q:
            break
    return out


def compare_centers(
    theta1: Fraction, theta2: Fraction, raw: RawCell, pos: int | None = None
) -> list[CenterPiece]:
    """Partition the last fat fiber by the two-center case regions.

    Constant fibers partition exactly; monomial fibers are accepted only
    when the whole fiber provably lies inside one case region."""
    theta1, theta2 = Fraction(theta1), Fraction(theta2)
    if theta1 == theta2:
        raise EqualCenters("both centers are equal; nothing to compare")
    pos = raw.nvars - 1 if pos is None else pos
    rv = raw.vars[pos]
    if rv.thin is not None:
        raise NotPrepared("thin variables have no fiber to compare on")
    if not (
        isinstance(rv.lower, RawMono)
        and isinstance(rv.upper, RawMono)
        and rv.lower.exps.is_zero()
        and rv.upper.exps.is_zero()
    ):
        raise FragmentEscape(
            "two-center comparison needs a constant fiber (split first)"
        )
    p, q = rv.lower.coeff, rv.upper.coeff
    pieces = _interval_pieces(theta1, theta2, p, q)
    if not pieces:
        raise FragmentEscape("fiber does not meet any case region")
    return pieces


def pieces_cover(pieces: Sequence[CenterPiece], p: Fraction, q: Fraction,
                 excluded: Sequence[Fraction] = ()) -> bool:
    """Exact interval bookkeeping: the pieces cover (p, q) up to the
    excluded center graphs."""
    cursor = p
    for pc in sorted(pieces, key=lambda x: x.lo):
        if pc.lo > cursor and not any(
            cursor <= c <= pc.lo for c in excluded
        ):
            return False
        cursor = max(cursor, pc.hi)
    return cursor >= q


def _normalize_constant_piece(
    raw: RawCell, lo: Fraction, hi: Fraction, center: Fraction
):
    """Normalize the last (constant) fiber of a raw cell onto (0,1) with the
    given center, scaling exactly by the span so that bracket-unit
    coefficients transfer at their case-region bounds."""
    from .cells import (
        CellNormalization,
        FatVar,
        MonomialBound,
        map_jacobian,
        normalize_cell,
    )

    pos = raw.nvars - 1
    prefix = normalize_cell(RawCell(raw.vars[:pos])) if pos else None
    if lo >= center:
        eps, span, near = 1, hi - center, lo - center
    elif hi <= center:
        eps, span, near = -1, center - lo, center - hi
    else:
        raise FragmentEscape("piece straddles its own center")
    step = AxisMap(pos, center, eps, 1, span)
    nv = raw.nvars
    lower = ZERO if near == 0 else MonomialBound(near / span, ExpVec.zero(nv))
    spec = FatVar(lower, MonomialBound(Fraction(1), ExpVec.zero(nv)))
    specs = (prefix.cell.specs if prefix else ()) + (spec,)
    steps = (prefix.steps if prefix else ()) + (step,)
    cell = Cell(specs)
    cell.validate()
    return CellNormalization(cell, steps, map_jacobian(steps, nv), raw.names)


def prepare_shifted_log(
    raw: RawCell, theta2: Fraction, power: int = 1
) -> list[tuple[object, CExpr]]:
    """Expand log|y - theta2|^power over a constant last fiber whose own
    center theta1 differs from theta2.

    The fiber partitions by the two-center case regions.  Near theta1 (case
    ii) the piece keeps center theta1 and the shifted log picks up the
    certified bracket unit 1 + (y-theta1)/(theta1-theta2); on the remaining
    pieces |y - theta2| is itself a clean centered coordinate, so the piece
    is centered at theta2 and the log expands directly.  Returns a
    (normalization, expansion) pair per piece, the expansion an expression
    over the piece's unit-box cell."""
    theta2 = Fraction(theta2)
    pos = raw.nvars - 1
    theta1 = raw.vars[pos].center
    pieces = compare_centers(theta1, theta2, raw)
    nv = raw.nvars
    out = []
    for pc in pieces:
        if pc.case == "ii":
            norm = _normalize_constant_piece(raw, pc.lo, pc.hi, pc.center)
            step = norm.steps[pos]
            delta = pc.center - pc.other
            # |y - theta2| = |delta| * (1 + (y-theta1)/delta); the scale is
            # the piece span <= a*|delta|, so the coefficient obeys the
            # dominance certificate with margin 1 - a
            unit = PolyUnit.build(
                1, {ExpVec.unit(nv, pos): Fraction(step.eps) * step.scale / delta}
            )
            norm.cell.certify_unit_monomials(unit)
            items = log_of_monomial_unit(abs(delta), ExpVec.zero(nv), unit)
        else:
            # cases i and iii: theta2 is itself an admissible center here
            norm = _normalize_constant_piece(raw, pc.lo, pc.hi, theta2)
            step = norm.steps[pos]
            items = log_of_monomial_unit(
                step.scale, ExpVec.unit(nv, pos), PolyUnit.one()
            )
        terms = times_log_power(
            Term.constant(1, nv), expand_log_power(items, power, nv)
        )
        out.append((norm, normalize(CExpr(nv, tuple(terms)))))
    return out


# ---------------------------------------------------------------------------
# Determined-exponent absorption and recentering
# ---------------------------------------------------------------------------


def absorb_determined(t: Term, cell: Cell, pos: int | None = None) -> Term:
    """Rewrite the term so its exponent at an asymptotically determined
    position moves onto earlier variables, adjoining the certified bounded
    ratio (y_pos / y^beta)^r as an opaque factor."""
    pos = cell.nvars - 1 if pos is None else pos
    cls = classify(cell)
    if not cls.determined[pos]:
        raise NotDetermined(f"variable {pos} is not asymptotically determined")
    spec = cell.fat(pos)
    lower = spec.lower
    assert isinstance(lower, MonomialBound)
    if not lower.unit.is_trivial:
        raise NotDetermined(
            "absorption needs a pure monomial lower bound (trivial unit)"
        )
    r = t.exps[pos]
    if r == 0:
        return t
    beta = lower.exps.pad(cell.nvars)
    # ratio = y_pos * y^-beta, valued in (q_a * ua_lo, q_b * ub_hi)
    ua_lo, _ = lower.unit.value_bounds()
    _, ub_hi = spec.upper.unit.value_bounds()
    lo = lower.coeff * ua_lo
    hi = spec.upper.coeff * ub_hi
    ratio = RatioFactor(
        ExpVec.unit(cell.nvars, pos) - beta, r, lo, hi
    )
    new_exps = (t.exps + beta.scale(r)).with_entry(pos, 0)
    return Term.make(
        t.coeff, new_exps, t.logpows, t.extras, t.ratios + (ratio,), t.unit
    )


def recenter_case2(cell: Cell, pos: int | None = None) -> tuple[Cell, Fraction, tuple[AxisMap, ...]]:
    """Shift a fiber whose bounds are both unit-like (lower bound a constant
    bounded away from 0) so the new lower bound is zero; returns the new
    cell, the shift, and the map expressing old coordinates in new ones."""
    pos = cell.nvars - 1 if pos is None else pos
    spec = cell.fat(pos)
    lower = spec.lower
    if isinstance(lower, Zero) or not lower.exps.is_zero():
        raise NotCase2("the lower bound's closure already contains 0")
    if not lower.unit.is_trivial:
        raise NotCase2("recentering needs a constant lower bound")
    a = lower.coeff
    nv = cell.nvars
    upper_poly = poly_scale(spec.upper.unit.as_poly(nv), spec.upper.coeff)
    shifted = poly_add(upper_poly, {ExpVec.zero(nv): -a})
    q, gamma, u = extract_unit(shifted, cell.prefix(pos))
    if q <= 0:
        raise NotCase2("shifted upper bound is not positive")
    new_upper = MonomialBound(q, gamma.pad(nv), u)
    new_cell = cell.with_spec(pos, FatVar(ZERO, new_upper))
    new_cell.validate()
    step = AxisMap(pos, theta=a)
    return new_cell, a, (step,)


# ---------------------------------------------------------------------------
# Thin-variable elimination (graph substitution)
# ---------------------------------------------------------------------------


def substitute_thin(raw: RawCell, e: CExpr) -> tuple[RawCell, CExpr]:
    """Substitute every thin variable by its graph and project it away."""
    keep = [i for i, rv in enumerate(raw.vars) if rv.thin is None]
    if len(keep) == raw.nvars:
        return raw, e
    nv = raw.nvars
    out_terms: list[Term] = []
    for t in e.terms:
        if t.extras or t.ratios or not t.unit.is_trivial:
            raise FragmentEscape(
                "thin substitution operates on plain source terms"
            )
        coeff = t.coeff
        exps = list(t.exps)
        occurrences: list[list] = []
        logpows = list(t.logpows)
        for i, rv in enumerate(raw.vars):
            if rv.thin is None:
                continue
            g = rv.thin
            r = exps[i]
            exps[i] = Fraction(0)
            if r != 0:
                qr = frac_pow(g.coeff, r)
                if qr is None:
                    raise FragmentEscape(f"{g.coeff}^{r} is irrational")
                coeff *= qr
                for j, ge in enumerate(g.exps):
                    if ge:
                        exps[j] += r * ge
            s = logpows[i]
            if s:
                logpows[i] = 0
                items = log_of_monomial_unit(g.coeff, g.exps, PolyUnit.one())
                occurrences.append(expand_log_power(items, s, nv))
        acc = [Term.make(coeff, ExpVec(tuple(exps)), logpows)]
        for alternatives in occurrences:
            acc = [x for a in acc for x in times_log_power(a, alternatives)]
        out_terms.extend(acc)
    # project away the thin coordinates
    proj_terms = []
    for t in out_terms:
        proj_terms.append(
            Term.make(
                t.coeff,
                ExpVec(tuple(t.exps[i] for i in keep)),
                tuple(t.logpows[i] for i in keep),
                t.extras,
            )
        )
    new_vars = []
    for new_i, i in enumerate(keep):
        rv = raw.vars[i]

        def remap(b):
            if not isinstance(b, RawMono):
                return b
            if any(b.exps[j] != 0 for j in range(nv) if j not in keep):
                raise FragmentEscape(
                    "bounds referencing thin variables are unsupported"
                )
            return RawMono(b.coeff, ExpVec(tuple(b.exps[j] for j in keep)))

        new_vars.append(
            RawVar(rv.name, remap(rv.lower), remap(rv.upper), rv.center)
        )
    return RawCell(tuple(new_vars)), normalize(
        CExpr(len(keep), tuple(proj_terms))
    )


# ---------------------------------------------------------------------------
# Full preparation of an expression on a normalized cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedCellData:
    """A cell, its (zero) centers, the prepared sum, and the undetermined
    index set J carrying all monomial/log support."""

    cell: Cell
    centers: tuple[Fraction, ...]
    terms: CExpr
    J: tuple[int, ...]

    def check(self) -> None:
        undet = set(self.J)
        sigs = set()
        for t in self.terms.terms:
            if not t.exps.support <= undet:
                raise NotPrepared(
                    f"exponent support {sorted(t.exps.support)} not inside "
                    f"J = {sorted(undet)}"
                )
            logsup = {i for i, p in enumerate(t.logpows) if p > 0}
            if not logsup <= undet:
                raise NotPrepared("log support leaves the undetermined set")
            sig = t.signature()
            if sig in sigs:
                raise NotPrepared("duplicate signatures after preparation")
            sigs.add(sig)


def _expand_composite_logs(e: CExpr, cell: Cell) -> CExpr:
    def expand(t: Term) -> Term | list[Term]:
        pending = [
            (atom, k) for atom, k in t.extras if isinstance(atom, LogExprAtom)
        ]
        if not pending:
            return t
        kept = tuple(
            (atom, k) for atom, k in t.extras
            if not isinstance(atom, LogExprAtom)
        )
        base = Term.make(t.coeff, t.exps, t.logpows, kept, t.ratios, t.unit)
        variants = [base]
        for atom, k in pending:
            arg = normalize(atom.arg)
            q, gamma, u = extract_unit(_flatten_to_poly(arg), cell)
            if q <= 0:
                raise FragmentEscape("log of a non-positive argument")
            if not u.is_trivial:
                cell.certify_unit_monomials(u)
            expansion = expand_log_power(
                log_of_monomial_unit(q, gamma, u), k, e.nvars
            )
            variants = [x for v in variants for x in times_log_power(v, expansion)]
        return variants

    return e.map_terms(expand)


def prepare_expr(e: CExpr, cell: Cell) -> list[PreparedCellData]:
    """Prepare an expression on a normalized cell: expand composite logs,
    absorb determined-variable exponents into ratio factors, merge
    signatures.  The single-cell case returns one piece; callers partition
    fibers (two-center comparison) before calling when shifted logs occur."""
    cell.validate()
    cls = classify(cell)
    J = cls.undetermined_positions()
    undet = set(J)
    e = normalize(_expand_composite_logs(normalize(e), cell))

    def absorb(t: Term) -> Term:
        for pos in range(cell.nvars):
            if pos in undet:
                continue
            if t.logpows[pos] > 0:
                raise FragmentEscape(
                    f"log of the determined variable {pos} cannot be "
                    "re-prepared inside the polynomial fragment"
                )
            if t.exps[pos] != 0:
                t = absorb_determined(t, cell, pos)
        return t

    prepared = normalize(e.map_terms(absorb))
    data = PreparedCellData(
        cell, (Fraction(0),) * cell.nvars, prepared, J
    )
    data.check()
    return [data]
