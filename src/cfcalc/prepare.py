"""Restricted preparation: put fragment expressions into canonical prepared
form (distinct log signatures, monomial exponents supported on the
asymptotically undetermined positions) on a normalized cell centered at 0.

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

from .cells import (
    Cell,
    MonomialBound,
    RawCell,
    RawMono,
    RawVar,
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
    exact_pow,
    expand_log_power,
    log_of_monomial_unit,
    normalize,
    poly_add,
    poly_scale,
    times_log_power,
)
from .errors import FragmentEscape, NotDetermined, NotPrepared

# ---------------------------------------------------------------------------
# Dominant-monomial extraction
# ---------------------------------------------------------------------------


def extract_unit(
    poly: MonoPoly, cell: Cell
) -> tuple[Fraction, ExpVec, PolyUnit]:
    """Write a composite log argument as q * y^gamma * unit with a certified
    unit.

    Tries each monomial as the dominant pivot; the cofactor monomials must
    be certified (0,1]-bounded on the cell and the coefficient sum must
    keep the certificate one-sided.  On a cell centered at 0 an argument
    such as y1 - 1/2 on (0,1) has no such pivot and is refused."""
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
# Determined-exponent absorption
# ---------------------------------------------------------------------------


def absorb_determined(t: Term, cell: Cell, pos: int | None = None) -> Term:
    """Rewrite the term so its exponent at an asymptotically determined
    position moves onto earlier variables, adjoining the certified bounded
    ratio (y_pos / y^beta)^r as an opaque factor."""
    pos = cell.nvars - 1 if pos is None else pos
    cls = classify(cell)
    if not cls.determined[pos]:
        raise NotDetermined(f"variable {pos} is not asymptotically determined")
    spec = cell.specs[pos]
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
                coeff *= exact_pow(g.coeff, r)
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
            RawVar(rv.name, remap(rv.lower), remap(rv.upper))
        )
    return RawCell(tuple(new_vars)), normalize(
        CExpr(len(keep), tuple(proj_terms))
    )


# ---------------------------------------------------------------------------
# Full preparation of an expression on a normalized cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedCellData:
    """A cell, the prepared sum, and the undetermined index set J carrying
    all monomial/log support."""

    cell: Cell
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
    signatures.  Returns a list with exactly one piece, for the whole cell."""
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
    data = PreparedCellData(cell, prepared, J)
    data.check()
    return [data]
