"""Restricted preparation: put fragment expressions into canonical prepared
form (distinct log signatures) on a normalized cell centered at 0.

Composite log arguments expand through dominant-monomial extraction:
log(q * y^gamma * u) = log q + gamma . log y + log u, the constant part
over the coprime base of its factorization and the unit part as an opaque
atom.  Exponents and logs of asymptotically determined variables stay in
the prepared sum as they are: on a band fiber c * y'^beta < y < d * y'^beta
the variable is bounded away from 0, so y^r (log y)^s integrates in closed
form between the bounds.
"""

from __future__ import annotations

from fractions import Fraction

from .cells import Cell, RawCell, RawMono, RawVar, classify, empty_between
from .core import (
    CExpr,
    ExpVec,
    LogExprAtom,
    MonoPoly,
    PolyUnit,
    Term,
    exact_pow,
    expand_log_power,
    log_of_monomial_unit,
    normalize,
    poly_add,
    poly_scale,
    times_log_power,
)
from .errors import FragmentEscape, NotPrepared, ParseError
from .values import Value

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
        if any(t.logpows) or t.extras:
            raise FragmentEscape("log arguments must be log-free")
        upoly = poly_scale(t.unit.as_poly(e.nvars), t.coeff)
        poly = poly_add(poly, {m + t.exps: c for m, c in upoly.items()})
    return poly


# ---------------------------------------------------------------------------
# Thin-variable elimination (graph substitution)
# ---------------------------------------------------------------------------


def substitute_thin(raw: RawCell, e: CExpr) -> tuple[RawCell, CExpr]:
    """Substitute every thin variable by its graph and project it away.

    A graph or a bound may read an earlier thin variable, so every graph is
    first written over the kept variables, and every bound through them;
    each term is then rewritten over the kept coordinates in one pass."""
    keep = [i for i, rv in enumerate(raw.vars) if rv.thin is None]
    if len(keep) == raw.nvars:
        return raw, e
    # thin position -> its graph over the kept variables
    graphs: dict[int, RawMono] = {}

    def times_graph(coeff, kept, i, r):
        """coeff * y^kept times the r-th power of thin variable i's graph."""
        g = graphs[i]
        if g.coeff < 0:
            raise FragmentEscape(f"power of negative thin variable {raw.vars[i].name}")
        return coeff * exact_pow(g.coeff, r), [k + r * e for k, e in zip(kept, g.exps)]

    def remap(b):
        """A bound over the kept variables: 0, inf, or a monomial whose
        thin variables are written through their graphs."""
        if not isinstance(b, RawMono):
            return b
        coeff, kept = b.coeff, [b.exps[j] for j in keep]
        for i in graphs:
            if b.exps[i]:
                coeff, kept = times_graph(coeff, kept, i, b.exps[i])
        return RawMono(coeff, ExpVec(tuple(kept)))

    for i, rv in enumerate(raw.vars):
        if rv.thin is not None:
            graphs[i] = remap(rv.thin)
    kept_vars: list[RawVar] = []
    for i in keep:
        rv = raw.vars[i]
        lo, hi = remap(rv.lower), remap(rv.upper)
        # the parser's empty-fiber test, which saw these bounds before they
        # read the graphs
        if empty_between(lo, hi, kept_vars):
            raise ParseError(f"invalid bounds for {rv.name!r}")
        kept_vars.append(RawVar(rv.name, lo, hi))
    out_terms: list[Term] = []
    for t in e.terms:
        if t.extras or not t.unit.is_trivial:
            raise FragmentEscape(
                "thin substitution operates on plain source terms"
            )
        coeff, kept = t.coeff, [t.exps[j] for j in keep]
        occurrences = []
        for i, g in graphs.items():
            if t.exps[i]:
                coeff, kept = times_graph(coeff, kept, i, t.exps[i])
            if t.logpows[i]:
                items = log_of_monomial_unit(g.coeff, g.exps, PolyUnit.one())
                occurrences.append(expand_log_power(items, t.logpows[i], len(keep)))
        acc = [Term.make(coeff, ExpVec(tuple(kept)), tuple(t.logpows[j] for j in keep))]
        for alternatives in occurrences:
            acc = [x for a in acc for x in times_log_power(a, alternatives)]
        out_terms.extend(acc)

    return RawCell(tuple(kept_vars)), normalize(CExpr(len(keep), tuple(out_terms)))


# ---------------------------------------------------------------------------
# Full preparation of an expression on a normalized cell
# ---------------------------------------------------------------------------


class PreparedCellData(Value):
    """A cell, the prepared sum, and the cell's asymptotically undetermined
    positions J."""

    cell: Cell
    terms: CExpr
    J: tuple[int, ...]

    def check(self) -> None:
        sigs = set()
        for t in self.terms.terms:
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
        base = Term.make(t.coeff, t.exps, t.logpows, kept, t.unit)
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
    """Prepare an expression on a normalized cell, validated first (at no
    cost when it passed before, as normalize_cell's did): expand composite
    logs and merge signatures.  Returns a one-piece list, for the whole cell."""
    cell.validate()
    J = classify(cell).undetermined_positions()
    prepared = normalize(_expand_composite_logs(normalize(e), cell))
    data = PreparedCellData(cell, prepared, J)
    data.check()
    return [data]
