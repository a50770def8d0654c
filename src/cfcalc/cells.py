"""Cells, normalization to the unit box, classification, and coordinate maps.

An engine `Cell` is an open cell inside (0,1)^n with center 0: each variable
y_i satisfies  a_i(y_<i) < y_i < b_i(y_<i)  where a_i is zero or a monomial
bound q * y^exps * unit and b_i is a monomial bound, both certified to take
values in (0,1] over the base.  Raw user cells (also centered at 0, with
unbounded or negative fibers and bounds not yet inside the unit box)
normalize to this shape through one reciprocal / mirror / rescale map per
variable, and expressions follow through `compose_with_map`.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import (
    CExpr,
    ExpVec,
    LogExprAtom,
    LogUnitAtom,
    MonoPoly,
    PolyUnit,
    RatLike,
    Term,
    _eval_monomial_exact,
    exact_pow,
    expand_log_power,
    floor_root,
    frac_pow,
    log_of_monomial_unit,
    normalize,
    poly_add,
    poly_is_certifiable_unit,
    poly_mul,
    poly_scale,
    terms_from_poly,
    times_log_power,
    unit_from_poly,
)
from .errors import (
    CellError,
    FragmentEscape,
    InconsistentOrientation,
    NotPrepared,
    UncertifiedCell,
)
from .tables import table
from .values import Value, set_field

# ---------------------------------------------------------------------------
# Bound kinds
# ---------------------------------------------------------------------------


class Zero(Value):
    """Lower bound 0."""


class Inf(Value):
    """Upper bound +infinity (raw cells only)."""


class MonomialBound(Value):
    """q * y^exps * unit with q > 0; exps/unit over earlier positions."""

    coeff: Fraction
    exps: ExpVec
    unit: PolyUnit = PolyUnit.one()

    def __post_init__(self):
        if self.coeff <= 0:
            raise CellError(f"monomial bound needs a positive coefficient, got {self.coeff}")
        if self.unit.sign < 0:
            raise CellError("monomial bound needs a positive unit")

    @staticmethod
    def const(q: RatLike, nvars: int) -> "MonomialBound":
        return MonomialBound(Fraction(q), ExpVec.zero(nvars))

    def support(self) -> frozenset[int]:
        return self.exps.support | self.unit.support()

    @cached_property
    def _float_plan(self):
        # the coefficient and the nonzero exponents as floats, converted on
        # first use; a unit of 1 is left out, as x * 1.0 is x in floats
        return (
            float(self.coeff),
            tuple((i, float(e)) for i, e in enumerate(self.exps) if e),
            None if self.unit.is_trivial else self.unit,
        )

    def eval(self, point: Sequence[float]) -> float:
        # multiplies the coefficient into each power in turn, unlike
        # Term.eval, which forms the monomial product first: (c*a)*b is not
        # always c*(a*b) in floats, so routing this through the term plan
        # would change the bits of sample_point
        total, powers, unit = self._float_plan
        for i, e in powers:
            total *= float(point[i]) ** e
        return total if unit is None else total * unit.eval(point)


BoundSpec = Union[Zero, Inf, MonomialBound]

ZERO = Zero()
INF = Inf()


# ---------------------------------------------------------------------------
# Interval arithmetic over (0, +inf]; None encodes +inf
# ---------------------------------------------------------------------------

Interval = tuple[Fraction, Fraction | None]


def _pow_bound(q: Fraction, e: Fraction, upper: bool) -> Fraction:
    """A rational upper (or lower) bound for q**e, q**e itself when rational.

    Otherwise, with q**u = N/D for e = u/v, r = floor(root_v(N * D^(v-1) *
    2^(64v))) gives r / (D * 2^64) < q**e < (r + 1) / (D * 2^64), in
    integers only."""
    v = frac_pow(q, e)
    if v is not None:
        return v
    n, d = (q ** e.numerator).as_integer_ratio()
    k = e.denominator
    r = floor_root(n * d ** (k - 1) << 64 * k, k)
    return Fraction(r + 1 if upper else r, d << 64)


def interval_mul(a: Interval, b: Interval) -> Interval:
    lo = a[0] * b[0]
    hi = None if a[1] is None or b[1] is None else a[1] * b[1]
    return (lo, hi)


def interval_scale(a: Interval, q: Fraction) -> Interval:
    return (a[0] * q, None if a[1] is None else a[1] * q)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


class FatVar(Value):
    lower: Union[Zero, MonomialBound]
    upper: MonomialBound


class Cell(Value):
    """Normalized cell in (0,1)^n with center 0.  Every variable is fat:
    thin (graph) variables are substituted away at the source level."""

    specs: tuple[FatVar, ...]
    _certified = False  # set by a passing validate(); not a field

    def __init__(self, specs):
        for i, spec in enumerate(specs):
            for b in (spec.lower, spec.upper):
                if isinstance(b, Inf):
                    raise CellError("normalized cells have bounded fibers")
                if isinstance(b, MonomialBound) and any(
                    j >= i for j in b.support()
                ):
                    raise CellError(
                        f"bound of variable {i} references a later variable"
                    )
        set_field(self, "specs", specs)

    @property
    def nvars(self) -> int:
        return len(self.specs)

    def prefix(self, n: int) -> "Cell":
        """The projection onto the first n variables (itself a cell)."""
        return Cell(self.specs[:n])

    def drop_last(self) -> "Cell":
        return Cell(self.specs[:-1])

    def with_spec(self, pos: int, spec: FatVar) -> "Cell":
        specs = list(self.specs)
        specs[pos] = spec
        return Cell(tuple(specs))

    # -- interval estimates -------------------------------------------------

    def monomial_interval(self, exps: ExpVec) -> Interval:
        """Certified range of y^exps by last-to-first bound substitution.

        A positive power is bounded above through the variable's upper bound
        and below through its lower bound (and vice versa for negative
        powers); substituting moves the exponent onto earlier variables, so
        couplings like y2/y1 <= 1 on {y2 < y1} are seen exactly."""
        head = list(exps.exps[: self.nvars])
        if any(e != 0 for e in exps.exps[self.nvars:]):
            raise CellError("monomial references variables beyond this cell")
        return (self._mono_bound(list(head), False), self._mono_bound(head, True))

    def _mono_bound(self, exps: list[Fraction], upper: bool) -> Fraction | None:
        """A certified upper (or lower) bound of y^exps over the cell.  Each
        variable, last first, is replaced by its upper bound when its
        exponent's sign agrees with `upper`, else by its lower bound; a
        lower bound 0 makes the upper bound None (+inf) and the lower one 0."""
        coeff = Fraction(1)
        for i in range(len(exps) - 1, -1, -1):
            e = exps[i]
            if e == 0:
                continue
            exps[i] = Fraction(0)
            spec = self.specs[i]
            use_upper = (e > 0) == upper
            if not use_upper and isinstance(spec.lower, Zero):
                return None if upper else Fraction(0)
            bound = spec.upper if use_upper else spec.lower
            ulo, uhi = bound.unit.value_bounds()
            ub = uhi if use_upper else ulo
            coeff *= _pow_bound(bound.coeff, e, upper) * _pow_bound(ub, e, upper)
            for j, be in enumerate(bound.exps):
                if be:
                    exps[j] += e * be
        return coeff

    def bound_interval(self, b: MonomialBound) -> Interval:
        iv = interval_scale(self.monomial_interval(b.exps), b.coeff)
        return interval_mul(iv, b.unit.value_bounds())

    # -- certification ------------------------------------------------------

    def certify_unit_monomials(self, unit: PolyUnit) -> None:
        """Every unit summand monomial must take values in (0, 1]."""
        for _, m in unit.monos:
            lo, hi = self.monomial_interval(m)
            if hi is None or hi > 1:
                raise CellError(
                    f"unit monomial y^{m.exps} not certified bounded by 1 "
                    f"(range up to {hi})"
                )

    def certify_bound(self, pos: int, b: MonomialBound) -> None:
        self.certify_unit_monomials(b.unit)
        lo, hi = self.bound_interval(b)
        if hi is None or hi > 1:
            raise UncertifiedCell(
                f"bound of variable {pos} not certified inside (0,1] "
                f"(range up to {hi})"
            )

    def certify_less(self, a: Union[Zero, MonomialBound], b: MonomialBound) -> None:
        """Certify a < b pointwise on the base (exponent comparison first,
        else coefficient/unit-certificate comparison)."""
        if isinstance(a, Zero):
            return
        gamma = a.exps - b.exps
        qa, qb = a.coeff, b.coeff
        ua_lo, ua_hi = a.unit.value_bounds()
        ub_lo, ub_hi = b.unit.value_bounds()
        if gamma.is_zero():
            # same exponents: interval comparison, else positivity of the
            # difference polynomial (nonnegative coefficients are strictly
            # positive on the open cell since monomials never vanish)
            if qa * ua_hi < qb * ub_lo:
                return
            nv = max(len(a.exps), len(b.exps))
            diff = poly_add(
                poly_scale(b.unit.as_poly(nv), qb),
                poly_scale(a.unit.as_poly(nv), -qa),
            )
            const = diff.get(ExpVec.zero(nv), Fraction(0))
            if diff and const >= 0 and all(c > 0 for m, c in diff.items()
                                           if not m.is_zero()):
                return
            raise UncertifiedCell(
                f"cannot certify bound order: {qa}*u in [{qa*ua_lo},{qa*ua_hi}] "
                f"vs {qb}*v in [{qb*ub_lo},{qb*ub_hi}]"
            )
        glo, ghi = self.monomial_interval(gamma)
        if ghi is not None and ghi * qa * ua_hi <= qb * ub_lo:
            return
        raise UncertifiedCell("cannot certify bound order (incomparable monomials)")

    def validate(self) -> None:
        """Certify each fiber's bounds inside (0, 1] and in order, or raise.
        A pass is kept on the instance: validating it again, as prepare_expr
        does with the cell that normalize_cell certified, costs nothing."""
        if self._certified:
            return
        for i, spec in enumerate(self.specs):
            prefix = self.prefix(i)
            prefix.certify_bound(i, spec.upper)
            if isinstance(spec.lower, MonomialBound):
                prefix.certify_bound(i, spec.lower)
            prefix.certify_less(spec.lower, spec.upper)
        set_field(self, "_certified", True)

    # -- sampling (oracle support) -------------------------------------------

    def sample_point(self, rng, margin: float = 0.05) -> list[float]:
        """A random interior point, fraction `margin` away from the bounds."""
        pt: list[float] = []
        for spec in self.specs:
            lo = 0.0 if isinstance(spec.lower, Zero) else spec.lower.eval(pt)
            hi = spec.upper.eval(pt)
            u = margin + (1 - 2 * margin) * rng.random()
            pt.append(lo + (hi - lo) * u)
        return pt

    def contains(self, point: Sequence[float], slack: float = 0.0) -> bool:
        for i, spec in enumerate(self.specs):
            lo = 0.0 if isinstance(spec.lower, Zero) else spec.lower.eval(point)
            hi = spec.upper.eval(point)
            if not (lo - slack < point[i] < hi + slack):
                return False
        return True


# ---------------------------------------------------------------------------
# Asymptotic classification
# ---------------------------------------------------------------------------


class AsymClass(Value):
    """Per position: asymptotically determined / constrained flags."""

    determined: tuple[bool, ...]
    constrained: tuple[bool, ...]

    def __init__(self, determined, constrained):
        set_field(self, "determined", determined)
        set_field(self, "constrained", constrained)

    def undetermined_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.determined) if not d)

    def all_undetermined(self) -> bool:
        return not any(self.determined)


def classify(cell: Cell) -> AsymClass:
    """Exact exponent comparison: a variable is constrained iff its lower
    bound is nonzero, and determined iff moreover both bounds share their
    exponent vector (their ratio is then a bounded unit)."""
    det: list[bool] = []
    con: list[bool] = []
    for spec in cell.specs:
        constrained = isinstance(spec.lower, MonomialBound)
        determined = constrained and spec.lower.exps == spec.upper.exps
        det.append(determined)
        con.append(constrained)
    return AsymClass(tuple(det), tuple(con))


def assert_prepared_shape(cell: Cell) -> AsymClass:
    """Prepared cells have bound exponents/units supported on earlier
    asymptotically undetermined positions."""
    cls = classify(cell)
    undet = set(cls.undetermined_positions())
    for i, spec in enumerate(cell.specs):
        bounds = [spec.upper]
        if isinstance(spec.lower, MonomialBound):
            bounds.append(spec.lower)
        for b in bounds:
            if not b.support() <= undet:
                raise NotPrepared(
                    f"bound of variable {i} references determined variables "
                    f"{sorted(b.support() - undet)}"
                )
    return cls


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------


class AxisMap(Value):
    """old_pos = eps * (scale * new_pos)^zeta."""

    pos: int
    eps: int = 1
    zeta: int = 1
    scale: Fraction = Fraction(1)

    def is_identity(self) -> bool:
        return self.eps == 1 and self.zeta == 1 and self.scale == 1

    def apply(self, z: Fraction) -> Fraction:
        return self.eps * (self.scale * z) ** self.zeta

    def invert(self, x: Fraction) -> Fraction:
        w = self.eps * x
        if self.zeta == -1:
            w = 1 / w
        return w / self.scale

    def rewrite(self, c: Fraction, m: ExpVec) -> tuple[Fraction, ExpVec]:
        """c * old^m in the new coordinates, as (coefficient, exponents):
        old_pos^e = scale^(zeta e) * eps^e * new_pos^(zeta e).  A
        fractional power of a mirrored coordinate is refused."""
        e = m[self.pos]
        if e == 0:
            return c, m
        if self.eps < 0:
            if e.denominator != 1:
                raise FragmentEscape("fractional power of a negative coordinate")
            if e.numerator % 2:
                c = -c
        ze = self.zeta * e
        return c * exact_pow(self.scale, ze), m.with_entry(self.pos, ze)


class HStep(Value):
    """old_pos = new_<pos^alpha * (R * new_pos + u(new_<pos)).

    u carries its own constant (the lower-bound unit q_a * u_a); R is a
    rational upper bound for the bound gap, so the parenthesized factor is
    itself a certified unit on the new cell.
    """

    pos: int
    alpha: ExpVec
    unit: PolyUnit
    R: Fraction

    def full_unit(self, nvars: int) -> PolyUnit:
        poly = self.unit.as_poly(nvars)
        e = ExpVec.unit(nvars, self.pos)
        poly[e] = poly.get(e, Fraction(0)) + self.R
        return unit_from_poly(poly, nvars)

    def apply(self, z: Sequence[Fraction]) -> Fraction:
        total = self.unit.eval_exact(z) + self.R * z[self.pos]
        return total * _eval_monomial_exact(self.alpha, z)


MapStep = Union[AxisMap, HStep]
CellMap = tuple[MapStep, ...]


def map_point(steps: Iterable[MapStep], z: Sequence[RatLike]) -> list[Fraction]:
    """Old coordinates of a new-coordinate point (exact)."""
    x = [Fraction(v) for v in z]
    for step in reversed(list(steps)):
        if isinstance(step, HStep):
            x[step.pos] = step.apply(x)
        else:
            x[step.pos] = step.apply(x[step.pos])
    return x


def unmap_point(steps: Iterable[MapStep], x: Sequence[RatLike]) -> list[Fraction]:
    """New coordinates of an old-coordinate point (exact); AxisMaps only."""
    z = [Fraction(v) for v in x]
    for step in steps:
        if isinstance(step, HStep):
            mono = _eval_monomial_exact(step.alpha, z)
            z[step.pos] = (z[step.pos] / mono - step.unit.eval_exact(z[: step.pos])) / step.R
        else:
            z[step.pos] = step.invert(z[step.pos])
    return z


def map_jacobian(steps: Iterable[MapStep], nvars: int) -> Term:
    """|det| of the old-in-terms-of-new derivative, as a term over the new
    coordinates (the map is triangular, so the determinant is the product of
    the diagonal entries |d old_i / d new_i|)."""
    coeff = Fraction(1)
    exps = ExpVec.zero(nvars)
    for step in steps:
        if isinstance(step, HStep):
            coeff *= step.R
            exps = exps + step.alpha.pad(nvars)
        else:
            if step.zeta == 1:
                coeff *= step.scale
            else:
                coeff /= step.scale
                exps = exps + ExpVec.unit(nvars, step.pos, -2)
    return Term.make(coeff, exps)


# -- term composition --------------------------------------------------------


def _subst_poly_axis(poly: MonoPoly, step: AxisMap) -> MonoPoly:
    """Rewrite a polynomial in cell monomials through an axis map."""
    out: MonoPoly = {}
    for m, c in poly.items():
        c, m = step.rewrite(c, m)
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def _subst_unit_axis(
    unit: PolyUnit, step: AxisMap, nvars: int
) -> tuple[Fraction, PolyUnit]:
    """Rewrite a unit through an axis map; returns (scale, monic unit).

    The recertification must succeed (units inside logs cannot distribute)."""
    if step.pos not in unit.support():
        return unit.monic()
    poly = _subst_poly_axis(unit.as_poly(nvars), step)
    if not poly_is_certifiable_unit(poly):
        raise FragmentEscape("substituted unit loses its certificate")
    return unit_from_poly(poly, nvars).monic()


def _compose_term_axis(t: Term, step: AxisMap, nvars: int) -> list[Term]:
    pos = step.pos
    logpows = list(t.logpows)
    extras: list = []
    # substituted unit as a polynomial carrier (may fail recertification,
    # in which case it distributes at the end)
    unit_poly = _subst_poly_axis(t.unit.as_poly(nvars), step)
    coeff, exps = step.rewrite(t.coeff, t.exps)
    # log part
    log_expansion = None
    s = logpows[pos]
    if s > 0:
        if step.eps < 0:
            raise FragmentEscape("log of a negative coordinate")
        # log old = zeta*(log scale + log new); (zeta*L)^s = zeta^s L^s
        items = log_of_monomial_unit(
            step.scale, ExpVec.unit(nvars, pos), PolyUnit.one()
        )
        coeff *= step.zeta ** s
        logpows[pos] = 0
        log_expansion = expand_log_power(items, s, nvars)
    # opaque log atoms
    for atom, k in t.extras:
        if isinstance(atom, LogUnitAtom) and pos in atom.unit.support():
            scale, u2 = _subst_unit_axis(atom.unit, step, nvars)
            sub_items = log_of_monomial_unit(scale, ExpVec.zero(nvars), u2)
            sub = expand_log_power(sub_items, k, nvars)
            if len(sub) != 1:
                raise FragmentEscape("axis map splits an opaque unit log into a sum")
            c0, lp0, ex0 = sub[0]
            coeff *= c0
            logpows = [a + b for a, b in zip(logpows, lp0)]
            extras.extend(ex0)
        elif isinstance(atom, LogExprAtom):
            raise FragmentEscape("prepare composite logs before composing maps")
        else:
            extras.append((atom, k))

    pieces = terms_from_poly(coeff, exps, tuple(logpows), extras, unit_poly, nvars)
    if log_expansion is None:
        return pieces
    return [x for base in pieces for x in times_log_power(base, log_expansion)]


def _compose_term_h(t: Term, step: HStep, nvars: int) -> list[Term]:
    pos = step.pos
    full = step.full_unit(nvars)
    coeff = t.coeff
    exps = t.exps
    logpows = list(t.logpows)
    extras: list = []

    # substitute the original unit's pos-monomials first
    new_poly: MonoPoly = {}
    for m, c in t.unit.as_poly(nvars).items():
        e = m[pos]
        if e == 0:
            new_poly[m] = new_poly.get(m, Fraction(0)) + c
            continue
        if e.denominator != 1 or e < 0:
            raise FragmentEscape(
                "unit monomial power of a transformed coordinate leaves the fragment"
            )
        piece = poly_scale(full.power(int(e)).as_poly(nvars), c)
        m2 = (m + step.alpha.pad(nvars).scale(e)).with_entry(pos, 0)
        for mm, cc in piece.items():
            key = mm + m2
            new_poly[key] = new_poly.get(key, Fraction(0)) + cc
    new_poly = {m: c for m, c in new_poly.items() if c != 0}

    r = exps[pos]
    if r != 0:
        if r.denominator != 1 or r < 0:
            raise FragmentEscape(
                f"power {r} of a transformed coordinate leaves the fragment "
                "(fractional or negative unit power)"
            )
        exps = (exps + step.alpha.pad(nvars).scale(r)).with_entry(pos, 0)
        new_poly = poly_mul(new_poly, full.power(int(r)).as_poly(nvars))
    log_expansion = None
    s = logpows[pos]
    if s > 0:
        items = log_of_monomial_unit(Fraction(1), step.alpha.pad(nvars), full)
        logpows[pos] = 0
        log_expansion = expand_log_power(items, s, nvars)
    for atom, k in t.extras:
        if isinstance(atom, LogUnitAtom) and pos in atom.unit.support():
            raise FragmentEscape("transform of a nested unit log is unsupported")
        if isinstance(atom, LogExprAtom):
            raise FragmentEscape("prepare composite logs before composing maps")
        extras.append((atom, k))

    pieces = terms_from_poly(coeff, exps, tuple(logpows), extras, new_poly, nvars)
    if log_expansion is None:
        return pieces
    return [x for base in pieces for x in times_log_power(base, log_expansion)]


def compose_with_map(
    e: CExpr, steps: Iterable[MapStep], with_jacobian: bool = False
) -> CExpr:
    """Exact pull-back of an expression through a coordinate map.

    `steps` describe each old coordinate in terms of the new ones; the
    result is the function e(old(new)).  With `with_jacobian`, the |det| of
    the map's derivative is multiplied in (the integration use).  Identity
    axis steps change no term and contribute the factor 1 to the Jacobian,
    so they are skipped; without other steps the result is normalize(e)."""
    nv = e.nvars
    steps = [
        s for s in steps if not (isinstance(s, AxisMap) and s.is_identity())
    ]
    if not steps:
        return normalize(e)
    terms = list(e.terms)
    for step in steps:
        out: list[Term] = []
        for t in terms:
            if isinstance(step, HStep):
                out.extend(_compose_term_h(t, step, nv))
            else:
                out.extend(_compose_term_axis(t, step, nv))
        terms = out
    result = CExpr(nv, tuple(terms))
    if with_jacobian:
        jac = CExpr(nv, (map_jacobian(steps, nv),))
        result = result * jac
    return normalize(result)


# ---------------------------------------------------------------------------
# transform_H: make every variable asymptotically undetermined
# ---------------------------------------------------------------------------


class HTransform(Value):
    cell: Cell
    steps: tuple[HStep, ...]

    def is_identity(self) -> bool:
        return not self.steps


def transform_H(cell: Cell) -> HTransform:
    """Rewrite asymptotically determined variables through the band map
    so that every variable of the result is asymptotically undetermined;
    prepared functions compose through `compose_with_map` with the steps."""
    assert_prepared_shape(cell)
    cur = cell
    steps: list[HStep] = []
    nv = cell.nvars
    for d in range(nv):
        if not classify(cur).determined[d]:
            continue
        spec = cur.specs[d]
        lower = spec.lower
        assert isinstance(lower, MonomialBound)
        upper = spec.upper
        alpha = lower.exps
        # v - u as a polynomial over the base (certified positive)
        u_poly = poly_scale(lower.unit.as_poly(nv), lower.coeff)
        v_poly = poly_scale(upper.unit.as_poly(nv), upper.coeff)
        gap = poly_scale(u_poly, -1)
        for m, c in v_poly.items():
            gap[m] = gap.get(m, Fraction(0)) + c
        gap = {m: c for m, c in gap.items() if c != 0}
        if not poly_is_certifiable_unit(gap):
            raise NotPrepared(
                f"bound gap of variable {d} is not a certified unit"
            )
        gap_unit = unit_from_poly(gap, nv)
        if gap_unit.sign < 0:
            raise NotPrepared(f"bound gap of variable {d} is negative")
        R = gap_unit.value_bounds()[1]
        u_unit = unit_from_poly(u_poly, nv)
        steps.append(HStep(d, alpha, u_unit, R))
        # new fiber: 0 < z_d < (v - u)/R
        scale, monic_gap = gap_unit.scaled(1 / R).monic()
        new_upper = MonomialBound(scale, ExpVec.zero(nv), monic_gap)
        cur = cur.with_spec(d, FatVar(ZERO, new_upper))
    result = HTransform(cur, tuple(steps))
    if steps:
        final = classify(cur)
        if not final.all_undetermined():
            raise NotPrepared("transform left a determined variable")
    return result


# ---------------------------------------------------------------------------
# Raw cells and normalization
# ---------------------------------------------------------------------------


class RawMono(Value):
    """q * prod x_j^e_j over raw coordinates (no unit part in source)."""

    coeff: Fraction
    exps: ExpVec

    def __init__(self, coeff, exps):
        set_field(self, "coeff", coeff)
        set_field(self, "exps", exps)

    @staticmethod
    def const(q: RatLike, nvars: int) -> "RawMono":
        return RawMono(Fraction(q), ExpVec.zero(nvars))


RawBound = Union[Zero, Inf, RawMono]


class RawVar(Value):
    name: str
    lower: RawBound
    upper: RawBound
    thin: RawMono | None = None

    def __init__(self, name, lower, upper, thin=None):
        set_field(self, "name", name)
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "thin", thin)


class RawCell(Value):
    vars: tuple[RawVar, ...]

    def __init__(self, vars):
        set_field(self, "vars", vars)

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def closure_contains(self, point: Sequence[Fraction]) -> bool:
        """Whether the rational point lies in the closure of the cell, decided
        exactly: every fat variable between its bounds, every thin one on its
        graph.  A bound with no real value at the point excludes it."""
        return all(
            _side(x, rv.thin, point) == 0 if rv.thin is not None
            else _side(x, rv.lower, point) in (0, 1)
            and _side(x, rv.upper, point) in (-1, 0)
            for rv, x in zip(self.vars, point))


def _constant_value(b) -> Fraction | None:
    if isinstance(b, Zero):
        return Fraction(0)
    if isinstance(b, RawMono) and b.exps.is_zero():
        return b.coeff
    return None


def empty_between(lo, hi, earlier: Sequence[RawVar]) -> bool:
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


def _side(x: Fraction, b: RawBound, point: Sequence[Fraction]) -> int | None:
    """The sign of x - b(point) in rationals: a bound with fractional
    exponents compares d-th powers, and a negative power of a zero
    coordinate is the bound's infinite limit.  None where b has no real
    value (an even root of a negative coordinate)."""
    if isinstance(b, Inf):
        return -1
    sx = (x > 0) - (x < 0)
    if isinstance(b, Zero):
        return sx
    d = math.lcm(*(e.denominator for e in b.exps))
    sign, power = (1 if b.coeff > 0 else -1), abs(b.coeff) ** d
    for p, e in zip(point, b.exps):
        if e and p <= 0:
            if p == 0:
                return -sign if e < 0 else sx
            if e.denominator % 2 == 0:
                return None
            sign *= -1 if e.numerator % 2 else 1
        power *= abs(p) ** int(e * d)
    if sx != sign:
        return -sign
    return sign * ((abs(x) ** d > power) - (abs(x) ** d < power))


class CellNormalization(Value):
    """Result of normalize_cell: the unit-box cell, the map G expressing old
    coordinates in terms of new ones, and G's Jacobian as a term."""

    cell: Cell
    steps: CellMap
    jacobian: Term
    names: tuple[str, ...]

    def pull_back(self, e: CExpr, with_jacobian: bool = False) -> CExpr:
        return compose_with_map(e, self.steps, with_jacobian)


def _transform_raw_bound(
    b: RawBound, steps: Sequence[AxisMap], nv: int
) -> RawBound:
    """Rewrite a raw monomial bound through the axis maps of earlier
    variables."""
    if not isinstance(b, RawMono):
        return b
    coeff, exps = b.coeff, b.exps
    for step in steps:
        if step.eps < 0 and exps[step.pos]:
            raise InconsistentOrientation(
                "dependent bounds may only reference positive variables"
            )
        coeff, exps = step.rewrite(coeff, exps)
    return RawMono(coeff, exps)


def _mono_interval(cell_so_far: Cell, b: RawMono, nv: int) -> Interval:
    if b.coeff < 0:
        if not b.exps.is_zero():
            raise InconsistentOrientation(
                "negative coefficients are only supported on constant bounds"
            )
        return (b.coeff, b.coeff)
    return interval_scale(cell_so_far.monomial_interval(b.exps.pad(nv)), b.coeff)


def _dyadic_at_least(q: Fraction) -> Fraction:
    """Smallest power of two >= q (keeps scale powers rational-friendly)."""
    s = Fraction(1)
    while s < q:
        s *= 2
    while s / 2 >= q:
        s /= 2
    return s


# normalizations kept, least recently used dropped first; the benchmark's
# whole cli-mix pool has 23 distinct raw cells
_CELL_TABLE_SIZE = 256


@table("cells.normalize_cell", _CELL_TABLE_SIZE)
def normalize_cell(raw: RawCell) -> CellNormalization:
    """Map a raw cell onto a normalized cell in (0,1)^n with center 0.

    Per variable: a mirror for negative fibers, then a reciprocal for fibers
    inside [1, inf) or else an optional power-of-two rescale to push the
    upper bound into (0,1].
    Raises InconsistentOrientation for fibers that no single-piece map of
    this shape can handle (e.g. fibers containing 0).  The frozen result is
    kept per process, keyed by the raw cell, and shared by every caller."""
    nv = raw.nvars
    steps: list[AxisMap] = []
    specs: list[FatVar] = []
    for i, rv in enumerate(raw.vars):
        if rv.thin is not None:
            raise CellError(
                "thin variables must be substituted away before normalization"
            )
        cell_so_far = Cell(tuple(specs))
        lower = _transform_raw_bound(rv.lower, steps, nv)
        upper = _transform_raw_bound(rv.upper, steps, nv)
        eps = 1
        if isinstance(upper, Inf):
            if isinstance(lower, Zero):
                raise InconsistentOrientation(
                    "the fiber (0, inf) has no single-piece normalization"
                )
        elif isinstance(upper, Zero):
            # the fiber (-b, 0) mirrors to (0, b)
            if not (isinstance(lower, RawMono) and lower.coeff < 0
                    and lower.exps.is_zero()):
                raise InconsistentOrientation(
                    "a fiber ending at 0 needs a negative constant lower bound"
                )
            eps = -1
            lower, upper = ZERO, RawMono(-lower.coeff, lower.exps)
        elif upper.coeff < 0 or (upper.coeff > 0 and upper.exps.is_zero()
                                 and isinstance(lower, RawMono) and lower.coeff < 0):
            # entirely negative fiber: mirror (constant bounds only)
            if not isinstance(lower, RawMono):
                raise InconsistentOrientation(
                    "a fiber from 0 to a negative bound is empty"
                )
            if not (lower.exps.is_zero() and upper.exps.is_zero()):
                raise InconsistentOrientation(
                    "negative fibers are supported for constant bounds only"
                )
            if upper.coeff >= 0 or lower.coeff >= 0:
                raise InconsistentOrientation(
                    f"fiber ({lower.coeff}, {upper.coeff}) contains 0"
                )
            eps = -1
            lower, upper = RawMono(-upper.coeff, upper.exps), RawMono(
                -lower.coeff, lower.exps
            )
        llo = (Fraction(0) if isinstance(lower, Zero)
               else _mono_interval(cell_so_far, lower, nv)[0])
        if isinstance(upper, Inf):
            if llo < 1:
                raise InconsistentOrientation(
                    f"unbounded fiber with lower bound below 1 (from {llo}); "
                    "split the cell at 1"
                )
        else:
            _, bhi = _mono_interval(cell_so_far, upper, nv)
        if llo < 0:
            raise InconsistentOrientation(
                "fibers containing 0 have no single-piece normalization"
            )
        if llo >= 1:
            # reciprocal: new = 1/old in (1/upper, 1/lower), from 0 when
            # the upper bound is infinite
            steps.append(AxisMap(i, eps=eps, zeta=-1))
            new_upper = MonomialBound(1 / lower.coeff, lower.exps.pad(nv).scale(-1))
            new_lower: Union[Zero, MonomialBound] = (
                ZERO if isinstance(upper, Inf)
                else MonomialBound(1 / upper.coeff, upper.exps.pad(nv).scale(-1))
            )
            specs.append(FatVar(new_lower, new_upper))
            continue
        if bhi is None:
            raise InconsistentOrientation(
                "unbounded fiber with lower bound below 1; split the cell at 1"
            )
        s = _dyadic_at_least(bhi) if bhi > 1 else Fraction(1)
        steps.append(AxisMap(i, eps=eps, scale=s))
        new_upper = MonomialBound(upper.coeff / s, upper.exps.pad(nv))
        new_lower = (
            ZERO
            if isinstance(lower, Zero)
            else MonomialBound(lower.coeff / s, lower.exps.pad(nv))
        )
        specs.append(FatVar(new_lower, new_upper))
    cell = Cell(tuple(specs))
    cell.validate()
    cmap = tuple(steps)
    return CellNormalization(cell, cmap, map_jacobian(cmap, nv), raw.names)
