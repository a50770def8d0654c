"""Sliver probes: thin open sets on which monomial asymptotics linearize.

The probe map is psi(t) = (t_1, t_1^(t_2), ..., t_1^(t_n)) on
(0, epsilon) x box, so a monomial y^alpha pulls back to
t_1^(alpha_1 + sum_j alpha_j t_j): its asymptotics as t_1 -> 0 are read off
an affine function of the box parameters.  Everything here is exact
rational arithmetic; affine extrema over a box live at its corners, and the
corner check *is* the certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence, TypeVar

from .cells import Cell, MonomialBound, Zero, classify
from .core import ExpVec
from .errors import NotAllUndetermined, NotBounded, NotPrepared
from .values import Value

Box = tuple[tuple[Fraction, Fraction], ...]
T = TypeVar("T")


class AffineForm(Value):
    """constant + sum coeffs[j] * t_(j+2) over the sliver box parameters."""

    constant: Fraction
    coeffs: tuple[Fraction, ...]

    def value(self, ts: Sequence[Fraction]) -> Fraction:
        return self.constant + sum(
            (c * t for c, t in zip(self.coeffs, ts)), Fraction(0)
        )

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return AffineForm(
            self.constant - other.constant, tuple(x - y for x, y in zip(a, b))
        )

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def pull_exponent(alpha: ExpVec, arity: int | None = None) -> AffineForm:
    """Affine exponent of the pull-back of y^alpha along the probe map; with
    an arity, over that many box parameters (coefficients trimmed, or padded
    with zeros)."""
    exps = tuple(alpha) or (Fraction(0),)
    coeffs = exps[1:]
    if arity is not None:
        coeffs = coeffs[:arity] + (Fraction(0),) * (arity - len(coeffs))
    return AffineForm(exps[0], coeffs)


def corners(box: Box) -> Iterable[tuple[Fraction, ...]]:
    if not box:
        yield ()
        return
    yield from product(*box)


def box_center(box: Box) -> tuple[Fraction, ...]:
    return tuple((lo + hi) / 2 for lo, hi in box)


def form_min(f: AffineForm, box: Box) -> Fraction:
    return min(f.value(c) for c in corners(box))


def form_max(f: AffineForm, box: Box) -> Fraction:
    return max(f.value(c) for c in corners(box))


def _positive(x: Fraction) -> Fraction | None:
    return x if x > 0 else None


def shrink_toward(
    box: Box,
    target: Sequence[Fraction],
    certify: Callable[[Box], T | None],
    failure: Exception,
) -> tuple[Box, T]:
    """The first box, halved toward the target point (each side keeps the
    half that holds the target's coordinate), on which certify gives a value
    other than None, with that value; after 200 halvings, raise failure."""
    for _ in range(200):
        value = certify(box)
        if value is not None:
            return box, value
        halves = []
        for (lo, hi), t in zip(box, target):
            mid = (lo + hi) / 2
            halves.append((lo, mid) if t <= mid else (mid, hi))
        box = tuple(halves)
    raise failure


def is_subbox(inner: Box, outer: Box) -> bool:
    return all(
        olo <= ilo and ihi <= ohi
        for (ilo, ihi), (olo, ohi) in zip(inner, outer)
    )


def separate(forms: Sequence[AffineForm], box: Box) -> tuple[int, Fraction, Box]:
    """Find i, a margin c > 0 and a sub-box V with forms[i] + c <= forms[j]
    on V for every j != i.

    Pairwise-distinct affine forms separate on a neighborhood of any point
    off their coincidence set; the box bisects toward such a point until
    the corner check certifies the margin."""
    if not forms:
        raise ValueError("separate needs at least one form")
    if len(forms) == 1:
        return 0, Fraction(1), box
    # probe points: center, then quasi-generic perturbations of it
    target = None
    for attempt in range(64):
        cand = []
        for j, (lo, hi) in enumerate(box):
            w = hi - lo
            cand.append(lo + w * Fraction(2 * attempt + j + 3, 4 * attempt + 2 * j + 7))
        vals = [f.value(cand) for f in forms]
        if len(set(vals)) == len(vals):
            target = tuple(cand)
            break
    if target is None:  # pragma: no cover - distinct forms always separate
        raise ValueError("could not find a separating probe point")
    i = min(range(len(forms)), key=lambda j: forms[j].value(target))
    V, margin = shrink_toward(
        box,
        target,
        lambda V: _positive(min(
            form_min(forms[j] - forms[i], V) for j in range(len(forms)) if j != i
        )),
        ValueError("separation did not certify"),
    )
    return i, margin, V


class Sliver(Value):
    """The box (0, epsilon) x box and the probe map it parameterizes."""

    epsilon: Fraction
    box: Box
    notes: tuple[str, ...] = ()

    @property
    def nvars(self) -> int:
        return len(self.box) + 1

    def psi(self, t: Sequence[float]) -> list[float]:
        t1 = float(t[0])
        return [t1] + [t1 ** float(tj) for tj in t[1:]]

    def sample(self, rng) -> list[float]:
        t1 = float(self.epsilon) * (0.02 + 0.96 * rng.random())
        ts = [t1]
        for lo, hi in self.box:
            ts.append(float(lo) + (float(hi) - float(lo)) * rng.random())
        return ts


def shrink_for_decay(beta: ExpVec, s: Sliver) -> tuple[Sliver, Fraction]:
    """Shrink the box so the affine exponent of y^beta stays >= c > 0,
    certifying uniform decay of the pull-back as t_1 -> 0."""
    if beta.is_zero():
        raise ValueError("shrink_for_decay needs a nonzero exponent")
    form = pull_exponent(beta, len(s.box))
    if form.is_constant():
        if form.constant <= 0:
            raise NotBounded(f"exponent form is the nonpositive constant {form.constant}")
        return s, form.constant
    lo = form_min(form, s.box)
    if lo > 0:
        return s, lo
    hi = form_max(form, s.box)
    if hi <= 0:
        raise NotBounded("exponent form is nonpositive on the whole box")
    box, lo = shrink_toward(
        s.box,
        max(corners(s.box), key=form.value),
        lambda box: _positive(form_min(form, box)),
        NotBounded("could not certify a positive exponent floor"),
    )
    return Sliver(s.epsilon, box, s.notes + ("decay-shrink",)), lo


def _log_deviation_budget(bound: MonomialBound) -> float:
    """Upper bound for |log(q * u)| along the probe (the non-monomial part
    of a bound; must vanish relative to |log t_1|)."""
    q = float(bound.coeff)
    dev = abs(math.log(q)) if q != 1.0 else 0.0
    if not bound.unit.is_trivial or bound.unit.constant != 1:
        dev += bound.unit.log_magnitude_bound()
    return dev


def _dyadic_below(x: float) -> Fraction:
    """Largest power of two <= x (for 0 < x <= 1)."""
    e = max(1, int(math.ceil(-math.log2(min(x, 1.0)))))
    while 2.0 ** (-e) > x:
        e += 1
    return Fraction(1, 2 ** e)


def build_sliver(cell: Cell) -> Sliver:
    """Construct a certified sliver inside an open prepared cell with
    every variable asymptotically undetermined.

    Per variable, the box interval (p_i, q_i) is chosen with slack delta
    against the affine exponent forms of the bounds; epsilon is then shrunk
    (dyadically) until every bound's coefficient/unit perturbation
    |log(q*u)| / |log t_1| fits inside its delta."""
    cls = classify(cell)
    if not cls.all_undetermined():
        raise NotAllUndetermined(
            "apply the coordinate transform first: determined variables "
            f"at positions {[i for i, d in enumerate(cls.determined) if d]}"
        )
    n = cell.nvars
    first = cell.specs[0]
    if not isinstance(first.lower, Zero):
        # undetermined first variable has constant bounds, so a nonzero
        # lower bound would make it determined
        raise NotAllUndetermined("first variable has a nonzero lower bound")
    eps_cap = float(first.upper.coeff) * (
        float(first.upper.unit.value_bounds()[0]) if not first.upper.unit.is_trivial else 1.0
    )
    box: Box = ()
    deltas: list[Fraction] = []
    budgets: list[float] = []
    notes: list[str] = ["var1: (0, eps)"]
    for i in range(1, n):
        spec = cell.specs[i]
        upper = spec.upper
        beta = pull_exponent(upper.exps, len(box))
        budgets.append(_log_deviation_budget(upper))
        if isinstance(spec.lower, Zero):
            delta = Fraction(1, 4)
            bmax = form_max(beta, box) if box else beta.constant
            p = max(bmax + delta, Fraction(1, 4))
            q = p + Fraction(1, 2)
            deltas.append(delta)
            box = box + ((p, q),)
            notes.append(f"var{i+1}: ({p}, {q}) delta={delta} (no lower bound)")
            continue
        lower = spec.lower
        budgets.append(_log_deviation_budget(lower))
        alpha = pull_exponent(lower.exps, len(box))
        gap = alpha - beta
        m_target = form_max(gap, box)
        if m_target <= 0:
            raise NotPrepared(f"variable {i} has no positive exponent gap")
        # a positive pointwise gap does not give min(alpha) > max(beta) when
        # the forms vary; shrink toward the gap-maximizing corner until the
        # uniform inequalities have room
        box, width = shrink_toward(
            box,
            max(corners(box), key=gap.value),
            lambda box: w if (
                w := form_min(alpha, box) - form_max(beta, box)
            ) >= m_target / 2 else None,
            NotPrepared("could not certify the exponent gap"),
        )
        delta = width / 4
        p = form_max(beta, box) + delta
        q = p + width / 2
        deltas.append(delta)
        box = box + ((p, q),)
        notes.append(f"var{i+1}: ({p}, {q}) delta={delta}")
    # epsilon: fit every perturbation budget inside the smallest delta
    eps = min(Fraction(1, 2), _dyadic_below(eps_cap * 0.99))
    if deltas and budgets:
        worst = max(budgets)
        if worst > 0:
            dmin = float(min(deltas))
            # need worst / |log eps| <= dmin
            need = worst / dmin
            k = max(1, int(math.ceil(need / math.log(2))))
            eps = min(eps, Fraction(1, 2 ** k))
    return Sliver(eps, box, tuple(notes))
