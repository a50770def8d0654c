"""Floating-point verification oracle: quadrature and the divergence probe.

The oracle is quarantined: nothing here feeds back into symbolic results;
engine modules only ever *test* against it.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

from .cells import Cell, Zero
from .core import CExpr, left_sum
from .errors import DomainError, SingularityTooStrong
from .tables import table
from .values import Value


def _bisect(
    panel: Callable[[float, float], tuple[float, float]],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_intervals: int = 4000,
    rel_tol: float = 1e-13,
) -> tuple[float, float]:
    """Globally adaptive Gauss-Kronrod: repeatedly bisect the worst
    subinterval until the summed error estimate is below tol.  panel(x0, x1)
    is the estimate and error of one 15-point panel, a sum's compiled
    CExpr.panel.

    Kronrod nodes are interior, so integrable endpoint singularities
    (integrand defined on the open interval) are sampled safely."""
    if a == b:
        return 0.0, 0.0
    val, err = panel(a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    count = 1
    while total_err > max(tol, rel_tol * abs(total_val)) and count < max_intervals:
        neg_err, x0, x1, v, e = heapq.heappop(heap)
        m = 0.5 * (x0 + x1)
        if m <= x0 or m >= x1:  # float resolution exhausted
            heapq.heappush(heap, (0.0, x0, x1, v, e))
            total_err = left_sum(item[4] for item in heap)
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        lv, le = panel(x0, m)
        rv, re = panel(m, x1)
        total_val += lv + rv - v
        total_err += le + re - e
        heapq.heappush(heap, (-le, x0, m, lv, le))
        heapq.heappush(heap, (-re, m, x1, rv, re))
        count += 1
    return total_val, total_err


def quadrature_last(
    e: CExpr,
    base_point: Sequence[float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Integrate e(base_point, y) dy over (lo, hi), handling an endpoint
    singularity at lo = 0 of type y^r (log y)^s with r > -1.

    The fractional part of the exponents is cleared by the substitution
    y = u^k (k the lcm of the exponent denominators), after which the
    integrand extends continuously except for integrable log factors at 0,
    which geometric endpoint panels resolve.
    """
    # NaN bounds fail no comparison, and an infinite one leaves no Kronrod
    # panel finite: refuse both rather than return NaN
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi <= lo:
        raise DomainError(f"bad fiber ({lo}, {hi})")
    pos = e.nvars - 1
    if not e.terms:
        return 0.0, 0.0
    rmin = min(t.exps[pos] for t in e.terms)
    k = 1
    if lo == 0.0:
        if rmin <= -1:
            raise SingularityTooStrong(
                f"endpoint exponent {rmin} <= -1 at the lower endpoint"
            )
        for t in e.terms:
            k = k * t.exps[pos].denominator // math.gcd(k, t.exps[pos].denominator)
    if k == 1:
        # y = u**1 is the identity and its Jacobian is 1
        return _bisect(e.panel(base_point), lo, hi, tol)
    # k > 1 only when lo == 0
    return _bisect(e.panel(base_point, k), 0.0, hi ** (1.0 / k), tol)


class ProbeReport(Value):
    """Empirical integrability verdict from dyadic partial integrals."""

    verdict: str  # "converged" | "diverged" | "inconclusive"
    partials: tuple[float, ...]
    growth_model: str  # "power" | "log-linear" | "none"
    limit: float | None = None


def _fit_growth(ks: list[float], logs: list[float]) -> tuple[float, float, float]:
    """Least squares fit log|increment| ~ a + b*k + c*log k.

    This is the exact model for y^r (log y)^s integrands, whose dyadic
    increments behave like C * 2^(-(r+1)k) * k^s; returns (b, c, r2)."""
    rows = [(1.0, k, math.log(k)) for k in ks]
    # normal equations (3x3), solved by Gaussian elimination
    ata = [[left_sum(r[i] * r[j] for r in rows) for j in range(3)]
           for i in range(3)]
    atb = [left_sum(r[i] * y for r, y in zip(rows, logs)) for i in range(3)]
    m = [ata[i] + [atb[i]] for i in range(3)]
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) < 1e-12:
            return 0.0, 0.0, 0.0
        m[col], m[piv] = m[piv], m[col]
        for r in range(3):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    a, b, c = (m[i][3] / m[i][i] for i in range(3))
    mean = left_sum(logs) / len(logs)
    ss_res = left_sum(
        (y - (a + b * k + c * math.log(k))) ** 2 for k, y in zip(ks, logs)
    )
    ss_tot = left_sum((y - mean) ** 2 for y in logs)
    r2 = 1.0 if ss_tot < 1e-12 else 1.0 - ss_res / ss_tot
    return b, c, r2


# probe reports kept, least recently used dropped first; validate's
# battery needs 12
_PROBE_TABLE_SIZE = 64


def divergence_probe(
    e: CExpr,
    base_point: Sequence[float],
    hi: float,
    kmax: int = 40,
    tol: float = 1e-7,
) -> ProbeReport:
    """Partial integrals over (2^-k, hi), k = 1..kmax, with a growth-model
    fit on the dyadic increments.  Never raises for a base point of the
    right length: inconclusive is a verdict.

    The frozen report is kept per process, keyed by the arguments, their
    types and each coordinate's sign bit: -0.0 == 0.0 and 2 == 2.0, yet a
    fiber may compute them apart (a zero hi fails 0 < hi either way, and
    tol only scales a bound on a nonnegative tail).  A raise stores nothing."""
    point = tuple(base_point)
    signs = tuple((type(x), math.copysign(1.0, x) if isinstance(x, float)
                   else 0) for x in point)
    return _divergence_probe(e, point, hi, kmax, tol, signs)


@table("oracle.divergence_probe", _PROBE_TABLE_SIZE)
def _divergence_probe(e, base_point, hi, kmax, tol, signs) -> ProbeReport:
    """divergence_probe computed afresh; signs is read only by the key."""
    if not 0.0 < hi < math.inf:
        # hi <= 0, infinite or NaN: no dyadic panel (2^-k, hi) to integrate
        return ProbeReport("inconclusive", (), "none")
    panel = e.panel(base_point)
    partials: list[float] = []
    increments: list[float] = []
    total = 0.0
    prev = hi
    k0 = max(1, int(math.ceil(-math.log2(hi))) + 1)
    for k in range(k0, kmax + 1):
        cut = 2.0 ** (-k)
        v, _ = _bisect(panel, cut, prev, 1e-12, max_intervals=400, rel_tol=1e-10)
        total += v
        increments.append(v)
        partials.append(total)
        prev = cut
        if abs(total) > 1e9:
            break
    if not partials:
        # hi <= 2^-kmax: no dyadic panel fits below hi
        return ProbeReport("inconclusive", (), "none")
    if abs(partials[-1]) > 1e6:
        return ProbeReport("diverged", tuple(partials), "power")
    # Cauchy criterion on the tail
    tail = [abs(v) for v in increments[-8:]]
    if max(tail) <= tol * max(1.0, abs(partials[-1])):
        return ProbeReport(
            "converged", tuple(partials), "none", limit=partials[-1]
        )
    # growth model fit on |increments| over the later dyadic panels
    ks = [k0 + i for i, v in enumerate(increments)]
    pts = [(k, abs(v)) for k, v in zip(ks, increments) if abs(v) > 0]
    pts = [p for p in pts if p[0] >= max(8, k0 + 4)]
    if len(pts) < 6:
        return ProbeReport("inconclusive", tuple(partials), "none")
    xs = [float(p[0]) for p in pts]
    logs = [math.log(p[1]) for p in pts]
    spread = max(logs) - min(logs)
    if spread < 1e-3:
        # constant increments: the harmonic y^-1 signature
        return ProbeReport("diverged", tuple(partials), "log-linear")
    b, c, r2 = _fit_growth(xs, logs)
    # magnitude trend over the tail window: growing one-signed increments
    # mean divergence no matter what the (possibly degenerate) fit says
    window = increments[-10:]
    tail_signs = {v > 0 for v in window if v != 0}
    one_signed = len(tail_signs) == 1
    growing = abs(window[-1]) >= 1.5 * abs(window[0]) > 0
    decaying = abs(window[-1]) <= 0.7 * abs(window[0])
    if growing and one_signed:
        model = "power" if (b > 0.02 and r2 > 0.99) else "log-linear"
        return ProbeReport("diverged", tuple(partials), model)
    if decaying and r2 > 0.99 and b < -0.02:
        # geometric decay: convergent, extrapolate the tail
        rho = math.exp(b)
        limit = partials[-1] + increments[-1] * rho / (1.0 - rho)
        return ProbeReport("converged", tuple(partials), "none", limit=limit)
    if r2 > 0.99 and b > 0.02 and one_signed:
        return ProbeReport("diverged", tuple(partials), "power")
    if r2 > 0.99 and abs(b) <= 0.02 and c > -0.5 and one_signed:
        # increments ~ k^c: the y^-1 (log y)^s family
        return ProbeReport("diverged", tuple(partials), "log-linear")
    return ProbeReport("inconclusive", tuple(partials), "none")


def fiber_bounds(
    cell: Cell, base_point: Sequence[float]
) -> tuple[float, float]:
    """Evaluate the last variable's bounds at a base point."""
    spec = cell.specs[cell.nvars - 1]
    lo = 0.0 if isinstance(spec.lower, Zero) else spec.lower.eval(base_point)
    hi = spec.upper.eval(base_point)
    return lo, hi
