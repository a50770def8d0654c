"""Numeric oracle: quadrature accuracy, probe calibration, evaluation."""

import heapq
import math
import random
from fractions import Fraction as F
from functools import partial

import pytest

from cfcalc.core import CExpr, ExpVec, PolyUnit, Term, left_sum
from cfcalc.errors import DomainError, SingularityTooStrong
from cfcalc.generators import random_integrable_instance
from cfcalc.oracle import (
    ProbeReport,
    _bisect,
    divergence_probe,
    fiber_bounds,
    quadrature_last,
)
from tests.conftest import gk15_reference, substituted


KNOWN_INTEGRALS = [
    # (r, s, value of the integral over (0,1))
    (F(0), 0, 1.0),
    (F(1), 0, 0.5),
    (F(2), 0, 1.0 / 3),
    (F(5), 0, 1.0 / 6),
    (F(-1, 2), 0, 2.0),
    (F(-1, 4), 0, 4.0 / 3),
    (F(1, 2), 0, 2.0 / 3),
    (F(3, 2), 0, 0.4),
    (F(0), 1, -1.0),
    (F(0), 2, 2.0),
    (F(0), 3, -6.0),
    (F(1), 1, -0.25),
    (F(1), 2, 0.25),
    (F(2), 1, -1.0 / 9),
    (F(-1, 2), 1, -4.0),
    (F(-1, 2), 2, 16.0),
    (F(1, 2), 1, -4.0 / 9),
    (F(3), 1, -1.0 / 16),
    (F(-3, 4), 0, 4.0),
    (F(-3, 4), 1, -16.0),
]


@pytest.mark.parametrize("r,s,value", KNOWN_INTEGRALS)
def test_quadrature_known_closed_forms(r, s, value):
    e = CExpr(1, (Term.make(1, [r], [s]),))
    got, err = quadrature_last(e, [], 0.0, 1.0)
    assert abs(got - value) <= 1e-9 * max(1.0, abs(value))


def test_quadrature_error_bound_honest():
    e = CExpr(1, (Term.make(1, [F(-1, 2)], [1]),))
    got, err = quadrature_last(e, [], 0.0, 1.0)
    assert abs(got + 4.0) <= max(err, 1e-9)


def test_quadrature_rejects_strong_singularity():
    e = CExpr(1, (Term.make(1, [F(-3, 2)]),))
    with pytest.raises(SingularityTooStrong):
        quadrature_last(e, [], 0.0, 1.0)


def test_quadrature_interior_interval():
    e = CExpr(1, (Term.make(1, [F(-2)]),))
    got, _ = quadrature_last(e, [], 1.0, 2.0)
    assert abs(got - 0.5) < 1e-9


@pytest.mark.parametrize("lo,hi", [
    (1.0, math.inf), (0.0, math.inf), (math.nan, 1.0), (0.5, math.nan),
    (math.nan, math.nan), (-math.inf, 1.0), (1.0, 0.5), (-0.5, 1.0),
])
def test_quadrature_refuses_bad_bounds(lo, hi):
    # infinite and NaN bounds gave (nan, nan) instead of a refusal, and the
    # empty sum took any bounds
    for e in (CExpr(1, (Term.make(1, [-2]),)), CExpr.zero(1)):
        with pytest.raises(DomainError):
            quadrature_last(e, [], lo, hi)


def test_adaptive_quadrature_smooth():
    got, _ = _bisect(partial(gk15_reference, math.sin), 0.0, math.pi)
    assert abs(got - 2.0) < 1e-10


def test_probe_battery():
    for r in (F(-3, 2), F(-1), F(-1, 2)):
        for s in range(4):
            e = CExpr(1, (Term.make(1, [r], [s]),))
            rep = divergence_probe(e, [], 1.0)
            expected = "converged" if r > -1 else "diverged"
            assert rep.verdict == expected, (r, s, rep.verdict)
            if r == -1:
                assert rep.growth_model == "log-linear"
            if r == F(-3, 2):
                assert rep.growth_model == "power"


def test_probe_limit_extrapolation():
    e = CExpr(1, (Term.make(1, [F(-1, 2)]),))
    rep = divergence_probe(e, [], 1.0)
    assert rep.limit is not None and abs(rep.limit - 2.0) < 1e-4


def test_probe_never_raises_on_weird_input():
    e = CExpr(1, (Term.make(1, [F(-1)], [3]), Term.make(-1, [F(-1)], [3])))
    rep = divergence_probe(e, [], 1.0)  # identically zero integrand
    assert rep.verdict in ("converged", "inconclusive")


def test_eval_matches_hand_arithmetic():
    e = CExpr(1, (Term.make(F(3, 2), [F(-1, 2)], [2]),))
    assert abs(e.eval([0.25]) - 12 * math.log(2) ** 2) < 1e-12
    assert CExpr.const(5, 1).eval([0.3]) == 5.0
    assert CExpr(1, (Term.make(1, [0], [1]),)).eval([1.0]) == 0.0


def test_eval_agrees_with_exact(rng):
    # log-free rational points with exactly representable powers
    for _ in range(50):
        k = rng.randint(1, 10)
        pt_f = F(k * k, 256)
        e = CExpr(
            1,
            (
                Term.make(F(3, 7), [F(1, 2)]),
                Term.make(F(-2, 3), [2]),
            ),
        )
        exact = e.eval_exact([pt_f])
        approx = e.eval([float(pt_f)])
        assert abs(approx - float(exact)) <= 1e-14 * max(1.0, abs(float(exact)))


def test_unit_evaluation_consistency(rng):
    u = PolyUnit.build(1, {ExpVec.of([1]): F(-1, 3), ExpVec.of([2]): F(1, 5)})
    e = CExpr(1, (Term.make(2, [1], unit=u),))
    for _ in range(20):
        y = rng.random()
        direct = 2 * y * (1 - y / 3 + y * y / 5)
        assert abs(e.eval([y]) - direct) < 1e-14


def test_probe_below_every_dyadic_panel_is_inconclusive():
    # hi <= 2^-kmax leaves no panel (2^-k, hi) to integrate, and neither
    # does a hi that is not in (0, inf)
    e = CExpr(1, (Term.make(1, [F(-1, 2)]),))
    for hi, kmax in ((2.0 ** -45, 40), (0.5, 1), (2.0 ** -40, 40), (0.0, 40),
                     (-0.0, 40), (-1.0, 40), (math.inf, 40), (-math.inf, 40),
                     (math.nan, 40)):
        assert divergence_probe(e, [], hi, kmax=kmax) == ProbeReport(
            "inconclusive", (), "none"
        )
    # one panel still fits below 2^-(kmax-1)
    assert len(divergence_probe(e, [], 2.0 ** -39, kmax=40).partials) == 1


# -- reference copies of the loop quadrature and of direct evaluation ---------


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _same_floats(xs, ys):
    return len(xs) == len(ys) and all(map(_same_float, xs, ys))


def _adaptive_reference(f, a, b, tol=1e-10, max_intervals=4000, rel_tol=1e-13):
    if a == b:
        return 0.0, 0.0
    val, err = gk15_reference(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    count = 1
    while total_err > max(tol, rel_tol * abs(total_val)) and count < max_intervals:
        neg_err, x0, x1, v, e = heapq.heappop(heap)
        m = 0.5 * (x0 + x1)
        if m <= x0 or m >= x1:
            heapq.heappush(heap, (0.0, x0, x1, v, e))
            total_err = left_sum(item[4] for item in heap)
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        lv, le = gk15_reference(f, x0, m)
        rv, re = gk15_reference(f, m, x1)
        total_val += lv + rv - v
        total_err += le + re - e
        heapq.heappush(heap, (-le, x0, m, lv, le))
        heapq.heappush(heap, (-re, m, x1, rv, re))
        count += 1
    return total_val, total_err


def _quadrature_last_reference(e, base_point, lo, hi, tol=1e-10):
    # quadrature_last's substitution over e.eval at base_point + [y]
    pos = e.nvars - 1
    k = 1
    if lo == 0.0:
        for t in e.terms:
            k = k * t.exps[pos].denominator // math.gcd(k, t.exps[pos].denominator)
    f = substituted(lambda y: e.eval(list(base_point) + [y]), k)
    return _adaptive_reference(f, lo, hi ** (1.0 / k) if k > 1 else hi, tol)


def _panel_matches(e, base, a, b, k=1):
    """e's compiled panel against the reference rule over e.eval, at
    y = u**k with its Jacobian when k > 1."""
    f = substituted(lambda y: e.eval(list(base) + [y]), k)
    return _same_floats(e.panel(base, k)(a, b), gk15_reference(f, a, b))


@pytest.mark.parametrize("r", [F(-3, 2), F(-1), F(-1, 2), F(0), F(5, 2)])
def test_gk15_matches_the_loop_bit_for_bit_on_probe_panels(r):
    # the probe's integrands y^r log(y)^s on its dyadic panels (2^-k, 2^-k+1),
    # through the compiled panel, alone and bisected
    for s in range(4):
        e = CExpr(1, (Term.make(1, [r], [s]),))

        def f(y):
            return e.eval([y])

        for k in range(1, 41):
            a, b = 2.0 ** -k, 2.0 ** (1 - k)
            assert _panel_matches(e, [], a, b), (s, k)
            want = _adaptive_reference(f, a, b, 1e-12, max_intervals=400, rel_tol=1e-10)
            got = _bisect(e.panel([]), a, b, 1e-12, max_intervals=400, rel_tol=1e-10)
            assert _same_floats(got, want), (s, k)


def _mixed_unit_sum(rng, nvars):
    # terms whose unit monomials read base coordinates and y together, so
    # the folded base product of a unit monomial is not 1.0
    def exps():
        return ExpVec.of([F(rng.randint(0, 4), 2) for _ in range(nvars)])

    terms = []
    for _ in range(rng.randint(1, 3)):
        monos = {}
        for _ in range(rng.randint(1, 3)):
            m = exps()
            if not m.is_zero():
                monos[m] = rng.choice([F(1, 4), F(-1, 4), F(1, 8), F(-1, 5)])
        unit = PolyUnit.build(1, monos)
        terms.append(Term.make(
            rng.choice([F(3, 2), F(-2, 3), F(5)]),
            ExpVec.of([F(rng.randint(0, 3), 2) for _ in range(nvars)]),
            [rng.randint(0, 2) for _ in range(nvars)],
            unit=unit,
        ))
    return CExpr(nvars, tuple(terms))


def test_fiber_matches_eval_bit_for_bit_on_mixed_unit_monomials():
    rng = random.Random(17)
    for _ in range(40):
        e = _mixed_unit_sum(rng, rng.choice([2, 3]))
        base = [0.05 + 0.9 * rng.random() for _ in range(e.nvars - 1)]
        for _ in range(3):
            y = 0.01 + 0.98 * rng.random()
            assert _panel_matches(e, base, y / 2, y), (e, base, y)
            assert _panel_matches(e, base, 0.0, y, k=2), (e, base, y)
        got = quadrature_last(e, base, 0.0, 1.0)
        assert _same_floats(got, _quadrature_last_reference(e, base, 0.0, 1.0))


def test_quadrature_matches_the_loop_bit_for_bit_on_unit_fibers():
    # fibers whose polynomial units read the last coordinate, integrated
    # through the compiled panels and from direct evaluation at each node
    compared = 0
    seed = 0
    while compared < 50:
        rng = random.Random(seed)
        seed += 1
        cell, e = random_integrable_instance(rng, rng.choice([1, 2, 3]))
        pos = e.nvars - 1
        if not any(pos in t.unit.support() for t in e.terms):
            continue
        base = cell.sample_point(rng)[:-1]
        lo, hi = fiber_bounds(cell, base)
        assert _panel_matches(e, base, lo, hi), seed
        got = quadrature_last(e, base, lo, hi)
        assert _same_floats(got, _quadrature_last_reference(e, base, lo, hi)), seed
        compared += 1
