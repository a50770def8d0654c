"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not calibrated elsewhere.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from cfcalc.analyze import decay_rate, sum_integrable_last, term_integrable_last
from cfcalc.cells import ZERO, transform_H
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogPrime,
    LogUnitAtom,
    PolyUnit,
    Term,
    differentiate_expr,
    is_normalized,
    is_zero,
    normalize,
    poly_scale,
)
from cfcalc.errors import CalcError, NoDecay
from cfcalc.generators import (
    random_cell,
    random_integrable_instance,
    random_prepared_terms,
    random_probe_sum,
)
from cfcalc.integrate import (
    antiderivative_pow_log,
    antiderivative_pow_log_recursive,
    build_sform,
    integrate_fubini,
    integrate_last,
)
from cfcalc.oracle import divergence_probe, fiber_bounds, quadrature_last
from cfcalc.sliver import build_sliver
from tests.conftest import cell_of, fat, mono, triangle, unit_fiber

SEED = 731


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_antiderivative_suite():
    """60 cases: derivative round trip exact; recursion equals closed form."""
    t0 = time.time()
    rs = [F(k, 2) for k in range(-6, 7) if F(k, 2) != -1]
    assert len(rs) == 12
    cases = 0
    for r in rs:
        for s in range(5):
            closed = antiderivative_pow_log(r, s)
            rec = antiderivative_pow_log_recursive(r, s)
            assert is_zero(normalize(closed - rec)), (r, s)
            target = CExpr(1, (Term.make(1, [r], [s]),))
            assert is_zero(normalize(differentiate_expr(closed, 0) - target)), (r, s)
            cases += 1
    elapsed = time.time() - t0
    report(
        "criterion-1 antiderivatives",
        cases == 60 and elapsed < 5.0,
        f"{cases} cases exact in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_closure():
    """200 certified-integrable instances, n <= 3: structurally valid output
    matching quadrature at 5 parameter points within max(1e-8, 1e-8|v|)."""
    rng = random.Random(SEED)
    t0 = time.time()
    instances = 0
    worst = 0.0
    while instances < 200:
        n = rng.choice([1, 2, 2, 3])
        cell, e = random_integrable_instance(rng, n)
        out = integrate_last(e, cell)
        assert out.nvars == n - 1
        assert is_normalized(out)
        base = cell.drop_last()
        base.validate()
        for _ in range(5):
            pt = base.sample_point(rng) if base.nvars else []
            lo, hi = fiber_bounds(cell, pt)
            num, _ = quadrature_last(e, pt, lo, hi, tol=1e-11)
            sym = out.eval(pt)
            dev = abs(num - sym)
            tol = max(1e-8, 1e-8 * abs(sym))
            worst = max(worst, dev / tol)
            assert dev <= tol, (dev, tol, pt)
        instances += 1
    elapsed = time.time() - t0
    report(
        "criterion-2 closure",
        instances == 200 and elapsed < 120,
        f"200 instances x 5 points, worst dev {worst:.3f}x tol, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_integrability_equivalence():
    """300 random prepared sums: sum verdict == AND of term verdicts, and
    >= 99% agreement with the divergence probe (inconclusives excluded)."""
    rng = random.Random(SEED)
    disagreements = 0
    inconclusive = 0
    total = 0
    for _ in range(300):
        cell, e = random_probe_sum(rng)
        res = sum_integrable_last(e, cell)
        and_of_terms = all(
            term_integrable_last(t, cell) for t in normalize(e).terms
        )
        assert res.verdict == and_of_terms
        rep = divergence_probe(normalize(e), [], 1.0)
        total += 1
        if rep.verdict == "inconclusive":
            inconclusive += 1
            continue
        if (rep.verdict == "converged") != res.verdict:
            disagreements += 1
    conclusive = total - inconclusive
    rate = 1 - disagreements / conclusive
    report(
        "criterion-3 integrability-equivalence",
        rate >= 0.99,
        f"{conclusive} conclusive probes, agreement {rate:.4f} (>= 0.99); "
        f"{inconclusive} inconclusive excluded",
    )


def _random_decay_instance(rng, nvars):
    """A prepared sum with positive last-variable exponents (dominant
    exponent > 0), over an all-undetermined cell."""
    cell = random_cell(rng, nvars, constrained_prob=0.3, determined_prob=0.0)
    e = random_prepared_terms(
        rng, nvars, range(nvars), max_terms=3, max_logpow=2,
        last_var_exp_pool=[F(k, 2) for k in range(1, 5)],
    )
    # force a genuinely positive dominant exponent on the last variable
    pos = nvars - 1
    fixed = [
        t if t.exps[pos] > 0 else t.with_exps(t.exps.with_entry(pos, F(1, 2)))
        for t in e.terms
    ]
    dedup = {}
    for t in fixed:
        dedup[t.signature()] = t
    return cell, CExpr(nvars, tuple(dedup.values()))


def test_criterion_4_decay():
    """50 instances with positive dominant exponent: |f| <= y^-r on a 20x20
    grid below the threshold, zero violations; worked example r = 1/8."""
    worked = CExpr(1, (Term.make(-1, [F(1, 3)], [1]),))
    dr0 = decay_rate(worked, unit_fiber(1))
    assert dr0.r == F(1, 8)
    rng = random.Random(SEED)
    instances = 0
    violations = 0
    while instances < 50:
        n = rng.choice([2, 3])
        cell, e = _random_decay_instance(rng, n)
        try:
            dr = decay_rate(e, cell)
        except (NoDecay, CalcError):
            continue
        base = cell.prefix(n - 1)
        for _ in range(20):
            pt = base.sample_point(rng)
            thr = dr.threshold(pt)
            for j in range(20):
                yd = thr * 10 ** (-6.0 * (j + 1) / 20)
                val = e.eval(pt + [yd])
                if abs(val) > yd ** float(dr.r):
                    violations += 1
        instances += 1
    report(
        "criterion-4 decay",
        violations == 0,
        f"worked example r = {dr0.r}; 50 instances x 20x20 grid, "
        f"{violations} violations (need 0)",
    )


def test_criterion_5_sliver_certificates():
    """50 random prepared open cells (n <= 3): build_sliver succeeds after
    the coordinate transform and 1000 sampled images lie inside, each."""
    rng = random.Random(SEED)
    instances = 0
    bad = 0
    while instances < 50:
        n = rng.choice([1, 2, 2, 3])
        cell = random_cell(rng, n, constrained_prob=0.5, bound_units=True)
        ht = transform_H(cell)
        sl = build_sliver(ht.cell)
        for _ in range(1000):
            t = sl.sample(rng)
            if not ht.cell.contains(sl.psi(t), slack=1e-12):
                bad += 1
        instances += 1
    report(
        "criterion-5 slivers",
        bad == 0,
        f"50 cells x 1000 samples, {bad} escapes (need 0, 100% containment)",
    )


def _random_prepared_term(rng, nv: int) -> Term:
    """coeff * y^r * logs * extras * unit, with rational exponents, variable
    and prime logs, a base unit log and a unit touching every variable."""
    exps = [F(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])) for _ in range(nv)]
    logpows = [rng.randint(0, 3) for _ in range(nv)]
    extras = []
    if rng.random() < 0.5:
        extras.append((LogPrime(rng.choice([2, 3, 5])), rng.randint(1, 2)))
    if nv > 1 and rng.random() < 0.3:
        base_unit = PolyUnit.build(1, {ExpVec.unit(nv, 0): F(1, 3)})
        extras.append((LogUnitAtom(base_unit), 1))
    unit = PolyUnit.one()
    if rng.random() < 0.6:
        monos = {}
        for _ in range(rng.randint(1, 3)):
            m = ExpVec.of([F(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(nv)])
            if not m.is_zero():
                monos[m] = F(rng.choice([-1, 1]), rng.randint(4, 9))
        unit = PolyUnit.build(1, monos)
    coeff = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return Term.make(coeff, exps, logpows, extras, unit=unit)


def _multiplied_out(e: CExpr) -> list[Term]:
    """The terms of e with every unit distributed into monomials."""
    out = []
    for t in e.terms:
        for m, c in poly_scale(t.unit.as_poly(e.nvars), t.coeff).items():
            out.append(Term.make(c, t.exps + m, t.logpows, t.extras))
    return out


def test_criterion_6_splitting_lemma():
    """200 random prepared terms t: after y = z^p, t(z^p) * p * z^(p-1)
    equals (sum_i laurent_i z^-i + sum_k analytic_k z^k) (log z)^s exactly,
    term by term, for the claim form that build_sform returns."""
    rng = random.Random(SEED)
    for _ in range(200):
        nv = rng.choice([1, 2, 3])
        t = _random_prepared_term(rng, nv)
        sf = build_sform(t)
        pos = nv - 1
        s = t.logpows[pos]
        p = sf.p
        assert sf.logpow == s and sf.nvars == nv
        assert all(i >= 1 for i, _ in sf.laurent)
        assert all(k >= 0 for k, _ in sf.analytic)
        # left side: log y = p log z and y^r dy = p z^(p r + p - 1) dz
        lhs = [
            Term.make(
                u.coeff * p ** (s + 1),
                u.exps.with_entry(pos, p * u.exps[pos] + p - 1),
                u.logpows, u.extras,
            )
            for u in _multiplied_out(CExpr(nv, (t,)))
        ]
        assert all(u.exps[pos].denominator == 1 for u in lhs)
        # right side: the base coefficients of each slot times z^zpow (log z)^s
        slots = [(-i, c) for i, c in sf.laurent] + list(sf.analytic)
        rhs = [
            Term.make(
                u.coeff, ExpVec.of(u.exps.exps + (zpow,)),
                u.logpows + (s,), u.extras,
            )
            for zpow, c in slots
            for u in _multiplied_out(c)
        ]
        diff = normalize(CExpr(nv, tuple(lhs)) - CExpr(nv, tuple(rhs)))
        assert not diff.terms, (t, sf)
    report(
        "criterion-6 splitting-lemma",
        True,
        "200 prepared terms split exactly into Laurent and analytic slots",
    )


def test_criterion_7_fubini_consistency():
    """50 product-cell instances integrate order-independently; the triangle
    with y2^(-1/2) yields exactly 4/3."""
    tri = integrate_fubini(
        [(triangle(), CExpr(2, (Term.make(1, [0, F(-1, 2)]),)))], 2
    ).constant()
    assert tri == F(4, 3)
    rng = random.Random(SEED)
    checked = 0
    while checked < 50:
        q1 = F(1, rng.choice([1, 4]))
        q2 = F(1, rng.choice([1, 4]))
        cell = cell_of(fat(ZERO, mono(q1, [0, 0])), fat(ZERO, mono(q2, [0, 0])))
        swapped_cell = cell_of(
            fat(ZERO, mono(q2, [0, 0])), fat(ZERO, mono(q1, [0, 0]))
        )
        terms = []
        sigs = set()
        for _ in range(rng.randint(1, 3)):
            r1, r2 = F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2)
            s1, s2 = rng.randint(0, 2), rng.randint(0, 2)
            if (r1, r2, s1, s2) in sigs:
                continue
            sigs.add((r1, r2, s1, s2))
            terms.append(
                Term.make(
                    F(rng.randint(-3, 3) or 1), ExpVec.of([r1, r2]), (s1, s2)
                )
            )
        e = CExpr(2, tuple(terms))
        swapped = CExpr(
            2,
            tuple(
                Term.make(
                    t.coeff,
                    ExpVec.of([t.exps[1], t.exps[0]]),
                    (t.logpows[1], t.logpows[0]),
                )
                for t in e.terms
            ),
        )
        a = integrate_fubini([(cell, e)], 2).value()
        b = integrate_fubini([(swapped_cell, swapped)], 2).value()
        assert is_zero(normalize(a - b))
        checked += 1
    report(
        "criterion-7 fubini",
        tri == F(4, 3),
        f"triangle = {tri} exactly; 50 order swaps symbolically equal",
    )


def test_criterion_8_oracle_battery():
    """12-case probe battery plus quadrature accuracy on known values."""
    wrong = []
    for r in (F(-3, 2), F(-1), F(-1, 2)):
        for s in range(4):
            e = CExpr(1, (Term.make(1, [r], [s]),))
            rep = divergence_probe(e, [], 1.0)
            want = "converged" if r > -1 else "diverged"
            if rep.verdict != want:
                wrong.append((r, s, rep.verdict))
    known = [
        (CExpr(1, (Term.make(1, [F(-1, 2)]),)), 2.0),
        (CExpr(1, (Term.make(1, [0], [1]),)), -1.0),
        (CExpr(1, (Term.make(1, [F(-1, 2)], [1]),)), -4.0),
        (CExpr(1, (Term.make(1, [3]),)), 0.25),
    ]
    worst = 0.0
    for e, want in known:
        got, _ = quadrature_last(e, [], 0.0, 1.0)
        worst = max(worst, abs(got - want))
    report(
        "criterion-8 oracle-battery",
        not wrong and worst <= 1e-9,
        f"12/12 probe verdicts, max quadrature error {worst:.2e} (<= 1e-9)",
    )
