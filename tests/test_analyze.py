"""Integrability verdicts, dominance reports, decay rates, majorants."""

import math
import random
from fractions import Fraction as F

import pytest

from cfcalc import analyze
from cfcalc.analyze import (
    decay_rate,
    dominance,
    integrable_locus,
    subanalytic_bound,
    sum_integrable_last,
    term_integrable_last,
)
from cfcalc.cells import ZERO
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogComposite,
    LogPrime,
    LogUnitAtom,
    PolyUnit,
    Term,
    normalize,
)
from cfcalc.errors import EmptyExpr, FragmentEscape, NoDecay
from cfcalc.generators import random_probe_sum
from cfcalc.oracle import divergence_probe
from cfcalc.sliver import box_center, build_sliver, form_min, pull_exponent
from tests.conftest import cell_of, fat, mono, triangle, unit_fiber, wedge_determined


class TestTermIntegrable:
    def test_harmonic_divergence(self):
        assert not term_integrable_last(Term.make(1, [-1]), unit_fiber(1))

    def test_log_power_rescues_nothing(self):
        assert not term_integrable_last(Term.make(1, [-1], [2]), unit_fiber(1))

    def test_fractional_converges(self):
        assert term_integrable_last(Term.make(1, [F(-1, 2)], [3]), unit_fiber(1))

    def test_base_factor_irrelevant(self):
        t = Term.make(1, ExpVec.of([5, -1]), (0, 2))
        assert not term_integrable_last(t, triangle())

    def test_constrained_always_integrable(self):
        t = Term.make(1, ExpVec.of([0, -5]))
        assert term_integrable_last(t, wedge_determined())

    def test_unit_log_on_last_var_rejected(self):
        u = PolyUnit.build(1, {ExpVec.of([1]): F(1, 2)})
        t = Term.make(1, [-1], extras=[(LogUnitAtom(u), 1)])
        with pytest.raises(FragmentEscape):
            term_integrable_last(t, unit_fiber(1))


class TestDominance:
    def test_single_minimal_exponent(self):
        e = CExpr(1, (Term.make(1, [F(-1)]), Term.make(1, [F(-1, 2)])))
        rep = dominance(e, unit_fiber(1))
        assert rep.rbar == -1 and rep.lbar == 0
        assert rep.chain[3] == (0,)
        assert rep.W.exps[0] == -1 and rep.W.logpows[0] == 0

    def test_log_power_dominates(self):
        e = CExpr(1, (Term.make(1, [F(-1)]), Term.make(-1, [F(-1)], [1])))
        rep = dominance(e, unit_fiber(1))
        assert rep.rbar == -1 and rep.lbar == 1
        assert rep.W.logpows[0] == 1

    def test_base_separation(self):
        cell = triangle()
        e = CExpr(2, (Term.make(1, ExpVec.of([1, -1])), Term.make(1, ExpVec.of([2, -1]))))
        rep = dominance(e, cell)
        assert rep.chain[2] == (0,)  # x1-exponent 1 dominates x1^2
        assert rep.W.exps.exps == (F(1), F(-1))
        assert rep.margin > 0

    def test_empty_rejected(self):
        with pytest.raises(EmptyExpr):
            dominance(CExpr.zero(1), unit_fiber(1))

    def test_sliver_limit_power_gap(self):
        # gaps in powers: direct 1e-3 convergence of the W-ratio
        cell = triangle()
        e = CExpr(
            2,
            (
                Term.make(2, ExpVec.of([1, -1])),
                Term.make(1, ExpVec.of([2, F(-1, 2)])),
                Term.make(-1, ExpVec.of([1, 0]), (0, 1)),
            ),
        )
        rep = dominance(e, cell)
        sl = rep.sliver
        t = [float(v) for v in (sl.epsilon / 2, *box_center(sl.box))]
        base = sl.psi(t)
        vals = []
        for k in (10, 20, 30):
            pt = base + [2.0 ** -k]
            vals.append(e.eval(pt) / rep.W.eval(pt))
        assert abs(vals[-1] - vals[-2]) <= 1e-3 * abs(vals[-1])
        assert abs(vals[-1]) > 0

    def test_sliver_limit_log_gap_extrapolates(self):
        # log-only gaps converge at 1/|log y| rate; Richardson in 1/k
        e = CExpr(1, (Term.make(1, [F(-1)]), Term.make(-1, [F(-1)], [1])))
        rep = dominance(e, unit_fiber(1))
        t1 = float(rep.sliver.epsilon) / 2
        seq = []
        for k in range(10, 31):
            pt = [2.0 ** -k] if rep.sliver.nvars == 1 else None
            pt = [2.0 ** -k]
            seq.append((k, e.eval(pt) / rep.W.eval(pt)))
        (k1, v1), (k2, v2) = seq[-2], seq[-1]
        limit = (k2 * v2 - k1 * v1) / (k2 - k1)
        assert abs(limit - (-1.0)) < 1e-3
        _ = t1

    def test_limit_floor_positive(self):
        e = CExpr(1, (Term.make(3, [F(-1, 2)]),))
        rep = dominance(e, unit_fiber(1))
        assert rep.limit_floor > 0

    def test_unit_monomials_in_the_base_decay_on_the_sliver(self, monkeypatch):
        # a unit 1 + 1/2*y1^(-1)*y2 over {0<y1<1, 0<y2<y1, 0<y3<1}: the
        # sliver keeps its base monomial's pull-back decaying as t1 -> 0
        cell = cell_of(fat(ZERO, mono(1, [0, 0, 0])),
                       fat(ZERO, mono(1, [1, 0, 0])),
                       fat(ZERO, mono(1, [0, 0, 0])))
        u = PolyUnit.build(1, {ExpVec.of([-1, 1, 0]): F(1, 2)})
        e = CExpr(3, (Term.make(1, [0, 0, F(-1, 2)], unit=u),))
        margins = []

        def spy(beta, s):
            shrunk, c = shrink(beta, s)
            margins.append(c)
            return shrunk, c

        shrink = analyze.shrink_for_decay
        monkeypatch.setattr(analyze, "shrink_for_decay", spy)
        rep = dominance(e, cell)
        assert margins == [F(1, 4)]
        outer = build_sliver(cell.prefix(2)).box
        assert len(rep.sliver.box) == len(outer) == 1
        assert all(lo <= a < b <= hi
                   for (a, b), (lo, hi) in zip(rep.sliver.box, outer))
        base_monos = [ExpVec(m.exps[:2]) for _, m in u.monos]
        assert base_monos == [ExpVec.of([-1, 1])]
        for m in base_monos:
            assert form_min(pull_exponent(m), rep.sliver.box) > 0


class TestSumIntegrable:
    def test_verdict_is_and_of_terms(self):
        cell = unit_fiber(1)
        e = CExpr(1, (Term.make(1, [F(-1)]), Term.make(-1, [F(-1)], [1])))
        res = sum_integrable_last(e, cell)
        assert not res.verdict and res.per_term == (False, False)
        assert res.report is not None and res.report.rbar == -1

    def test_convergent_pair(self):
        e = CExpr(1, (Term.make(1, [F(-1, 2)]), Term.make(1, [F(-3, 4)])))
        assert sum_integrable_last(e, unit_fiber(1)).verdict

    def test_empty_sum(self):
        assert sum_integrable_last(CExpr.zero(1), unit_fiber(1)).verdict

    def test_probe_agreement(self, rng):
        disagreements = 0
        conclusive = 0
        for _ in range(60):
            cell, e = random_probe_sum(rng)
            verdict = sum_integrable_last(e, cell).verdict
            rep = divergence_probe(normalize(e), [], 1.0)
            if rep.verdict == "inconclusive":
                continue
            conclusive += 1
            if (rep.verdict == "converged") != verdict:
                disagreements += 1
        assert conclusive >= 50
        assert disagreements / conclusive <= 0.01

    def test_monotonicity_of_verdict(self, rng):
        # adding a term far above rbar never flips the verdict
        for _ in range(20):
            cell, e = random_probe_sum(rng)
            before = sum_integrable_last(e, cell).verdict
            rbar = min(t.exps[0] for t in e.terms)
            extra = Term.make(1, [rbar + F(3, 2)], [rng.randint(0, 3)])
            bumped = normalize(e + CExpr(1, (extra,)))
            if not bumped.terms:
                continue
            after = sum_integrable_last(bumped, cell).verdict
            want = before and extra.exps[0] > -1
            assert after == want


class TestIntegrableLocus:
    def test_keeps_and_discards(self):
        cube = unit_fiber(1)
        good = CExpr(1, (Term.make(1, [F(-1, 2)]),))
        bad = CExpr(1, (Term.make(1, [F(-1)]),))
        locus = integrable_locus([(cube, good), (cube, bad)])
        assert locus.kept == ((cube, good),)
        assert locus.discarded == ((cube, bad),)

    def test_whole_cell_kept(self):
        cube = unit_fiber(1)
        locus = integrable_locus([(cube, CExpr(1, (Term.make(1, [F(-1, 2)]),)))])
        assert len(locus.kept) == 1 and not locus.discarded

    def test_locus_is_union_of_input_cells(self):
        # negative design check: an integrand of the shape
        # (x1 - log x2) * x3^(-1) has a genuinely non-monomial set of
        # parameters where the fiber integral converges (it is empty here),
        # but the locus driver can only ever return unions of the input
        # cells, so no log-graph locus can arise
        cell = cell_of(
            fat(ZERO, mono(1, [0, 0, 0])),
            fat(ZERO, mono(1, [0, 0, 0])),
            fat(ZERO, mono(1, [0, 0, 0])),
        )
        e = CExpr(
            3,
            (
                Term.make(1, ExpVec.of([1, 0, -1])),
                Term.make(-1, ExpVec.of([0, 0, -1]), (0, 1, 0)),
            ),
        )
        inputs = [(cell, e)]
        locus = integrable_locus(inputs)
        for piece in locus.kept + locus.discarded:
            assert piece in inputs
        assert len(locus.kept) + len(locus.discarded) == len(inputs)


class TestMajorant:
    def test_log_bound(self):
        # |log x| < max(1, 1/x) on (0,1]; at x = e^-1: 1 < e
        e = CExpr(1, (Term.make(1, [0], [1]),))
        h = subanalytic_bound(e)
        x = math.exp(-1)
        assert abs(e.eval([x])) < h.eval([x])

    def test_constant(self):
        h = subanalytic_bound(CExpr.const(5, 1))
        assert h.eval([0.5]) == 5.0

    def test_sqrt_log_example(self):
        e = CExpr(1, (Term.make(1, [F(1, 2)], [1]),))
        h = subanalytic_bound(e)
        # h-term is x^(-1/2); at x = 1/4: |(1/2) log(1/4)| ~ 0.693 < 2
        assert h.terms[0].exps[0] == F(-1, 2)
        assert abs(e.eval([0.25])) < h.eval([0.25]) == 2.0

    def test_domination_on_samples(self, rng):
        e = CExpr(
            2,
            (
                Term.make(F(-3, 2), ExpVec.of([F(1, 2), 1]), (1, 0)),
                Term.make(2, ExpVec.of([0, F(1, 2)]), (0, 2)),
            ),
        )
        h = subanalytic_bound(e)
        for _ in range(1000):
            pt = [0.01 + 0.98 * rng.random(), 0.01 + 0.98 * rng.random()]
            ev = e.eval(pt)
            hv = h.eval(pt)
            assert abs(ev) <= hv
            if ev != 0:
                assert abs(ev) < hv


    def test_domination_with_constant_and_unit_logs(self, rng):
        # log 3, log 6 and log u are bounded by 3, 6 and the rational log
        # bound of u's range; a term's unit by its certified sup
        up = PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)})
        down = PolyUnit.build(1, {ExpVec.of([0, 1]): F(-1, 2)})
        e = CExpr(
            2,
            (
                Term.make(F(-3, 2), ExpVec.of([F(1, 2), -1]), (2, 0),
                          [(LogPrime(3), 2)]),
                Term.make(2, ExpVec.of([0, F(1, 3)]), (0, 1),
                          [(LogComposite(6, (2, 3)), 1), (LogUnitAtom(up), 1)]),
                Term.make(1, ExpVec.of([1, 1]), (1, 1),
                          [(LogUnitAtom(down), 2)], unit=up),
            ),
        )
        h = subanalytic_bound(e)
        for _ in range(1000):
            pt = [0.001 + 0.998 * rng.random(), 0.001 + 0.998 * rng.random()]
            assert h.eval(pt) >= abs(e.eval(pt))


class TestDecayRate:
    def test_worked_example(self):
        # y^(-1/3) log y at infinity, normalized: -y_d^(1/3) log y_d
        e = CExpr(1, (Term.make(-1, [F(1, 3)], [1]),))
        dr = decay_rate(e, unit_fiber(1))
        assert dr.epsilon == F(1, 12)
        assert dr.r == F(1, 8)

    def test_pure_power(self):
        e = CExpr(1, (Term.make(1, [2]),))
        dr = decay_rate(e, unit_fiber(1))
        assert dr.r == 1 and dr.report.lbar == 0

    def test_log_pair(self):
        # log y/y - 1/y at infinity: normalized -y_d log y_d - y_d
        e = CExpr(1, (Term.make(-1, [1], [1]), Term.make(-1, [1])))
        dr = decay_rate(e, unit_fiber(1))
        assert dr.report.rbar == 1 and dr.report.lbar == 1
        assert dr.r == F(3, 8)

    def test_no_decay(self):
        with pytest.raises(NoDecay):
            decay_rate(CExpr(1, (Term.make(1, [F(-1, 2)]),)), unit_fiber(1))

    def test_soundness_grid(self):
        e = CExpr(1, (Term.make(-1, [F(1, 3)], [1]),))
        dr = decay_rate(e, unit_fiber(1))
        thr = dr.threshold([])
        viols = 0
        for j in range(400):
            yd = thr * 10 ** (-8 * j / 400.0)
            if yd <= 0:
                break
            if abs(e.eval([yd])) > yd ** float(dr.r):
                viols += 1
        assert viols == 0

    def test_epsilon_capped_by_log_gaps(self):
        # a non-minimal term with a big log power must cap epsilon so its
        # weight stays above rbar - eps*lbar
        e = CExpr(
            1,
            (Term.make(1, [F(1, 2)]), Term.make(1, [F(5, 2)], [6])),
        )
        dr = decay_rate(e, unit_fiber(1))
        assert dr.epsilon <= F(2, 6)
        # soundness on a grid
        thr = dr.threshold([])
        for j in range(200):
            yd = thr * 10 ** (-6 * j / 200.0)
            assert abs(e.eval([yd])) <= yd ** float(dr.r)
