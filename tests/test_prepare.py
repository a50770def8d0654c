"""Preparation: absorption, log expansion, thin-variable elimination."""

import math
from fractions import Fraction as F

import pytest

from cfcalc.cells import RawCell, RawMono, RawVar, ZERO
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogExprAtom,
    Term,
    expand_ratios,
    is_zero,
    normalize,
)
from cfcalc.errors import FragmentEscape, NotDetermined
from cfcalc.prepare import absorb_determined, prepare_expr, substitute_thin
from tests.conftest import triangle, unit_fiber, wedge_determined


class TestAbsorbDetermined:
    def test_basic_ratio(self, rng):
        cell = wedge_determined()
        t = Term.make(1, ExpVec.of([0, 1]))
        ta = absorb_determined(t, cell)
        assert ta.exps.exps == (F(1), F(0))
        (rf,) = ta.ratios
        assert rf.exps.exps == (F(-1), F(1))
        assert (rf.lo, rf.hi) == (F(1, 2), F(1))
        for _ in range(10):
            x = 0.05 + 0.9 * rng.random()
            y = x * (0.5 + 0.499 * rng.random())
            assert abs(t.eval([x, y]) - ta.eval([x, y])) < 1e-12

    def test_square_power_interval(self):
        cell = wedge_determined()
        ta = absorb_determined(Term.make(1, ExpVec.of([0, 2])), cell)
        (rf,) = ta.ratios
        assert rf.power == 2
        # (1/2,1)^2 c (1/4,1) certifies the squared factor
        assert (rf.lo ** 2, rf.hi ** 2) == (F(1, 4), F(1))

    def test_zero_exponent_is_identity(self):
        cell = wedge_determined()
        t = Term.make(1, ExpVec.of([3, 0]))
        assert absorb_determined(t, cell) == t

    def test_requires_determined(self):
        with pytest.raises(NotDetermined):
            absorb_determined(Term.make(1, ExpVec.of([0, 1])), triangle())


class TestPrepareExpr:
    def test_log_power_rule(self):
        cell = unit_fiber(1)
        arg = CExpr(1, (Term.make(1, [2]),))
        e = CExpr(1, (Term.make(1, [0], extras=[(LogExprAtom(arg), 1)]),))
        (p,) = prepare_expr(e, cell)
        assert [(t.coeff, t.logpows) for t in p.terms.terms] == [(F(2), (1,))]

    def test_binomial_log_expansion(self, rng):
        cell = triangle()
        arg = CExpr(2, (Term.make(1, [1, 1]),))
        e = CExpr(2, (Term.make(1, ExpVec.zero(2), extras=[(LogExprAtom(arg), 2)]),))
        (p,) = prepare_expr(e, cell)
        assert sorted(t.logpows for t in p.terms.terms) == [(0, 2), (1, 1), (2, 0)]
        for _ in range(5):
            x = 0.1 + 0.8 * rng.random()
            y = x * (0.05 + 0.9 * rng.random())
            want = math.log(x * y) ** 2
            assert abs(p.terms.eval([x, y]) - want) < 1e-10 * max(1, want)

    def test_constant_coefficient_log(self):
        cell = unit_fiber(1)
        arg = CExpr(1, (Term.make(4, [F(1, 2)]),))
        e = CExpr(1, (Term.make(1, [0], extras=[(LogExprAtom(arg), 1)]),))
        (p,) = prepare_expr(e, cell)
        # two terms with distinct signatures: (l=0 prime part) and (l=1)
        assert len(p.terms.terms) == 2
        val = p.terms.eval([0.25])
        assert abs(val - math.log(4 * 0.5)) < 1e-12

    def test_cancelling_composite_logs_merge_first(self):
        # log(-y1) - log(-y1) + 1: the pair cancels before its (invalid)
        # argument is prepared
        cell = unit_fiber(1)
        arg = CExpr(1, (Term.make(-1, [1]),))
        e = CExpr(1, tuple(
            Term.make(c, [0], extras=[(LogExprAtom(arg), 1)]) for c in (1, -1)
        ) + (Term.make(1, [0]),))
        (p,) = prepare_expr(e, cell)
        assert p.terms == CExpr.const(1, 1)

    def test_idempotent(self):
        cell = triangle()
        arg = CExpr(2, (Term.make(1, [1, 0]), Term.make(F(1, 2), [1, 1])))
        e = CExpr(2, (Term.make(1, ExpVec.zero(2), extras=[(LogExprAtom(arg), 1)]),))
        (p,) = prepare_expr(e, cell)
        (p2,) = prepare_expr(p.terms, cell)
        assert p2.terms == p.terms
        assert p2.cell == p.cell

    def test_value_preservation(self, rng):
        cell = triangle()
        arg = CExpr(2, (Term.make(1, [1, 0]), Term.make(F(1, 2), [1, 1])))
        e = CExpr(
            2,
            (
                Term.make(F(3, 2), ExpVec.of([F(1, 2), 0]),
                          extras=[(LogExprAtom(arg), 1)]),
                Term.make(-1, ExpVec.of([0, F(1, 2)])),
            ),
        )
        (p,) = prepare_expr(e, cell)
        for _ in range(100):
            x = 0.05 + 0.9 * rng.random()
            y = x * (0.02 + 0.96 * rng.random())
            a, b = e.eval([x, y]), p.terms.eval([x, y])
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_support_moved_into_J(self):
        cell = wedge_determined()
        e = CExpr(2, (Term.make(1, ExpVec.of([0, F(3, 2)])),))
        (p,) = prepare_expr(e, cell)
        p.check()
        assert p.J == (0,)
        (t,) = p.terms.terms
        assert t.exps.support <= {0}
        assert t.ratios
        # folding the ratios back reproduces the original value
        folded = expand_ratios(p.terms)
        assert is_zero(normalize(folded - normalize(e)))

    def test_log_of_determined_variable_rejected(self):
        cell = wedge_determined()
        e = CExpr(2, (Term.make(1, ExpVec.zero(2), [0, 1]),))
        with pytest.raises(FragmentEscape):
            prepare_expr(e, cell)


class TestSubstituteThin:
    def test_graph_substitution(self):
        raw = RawCell(
            (
                RawVar("x1", ZERO, RawMono.const(1, 2)),
                RawVar("x2", ZERO, RawMono.const(1, 2),
                       thin=RawMono(F(1, 2), ExpVec.of([1, 0]))),
            )
        )
        e = CExpr(2, (Term.make(1, ExpVec.of([1, 2])),))
        new_raw, new_e = substitute_thin(raw, e)
        assert new_raw.nvars == 1
        # x1 * (x1/2)^2 = x1^3/4
        assert [(t.coeff, t.exps.exps) for t in new_e.terms] == [(F(1, 4), (F(3),))]

    def test_thin_log(self):
        raw = RawCell(
            (
                RawVar("x1", ZERO, RawMono.const(1, 2)),
                RawVar("x2", ZERO, RawMono.const(1, 2),
                       thin=RawMono(F(2), ExpVec.of([1, 0]))),
            )
        )
        e = CExpr(2, (Term.make(1, ExpVec.zero(2), [0, 1]),))
        _, new_e = substitute_thin(raw, e)
        val = new_e.eval([0.3])
        assert abs(val - math.log(2 * 0.3)) < 1e-12
