"""Preparation: two-center comparison, absorption, recentering, log expansion."""

import math
from fractions import Fraction as F

import pytest

from cfcalc.cells import (
    INF,
    MonomialBound,
    RawCell,
    RawMono,
    RawVar,
    ZERO,
    classify,
    compose_with_map,
    normalize_cell,
)
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogExprAtom,
    PolyUnit,
    Term,
    expand_ratios,
    is_zero,
    normalize,
)
from cfcalc.errors import (
    EqualCenters,
    FragmentEscape,
    InconsistentOrientation,
    NotCase2,
    NotDetermined,
)
from cfcalc.prepare import (
    absorb_determined,
    compare_centers,
    pieces_cover,
    prepare_expr,
    recenter_case2,
    substitute_thin,
)
from tests.conftest import cell_of, fat, mono, triangle, unit_fiber, wedge_determined


def const_fiber(p, q):
    return RawCell((RawVar("y", RawMono.const(F(p), 1), RawMono.const(F(q), 1)),))


class TestCompareCenters:
    def test_outer_fiber_is_case_iii(self):
        pieces = compare_centers(F(1), F(0), const_fiber(2, 3))
        assert [p.case for p in pieces] == ["iii"]
        (p,) = pieces
        # exact inf of |y - 1| on (2,3) is 1, above the 2/3 threshold
        assert p.gap_lower == 1
        assert p.gap_lower > F(2, 3)
        assert pieces_cover(pieces, F(2), F(3))

    def test_near_center_fiber_is_case_ii(self):
        pieces = compare_centers(F(1), F(0), const_fiber(F(9, 10), F(11, 10)))
        assert all(p.case == "ii" for p in pieces)
        # the graph y = 1 splits the fiber
        assert len(pieces) == 2
        assert pieces_cover(pieces, F(9, 10), F(11, 10), excluded=[F(1)])
        for p in pieces:
            assert 0 < p.bracket_lo <= p.bracket_hi

    def test_equal_centers(self):
        with pytest.raises(EqualCenters):
            compare_centers(F(1), F(1), const_fiber(2, 3))

    def test_wide_fiber_covered(self):
        pieces = compare_centers(F(1), F(0), const_fiber(-3, 4))
        assert pieces_cover(pieces, F(-3), F(4), excluded=[F(0), F(1)])
        # every piece's bracket identity holds numerically at the midpoint
        for p in pieces:
            y = (float(p.lo) + float(p.hi)) / 2
            c, o = float(p.center), float(p.other)
            if p.case == "iii":
                bracket = 1 + (c - o) / (y - c)
                assert abs((y - o) - (y - c) * bracket) < 1e-12
            else:
                bracket = 1 + (y - c) / (c - o)
                assert abs((y - o) - (c - o) * bracket) < 1e-12
            assert float(p.bracket_lo) - 1e-12 <= bracket <= float(p.bracket_hi) + 1e-12

    def test_monomial_fiber_rejected(self):
        raw = RawCell(
            (
                RawVar("x", ZERO, RawMono.const(1, 2)),
                RawVar("y", ZERO, RawMono(F(1), ExpVec.of([1, 0]))),
            )
        )
        with pytest.raises(FragmentEscape):
            compare_centers(F(1), F(0), raw)


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


class TestRecenterCase2:
    def test_constant_shift(self):
        cell = cell_of(
            fat(ZERO, mono(1, [0, 0])),
            fat(mono(F(1, 2), [0, 0]), mono(F(3, 4), [0, 0])),
        )
        nc, shift, steps = recenter_case2(cell)
        assert shift == F(1, 2)
        spec = nc.fat(1)
        assert isinstance(spec.lower, type(ZERO))
        assert spec.upper.coeff == F(1, 4) and spec.upper.exps.is_zero()
        # endpoint mapping: old = new + 1/2
        e = CExpr(2, (Term.make(1, ExpVec.of([0, 1])),))
        moved = compose_with_map(e, steps)
        assert abs(moved.eval([0.5, 0.1]) - 0.6) < 1e-12

    def test_lower_zero_rejected(self):
        with pytest.raises(NotCase2):
            recenter_case2(triangle())

    def test_variable_width_shift(self):
        # {1/2 < y2 < 1/2 + y1/4} -> {0 < y2' < y1/4}, now unconstrained
        upper = MonomialBound(
            F(1, 2), ExpVec.of([0, 0]),
            PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)}),
        )
        cell = cell_of(
            fat(ZERO, mono(1, [0, 0])),
            fat(mono(F(1, 2), [0, 0]), upper),
        )
        nc, shift, _ = recenter_case2(cell)
        assert shift == F(1, 2)
        spec = nc.fat(1)
        assert spec.upper.coeff == F(1, 4)
        assert spec.upper.exps.exps == (F(1), F(0))
        cls = classify(nc)
        assert not cls.constrained[1] and not cls.determined[1]


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


def test_unbounded_fiber_never_gets_nonzero_center():
    raw = RawCell((RawVar("x1", RawMono.const(2, 1), INF, center=F(2)),))
    with pytest.raises(InconsistentOrientation):
        normalize_cell(raw)


class TestPrepareShiftedLog:
    def _check_pieces(self, raw, theta2, power, rng):
        from cfcalc.cells import map_point
        from cfcalc.prepare import prepare_shifted_log

        pieces = prepare_shifted_log(raw, theta2, power)
        assert pieces
        for norm, expansion in pieces:
            spec = norm.cell.fat(raw.nvars - 1)
            lo = 0.0 if isinstance(spec.lower, type(ZERO)) else float(spec.lower.coeff)
            for _ in range(20):
                z = [lo + (1 - lo) * (0.03 + 0.94 * rng.random())]
                y = float(map_point(norm.steps, [F(z[0]).limit_denominator(10 ** 6)])[0])
                want = math.log(abs(y - float(theta2))) ** power
                got = expansion.eval(z)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
        return pieces

    def test_outer_piece_direct_center(self, rng):
        raw = RawCell(
            (RawVar("y", RawMono.const(2, 1), RawMono.const(3, 1), center=F(1)),)
        )
        pieces = self._check_pieces(raw, F(0), 1, rng)
        assert len(pieces) == 1

    def test_near_pieces_bracket_units(self, rng):
        raw = RawCell(
            (
                RawVar(
                    "y", RawMono.const(F(9, 10), 1), RawMono.const(F(11, 10), 1),
                    center=F(1),
                ),
            )
        )
        pieces = self._check_pieces(raw, F(0), 2, rng)
        assert len(pieces) == 2
        # the case-ii expansions carry an opaque bracket-unit log
        assert any(
            any(t.extras for t in expansion.terms) for _, expansion in pieces
        )

    def test_wide_fiber_all_regions(self, rng):
        raw = RawCell(
            (RawVar("y", RawMono.const(F(-3), 1), RawMono.const(F(4), 1), center=F(1)),)
        )
        pieces = self._check_pieces(raw, F(0), 1, rng)
        assert len(pieces) >= 4
