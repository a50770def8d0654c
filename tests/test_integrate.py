"""Symbolic integration: antiderivatives, splitting, drivers."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcalc import cli
from cfcalc.cells import MonomialBound, ZERO
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogUnitAtom,
    PolyUnit,
    Term,
    differentiate_expr,
    expand_log_power,
    is_zero,
    log_of_monomial_unit,
    normalize,
)
from cfcalc.errors import BoundUnitUnsupported, FragmentEscape, NotIntegrable
from cfcalc.generators import random_integrable_instance
from cfcalc.integrate import (
    antiderivative_pow_log,
    antiderivative_pow_log_recursive,
    build_sform,
    integrate_fubini,
    integrate_last,
    integrate_sform,
    integrate_term_last,
)
from cfcalc.oracle import fiber_bounds, quadrature_last
from cfcalc.parser import print_expr
from tests.conftest import cell_of, fat, mono, parabola_wedge, triangle, unit_fiber


class TestAntiderivatives:
    def test_log_slot(self):
        a = antiderivative_pow_log(-1, 1)
        assert [(t.coeff, t.logpows) for t in a.terms] == [(F(1, 2), (2,))]

    def test_plain_power(self):
        a = antiderivative_pow_log(1, 0)
        assert [(t.coeff, t.exps.exps) for t in a.terms] == [(F(1, 2), (F(2),))]

    def test_half_power_with_log(self):
        # 2 y^(1/2) log y - 4 y^(1/2); definite integral over (0,1) is -4
        a = antiderivative_pow_log(F(-1, 2), 1)
        at1 = a.eval_exact([F(1)])
        assert at1 == -4
        num, _ = quadrature_last(
            CExpr(1, (Term.make(1, [F(-1, 2)], [1]),)), [], 0.0, 1.0
        )
        assert abs(num - float(at1)) < 1e-8

    def test_routes_agree_and_differentiate_back(self):
        rs = [F(k, 2) for k in range(-6, 7) if F(k, 2) != -1]
        for r in rs:
            for s in range(5):
                closed = antiderivative_pow_log(r, s)
                rec = antiderivative_pow_log_recursive(r, s)
                assert is_zero(normalize(closed - rec))
                back = differentiate_expr(closed, 0)
                target = CExpr(1, (Term.make(1, [r], [s]),))
                assert is_zero(normalize(back - target))


class TestChangeOfVariables:
    def test_jacobian_consistency_random(self, rng):
        # build_sform clears exponent denominators by y = z^p with the
        # Jacobian p z^(p-1); the exact integral over (0, 1) must match
        # quadrature of the original integrand
        cell = unit_fiber(1)
        ps = set()
        for _ in range(50):
            den = rng.randint(1, 3)
            r = F(rng.randint(1 - den, 4 * den), den)
            s = rng.randint(0, 2)
            term = Term.make(F(rng.randint(1, 3)), [r], [s])
            ps.add(build_sform(term).p)
            exact = integrate_term_last(term, cell).eval_exact([])
            num, _ = quadrature_last(CExpr(1, (term,)), [], 0.0, 1.0)
            assert abs(num - float(exact)) <= 1e-8 * max(1.0, abs(num))
        assert {1, 2, 3} <= ps


class TestSFormAndIntegration:
    def test_sform_shape(self):
        sf = build_sform(Term.make(1, [F(-1, 2)], [1]))
        assert sf.p == 2 and sf.logpow == 1
        assert not sf.laurent
        assert sf.analytic == ((0, CExpr(0, (Term.make(4, ()),))),)

    def test_sform_zero_lower_needs_no_laurent(self):
        cell = unit_fiber(1)
        sf = build_sform(Term.make(1, [F(-3, 2)]))
        assert sf.laurent
        with pytest.raises(NotIntegrable):
            integrate_sform(sf, ZERO, cell.specs[0].upper)

    def test_bound_unit_unsupported(self):
        sf = build_sform(Term.make(1, [1]))
        u = PolyUnit.build(1, {ExpVec.of([1]): F(1, 2)})
        with pytest.raises(BoundUnitUnsupported):
            integrate_sform(sf, ZERO, MonomialBound(F(1, 2), ExpVec.of([0]), u))

    def test_cancelling_terms_merge_before_integration(self):
        # y1^(-1) - y1^(-1) + 1 as three terms: the non-integrable pair
        # cancels, so the sum integrates to 1 over {0<y1<1}
        cell = unit_fiber(1)
        e = CExpr(1, (Term.make(1, [-1]), Term.make(-1, [-1]), Term.make(1, [0])))
        assert integrate_last(e, cell) == CExpr.const(1, 0)
        assert integrate_fubini([(cell, e)], 1).constant() == 1

    def test_fibers_over_one_base_cell_are_summed(self):
        # two pieces on one cell share its base: the Fubini merge adds both
        # integrals (a base cell with a single fiber keeps its integral)
        cube = unit_fiber(2)
        a = CExpr(2, (Term.make(1, [0, 1]), Term.make(2, [1, 0], [0, 1])))
        b = CExpr(2, (Term.make(3, [1, 0]),))
        (_, merged), = integrate_fubini([(cube, a), (cube, b)], 1).pieces
        assert merged == integrate_last(a + b, cube)
        assert print_expr(merged, ["y1"]) == "1/2 + y1"

    def test_trivial_constant(self):
        cell = triangle()
        out = integrate_last(CExpr.const(1, 2), cell)
        assert [(t.coeff, t.exps.exps) for t in out.terms] == [(F(1), (F(1),))]

    def test_log_integral(self):
        cell = triangle()
        out = integrate_last(CExpr(2, (Term.make(1, [0, 0], [0, 1]),)), cell)
        got = sorted((t.coeff, t.logpows) for t in out.terms)
        assert got == [(F(-1), (0,)), (F(1), (1,))]

    def test_between_monomial_bounds(self):
        out = integrate_last(
            CExpr(2, (Term.make(1, [0, F(-1, 2)]),)), parabola_wedge()
        )
        got = sorted((t.coeff, t.exps.exps) for t in out.terms)
        assert got == [(F(-2), (F(1),)), (F(2), (F(1, 2),))]

    def test_laurent_cross_terms(self):
        # y^-1 log y over (x^2, x): -3/2 (log x)^2
        out = integrate_last(
            CExpr(2, (Term.make(1, [0, -1], [0, 1]),)), parabola_wedge()
        )
        assert [(t.coeff, t.logpows) for t in out.terms] == [(F(-3, 2), (2,))]

    def test_unit_distributes(self):
        u = PolyUnit.build(1, {ExpVec.of([0, 1]): F(1, 2)})
        e = CExpr(2, (Term.make(1, [0, 0], unit=u),))
        out = integrate_last(e, triangle())
        # int (1 + y/2) dy over (0, x) = x + x^2/4
        got = sorted((t.coeff, t.exps.exps) for t in out.terms)
        assert got == [(F(1, 4), (F(2),)), (F(1), (F(1),))]

    def test_not_integrable(self):
        with pytest.raises(NotIntegrable):
            integrate_last(CExpr(2, (Term.make(1, [0, -1]),)), triangle())

    def test_unit_log_on_last_var_escapes(self):
        # integrate_last runs no integrability gate of its own; build_sform
        # still refuses an opaque atom that involves the integration variable
        u = PolyUnit.build(1, {ExpVec.of([0, 1]): F(1, 2)})
        t = Term.make(1, [0, 0], extras=[(LogUnitAtom(u), 1)])
        with pytest.raises(FragmentEscape):
            integrate_last(CExpr(2, (t,)), triangle())

    def test_output_is_structurally_valid(self, rng):
        for _ in range(25):
            cell, e = random_integrable_instance(rng, rng.choice([1, 2, 3]))
            out = integrate_last(e, cell)
            assert out.nvars == cell.nvars - 1
            assert normalize(out) == out
            cell.drop_last().validate()

    def test_oracle_equivalence(self, rng):
        checked = 0
        for _ in range(40):
            cell, e = random_integrable_instance(rng, rng.choice([1, 2]))
            out = integrate_last(e, cell)
            base = cell.drop_last()
            for _ in range(3):
                pt = base.sample_point(rng) if base.nvars else []
                lo, hi = fiber_bounds(cell, pt)
                num, err = quadrature_last(e, pt, lo, hi, tol=1e-10)
                sym = out.eval(pt)
                assert abs(num - sym) <= max(1e-8, 1e-8 * abs(sym)) + 10 * err
                checked += 1
        assert checked >= 100


class TestFubini:
    def test_triangle_area(self):
        res = integrate_fubini([(triangle(), CExpr.const(1, 2))], 2)
        assert res.constant() == F(1, 2)

    def test_triangle_sqrt(self):
        e = CExpr(2, (Term.make(1, [0, F(-1, 2)]),))
        res = integrate_fubini([(triangle(), e)], 2)
        assert res.constant() == F(4, 3)

    def test_loglog_square(self):
        e = CExpr(2, (Term.make(1, [0, 0], [1, 1]),))
        res = integrate_fubini([(unit_fiber(2), e)], 2)
        assert res.constant() == 1

    def test_order_independence(self, rng):
        # product cells: swapping the two variables must not change the value
        for _ in range(25):
            q1 = F(rng.choice([1, 1, 1]), rng.choice([1, 4]))
            q2 = F(1, rng.choice([1, 4]))
            cell = cell_of(
                fat(ZERO, mono(q1, [0, 0])), fat(ZERO, mono(q2, [0, 0]))
            )
            cell_swapped = cell_of(
                fat(ZERO, mono(q2, [0, 0])), fat(ZERO, mono(q1, [0, 0]))
            )
            terms = []
            sigs = set()
            for _ in range(rng.randint(1, 3)):
                r1 = F(rng.randint(0, 4), 2)
                r2 = F(rng.randint(0, 4), 2)
                s1, s2 = rng.randint(0, 2), rng.randint(0, 2)
                if (r1, r2, s1, s2) in sigs:
                    continue
                sigs.add((r1, r2, s1, s2))
                terms.append(
                    Term.make(F(rng.randint(1, 3)), ExpVec.of([r1, r2]), (s1, s2))
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
            a = integrate_fubini([(cell, e)], 2)
            b = integrate_fubini([(cell_swapped, swapped)], 2)
            diff = normalize(a.value() - b.value())
            assert is_zero(diff)

    def test_gating_discards_bad_cells(self):
        cube = unit_fiber(1)
        good = CExpr(1, (Term.make(1, [F(-1, 2)]),))
        bad = CExpr(1, (Term.make(1, [F(-1)]),))
        res = integrate_fubini([(cube, good), (cube, bad)], 1, hypothesis="dense")
        assert res.assumptions
        (cell0, val), = res.pieces
        assert val.eval_exact([]) == 2


class TestLinearAccumulation:
    """integrate_last builds each sum once and shares fiber slabs between
    terms; neither may change a printed result."""

    def test_terms_validated_stay_linear(self, monkeypatch, capsys):
        # log(30030*y1)^8 prepares to C(8+6, 6) = 3003 terms.  Adding sums
        # step by step re-validates the growing tuple (4.6e6 terms checked);
        # building each sum once checks about 23 per output term.
        checked = [0]
        post_init = CExpr.__post_init__

        def counting(self):
            checked[0] += len(self.terms)
            post_init(self)

        monkeypatch.setattr(CExpr, "__post_init__", counting)
        assert cli.main(["integrate", "log(30030*y1)^8 on {0<y1<1}"]) == 0
        assert capsys.readouterr().out.strip()
        assert checked[0] <= 30 * 3003

    def test_canonical_terms_are_not_rebuilt(self, monkeypatch, capsys):
        # the 3003 prepared terms are built once by the parser; identity
        # cell maps, the unit Jacobian, build_sform and the slab products
        # reuse canonical parts instead of rebuilding each term through
        # Term.make (12,106 terms built, all through Term.make, before)
        built = [0]
        made = [0]
        post_init = Term.__post_init__
        make = Term.make

        def counting_post_init(self):
            built[0] += 1
            post_init(self)

        def counting_make(*args, **kwargs):
            made[0] += 1
            return make(*args, **kwargs)

        monkeypatch.setattr(Term, "__post_init__", counting_post_init)
        monkeypatch.setattr(Term, "make", staticmethod(counting_make))
        assert cli.main(["integrate", "log(30030*y1)^8 on {0<y1<1}"]) == 0
        out = capsys.readouterr().out
        assert out.count(" + ") + out.count(" - ") + 1 == 3003
        assert built[0] <= 10_000
        assert made[0] <= 4_000

    def test_normalized_sum_is_returned_unchanged(self):
        # normalize marks its result and gives a marked sum back as it is
        y = ExpVec.unit(1, 0)
        items = log_of_monomial_unit(F(30030), y, PolyUnit.one())
        e = CExpr(1, tuple(
            Term.make(c, y, lp, ex) for c, lp, ex in expand_log_power(items, 8, 1)
        ))
        n = normalize(e)
        assert len(n.terms) == 3003
        assert normalize(n) is n

    def test_float_conversions_made_once_per_expression(self, monkeypatch, capsys):
        # validate evaluates each sum at thousands of quadrature nodes; the
        # cached float plans convert its Fractions once, not at every node
        # (86,190 conversions when every evaluation converted)
        converted = [0]
        to_float = F.__float__

        def counting(self):
            converted[0] += 1
            return to_float(self)

        monkeypatch.setattr(F, "__float__", counting)
        assert cli.main(["validate", "--seed", "7"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
        assert converted[0] <= 2000

    @staticmethod
    def _per_term_reference(e, cell):
        # a fresh slab memo for every term
        terms = []
        for t in normalize(e).terms:
            terms.extend(integrate_term_last(t, cell).terms)
        return normalize(CExpr(cell.nvars - 1, tuple(terms)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2, 3]))
    def test_memo_matches_per_term_on_generated(self, seed, nvars):
        cell, e = random_integrable_instance(random.Random(seed), nvars)
        names = [f"y{i + 1}" for i in range(nvars - 1)]
        assert print_expr(integrate_last(e, cell), names) == print_expr(
            self._per_term_reference(e, cell), names
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([F(0), F(1, 2), F(-1, 2), F(2)]),
        st.sampled_from([F(1), F(1, 4)]),
        st.booleans(),
    )
    def test_memo_matches_per_term_on_log_powers(self, primes, k, a, q, two_vars):
        # y^a * log(P*y)^k on the last fiber of {0<y<q} or {0<x<1, 0<y<q*x}
        nv = 2 if two_vars else 1
        cell = (
            cell_of(fat(ZERO, mono(1, [0, 0])), fat(ZERO, mono(q, [1, 0])))
            if two_vars
            else cell_of(fat(ZERO, mono(q, [0])))
        )
        y = ExpVec.unit(nv, nv - 1)
        items = log_of_monomial_unit(F(math.prod(primes)), y, PolyUnit.one())
        e = CExpr(
            nv,
            tuple(
                Term.make(c, y.scale(a), lp, ex)
                for c, lp, ex in expand_log_power(items, k, nv)
            ),
        )
        names = ["y1"][: nv - 1]
        assert print_expr(integrate_last(e, cell), names) == print_expr(
            self._per_term_reference(e, cell), names
        )
