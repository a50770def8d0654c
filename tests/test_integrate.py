"""Symbolic integration: antiderivatives, splitting, drivers."""

import contextlib
import io
import math
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcalc import cli, core, integrate, parser
from cfcalc.cells import MonomialBound, ZERO, Zero
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
    prime_form,
)
from cfcalc.errors import (
    BoundUnitUnsupported,
    CalcError,
    FragmentEscape,
    NotIntegrable,
)
from cfcalc.generators import random_integrable_instance
from cfcalc.integrate import (
    antiderivative_pow_log,
    antiderivative_pow_log_recursive,
    build_sform,
    _anti_pieces,
    _eval_antider_at_bound,
    integrate_fubini,
    integrate_last,
    integrate_shape,
    _SHAPE_TABLE_SIZE,
)
from cfcalc.oracle import fiber_bounds, quadrature_last
from cfcalc.parser import parse, print_expr
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

    @pytest.mark.parametrize(
        "route", [antiderivative_pow_log, antiderivative_pow_log_recursive])
    def test_negative_log_power_is_refused(self, route):
        with pytest.raises(ValueError, match="nonnegative"):
            route(F(1, 2), -1)


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
            exact = integrate_last(CExpr(1, (term,)), cell).eval_exact([])
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
            integrate_shape(F(-3, 2), 0, 1, ZERO, cell.specs[0].upper)

    def test_bound_unit_unsupported(self):
        u = PolyUnit.build(1, {ExpVec.of([1]): F(1, 2)})
        with pytest.raises(BoundUnitUnsupported):
            integrate_shape(
                F(1), 0, 1, ZERO, MonomialBound(F(1, 2), ExpVec.of([0]), u)
            )

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
        with pytest.raises(NotIntegrable, match=(
            r"^round 1: 1 cell\(s\) fail fiberwise integrability$"
        )):
            integrate_fubini([(cube, good), (cube, bad)], 1)
        (cell0, val), = integrate_fubini([(cube, good)], 1).pieces
        assert val.eval_exact([]) == 2


# ---------------------------------------------------------------------------
# The per-term route that integrate_last replaced, kept as a reference: every
# term builds its own claim form and evaluates each of its slabs at the bounds
# ---------------------------------------------------------------------------


def _integrate_sform_reference(sf, lower, upper):
    base_nv = sf.nvars - 1
    if isinstance(lower, Zero) and sf.laurent:
        raise NotIntegrable("Laurent part with a zero lower endpoint")
    if not upper.unit.is_trivial or (
        isinstance(lower, MonomialBound) and not lower.unit.is_trivial
    ):
        raise BoundUnitUnsupported(
            "symbolic bound evaluation needs a trivial unit part"
        )
    terms = []
    slabs = [(-i, coeff) for i, coeff in sf.laurent] + list(sf.analytic)
    for zpow, coeff_expr in slabs:
        pieces = _anti_pieces(F(zpow), sf.logpow)
        up = _eval_antider_at_bound(pieces, upper, sf.p, base_nv)
        lo = _eval_antider_at_bound(pieces, lower, sf.p, base_nv)
        terms.extend((coeff_expr * (up - lo)).terms)
    return CExpr(base_nv, tuple(terms))


def _per_term_reference(e, cell):
    pos = cell.nvars - 1
    spec = cell.specs[pos]
    terms = []
    for t in normalize(e).terms:
        if isinstance(spec.lower, Zero) and t.exps[pos] <= -1:
            raise NotIntegrable(
                f"exponent {t.exps[pos]} <= -1 over an unconstrained fiber"
            )
        sf = build_sform(t)
        terms.extend(_integrate_sform_reference(sf, spec.lower, spec.upper).terms)
    return normalize(CExpr(pos, tuple(terms)))


def _outcome(route, e, cell):
    """The printed integral, or the refusal's class and message."""
    try:
        out = route(e, cell)
    except CalcError as exc:
        return type(exc), str(exc)
    return print_expr(out, [f"y{i + 1}" for i in range(cell.nvars - 1)])


@st.composite
def _shared_shape_instances(draw):
    """A 1-3 variable chain cell and a sum of y^alpha * log(P*y^gamma)^k
    blocks, some times a polynomial unit, whose expanded terms share fiber
    shapes y_last^r log(y_last)^s within and across blocks."""
    nv = draw(st.integers(min_value=1, max_value=3))
    specs = []
    for i in range(nv):
        beta = [draw(st.integers(0, 2)) if j < i else 0 for j in range(nv)]
        hi = draw(st.sampled_from([F(1), F(1, 4), F(1, 2)]))
        upper = mono(hi, beta)
        if draw(st.booleans()):
            lower = ZERO
        else:
            # a positive monomial lower bound below the upper one
            lower = mono(hi * draw(st.sampled_from([F(1, 4), F(1, 16)])), [
                b + draw(st.integers(0, 1)) if j < i else 0
                for j, b in enumerate(beta)
            ])
        specs.append(fat(lower, upper))
    cell = cell_of(*specs)
    last = ExpVec.unit(nv, nv - 1)
    exponents = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(-1, 2), F(1, 3),
                                 F(-1), F(-3, 2), F(-2), F(-5, 2)])
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        alpha = ExpVec.of(
            [draw(st.sampled_from([F(0), F(1), F(1, 2)])) for _ in range(nv - 1)]
            + [draw(exponents)]
        )
        gamma = ExpVec.of(
            [draw(st.integers(0, 1)) for _ in range(nv - 1)]
            + [draw(st.sampled_from([1, 2]))]
        )
        prime_product = draw(st.sampled_from([2, 6, 30, 1]))
        items = log_of_monomial_unit(F(prime_product), gamma, PolyUnit.one())
        unit = PolyUnit.one()
        if draw(st.booleans()):
            unit = PolyUnit.build(1, {
                ExpVec.unit(nv, draw(st.integers(0, nv - 1))): F(1, 2),
                last.scale(2): F(-1, 3),
            })
        for c, lp, ex in expand_log_power(items, draw(st.integers(0, 4)), nv):
            terms.append(Term.make(c, alpha, lp, ex, unit=unit))
    return cell, CExpr(nv, tuple(terms))


# y^(-5/2) * (1 + y/2 - y^2/3) on {1/8 < y < 1/2}: the pieces y^(-5/2) and
# y^(-3/2) both need an irrational power of 1/2, and the claim form
# evaluates the z^-1 slab of y^(-3/2) first, so that refusal is reported
_UNIT_PIECES_BOTH_IRRATIONAL = (
    cell_of(fat(mono(F(1, 8), [0]), mono(F(1, 2), [0]))),
    CExpr(1, (Term.make(1, [F(-5, 2)], unit=PolyUnit.build(
        1, {ExpVec.of([1]): F(1, 2), ExpVec.of([2]): F(-1, 3)}
    )),)),
)


class TestLinearAccumulation:
    """integrate_last builds each sum once and integrates each fiber shape
    once; neither may change a printed result."""

    def test_terms_validated_stay_linear(self, monkeypatch, capsys):
        # log(30030*y1)^8 prepares to C(8+6, 6) = 3003 terms.  Adding sums
        # step by step re-validates the growing tuple (4.6e6 terms checked);
        # building each sum once checks about 23 per output term.
        checked = [0]
        init = CExpr.__init__

        def counting(self, *args):
            init(self, *args)
            checked[0] += len(self.terms)

        monkeypatch.setattr(CExpr, "__init__", counting)
        assert cli.main(["integrate", "log(30030*y1)^8 on {0<y1<1}"]) == 0
        assert capsys.readouterr().out.strip()
        assert checked[0] <= 30 * 3003

    def test_canonical_terms_are_not_rebuilt(self, monkeypatch, capsys):
        # log 30030 is one atom, so the parser builds 9 terms, not 3003;
        # identity cell maps, the unit Jacobian, build_sform and the slab
        # products reuse canonical parts instead of rebuilding each term
        # through Term.make (12,106 terms built, all through Term.make,
        # before), and the printer builds no prime-form term.  129 built and
        # 102 made with a cold shape table; the bounds leave about half again
        built = [0]
        made = [0]
        init = Term.__init__
        make = Term.make

        def counting_init(self, *args):
            built[0] += 1
            init(self, *args)

        def counting_make(*args, **kwargs):
            made[0] += 1
            return make(*args, **kwargs)

        monkeypatch.setattr(Term, "__init__", counting_init)
        monkeypatch.setattr(Term, "make", staticmethod(counting_make))
        assert cli.main(["integrate", "log(30030*y1)^8 on {0<y1<1}"]) == 0
        out = capsys.readouterr().out
        assert out.count(" + ") + out.count(" - ") + 1 == 3003
        assert built[0] <= 200
        assert made[0] <= 150

    def test_one_term_per_product_of_piece_and_shape_term(self, monkeypatch, capsys):
        # integrate_last multiplies each piece's base straight into the terms
        # of its shape's integral, with no base Term of its own, and merges
        # the prime logs of both sides in one pass (9,120 terms built when
        # each piece built its base first, 3,131 while the printer built the
        # 3003 prime-form terms; 129 now with a cold shape table)
        built = [0]
        init = Term.__init__

        def counting(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(Term, "__init__", counting)
        assert cli.main(["integrate", "log(30030*y1)^8 on {0<y1<1}"]) == 0
        assert capsys.readouterr().out.strip()
        assert built[0] <= 200

    def test_printing_over_primes_builds_no_terms(self, monkeypatch):
        # the 9-term base forms of log(30030*y1)^8 and of its integral print
        # their 3003 terms over primes straight from the base terms: no Term,
        # no CExpr and no call of _over_primes (the integral's 9 terms share
        # their monomial, so their rows are merged by sorting, not expanded)
        y = ExpVec.unit(1, 0)
        items = log_of_monomial_unit(F(30030), y, PolyUnit.one())
        n = normalize(CExpr(1, tuple(
            Term.make(c, y, lp, ex) for c, lp, ex in expand_log_power(items, 8, 1)
        )))
        integral = integrate_fubini([(unit_fiber(1), n)], 1).value()
        assert len(integral.terms) == 9
        expected = [print_expr(prime_form(n), ["y1"]), print_expr(prime_form(integral), [])]
        built = [0]
        term_init, expr_init = Term.__init__, CExpr.__init__

        def counting(init):
            def counted(self, *args):
                built[0] += 1
                init(self, *args)
            return counted

        def over_primes(*args):
            raise AssertionError("the printer wrote a term through _over_primes")

        monkeypatch.setattr(Term, "__init__", counting(term_init))
        monkeypatch.setattr(CExpr, "__init__", counting(expr_init))
        monkeypatch.setattr(core, "_over_primes", over_primes)
        monkeypatch.setattr(parser, "_over_primes", over_primes)
        assert [print_expr(n, ["y1"]), print_expr(integral, [])] == expected
        assert built[0] == 0
        for text in expected:
            assert text.count(" + ") + text.count(" - ") + 1 == 3003

    def test_normalized_sum_is_returned_unchanged(self):
        # normalize marks its result and gives a marked sum back as it is;
        # log 30030 is one atom, so log(30030*y1)^8 keeps 9 terms, and its
        # projection over primes has the C(8+6, 6) = 3003 printed ones
        y = ExpVec.unit(1, 0)
        items = log_of_monomial_unit(F(30030), y, PolyUnit.one())
        e = CExpr(1, tuple(
            Term.make(c, y, lp, ex) for c, lp, ex in expand_log_power(items, 8, 1)
        ))
        n = normalize(e)
        assert len(n.terms) == 9
        assert normalize(n) is n
        p = prime_form(n)
        assert len(p.terms) == 3003
        assert normalize(p) is p

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

    def test_one_claim_form_per_fiber_shape(self, monkeypatch, capsys):
        # the 3003 prepared terms of log(30030*y1)^8 have the fiber shapes
        # y1^0 log(y1)^s, s = 0..8: one claim form each (3003 built when
        # every term built its own)
        built = [0]
        build = integrate.build_sform

        def counting(t):
            built[0] += 1
            return build(t)

        monkeypatch.setattr(integrate, "build_sform", counting)
        assert cli.main(["integrate", "log(30030*y1)^8 on {0<y1<1}"]) == 0
        assert capsys.readouterr().out.strip()
        assert built[0] <= 9
        # log(6*y1)^8 has the same nine shapes over the same fiber: every
        # one is found in the per-process table
        assert cli.main(["integrate", "log(6*y1)^8 on {0<y1<1}"]) == 0
        assert capsys.readouterr().out.strip()
        assert built[0] <= 9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2, 3]))
    def test_shapes_match_per_term_on_generated(self, seed, nvars):
        cell, e = random_integrable_instance(random.Random(seed), nvars)
        assert _outcome(integrate_last, e, cell) == _outcome(
            _per_term_reference, e, cell
        )

    @settings(max_examples=150, deadline=None)
    @given(_shared_shape_instances())
    @example(_UNIT_PIECES_BOTH_IRRATIONAL)
    def test_shapes_match_per_term_on_log_powers(self, instance):
        # sums of y^alpha * log(P * y^gamma)^k * unit: many terms per fiber
        # shape, over cells with zero and with positive lower bounds
        cell, e = instance
        assert _outcome(integrate_last, e, cell) == _outcome(
            _per_term_reference, e, cell
        )


# ---------------------------------------------------------------------------
# The per-process table of shape integrals
# ---------------------------------------------------------------------------


def _shape_outcome(route, *args):
    """A shape's (scale, integral), or its refusal's class and message."""
    try:
        return route(*args)
    except CalcError as exc:
        return type(exc), str(exc)


@st.composite
def _shape_calls(draw):
    """Shape integrals over the last fiber of 1-3 variable cells, several
    per bound pair.  Each call builds its bounds anew from the pair's parts,
    so calls over one pair pass equal but distinct bounds, as the calls of
    integrate_last on different cells do."""
    nv = draw(st.integers(min_value=1, max_value=3))
    exponents = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(-1, 2), F(1, 3),
                                 F(-1), F(-3, 2), F(-2)])

    def bound_parts():
        beta = [draw(st.integers(0, 2)) for _ in range(nv - 1)] + [0]
        hi = draw(st.sampled_from([F(1), F(1, 4), F(1, 2), F(1, 3)]))
        if draw(st.booleans()):
            return None, (hi, beta)
        q = draw(st.sampled_from([F(1, 4), F(1, 16)]))
        return (hi * q, [b + draw(st.integers(0, 1)) for b in beta]), (hi, beta)

    def bounds(lo, hi):
        return ZERO if lo is None else mono(*lo), mono(*hi)

    pairs = [bound_parts() for _ in range(draw(st.integers(1, 3)))]
    return [
        (draw(exponents), draw(st.integers(0, 3)), nv,
         *bounds(*pairs[draw(st.integers(0, len(pairs) - 1))]))
        for _ in range(draw(st.integers(1, 8)))
    ]


class TestShapeTable:
    """integrate_shape keeps its exact results in one bounded table per
    process; a hit must be the integral a fresh computation builds."""

    @settings(max_examples=80, deadline=None)
    @given(_shape_calls())
    def test_hits_equal_fresh_integrals(self, calls):
        integrate_shape.cache_clear()
        first = [_shape_outcome(integrate_shape, *args) for args in calls]
        hits = integrate_shape.cache_info().hits
        again = [_shape_outcome(integrate_shape, *args) for args in calls]
        fresh = [_shape_outcome(integrate_shape.__wrapped__, *args) for args in calls]
        assert first == again == fresh
        kept = sum(1 for out in first if not isinstance(out[0], type))
        assert integrate_shape.cache_info().hits - hits == kept

    @pytest.mark.parametrize(
        "args,error",
        [
            ((F(-3, 2), 0, 1, ZERO, mono(1, [0])), NotIntegrable),
            ((F(1), 0, 1, ZERO, MonomialBound(
                F(1, 2), ExpVec.of([0]),
                PolyUnit.build(1, {ExpVec.of([1]): F(1, 2)}),
            )), BoundUnitUnsupported),
            ((F(1, 2), 0, 1, mono(F(1, 5), [0]), mono(F(1, 2), [0])), FragmentEscape),
        ],
        ids=["laurent-at-zero", "bound-unit", "irrational-power"],
    )
    def test_refusal_raises_on_every_call(self, args, error):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                integrate_shape(*args)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1]
        assert integrate_shape.cache_info().currsize == 0

    def test_least_recently_used_shape_is_evicted(self):
        one = mono(1, [0])
        first = integrate_shape(F(1, 2), 1, 1, ZERO, one)
        for k in range(_SHAPE_TABLE_SIZE):
            integrate_shape(F(k), 0, 1, ZERO, one)
        assert integrate_shape.cache_info().currsize == _SHAPE_TABLE_SIZE
        misses = integrate_shape.cache_info().misses
        again = integrate_shape(F(1, 2), 1, 1, ZERO, one)
        assert integrate_shape.cache_info().misses == misses + 1
        assert again == first and again[1] is not first[1]


# -- determined variables: interval additivity and band cells ------------------


def _cli_integrate(source, *args):
    """Exit code and stdout of `integrate source args` run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["integrate", source, *args])
    return code, out.getvalue()


def _constant(stdout):
    """The printed constant as a normalized one-variable sum."""
    return normalize(parse(f"{stdout.strip()} on {{0<x1<1}}").expr)


def _additivity_holds(integrand, whole, parts):
    """Whether the integral of integrand over the cell `whole` equals the
    first part's integral minus the second's, exactly; None when any of the
    three is refused (exit 3) or not integrable (exit 4)."""
    runs = [_cli_integrate(f"{integrand} on {{{cell}}}") for cell in (whole, *parts)]
    if any(code in (3, 4) for code, _ in runs):
        return None
    assert all(code == 0 for code, _ in runs), (integrand, runs)
    lhs, first, second = (_constant(text) for _, text in runs)
    return not normalize(lhs - (first - second)).terms


def _interval_battery(draws, relation):
    """(checks made, refusals) over the drawn (integrand, whole, parts)."""
    made = refused = 0
    for integrand, whole, parts in draws:
        holds = _additivity_holds(integrand, whole, parts)
        if holds is None:
            refused += 1
            continue
        assert holds, (relation, integrand, whole, parts)
        made += 1
    return made, refused


# squares and fourth powers, so that y^(r + 1) at the ends stays rational
_SMALL_ENDS = [F(1, 16), F(1, 9), F(1, 4), F(4, 9), F(9, 16), F(1)]
_LARGE_ENDS = [F(1), F(9, 4), F(4), F(9), F(16)]


def _powers_and_logs(rng, exponents):
    r = rng.choice(exponents)
    q = rng.choice([F(1), F(2), F(1, 3), F(6), F(5, 2)])
    s = rng.randint(0, 3)
    log = f"*log({q}*x1)^{s}" if s else ""
    return f"x1^({r}){log}"


class TestIntervalAdditivity:
    def test_integral_from_zero_splits_at_the_lower_end(self):
        # int_a^b = int_0^b - int_0^a for 0 < a < b <= 1: the left side
        # integrates over a band fiber, where x1 is bounded away from 0
        rng = random.Random(20261019)
        draws = []
        for _ in range(60):
            a, b = sorted(rng.sample(_SMALL_ENDS, 2))
            integrand = _powers_and_logs(rng, [F(-1, 2), 0, F(1, 2), 1, F(3, 2), 2])
            draws.append((integrand, f"{a}<x1<{b}", (f"0<x1<{b}", f"0<x1<{a}")))
        made, refused = _interval_battery(draws, "from zero")
        assert made + refused == 60 and made >= 54, (made, refused)

    def test_integral_to_infinity_splits_at_the_upper_end(self):
        # int_a^b = int_a^inf - int_b^inf for r < -1 and 1 <= a < b
        rng = random.Random(20261020)
        draws = []
        for _ in range(60):
            a, b = sorted(rng.sample(_LARGE_ENDS, 2))
            integrand = _powers_and_logs(rng, [F(-3, 2), -2, F(-5, 2), -3])
            draws.append((integrand, f"{a}<x1<{b}", (f"{a}<x1<inf", f"{b}<x1<inf")))
        made, refused = _interval_battery(draws, "to infinity")
        assert made + refused == 60 and made >= 54, (made, refused)


def _mp_eval(text, env):
    """A printed result or integrand in source syntax, evaluated by mpmath."""
    code = re.sub(r"(?<![\w.])(\d+)", r"mpf(\1)", text.replace("^", "**"))
    return eval(code, {"mpf": mpmath.mpf, "log": mpmath.log, "inf": mpmath.inf}, env)


@pytest.mark.parametrize("integrand, lo1, hi1, lo2, hi2, want", [
    ("x1*x2*log(x2)", "0", "1", "x1", "4*x1", "-45/32 + 4 * log(2)"),
    ("x2^(-1/2)*log(3*x2)^2", "0", "1", "x1", "4*x1", None),
    ("log(x1)*log(x2)", "0", "1", "1/2*x1", "x1", "1/4 - 1/8 * log(2)"),
    ("log(x2)^2", "0", "1", "x1^(2)", "2*x1^(2)", None),
    ("x1^(-1/2)*log(x2)", "1", "4", "x1", "4*x1", "-70/3 + 208/3 * log(2)"),
    ("x2^(-3)*log(x2)", "1", "inf", "x1", "2*x1", "9/16 - 1/8 * log(2)"),
])
def test_band_cell_integrals_match_mpmath(integrand, lo1, hi1, lo2, hi2, want):
    # the inner variable is determined (bounded away from 0 on its fiber)
    # and carries a log, which integrates in closed form between the bounds
    source = f"{integrand} on {{{lo1}<x1<{hi1}, {lo2}<x2<{hi2}}}"
    code, out = _cli_integrate(source, "--vars", "2")
    assert code == 0, out
    if want is not None:
        assert out.strip() == want
    with mpmath.workdps(30):
        quad = mpmath.quad(
            lambda x1: mpmath.quad(
                lambda x2: _mp_eval(integrand, {"x1": x1, "x2": x2}),
                [_mp_eval(lo2, {"x1": x1}), _mp_eval(hi2, {"x1": x1})],
            ),
            [_mp_eval(lo1, {}), _mp_eval(hi1, {})],
        )
        exact = _mp_eval(out.strip(), {})
        assert abs(exact - quad) <= mpmath.mpf(10) ** -15 * max(1, abs(quad)), (out, quad)


# -- a known soundness gap ------------------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "round 2 of integrate_fubini gates the signed round-1 integral, which "
    "can be integrable although the function is not in L^1"
))
@pytest.mark.parametrize("source", [
    # with x2 = t*x1: int |f| = int dx1/x1 * int_0^1 |t^(-1/2) - 2| dt = inf
    "x1^(-3/2)*x2^(-1/2) - 2*x1^(-2) on {0<x1<1, 0<x2<x1}",
    "x2^(-2) - 1/2*x1^(-2) on {0<x1<1, x1<x2<2*x1}",
])
def test_non_integrable_sum_with_an_integrable_inner_integral_is_refused(source):
    code, out = _cli_integrate(source, "--vars", "2")
    assert code != 0, out
