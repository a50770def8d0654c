"""Cell normalization, classification, coordinate transforms."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cfcalc.cells import (
    AxisMap,
    Cell,
    FatVar,
    INF,
    Inf,
    MonomialBound,
    RawCell,
    RawMono,
    RawVar,
    ZERO,
    _compose_term_axis,
    _pow_bound,
    _transform_raw_bound,
    classify,
    compose_with_map,
    map_jacobian,
    map_point,
    normalize_cell,
    transform_H,
    unmap_point,
)
from cfcalc.cli import main
from cfcalc.core import CExpr, ExpVec, PolyUnit, Term, frac_pow, normalize
from cfcalc.errors import (
    CalcError,
    CellError,
    FragmentEscape,
    InconsistentOrientation,
    NotPrepared,
    UncertifiedCell,
)
from cfcalc.parser import parse
from cfcalc.prepare import prepare_expr
from tests.conftest import (
    cell_of,
    cell_texts,
    fat,
    mono,
    parabola_wedge,
    triangle,
    wedge_determined,
)


def test_reciprocal_normalization():
    raw = RawCell((RawVar("x1", RawMono.const(2, 1), INF),))
    n = normalize_cell(raw)
    spec = n.cell.specs[0]
    assert isinstance(spec.lower, type(ZERO))
    assert spec.upper.coeff == F(1, 2)
    assert n.steps == (AxisMap(0, 1, -1, F(1)),)
    # Jacobian |dx/dz| = z^-2
    assert n.jacobian.coeff == 1 and n.jacobian.exps[0] == -2


def test_identity_normalization():
    raw = RawCell((RawVar("x1", ZERO, RawMono.const(1, 1)),))
    n = normalize_cell(raw)
    assert n.jacobian.coeff == 1 and n.jacobian.exps.is_zero()


def test_rescale_normalization():
    # (y1, 2*y1) fibers exceed 1: rescale by 2 first
    raw = RawCell(
        (
            RawVar("x1", ZERO, RawMono.const(1, 2)),
            RawVar("x2", RawMono(F(1), ExpVec.of([1, 0])), RawMono(F(2), ExpVec.of([1, 0]))),
        )
    )
    n = normalize_cell(raw)
    spec = n.cell.specs[1]
    assert spec.upper.coeff == 1 and spec.lower.coeff == F(1, 2)
    assert n.steps[1].scale == 2


def test_negative_fiber_mirrors():
    raw = RawCell((RawVar("x1", RawMono.const(-2, 1), RawMono.const(-1, 1)),))
    n = normalize_cell(raw)
    # x = -1/z maps (0,1)-side points into (-2,-1)
    x = map_point(n.steps, [F(2, 3)])[0]
    assert F(-2) < x < F(-1)


def test_fiber_containing_zero_rejected():
    raw = RawCell((RawVar("x1", RawMono.const(-1, 1), RawMono.const(1, 1)),))
    with pytest.raises(InconsistentOrientation):
        normalize_cell(raw)


def test_roundtrip_exact(rng):
    raws = [
        RawCell((RawVar("x1", RawMono.const(2, 1), INF),)),
        RawCell((RawVar("x1", RawMono.const(3, 1), RawMono.const(4, 1)),)),
        RawCell(
            (
                RawVar("x1", ZERO, RawMono.const(1, 2)),
                RawVar("x2", ZERO, RawMono(F(2), ExpVec.of([1, 0]))),
            )
        ),
    ]
    for raw in raws:
        n = normalize_cell(raw)
        for _ in range(100):
            z = [
                F(rng.randrange(1, 1023), 1024) for _ in range(raw.nvars)
            ]
            x = map_point(n.steps, z)
            assert unmap_point(n.steps, x) == z


def test_classify_examples():
    assert classify(wedge_determined()).determined == (False, True)
    assert classify(wedge_determined()).constrained == (False, True)
    assert classify(parabola_wedge()).determined == (False, False)
    assert classify(parabola_wedge()).constrained == (False, True)
    assert classify(triangle()).constrained == (False, False)


def test_classify_stable_under_rescaling():
    # scaling both bounds by the same constant in (0,1] keeps the verdicts
    for cell in (wedge_determined(), parabola_wedge()):
        spec = cell.specs[1]
        scaled = cell.with_spec(
            1,
            FatVar(
                MonomialBound(spec.lower.coeff / 2, spec.lower.exps, spec.lower.unit),
                MonomialBound(spec.upper.coeff / 2, spec.upper.exps, spec.upper.unit),
            ),
        )
        assert classify(scaled) == classify(cell)


def test_transform_H_example():
    ht = transform_H(wedge_determined())
    (step,) = ht.steps
    assert step.pos == 1
    assert step.alpha == ExpVec.of([1, 0])
    assert step.R == F(1, 2)
    assert step.unit.constant == F(1, 2)
    assert classify(ht.cell).all_undetermined()
    # endpoint behavior: z2 -> 0 gives y2 -> y1/2, z2 -> 1 gives y2 -> y1
    lo = map_point(ht.steps, [F(1, 2), F(1, 10 ** 6)])
    hi = map_point(ht.steps, [F(1, 2), 1 - F(1, 10 ** 6)])
    assert abs(lo[1] - F(1, 4)) < F(1, 10 ** 5)
    assert abs(hi[1] - F(1, 2)) < F(1, 10 ** 5)


def test_transform_H_identity_when_all_undetermined():
    assert transform_H(parabola_wedge()).is_identity()
    assert transform_H(triangle()).is_identity()


def test_transform_H_image_containment(rng):
    cell = wedge_determined()
    ht = transform_H(cell)
    for _ in range(100):
        z = [F(rng.randrange(1, 1023), 1024), F(rng.randrange(1, 1023), 1024)]
        x = map_point(ht.steps, z)
        assert 0 < x[0] < 1
        assert x[0] / 2 < x[1] < x[0]


def test_transform_H_rejects_unprepared():
    # bound referencing a determined variable is not in prepared shape
    cell = cell_of(
        fat(ZERO, mono(1, [0, 0, 0])),
        fat(mono(F(1, 2), [1, 0, 0]), mono(1, [1, 0, 0])),  # determined
        fat(ZERO, mono(1, [0, 1, 0])),  # references determined var 1
    )
    with pytest.raises(NotPrepared):
        transform_H(cell)


def test_compose_reciprocal_examples():
    raw = RawCell((RawVar("x1", RawMono.const(2, 1), INF),))
    n = normalize_cell(raw)
    e = CExpr(1, (Term.make(1, [-1]),))
    out = n.pull_back(e)
    assert [(t.coeff, t.exps.exps) for t in out.terms] == [(F(1), (F(1),))]
    lg = CExpr(1, (Term.make(1, [0], [1]),))
    out2 = n.pull_back(lg)
    assert [(t.coeff, t.logpows) for t in out2.terms] == [(F(-1), (1,))]


def test_compose_H_fragment_escape():
    ht = transform_H(wedge_determined())
    with pytest.raises(FragmentEscape):
        compose_with_map(CExpr(2, (Term.make(1, [0, F(1, 2)]),)), ht.steps)
    # integer exponent composes
    out = compose_with_map(CExpr(2, (Term.make(1, [0, 1]),)), ht.steps)
    (t,) = out.terms
    assert t.exps.exps == (F(1), F(0)) and not t.unit.is_trivial


def test_compose_numeric_agreement(rng):
    ht = transform_H(wedge_determined())
    e = CExpr(2, (Term.make(3, ExpVec.of([F(1, 2), 2]), (1, 0)),))
    out = compose_with_map(e, ht.steps)
    for _ in range(10):
        z = [F(rng.randrange(20, 1000), 1024), F(rng.randrange(20, 1000), 1024)]
        x = [float(v) for v in map_point(ht.steps, z)]
        zf = [float(v) for v in z]
        assert abs(e.eval(x) - out.eval(zf)) < 1e-10 * max(1.0, abs(e.eval(x)))


def test_jacobian_matches_numeric_derivative():
    raw = RawCell((RawVar("x1", RawMono.const(2, 1), INF),))
    n = normalize_cell(raw)
    z0 = F(3, 10)
    h = F(1, 10 ** 7)
    num = (map_point(n.steps, [z0 + h])[0] - map_point(n.steps, [z0 - h])[0]) / (2 * h)
    sym = n.jacobian.eval([float(z0)])
    assert abs(abs(float(num)) - sym) <= 1e-6 * sym


def test_h_jacobian():
    ht = transform_H(wedge_determined())
    jac = map_jacobian(ht.steps, 2)
    assert jac.coeff == F(1, 2) and jac.exps.exps == (F(1), F(0))


def test_cell_validation_rejects_bad_bounds():
    with pytest.raises(CellError):
        cell_of(fat(ZERO, mono(2, [0])))  # upper bound above 1
    with pytest.raises(CellError):
        cell_of(
            fat(ZERO, mono(1, [0, 0])),
            fat(mono(1, [1, 0]), mono(F(1, 2), [1, 0])),  # lower above upper
        )
    with pytest.raises(CellError):
        Cell((FatVar(ZERO, MonomialBound(F(1), ExpVec.of([1]))),))  # self-reference


def test_unit_monomial_boundedness_check():
    cell = triangle()
    bad = PolyUnit.build(1, {ExpVec.of([-1, 1]): F(1, 2)})
    cell.certify_unit_monomials(
        PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)})
    )
    # y2/y1 is bounded on the triangle's closure? no: y2 < y1 gives (0,1) - ok
    cell.certify_unit_monomials(bad)
    skew = cell_of(fat(ZERO, mono(1, [0, 0])), fat(ZERO, mono(1, [0, 0])))
    with pytest.raises(CellError):
        skew.certify_unit_monomials(bad)  # y2/y1 unbounded on the square


# -- the closure of a raw cell, decided in rationals --------------------------


@pytest.mark.parametrize("cell,point,inside", [
    ("{0<y1<1}", "1/2", True),
    ("{0<y1<1}", "0", True),
    ("{0<y1<1}", "1", True),
    ("{0<y1<1}", "3/2", False),
    ("{0<y1<1}", "-1/3", False),
    ("{2 < x1 < inf}", "1000", True),
    ("{-2<y1<-1}", "-3/2", True),
    ("{-2<y1<-1}", "-1/2", False),
    ("{0<y1<1, 0<y2<y1}", "1/2,1/2", True),
    ("{0<y1<1, 0<y2<y1}", "1/2,3/4", False),
    ("{1<y1<2, -1*y1<y2<-1}", "3/2,-5/4", True),
    ("{1<y1<2, -1*y1<y2<-1}", "3/2,-7/4", False),
    # fractional exponents compare d-th powers: 2^(1/2) lies in (7/5, 3/2)
    ("{0<y1<4, 0<y2<y1^(1/2)}", "2,7/5", True),
    ("{0<y1<4, 0<y2<y1^(1/2)}", "2,3/2", False),
    ("{0<y1<4, y1^(1/2)<y2<inf}", "2,3/2", True),
    ("{0<y1<4, y1^(1/2)<y2<inf}", "2,7/5", False),
    ("{0<y1<4, 0<y2<y1^(3/2)}", "1/4,1/8", True),
    ("{0<y1<4, 0<y2<y1^(3/2)}", "1/4,1/7", False),
    # an odd root of a negative coordinate is negative; an even one is not real
    ("{-2<y1<-1, y1^(1/3)<y2<1}", "-1,-1", True),
    ("{-2<y1<-1, y1^(1/3)<y2<1}", "-1,-2", False),
    ("{-2<y1<-1, 0<y2<y1^(1/2)}", "-1,1/2", False),
    ("{-2<y1<-1, y1^(-1)<y2<1}", "-2,-1/2", True),
    ("{-2<y1<-1, y1^(-1)<y2<1}", "-2,-3/4", False),
    # a negative power of a zero coordinate is the bound's infinite limit
    ("{0<y1<1, 0<y2<y1^(-1)}", "0,5", True),
    ("{0<y1<1, y1^(-1)<y2<inf}", "0,5", False),
    # a thin variable lies on its graph
    ("{0<y1<1, y2 = 1/2*y1}", "1/2,1/4", True),
    ("{0<y1<1, y2 = 1/2*y1}", "1/2,1/3", False),
    ("{0<y1<1, y2 = y1^(1/2)}", "1/4,1/2", True),
    ("{0<y1<1, y2 = y1^(1/2)}", "1/2,1/2", False),
])
def test_closure_contains_decides_exactly(cell, point, inside):
    raw = parse(f"1 on {cell}").raw_cell
    assert raw.closure_contains([F(x) for x in point.split(",")]) is inside


def _float_side(x, b, point):
    """The sign of x - b(point) in floats, or None when it is within
    rounding of 0 or the bound has no real float value."""
    if isinstance(b, Inf):
        return -1
    value = 0.0
    if isinstance(b, RawMono):
        value = float(b.coeff)
        for p, e in zip(point, b.exps):
            if e:
                if p <= 0:
                    return None
                value *= float(p) ** float(e)
    diff = float(x) - value
    return None if abs(diff) < 1e-9 else (diff > 0) - (diff < 0)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(cell_texts(), st.lists(st.sampled_from(
    [F(0), F(1, 8), F(1, 3), F(1, 2), F(1), F(3, 2), F(4), F(-1, 2), F(-3, 2)]),
    min_size=3, max_size=3))
def test_closure_contains_agrees_with_floats_away_from_the_boundary(drawn, point):
    try:
        raw = parse(f"1 on {drawn[1]}").raw_cell
    except CalcError:
        return
    point = point[:raw.nvars]
    want = True
    for rv, x in zip(raw.vars, point):
        if rv.thin is not None:
            sides = [_float_side(x, rv.thin, point)]
            want = False  # clearly off its graph, unless None below
        else:
            sides = [_float_side(x, rv.lower, point),
                     _float_side(x, rv.upper, point)]
            want = want and sides == [1, -1]
        if None in sides:
            return
    assert raw.closure_contains(point) is want


def test_a_certified_cell_is_not_certified_again(monkeypatch, capsys):
    # certify_less runs once per variable of a certification: normalize_cell
    # certifies the triangle's cell and prepare_expr keeps that verdict; the
    # warm call gets the same cell object back from the normalization table
    calls = []
    certify_less = Cell.certify_less

    def counted(self, a, b):
        calls.append(self)
        return certify_less(self, a, b)

    monkeypatch.setattr(Cell, "certify_less", counted)
    argv = ["integrate", "y2 on {0<y1<1, 0<y2<y1}", "--vars", "2"]
    assert main(argv) == 0  # cold: the autouse fixture emptied the tables
    assert len(calls) == 2
    calls.clear()
    assert main(argv) == 0
    assert calls == []
    assert capsys.readouterr().out == "1/6\n" * 2


def test_an_uncertifiable_cell_raises_on_every_validate():
    # {0<y1<1, y1<y2<y1/2}: the lower bound lies above the upper one
    cell = Cell((fat(ZERO, mono(1, [0, 0])),
                 fat(mono(1, [1, 0]), mono(F(1, 2), [1, 0]))))
    for _ in range(3):
        with pytest.raises(UncertifiedCell, match="cannot certify bound order"):
            cell.validate()
    with pytest.raises(UncertifiedCell, match="cannot certify bound order"):
        prepare_expr(CExpr(2, (Term.make(1, [0, 1], [0, 0]),)), cell)


def test_a_certified_cell_compares_hashes_and_prints_as_an_unchecked_one():
    specs = (fat(ZERO, mono(1, [0, 0])), fat(ZERO, mono(1, [1, 0])))
    certified, unchecked = Cell(specs), Cell(specs)
    certified.validate()
    assert certified._certified and not unchecked._certified
    assert certified == unchecked
    assert hash(certified) == hash(unchecked)
    assert repr(certified) == repr(unchecked)


def _value(c, exps, point):
    # c * point^exps exactly: an integer power of any coordinate, a
    # fractional one of a positive coordinate with a rational root
    for x, e in zip(point, exps):
        c *= x ** e.numerator if e.denominator == 1 else frac_pow(x, e)
    return c


_SQUARES = st.sampled_from([F(1, 4), F(9, 16), F(1, 9), F(4, 9), F(1)])


@st.composite
def axis_cases(draw):
    """An axis map of y1 or y2 (a mirror with integer powers of its
    coordinate, a reciprocal, dyadic scales), c * y^m, a unit monomial and
    a new-coordinate point whose old coordinates have rational powers."""
    pos = draw(st.integers(0, 1))
    step = AxisMap(pos, draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1])),
                   draw(st.sampled_from([F(1), F(1, 2), F(2), F(1, 4), F(4), F(1, 16)])))
    # a fractional power needs a positive coordinate and a square scale
    halves = step.eps == 1 and step.scale in (F(1), F(1, 4), F(4), F(1, 16))
    mine = st.integers(-6, 6).map(lambda k: F(k, 2) if halves else F(k // 2))
    other = st.integers(-6, 6).map(lambda k: F(k, 2))

    def exps():
        e = [draw(other), draw(other)]
        e[pos] = draw(mine)
        return ExpVec(tuple(e))
    c = draw(st.sampled_from([F(1), F(-3, 2), F(2, 5)]))
    return step, c, exps(), exps(), [draw(_SQUARES), draw(_SQUARES)]


@settings(max_examples=300, deadline=None)
@given(axis_cases())
def test_axis_map_rewrite_agrees_with_map_point(case):
    step, c, m, mu, z = case
    x = map_point([step], z)
    want = _value(c, m, x)
    c2, m2 = step.rewrite(c, m)
    assert _value(c2, m2, z) == want
    assert m2[1 - step.pos] == m[1 - step.pos]
    # a term, and a term with a polynomial unit, through _compose_term_axis
    cases = [(Term.make(c, m), want)]
    if not mu.is_zero():
        unit = PolyUnit.build(1, {mu: F(1, 4)})
        cases.append((Term.make(c, m, unit=unit), want * (1 + _value(F(1, 4), mu, x))))
    for t, v in cases:
        assert sum(u.eval_exact(z) for u in _compose_term_axis(t, step, 2)) == v
    # a raw bound through _transform_raw_bound: a mirrored coordinate is
    # refused there, as no dependent bound may reference it
    b = RawMono(abs(c), m)
    if step.eps < 0 and m[step.pos]:
        with pytest.raises(InconsistentOrientation):
            _transform_raw_bound(b, [step], 2)
    else:
        b2 = _transform_raw_bound(b, [step], 2)
        assert _value(b2.coeff, b2.exps, z) == _value(abs(c), m, x)


def test_a_mirrored_negative_power_keeps_an_exact_coefficient(capsys):
    # y1 = -1/z on (-3, -1): y1^(-1) = -z, with the coefficient exact
    assert main(["prepare", "1/3 * y1^(-1) on {-3<y1<-1}"]) == 0
    assert capsys.readouterr().out == "prepared pieces: 1\n  J = []: -1/3 * y1\n"
    assert main(["integrate", "1/3 * y1^(-1) on {-1/2<y1<-1/3}"]) == 0
    assert capsys.readouterr().out == "1/3 * log(2) - 1/3 * log(3)\n"
    assert AxisMap(0, eps=-1).rewrite(F(1, 3), ExpVec.of([-3])) == (F(-1, 3), ExpVec.of([-3]))


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6).filter(bool),
       st.integers(-15, 15), st.integers(2, 6))
def test_pow_bound_brackets_an_irrational_power_exactly(q, u, v):
    e = F(u, v)
    lo, hi = _pow_bound(q, e, False), _pow_bound(q, e, True)
    exact = frac_pow(q, e)
    if exact is not None:
        assert lo == hi == exact
        return
    assert lo ** e.denominator < q ** e.numerator < hi ** e.denominator
    assert 0 < hi - lo <= F(1, 2 ** 64)


def test_pow_bound_of_a_tiny_power_is_not_zero():
    # (1/1000)^(11/2) = 3.16e-17; rounding through floats made both bounds 0
    lo, hi = _pow_bound(F(1, 1000), F(11, 2), False), _pow_bound(F(1, 1000), F(11, 2), True)
    assert F(3162, 10**20) < lo < hi < F(3163, 10**20)


_TINY_POWER_CELL = "{0<x1<1/1000, x1^(11/2) < x2 < 1/1000000000000000000000000000000000}"


@pytest.mark.parametrize("argv", [
    ["integrate", f"1 on {_TINY_POWER_CELL}", "--vars", "1"],
    ["prepare", f"1 on {_TINY_POWER_CELL}"],
    ["check-integrability", f"1 on {_TINY_POWER_CELL}"],
])
def test_a_false_bound_order_under_an_irrational_power_is_refused(argv, capsys):
    # x1^(11/2) > 10^-33 wherever x1 > 10^-6, so the fiber is empty there:
    # the cell cannot be certified, and the commands exit 3
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot certify bound order" in captured.err
