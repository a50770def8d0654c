"""Cell normalization, classification, coordinate transforms."""

import random
from fractions import Fraction as F

import pytest

from cfcalc.cells import (
    AxisMap,
    Cell,
    FatVar,
    INF,
    MonomialBound,
    RawCell,
    RawMono,
    RawVar,
    ZERO,
    classify,
    compose_with_map,
    map_jacobian,
    map_point,
    normalize_cell,
    transform_H,
    unmap_point,
)
from cfcalc.core import CExpr, ExpVec, PolyUnit, Term, normalize
from cfcalc.errors import (
    CellError,
    FragmentEscape,
    InconsistentOrientation,
    NotPrepared,
)
from tests.conftest import cell_of, fat, mono, parabola_wedge, triangle, wedge_determined


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
    x = n.to_original([F(2, 3)])[0]
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
            x = n.to_original(z)
            assert n.to_normalized(x) == z


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
    num = (n.to_original([z0 + h])[0] - n.to_original([z0 - h])[0]) / (2 * h)
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
