"""Sliver construction, affine separation, decay shrinking."""

import math
from fractions import Fraction as F

import pytest

from cfcalc.cells import ZERO, transform_H
from cfcalc.core import ExpVec, PolyUnit
from cfcalc.errors import NotAllUndetermined, NotBounded
from cfcalc.sliver import (
    AffineForm,
    Sliver,
    build_sliver,
    corners,
    form_min,
    is_subbox,
    pull_exponent,
    separate,
    shrink_for_decay,
    shrink_toward,
)
from tests.conftest import cell_of, fat, mono, parabola_wedge, unit_fiber, wedge_determined


def test_pull_exponent():
    assert pull_exponent(ExpVec.of([1, 0])) == AffineForm(F(1), (F(0),))
    assert pull_exponent(ExpVec.of([0, 1])) == AffineForm(F(0), (F(1),))
    assert pull_exponent(ExpVec.of([F(-1, 2), 2])) == AffineForm(F(-1, 2), (F(2),))


def test_pull_exponent_on_a_box_of_given_arity():
    # the form over `arity` box parameters: trimmed, padded with zeros, or
    # as it is; an empty exponent is the zero form
    alpha = ExpVec.of([F(1, 2), 2, -3])
    assert pull_exponent(alpha, 2) == AffineForm(F(1, 2), (F(2), F(-3)))
    assert pull_exponent(alpha, 1) == AffineForm(F(1, 2), (F(2),))
    assert pull_exponent(alpha, 0) == AffineForm(F(1, 2), ())
    assert pull_exponent(alpha, 4) == AffineForm(F(1, 2), (F(2), F(-3), F(0), F(0)))
    assert pull_exponent(ExpVec(()), 2) == AffineForm(F(0), (F(0), F(0)))
    assert pull_exponent(ExpVec(())) == AffineForm(F(0), ())
    for arity in range(5):
        assert len(pull_exponent(alpha, arity).coeffs) == arity


def test_separate_two_forms():
    box = ((F(0), F(1)),)
    f1 = AffineForm(F(0), (F(1),))      # t2
    f2 = AffineForm(F(1), (F(-1),))     # 1 - t2
    i, c, V = separate([f1, f2], box)
    assert c > 0
    assert is_subbox(V, box)
    # the certificate: min over corners of the gap equals the margin
    other = f2 if i == 0 else f1
    chosen = f1 if i == 0 else f2
    assert form_min(other - chosen, V) == c


def test_separate_single_form():
    box = ((F(0), F(3)),)
    i, c, V = separate([AffineForm(F(2), (F(1),))], box)
    assert (i, V) == (0, box) and c > 0


def test_separate_margin_on_corners(rng):
    box = ((F(0), F(3)),)
    forms = [AffineForm(F(2), (F(1),)), AffineForm(F(1), (F(2),))]
    i, c, V = separate(forms, box)
    for t in corners(V):
        vals = [f.value(t) for f in forms]
        assert vals[i] + c <= min(v for j, v in enumerate(vals) if j != i)
    # random interior points also satisfy the margin (affine)
    for _ in range(1000):
        t = tuple(
            lo + (hi - lo) * F(rng.randrange(0, 1001), 1000) for lo, hi in V
        )
        vals = [f.value(t) for f in forms]
        assert vals[i] + c <= min(v for j, v in enumerate(vals) if j != i)


def test_shrink_toward_returns_the_first_certified_box():
    seen = []

    def certify(box):
        seen.append(box)
        width = box[0][1] - box[0][0]
        return width if width <= F(1, 8) else None

    box, value = shrink_toward(((F(0), F(1)),), (F(1),), certify, AssertionError())
    # each halving keeps the half that holds the target 1
    assert seen == [((F(0), F(1)),), ((F(1, 2), F(1)),), ((F(3, 4), F(1)),),
                    ((F(7, 8), F(1)),)]
    assert (box, value) == (((F(7, 8), F(1)),), F(1, 8))


def test_shrink_toward_raises_the_failure_after_200_halvings():
    seen = []
    failure = NotBounded("nothing certifies")
    with pytest.raises(NotBounded) as info:
        shrink_toward(((F(0), F(1)), (F(2), F(4))), (F(0), F(3)),
                      lambda box: seen.append(box), failure)
    assert info.value is failure
    # 200 checks: the first before any halving, the last after 199
    assert len(seen) == 200
    assert seen[-1][0] == (F(0), F(1, 2 ** 199))
    assert seen[-1][1][1] - seen[-1][1][0] == F(2, 2 ** 199)


def test_shrink_for_decay_examples():
    s = Sliver(F(1, 2), ((F(1, 4), F(3, 4)),))
    s2, c = shrink_for_decay(ExpVec.of([0, 1]), s)
    assert (c, s2.box) == (F(1, 4), s.box)
    s3 = Sliver(F(1, 2), ((F(1, 2), F(1)),))
    s4, c4 = shrink_for_decay(ExpVec.of([-1, 2]), s3)
    assert c4 == F(1, 2) and s4.box == ((F(3, 4), F(1)),)
    s5, c5 = shrink_for_decay(ExpVec.of([1, 0]), s)
    assert c5 == 1 and s5.box == s.box


def test_shrink_for_decay_not_bounded():
    s = Sliver(F(1, 2), ((F(1, 4), F(3, 4)),))
    with pytest.raises(NotBounded):
        shrink_for_decay(ExpVec.of([-2, 1]), s)


def test_shrink_monotone():
    s = Sliver(F(1, 2), ((F(1, 2), F(1)),))
    s2, _ = shrink_for_decay(ExpVec.of([-1, 2]), s)
    assert is_subbox(s2.box, s.box)


def test_build_sliver_examples():
    sl = build_sliver(parabola_wedge())
    assert sl.box == ((F(5, 4), F(7, 4)),)
    cube = unit_fiber(3)
    sl2 = build_sliver(cube)
    assert len(sl2.box) == 2 and sl2.epsilon <= F(1, 2)
    steep = cell_of(fat(ZERO, mono(1, [0, 0])), fat(ZERO, mono(1, [3, 0])))
    sl3 = build_sliver(steep)
    assert sl3.box == ((F(13, 4), F(15, 4)),)


def test_build_sliver_containment(rng):
    cells = [
        parabola_wedge(),
        unit_fiber(3),
        cell_of(fat(ZERO, mono(1, [0, 0])), fat(ZERO, mono(1, [3, 0]))),
        cell_of(
            fat(ZERO, mono(1, [0, 0, 0])),
            fat(mono(1, [2, 0, 0]), mono(1, [1, 0, 0])),
            fat(ZERO, mono(F(1, 4), [1, 1, 0])),
        ),
    ]
    for cell in cells:
        sl = build_sliver(cell)
        for _ in range(1000):
            t = sl.sample(rng)
            assert cell.contains(sl.psi(t), slack=1e-12)


def test_build_sliver_needs_undetermined():
    with pytest.raises(NotAllUndetermined):
        build_sliver(wedge_determined())


def test_build_sliver_after_transform(rng):
    ht = transform_H(wedge_determined())
    sl = build_sliver(ht.cell)
    for _ in range(500):
        t = sl.sample(rng)
        assert ht.cell.contains(sl.psi(t), slack=1e-12)


def test_unit_bound_shrinks_epsilon(rng):
    # a unit in a bound forces a smaller epsilon through the log-deviation
    # budget, and containment still holds
    u = PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)})
    from cfcalc.cells import MonomialBound

    cell = cell_of(
        fat(ZERO, mono(1, [0, 0])),
        fat(
            MonomialBound(F(1, 4), ExpVec.of([2, 0]), u),
            MonomialBound(F(1, 2), ExpVec.of([1, 0]), u),
        ),
    )
    sl = build_sliver(cell)
    assert sl.epsilon < F(1, 2)
    for _ in range(1000):
        t = sl.sample(rng)
        assert cell.contains(sl.psi(t), slack=1e-12)


def test_psi_jacobian_nonsingular(rng):
    # lower-triangular with diagonal entries t1^(t_i) log t1 != 0 (i >= 2)
    sl = build_sliver(parabola_wedge())
    for _ in range(50):
        t = sl.sample(rng)
        t1 = t[0]
        assert t1 > 0 and t1 != 1
        for ti in t[1:]:
            assert t1 ** ti * abs(math.log(t1)) > 0
