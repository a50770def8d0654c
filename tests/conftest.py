import random
from fractions import Fraction as F

import pytest

from cfcalc.cells import Cell, FatVar, MonomialBound, ZERO
from cfcalc.core import ExpVec, _fiber_kernel
from cfcalc.integrate import integrate_shape


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with an empty shape table and fiber-kernel cache,
    so that none depends on the shapes or structures an earlier test met."""
    integrate_shape.cache_clear()
    _fiber_kernel.cache_clear()


@pytest.fixture
def rng():
    return random.Random(20240817)


def fat(lower, upper):
    return FatVar(lower, upper)


def mono(q, exps):
    return MonomialBound(F(q), ExpVec.of(exps))


def cell_of(*specs) -> Cell:
    c = Cell(tuple(specs))
    c.validate()
    return c


def unit_fiber(n: int) -> Cell:
    return cell_of(*[fat(ZERO, mono(1, [0] * n)) for _ in range(n)])


def triangle() -> Cell:
    """{0 < y1 < 1, 0 < y2 < y1}"""
    return cell_of(
        fat(ZERO, mono(1, [0, 0])),
        fat(ZERO, mono(1, [1, 0])),
    )


def wedge_determined() -> Cell:
    """{0 < y1 < 1, y1/2 < y2 < y1} (second variable determined)"""
    return cell_of(
        fat(ZERO, mono(1, [0, 0])),
        fat(mono(F(1, 2), [1, 0]), mono(1, [1, 0])),
    )


def parabola_wedge() -> Cell:
    """{0 < y1 < 1, y1^2 < y2 < y1} (second variable undetermined)"""
    return cell_of(
        fat(ZERO, mono(1, [0, 0])),
        fat(mono(1, [2, 0]), mono(1, [1, 0])),
    )
