"""An exact reference for the closed-form antiderivatives, independent of
the engine: differentiation under the integral sign in sympy.

    ∫ y^r (log y)^s dy = ∂^s/∂r^s [y^(r+1)/(r+1)]   (r ≠ −1)
    ∫ y^-1 (log y)^s dy = (log y)^(s+1)/(s+1)

Both sides are compared exactly as sympy expressions in a positive y."""

from fractions import Fraction as F

import pytest
import sympy

from cfcalc.core import PolyUnit
from cfcalc.integrate import antiderivative_pow_log

Y = sympy.Symbol("y", positive=True)
R = sympy.Symbol("r")

# validate's round trip draws from these 65 pairs
PAIRS = [(F(k, 2), s) for k in range(-6, 7) for s in range(5)]


def _rational(q: F):
    return sympy.Rational(q.numerator, q.denominator)


def _engine(r: F, s: int):
    """antiderivative_pow_log(r, s) as a sympy expression in y."""
    total = sympy.Integer(0)
    for t in antiderivative_pow_log(r, s).terms:
        assert not t.extras and t.unit == PolyUnit.one()
        total += (_rational(t.coeff) * Y ** _rational(t.exps[0])
                  * sympy.log(Y) ** t.logpows[0])
    return total


def _reference(r: F, s: int):
    if r == -1:
        return sympy.log(Y) ** (s + 1) / (s + 1)
    return sympy.diff(Y ** (R + 1) / (R + 1), R, s).subs(R, _rational(r))


@pytest.mark.parametrize("r,s", PAIRS, ids=[f"r={r},s={s}" for r, s in PAIRS])
def test_antiderivative_is_the_reference(r, s):
    assert sympy.expand(_engine(r, s) - _reference(r, s)) == 0
