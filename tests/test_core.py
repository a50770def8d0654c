"""Exact-core tests: rationals, normalization, zero test, differentiation."""

import ast
import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcalc import core
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogComposite,
    LogExprAtom,
    LogPrime,
    LogUnitAtom,
    LogVar,
    PolyUnit,
    Term,
    constant_log_items,
    differentiate,
    differentiate_expr,
    expand_log_power,
    factorize,
    frac_pow,
    is_zero,
    left_sum,
    log_of_monomial_unit,
    normalize,
    poly_is_certifiable_unit,
    times_log_power,
    unit_from_poly,
)
from cfcalc.errors import (
    FragmentEscape,
    NotNormalized,
    UnitCertificateViolated,
    ZeroTestUnsupported,
)
from cfcalc.generators import random_integrable_instance
from tests.conftest import gk15_reference, substituted

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


@given(rationals)
def test_frac_pow_squares(a):
    if a > 0:
        v = frac_pow(a * a, F(1, 2))
        assert v == a or v == -a  # principal root is positive
        assert v == abs(a)


def test_frac_pow_examples():
    assert frac_pow(F(1, 4), F(1, 2)) == F(1, 2)
    assert frac_pow(F(8), F(2, 3)) == 4
    assert frac_pow(F(1, 3), F(1, 2)) is None
    assert frac_pow(F(5), 0) == 1


def test_frac_pow_beyond_float_range():
    # n ** (1.0 / k) overflows past ~1e308; roots must stay exact
    assert frac_pow(F(1, 10**400), F(3, 2)) == F(1, 10**600)
    assert frac_pow(F(3**1000, 7**500), F(1, 500)) == F(9, 7)
    assert frac_pow(F(2 * 10**400), F(1, 2)) is None
    assert frac_pow(F(3**999 + 1), F(1, 3)) is None


@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=2, max_value=7))
def test_frac_pow_integer_roots(n, k):
    assert frac_pow(F(n**k), F(1, k)) == n
    if n > 1:
        assert frac_pow(F(n**k + 1), F(1, k)) is None


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_log_const_prime_expansion():
    # constant_log_items, the one writer of constant logs: log 4 = 2 log 2,
    # log 8/9 = 3 log 2 - 2 log 3, and log 1 is the empty sum
    assert constant_log_items(F(4)) == [(F(2), LogPrime(2))]
    assert constant_log_items(F(8, 9)) == [(F(3), LogPrime(2)), (F(-2), LogPrime(3))]
    assert constant_log_items(F(1)) == []


def test_log_unit_atoms_carry_monic_nonconstant_units():
    # a constant's log is written over primes, and a unit's constant splits
    # off first: there is no second route for constant logs
    y = ExpVec.of([1])
    LogUnitAtom(PolyUnit.build(1, {y: F(1, 2)}))
    for unit in (PolyUnit(F(4)), PolyUnit(F(1)), PolyUnit.build(2, {y: F(1, 2)})):
        with pytest.raises(FragmentEscape, match="monic nonconstant"):
            LogUnitAtom(unit)
    with pytest.raises(FragmentEscape, match="monic nonconstant"):
        LogUnitAtom(PolyUnit.build(-1, {y: F(1, 2)}))


def test_make_refuses_a_variable_log_extra():
    # variable logs belong in logpows; Term.make writes no log
    for extras in ([(LogVar(0), 1)], ((LogPrime(2), 1), (LogVar(0), 2))):
        with pytest.raises(ValueError, match="logpows"):
            Term.make(1, [1], None, extras)
    assert Term.make(1, [1], [1]).logpows == (1,)


def test_normalize_merges_like_terms():
    e = CExpr(1, (Term.make(2, [1]), Term.make(3, [1])))
    n = normalize(e)
    assert len(n.terms) == 1
    assert n.terms[0].coeff == 5


def test_normalize_cancellation():
    e = CExpr(1, (Term.make(1, [1]), Term.make(-1, [1])))
    n = normalize(e)
    assert n.terms == ()
    assert is_zero(n)


def test_normalize_unit_merge():
    # y^(1/2)(1 + y/4) + y^(1/2) = y^(1/2) * (2 + y/4): certificate holds
    u = PolyUnit.build(1, {ExpVec.of([1]): F(1, 4)})
    e = CExpr(1, (Term.make(1, [F(1, 2)], unit=u), Term.make(1, [F(1, 2)])))
    n = normalize(e)
    assert len(n.terms) == 1
    t = n.terms[0]
    assert t.coeff == 2 and t.exps[0] == F(1, 2)
    assert t.unit.constant == 1 and t.unit.monos[0][0] == F(1, 8)
    # value preserved at the expanded point y = 1/4
    assert abs(e.eval([0.25]) - n.eval([0.25])) < 1e-15


def test_normalize_distributes_when_units_cancel():
    # y(1 + y/4) - y(1 - y/4) = y^2/2: the merged "unit" has no constant
    up = PolyUnit.build(1, {ExpVec.of([1]): F(1, 4)})
    um = PolyUnit.build(1, {ExpVec.of([1]): F(-1, 4)})
    e = CExpr(1, (Term.make(1, [1], unit=up), Term.make(-1, [1], unit=um)))
    n = normalize(e)
    assert [(t.coeff, t.exps.exps) for t in n.terms] == [(F(1, 2), (F(2),))]


def test_normalize_idempotent_and_value_preserving(rng):
    for _ in range(20):
        terms = []
        for _ in range(rng.randint(1, 5)):
            r = F(rng.randint(-4, 4), 2)
            s = rng.randint(0, 2)
            u = PolyUnit.one()
            if rng.random() < 0.4:
                u = PolyUnit.build(
                    1, {ExpVec.of([rng.randint(1, 2)]): F(rng.choice([-1, 1]), 4)}
                )
            terms.append(Term.make(F(rng.randint(-6, 6) or 1), [r], [s], unit=u))
        e = CExpr(1, tuple(terms))
        n = normalize(e)
        assert normalize(n) == n
        for _ in range(100):
            y = 0.02 + 0.96 * rng.random()
            a, b = e.eval([y]), n.eval([y])
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_is_zero_requires_normalized():
    e = CExpr(1, (Term.make(1, [1]), Term.make(1, [1])))
    with pytest.raises(NotNormalized):
        is_zero(e)


def test_is_zero_soundness_positive_case(rng):
    e = normalize(
        CExpr(1, (Term.make(1, [F(1, 2)], [1]), Term.make(-1, [F(1, 2)], [1])))
    )
    assert is_zero(e)
    for _ in range(100):
        y = 0.02 + 0.96 * rng.random()
        assert abs(e.eval([y])) == 0.0


def test_is_zero_soundness_negative_case(rng):
    # nonzero verdict is witnessed along a sliver sample
    from cfcalc.sliver import build_sliver
    from tests.conftest import parabola_wedge

    cell = parabola_wedge()
    e = normalize(
        CExpr(2, (Term.make(1, ExpVec.of([1, 0])), Term.make(-1, ExpVec.of([0, 1]))))
    )
    assert not is_zero(e)
    sl = build_sliver(cell)
    assert any(
        abs(e.eval(sl.psi(sl.sample(rng)))) > 0 for _ in range(50)
    )


def test_is_zero_rejects_opaque_atoms():
    u = PolyUnit.build(1, {ExpVec.of([1]): F(1, 2)})
    e = normalize(CExpr(1, (Term.make(1, [0], extras=[(LogUnitAtom(u), 1)]),)))
    with pytest.raises(ZeroTestUnsupported):
        is_zero(e)


def test_log_const_cancellation_across_terms():
    # 2*log(4)*y - 4*log(2)*y is identically zero; the constant logs, both
    # written over primes by constant_log_items, must see it
    def log_times(c, q):
        log_q = expand_log_power(constant_log_items(F(q)), 1, 1)
        return times_log_power(Term.make(c, [1]), log_q)

    assert is_zero(normalize(CExpr(1, tuple(log_times(2, 4) + log_times(-4, 2)))))


# polynomials in y1, y2 over a few monomials, the constant among them at
# times, with coefficients drawn so that |constant| often equals the sum
# of the opposing coefficients
_POLY_MONOS = [ExpVec.of(e) for e in ([0, 0], [1, 0], [0, 1], [1, 1], [F(1, 2), 2])]
_POLY_COEFFS = st.sampled_from([F(-1), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(1), F(3, 4)])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_POLY_MONOS), _POLY_COEFFS, max_size=5))
def test_certifiable_exactly_when_unit_from_poly_succeeds(poly):
    try:
        unit = unit_from_poly(poly, 2)
    except UnitCertificateViolated:
        unit = None
    assert poly_is_certifiable_unit(poly) == (unit is not None)
    if unit is not None:
        lo, hi = unit.value_bounds()
        assert lo > 0 if unit.sign > 0 else hi < 0


def test_unit_certificate_boundary():
    # |constant| equal to the opposing sum is not certified, on either sign
    y1, y2 = ExpVec.of([1, 0]), ExpVec.of([0, 1])
    zero = ExpVec.zero(2)
    for poly in ({zero: F(1), y1: F(-1, 2), y2: F(-1, 2)},
                 {zero: F(-1), y1: F(3, 4), y2: F(1, 4), ExpVec.of([1, 1]): F(-2)},
                 {y1: F(1)}):
        assert not poly_is_certifiable_unit(poly)
        with pytest.raises(UnitCertificateViolated):
            unit_from_poly(poly, 2)
    with pytest.raises(UnitCertificateViolated, match="may cross 0"):
        PolyUnit.build(1, {y1: F(-1, 2), y2: F(-1, 2)})
    with pytest.raises(UnitCertificateViolated, match="must be nonzero"):
        PolyUnit.build(0, {y1: F(1)})


def test_unit_certificate_enforced():
    with pytest.raises(UnitCertificateViolated):
        PolyUnit.build(1, {ExpVec.of([1]): F(-3, 2)})
    # one-sided: big positive coefficients are fine on positive monomials
    u = PolyUnit.build(F(1, 2), {ExpVec.of([1]): F(1, 2)})
    assert u.value_bounds() == (F(1, 2), F(1))


def test_unit_positivity_on_samples(rng):
    u = PolyUnit.build(1, {ExpVec.of([1]): F(-1, 3), ExpVec.of([2]): F(1, 5)})
    lo, hi = u.value_bounds()
    assert lo > 0
    for _ in range(200):
        y = rng.random()
        assert lo - 1e-12 <= u.eval([y]) <= hi + 1e-12


@pytest.mark.parametrize(
    "term,expected",
    [
        (Term.make(1, [2]), [(F(2), (F(1),), (0,))]),
        # d/dy (log y)^3/3 = (log y)^2 / y
        (Term.make(F(1, 3), [0], [3]), [(F(1), (F(-1),), (2,))]),
    ],
)
def test_differentiate_examples(term, expected):
    d = differentiate(term, 0)
    got = [(t.coeff, t.exps.exps, t.logpows) for t in d.terms]
    assert got == expected


def test_differentiate_spec_identity():
    # d/dy [(log y)^(s+1)/(s+1)] = (log y)^s / y at s = 2
    d = differentiate(Term.make(F(1, 3), [0], [3]), 0)
    target = CExpr(1, (Term.make(1, [-1], [2]),))
    assert is_zero(normalize(d - target))


def test_differentiate_combination():
    # d/dy [y^(1/2)(2 log y - 4)] = y^(-1/2) log y
    e = CExpr(1, (Term.make(2, [F(1, 2)], [1]), Term.make(-4, [F(1, 2)])))
    d = differentiate_expr(e, 0)
    assert [(t.coeff, t.exps.exps, t.logpows) for t in d.terms] == [
        (F(1), (F(-1, 2),), (1,))
    ]


def _finite_difference(e, y, h):
    return (e.eval([y + h]) - e.eval([y - h])) / (2 * h)


def test_differentiate_matches_finite_differences(rng):
    for _ in range(20):
        terms = []
        for _ in range(rng.randint(1, 3)):
            terms.append(
                Term.make(
                    F(rng.randint(1, 5)),
                    [F(rng.randint(-3, 4), 2)],
                    [rng.randint(0, 2)],
                )
            )
        e = normalize(CExpr(1, tuple(terms)))
        d = differentiate_expr(e, 0)
        for y in (0.25, 0.5, 0.75):
            h = 1e-6 * y
            num = _finite_difference(e, y, h)
            sym = d.eval([y])
            assert abs(num - sym) <= 1e-6 * max(1.0, abs(sym))


def _to_sympy(e, ys):
    """A sum with units and variable logs as a sympy expression."""
    total = sympy.Integer(0)
    for t in e.terms:
        unit = sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(y ** sympy.Rational(k.numerator, k.denominator) for y, k in zip(ys, m)))
            for m, c in t.unit.as_poly(e.nvars).items()
        )
        total += (
            sympy.Rational(t.coeff.numerator, t.coeff.denominator)
            * sympy.Mul(*(y ** sympy.Rational(r.numerator, r.denominator) for y, r in zip(ys, t.exps)))
            * sympy.Mul(*(sympy.log(y) ** s for y, s in zip(ys, t.logpows)))
            * unit
        )
    return total


@pytest.mark.parametrize("pos", [0, 1])
def test_differentiate_a_nonconstant_unit_matches_sympy(pos):
    # the unit's own derivative distributes over monomial terms; the unit
    # reads both variables, so either derivative runs its loop
    u = PolyUnit.build(
        1, {ExpVec.of([2, 1]): F(1, 3), ExpVec.of([F(1, 2), 0]): F(-1, 4)}
    )
    t = Term.make(F(5, 2), [F(3, 2), -1], [2, 1], unit=u)
    assert u.derivative(pos, 2)
    ys = sympy.symbols("y1 y2", positive=True)
    e = CExpr(2, (t,))
    got = _to_sympy(differentiate(t, pos), ys)
    assert sympy.simplify(got - sympy.diff(_to_sympy(e, ys), ys[pos])) == 0


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
            st.fractions(min_value=-2, max_value=2, max_denominator=2),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_sum_normalize_agrees_pointwise(data):
    terms = [Term.make(c, [r], [s]) for c, r, s in data]
    e = CExpr(1, tuple(terms))
    n = normalize(e)
    for y in (0.3, 0.7):
        assert abs(e.eval([y]) - n.eval([y])) <= 1e-9 * max(1.0, abs(e.eval([y])))


# Terms over two variables with optional prime-log extras and unit; the unit
# is trivial about half of the time so both term_mul routes are exercised.
_small_exps = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_units = st.sampled_from(
    [
        PolyUnit.one(),
        PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)}),
        PolyUnit.build(1, {ExpVec.of([0, 2]): F(-1, 4)}),
        PolyUnit.build(1, {ExpVec.of([1, 1]): F(1, 3), ExpVec.of([0, 1]): F(-1, 3)}),
    ]
)
terms2 = st.builds(
    lambda c, e, l, x, u: Term.make(c, e, l, x, unit=u),
    rationals.filter(bool),
    st.lists(_small_exps, min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    st.lists(
        st.tuples(st.sampled_from([LogPrime(2), LogPrime(3)]), st.integers(1, 2)),
        max_size=2,
    ),
    st.one_of(st.just(PolyUnit.one()), _units),
)


@settings(max_examples=150)
@given(terms2, terms2)
def test_term_mul_matches_general_route(a, b):
    from cfcalc.core import terms_from_poly, poly_mul, term_mul

    general = terms_from_poly(
        a.coeff * b.coeff,
        a.exps + b.exps,
        tuple(x + y for x, y in zip(a.logpows, b.logpows)),
        list(a.extras) + list(b.extras),
        poly_mul(a.unit.as_poly(2), b.unit.as_poly(2)),
        2,
    )
    assert term_mul(a, b) == general


@settings(max_examples=150)
@given(st.lists(terms2, max_size=6))
def test_normalize_idempotent(ts):
    n = normalize(CExpr(2, tuple(ts)))
    assert normalize(n) == n


@settings(max_examples=150)
@given(terms2, st.sampled_from([F(1, 2), F(1, 3), F(-2)]))
def test_normalize_one_term_is_identity(t, c):
    # a single term is already normal; the merging route, fed the same
    # function split into two same-signature pieces, gives the term back
    one = CExpr(2, (t,))
    assert normalize(one) == one
    assert normalize(CExpr(2, (t.scaled(c), t.scaled(1 - c)))) == one


_positive = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
_gammas = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def log_arguments(draw):
    """(q, gamma, unit, point): q * y^gamma * unit on the unit box (the unit
    certified there, not necessarily monic) and a point inside the box."""
    nv = draw(st.integers(min_value=1, max_value=3))
    q = draw(_positive)
    gamma = ExpVec.of(draw(st.lists(_gammas, min_size=nv, max_size=nv)))
    constant = draw(_positive)
    monos = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=nv, max_size=nv).filter(any),
            max_size=3,
            unique_by=tuple,
        )
    )
    shares = draw(
        st.lists(
            st.fractions(min_value=-1, max_value=1, max_denominator=8),
            min_size=len(monos),
            max_size=len(monos),
        )
    )
    # the opposing coefficients sum to less than the constant: certified
    unit = PolyUnit.build(
        constant,
        {ExpVec.of(m): constant * f / (len(monos) + 1) for m, f in zip(monos, shares)},
    )
    point = draw(st.lists(st.floats(0.01, 0.99), min_size=nv, max_size=nv))
    return q, gamma, unit, point


def _log_sum(items, point):
    total = 0.0
    for c, atom in items:
        if isinstance(atom, LogVar):
            total += float(c) * math.log(point[atom.pos])
        elif isinstance(atom, LogPrime):
            total += float(c) * math.log(atom.prime)
        elif isinstance(atom, LogComposite):
            total += float(c) * math.log(atom.n)
        else:
            total += float(c) * math.log(atom.unit.eval(point))
    return total


@settings(max_examples=100, deadline=None)
@given(log_arguments())
def test_log_of_monomial_unit_sums_to_the_log(arg):
    q, gamma, unit, point = arg
    value = float(q) * unit.eval(point)
    for y, g in zip(point, gamma):
        value *= y ** float(g)
    items = log_of_monomial_unit(q, gamma, unit)
    assert math.isclose(_log_sum(items, point), math.log(value), abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(log_arguments(), st.integers(min_value=0, max_value=4), st.data())
def test_times_log_power_multiplies_out(arg, k, data):
    q, gamma, unit, point = arg
    nv = len(gamma)
    t = Term.make(
        data.draw(rationals.filter(bool)),
        data.draw(st.lists(_gammas, min_size=nv, max_size=nv)),
        data.draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv)),
    )
    items = log_of_monomial_unit(q, gamma, unit)
    values = [x.eval(point) for x in times_log_power(t, expand_log_power(items, k, nv))]
    expected = t.eval(point) * _log_sum(items, point) ** k
    assert math.isclose(
        sum(values), expected, rel_tol=1e-9,
        abs_tol=1e-9 * sum(abs(v) for v in values),
    )


# The direct float evaluator that the cached float plans replaced, kept as
# the reference: a plan must give the same floats bit for bit, since
# `validate --json` prints deviations with every digit.
def _ref_monomial(m, point):
    total = 1.0
    for i, e in enumerate(m.exps):
        if e:
            total *= float(point[i]) ** float(e)
    return total


def _ref_unit(u, point):
    total = float(u.constant)
    for c, m in u.monos:
        total += float(c) * _ref_monomial(m, point)
    return total


def _ref_atom(atom, point):
    if isinstance(atom, LogPrime):
        return math.log(atom.prime)
    if isinstance(atom, LogUnitAtom):
        return math.log(_ref_unit(atom.unit, point))
    return math.log(_ref_expr(atom.arg, point))


def _ref_term(t, point):
    total = float(t.coeff)
    total *= _ref_monomial(t.exps, point)
    for i, p in enumerate(t.logpows):
        if p:
            total *= math.log(point[i]) ** p
    for atom, k in t.extras:
        total *= _ref_atom(atom, point) ** k
    total *= _ref_unit(t.unit, point)
    return total


def _ref_expr(e, point):
    # left to right from int 0, as sum() adds floats up to Python 3.11
    total = 0
    for t in e.terms:
        total += _ref_term(t, point)
    return total


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _panel_matches(e, base, a, b, k=1):
    """e's compiled panel over (a, b) against the reference rule over the
    direct evaluator at each node, y = u**k with its Jacobian when k > 1."""
    f = substituted(lambda y: _ref_expr(e, list(base) + [y]), k)
    got, want = e.panel(base, k)(a, b), gk15_reference(f, a, b)
    return all(map(_same_float, got, want))


def test_eval_matches_direct_evaluation_bit_for_bit_on_generated():
    compared = 0
    for seed in range(300):
        rng = random.Random(seed)
        cell, e = random_integrable_instance(rng, 1 + seed % 3)
        for _ in range(4):
            pt = cell.sample_point(rng)
            assert _same_float(e.eval(pt), _ref_expr(e, pt)), (seed, pt)
            y = pt[-1]
            assert _panel_matches(e, pt[:-1], y / 2, y), (seed, pt)
            assert _panel_matches(e, pt[:-1], 0.0, math.sqrt(y), k=2), (seed, pt)
            for t in e.terms:
                assert _same_float(t.eval(pt), _ref_term(t, pt)), (seed, t, pt)
            compared += 1
    assert compared == 1200


def test_eval_matches_direct_evaluation_bit_for_bit_on_opaque_factors():
    unit = PolyUnit.build(
        1, {ExpVec.of([1, 0]): F(1, 3), ExpVec.of([0, F(1, 2)]): F(-1, 4)}
    )
    log_unit = LogUnitAtom(PolyUnit.build(1, {ExpVec.of([F(2, 3), 1]): F(2, 5)}))
    log_expr = LogExprAtom(CExpr(2, (
        Term.make(F(7, 4), [0, 0]),
        Term.make(F(-1, 3), [F(1, 2), F(3, 2)]),
    )))
    terms = (
        Term.make(F(3, 7), [F(1, 2), F(-2, 3)], [1, 2],
                  extras=[(LogPrime(3), 2), (log_unit, 1)], unit=unit),
        Term.make(F(-11, 5), [F(5, 3), 0], [0, 1], extras=[(log_expr, 2)]),
        Term.make(F(13, 9), [F(-1, 4), F(7, 2)],
                  extras=[(LogPrime(5), 1), (LogPrime(7), 3)], unit=unit),
        Term.make(F(-3, 10), [0, 0], unit=unit),
    )
    e = CExpr(2, terms)
    rng = random.Random(5)
    for _ in range(500):
        pt = [0.01 + 0.98 * rng.random() for _ in range(2)]
        assert _same_float(e.eval(pt), _ref_expr(e, pt)), pt
        assert _panel_matches(e, pt[:1], pt[1] / 2, pt[1]), pt
        for t in terms:
            assert _same_float(t.eval(pt), _ref_term(t, pt)), (t, pt)
        assert _same_float(unit.eval(pt), _ref_unit(unit, pt))


def test_fiber_matches_direct_evaluation_bit_for_bit_on_opaque_factors():
    # each opaque factor reads only the base coordinate y1 in one term and
    # the last coordinate y2 in another, so both are computed once per
    # fiber in some terms and at every y in others
    def on(pos, e):
        return ExpVec.of([e, 0] if pos == 0 else [0, e])

    def factors(pos):
        log_unit = LogUnitAtom(PolyUnit.build(1, {on(pos, F(2, 3)): F(2, 5)}))
        log_expr = LogExprAtom(CExpr(2, (
            Term.make(F(7, 4), [0, 0]),
            Term.make(F(-1, 3), on(pos, F(3, 2))),
        )))
        unit = PolyUnit.build(1, {on(pos, F(1, 2)): F(-1, 4)})
        return log_unit, log_expr, unit

    base_only, last_only = factors(0), factors(1)
    terms = []
    for (log_unit, log_expr, unit), exps in (
        (base_only, [F(1, 2), F(-2, 3)]),
        (last_only, [F(5, 3), 0]),
        (base_only, [F(-1, 4), 0]),
        (last_only, [0, F(7, 2)]),
    ):
        terms.append(Term.make(
            F(3, 7), exps, [1, 2],
            extras=[(LogPrime(3), 2), (log_unit, 1), (log_expr, 2)], unit=unit,
        ))
    terms.append(Term.make(F(-3, 10), [0, 0], extras=[(LogPrime(5), 3)]))
    e = CExpr(2, tuple(terms))
    rng = random.Random(11)
    for _ in range(200):
        pt = [0.01 + 0.98 * rng.random() for _ in range(2)]
        assert _panel_matches(e, pt[:1], pt[1] / 2, pt[1]), pt
        assert _panel_matches(e, pt[:1], 0.0, pt[1], k=3), pt


def test_fiber_on_the_empty_base_matches_direct_evaluation():
    # the divergence probe's integrands y^r * log(y)^s over one variable, on
    # its dyadic panels and on panels from 0 over y = u**2
    rng = random.Random(3)
    for r in (F(-3, 2), F(-1), F(-1, 2), F(0), F(5, 2)):
        for s in range(4):
            e = CExpr(1, (Term.make(1, [r], [s]),))
            for k in range(41):
                assert _panel_matches(e, [], 2.0 ** -(k + 1), 2.0 ** -k), (r, s, k)
            for _ in range(10):
                y = rng.random()
                assert _panel_matches(e, [], 0.0, y, k=2), (r, s, y)
    # a lone negative zero term still sums to +0.0 from int 0 at each node
    assert _panel_matches(CExpr(1, (Term.make(-1, [1]),)), [], 0.0, 0.0)
    # the empty sum is int 0 at each node
    assert _panel_matches(CExpr.zero(1), [], 0.25, 0.5)
    assert _panel_matches(CExpr.zero(1), [], 0.0, 0.5, k=2)
    with pytest.raises(ValueError):
        CExpr.zero(2).panel([])


def test_eval_keeps_the_sign_of_a_zero_sum():
    # the sum starts from int 0, so a lone -0.0 term sums to 0.0
    t = Term.make(-1, [1])
    assert math.copysign(1.0, t.eval([0.0])) == -1.0
    assert math.copysign(1.0, CExpr(1, (t,)).eval([0.0])) == 1.0


def test_eval_adds_terms_left_to_right_uncompensated():
    # 1e16 + 1 rounds back to 1e16, so the plain sum is 0.0; sum() from
    # Python 3.12 on compensates the rounding and would give 1.0
    e = CExpr(1, (Term.make(10**16, [1]), Term.make(1, [0]),
                  Term.make(-(10**16), [1])))
    assert e.eval([1.0]) == 0.0
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0 and type(left_sum([])) is int


# -- fiber kernels: compiled once per term structure --------------------------


@pytest.fixture
def kernel_compiles(monkeypatch):
    """The structures compiled from here on, starting from an empty cache."""
    compiled = []
    source = core._kernel_source

    def counting(structure):
        compiled.append(structure)
        return source(structure)

    monkeypatch.setattr(core, "_kernel_source", counting)
    core._fiber_kernel.cache_clear()
    yield compiled
    core._fiber_kernel.cache_clear()


def _one_structure_sum(c, r, p, prime, u):
    """A two-variable sum whose fiber structure does not depend on the
    numbers: every factor kind, a unit read at y and at the base, and a term
    that does not read y."""
    unit = PolyUnit.build(1, {ExpVec.of([0, r]): u, ExpVec.of([r, 0]): -u})
    log_unit = LogUnitAtom(PolyUnit.build(1, {ExpVec.of([0, r]): u}))
    return CExpr(2, (
        Term.make(c, [r, -r], [p, p + 1],
                  extras=[(LogPrime(prime), p), (log_unit, 1)], unit=unit),
        Term.make(-c, [r, 0], [p, 0], unit=unit),
        Term.make(c / 3, [0, r], [0, p]),
    ))


def test_fiber_kernels_are_shared_by_sums_of_one_structure(kernel_compiles):
    # one compile serves both sums, with and without the substitution y = u**k
    rng = random.Random(7)
    for e, x in (
        (_one_structure_sum(F(3, 7), F(1, 2), 1, 3, F(1, 3)), 0.3),
        (_one_structure_sum(F(-11, 5), F(5, 3), 2, 7, F(-2, 9)), 0.8),
    ):
        for _ in range(20):
            a = 0.01 + 0.49 * rng.random()
            b = a + 0.5 * rng.random()
            assert _panel_matches(e, [x], a, b), (x, a, b)
            assert _panel_matches(e, [x], 0.0, b, k=2), (x, b)
    assert len(kernel_compiles) == 1
    assert core._fiber_kernel.cache_info().currsize == 1


def test_fiber_kernel_source_depends_on_the_structure_only():
    def structure(e, base):
        return tuple(core._fiber_term(plan, base, len(base), [])
                     for plan in e._float_plan)

    def literals(source):
        return [node.value for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant)]

    a = structure(_one_structure_sum(F(3, 7), F(1, 2), 1, 3, F(1, 3)), [0.25])
    b = structure(_one_structure_sum(F(-11, 5), F(5, 3), 2, 7, F(-2, 9)), [0.75])
    assert a == b
    source = core._kernel_source(a)
    assert source == core._kernel_source(b)
    # no number of the input: the literals are those of the panel of the
    # empty sum, the rule's 0.5 and k's 1, and the sum's starting int 0
    assert literals(source) == literals(core._kernel_source(()))
    assert sorted(set(literals(source))) == [0, 0.5, 1]


def test_fiber_kernel_cache_evicts_past_its_bound(kernel_compiles):
    e = _one_structure_sum(F(3, 7), F(1, 2), 1, 3, F(1, 3))
    rng = random.Random(3)
    ends = [0.01 + 0.98 * rng.random() for _ in range(20)]
    panel = e.panel([0.4])
    before = [panel(b / 2, b) for b in ends]
    assert len(kernel_compiles) == 1
    # fill the cache with other structures of one or two small terms
    kinds = [core._CONST, core._LOG_Y, core._AT_POINT, (True,), (False, True)]
    terms = [(reads_y, *ks) for n in range(3) for reads_y in (False, True)
             for ks in itertools.product(kinds, repeat=n)]
    others = itertools.chain(((t,) for t in terms),
                             itertools.product(terms, repeat=2))
    for structure in itertools.islice(others, core._KERNEL_CACHE_SIZE):
        core._fiber_kernel(structure)
    info = core._fiber_kernel.cache_info()
    assert info.maxsize == core._KERNEL_CACHE_SIZE
    assert info.currsize == core._KERNEL_CACHE_SIZE
    assert len(kernel_compiles) == core._KERNEL_CACHE_SIZE + 1
    # the first kernel was dropped, so this compiles it again
    panel = e.panel([0.4])
    assert len(kernel_compiles) == core._KERNEL_CACHE_SIZE + 2
    for b, old in zip(ends, before):
        assert panel(b / 2, b) == old
        assert _panel_matches(e, [0.4], b / 2, b)
