"""Shortcuts that reuse canonical data instead of rebuilding it.

term_mul and build_sform build unit-free terms directly from canonical
parts (term_mul merges two sorted extras tuples in one pass), Term.make
takes parts that are canonical already as they are, compose_with_map skips
identity axis steps, normalize merges trivial-unit terms by adding their
coefficients and gives its own results back unchanged.
Each shortcut is checked against a copy of the route it replaces, kept here
as the reference.
"""

import math
import random
from fractions import Fraction as F

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cfcalc.cells import (
    AxisMap,
    HStep,
    _compose_term_axis,
    _compose_term_h,
    compose_with_map,
    map_jacobian,
)
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
    _atom_sort_key,
    terms_from_poly,
    normalize,
    poly_add,
    poly_mul,
    poly_scale,
    term_mul,
)
from cfcalc.errors import CalcError
from cfcalc.generators import random_integrable_instance
from cfcalc.integrate import SForm, build_sform

# -- reference copies of the rebuilding routes --------------------------------


def _make_reference(
    coeff, exps, logpows=None, extras=(), unit=PolyUnit.one()
) -> Term:
    # Term.make with every input through the canonicalizing route: it
    # writes no log, so a variable log among the extras is refused
    if not isinstance(exps, ExpVec):
        exps = ExpVec.of(exps)
    nv = len(exps)
    lp = list(logpows) if logpows is not None else [0] * nv
    coeff = F(coeff)
    atom_pows = {}
    for atom, k in extras:
        if k == 0:
            continue
        if k < 0:
            raise ValueError("extra log factors have positive powers")
        if isinstance(atom, LogVar):
            raise ValueError("variable logs go in logpows, not in extras")
        atom_pows[atom] = atom_pows.get(atom, 0) + k
    if unit is not PolyUnit.one():
        scale, unit = unit.monic()
        coeff *= scale
    ext = tuple(
        sorted(
            ((a, k) for a, k in atom_pows.items() if k != 0),
            key=lambda ak: _atom_sort_key(ak[0]),
        )
    )
    return Term(coeff, exps, tuple(lp), ext, unit)


def _term_mul_reference(a: Term, b: Term) -> list[Term]:
    # every product goes through the canonicalizing route
    nv = a.nvars
    coeff = a.coeff * b.coeff
    exps = ExpVec(tuple(x + y for x, y in zip(a.exps, b.exps)))
    logpows = tuple(x + y for x, y in zip(a.logpows, b.logpows))
    extras = list(a.extras) + list(b.extras)
    if a.unit.is_trivial and b.unit.is_trivial:
        return [_make_reference(coeff, exps, logpows, extras)]
    poly = poly_mul(a.unit.as_poly(nv), b.unit.as_poly(nv))
    return terms_from_poly(coeff, exps, logpows, extras, poly, nv)


def _normalize_reference(e: CExpr) -> CExpr:
    # every same-signature group, trivial units or not, merges by summing
    # its coeff * unit polynomials
    if len(e.terms) <= 1 or e._normal:
        return e
    terms = list(e.terms)
    nv = e.nvars
    for _ in range(10):
        groups = {}
        for t in terms:
            groups.setdefault(t.signature(), []).append(t)
        out = []
        changed = False
        for group in groups.values():
            if len(group) == 1:
                out.append(group[0])
                continue
            changed = True
            poly = {}
            for t in group:
                poly = poly_add(poly, poly_scale(t.unit.as_poly(nv), t.coeff))
            rep = group[0]
            out.extend(
                terms_from_poly(F(1), rep.exps, rep.logpows, list(rep.extras), poly, nv)
            )
        terms = out
        if not changed:
            break
    else:
        raise RuntimeError("normalize did not reach a fixpoint")
    terms.sort(key=lambda t: t.signature())
    result = CExpr(nv, tuple(terms))
    object.__setattr__(result, "_normal", True)
    return result


def _build_sform_reference(t: Term) -> SForm:
    # every piece, trivial unit or not, through as_poly and Term.make
    nv = t.nvars
    pos = nv - 1
    s = t.logpows[pos]
    pieces = [
        (c, t.exps + m) for m, c in poly_scale(t.unit.as_poly(nv), t.coeff).items()
    ]
    p = 1
    for _, exps in pieces:
        den = exps[pos].denominator
        p = p * den // math.gcd(p, den)
    laurent: dict[int, list[Term]] = {}
    analytic: dict[int, list[Term]] = {}
    for c, exps in pieces:
        zpow = int(p * exps[pos] + (p - 1))
        base_term = Term.make(
            c * p ** (s + 1),
            ExpVec(exps.exps[:pos]),
            tuple(t.logpows[:pos]),
            t.extras,
        )
        if zpow <= -1:
            laurent.setdefault(-zpow, []).append(base_term)
        else:
            analytic.setdefault(zpow, []).append(base_term)

    def slots(by_power):
        return tuple(
            (i, normalize(CExpr(nv - 1, tuple(ts)))) for i, ts in sorted(by_power.items())
        )

    return SForm(nv, s, p, slots(laurent), slots(analytic))


def _compose_reference(e: CExpr, steps, with_jacobian: bool) -> CExpr:
    # every step maps every term (an identity step gives the term back),
    # and the Jacobian of all steps is multiplied in
    nv = e.nvars
    terms = list(e.terms)
    for step in steps:
        out: list[Term] = []
        for t in terms:
            if isinstance(step, HStep):
                out.extend(_compose_term_h(t, step, nv))
            elif step.is_identity():
                out.append(t)
            else:
                out.extend(_compose_term_axis(t, step, nv))
        terms = out
    if with_jacobian:
        jac = map_jacobian(steps, nv)
        terms = [x for t in terms for x in _term_mul_reference(t, jac)]
    return normalize(CExpr(nv, tuple(terms)))


def _outcome(f, *args, refusals=CalcError):
    # the value, or the refusal's class and message; any other exception
    # (a ValueError from a broken invariant, say) fails the test
    try:
        return ("value", f(*args))
    except refusals as exc:
        return ("refused", type(exc), str(exc))


def _make_outcome(*args):
    # Term.make refuses bad input with ValueError as well as CalcError
    return _outcome(Term.make, *args, refusals=(CalcError, ValueError))


def _make_reference_outcome(*args):
    return _outcome(_make_reference, *args, refusals=(CalcError, ValueError))


# -- generated canonical terms over two variables ------------------------------

# opaque atoms involve y1 only, so build_sform may integrate out y2
_LOG_UNITS = [
    PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)}),
    PolyUnit.build(1, {ExpVec.of([2, 0]): F(-1, 3)}),
]
_ATOMS = st.sampled_from(
    [LogPrime(2), LogPrime(3), LogPrime(5)] + [LogUnitAtom(u) for u in _LOG_UNITS]
)
_UNITS = st.sampled_from(
    [
        PolyUnit(F(1)),  # trivial, but not the shared instance
        PolyUnit(F(-3, 2)),
        PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)}),
        PolyUnit.build(2, {ExpVec.of([0, 1]): F(-1, 2)}),
        PolyUnit.build(1, {ExpVec.of([1, 1]): F(1, 3), ExpVec.of([0, 2]): F(-1, 3)}),
    ]
)
_EXPS = st.fractions(min_value=-2, max_value=2, max_denominator=3)

terms = st.builds(
    Term.make,
    st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
    st.lists(_EXPS, min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    st.lists(st.tuples(_ATOMS, st.integers(min_value=1, max_value=2)), max_size=3),
    st.one_of(st.just(PolyUnit.one()), _UNITS),
)


# both factors carry extras: prime logs that overlap and interleave, and
# unit logs
_PRIME_ATOMS = st.sampled_from([LogPrime(p) for p in (2, 3, 5, 7, 11, 13)])
_EXTRA_ATOMS = st.one_of(
    _PRIME_ATOMS, st.sampled_from([LogUnitAtom(u) for u in _LOG_UNITS])
)
terms_with_extras = st.builds(
    Term.make,
    st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
    st.lists(_EXPS, min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    st.lists(
        st.tuples(_EXTRA_ATOMS, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=5,
    ),
)


def _all_fraction_coeffs(ts) -> bool:
    return all(type(t.coeff) is F for t in ts)


@settings(max_examples=200, deadline=None)
@given(terms, terms)
def test_term_mul_matches_term_make_route(a, b):
    got = term_mul(a, b)
    assert got == _term_mul_reference(a, b)
    assert _all_fraction_coeffs(got)


@settings(max_examples=300, deadline=None)
@given(terms_with_extras, terms_with_extras)
def test_term_mul_merges_extras_like_term_make(a, b):
    assert a.extras and b.extras
    got = term_mul(a, b)
    assert got == _term_mul_reference(a, b)
    assert _all_fraction_coeffs(got)


def test_term_mul_merge_cases():
    # equal atoms add their powers; the rest interleave in sort-key order,
    # prime logs before unit logs
    u = LogUnitAtom(_LOG_UNITS[0])
    v = LogUnitAtom(_LOG_UNITS[1])
    a = Term.make(2, [1, 0], [0, 1], [(LogPrime(2), 1), (LogPrime(7), 2), (u, 1)])
    b = Term.make(F(1, 3), [0, 1], [1, 0], [(LogPrime(3), 1), (LogPrime(7), 1), (v, 2)])
    c = Term.make(5, [0, 0], [0, 0], [(LogPrime(2), 3), (u, 2)])
    for x, y in [(a, b), (b, a), (a, c), (c, b), (a, a)]:
        got = term_mul(x, y)
        assert got == _term_mul_reference(x, y)
    ((ab,),) = [term_mul(a, b)]
    assert [k for _, k in ab.extras] == [1, 1, 3, 1, 2]
    ((ac,),) = [term_mul(a, c)]
    assert ac.extras == ((LogPrime(2), 4), (LogPrime(7), 2), (u, 3))
    # composite logs of 1 + y1 and 1 + 2*y1 share a sort key, so their order
    # is the one Term.make gives them
    y = ExpVec.of([1, 0])
    e1, e2 = (
        LogExprAtom(CExpr(2, (Term.make(1, [0, 0]), Term.make(q, y))))
        for q in (1, 2)
    )
    d = Term.make(1, y, None, [(LogPrime(3), 1), (e2, 1)])
    f = Term.make(2, y, None, [(e1, 1), (e2, 2)])
    for x, z in [(d, f), (f, d), (f, f)]:
        assert term_mul(x, z) == _term_mul_reference(x, z)


def test_term_mul_direct_route_cases():
    # trivial units and extras on at most one side: the products that
    # term_mul builds without a merge
    u = PolyUnit.build(1, {ExpVec.of([1, 0]): F(1, 2)})
    plain = Term.make(F(3, 2), [1, 0], [0, 1])
    opaque = Term.make(
        -2, [F(1, 2), 0], [1, 0], [(LogPrime(3), 2), (LogUnitAtom(u), 1)]
    )
    logs = Term.make(5, [0, 1], [0, 0], [(LogPrime(2), 1)])
    constant = Term.make(F(1, 3), [0, 0])
    for a, b in [(plain, opaque), (opaque, plain), (logs, constant), (constant, logs)]:
        assert term_mul(a, b) == _term_mul_reference(a, b)


@settings(max_examples=200, deadline=None)
@given(terms)
def test_build_sform_matches_term_make_route(t):
    got = build_sform(t)
    assert got == _build_sform_reference(t)
    for _, e in got.laurent + got.analytic:
        assert _all_fraction_coeffs(e.terms)


@settings(max_examples=100, deadline=None)
@given(terms)
def test_make_is_idempotent_on_canonical_parts(t):
    # Term.make takes a trivial unit and a Fraction coefficient as they are;
    # any other unit is made monic, its constant going to the coefficient,
    # and an int coefficient becomes a Fraction
    assert Term.make(t.coeff, t.exps, t.logpows, t.extras, t.unit) == t
    again = Term.make(t.coeff, t.exps, t.logpows, t.extras, PolyUnit(F(2)))
    assert again.coeff == 2 * t.coeff and again.unit.is_trivial
    n = Term.make(7, t.exps)
    assert type(n.coeff) is F and n.coeff == 7


# extras in any order, with repeats, zero powers, composite and unit logs,
# and variable logs, which both routes refuse; as a tuple or a list
_MAKE_ATOMS = st.sampled_from(
    [LogPrime(2), LogPrime(3), LogPrime(5), LogComposite(6, (2, 3))]
    + [LogVar(0), LogVar(1)]
    + [LogUnitAtom(u) for u in _LOG_UNITS]
)
_MAKE_EXTRAS = st.lists(
    st.tuples(_MAKE_ATOMS, st.integers(min_value=-1, max_value=3)), max_size=4
)


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
    st.lists(_EXPS, min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    st.one_of(_MAKE_EXTRAS, _MAKE_EXTRAS.map(tuple)),
    st.one_of(st.just(PolyUnit.one()), _UNITS),
)
def test_make_matches_the_canonicalizing_route(coeff, exps, logpows, extras, unit):
    args = (coeff, exps, logpows, extras, unit)
    assert _make_outcome(*args) == _make_reference_outcome(*args)


@pytest.mark.parametrize(
    "extras, refused",
    [
        ((), False),
        (((LogPrime(2), 1), (LogPrime(3), 2), (LogPrime(13), 1)), False),
        # canonical parts in the wrong order, repeated or with a zero power
        (((LogPrime(3), 1), (LogPrime(2), 1)), False),
        (((LogPrime(2), 1), (LogPrime(2), 2)), False),
        (((LogPrime(2), 0), (LogPrime(3), 1)), False),
        # unit and composite logs, which sort after and among the primes
        (((LogPrime(5), 1), (LogUnitAtom(_LOG_UNITS[0]), 2)), False),
        (((LogUnitAtom(_LOG_UNITS[1]), 1), (LogComposite(6, (2, 3)), 1)), False),
        # negative powers, and variable logs, which belong in logpows
        (((LogPrime(2), -1),), True),
        (((LogVar(1), 2), (LogPrime(5), 1)), True),
        (((LogVar(0), 1),), True),
        (((LogPrime(3), 1), (LogUnitAtom(_LOG_UNITS[0]), -2)), True),
    ],
)
def test_make_cases_match_the_canonicalizing_route(extras, refused):
    for ex in (extras, list(extras)):
        for logpows in (None, (0, 1), [2, 0]):
            args = (F(3, 2), ExpVec.of([F(1, 2), 0]), logpows, ex)
            got = _make_outcome(*args)
            assert got == _make_reference_outcome(*args)
            assert got[0] == ("refused" if refused else "value")
        # a negative log power is refused on every route
        args = (F(3, 2), ExpVec.of([F(1, 2), 0]), (-1, 0), ex)
        assert _make_outcome(*args)[0] == "refused"
        assert _make_outcome(*args) == _make_reference_outcome(*args)


_STEPS = st.sampled_from(
    [
        AxisMap(0),
        AxisMap(1),
        AxisMap(0, scale=F(1, 4)),
        AxisMap(1, zeta=-1, scale=F(1, 2)),
        AxisMap(0, eps=-1),
        HStep(1, ExpVec.of([1, 0]), PolyUnit(F(1, 4)), F(1, 2)),
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(terms, max_size=4), st.lists(_STEPS, max_size=4), st.booleans())
def test_compose_with_map_skips_identity_steps_exactly(ts, steps, with_jacobian):
    # a repeated signature as well, so the final merge has work to do
    e = CExpr(2, tuple(ts + [t.scaled(F(-1, 2)) for t in ts[:1]]))
    got = _outcome(compose_with_map, e, steps, with_jacobian)
    assert got == _outcome(_compose_reference, e, steps, with_jacobian)


@settings(max_examples=60, deadline=None)
@given(st.lists(terms, max_size=4), st.booleans())
def test_compose_with_identity_steps_only_is_normalize(ts, with_jacobian):
    e = CExpr(2, tuple(ts))
    assert compose_with_map(e, [AxisMap(1), AxisMap(0)], with_jacobian) == normalize(e)
    assert compose_with_map(e, [], with_jacobian) == normalize(e)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2, 3]))
def test_unmarked_copy_renormalizes_to_the_same_sum(seed, nvars):
    _, e = random_integrable_instance(random.Random(seed), nvars)
    n = normalize(e)
    assert normalize(n) is n
    # a copy of the normal sum is equal and hashes alike (the mark is not
    # a field), carries no mark, and normalizes to the same sum
    copy = CExpr(e.nvars, n.terms)
    assert copy == n and hash(copy) == hash(n)
    assert normalize(copy) == n


def test_map_terms_returns_the_sum_when_no_term_changes():
    t = Term.make(2, [1, 0], [0, 1], [(LogPrime(2), 1)])
    n = normalize(CExpr(2, (t, Term.make(1, [0, 1]))))
    assert n.map_terms(lambda x: x) is n
    doubled = n.map_terms(lambda x: x.scaled(2))
    assert doubled is not n and doubled == CExpr(2, tuple(x.scaled(2) for x in n.terms))


# sums with repeated signatures: copies of drawn terms with another
# coefficient (the opposite one among them) and the same or another unit,
# and at times the negated group as well, so that it cancels; shuffled
_COPY_COEFFS = st.sampled_from([F(-1), F(1), F(2), F(-1, 2), F(3, 5)])


@st.composite
def sums_with_repeats(draw):
    ts = []
    for t in draw(st.lists(terms, min_size=1, max_size=4)):
        group = [t]
        for q in draw(st.lists(_COPY_COEFFS, max_size=3)):
            unit = draw(st.one_of(st.just(t.unit), st.just(PolyUnit.one()), _UNITS))
            group.append(Term.make(q * t.coeff, t.exps, t.logpows, t.extras, unit))
        if draw(st.booleans()):
            group += [x.scaled(-1) for x in group]
        ts += group
    return CExpr(2, tuple(draw(st.permutations(ts))))


@settings(max_examples=200, deadline=None)
@given(sums_with_repeats())
def test_normalize_matches_the_polynomial_route(e):
    got = _outcome(normalize, e)
    want = _outcome(_normalize_reference, e)
    assert got == want
    if got[0] == "value":
        # equal terms in the same order, the same normal mark (a single
        # term comes back as it is), Fraction coefficients
        n, ref = got[1], want[1]
        assert n.terms == ref.terms
        assert n._normal == ref._normal == (len(e.terms) > 1)
        assert _all_fraction_coeffs(n.terms)
        assert normalize(n) is n


def test_normalize_adds_trivial_unit_coefficients():
    u = LogUnitAtom(_LOG_UNITS[0])
    t = Term.make(F(3, 2), [F(1, 2), 0], [0, 1], [(LogPrime(2), 1), (u, 1)])
    other = Term.make(5, [0, 1])
    cases = [
        ([t, t], [t.scaled(2)]),
        ([t, other, t.scaled(F(-1, 3))], [t.scaled(F(2, 3)), other]),
        # opposite coefficients cancel and the term is dropped
        ([t, other, t.scaled(-1)], [other]),
        ([t, t.scaled(-1)], []),
        ([t, t.scaled(2), t.scaled(-3), other, other.scaled(-1)], []),
    ]
    for ts, want in cases:
        e = CExpr(2, tuple(ts))
        n = normalize(e)
        assert n == _normalize_reference(e)
        assert sorted(n.terms, key=Term.signature) == list(n.terms)
        assert set(n.terms) == set(want) and len(n.terms) == len(want)


def test_trivial_unit_groups_skip_the_polynomial_route(monkeypatch):
    import cfcalc.core as core

    calls = {"poly_add": 0, "terms_from_poly": 0}

    def counted(name):
        f = getattr(core, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(core, name, counted(name))
    t = Term.make(F(3, 2), [1, 0], [0, 1], [(LogPrime(3), 2)])
    n = normalize(CExpr(2, (t, t.scaled(F(1, 3)))))
    assert n.terms == (t.scaled(F(4, 3)),)
    assert normalize(CExpr(2, (t, t.scaled(-1)))).terms == ()
    assert calls == {"poly_add": 0, "terms_from_poly": 0}
    # a group with a nontrivial unit still sums unit polynomials
    v = Term.make(1, [1, 0], [0, 1], [(LogPrime(3), 2)], unit=_LOG_UNITS[0])
    normalize(CExpr(2, (t, v)))
    assert calls["poly_add"] == 2 and calls["terms_from_poly"] == 1
