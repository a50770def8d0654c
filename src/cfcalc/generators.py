"""Seeded random instance generators for validation and acceptance tests.

Bound coefficients come from pools compatible with the exponent denominators
in play (so symbolic bound substitution stays rational); term exponents use
half-integer steps, log powers stay small.  All draws go through an explicit
random.Random so runs are reproducible from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .cells import Cell, FatVar, MonomialBound, Zero, ZERO
from .core import CExpr, ExpVec, PolyUnit, Term
from .tables import table

HALF_EXPS = tuple(Fraction(k, 2) for k in range(-4, 5))
# the last variable's exponents over a fiber that reaches 0: all above -1
INTEGRABLE_EXPS = tuple(Fraction(k, 2) for k in range(-1, 5))
COEFF_POOL = tuple(Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2))
UNIT_COEFFS = (Fraction(1, 2), Fraction(-1, 4))
# a bound's coefficient is 1/d for d drawn from these
BOUND_DENOMINATORS = (1, 1, 4)
_ZERO = Fraction(0)


def random_cell(
    rng: random.Random,
    nvars: int,
    constrained_prob: float = 0.4,
    determined_prob: float = 0.5,
    bound_units: bool = False,
) -> Cell:
    """A certified normalized cell with monomial bounds.

    Bounds are supported on earlier asymptotically undetermined positions
    (prepared shape); lower bounds are built under the upper bound so the
    order certificate always holds."""
    return _draw_cell(rng, nvars, constrained_prob, determined_prob, bound_units)[0]


def _draw_cell(
    rng: random.Random,
    nvars: int,
    constrained_prob: float,
    determined_prob: float,
    bound_units: bool,
) -> tuple[Cell, tuple[int, ...]]:
    """random_cell and the cell's undetermined positions.

    The draws go into a record of small ints, one (exps, d, unit, lower)
    per variable: the upper bound 1/d * y^exps * unit, with unit None or
    (pos, power) for 1 + 1/2 * y_pos^power; lower None for 0, an int s for
    the upper bound / s (the variable is determined), or (pos, power) for
    1/(4d) * y^exps * y_pos^power * unit.  Records and cells correspond one
    to one, and _cell builds and certifies each cell once per process; the
    draws do not depend on the table."""
    record = []
    undet: list[int] = []
    for _ in range(nvars):
        exps = [0] * nvars
        for j in undet:
            if rng.random() < 0.5:
                exps[j] = rng.randint(1, 2)
        d = rng.choice(BOUND_DENOMINATORS)
        unit = None
        if bound_units and undet and rng.random() < 0.3:
            # the power is drawn before the position
            power = rng.randint(1, 2)
            unit = (rng.choice(undet), power)
            d = max(d, 4)  # the coefficient is at most 1/4 under a unit
        lower = None
        if rng.random() < constrained_prob:
            if rng.random() < determined_prob:
                # perfect-square scale keeps half-integer bound powers exact
                lower = rng.choice((4, 16))
            elif undet:
                power = rng.randint(1, 2)
                lower = (rng.choice(undet), power)
        if not isinstance(lower, int):  # not determined
            undet.append(len(record))
        record.append((tuple(exps), d, unit, lower))
    return _cell(nvars, tuple(record)), tuple(undet)


# cells kept, least recently used dropped first; validate's 192-seed
# benchmark pool draws 90 distinct cells
_CELL_TABLE_SIZE = 256


@table("generators._cell", _CELL_TABLE_SIZE)
def _cell(nvars: int, record: tuple) -> Cell:
    """The cell of a _draw_cell record, once Cell.validate() has certified
    its bounds and their order.  A cell that fails the certificate raises
    on every call and is not stored."""
    specs = []
    for powers, d, unit_at, lower_at in record:
        exps = ExpVec(tuple(map(Fraction, powers)))
        coeff = Fraction(1, d)
        unit = (PolyUnit.one() if unit_at is None
                else _unit(nvars, *unit_at, Fraction(1, 2)))
        lower: Zero | MonomialBound = ZERO
        if isinstance(lower_at, int):
            lower = MonomialBound(coeff / lower_at, exps, unit)
        elif lower_at is not None:
            lower = MonomialBound(coeff / 4, exps + ExpVec.unit(nvars, *lower_at), unit)
        specs.append(FatVar(lower, MonomialBound(coeff, exps, unit)))
    cell = Cell(tuple(specs))
    cell.validate()
    return cell


# units kept: two powers and the two UNIT_COEFFS per position (a bound's
# unit is one of them), 24 over 1 to 3 variables
_UNIT_TABLE_SIZE = 32


@table("generators._unit", _UNIT_TABLE_SIZE)
def _unit(nvars: int, pos: int, power: int, coeff: Fraction) -> PolyUnit:
    """1 + coeff * y_pos^power."""
    return PolyUnit.build(1, {ExpVec.unit(nvars, pos, power): coeff})


def random_prepared_terms(
    rng: random.Random,
    nvars: int,
    undet: Sequence[int],
    max_terms: int = 4,
    max_logpow: int = 3,
    exp_pool: Sequence[Fraction] = HALF_EXPS,
    with_units: bool = False,
    last_var_exp_pool: Sequence[Fraction] | None = None,
) -> CExpr:
    """Random prepared sum with distinct signatures, supported on the
    positions undet (a cell's undetermined positions)."""
    terms: dict = {}  # the first term drawn of each signature
    for _ in range(rng.randint(1, max_terms)):
        exps = [_ZERO] * nvars
        logpows = [0] * nvars
        for j in undet:
            pool = (
                last_var_exp_pool
                if (last_var_exp_pool is not None and j == nvars - 1)
                else exp_pool
            )
            exps[j] = rng.choice(pool)
            if rng.random() < 0.5:
                logpows[j] = rng.randint(0, max_logpow)
        unit = PolyUnit.one()
        if with_units and rng.random() < 0.4:
            # the power is drawn before the position
            power = rng.randint(1, 2)
            pos = rng.randrange(nvars)
            unit = _unit(nvars, pos, power, rng.choice(UNIT_COEFFS))
        # the canonical parts Term.make would build: no extras, and a unit
        # that is 1 or has the constant 1
        t = Term(rng.choice(COEFF_POOL), ExpVec(tuple(exps)), tuple(logpows),
                 (), unit)
        terms.setdefault(t.signature(), t)
    return CExpr(nvars, tuple(terms.values()))


def random_integrable_instance(
    rng: random.Random, nvars: int, with_units: bool = True
) -> tuple[Cell, CExpr]:
    """A certified-integrable (cell, prepared expr) pair for the closure
    check: when the last fiber reaches 0 every term exponent stays > -1."""
    cell, undet = _draw_cell(rng, nvars, 0.5, 0.5, False)
    unconstrained = isinstance(cell.specs[nvars - 1].lower, Zero)
    e = random_prepared_terms(
        rng, nvars, undet, max_terms=3, max_logpow=2, with_units=with_units,
        last_var_exp_pool=INTEGRABLE_EXPS if unconstrained else HALF_EXPS,
    )
    return cell, e


def random_probe_sum(rng: random.Random) -> tuple[Cell, CExpr]:
    """A small prepared sum over a one-variable fiber (0, 1) for the
    integrability-equivalence check."""
    cell = Cell((FatVar(ZERO, MonomialBound.const(1, 1)),))
    terms: list[Term] = []
    sigs: set = set()
    for _ in range(rng.randint(1, 4)):
        r = Fraction(rng.randint(-4, 4), 2)
        s = rng.randint(0, 3)
        if (r, s) in sigs:
            continue
        sigs.add((r, s))
        terms.append(Term.make(rng.choice(COEFF_POOL), ExpVec.of([r]), (s,)))
    if not terms:
        terms.append(Term.make(1, ExpVec.of([Fraction(-1)])))
    return cell, CExpr(1, tuple(terms))
