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

from .cells import Cell, FatVar, MonomialBound, Zero, ZERO, classify
from .core import CExpr, ExpVec, PolyUnit, Term
from .tables import table

HALF_EXPS = [Fraction(k, 2) for k in range(-4, 5)]
POS_HALF_EXPS = [Fraction(k, 2) for k in range(1, 5)]
COEFF_POOL = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]
BOUND_COEFFS = [Fraction(1), Fraction(1), Fraction(1, 4)]


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
    order certificate always holds.  The draws and the cell do not depend
    on the table: the cell is certified once per process through
    _certified, and the table's equal instance is returned."""
    specs: list[FatVar] = []
    undet: list[int] = []
    for i in range(nvars):
        exps = [Fraction(0)] * nvars
        for j in undet:
            if rng.random() < 0.5:
                exps[j] = Fraction(rng.randint(1, 2))
        unit = PolyUnit.one()
        coeff = rng.choice(BOUND_COEFFS)
        if bound_units and undet and rng.random() < 0.3:
            mono = [Fraction(0)] * nvars
            mono[rng.choice(undet)] = Fraction(rng.randint(1, 2))
            unit = PolyUnit.build(1, {ExpVec(tuple(mono)): Fraction(1, 2)})
            coeff = min(coeff, Fraction(1, 4))
        upper = MonomialBound(coeff, ExpVec(tuple(exps)), unit)
        lower: Zero | MonomialBound = ZERO
        determined = False
        if rng.random() < constrained_prob:
            if rng.random() < determined_prob:
                # perfect-square scale keeps half-integer bound powers exact
                lower = MonomialBound(
                    coeff * rng.choice([Fraction(1, 4), Fraction(1, 16)]),
                    ExpVec(tuple(exps)),
                    unit,
                )
                determined = True
            elif undet:
                extra = [Fraction(0)] * nvars
                extra[rng.choice(undet)] = Fraction(rng.randint(1, 2))
                lower = MonomialBound(
                    coeff * Fraction(1, 4),
                    ExpVec(tuple(e + x for e, x in zip(exps, extra))),
                    unit,
                )
        specs.append(FatVar(lower, upper))
        if not determined:
            undet.append(i)
    return _certified(Cell(tuple(specs)))


# certified cells kept, least recently used dropped first; validate's
# 192-seed benchmark pool draws 90 distinct cells
_CERTIFIED_TABLE_SIZE = 256


@table("generators._certified", _CERTIFIED_TABLE_SIZE)
def _certified(cell: Cell) -> Cell:
    """The cell, once Cell.validate() has certified its bounds and their
    order; kept per process, keyed by the frozen cell.  A cell that fails
    the certificate raises on every call and is not stored."""
    cell.validate()
    return cell


def random_prepared_terms(
    rng: random.Random,
    cell: Cell,
    max_terms: int = 4,
    max_logpow: int = 3,
    exp_pool: Sequence[Fraction] = tuple(HALF_EXPS),
    with_units: bool = False,
    last_var_exp_pool: Sequence[Fraction] | None = None,
) -> CExpr:
    """Random prepared sum with distinct signatures, supported on the
    undetermined positions of the cell."""
    nv = cell.nvars
    undet = classify(cell).undetermined_positions()
    terms: list[Term] = []
    sigs: set = set()
    for _ in range(rng.randint(1, max_terms)):
        exps = [Fraction(0)] * nv
        logpows = [0] * nv
        for j in undet:
            pool = (
                last_var_exp_pool
                if (last_var_exp_pool is not None and j == nv - 1)
                else exp_pool
            )
            exps[j] = rng.choice(list(pool))
            if rng.random() < 0.5:
                logpows[j] = rng.randint(0, max_logpow)
        unit = PolyUnit.one()
        if with_units and rng.random() < 0.4:
            mono = [Fraction(0)] * nv
            mono[rng.randrange(nv)] = Fraction(rng.randint(1, 2))
            unit = PolyUnit.build(
                1, {ExpVec(tuple(mono)): rng.choice([Fraction(1, 2), Fraction(-1, 4)])}
            )
        t = Term.make(
            rng.choice(COEFF_POOL), ExpVec(tuple(exps)), tuple(logpows), unit=unit
        )
        if t.signature() in sigs:
            continue
        sigs.add(t.signature())
        terms.append(t)
    if not terms:
        terms.append(Term.make(1, ExpVec.zero(nv)))
    return CExpr(nv, tuple(terms))


def random_integrable_instance(
    rng: random.Random, nvars: int, with_units: bool = True
) -> tuple[Cell, CExpr]:
    """A certified-integrable (cell, prepared expr) pair for the closure
    check: when the last fiber reaches 0 every term exponent stays > -1."""
    cell = random_cell(rng, nvars, constrained_prob=0.5)
    pos = nvars - 1
    unconstrained = isinstance(cell.specs[pos].lower, Zero)
    pool = (
        [Fraction(k, 2) for k in range(-1, 5)]
        if unconstrained
        else list(HALF_EXPS)
    )
    e = random_prepared_terms(
        rng, cell, max_terms=3, max_logpow=2, with_units=with_units,
        last_var_exp_pool=pool,
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


def random_decay_instance(rng: random.Random, nvars: int) -> tuple[Cell, CExpr]:
    """A prepared sum with positive last-variable exponents (dominant
    exponent > 0), over an all-undetermined cell."""
    cell = random_cell(rng, nvars, constrained_prob=0.3, determined_prob=0.0)
    e = random_prepared_terms(
        rng, cell, max_terms=3, max_logpow=2,
        last_var_exp_pool=POS_HALF_EXPS,
    )
    # force a genuinely positive dominant exponent on the last variable
    pos = nvars - 1
    fixed = [
        t if t.exps[pos] > 0 else t.with_exps(t.exps.with_entry(pos, Fraction(1, 2)))
        for t in e.terms
    ]
    dedup: dict = {}
    for t in fixed:
        dedup[t.signature()] = t
    return cell, CExpr(nvars, tuple(dedup.values()))
