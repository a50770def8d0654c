"""The per-process tables: one registry, the cell normalization table,
the divergence probe table, and validate's generator and round-trip
tables."""

import importlib
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings

import cfcalc
from cfcalc import cells, cli, core, generators, integrate, oracle, tables
from cfcalc.cells import (
    ZERO,
    Cell,
    FatVar,
    MonomialBound,
    Zero,
    classify,
    normalize_cell,
)
from cfcalc.cli import main
from cfcalc.core import (
    CExpr,
    ExpVec,
    PolyUnit,
    Term,
    differentiate_expr,
    is_zero,
    normalize,
)
from cfcalc.errors import CalcError, ParseError, UncertifiedCell
from cfcalc.generators import random_cell, random_integrable_instance
from cfcalc.integrate import (
    antiderivative_pow_log,
    antiderivative_pow_log_recursive,
)
from cfcalc.oracle import divergence_probe
from cfcalc.parser import parse
from cfcalc.prepare import substitute_thin
from cfcalc.tables import clear_tables, table_stats
from tests.conftest import cell_texts

# functools caches that are not tables, with the reason
NOT_TABLES = {
    # one argument parser built from constants: it keeps nothing of any
    # input, so no test can see what an earlier test computed
    "cfcalc.cli.build_parser",
}

# in the order that `import cfcalc.cli` registers them
TABLES = ("core._fiber_kernel", "cells.normalize_cell", "generators._cell",
          "generators._unit", "integrate.integrate_shape",
          "oracle.divergence_probe", "cli._round_trip_holds")

README_CELLS = [
    "{0<y1<1}",
    "{0<y1<1, 0<y2<y1}",
    "{2 < x1 < inf}",
    "{0<x1<1, x1^(2) < x2 < x1}",
    "{5<x1<6}",
    "{1<y1<2}",
    "{0<y1<1, 1/3<y2<1}",
    "{1<y1<2, 0<y2<y1}",
    "{x1 = 1/2, 0<x2<1}",
    # refused: a fiber across 0, and a bound order that is not certified
    "{-1<x1<1}",
    "{0<y1<1, 2*y1<y2<y1}",
]


def test_every_functools_cache_is_registered():
    registered = set(map(id, tables._TABLES.values()))
    unregistered = []
    for info in pkgutil.iter_modules(cfcalc.__path__):
        module = importlib.import_module(f"cfcalc.{info.name}")
        for name, value in vars(module).items():
            qualified = f"{module.__name__}.{name}"
            if (hasattr(value, "cache_clear") and id(value) not in registered
                    and qualified not in NOT_TABLES):
                unregistered.append(qualified)
    assert not unregistered
    # the registration order follows whichever test module imported a
    # module first; a fresh interpreter shows the order of the command
    assert set(table_stats()) == set(TABLES)
    fresh = subprocess.run(
        [sys.executable, "-c", "import cfcalc.cli, cfcalc.tables; "
         "print(*cfcalc.tables.table_stats())"],
        capture_output=True, text=True, check=True,
    )
    assert tuple(fresh.stdout.split()) == TABLES


def _raw_cell(cell: str):
    form = parse(f"1 on {cell}")
    return substitute_thin(form.raw_cell, form.expr)[0]


def _check_cell_table(raw):
    before = table_stats()["cells.normalize_cell"]["size"]
    try:
        fresh = normalize_cell.__wrapped__(raw)
    except CalcError as exc:
        # a refusal is not stored: it raises again, with the same text
        for _ in range(2):
            with pytest.raises(CalcError) as info:
                normalize_cell(raw)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            assert table_stats()["cells.normalize_cell"]["size"] == before
        return
    cold = normalize_cell(raw)
    warm = normalize_cell(raw)
    assert cold == fresh and warm == fresh
    assert warm is cold
    assert table_stats()["cells.normalize_cell"]["size"] in (before, before + 1)


@pytest.mark.parametrize("cell", README_CELLS)
def test_readme_cells_through_the_cell_table(cell):
    _check_cell_table(_raw_cell(cell))


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(cell_texts())
def test_seeded_cells_through_the_cell_table(drawn):
    # the table is not emptied between examples, so a cell drawn again, or
    # one that a wrong key would confuse with it, meets an earlier entry
    try:
        raw = _raw_cell(drawn[1])
    except (ParseError, CalcError):
        return
    _check_cell_table(raw)


def test_clear_tables_empties_every_table(capsys):
    assert main(["integrate", "log(y2) on {0<y1<1, 0<y2<y1}"]) == 0
    assert main(["validate", "--seed", "7"]) == 0
    capsys.readouterr()
    assert all(table_stats()[name]["size"] for name in TABLES)
    clear_tables()
    assert table_stats() == {
        name: {"hits": 0, "misses": 0, "size": 0, "maxsize": size}
        for name, size in zip(TABLES, (core._KERNEL_CACHE_SIZE,
                                       cells._CELL_TABLE_SIZE,
                                       generators._CELL_TABLE_SIZE,
                                       generators._UNIT_TABLE_SIZE,
                                       integrate._SHAPE_TABLE_SIZE,
                                       oracle._PROBE_TABLE_SIZE,
                                       cli._ROUND_TRIP_TABLE_SIZE))
    }


def _size(name):
    return table_stats()[name]["size"]


def _bits(report):
    """A probe report with every float written out bit for bit."""
    def exact(x):
        return None if x is None else x.hex()
    return (report.verdict, tuple(map(exact, report.partials)),
            report.growth_model, exact(report.limit))


# validate's probe battery: y^r (log y)^s over (0, 1), no base
BATTERY = [
    (CExpr(1, (Term.make(1, [r], [s]),)), [], 1.0)
    for r in (F(-3, 2), F(-1), F(-1, 2)) for s in range(4)
]
# y1^(1/2) * y2^(-1/2) * log(y2) over (0, 1/2) at a base coordinate
TWO_VARIABLE = CExpr(2, (Term.make(1, [F(1, 2), F(-1, 2)], [0, 1]),))


def _fresh_probe(e, point, hi):
    # the last argument is read only by the table key
    return oracle._divergence_probe.__wrapped__(
        e, tuple(point), hi, 40, 1e-7, None)


@pytest.mark.parametrize("e,point,hi", BATTERY + [(TWO_VARIABLE, [0.25], 0.5)])
def test_tabled_probe_is_the_fresh_report(e, point, hi):
    fresh = _fresh_probe(e, point, hi)
    cold = divergence_probe(e, point, hi)
    warm = divergence_probe(e, list(point), hi)
    assert _bits(cold) == _bits(fresh)
    assert warm is cold
    assert isinstance(cold.partials, tuple)
    assert _size("oracle.divergence_probe") == 1


def test_probe_keeps_signed_zeros_and_types_apart():
    reports = [divergence_probe(TWO_VARIABLE, [x], 0.5)
               for x in (0.0, -0.0, 1, 1.0)]
    assert _size("oracle.divergence_probe") == 4
    assert len(set(map(id, reports))) == 4
    for x, report in zip((0.0, -0.0, 1, 1.0), reports):
        assert _bits(report) == _bits(_fresh_probe(TWO_VARIABLE, [x], 0.5))


def test_probe_with_a_wrong_base_point_raises_again_and_stores_nothing():
    divergence_probe(*BATTERY[0])
    for _ in range(2):
        with pytest.raises(ValueError, match="base point has 1 coordinates"):
            divergence_probe(TWO_VARIABLE, [], 0.5)
        assert _size("oracle.divergence_probe") == 1


def _draw(seed_, **kwargs):
    """random_cell from a seeded generator, and the generator's state."""
    rng = random.Random(seed_)
    cell = random_cell(rng, 1 + seed_ % 3, **kwargs)
    return cell, rng.getstate()


@pytest.mark.parametrize("bound_units", [False, True])
def test_tabled_random_cell_is_the_uncached_build(bound_units, monkeypatch):
    seeds = range(200)
    tabled = [_draw(s, bound_units=bound_units) for s in seeds]
    distinct = _size("generators._cell")
    assert 0 < distinct <= len(seeds)
    # the same draws with the cell built and certified afresh on every call
    monkeypatch.setattr(generators, "_cell", generators._cell.__wrapped__)
    for s, (cell, state) in zip(seeds, tabled):
        fresh, fresh_state = _draw(s, bound_units=bound_units)
        assert cell == fresh and state == fresh_state
        fresh.validate()
    monkeypatch.undo()
    # a cell drawn again is the table's instance
    for s, (cell, _) in zip(seeds, tabled):
        assert _draw(s, bound_units=bound_units)[0] is cell
    assert _size("generators._cell") == distinct


def test_uncertifiable_cell_raises_again_and_is_not_stored():
    # a lower bound equal to the upper bound 1: no value lies between them
    record = (((0,), 1, None, 1),)
    for _ in range(2):
        with pytest.raises(UncertifiedCell, match="cannot certify"):
            generators._cell(1, record)
        assert _size("generators._cell") == 0


# The generators as they were before draw records, kept as the reference:
# the tabled generators must draw the same numbers in the same order and
# build equal cells and sums.
_HALF_EXPS = [F(k, 2) for k in range(-4, 5)]
_COEFF_POOL = [F(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


def _reference_cell(rng, nvars, constrained_prob=0.4, determined_prob=0.5,
                    bound_units=False):
    specs = []
    undet = []
    for i in range(nvars):
        exps = [F(0)] * nvars
        for j in undet:
            if rng.random() < 0.5:
                exps[j] = F(rng.randint(1, 2))
        unit = PolyUnit.one()
        coeff = rng.choice([F(1), F(1), F(1, 4)])
        if bound_units and undet and rng.random() < 0.3:
            mono = [F(0)] * nvars
            mono[rng.choice(undet)] = F(rng.randint(1, 2))
            unit = PolyUnit.build(1, {ExpVec(tuple(mono)): F(1, 2)})
            coeff = min(coeff, F(1, 4))
        upper = MonomialBound(coeff, ExpVec(tuple(exps)), unit)
        lower = ZERO
        determined = False
        if rng.random() < constrained_prob:
            if rng.random() < determined_prob:
                lower = MonomialBound(coeff * rng.choice([F(1, 4), F(1, 16)]),
                                      ExpVec(tuple(exps)), unit)
                determined = True
            elif undet:
                extra = [F(0)] * nvars
                extra[rng.choice(undet)] = F(rng.randint(1, 2))
                lower = MonomialBound(
                    coeff * F(1, 4),
                    ExpVec(tuple(e + x for e, x in zip(exps, extra))), unit)
        specs.append(FatVar(lower, upper))
        if not determined:
            undet.append(i)
    cell = Cell(tuple(specs))
    cell.validate()
    return cell


def _reference_terms(rng, cell, max_terms, max_logpow, with_units,
                     last_var_exp_pool):
    nv = cell.nvars
    undet = classify(cell).undetermined_positions()
    terms = []
    sigs = set()
    for _ in range(rng.randint(1, max_terms)):
        exps = [F(0)] * nv
        logpows = [0] * nv
        for j in undet:
            pool = last_var_exp_pool if j == nv - 1 else _HALF_EXPS
            exps[j] = rng.choice(list(pool))
            if rng.random() < 0.5:
                logpows[j] = rng.randint(0, max_logpow)
        unit = PolyUnit.one()
        if with_units and rng.random() < 0.4:
            mono = [F(0)] * nv
            mono[rng.randrange(nv)] = F(rng.randint(1, 2))
            unit = PolyUnit.build(
                1, {ExpVec(tuple(mono)): rng.choice([F(1, 2), F(-1, 4)])})
        t = Term.make(rng.choice(_COEFF_POOL), ExpVec(tuple(exps)),
                      tuple(logpows), unit=unit)
        if t.signature() in sigs:
            continue
        sigs.add(t.signature())
        terms.append(t)
    return CExpr(nv, tuple(terms))


def _reference_instance(rng, nvars, with_units):
    cell = _reference_cell(rng, nvars, constrained_prob=0.5)
    unconstrained = isinstance(cell.specs[nvars - 1].lower, Zero)
    pool = [F(k, 2) for k in range(-1, 5)] if unconstrained else _HALF_EXPS
    return cell, _reference_terms(rng, cell, 3, 2, with_units, pool)


@pytest.mark.parametrize("flag", [False, True])
def test_tabled_generators_draw_as_the_reference(flag):
    # random_cell with bound_units=flag and random_integrable_instance with
    # with_units=flag, from the tables warmed by earlier seeds: the same
    # instances, and the generator left in the same state
    for seed_ in range(1000):
        nvars = 1 + seed_ % 3
        rng, ref = random.Random(seed_), random.Random(seed_)
        assert (random_cell(rng, nvars, bound_units=flag)
                == _reference_cell(ref, nvars, bound_units=flag)), seed_
        assert rng.getstate() == ref.getstate(), seed_
        got = random_integrable_instance(rng, nvars, with_units=flag)
        assert got == _reference_instance(ref, nvars, flag), seed_
        assert rng.getstate() == ref.getstate(), seed_
    assert 0 < _size("generators._cell") < 1000


def _fresh_round_trip(r, s):
    anti = antiderivative_pow_log(r, s)
    target = CExpr(1, (Term.make(1, [r], [s]),))
    recursive = antiderivative_pow_log_recursive(r, s)
    return (is_zero(normalize(differentiate_expr(anti, 0) - target))
            and is_zero(normalize(anti - recursive)))


def test_tabled_round_trip_is_the_fresh_verdict():
    # validate's round trip draws from these 65 pairs
    for r in (F(k, 2) for k in range(-6, 7)):
        for s in range(5):
            verdict = cli._round_trip_holds(r, s)
            assert verdict is _fresh_round_trip(r, s) is True
    assert _size("cli._round_trip_holds") == 65


def test_false_round_trip_is_stored_and_validate_fails(monkeypatch, capsys):
    # twice the closed form differentiates to twice the integrand
    monkeypatch.setattr(cli, "antiderivative_pow_log",
                        lambda r, s: antiderivative_pow_log(r, s).scaled(2))
    for _ in range(2):
        assert cli._round_trip_holds(F(1, 2), 1) is False
    stats = table_stats()["cli._round_trip_holds"]
    assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
    assert main(["validate", "--seed", "7"]) == 5
    assert "FAIL antiderivative-roundtrip" in capsys.readouterr().out
