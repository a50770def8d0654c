"""The per-process tables: one registry, the cell normalization table,
the divergence probe and antiderivative tables, and validate's cell
certificate and round-trip tables."""

import importlib
import pkgutil
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings

import cfcalc
from cfcalc import cells, cli, core, generators, integrate, oracle, tables
from cfcalc.cells import ZERO, Cell, FatVar, MonomialBound, normalize_cell
from cfcalc.cli import main
from cfcalc.core import CExpr, Term, differentiate_expr, is_zero, normalize
from cfcalc.errors import CalcError, ParseError, UncertifiedCell
from cfcalc.generators import random_cell
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

TABLES = ("core._fiber_kernel", "cells.normalize_cell",
          "integrate.antiderivative_pow_log",
          "integrate.antiderivative_pow_log_recursive",
          "integrate.integrate_shape", "oracle.divergence_probe",
          "generators._certified", "cli._round_trip_holds")

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
    assert tuple(table_stats()) == TABLES


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
                                       integrate._ANTI_TABLE_SIZE,
                                       integrate._ANTI_TABLE_SIZE,
                                       integrate._SHAPE_TABLE_SIZE,
                                       oracle._PROBE_TABLE_SIZE,
                                       generators._CERTIFIED_TABLE_SIZE,
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


@pytest.mark.parametrize(
    "route", [antiderivative_pow_log, antiderivative_pow_log_recursive])
def test_tabled_antiderivatives_are_the_fresh_ones(route):
    for r in (F(k, 2) for k in range(-6, 7)):
        for s in range(5):
            cold = route(r, s)
            assert cold == route.__wrapped__(r, s)
            assert route(r, s) is cold
    # validate's round trip draws from these 65 pairs
    assert _size(f"integrate.{route.__name__}") == 65


@pytest.mark.parametrize(
    "route", [antiderivative_pow_log, antiderivative_pow_log_recursive])
def test_refused_log_power_is_not_stored(route):
    name = f"integrate.{route.__name__}"
    for _ in range(2):
        with pytest.raises(ValueError, match="nonnegative"):
            route(F(1, 2), -1)
        assert _size(name) == 0
    # an int and a float s are kept apart, so 1.0 still raises
    route(F(1, 2), 1)
    with pytest.raises(TypeError):
        route(F(1, 2), 1.0)


def test_recursion_takes_its_sub_results_from_the_table():
    antiderivative_pow_log_recursive(F(1, 2), 3)
    stats = table_stats()["integrate.antiderivative_pow_log_recursive"]
    assert (stats["hits"], stats["misses"]) == (0, 4)
    antiderivative_pow_log_recursive(F(1, 2), 4)
    stats = table_stats()["integrate.antiderivative_pow_log_recursive"]
    assert (stats["hits"], stats["misses"]) == (1, 5)


def _draw(seed_, **kwargs):
    """random_cell from a seeded generator, and the generator's state."""
    rng = random.Random(seed_)
    cell = random_cell(rng, 1 + seed_ % 3, **kwargs)
    return cell, rng.getstate()


@pytest.mark.parametrize("bound_units", [False, True])
def test_tabled_random_cell_is_the_uncached_build(bound_units, monkeypatch):
    seeds = range(200)
    tabled = [_draw(s, bound_units=bound_units) for s in seeds]
    distinct = _size("generators._certified")
    assert 0 < distinct <= len(seeds)
    # the same draws with the certificate computed afresh on every call
    monkeypatch.setattr(generators, "_certified",
                        generators._certified.__wrapped__)
    for s, (cell, state) in zip(seeds, tabled):
        fresh, fresh_state = _draw(s, bound_units=bound_units)
        assert cell == fresh and state == fresh_state
        fresh.validate()
    monkeypatch.undo()
    # a cell drawn again is the table's instance
    for s, (cell, _) in zip(seeds, tabled):
        assert _draw(s, bound_units=bound_units)[0] is cell
    assert _size("generators._certified") == distinct


def test_uncertifiable_cell_raises_again_and_is_not_stored():
    # the upper bound 2 is not inside (0, 1]
    cell = Cell((FatVar(ZERO, MonomialBound.const(2, 1)),))
    for _ in range(2):
        with pytest.raises(UncertifiedCell, match="not certified inside"):
            generators._certified(cell)
        assert _size("generators._certified") == 0


def _fresh_round_trip(r, s):
    anti = antiderivative_pow_log.__wrapped__(r, s)
    target = CExpr(1, (Term.make(1, [r], [s]),))
    recursive = antiderivative_pow_log_recursive.__wrapped__(r, s)
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
