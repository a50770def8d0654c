"""The per-process tables: one registry, and the cell normalization table."""

import importlib
import pkgutil

import pytest
from hypothesis import given, seed, settings

import cfcalc
from cfcalc import cells, core, integrate, tables
from cfcalc.cells import normalize_cell
from cfcalc.cli import main
from cfcalc.errors import CalcError, ParseError
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
          "integrate.integrate_shape")

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
                                       integrate._SHAPE_TABLE_SIZE))
    }
