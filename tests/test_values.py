"""The value classes behave as the frozen dataclasses they replaced, and
importing the command line pulls in none of the modules dataclasses did."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from cfcalc import analyze, cells, core, integrate, oracle, parser, prepare, sliver
from cfcalc.errors import CellError, FragmentEscape, UnitCertificateViolated
from cfcalc.values import Value

_FORM = parser.parse("y1^(1/2) on {0<y1<1}")
_NORM = cells.normalize_cell(_FORM.raw_cell)
_CELL = _NORM.cell
_EXPR = _NORM.pull_back(_FORM.expr)
_TERM = _EXPR.terms[0]
_UNIT = core.PolyUnit.build(1, {core.ExpVec.of([1]): F(1, 2)})
_DECAY = analyze.decay_rate(_EXPR, _CELL)

# one instance of every value class, most of them as the engine builds them
_EXAMPLES = [
    _TERM.exps, _UNIT, core.LogVar(0), core.LogPrime(2),
    core.LogComposite(6, (2, 3)), core.LogUnitAtom(_UNIT), core.LogExprAtom(_EXPR),
    _TERM, _EXPR,
    cells.Zero(), cells.Inf(), _CELL.specs[0].upper, _CELL.specs[0], _CELL,
    cells.classify(_CELL), cells.AxisMap(0, -1),
    cells.HStep(0, core.ExpVec.zero(1), _UNIT, F(1)), cells.transform_H(_CELL),
    _FORM.raw_cell.vars[0].upper, _FORM.raw_cell.vars[0], _FORM.raw_cell, _NORM,
    _DECAY.report, analyze.sum_integrable_last(_EXPR, _CELL),
    analyze.integrable_locus([(_CELL, _EXPR)]), _DECAY.majorant, _DECAY,
    integrate.build_sform(_TERM), integrate.integrate_fubini([(_CELL, _EXPR)], 1),
    oracle.ProbeReport("converged", (1.0, 1.5), "power", 2.0),
    _FORM, prepare.PreparedCellData(_CELL, _EXPR, (0,)),
    sliver.AffineForm(F(1), (F(2),)), _DECAY.report.sliver,
]


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__annotations__)


def test_every_value_class_has_an_example():
    classes = {cls for cls in Value.__subclasses__() if cls.__module__.startswith("cfcalc.")}
    assert classes == {type(x) for x in _EXAMPLES}
    assert len(_EXAMPLES) == len(classes) == 34


@pytest.mark.parametrize("x", _EXAMPLES, ids=lambda x: type(x).__name__)
def test_value_semantics_are_those_of_a_frozen_dataclass(x):
    cls, fields = type(x), _fields(x)
    twin = cls(*fields)
    # the field tuple's hash, on every call and for an equal twin
    assert hash(x) == hash(x) == hash(fields)
    assert twin is not x and twin == x and not twin != x
    assert hash(twin) == hash(fields)
    # equal fields in another class: unequal both ways
    other = type("Other", (Value,), {"__annotations__": dict(cls.__annotations__)})
    assert other(*fields) != x and x != other(*fields)
    assert x.__eq__(fields) is NotImplemented
    names = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__annotations__, fields))
    assert repr(x) == f"{cls.__name__}({names})"
    for name in (*cls.__annotations__, "anything"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    if fields:
        with pytest.raises(AttributeError):
            delattr(x, next(iter(cls.__annotations__)))
    assert _fields(x) == fields


def test_fields_by_keyword_and_by_default():
    assert cells.AxisMap(scale=F(1, 2), pos=1) == cells.AxisMap(1, 1, 1, F(1, 2))
    assert core.Term(F(2), core.ExpVec.of([1]), (0,)).unit is core.PolyUnit.one()
    assert sliver.Sliver(F(1), ()).notes == ()
    # the classes with their own __init__ take their fields by keyword too
    e = core.ExpVec.of([1])
    bound = cells.RawMono(exps=e, coeff=F(2))
    assert bound == cells.RawMono(F(2), e)
    raw_var = cells.RawVar(name="x1", lower=cells.ZERO, upper=bound)
    assert raw_var.thin is None and raw_var == cells.RawVar("x1", cells.ZERO, bound, None)
    raw = cells.RawCell(vars=(raw_var,))
    assert parser.SourceForm(expr=_EXPR, raw_cell=raw) == parser.SourceForm(raw, _EXPR)
    assert cells.Cell(specs=_CELL.specs) == _CELL
    assert cells.AsymClass(constrained=(False,), determined=(True,)).determined == (True,)
    assert core.LogVar(pos=1) == core.LogVar(1) != core.LogVar(0)
    with pytest.raises(TypeError):
        cells.AxisMap()
    with pytest.raises(TypeError):
        cells.AxisMap(0, 1, 1, F(1), "extra")
    with pytest.raises(TypeError):
        cells.AxisMap(0, size=2)


def test_checks_run_on_construction():
    with pytest.raises(ValueError, match="zero terms"):
        core.Term(F(0), core.ExpVec.of([1]), (0,))
    with pytest.raises(ValueError, match="ambient size"):
        core.Term(F(1), core.ExpVec.of([1]), (0, 0))
    with pytest.raises(ValueError, match="ambient size"):
        core.CExpr(2, (_TERM,))
    with pytest.raises(UnitCertificateViolated):
        core.PolyUnit(F(0))
    with pytest.raises(FragmentEscape):
        core.LogUnitAtom(_UNIT.scaled(-1))
    with pytest.raises(CellError):
        cells.MonomialBound(F(-1), core.ExpVec.zero(1))
    with pytest.raises(CellError):
        cells.Cell((cells.FatVar(cells.Zero(), cells.Inf()),))


def test_importing_the_command_line_stays_light():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("dataclasses", "inspect", "ast", "dis")
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, cfcalc.cli; print(*[m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []
