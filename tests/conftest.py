import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from cfcalc.cells import Cell, FatVar, MonomialBound, ZERO
from cfcalc.core import _GAUSS_WEIGHTS, _KRONROD_NODES, _KRONROD_WEIGHTS, ExpVec
from cfcalc.tables import clear_tables


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with every per-process table empty, so that none
    depends on the cells, shapes or structures an earlier test met."""
    clear_tables()


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


def gk15_reference(f, a, b):
    """The 15-point Gauss-Kronrod panel as a loop over the node table: the
    reference for the compiled CExpr.panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _KRONROD_WEIGHTS[7] * fc
    gauss = _GAUSS_WEIGHTS[3] * fc
    for i in range(7):
        x = h * _KRONROD_NODES[i]
        fl, fr = f(c - x), f(c + x)
        kron += _KRONROD_WEIGHTS[i] * (fl + fr)
        if i % 2 == 1:
            gauss += _GAUSS_WEIGHTS[i // 2] * (fl + fr)
    kron *= h
    gauss *= h
    return kron, abs(kron - gauss)


def substituted(f, k):
    """u -> f(u**k) * k * u**(k - 1), the integrand over y = u**k; f when
    k = 1."""
    if k == 1:
        return f
    return lambda u: f(u ** k) * k * u ** (k - 1)


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


# -- sources in the README grammar -------------------------------------------

BOUND_CONSTS = ("1", "1/2", "1/4", "2", "3/2", "3", "-1/2", "-1", "-2")
EXPONENTS = ("-2", "-1", "-1/2", "1/3", "1/2", "1", "2")


@st.composite
def monomial_texts(draw, earlier):
    """[RAT '*'] VAR^(RAT) over earlier variables, or a constant."""
    if not earlier or draw(st.booleans()):
        return draw(st.sampled_from(BOUND_CONSTS))
    factors = [
        f"{v}^({draw(st.sampled_from(EXPONENTS))})"
        for v in draw(st.lists(st.sampled_from(earlier), min_size=1,
                               max_size=2, unique=True))
    ]
    coeff = draw(st.sampled_from(("", "1/4*", "1/2*", "2*")))
    return coeff + "*".join(factors)


@st.composite
def cell_texts(draw, max_vars=3):
    """(names, cell) for a 1..max_vars-variable cell in the README grammar:
    constant, monomial, 0 and inf bounds, and thin variables."""
    letter = draw(st.sampled_from("yx"))
    names = [f"{letter}{i + 1}" for i in range(draw(st.integers(1, max_vars)))]
    chains = []
    for i, name in enumerate(names):
        if draw(st.integers(0, 5)) == 0:
            chains.append(f"{name} = {draw(monomial_texts(names[:i]))}")
            continue
        lower = "0" if draw(st.integers(0, 2)) else draw(monomial_texts(names[:i]))
        upper = draw(monomial_texts(names[:i]))
        if lower != "0" and not draw(st.integers(0, 2)):
            upper = "inf"
        elif lower == "0":
            upper = upper.lstrip("-")
        elif lower in BOUND_CONSTS and upper in BOUND_CONSTS and draw(st.integers(0, 4)):
            lower, upper = sorted((lower, upper), key=F)
        chains.append(f"{lower} < {name} < {upper}")
    return names, "{" + ", ".join(chains) + "}"


@st.composite
def factor_texts(draw, names):
    v = draw(st.sampled_from(names))
    k = draw(st.integers(1, 3))
    power = "" if k == 1 else f"^{k}"
    return draw(st.sampled_from((
        draw(st.sampled_from(("1/2", "2", "3/4"))),
        f"{v}^({draw(st.sampled_from(EXPONENTS))})",
        f"log({v}){power}",
        f"log({draw(st.sampled_from(('2', '6', '30', '1/3')))}*{v}){power}",
        f"(1 + {draw(st.sampled_from(('1/2', '1/3')))}*{v})",
        f"log(1 + 1/2*{v})",
    )))


@st.composite
def expr_texts(draw, names):
    """A sum of 1..3 terms of 0..3 factors each; a leading minus sign is
    left to the edits, since argparse would read it as an option."""
    text = ""
    for k in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(factor_texts(names), max_size=3)) or ["1"]
        sign = f" {draw(st.sampled_from('+-'))} " if k else ""
        text += sign + " * ".join(factors)
    return text


MALFORMED_PIECES = ("^", "*", "(", ")", "{", "}", "<", "=", ",", "-", "0.5",
                    "log", "inf", "z9", "on", "")


@st.composite
def source_texts(draw):
    """(names, source): EXPR on {CELL}, sometimes with one edit that may
    leave it malformed (a cut, a dropped or an inserted piece)."""
    names, cell = draw(cell_texts())
    source = f"{draw(expr_texts(names))} on {cell}"
    edit = draw(st.integers(0, 9))
    if edit < 3:
        at = draw(st.integers(1, len(source)))
        if edit == 0:
            source = source[:at]
        elif edit == 1:
            source = source[:at] + source[at + 1:]
        else:
            source = source[:at] + draw(st.sampled_from(MALFORMED_PIECES)) + source[at:]
    return names, source
