"""Constant logs over a coprime base.

The engine keeps log 30030 as one atom from the parser to the integral and
writes it over primes only where output is produced.  The metamorphic
battery below runs every command on inputs with composite constants and
again with each constant spelled over primes, e.g. log(6*y1)^2 against
(log(2) + log(3) + log(y1)) * (log(2) + log(3) + log(y1)): the second
spelling never makes a composite atom, so both must give the same exit code
and the same stdout, byte for byte.
"""

import json
import math
import random
import re
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcalc.cli import main
from cfcalc.core import (
    CExpr,
    ExpVec,
    LogComposite,
    LogPrime,
    LogUnitAtom,
    LogVar,
    PolyUnit,
    Term,
    _over_primes,
    _prime_powers,
    constant_log_items,
    expand_log_power,
    is_zero,
    log_of_monomial_unit,
    normalize,
    prime_form,
    times_log_power,
)


def _prime_exponents(q: F) -> list[tuple[int, int]]:
    """(p, e) with q = prod p^e, primes rising; trial division, written
    here so that the spelling does not come from the code under test."""
    out: dict[int, int] = {}
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        p = 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1
        if n > 1:
            out[n] = out.get(n, 0) + sign
    return sorted((p, e) for p, e in out.items() if e)


_LOG = re.compile(r"log\((\d+(?:/\d+)?)(?:\*(\w+))?\)(?:\^(\d+))?")


def over_primes(source: str) -> str:
    """The source with every log(q*VAR)^k and log(q)^k of its expression
    written as k factors (e_1*log(p_1) + ... + log(VAR))."""
    expr, sep, cell = source.partition(" on ")

    def spell(m: re.Match) -> str:
        q, var, k = F(m.group(1)), m.group(2), int(m.group(3) or 1)
        parts = [
            (e, f"log({p})" if abs(e) == 1 else f"{abs(e)}*log({p})")
            for p, e in _prime_exponents(q)
        ]
        if var:
            parts.append((1, f"log({var})"))
        text = ("-" if parts[0][0] < 0 else "") + parts[0][1]
        for e, part in parts[1:]:
            text += f" {'-' if e < 0 else '+'} {part}"
        return " * ".join([f"({text})"] * k)

    return _LOG.sub(spell, expr) + sep + cell


def test_over_primes_spelling():
    assert over_primes("log(6*y1)^2 on {0<y1<1}") == (
        "(log(2) + log(3) + log(y1)) * (log(2) + log(3) + log(y1))"
        " on {0<y1<1}"
    )
    assert over_primes("y1*log(12/5) - log(7)") == (
        "y1*(2*log(2) + log(3) - log(5)) - (log(7))"
    )


def _run(argv, capsys):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _same_over_primes(argv, capsys):
    (cmd, source), rest = argv[:2], argv[2:]
    spelled = over_primes(source)
    assert spelled != source
    got = _run([cmd, source, *rest], capsys)
    want = _run([cmd, spelled, *rest], capsys)
    if "--json" in rest:
        # the report echoes its input, the one part that may differ
        want = (want[0], want[1].replace(
            json.dumps(spelled)[1:-1], json.dumps(source)[1:-1], 1
        ))
    assert got == want, (argv, spelled)
    return got


# composite constants in the integrand, in bound coefficients (1/6, 10, 1/15)
# and atoms that share a prime within one sum (6 with 2, 6 with 10, 30 with 6)
CASES = [
    ("prepare", "log(6*y1)^2 on {0<y1<1}"),
    ("prepare", "y1^(1/2) * log(30*y1)^3 on {0<y1<1}", "--json"),
    ("prepare", "log(12*x1)^2 on {0<x1<1/6}"),
    ("prepare", "log(6*y1)^3 * log(2) + log(10*y1) on {0<y1<1}", "--json"),
    ("integrate", "log(6*y1)^2 on {0<y1<1}"),
    ("integrate", "log(6*y1)^2 on {0<y1<1/6}"),
    ("integrate", "log(30*y1)^3 on {0<y1<1/6}", "--json"),
    ("integrate", "x1^(-2)*log(6*x1)^2 on {10<x1<inf}"),
    ("integrate", "x1^(-3)*log(15*x1)*log(2) on {10<x1<inf}", "--json"),
    ("integrate", "log(6*y1)^3 * log(2) on {0<y1<1}"),
    ("integrate", "log(6*y1)^3 * log(2) on {0<y1<1/6}"),
    ("integrate", "log(6*y1)^2 * log(10*y1) on {0<y1<1}"),
    ("integrate", "log(6*y1)^2 * log(10*y1) on {0<y1<1/15}"),
    ("integrate", "log(36*y1)^2 * log(12*y1) - log(30) on {0<y1<1/6}"),
    ("integrate", "log(6*y2)^2 * log(10*y1) on {0<y1<1, 0<y2<y1}",
     "--vars", "1"),
    ("integrate", "log(6*y2)^2 * log(10*y1) on {0<y1<1, 0<y2<y1}",
     "--vars", "2"),
    ("integrate", "y2*log(30*y2)^2 on {0<y1<1, 0<y2<1/6*y1}", "--vars", "1"),
    ("integrate", "y2*log(30*y2)^2 on {0<y1<1, 0<y2<1/6*y1}", "--vars", "2",
     "--json"),
    ("integrate", "y1^(-1)*log(6*y1) on {0<y1<1}"),
    ("eval", "log(30*y1)^3 on {0<y1<1}", "--at", "1/3"),
    ("eval", "log(6*y1)^2 * log(10*y2) - log(2) on {0<y1<1, 0<y2<y1}",
     "--at", "1/2,1/5"),
    ("eval", "log(6*y1)^3 * log(2) on {0<y1<1}", "--at", "3/4", "--json"),
    ("check-integrability", "y1^(-1/2)*log(6*y1)^3 on {0<y1<1}"),
    ("check-integrability",
     "y1^(-1)*log(30*y1)^2 + y1^(-1)*log(6) on {0<y1<1}", "--json"),
    ("check-integrability",
     "y2^(-1)*log(6*y2)^2*log(10*y1) + y1*y2^(-1) on {0<y1<1, 0<y2<1}",
     "--json"),
    ("check-integrability",
     "y2^(-1)*log(6*y1)^2*log(2) + y2^(-1)*y1*log(15) on {0<y1<1, 0<y2<1}",
     "--json"),
    ("check-integrability", "x1^(-1)*log(6*x1)^2 on {10<x1<inf}", "--json"),
    ("decay-rate", "x1^(-2)*log(6*x1)^2 on {10<x1<inf}", "--json"),
    ("decay-rate", "x1^(-1/3)*log(30*x1) on {2<x1<inf}"),
    ("decay-rate", "x2^(-2)*log(6*x1)*log(10*x2) on {0<x1<1, 2<x2<inf}",
     "--json"),
]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_composite_constants_match_their_prime_spelling(argv, capsys):
    code, out = _same_over_primes(argv, capsys)
    assert code == 0 and out or code == 4


_CONSTANTS = ["6", "10", "12", "15", "30", "36", "1/6", "10/3", "2", "3"]
_CELLS = [
    ("{0<y1<1}", 1), ("{0<y1<1/6}", 1), ("{0<y1<1/10}", 1),
    ("{10<y1<inf}", 1), ("{6<y1<inf}", 1),
    ("{0<y1<1, 0<y2<y1}", 2), ("{0<y1<1, 0<y2<1/6*y1}", 2),
    ("{0<y1<1/6, 0<y2<1}", 2),
]


def _random_case(rng: random.Random):
    cell, nv = rng.choice(_CELLS)
    infinite = "inf" in cell
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = [str(rng.choice([1, 2, F(1, 2), F(-3, 2)]))]
        for i in range(nv):
            r = rng.choice([0, 1, F(1, 2)]) if not infinite else -3
            if r:
                factors.append(f"y{i + 1}^({r})")
        for _ in range(rng.randint(1, 2)):
            var = rng.choice([f"y{i + 1}" for i in range(nv)] + [None])
            q = rng.choice(_CONSTANTS)
            arg = f"{q}*{var}" if var else q
            factors.append(f"log({arg})^{rng.randint(1, 3)}")
        terms.append("*".join(factors))
    source = " + ".join(terms) + f" on {cell}"
    cmd = rng.choice(["prepare", "integrate", "integrate", "eval"])
    if cmd == "integrate" and nv == 2 and rng.random() < 0.5:
        return (cmd, source, "--vars", "2")
    if cmd == "eval":
        at = ",".join(["12" if infinite else "1/7", "1/11"][:nv])
        return (cmd, source, "--at", at)
    return (cmd, source)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_composite_constants_match_their_prime_spelling(seed, capsys):
    argv = _random_case(random.Random(seed))
    if over_primes(argv[1]) == argv[1]:
        pytest.skip("no constant to spell")
    _same_over_primes(argv, capsys)


def test_cancelling_constants_integrate_to_zero(capsys):
    # log(6)^2 = (log 2 + log 3)^2 only once log 6 is written over the
    # primes it shares with log 2 and log 3 in the same sum
    source = (
        "y1^(-2)*log(6)^2 - y1^(-2)*log(2)^2 - 2*y1^(-2)*log(2)*log(3)"
        " - y1^(-2)*log(3)^2 on {0<y1<1}"
    )
    assert _run(["integrate", source], capsys) == (0, "0\n")


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------


def _composite(*primes):
    return LogComposite(math.prod(primes), primes)


@pytest.mark.parametrize(
    "q, items",
    [
        (F(30030), [(1, _composite(2, 3, 5, 7, 11, 13))]),
        (F(12), [(2, LogPrime(2)), (1, LogPrime(3))]),
        (F(36), [(2, _composite(2, 3))]),
        (F(10, 3), [(-1, LogPrime(3)), (1, _composite(2, 5))]),
        (F(1, 6), [(-1, _composite(2, 3))]),
        (F(8), [(3, LogPrime(2))]),
        (F(1), []),
    ],
)
def test_constant_logs_over_the_coprime_base_of_their_factorization(q, items):
    assert constant_log_items(q) == [(F(e), a) for e, a in items]


def test_log_of_monomial_unit_keeps_the_constant_whole():
    y = ExpVec.unit(1, 0)
    assert log_of_monomial_unit(F(30030), y, PolyUnit.one()) == [
        (F(1), _composite(2, 3, 5, 7, 11, 13)), (F(1), LogVar(0)),
    ]
    # the unit's scale joins the constant before it is factored
    assert log_of_monomial_unit(F(3), y, PolyUnit(F(2))) == [
        (F(1), _composite(2, 3)), (F(1), LogVar(0)),
    ]


def _log_power_sum(q, k, nv=1):
    items = log_of_monomial_unit(F(q), ExpVec.unit(nv, 0), PolyUnit.one())
    return CExpr(nv, tuple(
        Term.make(c, ExpVec.zero(nv), lp, ex)
        for c, lp, ex in expand_log_power(items, k, nv)
    ))


def _constant_args(e: CExpr) -> set[int]:
    return {
        a.n if isinstance(a, LogComposite) else a.prime
        for t in e.terms for a, _ in t.extras
    }


def test_normalize_splits_composites_that_share_a_prime():
    # 6 and 10 share 2 and are written over primes; 77 is left whole
    e = normalize(
        _log_power_sum(6, 2) + _log_power_sum(10, 1) + _log_power_sum(77, 1)
    )
    assert _constant_args(e) == {2, 3, 5, 77}
    # a prime atom splits the composite it divides
    assert _constant_args(normalize(
        _log_power_sum(6, 2) + _log_power_sum(3, 1)
    )) == {2, 3}
    # one term whose own atoms share a prime is split too
    assert _constant_args(normalize(CExpr(1, (Term.make(
        1, [0], None, [(_composite(2, 3), 1), (_composite(2, 5), 1)]
    ),)))) == {2, 3, 5}


def _pairwise_coprime(args) -> bool:
    args = sorted(args)
    return all(
        math.gcd(a, b) == 1 for i, a in enumerate(args) for b in args[i + 1:]
    )


def test_constant_logs_of_a_normal_sum_are_pairwise_coprime():
    rng = random.Random(5)
    for _ in range(40):
        parts = [
            _log_power_sum(rng.choice([6, 10, 15, 30, 2, 3, 5, 77, 35]),
                           rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        e = normalize(CExpr(1, tuple(t for p in parts for t in p.terms)))
        assert _pairwise_coprime(_constant_args(e)), e


def _reference_prime_form(e: CExpr) -> CExpr:
    """Every composite log expanded by expand_log_power and times_log_power
    through Term.make, then merged by normalize."""
    out = []
    for t in e.terms:
        kept = [(a, k) for a, k in t.extras if not isinstance(a, LogComposite)]
        variants = [Term.make(t.coeff, t.exps, t.logpows, kept, t.unit)]
        for a, k in t.extras:
            if isinstance(a, LogComposite):
                pieces = expand_log_power(
                    [(F(1), LogPrime(p)) for p in a.primes], k, e.nvars
                )
                variants = [x for v in variants for x in times_log_power(v, pieces)]
        out.extend(variants)
    return normalize(CExpr(e.nvars, tuple(out)))


def _atom(n: int):
    """The one atom of log n for a squarefree n."""
    ((e, atom),) = constant_log_items(F(n))
    assert e == 1
    return atom


def test_prime_form_matches_expanding_and_merging():
    # composites alone, beside coprime primes or composites, several in one
    # term, and sharing primes (normalize splits those); terms of one
    # y-signature interleave over primes
    rng = random.Random(11)
    for _ in range(40):
        terms = [
            Term.make(
                rng.choice([1, -2, F(3, 5)]), [rng.choice([0, 1])],
                [rng.randint(0, 2)],
                [(_atom(rng.choice([6, 35, 2, 11, 30030, 323])), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))],
            )
            for _ in range(rng.randint(1, 4))
        ]
        e = normalize(CExpr(1, tuple(terms)))
        p = prime_form(e)
        assert p.terms == _reference_prime_form(e).terms
        for t in p.terms:
            fresh = Term(t.coeff, t.exps, t.logpows, t.extras, t.unit)
            assert t.signature() == fresh.signature()


def test_cancellation_across_a_shared_prime_is_seen():
    # log(6)^2 - (log 2 + log 3)^2 is zero; without the split the two
    # spellings have different signatures and would not cancel
    six = normalize(_log_power_sum(6, 2))
    two_three = normalize(CExpr(1, tuple(
        Term.make(c, ExpVec.zero(1), lp, ex)
        for c, lp, ex in expand_log_power(
            [(F(1), LogPrime(2)), (F(1), LogPrime(3)), (F(1), LogVar(0))], 2, 1
        )
    )))
    assert is_zero(normalize(six - two_three))
    assert not is_zero(normalize(six))


# ---------------------------------------------------------------------------
# Writing composites over primes
# ---------------------------------------------------------------------------


def _rising(keys) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17]), min_size=2, max_size=6,
                unique=True),
       st.lists(st.tuples(st.sampled_from([19, 23, 29]), st.integers(1, 3)),
                max_size=2, unique_by=lambda pk: pk[0]))
def test_prime_powers_rise_in_key(primes, kept):
    # the printer writes the rows of a term alone in its group in the order
    # of these lists, the key of its larger kept prime logs appended to each,
    # without sorting them
    primes = tuple(sorted(primes))
    a, m = _composite(*primes), len(primes)
    kept_key = tuple(((0, p, ()), k) for p, k in sorted(kept))
    powers = _prime_powers([Term.make(1, [0], None, [(a, 8)])])[a]
    assert len(powers) == 9
    for j, products in enumerate(powers):
        assert len(products) == math.comb(j + m - 1, m - 1)
        assert sum(mult for mult, _, _ in products) == m ** j
        keys = [key for _, key, _ in products]
        assert _rising(keys)
        assert _rising([key + kept_key for key in keys])
        for mult, key, text in products:
            # the multinomial and the text of each product follow its key
            assert [p for (_, p, _), _ in key] == sorted({p for (_, p, _), _ in key})
            assert sum(i for _, i in key) == j
            assert mult == math.factorial(j) // math.prod(
                math.factorial(i) for _, i in key)
            assert text == " * ".join(
                f"log({p})" + (f"^{i}" if i > 1 else "") for (_, p, _), i in key)


_LOG_P = {p: sympy.Symbol(f"log{p}") for p in (2, 3, 5, 7, 11, 13, 17)}
_LOG_U = sympy.Symbol("logu")
_LOG_Y = sympy.Symbol("logy")
_Y = sympy.Symbol("y")
_PRIME_UNIT = PolyUnit.build(1, {ExpVec.of([1]): F(1, 2)})


def _as_sympy(terms, expand_composites: bool):
    """The sum of the terms with each log p a symbol, and each composite
    log(p_1 * ... * p_m) the sum of its primes' symbols when expanded;
    otherwise no composite may be left."""
    total = sympy.Integer(0)
    for t in terms:
        x = (sympy.Rational(t.coeff.numerator, t.coeff.denominator)
             * _Y ** sympy.Rational(t.exps[0].numerator, t.exps[0].denominator)
             * _LOG_Y ** t.logpows[0])
        for atom, k in t.extras:
            if isinstance(atom, LogPrime):
                x *= _LOG_P[atom.prime] ** k
            elif isinstance(atom, LogUnitAtom):
                assert atom.unit == _PRIME_UNIT
                x *= _LOG_U ** k
            else:
                assert expand_composites, atom
                x *= sum(_LOG_P[p] for p in atom.primes) ** k
        total += x
    return sympy.expand(total)


@st.composite
def _composite_terms(draw):
    """Terms with a composite of 2-5 primes to a power k <= 4, beside kept
    primes above, below or among its primes, a unit log, and sometimes a
    second composite."""
    pool = [2, 3, 5, 7, 11, 13, 17]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        primes = sorted(draw(st.lists(st.sampled_from(pool[:6]), min_size=2, max_size=5,
                                      unique=True)))
        extras = [(_composite(*primes), draw(st.integers(1, 4)))]
        rest = [p for p in pool if p not in primes]
        if len(rest) >= 2 and draw(st.booleans()):
            extras.append((_composite(*sorted(draw(st.lists(
                st.sampled_from(rest), min_size=2, max_size=2, unique=True)))),
                draw(st.integers(1, 2))))
        extras += [(LogPrime(p), draw(st.integers(1, 2)))
                   for p in draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))]
        if draw(st.booleans()):
            extras.append((LogUnitAtom(_PRIME_UNIT), 1))
        terms.append(Term.make(
            draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)),
            [draw(st.sampled_from([0, 1, F(-1, 2)]))], [draw(st.integers(0, 1))], extras))
    return terms


@settings(max_examples=60, deadline=None)
@given(_composite_terms())
def test_over_primes_matches_a_sympy_expansion(terms):
    # (sum of log p)^k multiplied out by sympy with each log p a symbol:
    # _over_primes writes each term's products once, and prime_form merges
    # and sorts them into a normal sum over primes
    want = _as_sympy(terms, True)
    for t in terms:
        split = _over_primes([t])
        assert _as_sympy(split, False) == _as_sympy([t], True)
        assert len({u.signature() for u in split}) == len(split)
    p = prime_form(CExpr(1, tuple(terms)))
    assert _as_sympy(p.terms, False) == want
    assert len(p.terms) == (len(sympy.Add.make_args(want)) if want != 0 else 0)
    assert [t.signature() for t in p.terms] == sorted({t.signature() for t in p.terms})
