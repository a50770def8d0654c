"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 parse error (also bounds with nothing
between them, such as a fiber from a positive bound to 0), 3 refusal
(fragment escape, a cell that needs a split or whose bound order cannot be
certified, a non-empty fiber ending at 0 whose lower bound is not a
negative constant, a cell not in prepared shape, a decay rate on a cell with
determined variables or of a sum that does not decay, an analysis of a cell
with no variable, an eval point outside the closure of its cell or where the
sum has no real value), 4 not integrable, 5 internal error.  Codes 2 to 5
and their stderr labels live on the error classes in cfcalc.errors.

integrate refuses a round in which a cell is not integrable over its last
fiber; check-integrability certifies every failing sum with a dominance
report.  Their JSON reports keep the constant keys "assumptions": [] and
"hypothesis": "dense".
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .analyze import decay_rate, sum_integrable_last
from .cells import normalize_cell, transform_H
from .core import CExpr, Term, differentiate_expr, is_zero, normalize, prime_form
from .errors import CalcError, DomainError, FragmentEscape
from .generators import random_integrable_instance
from .integrate import (
    antiderivative_pow_log,
    antiderivative_pow_log_recursive,
    integrate_fubini,
)
from .oracle import divergence_probe, fiber_bounds, quadrature_last
from .parser import parse, print_expr
from .prepare import prepare_expr, substitute_thin
from .sliver import build_sliver
from .tables import table


class _Usage(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _read_source(args) -> str:
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _Usage(f"cannot read {args.input}: {getattr(exc, 'strerror', exc)}")
    if args.source:
        return args.source
    raise _Usage("provide SOURCE text or --input FILE")


_STATUS = {0: "ok", 4: "not-integrable", 5: "failed"}


def _emit(args, source: str, result: dict, lines: list[str], code: int = 0) -> int:
    """Print the command's report, the JSON envelope around ``result`` with
    --json and the text lines otherwise, and return the exit code."""
    if args.json:
        report = {
            "command": args.cmd,
            "input": source.strip(),
            "result": result,
            "status": _STATUS[code],
            "tool": "cfcalc",
            "version": __version__,
        }
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
    return code


def _pipeline(source: str, with_jacobian: bool, fibers: int = 0,
              analyzed: bool = False):
    """parse -> eliminate thins -> normalize the cell -> pull the expression
    back to the unit box (optionally with the Jacobian folded in).

    The last ``fibers`` source variables are integrated or analyzed over
    their fibers, so none of them may be thin: eliminating it would make an
    earlier variable the last one and answer for the wrong fiber.  An
    ``analyzed`` cell needs at least one variable that is not thin."""
    form = parse(source)
    for rv in form.raw_cell.vars[max(0, form.raw_cell.nvars - fibers):]:
        if rv.thin is not None:
            raise FragmentEscape(
                f"variable {rv.name} is thin: its fiber is a single point"
            )
    raw, expr = substitute_thin(form.raw_cell, form.expr)
    if analyzed and not raw.nvars:
        raise FragmentEscape("no variable to analyze: the cell is a point")
    norm = normalize_cell(raw)
    return norm, norm.pull_back(expr, with_jacobian=with_jacobian)


def _cmd_prepare(args) -> int:
    source = _read_source(args)
    norm, pulled = _pipeline(source, with_jacobian=False)
    pieces = [(list(p.J), print_expr(p.terms, norm.names))
              for p in prepare_expr(pulled, norm.cell)]
    result = {
        "pieces": [
            {
                "vars": list(norm.names),
                "terms": text,
                "J": J,
                # cells are centered at 0; the report schema keeps the key
                "centers": ["0"] * norm.cell.nvars,
            }
            for J, text in pieces
        ]
    }
    lines = [f"prepared pieces: {len(pieces)}"]
    lines += [f"  J = {J}: {text}" for J, text in pieces]
    return _emit(args, source, result, lines)


def _cmd_integrate(args) -> int:
    source = _read_source(args)
    m = args.vars
    norm, pulled = _pipeline(source, with_jacobian=True, fibers=m,
                             analyzed=True)
    if m < 1 or m > norm.cell.nvars:
        raise _Usage(f"--vars must be between 1 and {norm.cell.nvars}")
    prepared = prepare_expr(pulled, norm.cell)
    work = [(p.cell, p.terms) for p in prepared]
    res = integrate_fubini(work, m)
    base_names = norm.names[: norm.cell.nvars - m]
    values = [print_expr(e, base_names) for _, e in res.pieces]
    exact = None
    if len(res.pieces) == 1 and res.pieces[0][0].nvars == 0:
        try:
            exact = str(res.pieces[0][1].eval_exact([]))
        except CalcError:
            exact = None
    result = {
        "vars": m,
        "values": values,
        "exact": exact,
        # the report schema keeps the key; no result rests on an assumption
        "assumptions": [],
    }
    lines = list(values) or ["0"]
    if exact is not None and exact not in values:
        lines.append(f"= {exact}")
    return _emit(args, source, result, lines)


def _cmd_check(args) -> int:
    source = _read_source(args)
    norm, pulled = _pipeline(source, with_jacobian=True, fibers=1,
                             analyzed=True)
    prepared = prepare_expr(pulled, norm.cell)[0]
    # per_term and the dominance floats are those of the prime-log terms
    res = sum_integrable_last(prime_form(prepared.terms), norm.cell)
    rbar = wtext = certificate = None
    if res.report is not None:
        rep = res.report
        rbar = str(rep.rbar)
        wtext = print_expr(CExpr(norm.cell.nvars, (rep.W,)), norm.names)
        certificate = {
            "lbar": rep.lbar,
            "lbar_prime": rep.lbar_prime,
            "chain": [list(ix) for ix in rep.chain],
            "margin": str(rep.margin),
            "sliver": {
                "epsilon": str(rep.sliver.epsilon),
                "box": [[str(lo), str(hi)] for lo, hi in rep.sliver.box],
            },
        }
    result = {
        "integrable": res.verdict,
        "per_term": list(res.per_term),
        # the report schema keeps the key; a failing sum is always certified
        "hypothesis": "dense",
        "rbar": rbar,
        "W": wtext,
        "certificate": certificate,
    }
    lines = [f"integrable: {res.verdict}"]
    if rbar is not None:
        lines.append(f"rbar = {rbar}, W = {wtext}")
    return _emit(args, source, result, lines, 0 if res.verdict else 4)


def _cmd_decay(args) -> int:
    source = _read_source(args)
    norm, pulled = _pipeline(source, with_jacobian=False, fibers=1,
                             analyzed=True)
    prepared = prepare_expr(pulled, norm.cell)[0]
    dr = decay_rate(prime_form(prepared.terms), norm.cell)
    result = {
        "r": str(dr.r),
        "epsilon": str(dr.epsilon),
        "delta": str(dr.delta),
        "rbar": str(dr.report.rbar),
        "lbar": dr.report.lbar,
    }
    return _emit(args, source, result, [
        f"r = {dr.r} (rbar = {dr.report.rbar}, "
        f"eps = {dr.epsilon}, delta = {dr.delta})"
    ])


def _cmd_sliver(args) -> int:
    source = _read_source(args)
    norm, _ = _pipeline(source, with_jacobian=False, analyzed=True)
    ht = transform_H(norm.cell)
    sl = build_sliver(ht.cell)
    result = {
        "epsilon": str(sl.epsilon),
        "box": [[str(lo), str(hi)] for lo, hi in sl.box],
        "notes": list(sl.notes),
        "transform_steps": len(ht.steps),
    }
    lines = [f"epsilon = {sl.epsilon}"]
    for (lo, hi), note in zip(sl.box, sl.notes[1:]):
        lines.append(f"  ({lo}, {hi})")
    return _emit(args, source, result, lines)


def _cmd_eval(args) -> int:
    source = _read_source(args)
    form = parse(source)
    try:
        exact = [Fraction(x) for x in args.at.split(",")]
        point = [float(x) for x in exact]
    except ZeroDivisionError:
        raise _Usage("bad --at point: zero denominator")
    except (ValueError, OverflowError) as exc:
        raise _Usage(f"bad --at point: {exc}")
    if len(point) != form.raw_cell.nvars:
        raise _Usage(
            f"point arity {len(point)} != variable count {form.raw_cell.nvars}"
        )
    if not form.raw_cell.closure_contains(exact):
        raise DomainError(f"cannot evaluate at {args.at}: the point is outside "
                          "the closure of the cell")
    expr = prime_form(form.expr)
    try:
        value = expr.eval(point)
    except ValueError:
        # math.log is the only float operation of eval that raises
        # ValueError: a variable log or an opaque log at a value <= 0
        raise DomainError(f"cannot evaluate at {args.at}: "
                          "log of a nonpositive value")
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"cannot evaluate at {args.at}: {exc}")
    except TypeError:
        # math.log of a complex value: an opaque log's argument at the point
        raise DomainError(f"cannot evaluate at {args.at}: no real value")
    if isinstance(value, complex):
        raise DomainError(f"cannot evaluate at {args.at}: no real value")
    return _emit(args, source, {"point": args.at, "value": value}, [repr(value)])


# round-trip verdicts kept, least recently used dropped first; validate
# draws r = k/2 (k = -6..6) and s = 0..4, 65 pairs for every seed
_ROUND_TRIP_TABLE_SIZE = 128


@table("cli._round_trip_holds", _ROUND_TRIP_TABLE_SIZE)
def _round_trip_holds(r: Fraction, s: int) -> bool:
    """Whether the closed-form antiderivative of y^r (log y)^s
    differentiates back to it and equals the recursive route, both decided
    exactly.  The verdict, False too, is kept per process, keyed by (r, s);
    a raise stores nothing."""
    anti = antiderivative_pow_log(r, s)
    target = CExpr(1, (Term.make(1, [r], [s]),))
    derives_back = is_zero(normalize(differentiate_expr(anti, 0) - target))
    routes_agree = is_zero(
        normalize(anti - antiderivative_pow_log_recursive(r, s)))
    return derives_back and routes_agree


# the quadrature-oracle check integrates this many generated instances, each
# at this many base points drawn from its base cell
_ORACLE_INSTANCES = 10
_ORACLE_BASE_POINTS = 3


def _cmd_validate(args) -> int:
    seed = args.seed
    rng = random.Random(seed)
    samples = 20
    checks = []

    # antiderivative round trip and route agreement (exact)
    ok = True
    for _ in range(samples):
        r = Fraction(rng.randint(-6, 6), 2)
        s = rng.randint(0, 4)
        if not _round_trip_holds(r, s):
            ok = False
    checks.append({"name": "antiderivative-roundtrip", "passed": ok,
                   "max_deviation": 0.0})

    # symbolic vs quadrature on random certified-integrable instances
    ok = True
    dev = 0.0
    for _ in range(_ORACLE_INSTANCES):
        cell, e = random_integrable_instance(rng, rng.choice([1, 2]))
        try:
            sym = integrate_fubini([(cell, e)], 1).pieces
        except CalcError:
            continue
        if len(sym) != 1:
            continue
        base_cell, val = sym[0]
        # a one-variable instance has a single fiber, over the empty base
        # point, which draws nothing from rng: it is integrated once
        for _ in range(_ORACLE_BASE_POINTS if base_cell.nvars else 1):
            base_pt = base_cell.sample_point(rng) if base_cell.nvars else []
            lo, hi = fiber_bounds(cell, base_pt)
            num, _ = quadrature_last(e, base_pt, lo, hi, tol=1e-10)
            want = val.eval(base_pt)
            d = abs(num - want) / max(1.0, abs(want))
            dev = max(dev, d)
            if d > 1e-8:
                ok = False
    checks.append({"name": "quadrature-oracle", "passed": ok,
                   "max_deviation": dev})

    # probe battery
    ok = True
    for rr in (Fraction(-3, 2), Fraction(-1), Fraction(-1, 2)):
        for s in range(4):
            pe = CExpr(1, (Term.make(1, [rr], [s]),))
            rep = divergence_probe(pe, [], 1.0)
            want = "converged" if rr > -1 else "diverged"
            if rep.verdict != want:
                ok = False
    checks.append({"name": "probe-battery", "passed": ok, "max_deviation": 0.0})

    # normalize value preservation
    ok = True
    dev = 0.0
    for _ in range(samples):
        cell, e = random_integrable_instance(rng, 2)
        n = normalize(e)
        for _ in range(3):
            pt = cell.sample_point(rng)
            a, b = e.eval(pt), n.eval(pt)
            d = abs(a - b) / max(1.0, abs(a))
            dev = max(dev, d)
            if d > 1e-12:
                ok = False
    checks.append({"name": "normalize-value-preservation", "passed": ok,
                   "max_deviation": dev})

    passed = all(c["passed"] for c in checks)
    result = {"seed": seed, "samples": samples, "checks": checks,
              "passed": passed}
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} "
        f"(max deviation {c['max_deviation']:.3e})"
        for c in checks
    ]
    return _emit(args, "", result, lines, 0 if passed else 5)


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process, so nothing may change it once built;
    ``parse_args`` returns a fresh namespace each time.  Its ``commands``
    maps each command name to that command's own parser."""
    ap = _ArgumentParser(prog="cfcalc", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    ap.commands = sub.choices

    def command(name, func, needs_source=True):
        p = sub.add_parser(name)
        if needs_source:
            p.add_argument("source", nargs="?", help="source text")
            p.add_argument("--input", help="read source from a file")
        p.add_argument("--json", action="store_true", help="JSON report output")
        p.set_defaults(func=func, cmd=name)
        return p

    command("prepare", _cmd_prepare)
    command("integrate", _cmd_integrate).add_argument("--vars", type=int, default=1)
    command("check-integrability", _cmd_check)
    command("decay-rate", _cmd_decay)
    command("sliver", _cmd_sliver)
    command("eval", _cmd_eval).add_argument(
        "--at", required=True,
        help="comma-separated rationals; write --at=-3/2 when the first is negative")
    command("validate", _cmd_validate, needs_source=False).add_argument(
        "--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    """Run one command line.  A line that starts with a command name is read
    by that command's parser alone; any other line goes to the root parser,
    which prints the help or the usage error."""
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = ap.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else ap.parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CalcError as exc:
        # each error class carries its exit code and label (cfcalc.errors)
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
