"""CLI behavior: subcommands, exit codes, JSON schema, determinism."""

import contextlib
import gzip
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cfcalc import cli, errors
from cfcalc.cli import main
from cfcalc.parser import print_expr
from cfcalc.tables import clear_tables, table_stats
from tests.conftest import source_texts

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "report.schema.json").read_text())


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cfcalc.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, err = run_cli(*args, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_integrate_triangle(tmp_path):
    f = tmp_path / "tri.cf"
    f.write_text("1 on {0<y1<1, 0<y2<y1}")
    code, out, _ = run_cli("integrate", "--input", str(f), "--vars", "2")
    assert code == 0
    assert out.strip() == "1/2"


def test_integrate_json():
    code, report = run_json(
        "integrate", "y2^(-1/2) on {0<y1<1, 0<y2<y1}", "--vars", "2"
    )
    assert code == 0
    assert report["result"]["exact"] == "4/3"


def test_check_integrability_failure_exit_code():
    # a failing sum is always certified
    code, report = run_json("check-integrability", "y1^(-1) on {0<y1<1}")
    assert code == 4
    result = report["result"]
    assert result["integrable"] is False
    assert (result["rbar"], result["W"], result["hypothesis"]) == (
        "-1", "y1^(-1)", "dense")
    assert result["certificate"] == {
        "chain": [[0], [0], [0], [0]], "lbar": 0, "lbar_prime": 0,
        "margin": "1", "sliver": {"box": [], "epsilon": "1/2"},
    }


def test_check_integrability_pass():
    code, report = run_json("check-integrability", "y1^(-1/2) on {0<y1<1}")
    assert code == 0 and report["result"]["integrable"] is True


def test_prepare_json():
    code, report = run_json("prepare", "log(4 * x1^(1/2)) on {0<x1<1}")
    assert code == 0
    assert report["result"]["pieces"][0]["J"] == [0]


def test_decay_rate_worked_example():
    code, report = run_json("decay-rate", "x1^(-1/3) * log(x1) on {2 < x1 < inf}")
    assert code == 0
    assert report["result"]["r"] == "1/8"
    assert report["result"]["epsilon"] == "1/12"


def test_check_integrability_sliver_separate():
    # two terms with the same rbar = -1 and different y1 exponents: the
    # dominance certificate separates their affine forms on a sliver
    code, report = run_json(
        "check-integrability",
        "y1^(1/2)*y2^(-1) + y1^(1/3)*y2^(-1) on {0<y1<1, 0<y2<1}",
    )
    assert code == 4
    result = report["result"]
    assert result["W"] == "y1^(1/3) * y2^(-1)"
    assert result["certificate"]["margin"] == "1/6"
    assert result["certificate"]["sliver"]["epsilon"] == "1/32"


def test_sliver_report():
    code, report = run_json("sliver", "1 on {0<x1<1, x1^(2) < x2 < x1}")
    assert code == 0
    assert report["result"]["box"] == [["5/4", "7/4"]]


def test_eval():
    code, out, _ = run_cli(
        "eval", "3/2 * y1^(-1/2) * log(y1)^2 on {0<y1<1}", "--at", "1/4"
    )
    assert code == 0
    assert abs(float(out) - 5.765436167018416) < 1e-12


def test_parse_error_exit_code():
    code, _, err = run_cli("integrate", "x1 +")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("argv", [
    ("integrate",),
    (),
    ("bogus", "1 on {0<y1<1}"),
    ("--json", "integrate", "1 on {0<y1<1}"),
], ids=["no-source", "no-command", "unknown-command", "option-before-command"])
def test_usage_error_exit_code(argv):
    # a line that names no known command first is read by the root parser
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ")


def test_top_level_help_lists_every_command():
    code, out, err = run_cli("--help")
    assert code == 0 and err == ""
    for name in ("prepare", "integrate", "check-integrability", "decay-rate",
                 "sliver", "eval", "validate"):
        assert name in out


@pytest.mark.parametrize("argv", [
    ("prepare", "y1 on {0<y1<1}"),
    ("integrate", "y1 on {0<y1<1}"),
    ("check-integrability", "y1 on {0<y1<1}"),
    ("decay-rate", "y1^(1/2) on {0<y1<1}"),
    ("sliver", "y1 on {0<y1<1}"),
    ("eval", "y1 on {0<y1<1}", "--at", "1/2"),
    ("validate", "--seed", "1"),
], ids=lambda argv: argv[0])
def test_each_json_report_names_its_command(argv, capsys):
    # the command's own parser sets cmd, which the envelope reports
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def test_fragment_escape_exit_code():
    # the integral evaluates a fractional power at the rational bound 1/3
    # of the reciprocal coordinate, and that power is irrational
    code, _, err = run_cli(
        "integrate", "x1^(1/2) on {3 < x1 < 4}", "--vars", "1"
    )
    assert code == 3 and "fragment" in err


def test_irrational_power_refusal_in_source_syntax():
    # the refused quantity is (1/5)^(-3/2), printed so that it parses back
    # as that power and not as 1/(5^(-3/2))
    code, out, err = run_cli("integrate", "x1^(1/2) on {5<x1<6}")
    assert code == 3 and out == ""
    assert err == "fragment escape: (1/5)^(-3/2) is irrational\n"


@pytest.mark.parametrize(
    "args",
    [
        ("integrate", "x1^(-2) on {1/2<x1<inf}"),
        ("prepare", "x1 on {0<x1<inf}"),
        ("integrate", "x1 on {-1<x1<1}"),
        ("integrate", "x2 on {-2<x1<-1, 0<x2<x1}"),
    ],
    ids=["below-one-to-inf", "zero-to-inf", "across-zero", "negative-base"],
)
def test_cell_needing_a_split_is_refused(args):
    # valid cells that no single-piece normalization reaches are refusals
    # (exit 3), not internal errors (exit 5)
    code, out, err = run_cli(*args)
    assert code == 3 and out == ""
    assert err.startswith("error: ")


_CELL_SUBCOMMANDS = ("integrate", "prepare", "check-integrability",
                     "decay-rate", "sliver")


@pytest.mark.parametrize("cmd", _CELL_SUBCOMMANDS)
@pytest.mark.parametrize(
    "source,code,prefix",
    [
        # no value lies between the bounds: a parse error
        # (reported at the variable's name)
        ("y1 on {1<y1<1}", 2, "parse error: 1:9: invalid bounds for 'y1'"),
        ("y1 on {2<y1<1}", 2, "parse error: 1:9: invalid bounds for 'y1'"),
        ("y1 on {1/2<y1<1/2}", 2, "parse error: 1:11: invalid bounds for 'y1'"),
        ("y1 on {0<y1<-1}", 2, "parse error: 1:9: invalid bounds for 'y1'"),
        ("y1 on {0<y1<1, y1<y2<y1}", 2,
         "parse error: 1:18: invalid bounds for 'y2'"),
        ("y1 on {0<y1<1, 0<y2<0*y1}", 2,
         "parse error: 1:17: invalid bounds for 'y2'"),
        ("y1 on {0<y1<0}", 2, "parse error: 1:9: invalid bounds for 'y1'"),
        # a negative monomial over positive earlier variables
        ("y1 on {0<y1<1, 0<y2<-1*y1}", 2,
         "parse error: 1:17: invalid bounds for 'y2'"),
        ("y1 on {0<y1<1, y1<y2<-1*y1^(-1/2)}", 2,
         "parse error: 1:18: invalid bounds for 'y2'"),
        # an upper bound 0 over a positive monomial
        ("y1 on {0<y1<1, y1<y2<0}", 2,
         "parse error: 1:18: invalid bounds for 'y2'"),
        # empty only once the bounds read the thin graphs, after parsing:
        # the parser's refusal, without a position
        ("x2 on {x1 = 1/2, 1<x2<x1}", 2, "parse error: invalid bounds for 'x2'"),
        ("x3 on {x1 = 1/2, x2 = x1^(2), x1<x3<x2}", 2,
         "parse error: invalid bounds for 'x3'"),
        ("x3 on {0<x1<1, x2 = x1, x2<x3<x1}", 2,
         "parse error: invalid bounds for 'x3'"),
        # a bound order the cell certificate cannot establish: a refusal
        ("y1 on {0<y1<1, 2*y1<y2<y1}", 3,
         "error: bound of variable 1 not certified inside (0,1]"),
        # -y1 is positive where y1 is negative: not empty, but refused
        ("y1 on {-1<y1<-1/2, 0<y2<-1*y1}", 3,
         "error: dependent bounds may only reference positive variables"),
        # y1 < y2 < 0 is not empty where y1 is negative, but refused
        ("y1 on {-1<y1<-1/2, y1<y2<0}", 3,
         "error: dependent bounds may only reference positive variables"),
    ],
    ids=["equal-constants", "reversed-constants", "equal-fractions",
         "reversed-from-zero", "identical-monomials", "zero-monomial",
         "zero-to-zero", "negative-monomial", "positive-to-negative-monomial",
         "dependent-to-zero", "thin-constant", "thin-chain", "thin-identical",
         "uncertified-order", "negative-base-monomial",
         "negative-base-to-zero"],
)
def test_empty_or_uncertified_cell_is_not_an_internal_error(
    cmd, source, code, prefix, capsys
):
    assert main([cmd, source]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


@pytest.mark.parametrize(
    "source,prefix",
    [
        ("y1^(-1) on {0<y1<1}", "error: dominant exponent -1 is not positive"),
        ("log(y1) on {0<y1<1}", "error: dominant exponent 0 is not positive"),
        ("0 on {0<y1<1}", "error: dominance of an empty sum"),
    ],
    ids=["negative-rate", "log-only", "empty-sum"],
)
def test_decay_rate_without_decay_is_refused(source, prefix, capsys):
    assert main(["decay-rate", source]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


@pytest.mark.parametrize(
    "args,prefix",
    [
        (["decay-rate", "1 on {1<y1<2}"],
         "error: apply the coordinate transform first"),
        (["decay-rate", "y2^(-2) on {0<y1<1, 1/3<y2<1}"],
         "error: apply the coordinate transform first"),
        (["sliver", "y2 on {1<y1<2, 0<y2<y1}"],
         "error: bound of variable 1 references determined variables [0]"),
        (["check-integrability", "1"],
         "fragment escape: no variable to analyze: the cell is a point"),
        (["decay-rate", "2 * 3"],
         "fragment escape: no variable to analyze: the cell is a point"),
        (["sliver", "1 on {y1 = 1/2}"],
         "fragment escape: no variable to analyze: the cell is a point"),
        (["integrate", "1"],
         "fragment escape: no variable to analyze: the cell is a point"),
        (["integrate", "2 * 3", "--json"],
         "fragment escape: no variable to analyze: the cell is a point"),
        (["eval", "log(y1) on {0<y1<1}", "--at=-1/3"],
         "error: cannot evaluate at -1/3: the point is outside the closure "
         "of the cell"),
        (["eval", "y1^(-1) on {0<y1<1}", "--at=0"],
         "error: cannot evaluate at 0: "),
        (["eval", "y1^(1/2) on {0<y1<1}", "--at=-1/4", "--json"],
         "error: cannot evaluate at -1/4: the point is outside the closure "
         "of the cell"),
        (["eval", "log(y1) on {-2<y1<-1}", "--at=-3/2"],
         "error: cannot evaluate at -3/2: log of a nonpositive value"),
        (["eval", "y1^(1/2) on {-2<y1<-1}", "--at=-3/2", "--json"],
         "error: cannot evaluate at -3/2: no real value"),
        # math.log of the complex value of an opaque log's argument
        (["eval", "log(1+y1^(1/2)) on {-2<y1<-1}", "--at=-3/2"],
         "error: cannot evaluate at -3/2: no real value"),
        (["prepare", "y1 on {y1 = -1}"],
         "fragment escape: power of negative thin variable y1"),
        (["decay-rate", "(1 + 1/3*x1) * log(x2) on {x1 = -1, 0 < x2 < 2}"],
         "fragment escape: power of negative thin variable x1"),
    ],
    ids=["decay-determined-1var", "decay-determined-2var", "sliver-not-prepared",
         "check-no-variable", "decay-no-variable", "sliver-all-thin",
         "integrate-no-variable", "integrate-no-variable-product",
         "eval-log-of-negative", "eval-pole", "eval-complex",
         "eval-log-of-negative-in-cell", "eval-complex-in-cell",
         "eval-complex-in-opaque-log",
         "negative-thin", "negative-thin-in-unit"],
)
def test_determined_cells_are_refused_not_internal_errors(args, prefix, capsys):
    # these exited 5: NotAllUndetermined (decay-rate) and NotPrepared
    # (sliver), then the classes the whole-CLI fuzzer below found: a cell
    # with no variable left to analyze, an eval point where the sum has no
    # real float value, and a power of a thin variable fixed at a negative
    # value
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


def test_not_integrable_exit_code():
    code, _, err = run_cli("integrate", "y1^(-1) on {0<y1<1}", "--vars", "1")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ("integrate", "y1^(-1/2) on {0<y1<1}", "--hypothesis", "dense"),
    ("check-integrability", "y1^(-1) on {0<y1<1}", "--hypothesis", "all"),
], ids=["integrate", "check-integrability"])
def test_hypothesis_flag_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: "
                                   "--hypothesis")


@pytest.mark.parametrize("argv", [
    ("integrate", "y1^(-1) on {0<y1<1}"),
    # f(1/2, y2) = y2 is integrable, but no round is gated on a subset
    ("integrate", "y1*y2^(-1) - 1/2*y2^(-1) + y2 on {0<y1<1, 0<y2<1}"),
], ids=["one-variable", "integrable-slice"])
def test_a_round_with_a_failing_cell_is_refused(argv, capsys):
    assert main(list(argv)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("not integrable: round 1: 1 cell(s) fail "
                            "fiberwise integrability\n")


def test_a_refused_term_outranks_an_earlier_failing_one(capsys):
    # y1^(-1) fails the gate first; the opaque log after it is still
    # decided, and refused
    assert main(["integrate", "y1^(-1) + log(1 + 1/2*y1) on {0<y1<1}"]) == 3
    assert capsys.readouterr().err == (
        "fragment escape: opaque unit-log factor involves the analyzed "
        "variable\n"
    )


@pytest.mark.parametrize("argv,out", [
    (("integrate", "y1^(2) on {-1<y1<0}"), "1/3\n"),
    (("integrate", "y1 on {-1<y1<0}"), "-1/2\n"),
    (("integrate", "y1^(2) on {-2<y1<0}"), "8/3\n"),
    (("integrate", "y2 on {-1<y1<0, 0<y2<1}", "--vars", "2"), "1/2\n"),
    (("eval", "y1^(2) on {-1<y1<0}", "--at=-1/2"), "0.25\n"),
    (("integrate", "y2 on {0<y1<1, -1<y2<0}", "--vars", "2"), "-1/2\n"),
], ids=["square", "odd", "rescaled", "base", "eval", "over-a-base"])
def test_a_negative_fiber_ending_at_zero_is_mirrored(argv, out, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == out


_EXIT_CODES = {
    errors.CalcError: (5, "error"),
    errors.FragmentEscape: (3, "fragment escape"),
    errors.NotNormalized: (5, "error"),
    errors.UnitCertificateViolated: (5, "error"),
    errors.ZeroTestUnsupported: (5, "error"),
    errors.CellError: (5, "error"),
    errors.InconsistentOrientation: (3, "error"),
    errors.UncertifiedCell: (3, "error"),
    errors.NotPrepared: (3, "error"),
    errors.NotAllUndetermined: (3, "error"),
    errors.NotBounded: (5, "error"),
    errors.EmptyExpr: (3, "error"),
    errors.NotIntegrable: (4, "not integrable"),
    errors.BoundUnitUnsupported: (5, "error"),
    errors.NoDecay: (3, "error"),
    errors.DomainError: (3, "error"),
    errors.SingularityTooStrong: (5, "error"),
    errors.ParseError: (2, "parse error"),
}


def test_every_error_class_has_an_exit_code():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.CalcError)}
    assert classes == set(_EXIT_CODES)


@pytest.mark.parametrize("cls", list(_EXIT_CODES), ids=lambda c: c.__name__)
def test_exit_code_and_label_of_each_error_class(cls, monkeypatch, capsys):
    exc = cls("boom")

    def raise_it(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "prepare_expr", raise_it)
    code, label = _EXIT_CODES[cls]
    assert main(["prepare", "y1 on {0<y1<1}"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{label}: {exc}\n"


def test_validate_deterministic():
    c1, out1, _ = run_cli("validate", "--seed", "7", "--json")
    c2, out2, _ = run_cli("validate", "--seed", "7", "--json")
    assert c1 == c2 == 0
    assert out1 == out2
    report = json.loads(out1)
    jsonschema.validate(report, SCHEMA)
    assert report["result"]["passed"] is True


def test_seed_belongs_to_validate_only():
    code, _, err = run_cli("integrate", "1 on {0<y1<1}", "--seed", "1")
    assert code == 1 and "--seed" in err
    code, report = run_json("validate", "--seed", "3")
    assert code == 0
    assert report["result"]["seed"] == 3
    assert report["result"]["samples"] == 20


def test_main_callable_directly(capsys):
    code = main(["integrate", "1 on {0<y1<1, 0<y2<y1}", "--vars", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_shared_parser_carries_nothing_between_calls(capsys):
    # main reuses one parser per process; every call starts from its own
    # subcommand's defaults
    tri = "1 on {0<y1<1, 0<y2<y1}"
    assert main(["integrate", tri, "--vars", "2"]) == 0
    assert capsys.readouterr().out == "1/2\n"
    assert main(["integrate", tri]) == 0
    assert capsys.readouterr().out == "y1\n"  # --vars 1

    assert main(["validate", "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["seed"] == 3
    assert main(["validate", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["seed"] == 0

    assert main(["integrate", tri, "--vars", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["exact"] == "1/2"
    assert main(["integrate", tri, "--vars", "2"]) == 0
    assert capsys.readouterr().out == "1/2\n"

    assert main(["validate", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["seed"] == 0

    assert main(["eval", "x1 on {0<x1<1}"]) == 1  # --at is required
    assert "--at" in capsys.readouterr().err
    assert main(["eval", "x1 on {0<x1<1}", "--at", "1/2"]) == 0
    assert capsys.readouterr().out == "0.5\n"


def test_parser_built_once_per_process(monkeypatch, capsys):
    # one tree is the root parser and its seven subcommand parsers; a
    # build per call would make 160 over these 20 calls
    built = [0]
    init = cli._ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    argvs = [
        ["integrate", "1 on {0<y1<1, 0<y2<y1}", "--vars", "2"],
        ["prepare", "log(2*y1) on {0<y1<1}", "--json"],
        ["check-integrability", "y1^(-1) on {0<y1<1}"],
        ["decay-rate", "y1^(1/2) on {0<y1<1}"],
        ["eval", "x1 on {0<x1<1}", "--at", "1/3"],
        ["integrate", "x1 +"],
        ["integrate"],
        ["sliver", "y1 on {0<y1<1}"],
        ["integrate", "1 on {0<y1<1}", "--seed", "1"],
        ["eval", "x1 on {0<x1<1}"],
    ]
    for argv in argvs * 2:
        main(argv)
    capsys.readouterr()
    assert built[0] <= 8


@pytest.mark.parametrize(
    "source,vars_,expect",
    [
        ("x1 - x1 on {0<x1<1}", 1, "0"),
        ("y1*y2*y3 on {0<y1<1, 0<y2<y1, 0<y3<y2}", 3, "1/48"),
        ("x2 * x1 on {x1 = 1/2, 0<x2<1}", 1, "1/4"),
        ("y2^(-1/2) on {0<y1<1, 0<y2<1/4*y1^(2)}", 2, "1/2"),
        ("x1^(-3) on {2<x1<inf}", 1, "1/8"),
        ("x1^(2) on {-2 < x1 < -1}", 1, "7/3"),
    ],
)
def test_integrate_edge_values(source, vars_, expect):
    code, out, err = run_cli("integrate", source, "--vars", str(vars_))
    assert code == 0, err
    assert out.strip() == expect


@pytest.mark.parametrize(
    "args",
    [
        ("integrate", "y2 on {0<y1<1, y2=y1}"),
        ("integrate", "y2 on {y1=1/2, 0<y2<1}", "--vars", "2"),
        ("integrate", "y3 on {0<y1<1, y2=y1, 0<y3<y1}", "--vars", "2"),
        ("check-integrability", "y2^(-2) on {0<y1<1, y2=y1}"),
        ("decay-rate", "y2^(-2) on {0<y1<1, y2=y1}"),
    ],
    ids=["integrate", "integrate-base", "integrate-middle", "check", "decay"],
)
def test_thin_fiber_variable_refused(args):
    # the fiber of a thin variable is a point; eliminating it first would
    # make an earlier variable the last one and answer for the wrong fiber
    code, out, err = run_cli(*args)
    assert code == 3 and out == ""
    assert "is thin" in err


@pytest.mark.parametrize(
    "args,expect",
    [
        (("prepare", "y2 on {0<y1<1, y2=y1}"), "  J = [0]: y1"),
        (("sliver", "y2 on {0<y1<1, y2=y1}"), "epsilon = 1/2"),
        (("eval", "y2 on {0<y1<1, y2=y1}", "--at", "1/2,1/2"), "0.5"),
        (("integrate", "y3 on {0<y1<1, y2=y1, 0<y3<y1}"), "1/2 * y1^(2)"),
        (("check-integrability", "y2^(-1/2) on {y1=1/2, 0<y2<1}"),
         "integrable: True"),
        (("decay-rate", "y2^(2) on {y1=1/2, 0<y2<1}"),
         "r = 1 (rbar = 2, eps = 1, delta = 1/4)"),
    ],
    ids=["prepare", "sliver", "eval", "integrate-middle", "check-base",
         "decay-base"],
)
def test_thin_variable_off_the_fiber_kept(args, expect):
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert out.splitlines()[-1] == expect


@pytest.mark.parametrize(
    "args,expect",
    [
        (("integrate", "x2 on {x1 = 1/2, x2 = x1, 0<x3<1}", "--vars", "1"),
         "1/2\n"),
        (("integrate", "log(x2) on {x1 = 1/2, x2 = x1, 0<x3<1}", "--vars", "1"),
         "-log(2)\n"),
        (("integrate", "x3 on {0<x1<1, x2 = x1, x3 = x2, 0<x4<1}", "--vars", "1"),
         "x1\n"),
        (("prepare", "x2*x3 on {x1 = 1/2, x2 = x1, 0<x3<1}"),
         "prepared pieces: 1\n  J = [0]: 1/2 * x3\n"),
        # a bound reads a thin variable through its graph too
        (("integrate", "x2 on {x1 = 2, 0<x2<x1}", "--vars", "1"), "2\n"),
        (("integrate", "x3 on {0<x1<1, x2 = x1^(2), x2<x3<x1}", "--vars", "1"),
         "1/2 * x1^(2) - 1/2 * x1^(4)\n"),
    ],
    ids=["power", "log", "chain-of-three", "prepare", "bound", "bound-over-fat"],
)
def test_a_graph_reading_a_thin_variable_keeps_its_value(args, expect, capsys):
    # every graph is written over the kept variables before any term or
    # bound is substituted, so x2 = x1 carries x1's value, power and log
    assert main(list(args)) == 0
    assert capsys.readouterr().out == expect


@pytest.mark.parametrize("source", [
    "x2 on {x1 = -1/2, x2 = x1^(2), 0<x3<1}",
    "x2 on {x1 = -1, 0<x2<x1^(2)}",
], ids=["graph", "bound"])
def test_a_graph_reading_a_negative_thin_variable_is_refused(source, capsys):
    # x2 = x1^(2) = 1/4 is a power of the negative thin variable x1, refused
    # as x1^(2) itself is, in a graph and in a bound alike
    argv = ["integrate", source, "--vars", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "power of negative thin variable x1" in captured.err


def test_nested_log_rejected_cleanly():
    code, _, err = run_cli("prepare", "log(log(x1)) on {0<x1<1}")
    assert code == 3 and "log-free" in err


def test_eval_point_arity_checked():
    code, _, err = run_cli("eval", "x1 on {0<x1<1}", "--at", "1/2,1/3")
    assert code == 1 and "arity" in err


def test_negative_first_coordinate_needs_the_equals_form(capsys):
    # argparse reads a lone -3/2 as an option (its negative-number pattern
    # takes integers and decimals only); --at=-3/2 passes the point
    source = "y1^(2) on {-2<y1<-1}"
    assert main(["eval", source, "--at", "-3/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: argument --at: expected one argument\n"
    assert main(["eval", source, "--at=-3/2"]) == 0
    assert capsys.readouterr().out == "2.25\n"
    with pytest.raises(SystemExit):
        main(["eval", "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "write --at=-3/2 when the first is negative" in help_text


def test_eval_point_beyond_float_range_is_a_usage_error(capsys):
    # 1e400 is an exact rational, but no float holds it
    assert main(["eval", "y1 on {0<y1<1}", "--at", "1e400"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: bad --at point:" in captured.err


def test_eval_point_with_a_zero_denominator_is_a_usage_error(capsys):
    # the words of the parser's own refusal, not Fraction's "Fraction(1, 0)"
    assert main(["eval", "y1 on {0<y1<1}", "--at=1/0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: bad --at point: zero denominator\n"


@pytest.mark.parametrize("name,reason", [
    ("nonexistent.cf", "No such file or directory"),
    (".", "Is a directory"),
    ("latin-1.cf", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["missing", "directory", "not-utf-8"])
def test_an_unreadable_input_is_a_usage_error(name, reason, tmp_path, capsys):
    # the caller's mistake (exit 1), not an internal error (exit 5)
    (tmp_path / "latin-1.cf").write_bytes(b"\xff * y1 on {0<y1<1}")
    path = tmp_path / name
    assert main(["prepare", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot read {path}: {reason}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("json_", [False, True], ids=["text", "json"])
def test_prepare_prints_each_piece_once(json_, monkeypatch, capsys):
    # one text serves the JSON report and the text lines
    texts = []

    def counted(e, names=None):
        texts.append(print_expr(e, names))
        return texts[-1]

    monkeypatch.setattr(cli, "print_expr", counted)
    argv = ["prepare", "log(30030*y1)^8 on {0<y1<1}"] + ["--json"] * json_
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(texts) == 1
    if json_:
        assert json.loads(out)["result"]["pieces"][0]["terms"] == texts[0]
    else:
        assert out == f"prepared pieces: 1\n  J = [0]: {texts[0]}\n"


def test_eval_outside_the_closure_of_the_cell_is_refused(capsys):
    # decided exactly on the source cell: y2 = 3/4 lies above y1 = 1/2
    assert main(["eval", "y2 on {0<y1<1, 0<y2<y1}", "--at", "1/2,3/4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot evaluate at 1/2,3/4: the point is "
                            "outside the closure of the cell\n")
    # a point on the boundary still evaluates
    assert main(["eval", "y2 on {0<y1<1, 0<y2<y1}", "--at", "1/2,1/2"]) == 0
    assert capsys.readouterr().out == "0.5\n"


def test_logs_of_sums_that_differ_in_a_coefficient_stay_apart(capsys):
    # log(1 + x1) and log(2 + x1) have arguments with the same term
    # signatures; they once merged into 2 * log(1 + x1)
    argv = ["eval", "log(1+x1) + log(2+x1) on {0<x1<1}", "--at", "1/2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1.3217558399823195\n"
    # the difference is not 0: the second log is refused, not cancelled
    assert main(["integrate", "log(1+x1) - log(2+x1) on {0<x1<1}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "opaque unit-log factor involves the analyzed variable" in captured.err


def test_integrate_fractional_power_of_huge_bound():
    # the bound's denominator is far beyond float range; the exact root of
    # 10^400 must still be found (integral = (2/3) * 10^-600)
    code, out, err = run_cli(
        "integrate", f"y1^(1/2) on {{0<y1<1/{10**400}}}"
    )
    assert code == 0, err
    assert out.strip() == f"1/{15 * 10**599}"


def test_bench_tracer_names_exist():
    # bench/tracing.py wraps these names by attribute lookup, so removing
    # one from the package breaks the traced benchmark run
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _, _ in tracing.WRAPPED:
        owner = importlib.import_module(f"cfcalc.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"cfcalc.{module}.{attr}")
    assert not missing


def test_cli_mix_goldens_replay(capsys):
    # the benchmark's pinned cli-mix calls: same exit code, byte-identical
    # stdout (text and --json reports over six subcommands)
    golden = ROOT / "bench" / "goldens" / "cli-mix.json.gz"
    entries = json.loads(gzip.decompress(golden.read_bytes()))["entries"]
    assert len(entries) == 576
    mismatched = []
    for entry in entries:
        code = main(list(entry["argv"]))
        if (code, capsys.readouterr().out) != (entry["exit"], entry["stdout"]):
            mismatched.append(entry["argv"])
    assert not mismatched, mismatched[:5]


def test_validate_goldens_replay(capsys):
    # every pinned validate call, text and --json, in one process: the JSON
    # reports print each max_deviation in full, so this pins the float
    # evaluation bit for bit
    golden = ROOT / "bench" / "goldens" / "validate.json.gz"
    entries = json.loads(gzip.decompress(golden.read_bytes()))["entries"]
    assert len(entries) == 192
    mismatched = []
    for entry in entries:
        code = main(list(entry["argv"]))
        if (code, capsys.readouterr().out) != (entry["exit"], entry["stdout"]):
            mismatched.append(entry["argv"])
    assert not mismatched, mismatched[:5]
    # the whole pool's panel structures fit the kernel table: each was
    # compiled once and none was dropped, so repeated passes never compile
    kernels = table_stats()["core._fiber_kernel"]
    assert kernels["misses"] == kernels["size"] < kernels["maxsize"]


def test_every_json_golden_report_meets_the_schema():
    # the pinned --json reports of the three pools, exit 0 and 4, as stored
    reports = [
        json.loads(entry["stdout"])
        for pool in ("cli-mix", "log-growth", "validate")
        for entry in json.loads(gzip.decompress(
            (ROOT / "bench" / "goldens" / f"{pool}.json.gz").read_bytes()
        ))["entries"]
        if "--json" in entry["argv"] and entry["stdout"]
    ]
    assert len(reports) == 421
    for report in reports:
        jsonschema.validate(report, SCHEMA)


def test_log_growth_goldens_replay(capsys):
    # the benchmark's pinned log-growth calls: integrate y^a * log(P*y)^k
    # over 1- and 2-variable cells, up to 3003 prepared terms; same exit
    # code and byte-identical stdout on the path that reuses canonical
    # terms instead of rebuilding them
    golden = ROOT / "bench" / "goldens" / "log-growth.json.gz"
    entries = json.loads(gzip.decompress(golden.read_bytes()))["entries"]
    assert len(entries) == 158
    mismatched = []
    for entry in entries:
        code = main(list(entry["argv"]))
        if (code, capsys.readouterr().out) != (entry["exit"], entry["stdout"]):
            mismatched.append(entry["argv"])
    assert not mismatched, mismatched[:5]


_SOURCE_SUBCOMMANDS = ("prepare", "integrate", "check-integrability",
                       "decay-rate", "sliver", "eval")


@st.composite
def cli_argvs(draw):
    """argv for one of the six source subcommands on a README-grammar
    source, with --json, --vars and --at drawn too."""
    names, source = draw(source_texts())
    cmd = draw(st.sampled_from(_SOURCE_SUBCOMMANDS))
    argv = [cmd, source]
    if cmd == "integrate":
        argv += ["--vars", str(draw(st.integers(1, len(names) + 1)))]
    if cmd == "eval":
        point = draw(st.lists(st.sampled_from(("1/8", "1/2", "3", "-1/3")),
                              min_size=len(names), max_size=len(names)))
        argv.append("--at=" + ",".join(point))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@seed(20261019)
@settings(max_examples=600, deadline=None, database=None)
@given(cli_argvs())
def test_cli_fuzz_exit_codes_and_warm_repeat(argv):
    # every source is refused with a code (1 usage, 2 parse, 3 refusal) or
    # answered (0, 4 not integrable), never an internal error (5); the
    # second call meets the cell, shape and kernel tables the first one
    # filled, and must print the same bytes
    clear_tables()
    code, out, err = _call(argv)
    assert code in (0, 1, 2, 3, 4), (argv, err)
    assert code in (0, 4) or out == "", argv
    assert err.count("\n") <= 1, argv
    if out and "--json" in argv:
        # a report of exit 0, or of exit 4 from check-integrability
        jsonschema.validate(json.loads(out), SCHEMA)
    assert _call(argv) == (code, out, err), argv


# (hits, misses) of the generated-cell and round-trip tables after one
# cold validate call: 30 generated cells and 20 drawn (r, s) pairs, some of
# them drawn twice in the same call
VALIDATE_COLD_STATS = {0: ((6, 24), (4, 16)), 7: ((9, 21), (4, 16)),
                       1001: ((8, 22), (1, 19))}


def _validate_stats():
    stats = table_stats()
    return tuple((stats[name]["hits"], stats[name]["misses"])
                 for name in ("generators._cell", "cli._round_trip_holds"))


@pytest.mark.parametrize("seed_", [0, 7, 1001])
@pytest.mark.parametrize("json_", [False, True], ids=["text", "json"])
def test_validate_cold_and_warm_print_the_same_bytes(seed_, json_):
    # the warm call meets the probe, generated-cell and round-trip tables
    # the cold one filled; the report must not change by a byte
    argv = ["validate", "--seed", str(seed_)] + ["--json"] * json_
    clear_tables()
    cold = _call(argv)
    assert cold[0] == 0
    probes = table_stats()["oracle.divergence_probe"]
    assert (probes["hits"], probes["misses"]) == (0, 12)
    assert _validate_stats() == VALIDATE_COLD_STATS[seed_]
    assert _call(argv) == cold
    probes = table_stats()["oracle.divergence_probe"]
    assert (probes["hits"], probes["misses"]) == (12, 12)
    # the warm call is all hits
    (cells, cells_missed), (trips, trips_missed) = VALIDATE_COLD_STATS[seed_]
    assert _validate_stats() == ((cells + 30, cells_missed),
                                 (trips + 20, trips_missed))


# quadrature calls of one validate call: each of its ten generated instances
# that integrates to one piece is integrated at three base points drawn from
# its base cell, or once when it has one variable, whose only base point is
# the empty one
VALIDATE_QUADRATURE_CALLS = {0: 22, 7: 18, 1001: 20}


@pytest.mark.parametrize("seed_", [0, 7, 1001])
@pytest.mark.parametrize("json_", [False, True], ids=["text", "json"])
def test_validate_integrates_each_fiber_once(seed_, json_, monkeypatch):
    # every quadrature of one validate call is a different fiber: a
    # one-variable instance is not integrated again over the same empty
    # base point
    calls = []
    quadrature = cli.quadrature_last

    def recording(e, base_point, lo, hi, tol):
        calls.append((e, tuple(base_point), lo, hi))
        return quadrature(e, base_point, lo, hi, tol=tol)

    monkeypatch.setattr(cli, "quadrature_last", recording)
    argv = ["validate", "--seed", str(seed_)] + ["--json"] * json_
    assert _call(argv)[0] == 0
    assert len(set(calls)) == len(calls) == VALIDATE_QUADRATURE_CALLS[seed_]
