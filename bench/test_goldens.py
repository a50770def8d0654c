"""Checks on the pinned goldens and the benchmark's own definitions.

    python3 -m pytest bench/test_goldens.py

The exact constants that ``integrate`` printed into the goldens are checked
against mpmath quadrature of the source integrand, evaluated from the source
text without cfcalc, so the reference does not come from the program under
test alone.  Run these after re-recording the goldens with make_goldens.py.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

mpmath = pytest.importorskip("mpmath")

_INT = re.compile(r"(?<![\w.])(\d+)")
NAMESPACE = {"mpf": mpmath.mpf, "log": mpmath.log, "inf": mpmath.inf}


def to_python(text: str):
    """Compile source-language arithmetic with exact-literal mpf numbers."""
    return compile(_INT.sub(r"mpf(\1)", text.replace("^", "**")), text, "eval")


def parse_source(source: str):
    """(integrand, [(variable, lower, upper), ...]) from 'EXPR on {CELL}'."""
    expr, cell = source.split(" on ")
    chains = []
    for chain in cell.strip().strip("{}").split(","):
        lower, var, upper = (part.strip() for part in chain.split("<"))
        chains.append((var, to_python(lower), to_python(upper)))
    return to_python(expr), chains


def quadrature(integrand, chains, env=None, i=0):
    """Iterated tanh-sinh quadrature over the chain cell.  Each variable is
    a + (b - a) s^2 for s in (0, 1), which smooths the y^r log(y)^k
    singularities at lower endpoints enough for 1e-9 agreement."""
    env = env or {}
    if i == len(chains):
        return eval(integrand, NAMESPACE, env)
    var, lower, upper = chains[i]
    a, b = eval(lower, NAMESPACE, env), eval(upper, NAMESPACE, env)
    return mpmath.quad(
        lambda s: 2 * (b - a) * s * quadrature(
            integrand, chains, {**env, var: a + (b - a) * s * s}, i + 1),
        [0, 1])


def printed_value(stdout: str) -> str:
    if stdout.startswith("{"):
        return json.loads(stdout)["result"]["values"][0]
    return stdout.splitlines()[0]


def full_integrations():
    for workload in corpus.WORKLOADS:
        for entry in corpus.load_goldens(workload):
            argv = entry["argv"]
            if argv[0] != "integrate" or entry["exit"] != 0:
                continue
            nvars = argv[1].count("<") // 2
            if "--vars" in argv and int(argv[argv.index("--vars") + 1]) == nvars:
                yield pytest.param(argv[1], entry["stdout"], id=argv[1][:60])


@pytest.mark.parametrize("source,stdout", list(full_integrations()))
def test_exact_constant_matches_quadrature(source, stdout):
    mpmath.mp.dps = 20
    integrand, chains = parse_source(source)
    want = quadrature(integrand, chains)
    got = eval(to_python(printed_value(stdout)), NAMESPACE, {})
    assert abs(got - want) <= 1e-9 * max(1, abs(want)), (got, want)


def test_log_growth_term_counts():
    for entry in corpus.load_goldens("log-growth"):
        a = len(entry["primes"])
        value = printed_value(entry["stdout"])
        assert worker.count_terms(value) == math.comb(entry["k"] + a, a), entry["argv"]


def test_goldens_hold_the_generated_pool():
    for workload in corpus.WORKLOADS:
        recorded = [e["argv"] for e in corpus.load_goldens(workload)]
        assert recorded == [e["argv"] for e in corpus.make_pool(workload)]


def test_pass_has_one_input_per_band_and_depends_on_seed():
    for workload in corpus.WORKLOADS:
        entries = corpus.load_goldens(workload)
        first = corpus.draw_pass(entries, workload, 1)
        assert first == corpus.draw_pass(entries, workload, 1)
        assert sorted(first) != sorted(corpus.draw_pass(entries, workload, 2))
        assert len(first) == sum(corpus.per_pass_counts(workload).values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
