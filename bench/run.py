"""cfcalc benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it needs ``src/cfcalc`` and
nothing installed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

# every workload's default seed; seed 1001 is held out for confirming a
# claim (BENCHMARK.json names both)
DEFAULT_SEED = 1
# every input is timed at least this often
MIN_PASSES = 3
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
    "error_free_share": "share",
    "golden_match_share": "share",
}
SETUP_RUNS = 9
# prints wall seconds and calibrated seconds; the kernel runs after the
# timed import so that it does not import anything cfcalc needs
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cfcalc.cli\n"
    "cfcalc.cli.build_parser()\n"
    "took = time.perf_counter() - start\n"
    "import statistics, calibrate\n"
    "kernel = statistics.median(calibrate.kernel_seconds() for _ in range(5))\n"
    "print(took, took * calibrate.REFERENCE_S / kernel)\n"
)
RUN_LIMIT_S = 170
REFERENCE_MS = calibrate.REFERENCE_S * 1000


def tail_percentile(n: int) -> int:
    """Highest of 99/95/90/75/50 with at least ten of n samples above it."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return p
    raise ValueError("too few samples for any tail percentile")


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def measure_setup(deadline: float) -> list[list[float]]:
    """Import plus build_parser in fresh interpreters, timed in the child:
    [wall s, calibrated s] per child.  The first child compiles bytecode and
    is not counted."""
    times = []
    for n in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if n:
            times.append([float(x) for x in out.stdout.split()])
    return times


def run_worker(plan: dict, deadline: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=child_env(),
        input=json.dumps(plan), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"worker failed with exit code {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "cfcalc" / "cli.py").is_file():
        print(f"no cfcalc sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed

    entries = corpus.load_goldens(args.workload)
    chosen = [entries[i] for i in corpus.draw_pass(entries, args.workload, seed)]
    spans_path = BENCH / "out" / f"spans-{args.workload}-seed{seed}.tsv.gz"
    if args.trace:
        spans_path.parent.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(deadline)
    result = run_worker({
        "argvs": [e["argv"] for e in chosen],
        "seconds": args.seconds,
        "min_passes": MIN_PASSES,
        "trace": bool(args.trace),
        "spans_path": str(spans_path),
        "count_terms": args.workload == "log-growth",
    }, deadline)

    # correctness: every call, warm-up and traced ones included
    want = [(e["exit"], hashlib.sha256(e["stdout"].encode()).hexdigest())
            for e in chosen]
    calls = result["calls"]
    timed_passes = set(result["timed_passes"])
    timed = [c for c in calls if c[0] in timed_passes]
    mismatched = [c for c in calls if (c[2], c[3]) != want[c[1]]]
    mismatched_timed = [c for c in mismatched if c[0] in timed_passes]
    errors = [c for c in timed if c[2] in (-1, 5)]
    repeats_identical = all(
        len({(c[2], c[3]) for c in calls if c[1] == i}) == 1
        for i in range(len(chosen)))
    counts_ok = True
    for e, (n_integrated, n_prepared) in zip(chosen, result.get("term_counts", [])):
        expected = math.comb(e["k"] + len(e["primes"]), len(e["primes"]))
        if n_integrated != expected or n_prepared != expected:
            counts_ok = False
            print(f"term count {n_integrated}/{n_prepared} != {expected}: {e['argv']}")
    for c in mismatched[:5]:
        print(f"golden mismatch (exit {c[2]}): {chosen[c[1]]['argv']}")
    correct = (not mismatched and not errors and repeats_identical and counts_ok
               and result.get("counts_repeat", True))

    n = len(timed)
    first_pass = result["passes"][min(timed_passes)]
    if args.trace:
        metrics = {name: {"value": result["layer"][name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        # one sample per input: the median of its timed repeats
        per_input = [[] for _ in chosen]
        for c in timed:
            per_input[c[1]].append(c)
        wall = [statistics.median(c[5] for c in cs) * 1000 for cs in per_input]
        calibrated = [statistics.median(c[6] for c in cs) * 1000 for cs in per_input]
        pct = tail_percentile(len(chosen))
        values = {
            "setup_s": statistics.median(t[1] for t in setup),
            "latency_p50_ms": statistics.median(calibrated),
            "latency_tail_ms": nearest_rank(calibrated, pct),
            "calls_per_s": len(chosen) / sum(calibrated) * 1000,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "output_bytes": sum(c[4] for c in calls[first_pass[0]:first_pass[1]]),
            "error_free_share": 1 - len(errors) / n,
            "golden_match_share": 1 - len(mismatched_timed) / n,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"workload {args.workload}, seed {seed}: {len(chosen)} inputs per "
              f"pass, {len(timed_passes)} timed passes, {n} timed calls")
        repeats = min(len(cs) for cs in per_input)
        print(f"  setup_s: median of {len(setup)} fresh interpreters "
              f"(wall {statistics.median(t[0] for t in setup):.4f} s)")
        print(f"  each input's time is the median of its >= {repeats} timed "
              f"repeats; n = {len(chosen)} inputs, {n} calls")
        print(f"  latency_p50_ms: median over inputs (wall {statistics.median(wall):.4f} ms)")
        print(f"  latency_tail_ms: p{pct} over inputs, {len(chosen) - math.ceil(pct / 100 * len(chosen))}"
              f" inputs above it (wall {nearest_rank(wall, pct):.4f} ms)")
        print(f"  calls_per_s: inputs over the sum of their times "
              f"(wall {len(chosen) / sum(wall) * 1000:.4f} 1/s)")
        print(f"  kernel: median {statistics.median(result['kernel_s']) * 1000:.3f} ms "
              f"of {len(result['kernel_s'])} runs; times below are calibrated "
              f"to a {REFERENCE_MS} ms kernel")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print(f"  correct={correct}: {len(mismatched)} golden mismatches, "
          f"repeats identical={repeats_identical}, term counts ok={counts_ok}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
