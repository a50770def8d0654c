"""Record the pinned goldens: run every pool input once and store its exit
code and stdout in ``goldens/<workload>.json.gz``.

    PYTHONPATH=src python3 bench/make_goldens.py [WORKLOAD ...]

Run it only when the program's output is meant to change, and say why in
CHANGES.md; then run ``python3 -m pytest bench/test_goldens.py`` to check the new exact
constants against mpmath quadrature.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

import corpus

from cfcalc import __version__
from cfcalc.cli import main

def run_once(argv: list[str]) -> tuple[int, str, int]:
    """Exit code, stdout and cost of one call.  The cost is the number of
    Python and builtin function calls made: unlike a time it repeats exactly,
    so re-recording gives the same bands."""
    out = io.StringIO()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.setprofile(None)
    return code, out.getvalue(), calls


def record(workload: str) -> None:
    pool = corpus.make_pool(workload)
    costs = []
    for entry in pool:
        code, stdout, cost = run_once(entry["argv"])
        if code == 5:
            raise SystemExit(f"internal error on {entry['argv']}")
        entry["exit"] = code
        entry["stdout"] = stdout
        entry["cost_calls"] = cost
        costs.append(cost)
    for stratum, count in corpus.per_pass_counts(workload).items():
        members = sorted((i for i, e in enumerate(pool) if e["stratum"] == stratum),
                         key=lambda i: (costs[i], i))
        size = len(members) // count
        for rank, i in enumerate(members):
            pool[i]["band"] = rank // size
    doc = {"workload": workload, "pool_seed": corpus.POOL_SEED,
           "cfcalc_version": __version__, "entries": pool}
    corpus.GOLDEN_DIR.mkdir(exist_ok=True)
    data = json.dumps(doc, indent=1, sort_keys=True).encode()
    with open(corpus.golden_path(workload), "wb") as fh:
        # mtime=0 keeps the file byte-identical when the outputs are
        fh.write(gzip.compress(data, mtime=0))
    print(f"{workload}: {len(pool)} inputs, {sum(costs)} function calls")


if __name__ == "__main__":
    for name in sys.argv[1:] or corpus.WORKLOADS:
        record(name)
