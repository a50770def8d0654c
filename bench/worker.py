"""The closed-loop client: one process, one thread, calling
``cfcalc.cli.main(argv)`` in-process, the next call only after the last one
returned.

``run.py`` starts it with the plan as JSON on stdin and reads one JSON result
line from its stdout.  Plan keys: ``argvs`` (one pass, in call order),
``seconds``, ``min_passes``, ``trace`` (bool), ``spans_path`` and
``count_terms`` (run ``prepare`` on every input after timing and report
term counts).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time

import calibrate
import tracing

import cfcalc.cli

WARMUP_SECONDS = 1.0


def call(argv: list[str]) -> tuple[int, str, float, float]:
    """One call of main: exit code (-1 if it raised), stdout, start, end."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cfcalc.cli.main(argv)
    except Exception:  # a crash is a result to report, not a reason to stop
        code = -1
    return code, out.getvalue(), start, time.perf_counter()


def count_terms(text: str) -> int:
    """Top-level summands of a printed expression."""
    depth, n = 0, 1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text[i:i + 3] in (" + ", " - "):
            n += 1
    return n


def value_terms(integrated: str, prepared: str) -> list[int]:
    """Term counts of the first integrated value (text or --json report) and
    of the prepared piece (--json report); -1 where a report has none."""
    try:
        if integrated.startswith("{"):
            value = json.loads(integrated)["result"]["values"][0]
        else:
            value = integrated.splitlines()[0]
        n_integrated = count_terms(value)
    except (ValueError, KeyError, IndexError):
        n_integrated = -1
    try:
        n_prepared = count_terms(json.loads(prepared)["result"]["pieces"][0]["terms"])
    except (ValueError, KeyError, IndexError):
        n_prepared = -1
    return [n_integrated, n_prepared]


class Client:
    def __init__(self, argvs: list[list[str]]):
        self.argvs = argvs
        self.tracer: tracing.Tracer | None = None
        self.calibrator = calibrate.Calibrator()
        # per call: pass (-1 for warm-up), input index, exit code, stdout
        # sha256, stdout bytes, start, end
        self.calls: list[list] = []
        self.passes: list[tuple[int, int]] = []  # first call, end call
        self.first_stdout: dict[int, str] = {}

    def one(self, pass_no: int, i: int) -> None:
        if self.tracer is not None:
            self.tracer.call_id = len(self.calls)
        code, stdout, start, end = call(self.argvs[i])
        self.first_stdout.setdefault(i, stdout)
        data = stdout.encode()
        self.calls.append([pass_no, i, code, hashlib.sha256(data).hexdigest(),
                           len(data), start, end])

    def warm_up(self) -> None:
        start = time.perf_counter()
        for i in range(len(self.argvs)):
            self.one(-1, i)
            if time.perf_counter() - start >= WARMUP_SECONDS:
                break

    def run_passes(self, seconds: float, min_passes: int, on_pass=None) -> list[int]:
        """Whole passes until both `seconds` of calls and `min_passes` are
        done; returns the numbers of the passes run."""
        done = []
        busy = 0.0
        while busy < seconds or len(done) < min_passes:
            gc.collect()
            first = len(self.calls)
            for i in range(len(self.argvs)):
                self.one(len(self.passes), i)
            busy += sum(c[6] - c[5] for c in self.calls[first:])  # with kernel runs
            done.append(len(self.passes))
            self.passes.append((first, len(self.calls)))
            if on_pass is not None:
                on_pass()
        return done

    def timings(self) -> list[list[float]]:
        """Per call: wall seconds and calibrated seconds."""
        self.calibrator.stop()
        return [list(self.calibrator.timing(c[5], c[6])) for c in self.calls]


def calls_per_s(calls: list[list], timings: list[list[float]], pass_nos) -> float:
    """Timed calls over their calibrated busy seconds."""
    chosen = [i for i, c in enumerate(calls) if c[0] in pass_nos]
    return len(chosen) / sum(timings[i][1] for i in chosen)


def main() -> None:
    plan = json.load(sys.stdin)
    client = Client(plan["argvs"])
    client.warm_up()
    seconds = plan["seconds"]
    result: dict = {}
    if not plan["trace"]:
        timed = client.run_passes(seconds, plan["min_passes"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timings = client.timings()
    else:
        untraced = client.run_passes(seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        client.tracer = tracer
        bounds = []  # per traced pass: first span, end span, counters

        def close_pass():
            first = bounds[-1][1] if bounds else 0
            bounds.append((first, len(tracer.spans), tracer.counts.copy()))
            tracer.counts.clear()

        traced = client.run_passes(seconds / 2, 1, on_pass=close_pass)
        timings = client.timings()
        own = tracing.self_times(tracer.spans)
        per_pass = []
        for pass_no, (first, end, counts) in zip(traced, bounds):
            metrics = tracing.pass_metrics(tracer.spans, own, counts, first, end)
            # rescale span times like the calls of the same pass; spans,
            # like end - start, include the kernel runs inside them
            lo, hi = client.passes[pass_no]
            scale = (sum(t[1] for t in timings[lo:hi])
                     / sum(c[6] - c[5] for c in client.calls[lo:hi]))
            for name in metrics:
                if tracing.PER_LAYER[name][0] == "ms/pass":
                    metrics[name] *= scale
            per_pass.append(metrics)
        timed = untraced
        layer = tracing.median_metrics(per_pass)
        layer["trace.untraced_calls_per_s"] = calls_per_s(client.calls, timings, untraced)
        layer["trace.traced_calls_per_s"] = calls_per_s(client.calls, timings, traced)
        layer["trace.overhead_calls_per_s"] = (
            layer["trace.traced_calls_per_s"] - layer["trace.untraced_calls_per_s"])
        result["layer"] = layer
        result["counts_repeat"] = all(
            p[m] == per_pass[0][m] for p in per_pass for m in p
            if tracing.PER_LAYER[m][0] == "count/pass")
        tracing.write_spans(tracer.spans, plan["spans_path"])
    result["timed_passes"] = timed
    result["passes"] = client.passes
    # per call: pass, input, exit code, sha256, bytes, wall s, calibrated s
    result["calls"] = [c[:5] + t for c, t in zip(client.calls, timings)]
    result["kernel_s"] = client.calibrator.took
    if plan["count_terms"]:
        result["term_counts"] = [
            value_terms(client.first_stdout[i], call(["prepare", argv[1], "--json"])[1])
            for i, argv in enumerate(client.argvs)
        ]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
