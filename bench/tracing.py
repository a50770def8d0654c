"""Spans around the public functions of each cfcalc layer, installed from
outside the package (no source under ``src/`` changes).

A span records (name, parent span, call id, start, end).  Spans stay in
memory until ``write_spans``; ``pass_metrics`` turns one pass's spans and
counters into the per-layer metrics listed in ``BENCHMARK.json``.

The wrapped names are the ones ``cfcalc.cli`` looks up, the bound
``normalize`` of every module, ``integrate_last``/``integrable_locus``/
``sum_integrable_last`` as ``cfcalc.integrate`` sees them, ``dominance`` and
``build_sliver`` as ``cfcalc.analyze`` sees them, ``CellNormalization.
pull_back`` and ``CExpr.__add__``.  A span's layer is the module that defines
the function, so ``integrate.integrable_locus`` counts as ``analyze``.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import statistics
import time

LAYERS = ("cli", "parser", "cells", "prepare", "analyze", "sliver",
          "integrate", "core", "oracle", "generators")


def _terms(e) -> int:
    return len(e.terms)


# (module the name is bound in, attribute, span name, counter update or None).
# A counter update gets (counts, args, result) after a successful call.
WRAPPED = [
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "parse", "parser.parse", None),
    ("cli", "print_expr", "parser.print_expr",
     lambda c, a, r: c.update({"parser.print_terms": _terms(a[0])})),
    ("cli", "substitute_thin", "prepare.substitute_thin", None),
    ("cli", "prepare_expr", "prepare.prepare_expr",
     lambda c, a, r: c.update({"prepare.terms_in": _terms(a[0]),
                               "prepare.terms_out": sum(_terms(p.terms) for p in r)})),
    ("cli", "normalize_cell", "cells.normalize_cell", None),
    ("cli", "transform_H", "cells.transform_H", None),
    ("cells", "CellNormalization.pull_back", "cells.pull_back",
     lambda c, a, r: c.update({"cells.pull_back_terms_out": _terms(r)})),
    ("cli", "sum_integrable_last", "analyze.sum_integrable_last", None),
    ("integrate", "sum_integrable_last", "analyze.sum_integrable_last", None),
    ("integrate", "integrable_locus", "analyze.integrable_locus",
     lambda c, a, r: c.update({"analyze.cells_kept": len(r.kept),
                               "analyze.cells_discarded": len(r.discarded)})),
    ("analyze", "dominance", "analyze.dominance", None),
    ("cli", "decay_rate", "analyze.decay_rate", None),
    ("cli", "build_sliver", "sliver.build_sliver", None),
    ("analyze", "build_sliver", "sliver.build_sliver", None),
    ("cli", "integrate_fubini", "integrate.integrate_fubini", None),
    ("integrate", "integrate_last", "integrate.integrate_last",
     lambda c, a, r: c.update({"integrate.last_terms_in": _terms(a[0]),
                               "integrate.last_terms_out": _terms(r)})),
    ("cli", "antiderivative_pow_log", "integrate.antiderivative", None),
    ("cli", "antiderivative_pow_log_recursive", "integrate.antiderivative", None),
    ("core", "CExpr.__add__", "core.cexpr_add",
     lambda c, a, r: c.update({"core.cexpr_add_terms": _terms(a[0]) + _terms(a[1])})),
    ("cli", "is_zero", "core.is_zero", None),
    ("cli", "differentiate_expr", "core.differentiate_expr", None),
    ("core", "expand_ratios", "core.expand_ratios", None),
    ("cli", "quadrature_last", "oracle.quadrature", None),
    ("cli", "divergence_probe", "oracle.probe", None),
    ("cli", "fiber_bounds", "oracle.fiber_bounds", None),
    ("cli", "random_integrable_instance", "generators.random_integrable_instance", None),
] + [
    (module, "normalize", "core.normalize", None)
    for module in ("cli", "core", "cells", "analyze", "integrate", "parser", "prepare")
]

# per-layer metric -> (unit, better); BENCHMARK.json lists the same names
PER_LAYER = {}
for _layer in LAYERS:
    if _layer != "generators":
        PER_LAYER[f"{_layer}.self_ms"] = ("ms/pass", "lower")
PER_LAYER.update({
    "cli.calls": ("count/pass", "higher"),
    "cli.build_parser_ms": ("ms/pass", "lower"),
    "parser.parse_ms": ("ms/pass", "lower"),
    "parser.print_ms": ("ms/pass", "lower"),
    "parser.print_terms": ("count/pass", "lower"),
    "cells.normalize_cell_ms": ("ms/pass", "lower"),
    "cells.pull_back_ms": ("ms/pass", "lower"),
    "cells.transform_H_ms": ("ms/pass", "lower"),
    "cells.pull_back_terms_out": ("count/pass", "lower"),
    "prepare.substitute_thin_ms": ("ms/pass", "lower"),
    "prepare.prepare_expr_ms": ("ms/pass", "lower"),
    "prepare.terms_in": ("count/pass", "lower"),
    "prepare.terms_out": ("count/pass", "lower"),
    "prepare.refusals": ("count/pass", "lower"),
    "analyze.sum_integrable_last_ms": ("ms/pass", "lower"),
    "analyze.integrable_locus_ms": ("ms/pass", "lower"),
    "analyze.dominance_ms": ("ms/pass", "lower"),
    "analyze.decay_rate_ms": ("ms/pass", "lower"),
    "analyze.cells_kept": ("count/pass", "higher"),
    "analyze.cells_discarded": ("count/pass", "lower"),
    "analyze.kept_ratio": ("ratio", "higher"),
    "sliver.build_sliver_ms": ("ms/pass", "lower"),
    "sliver.calls": ("count/pass", "lower"),
    "integrate.integrate_fubini_ms": ("ms/pass", "lower"),
    "integrate.integrate_last_ms": ("ms/pass", "lower"),
    "integrate.rounds": ("count/pass", "lower"),
    "integrate.last_terms_in": ("count/pass", "lower"),
    "integrate.last_terms_out": ("count/pass", "lower"),
    "integrate.antiderivative_ms": ("ms/pass", "lower"),
    "core.normalize_calls": ("count/pass", "lower"),
    "core.normalize_ms": ("ms/pass", "lower"),
    "core.cexpr_add_calls": ("count/pass", "lower"),
    "core.cexpr_add_terms": ("count/pass", "lower"),
    "oracle.quadrature_calls": ("count/pass", "lower"),
    "oracle.quadrature_ms": ("ms/pass", "lower"),
    "oracle.probe_calls": ("count/pass", "lower"),
    "oracle.probe_ms": ("ms/pass", "lower"),
    "generators.calls": ("count/pass", "lower"),
    "generators.ms": ("ms/pass", "lower"),
    "trace.spans": ("count/pass", "lower"),
    "trace.untraced_calls_per_s": ("1/s", "higher"),
    "trace.traced_calls_per_s": ("1/s", "higher"),
    "trace.overhead_calls_per_s": ("1/s", "higher"),
})

# metric -> span name whose self time (ms) or call count it reports
_SELF_MS = {
    "cli.build_parser_ms": "cli.build_parser",
    "parser.parse_ms": "parser.parse",
    "parser.print_ms": "parser.print_expr",
    "cells.normalize_cell_ms": "cells.normalize_cell",
    "cells.pull_back_ms": "cells.pull_back",
    "cells.transform_H_ms": "cells.transform_H",
    "prepare.substitute_thin_ms": "prepare.substitute_thin",
    "prepare.prepare_expr_ms": "prepare.prepare_expr",
    "analyze.sum_integrable_last_ms": "analyze.sum_integrable_last",
    "analyze.integrable_locus_ms": "analyze.integrable_locus",
    "analyze.dominance_ms": "analyze.dominance",
    "analyze.decay_rate_ms": "analyze.decay_rate",
    "sliver.build_sliver_ms": "sliver.build_sliver",
    "integrate.integrate_fubini_ms": "integrate.integrate_fubini",
    "integrate.integrate_last_ms": "integrate.integrate_last",
    "integrate.antiderivative_ms": "integrate.antiderivative",
    "core.normalize_ms": "core.normalize",
    "oracle.quadrature_ms": "oracle.quadrature",
    "oracle.probe_ms": "oracle.probe",
    "generators.ms": "generators.random_integrable_instance",
}
_CALLS = {
    "cli.calls": "cli.main",
    "sliver.calls": "sliver.build_sliver",
    "integrate.rounds": "analyze.integrable_locus",
    "core.normalize_calls": "core.normalize",
    "core.cexpr_add_calls": "core.cexpr_add",
    "oracle.quadrature_calls": "oracle.quadrature",
    "oracle.probe_calls": "oracle.probe",
    "generators.calls": "generators.random_integrable_instance",
}


class Tracer:
    """Collects spans and counters from the wrapped functions of one
    single-threaded process."""

    def __init__(self):
        # span: [name, parent index or -1, call id, start ns, end ns]
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.call_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name, count):
        from cfcalc.errors import CalcError

        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.call_id, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except CalcError:
                counts[name + ".refused"] += 1
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every name in WRAPPED with its traced version."""
        for module, attr, name, count in WRAPPED:
            owner = importlib.import_module(f"cfcalc.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def pass_metrics(spans: list[list], own: list[int], counts: collections.Counter,
                 first: int, last: int) -> dict[str, float]:
    """Per-layer metrics for the spans with index in [first, last) (one pass),
    given that pass's counters."""
    by_name_ns: collections.Counter = collections.Counter()
    by_name_calls: collections.Counter = collections.Counter()
    by_layer_ns: collections.Counter = collections.Counter()
    for i in range(first, last):
        name = spans[i][0]
        by_name_ns[name] += own[i]
        by_name_calls[name] += 1
        by_layer_ns[name.split(".", 1)[0]] += own[i]
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.endswith(".self_ms"):
            out[metric] = by_layer_ns[metric.split(".")[0]] / 1e6
    for metric, name in _SELF_MS.items():
        out[metric] = by_name_ns[name] / 1e6
    for metric, name in _CALLS.items():
        out[metric] = by_name_calls[name]
    out["prepare.refusals"] = (counts["prepare.prepare_expr.refused"]
                               + counts["prepare.substitute_thin.refused"])
    for metric in PER_LAYER:
        if metric in counts:
            out[metric] = counts[metric]
        elif PER_LAYER[metric][0] == "count/pass" and metric not in out:
            out[metric] = 0
    kept, dropped = out["analyze.cells_kept"], out["analyze.cells_discarded"]
    out["analyze.kept_ratio"] = kept / (kept + dropped) if kept + dropped else 0.0
    out["trace.spans"] = last - first
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each metric."""
    merged = {}
    for metric in per_pass[0]:
        values = [p[metric] for p in per_pass]
        merged[metric] = statistics.median(values)
    return merged


def write_spans(spans: list[list], path) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("span\tparent\tcall\tname\tstart_ns\tend_ns\n")
        for i, (name, parent, call, start, end) in enumerate(spans):
            fh.write(f"{i}\t{parent}\t{call}\t{name}\t{start}\t{end}\n")
