"""Spans around the library's layer entry points, taken from outside.

`Recorder.install()` replaces each entry point in BOUNDARIES with a timing
wrapper wherever a bilevelsense module looks the name up: the defining
module and every module that imported it (`sensitivity.standard_vrep` as
well as `_polyalg.standard_vrep`), so calls between modules are seen.
Nothing under src/ changes, and the untraced run never imports this module.

A span is (span id, parent span id, operation id, boundary, start, end) in
perf_counter nanoseconds.  Spans are kept in memory in a flat integer array
and written out when the run ends.  A boundary's self time is its spans'
duration minus the time their direct child spans cover; its total time
counts only spans with no enclosing span of the same boundary, so
recursion (pessimistic_value -> optimistic_value) is not counted twice.
"""

from __future__ import annotations

import sys
import time
from array import array

# (boundary, defining module, entry points).  "Class.method" wraps a method.
BOUNDARIES = (
    ("model.parse", "bilevelsense.model", ("parse_program",)),
    ("model.eval", "bilevelsense.model", ("eval_expr",)),
    ("model.branches", "bilevelsense.model",
     ("clarke_generators", "smooth_branches")),
    ("valuefn.sweep", "bilevelsense.valuefn", ("_solve_lower",)),
    ("valuefn.value", "bilevelsense.valuefn",
     ("lower_value", "optimistic_value", "pessimistic_value")),
    ("valuefn.solutions", "bilevelsense.valuefn",
     ("lower_solutions", "optimistic_solutions", "pessimistic_solutions")),
    ("polyalg.vrep", "bilevelsense._polyalg", ("standard_vrep",)),
    ("polyalg.bases", "bilevelsense._polyalg", ("basic_vertices",)),
    ("polyalg.lp", "bilevelsense._polyalg",
     ("LPBuilder.minimize_max_violation", "LPBuilder.maximize")),
    ("subdiff.projector", "bilevelsense.subdiff", ("distance", "contains", "project")),
    ("subdiff.algebra", "bilevelsense.subdiff",
     ("hull", "minkowski_sum", "scale", "negate")),
    ("subdiff.fd", "bilevelsense.subdiff", ("fd_subgradient_samples",)),
    ("sensitivity.multipliers", "bilevelsense.sensitivity",
     ("lambda_set", "lambda_o_set")),
    ("sensitivity.estimate", "bilevelsense.sensitivity",
     ("estimate_optimistic", "estimate_pessimistic", "estimate_simple_convex")),
    ("cq.bundle", "bilevelsense.cq", ("cq_bundle",)),
    ("certify.search", "bilevelsense.certify",
     ("certify_optimistic", "certify_pessimistic", "certify_value_stationarity")),
    ("certify.recheck", "bilevelsense.certify", ("recheck_certificate",)),
)


def _n_unknown(verdicts):
    return sum(1 for v in verdicts if v.status == "Unknown")


# Counts taken from an entry point's result: entry point -> {count: fn(result)}.
COUNTERS = {
    "clarke_generators": {"generators": len},
    "lower_solutions": {"points": len},
    "optimistic_solutions": {"points": len},
    "pessimistic_solutions": {"points": len},
    "standard_vrep": {"generators": lambda r: len(r[0]) + len(r[1]),
                      "empty": lambda r: int(not r[0])},
    "LPBuilder.minimize_max_violation": {"infeasible": lambda r: int(r[0] is None)},
    "LPBuilder.maximize": {"infeasible": lambda r: int(r[0] is None)},
    "estimate_optimistic": {"truncated": lambda r: int(r.truncated)},
    "estimate_pessimistic": {"truncated": lambda r: int(r.truncated)},
    "estimate_simple_convex": {"truncated": lambda r: int(r.truncated)},
    "cq_bundle": {"verdicts": len, "unknown": _n_unknown},
    "certify_optimistic": {"certified": lambda r: int(r.status == "Certified"),
                           "inconclusive": lambda r: int(r.status == "Inconclusive")},
    "certify_pessimistic": {"certified": lambda r: int(r.status == "Certified"),
                            "inconclusive": lambda r: int(r.status == "Inconclusive")},
    "certify_value_stationarity": {
        "certified": lambda r: int(r.status == "Certified"),
        "inconclusive": lambda r: int(r.status == "Inconclusive")},
}

# (metric suffix, numerator count, denominator count or None for calls)
RATIOS = {
    "polyalg.vrep": (("empty_ratio", "empty", None), ("generators", "generators", "ops")),
    "polyalg.lp": (("infeasible_ratio", "infeasible", None),),
    "model.branches": (("generators", "generators", "ops"),),
    "valuefn.solutions": (("points", "points", "ops"),),
    "sensitivity.estimate": (("truncated_ratio", "truncated", None),),
    "cq.bundle": (("unknown_ratio", "unknown", "verdicts"),),
    "certify.search": (("certified_ratio", "certified", None),
                       ("inconclusive_ratio", "inconclusive", None)),
}

SPAN_FIELDS = ("span_id", "parent_id", "op_id", "boundary", "start_ns", "end_ns")


class Recorder:
    """Collects spans and per-boundary totals in one single-threaded process."""

    def __init__(self):
        nb = len(BOUNDARIES)
        self.spans = array("q")
        self.calls = [0] * nb
        self.self_ns = [0] * nb
        self.total_ns = [0] * nb
        self.depth = [0] * nb
        self.counts = [dict() for _ in range(nb)]
        self.stack = []           # open spans: [span id, child ns]
        self.next_id = 1
        self.op_id = 0
        self.sweep_fn = None
        self.sweep_start = None

    def _wrap(self, idx, fn, counters):
        rec = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [rec.next_id, 0]
            rec.next_id += 1
            rec.depth[idx] += 1
            rec.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec.stack.pop()
                rec.depth[idx] -= 1
                dur = end - start
                parent = rec.stack[-1] if rec.stack else None
                if parent is not None:
                    parent[1] += dur
                rec.calls[idx] += 1
                rec.self_ns[idx] += dur - frame[1]
                if rec.depth[idx] == 0:
                    rec.total_ns[idx] += dur
                rec.spans.extend((frame[0], parent[0] if parent else 0,
                                  rec.op_id, idx, start, end))
            if counters:
                counts = rec.counts[idx]
                for key, fn_count in counters.items():
                    counts[key] = counts.get(key, 0) + fn_count(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every boundary entry point in all loaded bilevelsense modules."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "bilevelsense"
                                      or name.startswith("bilevelsense."))]
        for idx, (_, modname, names) in enumerate(BOUNDARIES):
            mod = sys.modules[modname]
            for name in names:
                counters = COUNTERS.get(name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(idx, cls.__dict__[meth], counters))
                    continue
                orig = getattr(mod, name)
                if name == "_solve_lower":
                    self.sweep_fn = orig
                    self.sweep_start = orig.cache_info()
                wrapper = self._wrap(idx, orig, counters)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def sweep_counts(self):
        """(hits, misses) of the lower-level sweep cache since install()."""
        if self.sweep_fn is None:
            return 0, 0
        now = self.sweep_fn.cache_info()
        return now.hits - self.sweep_start.hits, now.misses - self.sweep_start.misses

    def summary(self):
        """Raw per-boundary totals, mergeable across processes."""
        hits, misses = self.sweep_counts()
        return {
            "boundaries": [b for b, _, _ in BOUNDARIES],
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "total_ns": list(self.total_ns),
            "counts": [dict(c) for c in self.counts],
            "sweep_hits": hits,
            "sweep_misses": misses,
            "n_spans": len(self.spans) // len(SPAN_FIELDS),
        }

    def write_spans(self, path, mode="w"):
        """Append the kept spans to a TSV file (header written when new)."""
        width = len(SPAN_FIELDS)
        names = [b for b, _, _ in BOUNDARIES]
        with open(path, mode, encoding="utf-8") as fh:
            if mode == "w":
                fh.write("\t".join(SPAN_FIELDS) + "\n")
            sp = self.spans
            for i in range(0, len(sp), width):
                fh.write(f"{sp[i]}\t{sp[i + 1]}\t{sp[i + 2]}\t{names[sp[i + 3]]}"
                         f"\t{sp[i + 4]}\t{sp[i + 5]}\n")


def merge(summaries):
    """Sum raw summaries from several processes (the cli_cold children)."""
    nb = len(BOUNDARIES)
    out = {"boundaries": [b for b, _, _ in BOUNDARIES], "calls": [0] * nb,
           "self_ns": [0] * nb, "total_ns": [0] * nb, "counts": [{} for _ in range(nb)],
           "sweep_hits": 0, "sweep_misses": 0, "n_spans": 0}
    for s in summaries:
        for key in ("calls", "self_ns", "total_ns"):
            out[key] = [a + b for a, b in zip(out[key], s[key])]
        for acc, c in zip(out["counts"], s["counts"]):
            for k, v in c.items():
                acc[k] = acc.get(k, 0) + v
        for key in ("sweep_hits", "sweep_misses", "n_spans"):
            out[key] += s[key]
    return out


def layer_metrics(summary, n_ops):
    """Per-layer metrics, normalised per completed operation."""
    ops = max(n_ops, 1)
    out = {}
    for idx, name in enumerate(summary["boundaries"]):
        calls = summary["calls"][idx]
        out[f"{name}.calls"] = (calls / ops, "count/op")
        out[f"{name}.self_s"] = (summary["self_ns"][idx] * 1e-9 / ops, "s/op")
        out[f"{name}.total_s"] = (summary["total_ns"][idx] * 1e-9 / ops, "s/op")
        counts = dict(summary["counts"][idx], ops=ops)
        for suffix, num, den in RATIOS.get(name, ()):
            base = calls if den is None else counts.get(den, 0)
            value = counts.get(num, 0) / base if base else 0.0
            out[f"{name}.{suffix}"] = (value, "count/op" if den == "ops" else "ratio")
    hits, misses = summary["sweep_hits"], summary["sweep_misses"]
    out["valuefn.sweep.hits"] = (hits / ops, "count/op")
    out["valuefn.sweep.misses"] = (misses / ops, "count/op")
    out["valuefn.sweep.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                      "ratio")
    return out
