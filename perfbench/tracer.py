"""Spans around the calls into each mllrc module, recorded from outside it.

``Tracer.active()`` replaces each traced function wherever the package
holds a reference to it: in the module that defines it and in every module
that imported it by name (methods are replaced on their class).  Internal
calls such as ``mat_kernel`` -> ``mat_rref`` are therefore traced too.
On leaving the block the originals are back, so untraced passes run
unmodified code.  Nothing in ``src/`` is edited.

A span is ``[name, start, end, parent, op, error, tag]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the id of the op that
was running, ``error`` the name of the exception that left the call, if
any, and ``tag`` an optional value taken from the result.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("galois", "linear_code", "bounds", "constructions", "certify", "cli")

# Public names of each module whose calls get a span.  The two private bounds
# names time the k_opt resolution stages behind the public oracle.
SPANNED = {
    "galois": ("mat_rref", "mat_kernel", "mat_rank"),
    "linear_code": (
        "load_code",
        "LinearCode.min_distance",
        "LinearCode.locality_profile",
        "LinearCode.verify_profile",
        "LinearCode.shorten",
    ),
    "bounds": (
        "ml_alphabet",
        "ml_singleton",
        "cm_bound",
        "KOptOracle._resolve",
        "_exhaustive_max_dim_q2",
    ),
    "constructions": (
        "tamo_barg",
        "construction2_binary_lrc",
        "algorithm1_ml_lrc",
        "algorithm3_ml_lrc",
        "detect_repair_groups",
    ),
    "certify": (
        "certify",
        "full_analysis",
        "check_dominance",
        "render_analysis_kv",
        "render_analysis_text",
        "render_certificate_kv",
        "render_certificate_text",
        "render_bound_kv",
        "render_bound_text",
    ),
    "cli": ("run",),
}

# Called once per bound-grid cell: counted, not timed, to keep tracing cheap.
COUNTED = {"bounds": ("KOptOracle.query",)}

# The exhaustive k_opt search returns (value, completed); keep the flag.
TAGS = {"bounds._exhaustive_max_dim_q2": lambda result: bool(result[1])}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        pkg = importlib.import_module("mllrc")
        mods = {name: importlib.import_module(f"mllrc.{name}") for name in MODULES}
        holders = [pkg, *mods.values()]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for modname, attrs in table.items():
                for attr in attrs:
                    name = f"{modname}.{attr.split('.')[-1]}"
                    self._plan(mods[modname], holders, name, attr, make)

    def _plan(self, mod, holders, name, attr, make) -> None:
        """Queue the patches that put make(name, original) in place of attr."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original, make(name, original)))
            return
        original = getattr(mod, attr)
        wrapper = make(name, original)
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                self._patches.append((holder, attr, original, wrapper))

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if tag is not None:
                rec[6] = tag(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.op)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Trace calls inside the block; the originals are back after it."""
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        try:
            yield
        finally:
            for holder, attr, original, _ in reversed(self._patches):
                setattr(holder, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# Per-layer metric -> (statistic, span name).  "s" is total seconds in the
# span, "self_s" seconds minus child spans, "calls" the number of spans.
SPAN_METRICS = {
    "linear_code.min_distance.s": ("s", "linear_code.min_distance"),
    "linear_code.locality_profile.s": ("s", "linear_code.locality_profile"),
    "linear_code.verify_profile.s": ("s", "linear_code.verify_profile"),
    "linear_code.load_code.s": ("s", "linear_code.load_code"),
    "linear_code.shorten.s": ("s", "linear_code.shorten"),
    "galois.mat_rref.calls": ("calls", "galois.mat_rref"),
    "galois.mat_rref.s": ("s", "galois.mat_rref"),
    "galois.mat_kernel.calls": ("calls", "galois.mat_kernel"),
    "constructions.detect_repair_groups.calls": ("calls", "constructions.detect_repair_groups"),
    "constructions.detect_repair_groups.s": ("s", "constructions.detect_repair_groups"),
    "constructions.algorithm1_ml_lrc.s": ("s", "constructions.algorithm1_ml_lrc"),
    "constructions.algorithm3_ml_lrc.s": ("s", "constructions.algorithm3_ml_lrc"),
    "constructions.tamo_barg.s": ("s", "constructions.tamo_barg"),
    "constructions.construction2_binary_lrc.s": ("s", "constructions.construction2_binary_lrc"),
    "bounds.ml_alphabet.s": ("s", "bounds.ml_alphabet"),
    "bounds.cm_bound.s": ("s", "bounds.cm_bound"),
    "bounds.kopt.s": ("s", "bounds._resolve"),
    "certify.certify.self_s": ("self_s", "certify.certify"),
    "certify.full_analysis.self_s": ("self_s", "certify.full_analysis"),
    "cli.run.calls": ("calls", "cli.run"),
    "cli.run.self_s": ("self_s", "cli.run"),
}


def layer_metrics(tracer: Tracer, traced_passes: int) -> dict[str, float]:
    """Per-layer figures for one traced run unit.

    Op ids start with their phase: "setup/", "probe/" or "pass<i>/".  Setup
    and probe spans count once; pass spans are averaged over the traced
    passes, so each figure reads as setup + one pass + probes.  A ratio
    whose base is 0 is reported as 0.
    """

    def weight(op: str) -> float:
        return 1.0 / traced_passes if op.startswith("pass") else 1.0

    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {"s": defaultdict(float), "self_s": defaultdict(float), "calls": defaultdict(float)}
    refusals = exhaustive_runs = exhaustive_done = 0.0
    for i, (name, start, end, parent, op, error, tag) in enumerate(spans):
        w = weight(op)
        stats["s"][name] += w * (end - start)
        stats["self_s"][name] += w * (end - start - child_time[i])
        stats["calls"][name] += w
        # A refusal counts once, at the outermost linear_code span it leaves.
        if (error == "BudgetError" and name.startswith("linear_code.")
                and (parent < 0 or not spans[parent][0].startswith("linear_code."))):
            refusals += w
        if name == "bounds._exhaustive_max_dim_q2":
            exhaustive_runs += w
            exhaustive_done += w * bool(tag)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {metric: stats[stat][name] for metric, (stat, name) in SPAN_METRICS.items()}
    out["linear_code.budget_refusals"] = refusals
    out["bounds.kopt.queries"] = sum(weight(op) * n for (name, op), n in tracer.counts.items()
                                     if name == "bounds.query")
    out["bounds.kopt.exhaustive_yield"] = ratio(exhaustive_done, exhaustive_runs)
    out["certify.check_dominance.points_per_s"] = ratio(
        stats["calls"]["certify.check_dominance"], stats["s"]["certify.check_dominance"])
    out["certify.render.s"] = sum(v for k, v in stats["s"].items()
                                  if k.startswith("certify.render_"))
    return out
