"""Spans around calls into wassmdp's layers, recorded from outside the program.

``Tracer`` replaces every module-level name under which a ``wassmdp``
module holds one of the traced functions (``vaml`` calls ``gvi`` under
its own imported name, not through ``wassmdp.planner``), records one
span per call, and restores the originals on exit.  ``layer_metrics``
turns the spans of one round into the per-layer figures.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import wraps


def _row_pairs(args, kwargs, result):
    mdp = args[0] if args else kwargs["mdp"]
    n = mdp.n_states
    return mdp.n_actions * n * (n - 1) // 2


# (defining module, attribute, span name, extra figure taken from the call)
TARGETS = (
    ("wassmdp.lp", "LpProblem", "lp.build", None),
    ("wassmdp.lp", "solve_lp", "lp.solve", None),
    ("wassmdp.transport", "wasserstein_primal", "transport.primal", None),
    ("wassmdp.transport", "wasserstein_dual", "transport.dual", None),
    ("wassmdp.metric", "lipschitz_constant", "metric.lipschitz", None),
    ("wassmdp.mdp", "generate_lipschitz_mdp", "mdp.generate", None),
    ("wassmdp.mdp", "kernel_lipschitz", "mdp.kernel_lipschitz", _row_pairs),
    ("wassmdp.planner", "gvi", "planner.gvi", lambda args, kwargs, result: result.iterations),
    ("wassmdp.vaml", "verify_equivalence", "vaml.verify_equivalence", None),
    ("wassmdp.vaml", "vaml_loss", "vaml.vaml_loss", None),
    ("wassmdp.learner", "fit_model", "learner.fit", lambda args, kwargs, result: result.iterations_run),
    ("wassmdp.suites", "equivalence_suite", "suites", None),
    ("wassmdp.suites", "theorem_suite", "suites", None),
)


class Tracer:
    """Context manager: while active, every call to a target records a span.

    A span is ``[name, start, end, parent index, extra]``; the parent is
    the innermost span open when the call began, or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "wassmdp" or key.startswith("wassmdp.")
        ]
        for module_name, attr, span_name, extra in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()
        return False


def ancestor(spans, index, name):
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def layer_table(spans) -> dict:
    """Per span name: calls, total and self seconds, durations and extras."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict = {}
    for i, (name, start, end, _, extra) in enumerate(spans):
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "extra": 0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        row["durations"].append(end - start)
        if extra is not None:
            row["extra"] += extra
    return table


def count_under(spans, name, enclosing) -> int:
    """Spans called ``name`` with an enclosing span called ``enclosing``."""
    return sum(
        1 for i, span in enumerate(spans) if span[0] == name and ancestor(spans, i, enclosing) >= 0
    )


# Per-layer metrics in report order: (name, unit).
PER_LAYER = (
    ("lp.solve.calls", "count"),
    ("lp.solve.self_s", "s"),
    ("lp.solve.p50_ms", "ms"),
    ("lp.build.self_s", "s"),
    ("transport.primal.calls", "count"),
    ("transport.dual.calls", "count"),
    ("transport.primal.self_s", "s"),
    ("transport.dual.self_s", "s"),
    ("metric.lipschitz.calls", "count"),
    ("metric.lipschitz.self_s", "s"),
    ("mdp.generate.self_s", "s"),
    ("mdp.kernel_lipschitz.self_s", "s"),
    ("mdp.kernel_lipschitz.primal_solves", "count"),
    ("mdp.kernel_lipschitz.row_pairs", "count"),
    ("mdp.kernel_lipschitz.solve_ratio", "ratio"),
    ("planner.gvi.calls", "count"),
    ("planner.gvi.sweeps", "count"),
    ("planner.gvi.self_s", "s"),
    ("planner.sweep_us", "us"),
    ("vaml.verify_equivalence.self_s", "s"),
    ("vaml.vaml_loss.calls", "count"),
    ("learner.fit.self_s", "s"),
    ("learner.iterations", "count"),
    ("learner.lp_per_iter", "ratio"),
    ("suites.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans) -> dict:
    """The per-layer figures of one traced round; layers never called read 0.

    ``trace.overhead_s`` needs an untraced round and is filled in by the caller.
    """
    table = layer_table(spans)
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "extra": 0}
    lp_solve, lp_build, primal, dual, lipschitz, generate, kernel, gvi, verify, vaml_loss, fit, suites = (
        table.get(name, empty)
        for name in (
            "lp.solve", "lp.build", "transport.primal", "transport.dual", "metric.lipschitz",
            "mdp.generate", "mdp.kernel_lipschitz", "planner.gvi", "vaml.verify_equivalence",
            "vaml.vaml_loss", "learner.fit", "suites",
        )
    )
    primal_solves = count_under(spans, "transport.primal", "mdp.kernel_lipschitz")
    return {
        "lp.solve.calls": lp_solve["calls"],
        "lp.solve.self_s": lp_solve["self_s"],
        "lp.solve.p50_ms": 1000.0 * statistics.median(lp_solve["durations"]) if lp_solve["calls"] else 0.0,
        "lp.build.self_s": lp_build["self_s"],
        "transport.primal.calls": primal["calls"],
        "transport.dual.calls": dual["calls"],
        "transport.primal.self_s": primal["self_s"],
        "transport.dual.self_s": dual["self_s"],
        "metric.lipschitz.calls": lipschitz["calls"],
        "metric.lipschitz.self_s": lipschitz["self_s"],
        "mdp.generate.self_s": generate["self_s"],
        "mdp.kernel_lipschitz.self_s": kernel["self_s"],
        "mdp.kernel_lipschitz.primal_solves": primal_solves,
        "mdp.kernel_lipschitz.row_pairs": kernel["extra"],
        "mdp.kernel_lipschitz.solve_ratio": primal_solves / kernel["extra"] if kernel["extra"] else 0.0,
        "planner.gvi.calls": gvi["calls"],
        "planner.gvi.sweeps": gvi["extra"],
        "planner.gvi.self_s": gvi["self_s"],
        "planner.sweep_us": 1e6 * gvi["self_s"] / gvi["extra"] if gvi["extra"] else 0.0,
        "vaml.verify_equivalence.self_s": verify["self_s"],
        "vaml.vaml_loss.calls": vaml_loss["calls"],
        "learner.fit.self_s": fit["self_s"],
        "learner.iterations": fit["extra"],
        "learner.lp_per_iter": lp_solve["calls"] / fit["extra"] if fit["extra"] else 0.0,
        "suites.self_s": suites["self_s"],
    }
