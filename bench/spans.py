"""In-memory spans around the public functions of each qbayes module.

The tracer wraps functions from outside the package: every binding of a
traced function in a ``qbayes`` module namespace (the defining module and each
module that imported the name) is replaced by a wrapper that records a span,
and restored by ``uninstall``. Nothing under ``src/`` is edited.

A span is (name, start, end, parent). Self time is a span's duration minus
the durations of its direct children. Counters that the spans cannot carry
(solver iterations, program sizes) are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (module, attribute, span name). Classes are given as "Class.method".
TARGETS = (
    ("qbayes.model", "load_model", "model.load"),
    ("qbayes.model", "build_moments", "model.moments"),
    ("qbayes.model", "build_extended_moments", "model.moments"),
    ("qbayes.closedform", "sld_bound", "closedform"),
    ("qbayes.closedform", "rld_bound", "closedform"),
    ("qbayes.closedform", "van_tree_bound", "closedform"),
    ("qbayes.conic", "solve", "conic.solve"),
    ("qbayes.conic", "ConicProgram.assemble", "conic.assemble"),
    ("qbayes.sdpbounds", "nagaoka_hayashi_bound", "sdpbounds.nh"),
    ("qbayes.sdpbounds", "holevo_type_bound", "sdpbounds.holevo"),
    ("qbayes.sdpbounds", "nagaoka_bound_search", "sdpbounds.search"),
    ("qbayes.sdpbounds", "minimize_scalar", "sdpbounds.line_search"),
    ("qbayes.matcore", "trace_abs", "matcore.trace_abs"),
    ("qbayes.verify", "ordering_audit", "verify.audit"),
    ("qbayes.verify", "seesaw", "verify.seesaw"),
    ("qbayes.verify", "optimal_povm_step", "verify.povm_step"),
    ("qbayes.verify", "bayes_risk", "verify.bayes_risk"),
    ("qbayes.cli", "main", "cli.main"),
)

MODULES = ("qbayes", "qbayes.matcore", "qbayes.model", "qbayes.closedform",
           "qbayes.conic", "qbayes.sdpbounds", "qbayes.verify", "qbayes.cli")


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        after = _AFTER.get(name)
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for modname, attr, name in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name), orig)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped, orig)

    def _set(self, holder, key, wrapped, orig) -> None:
        setattr(holder, key, wrapped)
        self._patched.append((holder, key, orig))

    def uninstall(self) -> None:
        while self._patched:
            holder, key, orig = self._patched.pop()
            setattr(holder, key, orig)

    # -- reduction ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time.

        Total time counts only spans without an ancestor of the same name, so
        a traced function calling another traced function of the same name
        (build_extended_moments -> build_moments) is not counted twice.
        """
        count = len(self.span_name)
        child_time = [0.0] * count
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(count):
            nid = self.span_name[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child_time[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                row["total_s"] += dur[i]
        return out


def _after_solve(counters, sol) -> None:
    counters["conic.iterations"] = counters.get("conic.iterations", 0) + sol.iterations
    if sol.status != "optimal":
        counters["conic.nonoptimal"] = counters.get("conic.nonoptimal", 0) + 1


def _after_assemble(counters, assembled) -> None:
    rows, cols = assembled[0].shape
    counters["conic.rows_max"] = max(counters.get("conic.rows_max", 0), rows)
    counters["conic.vars_max"] = max(counters.get("conic.vars_max", 0), cols)


_AFTER = {"conic.solve": _after_solve, "conic.assemble": _after_assemble}


def layer_metrics(setup: Tracer, timed: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one round of the workload."""
    a, b = setup.totals(), timed.totals()

    def get(name: str, field: str) -> float:
        return (a.get(name, {}).get(field, 0.0)
                + b.get(name, {}).get(field, 0.0) / rounds)

    def counter(name: str) -> float:
        return (setup.counters.get(name, 0) + timed.counters.get(name, 0) / rounds)

    def peak(name: str) -> float:
        return max(setup.counters.get(name, 0), timed.counters.get(name, 0))

    solves = get("conic.solve", "calls")
    attempts = get("conic.assemble", "calls")
    iterations = counter("conic.iterations")
    solve_s = get("conic.solve", "total_s")
    return {
        "conic.solves": (solves, "count"),
        "conic.attempts": (attempts, "count"),
        "conic.retries": (attempts - solves, "count"),
        "conic.iterations": (iterations, "count"),
        "conic.nonoptimal": (counter("conic.nonoptimal"), "count"),
        "conic.solve_s": (solve_s, "s"),
        "conic.assemble_s": (get("conic.assemble", "total_s"), "s"),
        "conic.s_per_iteration": (solve_s / iterations if iterations else 0.0, "s"),
        "conic.rows_max": (peak("conic.rows_max"), "count"),
        "conic.vars_max": (peak("conic.vars_max"), "count"),
        "sdpbounds.nh_s": (get("sdpbounds.nh", "total_s"), "s"),
        "sdpbounds.nh_self_s": (get("sdpbounds.nh", "self_s"), "s"),
        "sdpbounds.holevo_s": (get("sdpbounds.holevo", "total_s"), "s"),
        "sdpbounds.holevo_self_s": (get("sdpbounds.holevo", "self_s"), "s"),
        "sdpbounds.search_s": (get("sdpbounds.search", "total_s"), "s"),
        "sdpbounds.line_searches": (get("sdpbounds.line_search", "calls"), "count"),
        "matcore.trace_abs_calls": (get("matcore.trace_abs", "calls"), "count"),
        "matcore.trace_abs_s": (get("matcore.trace_abs", "total_s"), "s"),
        "verify.seesaw_s": (get("verify.seesaw", "total_s"), "s"),
        "verify.povm_steps": (get("verify.povm_step", "calls"), "count"),
        "verify.povm_step_self_s": (get("verify.povm_step", "self_s"), "s"),
        "verify.bayes_risk_s": (get("verify.bayes_risk", "total_s"), "s"),
        "model.load_s": (get("model.load", "total_s"), "s"),
        "model.moments_s": (get("model.moments", "total_s"), "s"),
        "closedform.s": (get("closedform", "total_s"), "s"),
        "cli.bounds_s": (get("cli.main", "total_s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
    }
