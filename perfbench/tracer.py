"""In-memory span tracer for the traced benchmark run.

The program is not changed: ``install`` replaces each traced public function
with a wrapper in every ``dks`` module that binds it (``pmf_grid``, for
example, is bound in ``kernels``, ``estimation`` and ``risk``).  Each wrapped
call records a span (id, parent id, operation id, name, start, end, info).
Spans of one operation -- one replicate, one risk call, one CLI command --
share an operation id.  Only the process that installed the tracer records;
pool workers forked from it call straight through.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

OP_ROOTS = frozenset({"simulation.run_replicate", "risk.exact_mise", "cli.run_cli"})

FAMILIES = ("dirac", "binomial", "poisson", "negbin", "triangular")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [("kernels.pmf_grid.calls", "count"), ("kernels.pmf_grid.s", "s"), ("kernels.pmf_grid.cells", "count")]
    + [(f"kernels.pmf_grid.{fam}.s", "s") for fam in FAMILIES]
    + [
        ("kernels.kernel_support.calls", "count"),
        ("kernels.kernel_support.s", "s"),
        ("estimation.select_bandwidth.calls", "count"),
        ("estimation.select_bandwidth.s", "s"),
        ("estimation.select_bandwidth.grid_s", "s"),
        ("estimation.select_bandwidth.refine_s", "s"),
        ("estimation.cv_score.calls", "count"),
        ("estimation.cv_score.s", "s"),
        ("estimation.cv_evals_per_selection", "calls/selection"),
        ("estimation.pmf_grid_calls_per_cv", "calls/cv"),
        ("estimation.kernel_estimate_raw.calls", "count"),
        ("estimation.kernel_estimate_raw.s", "s"),
        ("estimation.boundary_selections", "count"),
        ("risk.exact_mise.calls", "count"),
        ("risk.exact_mise.s", "s"),
        ("risk.exact_mise.self_s", "s"),
        ("risk.tail_cutoff.calls", "count"),
        ("risk.tail_cutoff.s", "s"),
        ("simulation.run_study.s", "s"),
        ("simulation.run_study.self_s", "s"),
        ("simulation.run_replicate.calls", "count"),
        ("simulation.run_replicate.s", "s"),
        ("simulation.sample_from_pmf.calls", "count"),
        ("simulation.sample_from_pmf.s", "s"),
        ("simulation.ise.calls", "count"),
        ("simulation.ise.s", "s"),
        ("simulation.pools_started", "count"),
        ("simulation.pool_s", "s"),
        ("reproduce.table3_rows.s", "s"),
        ("data_io.load_counts.calls", "count"),
        ("data_io.load_counts.s", "s"),
        ("cli.run_cli.calls", "count"),
        ("cli.run_cli.s", "s"),
        ("cli.run_cli.self_s", "s"),
    ]
)


def _pmf_grid_info(args, kwargs, result):
    kernel = args[0] if args else kwargs["kernel"]
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    ys = args[3] if len(args) > 3 else kwargs["ys"]
    return kernel.family.value, int(np.size(xs) * np.size(ys))


def _selection_info(args, kwargs, result):
    from dks.estimation import default_search_config

    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    if config is None:
        config = default_search_config(kernel.family)
    on_boundary = bool(np.isclose(result.h_cv, config.h_min, rtol=1e-12, atol=0.0)
                       or np.isclose(result.h_cv, config.h_max, rtol=1e-12, atol=0.0))
    return config.grid_points, on_boundary


def _risk_info(args, kwargs, result):
    kernel = args[0] if args else kwargs["kernel"]
    h = args[1] if len(args) > 1 else kwargs["h"]
    f = args[2] if len(args) > 2 else kwargs["f"]
    return kernel.label, float(h), f.label()


# (module, public name, info function): each is wrapped wherever it is bound.
TARGETS = (
    ("kernels", "pmf_grid", _pmf_grid_info),
    ("kernels", "kernel_support", None),
    ("estimation", "select_bandwidth", _selection_info),
    ("estimation", "cv_score", None),
    ("estimation", "kernel_estimate_raw", None),
    ("risk", "exact_mise", _risk_info),
    ("simulation", "run_study", None),
    ("simulation", "run_replicate", None),
    ("simulation", "sample_from_pmf", None),
    ("simulation", "ise", None),
    ("reproduce", "table3_rows", None),
    ("data_io", "load_counts", None),
    ("cli", "run_cli", None),
)


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._next_span = 1
        self._next_op = 1
        self._op = 0
        self._replaced: list[tuple[object, str, object]] = []

    def open(self, name: str) -> float:
        parent = self._stack[-1][0] if self._stack else 0
        starts_op = self._op == 0 and name in OP_ROOTS
        if starts_op:
            self._op = self._next_op
            self._next_op += 1
        self._stack.append((self._next_span, parent, name, starts_op))
        self._next_span += 1
        return time.perf_counter()

    def close(self, start: float, end: float, info=None) -> None:
        span, parent, name, starts_op = self._stack.pop()
        self.spans.append((span, parent, self._op, name, start, end, info))
        if starts_op:
            self._op = 0

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def wrap(self, name: str, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            start = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.close(start, end, info(args, kwargs, result) if info and result is not None else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``dks`` module, then start recording."""
        import dks.risk
        import dks.simulation

        modules = [m for name, m in sys.modules.items() if name == "dks" or name.startswith("dks.")]
        for module_name, attr, info in TARGETS:
            original = getattr(sys.modules[f"dks.{module_name}"], attr)
            wrapped = self.wrap(f"{module_name}.{attr}", original, info)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._replace(module, key, wrapped)
        cls = dks.risk.PoissonPmf
        self._replace(cls, "tail_cutoff", self.wrap("risk.tail_cutoff", cls.tail_cutoff))
        self._replace(dks.simulation, "ProcessPoolExecutor", _traced_pool(self))
        self.active = True

    def _replace(self, owner, attr: str, value) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Stop recording and put every original back."""
        self.active = False
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end", "info"]}) + "\n")
            for span, parent, op, name, start, end, info in self.spans:
                fh.write(json.dumps([span, parent, op, name, round(start - origin, 9),
                                     round(end - origin, 9), info]) + "\n")


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Records one ``simulation.pool`` span from creation to shutdown."""

        def __init__(self, *args, **kwargs):
            self._span_start = tracer.open("simulation.pool") if tracer.recording() else None
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span_start is not None:
                    tracer.close(self._span_start, time.perf_counter())
                    self._span_start = None

    return TracedPool


def layer_metrics(spans) -> dict[str, float]:
    """Every PER_LAYER metric from a list of spans."""
    name_of = {s[0]: s[3] for s in spans}
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    cv_children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    family_s: dict[str, float] = defaultdict(float)
    cells = 0
    grid_calls_in_cv = 0
    for span, parent, _, name, start, end, info in spans:
        calls[name] += 1
        total[name] += end - start
        covered[parent] += end - start
        parent_name = name_of.get(parent)
        if name == "kernels.pmf_grid" and info is not None:
            family_s[info[0]] += end - start
            cells += info[1]
            grid_calls_in_cv += parent_name == "estimation.cv_score"
        if name == "estimation.cv_score" and parent_name == "estimation.select_bandwidth":
            cv_children[parent].append((start, end))

    def self_time(name):
        return sum(end - start - covered[span] for span, _, _, n, start, end, _ in spans if n == name)

    grid_s = refine_s = 0.0
    boundary = 0
    for span, _, _, name, start, end, info in spans:
        if name != "estimation.select_bandwidth" or info is None:
            continue
        grid_points, on_boundary = info
        boundary += on_boundary
        evals = sorted(cv_children[span])
        grid_end = evals[min(grid_points, len(evals)) - 1][1] if evals else end
        grid_s += grid_end - start
        refine_s += end - grid_end

    selections = calls["estimation.select_bandwidth"]
    cv_calls = calls["estimation.cv_score"]
    out = {
        "kernels.pmf_grid.cells": cells,
        "kernels.pmf_grid.dirac.s": family_s["dirac"],
        "estimation.select_bandwidth.grid_s": grid_s,
        "estimation.select_bandwidth.refine_s": refine_s,
        "estimation.cv_evals_per_selection":
            sum(len(v) for v in cv_children.values()) / selections if selections else 0,
        "estimation.pmf_grid_calls_per_cv": grid_calls_in_cv / cv_calls if cv_calls else 0,
        "estimation.boundary_selections": boundary,
        "risk.exact_mise.self_s": self_time("risk.exact_mise"),
        "simulation.run_study.self_s": self_time("simulation.run_study"),
        "simulation.pools_started": calls["simulation.pool"],
        "simulation.pool_s": total["simulation.pool"],
        "cli.run_cli.self_s": self_time("cli.run_cli"),
    }
    for fam in FAMILIES:
        out[f"kernels.pmf_grid.{fam}.s"] = family_s[fam]
    for metric, _ in PER_LAYER:
        if metric in out:
            continue
        base, _, kind = metric.rpartition(".")
        out[metric] = calls[base] if kind == "calls" else total[base]
    return {metric: out[metric] for metric, _ in PER_LAYER}


def repeated_triples(spans) -> tuple[int, int]:
    """(exact_mise calls, calls whose (kernel, h, truth) was already seen)."""
    seen = set()
    repeats = 0
    calls = 0
    for _, _, _, name, _, _, info in spans:
        if name == "risk.exact_mise" and info is not None:
            calls += 1
            repeats += info in seen
            seen.add(info)
    return calls, repeats
