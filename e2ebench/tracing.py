"""Spans recorded from the benchmark's own code, around calls into spotvol.

The program has no tracing of its own, so the traced run wraps the public
names each module imports from another (for example ``spotvol.backtest.sample``)
and passes a counting proxy model to ``sample`` so that every kernel call is
a span too. Spans stay in memory and are written once when the run ends.
Every patch is undone when the ``Tracer`` context exits.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# (span name, home module, attribute, modules that import the attribute).
# A home attribute that no longer exists makes its metrics "missing".
HOOKS = [
    ("hmc.sample", "spotvol.hmc", "sample",
     ["spotvol", "spotvol.backtest", "spotvol.cli"]),
    ("diagnostics.ess", "spotvol.diagnostics", "ess", ["spotvol.hmc"]),
    ("diagnostics.split_rhat", "spotvol.diagnostics", "split_rhat",
     ["spotvol.hmc"]),
    ("posterior.summarize_draws", "spotvol.posterior", "summarize_draws",
     ["spotvol.hmc"]),
    ("posterior.save", "spotvol.posterior", "PosteriorFit.save", []),
    ("posterior.load", "spotvol.posterior", "PosteriorFit.load", []),
    ("predictive.forecast", "spotvol.predictive", "forecast",
     ["spotvol", "spotvol.backtest", "spotvol.cli"]),
    ("predictive.volatility_path", "spotvol.predictive", "volatility_path",
     ["spotvol", "spotvol.cli"]),
    ("predictive.ppd_insample", "spotvol.predictive", "ppd_insample",
     ["spotvol.cli"]),
    ("backtest.cross_validate", "spotvol.backtest", "cross_validate",
     ["spotvol", "spotvol.cli"]),
    ("backtest.rolling_forecast", "spotvol.backtest", "rolling_forecast",
     ["spotvol"]),
    ("stats.mwu_test", "spotvol.stats", "mwu_test", ["spotvol.backtest"]),
    ("stats.adf_test", "spotvol.stats", "adf_test", ["spotvol.cli"]),
    ("stats.pacf", "spotvol.stats", "pacf", ["spotvol.cli"]),
    ("stats.kmeans2", "spotvol.stats", "kmeans2", ["spotvol.cli"]),
    ("stats.polyfit_cubic", "spotvol.stats", "polyfit_cubic", ["spotvol.cli"]),
    ("ingest.synthesize", "spotvol.ingest", "synthesize", ["spotvol.cli"]),
    ("ingest.export_hourly", "spotvol.ingest", "export_hourly",
     ["spotvol.cli"]),
    ("ingest.load_prices", "spotvol.ingest", "load_prices", ["spotvol.cli"]),
    ("ingest.load_weather", "spotvol.ingest", "load_weather", ["spotvol.cli"]),
    ("series.select_hour", "spotvol.series", "select_hour", ["spotvol.cli"]),
    ("series.hourly_profile", "spotvol.series", "hourly_profile",
     ["spotvol.cli"]),
    ("series.build_folds", "spotvol.series", "build_folds", ["spotvol.cli"]),
    ("interpret.pd_ice", "spotvol.interpret", "pd_ice", ["spotvol.cli"]),
    ("interpret.residual_report", "spotvol.interpret", "residual_report",
     ["spotvol.cli"]),
]

MODULES = ("kernels", "hmc", "diagnostics", "posterior", "predictive",
           "backtest", "ingest", "series", "stats", "interpret", "cli")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "count")

    def __init__(self, sid, name, start, parent, thread, count=0):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.count = count


class Tracer:
    """In-memory span recorder that patches spotvol while it is entered.

    A thread that opened no span of its own (a chain or fold worker of the
    program's pools) parents its spans to the innermost open span of the
    thread that entered the tracer; kernel spans name their parent
    explicitly, because chain threads can run inside fold threads.
    """

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self.notes: dict[int, dict] = {}  # span id -> values from its result
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name: str, parent=None, count: int = 0):
        parent = self._current() if parent is None else parent
        sp = Span(next(self._ids), name, time.perf_counter(), parent,
                  threading.get_ident(), count)
        stack = self._stack()
        stack.append(sp.id)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = time.perf_counter()
            self.spans.append(sp)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        self._main_stack = self._stack()
        for name, home, attr, importers in HOOKS:
            self._hook(name, home, attr, importers)
        return self

    def __exit__(self, *exc):
        for target, attr, raw in reversed(self._undo):
            setattr(target, attr, raw)
        self._undo.clear()
        return False

    def _hook(self, name, home, attr, importers):
        module = importlib.import_module(home)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            self.missing.add(name)
            return
        raw = (owner.__dict__.get(leaf) if isinstance(owner, type)
               else getattr(owner, leaf, None))
        if raw is None:
            self.missing.add(name)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        elif name == "hmc.sample":
            wrapped = self._wrap_sample(raw)
        else:
            wrapped = self._wrap(name, raw)
        self._set(owner, leaf, raw, wrapped)
        for imp in importers:
            other = importlib.import_module(imp)
            if getattr(other, leaf, None) is raw:
                self._set(other, leaf, raw, wrapped)

    def _set(self, target, attr, raw, value):
        self._undo.append((target, attr, raw))
        setattr(target, attr, value)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if name.startswith("ingest.load_"):
                    sp.count = len(out)
                return out
        traced.__wrapped__ = fn
        return traced

    def _wrap_sample(self, fn):
        def traced_sample(model, cfg, seed):
            with self.span("hmc.sample") as sp:
                fit = fn(CountingModel(model, self, sp.id), cfg, seed)
            self.notes[sp.id] = fit_notes(fit)
            return fit
        traced_sample.__wrapped__ = fn
        return traced_sample

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s.start for s in self.spans), default=0.0)
        doc = {
            "workload": self.workload,
            "run_id": self.run_id,
            "missing": sorted(self.missing),
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent,
                 "start_s": s.start - t0, "end_s": s.end - t0,
                 "thread": s.thread, "count": s.count,
                 "workload": self.workload, "run_id": self.run_id}
                for s in sorted(self.spans, key=lambda s: s.start)],
        }
        path.write_text(json.dumps(doc))


class CountingModel:
    """Forwards every attribute to the model; kernel calls become spans.

    ``count`` on a kernel span is the number of gradient evaluations it
    made: one per ``logp_grad`` and ``n_steps`` per ``trajectory``.
    """

    def __init__(self, model, tracer: Tracer, parent: int):
        self._model = model
        self._tracer = tracer
        self._parent = parent

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if name == "logp_grad":
            def logp_grad(theta):
                with self._tracer.span("kernels.logp_grad", self._parent, 1):
                    return attr(theta)
            return logp_grad
        if name == "trajectory":
            def trajectory(theta, p, grad, eps, n_steps, inv_mass):
                with self._tracer.span("kernels.trajectory", self._parent,
                                       n_steps):
                    return attr(theta, p, grad, eps, n_steps, inv_mass)
            return trajectory
        return attr


def fit_notes(fit) -> dict:
    """Sampler-quality numbers of one fit, from its diagnostics."""
    ess = fit.diagnostics.get("ess", {})
    h_ess = [v for k, v in ess.items() if k.startswith("h[")]
    return {
        "ess_phi": ess.get("phi"),
        "ess_min_h": min(h_ess) if h_ess else None,
        "max_rhat": fit.diagnostics.get("max_rhat"),
        "divergences": fit.diagnostics.get("divergences"),
    }


# -- span arithmetic ----------------------------------------------------------

def union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s.id] = (s.end - s.start) - union_length(kids)
    return out


def descendants_of(spans, prefix: str) -> list:
    """Spans that have an ancestor whose name starts with ``prefix``."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        p = s.parent
        while p is not None:
            anc = by_id.get(p)
            if anc is None:
                break
            if anc.name.startswith(prefix):
                out.append(s)
                break
            p = anc.parent
    return out


def layer_metrics(tracer: Tracer, serial: Tracer | None) -> dict:
    """Per-layer values from one traced operation (and its serial rerun).

    A layer the workload never calls reads 0. A layer whose hook point is
    gone from the program reads None and is reported as missing.
    """
    spans = tracer.spans
    selfs = self_times(spans)

    def total(name):
        if name in tracer.missing:
            return None
        return sum(s.end - s.start for s in spans if s.name == name)

    kernel = [s for s in spans if s.name.startswith("kernels.")]
    samples = [s for s in spans if s.name == "hmc.sample"]
    notes = [tracer.notes[s.id] for s in samples if s.id in tracer.notes]
    backtests = [s for s in spans if s.name.startswith("backtest.")]
    fold_fits = [s for s in descendants_of(spans, "backtest.")
                 if s.name == "hmc.sample"]

    def per_second(key):
        rates = [tracer.notes[s.id][key] / (s.end - s.start) for s in samples
                 if tracer.notes.get(s.id, {}).get(key) is not None]
        return min(rates) if rates else 0.0

    m = {
        "kernels.grad_evals": sum(s.count for s in kernel),
        "kernels.busy_s": sum(s.end - s.start for s in kernel),
        "hmc.sample_s": total("hmc.sample"),
        "hmc.ess_per_s_phi": per_second("ess_phi"),
        "hmc.ess_per_s_min_h": per_second("ess_min_h"),
        "hmc.max_rhat": max((n["max_rhat"] for n in notes), default=0.0),
        "hmc.divergences": sum(n["divergences"] or 0 for n in notes),
        "backtest.fold_fits": len(fold_fits),
        "backtest.fold_sample_s_p50": statistics.median(
            [s.end - s.start for s in fold_fits]) if fold_fits else 0.0,
        "backtest.fit_share": (
            union_length([(s.start, s.end) for s in fold_fits])
            / sum(s.end - s.start for s in backtests)) if backtests else 0.0,
        "backtest.mwu_s": total("stats.mwu_test"),
        "diagnostics.ess_s": total("diagnostics.ess"),
        "diagnostics.rhat_s": total("diagnostics.split_rhat"),
        "posterior.summary_s": total("posterior.summarize_draws"),
        "posterior.save_s": total("posterior.save"),
        "posterior.load_s": total("posterior.load"),
        "predictive.forecast_s": total("predictive.forecast"),
        "ingest.synth_s": total("ingest.synthesize"),
        "ingest.load_s": _sum(total("ingest.load_prices"),
                              total("ingest.load_weather")),
        "ingest.rows": sum(s.count for s in spans
                           if s.name.startswith("ingest.load_")),
        "series.select_s": total("series.select_hour"),
        "stats.adf_s": total("stats.adf_test"),
        "stats.pacf_s": total("stats.pacf"),
        "stats.kmeans_s": total("stats.kmeans2"),
        "interpret.pd_ice_s": total("interpret.pd_ice"),
        "trace.spans": len(spans),
    }
    for cmd in ("synth", "fit", "forecast", "diagnose", "report", "replay"):
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(selfs[s.id] for s in spans
                                 if s.name.split(".")[0] == mod)
    if "hmc.sample" in tracer.missing:
        for key in ("kernels.grad_evals", "kernels.busy_s", "kernels.self_s",
                    "hmc.self_s", "hmc.ess_per_s_phi", "hmc.ess_per_s_min_h",
                    "hmc.max_rhat", "hmc.divergences"):
            m[key] = None

    m["hmc.serial_sample_s"] = 0.0
    m["backtest.serial_wall_s"] = 0.0
    if serial is not None:
        m["hmc.serial_sample_s"] = (
            None if "hmc.sample" in serial.missing else
            sum(s.end - s.start for s in serial.spans
                if s.name == "hmc.sample"))
        m["backtest.serial_wall_s"] = sum(
            s.end - s.start for s in serial.spans
            if s.name.startswith("backtest."))
    return m


def _sum(*values):
    return None if any(v is None for v in values) else sum(values)
