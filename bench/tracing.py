"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
``harvestsim`` module that holds it, the defining module and those that
import it by name, and ``uninstall`` puts the originals back.  Spans
(name, start, end, parent span, operation id, detail) stay in memory
until ``write`` saves them.  A span's self time is its duration minus
the durations of its children; single-threaded calls nest, so the
children never overlap.

``integrate_radial`` gets a wrapper of its own: it substitutes a spec
whose ``evaluate`` is traced, so the first ``evaluate`` call is the
initial partition and every later one a refinement round, and it reads
the evaluation count from the returned ``QuadResult`` (or from the best
result a ``ConvergenceFailure`` carries).
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import sys
import time
import types

import numpy as np

GK_POINTS = 15  # nodes per Gauss-Kronrod panel

_STATE = ("assemble_rho", "negativity_closed", "partial_transpose",
          "negativity_sectors", "bell_fractions")


def _points(arg_index):
    return lambda args, out: int(np.size(args[arg_index]))


def _text_bytes(args, out):
    return len(out.encode()) if isinstance(out, str) else 0


def _rows_failed(args, out):
    return sum(row.status != "ok" for row in out) if out is not None else 0


# (module, function, span name, detail recorder)
TRACED = (
    [("specfun", "sinc", "specfun.sinc", _points(0)),
     ("specfun", "ediff", "specfun.ediff", _points(2)),
     ("specfun", "damped_im_erfi", "specfun.damped_im_erfi",
      lambda args, out: int(np.broadcast(args[0], args[1]).size)),
     ("specfun", "faddeeva_w", "specfun.faddeeva_w", _points(0)),
     ("core", "evaluate_scenario", "core.evaluate_scenario", None)]
    + [("core", name, "core.state." + name, None) for name in _STATE]
    + [("detectors", "classify_timing", "detectors.classify_timing", None),
       ("detectors", "classify_causal", "detectors.classify_causal", None),
       ("config", "load_config", "config.load_config", None),
       ("config", "loads_config", "config.loads_config", None),
       ("sweep", "run_sweep", "sweep.run_sweep", _rows_failed),
       ("sweep", "rows_to_csv", "sweep.rows_to_csv", _text_bytes),
       ("sweep", "rows_to_json", "sweep.rows_to_json", _text_bytes),
       ("cli", "main", "cli.main", None)]
)


# per-operation totals that ``summary`` reports
SUMMED = (
    [f"specfun.{k}.points" for k in ("sinc", "ediff", "damped_im_erfi", "faddeeva_w")]
    + ["specfun.self_s"]
    + [f"quadrature.{k}" for k in ("calls", "evaluations", "panels", "refine_rounds", "self_s",
                                   "integrand_s", "cpu_s", "budget_overruns", "failures")]
    + ["core.evaluate_scenario.calls", "core.evaluate_scenario.self_s", "core.state_s",
       "detectors.classify_s", "config.load_s", "config.calls", "sweep.run_sweep.self_s",
       "sweep.rows_failed", "sweep.table_s", "sweep.table_bytes", "cli.main.self_s"]
)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index, op id, detail]
        self.op = None    # operation id stamped on new spans
        self.warnings = 0
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, detail=None):
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = detail
        self._stack.pop()

    def _wrap(self, name, fn, detail):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._close(idx, detail(args, out) if detail else None)
        return traced

    def _wrap_integrate_radial(self, fn, default_settings, failure_type):
        tracer = self

        @functools.wraps(fn)
        def integrate_radial(spec, settings=default_settings):
            calls = [0]
            inner = spec.evaluate

            def evaluate(x):
                calls[0] += 1
                idx = tracer._open("quadrature.integrand")
                try:
                    return inner(x)
                finally:
                    tracer._close(idx)

            idx = tracer._open("quadrature.integrate_radial")
            cpu0 = time.process_time_ns()
            evaluations, failed = 0, False
            try:
                result = fn(dataclasses.replace(spec, evaluate=evaluate), settings)
                evaluations = result.evaluations
                return result
            except failure_type as exc:
                evaluations, failed = exc.best.evaluations, True
                raise
            finally:
                tracer._close(idx, (evaluations, max(0, calls[0] - 1),
                                    evaluations > settings.eval_budget, failed,
                                    time.process_time_ns() - cpu0))
        return integrate_radial

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sys.modules.items()
                if (name == "harvestsim" or name.startswith("harvestsim.")) and m is not None]

    def _replace(self, original, wrapper):
        for module in self._modules():
            names = [k for k, v in vars(module).items() if v is original]
            for attr in names:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self):
        import harvestsim.quadrature as quadrature
        pkg = sys.modules["harvestsim"]
        for module, fname, span, detail in TRACED:
            original = getattr(getattr(pkg, module), fname)
            self._replace(original, self._wrap(span, original, detail))
        self._replace(quadrature.integrate_radial,
                      self._wrap_integrate_radial(quadrature.integrate_radial,
                                                  quadrature.DEFAULT_SETTINGS,
                                                  quadrature.ConvergenceFailure))
        detectors = pkg.detectors
        real = detectors.warnings

        def warn(message, category=None, stacklevel=1, **kwargs):
            self.warnings += 1
            real.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

        self._saved.append((detectors, "warnings", real))
        detectors.warnings = types.SimpleNamespace(warn=warn)
        return self

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self, ops):
        """Per-layer metrics per operation; layers a workload never enters read 0."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        acc = dict.fromkeys(SUMMED, 0)

        def add(key, value):
            acc[key] += value

        evals_max = 0
        for i, (name, t0, t1, parent, _, detail) in enumerate(spans):
            dur = (t1 - t0) * 1e-9
            self_s = dur - child[i] * 1e-9
            parent_name = spans[parent][0] if parent >= 0 else ""
            layer = name.split(".")[0]
            if layer == "specfun":
                add("specfun.self_s", self_s)
                add(name + ".points", detail)
            elif name == "quadrature.integrate_radial":
                evals, rounds, overrun, failed, cpu_ns = detail
                add("quadrature.calls", 1)
                add("quadrature.evaluations", evals)
                add("quadrature.refine_rounds", rounds)
                add("quadrature.budget_overruns", int(overrun))
                add("quadrature.failures", int(failed))
                add("quadrature.cpu_s", cpu_ns * 1e-9)
                add("quadrature.self_s", self_s)
                evals_max = max(evals_max, evals)
            elif name == "quadrature.integrand":
                add("quadrature.integrand_s", dur)
            elif name == "core.evaluate_scenario":
                add("core.evaluate_scenario.calls", 1)
                add("core.evaluate_scenario.self_s", self_s)
            elif name.startswith("core.state."):
                add("core.state_s", dur)
            elif layer == "detectors":
                add("detectors.classify_s", dur)
            elif layer == "config":
                if name == "config.loads_config":
                    add("config.calls", 1)
                if not parent_name.startswith("config."):
                    add("config.load_s", dur)
            elif name == "sweep.run_sweep":
                add("sweep.run_sweep.self_s", self_s)
                add("sweep.rows_failed", detail)
            elif name.startswith("sweep.rows_to_"):
                add("sweep.table_s", dur)
                add("sweep.table_bytes", detail)
            elif name == "cli.main":
                add("cli.main.self_s", self_s)
        acc["quadrature.panels"] = acc["quadrature.evaluations"] / GK_POINTS
        per_op = {k: v / ops for k, v in acc.items()}
        per_op["quadrature.evals_max"] = evals_max
        per_op["core.quads_per_op"] = per_op["quadrature.calls"]
        per_op["detectors.warnings"] = self.warnings / ops
        return per_op

    def probe(self, op):
        """Evaluations, refinement rounds and budget overruns of the quadratures run under ``op``."""
        evals = rounds = overruns = 0
        for name, _, _, _, span_op, detail in self.spans:
            if name == "quadrature.integrate_radial" and span_op == op:
                evals += detail[0]
                rounds += detail[1]
                overruns += int(detail[2])
        return evals, rounds, overruns

    def write(self, path):
        base = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0 - base, "end_ns": t1 - base,
                                     "parent": parent, "op": op}) + "\n")

