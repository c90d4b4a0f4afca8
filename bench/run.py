"""harvestsim benchmark: the Fig. 3 sweep and uncertain single points.

Usage (from the repository root):

    python3 bench/run.py --workload uncertain-points --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all             # every workload, one table

One process and one closed-loop client drive the package from outside:
the sweeps go through ``harvestsim.cli.main(["sweep", <config>])``, the
single points through ``loads_config`` and ``evaluate_scenario``.  The
package is imported from ``src/`` next to this directory, never from an
installed copy.  A run measures a fixed number of requests, made from the
seed, that take about ``--seconds`` of request time at the nominal speed;
then it checks every operation against the references in ``reference.py``.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to
a nominal machine speed by ``SpeedProbe``, which runs between requests;
the unscaled figures are printed and recorded next to them.  ``--trace
1`` measures half the requests untraced, repeats the same requests traced,
and reports the per-layer metrics of ``tracing.py`` per operation, the
tracing overhead, and the kernel and per-integral probes.

The last line of standard output is one JSON object: ``correct`` (every
reference agreed with its anchors, so the check can be trusted),
``attempted`` and ``failed`` (operations that raised, reported a status
other than ok, or missed a reference by more than the relative tolerance
1e-6), and ``metrics``.  Full records, with the references, go to
``.bench_out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fig3-sweep", "uncertain-points")
SETUP_RUNS = 5
KERNEL_POINTS = 1 << 20
# The machine-speed probe: its median time on the 2-vCPU x86-64 machine the
# benchmark was defined on, and the request time between two probes.
PROBE_NOMINAL_S = 0.0133
PROBE_EVERY_S = 1.0
# A run stops early, at a rate-group boundary, once its requests have taken this
# many times --seconds; at the nominal speed they take about --seconds.
LIMIT_FACTOR = 3.0
# Tail percentile of request latency.  On uncertain-points p75 leaves at least
# ten requests beyond it; a fig3-sweep run holds about 20 invocations, where
# p75 is the highest percentile that one slow invocation does not set on its own.
TAIL_PERCENTILE = 75

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import harvestsim.cli
from harvestsim.core import evaluate_scenario
from harvestsim.sweep import figure_config
evaluate_scenario(figure_config("fig3").scenario)
print(repr(time.perf_counter() - t0))
"""


def _require_checkout():
    """Exit with status 1 unless the package and the test oracles are here."""
    if not (SRC / "harvestsim" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        sys.exit(f"bench: {SRC / 'harvestsim'} or {TESTS / 'oracles.py'} not found; "
                 "run from a full checkout")


def _import_package():
    """Import harvestsim and the test oracles from this checkout, never an installed copy."""
    sys.path[:0] = [str(SRC), str(TESTS)]
    import harvestsim
    import harvestsim.cli  # noqa: F401  (loads every module)
    if Path(harvestsim.__file__).resolve().parent != SRC / "harvestsim":
        sys.exit(f"bench: imported harvestsim from {harvestsim.__file__}, not from {SRC}")
    return harvestsim


def _blas_threads():
    """(library, threads) for each OpenBLAS the process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def environment():
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_runtime": _blas_threads(),
            "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS") if k in os.environ},
            "machine": platform.machine()}


class SpeedProbe:
    """How fast the shared machine runs right now.

    The probe times fixed elementwise numpy work shaped like the package's
    inner loop (complex exponentials and sines on one J quadrature's worth of
    nodes, a 15-point weighted sum per panel).  It calls no BLAS, so nothing
    the package does to thread pools changes it.  ``scale`` turns a time
    measured next to a probe into the time at the nominal probe speed; on a
    machine whose speed drifts by tens of percent within a minute this keeps
    the end-to-end metrics comparable between runs.
    """

    def __init__(self):
        self.x = np.linspace(0.0, 9100.0, 1885 * 15)
        self.weights = np.linspace(0.1, 0.2, 15)

    def sample(self):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for k in range(6):
                v = np.exp(1j * self.x * (0.1 + 0.01 * k)) * (np.sin(self.x * 0.15) / (self.x + 1.0))
                float(np.abs((v.reshape(-1, 15) * self.weights).sum(axis=1)).sum())
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @staticmethod
    def scale(before, after):
        return PROBE_NOMINAL_S / (0.5 * (before + after))


def measure_setup(probe):
    """Median over fresh processes of import plus the first evaluation, raw and scaled."""
    raw, scaled = [], []
    before = probe.sample()
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        after = probe.sample()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * probe.scale(before, after))
        before = after
    return statistics.median(scaled), raw


def measure(workload, requests, probe, limit_s, tracer=None, first_op=0):
    """Closed loop over ``requests`` requests.  The count is fixed by the
    workload and ``--seconds`` (``requests()`` in workloads.py), so the seed
    alone decides what a run attempts and two runs with one seed attempt the
    same operations.  Only on a machine so slow that the requests take more
    than ``limit_s`` does the loop stop early, at the end of a rate group.
    The speed probe runs before the first request and after every
    PROBE_EVERY_S of request time; each request's scale comes from the
    probes on either side of it."""
    lat, cpu, ops, scale = [], [], [], []
    before, pending, since = probe.sample(), 0, 0.0
    while True:
        op = workload.prepare()
        if tracer is not None:
            tracer.op = first_op + len(lat)
        c0, t0 = time.process_time(), time.perf_counter()
        outcome = workload.run(op)
        t1, c1 = time.perf_counter(), time.process_time()
        ops.append(workload.after(op, outcome))
        lat.append(t1 - t0)
        cpu.append(c1 - c0)
        since += t1 - t0
        pending += 1
        done = len(lat) >= requests or (sum(lat) >= limit_s and len(lat) % workload.GROUP == 0)
        if since >= PROBE_EVERY_S or done:
            after = probe.sample()
            scale += [probe.scale(before, after)] * pending
            before, pending, since = after, 0, 0.0
        if done:
            if len(lat) < requests:
                print(f"bench: stopped after {len(lat)} of {requests} requests, "
                      f"{sum(lat):.1f} s of request time", file=sys.stderr)
            return {"latencies": lat, "cpu": cpu, "op_counts": ops, "scale": scale,
                    "cpu_s": sum(cpu), "wall_s": sum(lat), "ops": sum(ops),
                    "scaled_wall_s": sum(t * f for t, f in zip(lat, scale))}


def kernel_probes(specfun):
    """ns per point of each special function on a fixed 2^20-point array."""
    w = np.linspace(0.0, 9100.0, KERNEL_POINTS)   # the frequency span at sigma = 0.001
    x, mu, y = 0.15 * w, w + 1.0, 0.075 * w
    z = 1.0 + 1j * y
    cases = {"sinc": lambda: specfun.sinc(x), "ediff": lambda: specfun.ediff(0.0, 0.1, mu),
             "damped_im_erfi": lambda: specfun.damped_im_erfi(1.0, y),
             "faddeeva_w": lambda: specfun.faddeeva_w(z)}
    out = {}
    for name, fn in cases.items():
        fn()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[f"specfun.{name}.ns_per_point"] = statistics.median(times) / KERNEL_POINTS * 1e9
    return out


def integral_probes(hs, tracing, workloads):
    """Evaluations and time of each public integral at the reference point."""
    core = hs.core
    s = hs.sweep.figure_config("fig3").scenario
    shift = workloads.T_MAX

    def shifted(det):
        return replace(det, window=det.window.shifted(shift))

    cases = {
        "i_nn": lambda: core.compute_I_nn(s.det_a),
        "i_ab": lambda: core.compute_I_AB(s),
        "j": lambda: core.compute_J(s),
        "j_smeared": lambda: core.compute_J_smeared(replace(s, position_uncertainty=workloads.R0)),
        "j_time_smeared": lambda: core.compute_J_time_smeared(s, 5 * workloads.SIGMA),
        "j_t30": lambda: core.compute_J(replace(s, det_a=shifted(s.det_a), det_b=shifted(s.det_b))),
    }
    tracer = tracing.Tracer().install()
    out, rounds, overruns = {}, 0, 0
    try:
        for name, fn in cases.items():
            tracer.op = name
            t0 = time.perf_counter()
            fn()
            out[f"core.probe.{name}.ms"] = (time.perf_counter() - t0) * 1e3
            evals, r, o = tracer.probe(name)
            out[f"core.probe.{name}.evaluations"] = evals
            rounds += r
            overruns += o
    finally:
        tracer.uninstall()
    out["core.probe.refine_rounds"] = rounds
    out["core.probe.budget_overruns"] = overruns
    return out


def _end_to_end(run, setup_s, group):
    """End-to-end metrics at the nominal machine speed.  Rates are medians over
    groups of ``group`` requests (a stratification block, or one sweep), so a
    slow spell shorter than half the run does not move them either."""
    scaled = [t * f for t, f in zip(run["latencies"], run["scale"])]
    scaled_cpu = [c * f for c, f in zip(run["cpu"], run["scale"])]
    lat_ms = sorted(v * 1e3 for v in scaled)
    pct = TAIL_PERCENTILE
    spans = range(0, len(scaled) - group + 1, group)
    wall = [sum(scaled[i:i + group]) for i in spans]
    cpu = [sum(scaled_cpu[i:i + group]) for i in spans]
    ops = [sum(run["op_counts"][i:i + group]) for i in spans]
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(o / w for o, w in zip(ops, wall)),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": float(np.percentile(lat_ms, pct)),
        "cpu_ms_per_op": statistics.median(c / o for c, o in zip(cpu, ops)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(v > values["latency_tail_ms"] for v in lat_ms)
    notes = {"setup runs": SETUP_RUNS, "latency samples": len(lat_ms), "tail percentile": pct,
             "rate groups": len(wall),
             "samples beyond tail": beyond, "operations": run["ops"],
             "wall_s": run["wall_s"], "cpu_s": run["cpu_s"],
             "unscaled ops_per_s": run["ops"] / run["wall_s"],
             "speed scale median": statistics.median(run["scale"])}
    return values, notes


def run_one(args):
    hs = _import_package()
    import reference
    import tracing
    import workloads
    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe = SpeedProbe()
    setup_s, setup_runs = (measure_setup(probe) if not args.trace else (None, []))

    # warm-up: the first evaluation in this process, untimed
    hs.core.evaluate_scenario(hs.sweep.figure_config("fig3").scenario)
    if args.workload == "uncertain-points":
        wl = workloads.PointsWorkload(args.seed, hs.config, hs.core)
    else:
        wl = workloads.SweepWorkload(args.workload, args.seed, OUT, hs.cli)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_runs_unscaled_s": setup_runs}
    if not args.trace:
        run = measure(wl, wl.requests(args.seconds), probe, LIMIT_FACTOR * args.seconds)
        metrics, notes = _end_to_end(run, setup_s, wl.GROUP)
    else:
        # the traced pass repeats the untraced pass's requests, so their rates compare
        limit_s = LIMIT_FACTOR * args.seconds / 2
        plain = measure(wl, wl.requests(args.seconds / 2), probe, limit_s)
        wl.rewind()
        tracer = tracing.Tracer().install()
        try:
            traced = measure(wl, len(plain["latencies"]), probe, 2 * limit_s, tracer,
                             first_op=len(plain["latencies"]))
        finally:
            tracer.uninstall()
        metrics = tracer.summary(traced["ops"])
        plain_rate = plain["ops"] / plain["scaled_wall_s"]
        traced_rate = traced["ops"] / traced["scaled_wall_s"]
        metrics |= {"trace.untraced_ops_per_s": plain_rate, "trace.traced_ops_per_s": traced_rate,
                    "trace.overhead": plain_rate / traced_rate - 1.0,
                    "process.cpu_per_wall": (plain["cpu_s"] + traced["cpu_s"])
                    / (plain["wall_s"] + traced["wall_s"])}
        metrics |= kernel_probes(hs.specfun)
        metrics |= integral_probes(hs, tracing, workloads)
        notes = {"untraced operations": plain["ops"], "traced operations": traced["ops"],
                 "spans": len(tracer.spans), "wall_s": plain["wall_s"] + traced["wall_s"],
                 "cpu_s": plain["cpu_s"] + traced["cpu_s"]}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    check = wl.check()
    correct = bool(check["anchors"]) and all(a["gap"] <= reference.REF_TOL for a in check["anchors"])
    record |= {"metrics": metrics, "notes": notes, "check": check, "correct": correct,
               "latencies_s": run["latencies"] if not args.trace else None,
               "speed_scale": run["scale"] if not args.trace else None}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    for key, value in check.get("by_kind", {}).items():
        print(f"  kind {key}: {value['failed']} of {value['attempted']} failed")
    for reason, count in sorted(check["reasons"].items()):
        print(f"  failed {count}x: {reason}")
    print(f"  failed share {check['failed']}/{check['attempted']} = "
          f"{check['failed'] / max(1, check['attempted']):.4f}; reference anchors "
          + ", ".join(f"{a['gap']:.1e}" for a in check["anchors"]))
    if not correct:
        print(f"  the references disagree with their anchors beyond {reference.REF_TOL}; "
              "the check cannot be trusted")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"bench: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    links = {}
    for p in json.loads((Path(__file__).parent / "layers.json").read_text())["predictions"]:
        for name in p["metrics"]:
            links[name] = f"moves {', '.join(p['moves']) or 'nothing'}" + (
                f" on {', '.join(p['on'])}" if p["moves"] else "")
    for key in sorted(metrics):
        print(f"  {key:40s} {metrics[key]:<14.6g} {units[key]:9s} {links.get(key, '')}")
    print(json.dumps({"correct": correct, "attempted": check["attempted"], "failed": check["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args):
    """Run every workload in its own process and print every metric by name."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        rows.append((name, result))
    print(f"\n{'workload':18s} {'metric':40s} {'value':>14s} unit")
    for name, result in rows:
        for key, m in result["metrics"].items():
            print(f"{name:18s} {key:40s} {m['value']:14.6g} {m['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{name:18s} {'failed_ratio':40s} {share:14.6g} "
              f"({result['failed']}/{result['attempted']}, correct={result['correct']})")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
