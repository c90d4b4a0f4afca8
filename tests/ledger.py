"""The output ledger: what the package computes for the benchmark's inputs,
kept in ``ledger.json`` and checked by Tier-1 (``test_ledger.py``).

It covers ``figure fig3``, ``figure fig2a`` and the 96 seed-0 requests of
the benchmark's uncertain-points workload.  For each row it holds the
status and each integral's value and reported error as ``repr`` strings;
for each group the quadrature runs, in order, its kind, its rounds (GK15
passes over the pending panels of all its members, the first partition
included) and each member's evaluations.  It also holds the requests'
config texts and clock spreads, taken from ``bench/workloads.py`` when
the ledger is written, so that checking it reads nothing from ``bench/``,
and the numpy and scipy versions it was written with.

A check asserts equal statuses, equal groups, and every value within
max(reported error, 50*eps*|value|) of the ledger's, and reports the
largest move relative to that bound and how many numbers are bit-equal.

    PYTHONPATH=src python tests/ledger.py --write   # rewrite ledger.json
    PYTHONPATH=src python tests/ledger.py           # check against it
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from harvestsim import config, core, quadrature
from harvestsim.sweep import figure_config, run_sweep

LEDGER = Path(__file__).with_name("ledger.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"
FIGURES = ("fig3", "fig2a")
REQUESTS = 96    # what a 35 s uncertain-points run attempts: 6 blocks of 16
_EPS = float(np.finfo(float).eps)
# each integral a report holds and its value; its error is quad_errors[name]
_VALUES = {
    "i_aa": lambda rep: rep.integrals.i_aa,
    "i_bb": lambda rep: rep.integrals.i_bb,
    "i_ab": lambda rep: rep.integrals.i_ab,
    "j": lambda rep: rep.j_unsmeared,
    "j_smeared": lambda rep: rep.integrals.j,
}


def bench_requests(seed: int = 0) -> list[dict]:
    """The config text and clock spread of the first ``REQUESTS`` requests
    of the benchmark's uncertain-points workload at ``seed``."""
    sys.path.insert(0, str(BENCH))
    import workloads
    stream = workloads.PointsWorkload(seed, config, core)
    return [{"text": req["text"], "dt": req.get("dt")}
            for req in (stream.prepare() for _ in range(REQUESTS))]


def _evaluations(slot):
    """A member's evaluations from its result or failure; None where it has none."""
    if isinstance(slot, quadrature.ConvergenceFailure):
        slot = slot.best
    return slot.evaluations if isinstance(slot, quadrature.QuadResult) else None


@contextmanager
def _recorded_groups():
    """[kind, rounds, evaluations of each member] of every group run inside."""
    groups = []
    patched = dict(_run_group=core._run_group, integrate_radial=core.integrate_radial,
                   integrate_lockstep=core.integrate_lockstep)
    gk15 = quadrature._gk15

    def run_group(members, settings):
        groups.append([members[0].kind, 0, []])
        return patched["_run_group"](members, settings)

    def one_round(*args):
        groups[-1][1] += 1
        return gk15(*args)

    def alone(spec, settings):
        try:
            res = patched["integrate_radial"](spec, settings)
        except (quadrature.ConvergenceFailure, ValueError) as exc:
            groups[-1][2].append(_evaluations(exc))
            raise
        groups[-1][2].append(res.evaluations)
        return res

    def together(specs, evaluate, settings):
        results = patched["integrate_lockstep"](specs, evaluate, settings)
        groups[-1][2].extend(_evaluations(res) for res in results)
        return results

    wrappers = dict(_run_group=run_group, integrate_radial=alone, integrate_lockstep=together)
    for name, wrapper in wrappers.items():
        setattr(core, name, wrapper)
    quadrature._gk15 = one_round
    try:
        yield groups
    finally:
        for name, original in patched.items():
            setattr(core, name, original)
        quadrature._gk15 = gk15


def _row(status: str, rep) -> list:
    values = {} if rep is None else {name: [repr(_VALUES[name](rep)), repr(error)]
                                     for name, error in rep.quad_errors.items()}
    return [status, values]


def _request(req: dict) -> list:
    """A request's row, run as the benchmark runs it."""
    try:
        cfg = config.loads_config(req["text"])
        rep = core.evaluate_scenario(cfg.scenario, cfg.numerics, time_smear=req["dt"])
    except core.ROW_ERRORS as exc:
        return _row(f"{type(exc).__name__}: {exc}", None)
    return _row("ok", rep)


def compute(requests: list[dict]) -> dict:
    """The ledger's outputs as the package computes them now."""
    out = {}
    for name in FIGURES:
        with _recorded_groups() as groups:
            rows = [_row(r.status, r.report) for r in run_sweep(figure_config(name))]
        out[f"{name}.rows"], out[f"{name}.groups"] = rows, groups
    with _recorded_groups() as groups:
        out["points.rows"] = [_request(req) for req in requests]
    out["points.groups"] = groups
    return out


def compare(ledger: dict, fresh: dict) -> tuple[list[str], str]:
    """The differences that fail the check, and a line that sums it up."""
    failures, largest, where, equal, total = [], 0.0, "none", [0, 0], 0
    for name in (*FIGURES, "points"):
        if fresh[f"{name}.groups"] != ledger[f"{name}.groups"]:
            failures.append(f"{name}: groups (kind, rounds, evaluations) differ")
        old_rows, new_rows = ledger[f"{name}.rows"], fresh[f"{name}.rows"]
        if [r[0] for r in new_rows] != [r[0] for r in old_rows]:
            failures.append(f"{name}: row statuses differ")
            continue
        for i, ((_, old), (_, new)) in enumerate(zip(old_rows, new_rows)):
            if new.keys() != old.keys():
                failures.append(f"{name} row {i}: integrals {sorted(new)} != {sorted(old)}")
                continue
            for key, (value, error) in old.items():
                total += 1
                equal[0] += new[key][0] == value
                equal[1] += new[key][1] == error
                v = complex(value)
                bound = max(float(error), 50.0 * _EPS * abs(v))
                gap = abs(complex(new[key][0]) - v)
                move = gap / bound if bound > 0.0 else 0.0 if gap == 0.0 else float("inf")
                if move > largest:
                    largest, where = move, f"{name} row {i} {key}"
                if not move <= 1.0:
                    failures.append(f"{name} row {i} {key}: {new[key][0]} against {value}, "
                                    f"{move:.3g} of max(reported error, 50 eps |value|)")
    versions = ledger["versions"]
    summary = (f"ledger: largest move {largest:.3g} of max(reported error, 50 eps |value|) "
               f"({where}); {equal[0]} of {total} values and {equal[1]} errors bit-equal; "
               f"written with numpy {versions['numpy']}, scipy {versions['scipy']}, "
               f"run with numpy {np.__version__}, scipy {scipy.__version__}")
    return failures, summary


def _dumps(ledger: dict) -> str:
    """JSON with one line per request, row and group, so a change reads as a diff."""
    def lines(v):
        return json.dumps(v) if isinstance(v, dict) else (
            "[\n" + ",\n".join(json.dumps(x) for x in v) + "\n]")
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {lines(v)}" for k, v in ledger.items()) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite ledger.json")
    args = parser.parse_args(argv)
    if args.write:
        requests = bench_requests()
        ledger = {"versions": {"numpy": np.__version__, "scipy": scipy.__version__},
                  "requests": requests, **compute(requests)}
        LEDGER.write_text(_dumps(ledger))
        print(f"wrote {LEDGER} ({LEDGER.stat().st_size} bytes)")
        return 0
    ledger = json.loads(LEDGER.read_text())
    failures, summary = compare(ledger, compute(ledger["requests"]))
    print("\n".join(failures[:20] + [summary]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
