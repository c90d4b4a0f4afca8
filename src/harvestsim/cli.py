"""Command-line interface.

Verbs:
  compute <config>                     evaluate one scenario
  sweep <config>                       run the sweep described by the config
  figure {fig2a,fig2b,fig3} [--out]    run a figure-reproduction preset

Global flags: --tol-abs X, --tol-rel X.

Exit codes: 0 ok; 2 invalid config, flag or scenario; 3 a quadrature did
not converge; 4 i/o error.  Each failure is one line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import ConfigError, load_config
from .core import HarvestReport, evaluate_scenario
from .quadrature import ConvergenceFailure
from .sweep import FIGURE_NAMES, figure_config, figure_preset, rows_to_csv, rows_to_json, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harvestsim",
        description="Second-order entanglement harvesting with rectangular switching",
    )
    parser.add_argument("--tol-abs", type=float, default=None,
                        help="override quadrature absolute tolerance")
    parser.add_argument("--tol-rel", type=float, default=None,
                        help="override quadrature relative tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate a single scenario")
    p_compute.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="run the sweep from the config")
    p_sweep.add_argument("config")

    p_fig = sub.add_parser("figure", help="run a figure-reproduction preset")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    p_fig.add_argument("--out", default=None, help="output file (default: stdout)")
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _override_numerics(cfg, args):
    overrides = {}
    if args.tol_abs is not None:
        overrides["tol_abs"] = args.tol_abs
    if args.tol_rel is not None:
        overrides["tol_rel"] = args.tol_rel
    if overrides:
        cfg = dataclasses.replace(cfg, numerics=dataclasses.replace(cfg.numerics, **overrides))
    return cfg


def _report_to_dict(report: HarvestReport) -> dict:
    ints = report.integrals
    return {
        "i_aa": ints.i_aa,
        "i_bb": ints.i_bb,
        "i_ab": {"re": ints.i_ab.real, "im": ints.i_ab.imag},
        "j": {"re": ints.j.real, "im": ints.j.imag},
        "j_unsmeared": {"re": report.j_unsmeared.real, "im": report.j_unsmeared.imag},
        "j_smeared_abs": report.j_smeared_abs,
        "smearing_method": report.smearing_method,
        "negativity_raw": report.negativity_raw,
        "negativity": report.negativity,
        "o4_corner_eigenvalue": report.o4_corner_eigenvalue,
        "bell_fractions": {
            "phi_plus": report.bell_phi_plus,
            "phi_minus": report.bell_phi_minus,
            "psi_plus": report.bell_psi_plus,
            "psi_minus": report.bell_psi_minus,
        },
        "causal_class": report.causal_class.value,
        "timing": dataclasses.asdict(report.timing) | {
            "kind": type(report.timing).__name__.lower()
        },
        "quad_errors": report.quad_errors,
    }


def _print_report(report: HarvestReport) -> None:
    d = _report_to_dict(report)
    print(f"i_aa           = {d['i_aa']!r}")
    print(f"i_bb           = {d['i_bb']!r}")
    print(f"i_ab           = {d['i_ab']['re']!r} + {d['i_ab']['im']!r}i")
    print(f"j              = {d['j']['re']!r} + {d['j']['im']!r}i")
    if report.j_smeared_abs is not None:
        print(f"|j| smeared    = {report.j_smeared_abs!r}  ({report.smearing_method})")
    print(f"negativity raw = {report.negativity_raw!r}")
    print(f"negativity     = {report.negativity!r}")
    print(f"bell phi+      = {report.bell_phi_plus!r}")
    print(f"bell phi-      = {report.bell_phi_minus!r}")
    print(f"bell psi+      = {report.bell_psi_plus!r}")
    print(f"bell psi-      = {report.bell_psi_minus!r}")
    print(f"causal class   = {report.causal_class.value}")
    print(f"timing         = {report.timing}")


def _write_table(rows, metadata, out_path, fmt) -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows, metadata)
    if out_path is None:
        sys.stdout.write(text)
        if metadata and fmt == "csv":
            sys.stderr.write(json.dumps(metadata, sort_keys=True) + "\n")
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if metadata and fmt == "csv":
        with open(out_path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            cfg = _override_numerics(load_config(args.config), args)
            report = evaluate_scenario(cfg.scenario, cfg.numerics)
            _print_report(report)
            if cfg.output.path is not None:
                with open(cfg.output.path, "w", encoding="utf-8", newline="\n") as fh:
                    json.dump(_report_to_dict(report), fh, indent=2, sort_keys=True)
                    fh.write("\n")
        elif args.command == "sweep":
            cfg = _override_numerics(load_config(args.config), args)
            _write_table(run_sweep(cfg), None, cfg.output.path, cfg.output.format)
        else:
            numerics = _override_numerics(figure_config(args.name), args).numerics
            rows, meta = figure_preset(args.name, numerics=numerics)
            _write_table(rows, meta, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a flag or scenario the types reject
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ConvergenceFailure as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
