"""Single-point evaluation, parameter sweeps, and figure presets.

A sweep is one call to ``evaluate_scenarios``, which computes what its
rows share once: the local term of every detector the sweep leaves
unchanged; in a ``delta`` or ``delta_t`` sweep also the exchange term and
the unsmeared correlation term; and the spatial smear's separation- and
uncertainty-independent term C once per detector pair, in an ``r`` sweep
too.  The rest, the integrals each row needs of its own, run in lockstep
by kind, one evaluate call per round for all rows of a kind, and read
the same bits as the rows evaluated one at a time.
Isolated failures are recorded per row instead of aborting the sweep; a
scenario no row could evaluate, such as detectors of unequal smearing
widths, is rejected when the config is built, before any row runs.
Output formatting uses shortest round-trip floats so that repeated runs
are byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .config import OutputSpec, RunConfig, SweepSpec
from .core import ROW_ERRORS, HarvestReport, evaluate_scenario, evaluate_scenarios
from .detectors import DetectorParams, Scenario, SwitchingWindow, light_contact_interval
from .quadrature import QuadratureSettings

__all__ = [
    "SweepRow",
    "COLUMNS",
    "run_point",
    "run_sweep",
    "figure_config",
    "figure_preset",
    "rows_to_csv",
    "rows_to_json",
]

COLUMNS = (
    "parameter",
    "value",
    "i_aa",
    "i_bb",
    "i_ab_re",
    "i_ab_im",
    "j_re",
    "j_im",
    "j_abs",
    "j_smeared_abs",
    "ratio_r",
    "negativity_raw",
    "negativity",
    "bell_phi_plus",
    "bell_phi_minus",
    "bell_psi_plus",
    "bell_psi_minus",
    "causal_class",
    "err_i_aa",
    "err_i_bb",
    "err_i_ab",
    "err_j",
    "status",
)


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    report: HarvestReport | None
    status: str  # "ok" or "<ErrorType>: message"

    def to_record(self) -> dict:
        rec = {name: None for name in COLUMNS}
        rec["parameter"] = self.parameter
        rec["value"] = self.value
        rec["status"] = self.status
        rep = self.report
        if rep is None:
            return rec
        ints = rep.integrals
        rec.update(
            i_aa=ints.i_aa,
            i_bb=ints.i_bb,
            i_ab_re=ints.i_ab.real,
            i_ab_im=ints.i_ab.imag,
            j_re=rep.j_unsmeared.real,
            j_im=rep.j_unsmeared.imag,
            j_abs=abs(rep.j_unsmeared),
            j_smeared_abs=rep.j_smeared_abs,
            negativity_raw=rep.negativity_raw,
            negativity=rep.negativity,
            bell_phi_plus=rep.bell_phi_plus,
            bell_phi_minus=rep.bell_phi_minus,
            bell_psi_plus=rep.bell_psi_plus,
            bell_psi_minus=rep.bell_psi_minus,
            causal_class=rep.causal_class.value,
            err_i_aa=rep.quad_errors.get("i_aa"),
            err_i_bb=rep.quad_errors.get("i_bb"),
            err_i_ab=rep.quad_errors.get("i_ab"),
            err_j=rep.quad_errors.get("j"),
        )
        if rep.j_smeared_abs is not None and abs(rep.j_unsmeared) > 0.0:
            rec["ratio_r"] = rep.j_smeared_abs / abs(rep.j_unsmeared)
        return rec


def run_point(cfg: RunConfig) -> HarvestReport:
    return evaluate_scenario(cfg.scenario, cfg.numerics)


def _apply_parameter(scenario: Scenario, parameter: str, value: float) -> tuple[Scenario, float | None]:
    """Return (scenario for this sweep point, time-smear width or None)."""
    if parameter == "r":
        return replace(scenario, separation=value), None
    if parameter == "delta":
        return replace(scenario, position_uncertainty=value), None
    if parameter == "delta_t":
        return scenario, value
    if parameter == "gap":
        wb = scenario.det_b.window
        start = scenario.det_a.window.t_off + value
        new_b = replace(scenario.det_b, window=SwitchingWindow(start, start + wb.duration))
        return replace(scenario, det_b=new_b), None
    if parameter == "duration":
        def with_duration(det: DetectorParams) -> DetectorParams:
            t_on = det.window.t_on
            return replace(det, window=SwitchingWindow(t_on, t_on + value))
        return replace(
            scenario,
            det_a=with_duration(scenario.det_a),
            det_b=with_duration(scenario.det_b),
        ), None
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def sweep_values(spec: SweepSpec) -> np.ndarray:
    if spec.spacing == "log":
        return np.geomspace(spec.start, spec.stop, spec.points)
    return np.linspace(spec.start, spec.stop, spec.points)


def run_sweep(cfg: RunConfig) -> list[SweepRow]:
    if cfg.sweep is None:
        raise ValueError("run_sweep: config has no [sweep] section")
    parameter = cfg.sweep.parameter
    values = [float(v) for v in sweep_values(cfg.sweep)]
    points = []
    for value in values:
        try:
            points.append(_apply_parameter(cfg.scenario, parameter, value))
        except ROW_ERRORS as exc:
            points.append(exc)
    results = iter(evaluate_scenarios(
        [p for p in points if not isinstance(p, Exception)], cfg.numerics))
    rows = []
    for value, point in zip(values, points):
        out = point if isinstance(point, Exception) else next(results)
        if isinstance(out, Exception):
            rows.append(SweepRow(parameter, value, None, f"{type(out).__name__}: {out}"))
        else:
            rows.append(SweepRow(parameter, value, out, "ok"))
    return rows


# --- figure presets -------------------------------------------------------

_PRESET_SIGMA = 0.001
_PRESET_GAP = 1.0
_PRESET_COUPLING = 0.01  # default coupling 0.01*gap
_PRESET_WINDOW_A = SwitchingWindow(0.0, 100.0 * _PRESET_SIGMA)
_PRESET_WINDOW_B = SwitchingWindow(150.0 * _PRESET_SIGMA, 250.0 * _PRESET_SIGMA)
_PRESET_R0 = 150.0 * _PRESET_SIGMA

FIGURE_NAMES = ("fig2a", "fig2b", "fig3")


def _preset_scenario() -> Scenario:
    det = dict(coupling=_PRESET_COUPLING, gap=_PRESET_GAP, smearing=_PRESET_SIGMA)
    return Scenario(
        det_a=DetectorParams(window=_PRESET_WINDOW_A, **det),
        det_b=DetectorParams(window=_PRESET_WINDOW_B, **det),
        separation=_PRESET_R0,
        position_uncertainty=0.0,
    )


def figure_config(name: str) -> RunConfig:
    """Sweep configuration reproducing one of the reference figures."""
    scenario = _preset_scenario()
    if name in ("fig2a", "fig2b"):
        sweep = SweepSpec(parameter="r", start=10.0 * _PRESET_SIGMA,
                          stop=400.0 * _PRESET_SIGMA, points=200, spacing="linear")
    elif name == "fig3":
        sweep = SweepSpec(parameter="delta", start=0.01 * _PRESET_R0,
                          stop=100.0 * _PRESET_R0, points=41, spacing="log")
    else:
        raise ValueError(f"unknown figure preset {name!r}; expected one of {FIGURE_NAMES}")
    return RunConfig(scenario=scenario, numerics=QuadratureSettings(),
                     sweep=sweep, output=OutputSpec())


def figure_preset(name: str, numerics=None) -> tuple[list[SweepRow], dict]:
    """Run a figure preset; returns (rows, sidecar metadata)."""
    cfg = figure_config(name)
    if numerics is not None:
        cfg = replace(cfg, numerics=numerics)
    rows = run_sweep(cfg)
    meta = {"preset": name, "parameter": cfg.sweep.parameter}
    if name in ("fig2a", "fig2b"):
        lo, hi = light_contact_interval(_PRESET_WINDOW_A, _PRESET_WINDOW_B)
        meta["light_contact_r_min"] = lo
        meta["light_contact_r_max"] = hi
        if name == "fig2b":
            meta["highlight_column"] = "bell_phi_plus"
    else:
        meta["r0"] = _PRESET_R0
    return rows, meta


# --- output ---------------------------------------------------------------

def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        rec = row.to_record()
        writer.writerow([_format_cell(rec[c]) for c in COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list[SweepRow], metadata: dict | None = None) -> str:
    payload = {
        "columns": list(COLUMNS),
        "rows": [row.to_record() for row in rows],
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
