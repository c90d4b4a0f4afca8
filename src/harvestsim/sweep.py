"""Parameter sweeps, figure presets and their tables.

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
from operator import attrgetter

import numpy as np

from .config import OutputSpec, RunConfig, SweepSpec
from .core import HarvestReport, _attempt, evaluate_scenarios
from .detectors import DetectorParams, Scenario, SwitchingWindow, light_contact_interval
from .quadrature import QuadratureSettings

__all__ = [
    "SweepRow",
    "COLUMNS",
    "run_sweep",
    "figure_config",
    "figure_preset",
    "rows_to_csv",
    "rows_to_json",
]

def _ratio_r(rep: HarvestReport) -> float | None:
    """R = |smeared J|/|J|, where a smear applies and J is not 0."""
    j = abs(rep.j_unsmeared)
    return rep.j_smeared_abs / j if rep.j_smeared_abs is not None and j > 0.0 else None


# each column of a row's report, in table order, and what it reads of it
_REPORT_FIELDS = {
    "i_aa": attrgetter("integrals.i_aa"),
    "i_bb": attrgetter("integrals.i_bb"),
    "i_ab_re": attrgetter("integrals.i_ab.real"),
    "i_ab_im": attrgetter("integrals.i_ab.imag"),
    "j_re": attrgetter("j_unsmeared.real"),
    "j_im": attrgetter("j_unsmeared.imag"),
    "j_abs": lambda rep: abs(rep.j_unsmeared),
    "j_smeared_abs": attrgetter("j_smeared_abs"),
    "ratio_r": _ratio_r,
    "negativity_raw": attrgetter("negativity_raw"),
    "negativity": attrgetter("negativity"),
    "bell_phi_plus": attrgetter("bell_phi_plus"),
    "bell_phi_minus": attrgetter("bell_phi_minus"),
    "bell_psi_plus": attrgetter("bell_psi_plus"),
    "bell_psi_minus": attrgetter("bell_psi_minus"),
    "causal_class": attrgetter("causal_class.value"),
    "err_i_aa": lambda rep: rep.quad_errors.get("i_aa"),
    "err_i_bb": lambda rep: rep.quad_errors.get("i_bb"),
    "err_i_ab": lambda rep: rep.quad_errors.get("i_ab"),
    "err_j": lambda rep: rep.quad_errors.get("j"),
}
_READS = tuple(_REPORT_FIELDS.values())
COLUMNS = ("parameter", "value", *_REPORT_FIELDS, "status")


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    report: HarvestReport | None
    status: str  # "ok" or "<ErrorType>: message"

    def cells(self) -> list:
        """The row's value in each column, in table order; None where it has none."""
        rep = self.report
        reads = [None] * len(_READS) if rep is None else [read(rep) for read in _READS]
        return [self.parameter, self.value, *reads, self.status]

    def to_record(self) -> dict:
        return dict(zip(COLUMNS, self.cells()))


def _apply_parameter(scenario: Scenario, parameter: str, value: float) -> tuple[Scenario, float | None]:
    """Return (scenario for this sweep point, time-smear width or None);
    ``parameter`` is one of the names ``SweepSpec`` accepts."""
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
    # "duration"
    def with_duration(det: DetectorParams) -> DetectorParams:
        t_on = det.window.t_on
        return replace(det, window=SwitchingWindow(t_on, t_on + value))
    return replace(
        scenario,
        det_a=with_duration(scenario.det_a),
        det_b=with_duration(scenario.det_b),
    ), None


def sweep_values(spec: SweepSpec) -> np.ndarray:
    if spec.spacing == "log":
        return np.geomspace(spec.start, spec.stop, spec.points)
    return np.linspace(spec.start, spec.stop, spec.points)


def run_sweep(cfg: RunConfig) -> list[SweepRow]:
    if cfg.sweep is None:
        raise ValueError("run_sweep: config has no [sweep] section")
    parameter = cfg.sweep.parameter
    values = [float(v) for v in sweep_values(cfg.sweep)]
    points = [_attempt(_apply_parameter, cfg.scenario, parameter, value) for value in values]
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

_SIGMA = 0.001
_R0 = 150.0 * _SIGMA
_DETECTOR = dict(coupling=0.01, gap=1.0, smearing=_SIGMA)  # default coupling 0.01*gap
_REFERENCE = Scenario(
    det_a=DetectorParams(window=SwitchingWindow(0.0, 100.0 * _SIGMA), **_DETECTOR),
    det_b=DetectorParams(window=SwitchingWindow(150.0 * _SIGMA, 250.0 * _SIGMA), **_DETECTOR),
    separation=_R0,
    position_uncertainty=0.0,
)
_LIGHT_CONTACT = dict(zip(("light_contact_r_min", "light_contact_r_max"),
                          light_contact_interval(_REFERENCE.det_a.window,
                                                 _REFERENCE.det_b.window)))
_FIG2 = SweepSpec(parameter="r", start=10.0 * _SIGMA, stop=400.0 * _SIGMA,
                  points=200, spacing="linear")

# name -> (its sweep of the reference scenario, the keys its sidecar adds)
_PRESETS = {
    "fig2a": (_FIG2, _LIGHT_CONTACT),
    "fig2b": (_FIG2, _LIGHT_CONTACT | {"highlight_column": "bell_phi_plus"}),
    "fig3": (SweepSpec(parameter="delta", start=0.01 * _R0, stop=100.0 * _R0,
                       points=41, spacing="log"), {"r0": _R0}),
}
FIGURE_NAMES = tuple(_PRESETS)


def figure_config(name: str) -> RunConfig:
    """Sweep configuration reproducing one of the reference figures."""
    if name not in _PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; expected one of {FIGURE_NAMES}")
    return RunConfig(scenario=_REFERENCE, numerics=QuadratureSettings(),
                     sweep=_PRESETS[name][0], output=OutputSpec())


def figure_preset(name: str, numerics=None) -> tuple[list[SweepRow], dict]:
    """Run a figure preset; returns (rows, sidecar metadata)."""
    cfg = figure_config(name)
    if numerics is not None:
        cfg = replace(cfg, numerics=numerics)
    meta = {"preset": name, "parameter": cfg.sweep.parameter, **_PRESETS[name][1]}
    return run_sweep(cfg), meta


# --- output ---------------------------------------------------------------

def rows_to_csv(rows: list[SweepRow]) -> str:
    """The table, None as an empty cell and a float by its repr, whose text
    is reused where the row above holds the same nonzero float (a shared
    integral)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    above = texts = [None] * len(COLUMNS)
    for row in rows:
        cells = row.cells()
        texts = [text if v == u and v and v.__class__ is float is u.__class__
                 else "" if v is None else repr(v) if isinstance(v, float) else str(v)
                 for v, u, text in zip(cells, above, texts)]
        writer.writerow(texts)
        above = cells
    return buf.getvalue()


def rows_to_json(rows: list[SweepRow], metadata: dict | None = None) -> str:
    payload = {
        "columns": list(COLUMNS),
        "rows": [row.to_record() for row in rows],
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
