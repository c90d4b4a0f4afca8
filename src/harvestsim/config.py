"""Sectioned key-value run configuration.

Sections: [detector_a], [detector_b], [scenario], [numerics], [sweep],
[output].  Lengths and times accept a sigma-relative form such as
"150*sigma", resolved against [detector_a].smearing at parse time;
everything downstream works in natural units.  Unknown sections or keys
are errors, and every validation failure names the offending key.
"""
from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass, replace

from .detectors import DetectorParams, Scenario, SwitchingWindow
from .quadrature import QuadratureSettings

__all__ = [
    "ConfigError",
    "SweepSpec",
    "OutputSpec",
    "RunConfig",
    "load_config",
    "loads_config",
    "dump_config",
    "save_config",
]

DEFAULT_COUPLING_PER_GAP = 0.01  # coupling defaults to 0.01*gap when omitted

SWEEP_PARAMETERS = ("r", "delta", "delta_t", "gap", "duration")
_SIGMA_RE = re.compile(r"^([^*]+)\*\s*sigma$", re.IGNORECASE)

_SCHEMA = {
    "detector_a": {"coupling", "gap", "smearing", "t_on", "t_off"},
    "detector_b": {"coupling", "gap", "smearing", "t_on", "t_off"},
    "scenario": {"separation", "position_uncertainty"},
    "numerics": {"tol_abs", "tol_rel", "tail_tol", "eval_budget"},
    "sweep": {"parameter", "from", "to", "points", "spacing"},
    "output": {"path", "format"},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep.parameter: {self.parameter!r} not one of {SWEEP_PARAMETERS}"
            )
        if self.points < 2:
            raise ConfigError("sweep.points: must be >= 2")
        if not self.start < self.stop:
            raise ConfigError("sweep.from/to: requires from < to")
        if self.spacing not in ("linear", "log"):
            raise ConfigError("sweep.spacing: must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0.0:
            raise ConfigError("sweep.from: log spacing requires from > 0")


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigError("output.format: must be 'csv' or 'json'")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    numerics: QuadratureSettings
    sweep: SweepSpec | None = None
    output: OutputSpec = OutputSpec()


def _parse_number(section: str, key: str, raw: str, sigma: float | None) -> float:
    text = raw.strip()
    m = _SIGMA_RE.match(text)
    factor = 1.0
    if m:
        if sigma is None:
            raise ConfigError(f"{section}.{key}: '*sigma' not allowed for this key")
        text, factor = m.group(1).strip(), sigma
    try:
        return float(text) * factor
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse number from {raw!r}") from None


def _get(parser, section, key, *, required=True):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required:
        raise ConfigError(f"{section}.{key}: required key missing")
    return None


def _detector(parser, section: str, sigma_ref: float) -> DetectorParams:
    smearing = _parse_number(section, "smearing", _get(parser, section, "smearing"), None)
    if smearing <= 0.0:
        raise ConfigError(f"{section}.smearing: must be > 0")
    gap = _parse_number(section, "gap", _get(parser, section, "gap"), None)
    if gap <= 0.0:
        raise ConfigError(f"{section}.gap: must be > 0")
    raw_coupling = _get(parser, section, "coupling", required=False)
    coupling = (DEFAULT_COUPLING_PER_GAP * gap if raw_coupling is None
                else _parse_number(section, "coupling", raw_coupling, None))
    if coupling < 0.0:
        raise ConfigError(f"{section}.coupling: must be >= 0")
    t_on = _parse_number(section, "t_on", _get(parser, section, "t_on"), sigma_ref)
    t_off = _parse_number(section, "t_off", _get(parser, section, "t_off"), sigma_ref)
    if not t_off > t_on:
        raise ConfigError(f"{section}: window requires t_off > t_on "
                          f"(got t_on={t_on}, t_off={t_off})")
    return DetectorParams(
        coupling=coupling, gap=gap, smearing=smearing,
        window=SwitchingWindow(t_on, t_off),
    )


def _validate_schema(parser) -> None:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for required in ("detector_a", "detector_b", "scenario"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")


def _build(parser) -> RunConfig:
    _validate_schema(parser)
    sigma_ref = _parse_number(
        "detector_a", "smearing", _get(parser, "detector_a", "smearing"), None
    )
    det_a = _detector(parser, "detector_a", sigma_ref)
    det_b = _detector(parser, "detector_b", sigma_ref)

    separation = _parse_number(
        "scenario", "separation", _get(parser, "scenario", "separation"), sigma_ref
    )
    if separation <= 0.0:
        raise ConfigError("scenario.separation: must be > 0")
    raw_delta = _get(parser, "scenario", "position_uncertainty", required=False)
    delta = 0.0 if raw_delta is None else _parse_number(
        "scenario", "position_uncertainty", raw_delta, sigma_ref
    )
    if delta < 0.0:
        raise ConfigError("scenario.position_uncertainty: must be >= 0")
    scenario = Scenario(det_a=det_a, det_b=det_b,
                        separation=separation, position_uncertainty=delta)

    numerics = QuadratureSettings()
    if parser.has_section("numerics"):
        kwargs = {}
        for key in ("tol_abs", "tol_rel", "tail_tol"):
            raw = _get(parser, "numerics", key, required=False)
            if raw is not None:
                kwargs[key] = _parse_number("numerics", key, raw, None)
        raw = _get(parser, "numerics", "eval_budget", required=False)
        if raw is not None:
            try:
                kwargs["eval_budget"] = int(raw)
            except ValueError:
                raise ConfigError(
                    f"numerics.eval_budget: cannot parse integer from {raw!r}"
                ) from None
        try:
            numerics = QuadratureSettings(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[numerics]: {exc}") from None

    sweep = None
    if parser.has_section("sweep"):
        parameter = _get(parser, "sweep", "parameter")
        start = _parse_number("sweep", "from", _get(parser, "sweep", "from"), sigma_ref)
        stop = _parse_number("sweep", "to", _get(parser, "sweep", "to"), sigma_ref)
        raw_points = _get(parser, "sweep", "points")
        try:
            points = int(raw_points)
        except ValueError:
            raise ConfigError(
                f"sweep.points: cannot parse integer from {raw_points!r}"
            ) from None
        spacing = _get(parser, "sweep", "spacing", required=False) or "linear"
        sweep = SweepSpec(parameter=parameter.strip(), start=start, stop=stop,
                          points=points, spacing=spacing.strip())

    output = OutputSpec()
    if parser.has_section("output"):
        path = _get(parser, "output", "path", required=False)
        fmt = _get(parser, "output", "format", required=False) or "csv"
        output = OutputSpec(path=path, format=fmt.strip())

    return RunConfig(scenario=scenario, numerics=numerics, sweep=sweep, output=output)


def _new_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#", ";"),
        strict=True,
    )


def loads_config(text: str, origin: str = "<string>") -> RunConfig:
    parser = _new_parser()
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    return _build(parser)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read(), origin=str(path))


def dump_config(cfg: RunConfig) -> str:
    """Serialize to the sectioned format; load(dump(cfg)) == cfg."""
    parser = _new_parser()
    for name, det in (("detector_a", cfg.scenario.det_a), ("detector_b", cfg.scenario.det_b)):
        parser[name] = {
            "coupling": repr(det.coupling),
            "gap": repr(det.gap),
            "smearing": repr(det.smearing),
            "t_on": repr(det.window.t_on),
            "t_off": repr(det.window.t_off),
        }
    parser["scenario"] = {
        "separation": repr(cfg.scenario.separation),
        "position_uncertainty": repr(cfg.scenario.position_uncertainty),
    }
    parser["numerics"] = {
        "tol_abs": repr(cfg.numerics.tol_abs),
        "tol_rel": repr(cfg.numerics.tol_rel),
        "tail_tol": repr(cfg.numerics.tail_tol),
        "eval_budget": str(cfg.numerics.eval_budget),
    }
    if cfg.sweep is not None:
        parser["sweep"] = {
            "parameter": cfg.sweep.parameter,
            "from": repr(cfg.sweep.start),
            "to": repr(cfg.sweep.stop),
            "points": str(cfg.sweep.points),
            "spacing": cfg.sweep.spacing,
        }
    out = {"format": cfg.output.format}
    if cfg.output.path is not None:
        out["path"] = cfg.output.path
    parser["output"] = out
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_config(cfg))


def with_numerics(cfg: RunConfig, **overrides) -> RunConfig:
    """Return a copy with selected numerics fields replaced (CLI flags)."""
    return replace(cfg, numerics=replace(cfg.numerics, **overrides))
