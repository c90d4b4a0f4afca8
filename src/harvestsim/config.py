"""Sectioned key-value run configuration.

Sections: [detector_a], [detector_b], [scenario], [numerics], [sweep],
[output].  One table, ``_SCHEMA``, states the kind of every key, whether
it is required, and so what a config may hold; both parsing and
``dump_config`` read it.  Lengths and times accept a sigma-relative form
such as "150*sigma", resolved against [detector_a].smearing at parse
time; everything downstream works in natural units.

The text is read in one pass over its lines (``_read``), in the grammar
the README's "Configuration format" states: ``[name]`` headers, one-line
``key = value`` or ``key: value`` options, '#' and ';' comments.  An
error in it reads ``<origin>: line <n>: ...``.

Each check is made once, where it belongs.  The parser rejects what is
not a config: an unknown section or key, a missing required one, text
that does not parse as the key's kind, and a non-finite number; those
errors read ``section.key: ...``.  Whether a value is in range is checked
by the type that takes it.  The model's types (``DetectorParams``,
``SwitchingWindow``, ``Scenario``, ``QuadratureSettings``) report it as
``[section]: <Type>: ...``; this module's ``SweepSpec`` and ``OutputSpec``
name the key, ``section.key: ...``, as the parser does.  The one range
check made here is that [detector_a].smearing, the unit of every '*sigma'
length, is positive, before any length is parsed.
"""
from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

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
_COMMENT = re.compile(r"(?:^|(?<=\s))[#;]")

# the kinds of value: a number, a length or time (a number, or <number>*sigma),
# an integer, and a word (text kept as written)
_NUMBER, _LENGTH, _INTEGER, _WORD = "number", "length", "integer", "word"

_DETECTOR = {
    "coupling": (_NUMBER, False),
    "gap": (_NUMBER, True),
    "smearing": (_NUMBER, True),
    "t_on": (_LENGTH, True),
    "t_off": (_LENGTH, True),
}

# section -> key -> (kind, required), in the order dump_config writes them
_SCHEMA = {
    "detector_a": _DETECTOR,
    "detector_b": _DETECTOR,
    "scenario": {"separation": (_LENGTH, True), "position_uncertainty": (_LENGTH, False)},
    "numerics": {"tol_abs": (_NUMBER, False), "tol_rel": (_NUMBER, False),
                 "eval_budget": (_INTEGER, False)},
    "sweep": {"parameter": (_WORD, True), "from": (_LENGTH, True), "to": (_LENGTH, True),
              "points": (_INTEGER, True), "spacing": (_WORD, False)},
    "output": {"format": (_WORD, False), "path": (_WORD, False)},
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
        if self.path == "":  # no file is None; an empty key loads as None
            raise ConfigError("output.path: must not be empty")
        if self.path is not None:  # as dump_config writes it, it must load back
            try:
                read = _read(f"[output]\npath = {self.path}", "")
            except ConfigError:
                read = None
            if read != {"output": {"path": self.path}}:
                raise ConfigError(f"output.path: {self.path!r} would not load back as written")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    numerics: QuadratureSettings
    sweep: SweepSpec | None = None
    output: OutputSpec = OutputSpec()


def _parse(section: str, key: str, raw: str, sigma: float | None):
    """The value of ``section.key`` parsed from ``raw`` as the key's kind.

    A length ``<number>*sigma`` is scaled by ``sigma``; every number must
    be finite.
    """
    kind = _SCHEMA[section][key][0]
    text = raw.strip()
    if kind == _WORD:
        return text
    if kind == _INTEGER:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{section}.{key}: cannot parse integer from {raw!r}") from None
    m = _SIGMA_RE.match(text)
    factor = 1.0
    if m:
        if kind != _LENGTH:
            raise ConfigError(f"{section}.{key}: '*sigma' not allowed for this key")
        text, factor = m.group(1).strip(), sigma
    try:
        value = float(text) * factor
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse number from {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite")
    return value


def _value(given: dict, section: str, key: str, sigma: float | None):
    """The parsed value of ``section.key``, or None for an optional key not given."""
    if key in given.get(section, ()):
        return _parse(section, key, given[section][key], sigma)
    if _SCHEMA[section][key][1]:
        raise ConfigError(f"{section}.{key}: required key missing")
    return None


def _section(given: dict, section: str, sigma: float) -> dict:
    """The parsed values of the keys given in ``section``, by key."""
    values = {key: _value(given, section, key, sigma) for key in _SCHEMA[section]}
    return {key: v for key, v in values.items() if v is not None}


def _make(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ValueError from it reported as a
    ConfigError that names ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _detector(given: dict, section: str, sigma: float) -> DetectorParams:
    v = _section(given, section, sigma)
    window = _make(section, SwitchingWindow, v["t_on"], v["t_off"])
    return _make(section, DetectorParams,
                 coupling=v.get("coupling", DEFAULT_COUPLING_PER_GAP * v["gap"]),
                 gap=v["gap"], smearing=v["smearing"], window=window)


def _build(given: dict) -> RunConfig:
    for section, keys in given.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section in ("detector_a", "detector_b", "scenario"):
        if section not in given:
            raise ConfigError(f"missing section [{section}]")
    sigma = _value(given, "detector_a", "smearing", None)
    if sigma <= 0.0:
        raise ConfigError("detector_a.smearing: must be > 0")
    det_a = _detector(given, "detector_a", sigma)
    det_b = _detector(given, "detector_b", sigma)
    scenario = _make("scenario", Scenario, det_a=det_a, det_b=det_b,
                     **_section(given, "scenario", sigma))
    numerics = _make("numerics", QuadratureSettings, **_section(given, "numerics", sigma))

    sweep = None
    if "sweep" in given:
        v = _section(given, "sweep", sigma)
        # an empty optional word means its default, as an absent one does
        sweep = SweepSpec(parameter=v["parameter"], start=v["from"], stop=v["to"],
                          points=v["points"], spacing=v.get("spacing") or "linear")
    v = _section(given, "output", sigma)
    output = OutputSpec(path=v.get("path") or None, format=v.get("format") or "csv")
    return RunConfig(scenario=scenario, numerics=numerics, sweep=sweep, output=output)


def _read(text: str, origin: str) -> dict:
    """``{section: {key: raw value}}`` of a config text, in one pass over its lines."""
    given, keys, key, indent = {}, None, None, 0
    for number, line in enumerate(text.split("\n"), 1):
        if "#" in line or ";" in line:
            line = _COMMENT.split(line, 1)[0]
        body = line.strip()
        if not body:
            continue
        indent, above = len(line) - len(line.lstrip()), indent
        if key is not None and indent > above:
            raise ConfigError(f"{origin}: line {number}: a value must fit on one line")
        if body[0] == "[" and "]" in body:
            name, _, after = body[1:].rpartition("]")
            if after:
                raise ConfigError(f"{origin}: line {number}: text after the header [{name}]")
            key = None
            if name in given or name == "DEFAULT":  # DEFAULT: keys shared by every section
                raise ConfigError(f"{origin}: line {number}: section [{name}] twice or reserved")
            keys = given[name] = {}
            continue
        if keys is None:
            raise ConfigError(f"{origin}: line {number}: a line before any section")
        eq, colon = body.find("="), body.find(":")
        cut = colon if eq < 0 or 0 <= colon < eq else eq
        key = body[:cut].strip().lower()
        if cut < 0 or not key:
            raise ConfigError(f"{origin}: line {number}: expected 'key = value' or 'key: value'")
        if key in keys:
            raise ConfigError(f"{origin}: line {number}: key {name}.{key} given twice")
        keys[key] = body[cut + 1:].strip()
    return given


def loads_config(text: str, origin: str = "<string>") -> RunConfig:
    return _build(_read(text, origin))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read(), origin=str(path))


def dump_config(cfg: RunConfig) -> str:
    """Serialize to the sectioned format; load(dump(cfg)) == cfg."""
    s, sweep = cfg.scenario, cfg.sweep
    values = {
        name: {"coupling": det.coupling, "gap": det.gap, "smearing": det.smearing,
               "t_on": det.window.t_on, "t_off": det.window.t_off}
        for name, det in (("detector_a", s.det_a), ("detector_b", s.det_b))
    }
    values["scenario"] = {"separation": s.separation,
                          "position_uncertainty": s.position_uncertainty}
    values["numerics"] = dataclasses.asdict(cfg.numerics)
    values["sweep"] = None if sweep is None else {
        "parameter": sweep.parameter, "from": sweep.start, "to": sweep.stop,
        "points": sweep.points, "spacing": sweep.spacing,
    }
    values["output"] = {"format": cfg.output.format, "path": cfg.output.path}
    lines = []
    for section, keys in _SCHEMA.items():
        if values[section] is not None:  # a header, a line per key given, a blank line
            lines += [f"[{section}]"] + [f"{key} = {v if kind == _WORD else repr(v)}"
                                         for key, (kind, _) in keys.items()
                                         if (v := values[section][key]) is not None] + [""]
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_config(cfg))

