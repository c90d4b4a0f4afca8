import csv
import dataclasses
import io
import json
import math
import re
import textwrap
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import ledger
import oracles
from harvestsim import config, core, quadrature
from harvestsim.cli import main
from harvestsim.config import (
    ConfigError,
    OutputSpec,
    dump_config,
    load_config,
    loads_config,
    save_config,
)
from harvestsim.core import evaluate_scenario
from harvestsim.quadrature import ConvergenceFailure, QuadratureSettings
from harvestsim.sweep import (
    COLUMNS,
    FIGURE_NAMES,
    SweepRow,
    _apply_parameter,
    figure_config,
    figure_preset,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    sweep_values,
)

FIG2_CONFIG = textwrap.dedent("""\
    [detector_a]
    gap = 1.0
    smearing = 0.001
    t_on = 0
    t_off = 100*sigma

    [detector_b]
    gap = 1.0
    smearing = 0.001
    t_on = 150*sigma
    t_off = 250*sigma

    [scenario]
    separation = 150*sigma
    """)

# the cancelling delta sweep the CI workflow runs through the installed command
CANCEL_CONFIG = textwrap.dedent("""\
    [detector_a]
    gap = 0.5
    coupling = 0.05
    smearing = 0.1
    t_on = 0
    t_off = 10*sigma

    [detector_b]
    gap = 2.0
    coupling = 0.05
    smearing = 0.1
    t_on = 20*sigma
    t_off = 30*sigma

    [scenario]
    separation = 5*sigma

    [sweep]
    parameter = delta
    from = 7*sigma
    to = 10.5*sigma
    points = 40
    """)


ROUND_TRIP_SWEEP = textwrap.dedent("""\
    [sweep]
    parameter = delta
    from = 0.0015
    to = 15.0
    points = 41
    spacing = log
    """)

# with a sweep, and with every [numerics] key off its default and an [output]
# with a path
ROUND_TRIP_CONFIGS = (FIG2_CONFIG + ROUND_TRIP_SWEEP,
                      FIG2_CONFIG + ROUND_TRIP_SWEEP + textwrap.dedent("""\
                          [numerics]
                          tol_abs = 3e-11
                          tol_rel = 2e-8
                          eval_budget = 50000

                          [output]
                          path = tables/delta.json
                          format = json
                          """))


def configparser_dump(cfg):
    """``dump_config(cfg)`` as configparser writes it: each field of ``cfg``
    given, numbers by ``repr`` and words as they are."""
    s, sweep = cfg.scenario, cfg.sweep
    sections = {name: {"coupling": repr(d.coupling), "gap": repr(d.gap),
                       "smearing": repr(d.smearing), "t_on": repr(d.window.t_on),
                       "t_off": repr(d.window.t_off)}
                for name, d in (("detector_a", s.det_a), ("detector_b", s.det_b))}
    sections["scenario"] = {"separation": repr(s.separation),
                            "position_uncertainty": repr(s.position_uncertainty)}
    sections["numerics"] = {k: repr(v) for k, v in dataclasses.asdict(cfg.numerics).items()}
    if sweep is not None:
        sections["sweep"] = {"parameter": sweep.parameter, "from": repr(sweep.start),
                             "to": repr(sweep.stop), "points": repr(sweep.points),
                             "spacing": sweep.spacing}
    sections["output"] = {"format": cfg.output.format}
    if cfg.output.path is not None:
        sections["output"]["path"] = cfg.output.path
    return oracles.config_text(sections)


class TestLoadConfig:
    def test_minimal_reference_config(self):
        cfg = loads_config(FIG2_CONFIG)
        s = cfg.scenario
        assert s.det_a.gap == 1.0
        assert s.det_a.smearing == 0.001
        assert s.det_a.window.t_on == 0.0
        assert s.det_a.window.t_off == pytest.approx(0.1)
        assert s.det_b.window.t_on == pytest.approx(0.15)
        assert s.det_b.window.t_off == pytest.approx(0.25)
        assert s.separation == pytest.approx(0.15)
        assert s.position_uncertainty == 0.0
        # coupling defaults to 0.01 * gap
        assert s.det_a.coupling == pytest.approx(0.01)

    def test_sigma_suffix_conversion(self):
        cfg = loads_config(FIG2_CONFIG.replace("150*sigma", "150 * sigma", 1))
        assert cfg.scenario.det_b.window.t_on == pytest.approx(0.15)

    def test_reversed_window_names_the_section(self):
        bad = FIG2_CONFIG.replace("t_off = 250*sigma", "t_off = 100*sigma")
        with pytest.raises(ConfigError, match="detector_b"):
            loads_config(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="detector_a.potato"):
            loads_config(FIG2_CONFIG.replace("gap = 1.0", "gap = 1.0\npotato = 1", 1))

    def test_tail_level_is_not_a_key(self):
        # the Gaussian tail cut is fixed below double precision, not configured
        with pytest.raises(ConfigError, match=r"^unknown key numerics\.tail_tol$"):
            loads_config(FIG2_CONFIG + "\n[numerics]\ntail_tol = 1e-18\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="widgets"):
            loads_config(FIG2_CONFIG + "\n[widgets]\nx = 1\n")

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            loads_config(FIG2_CONFIG.split("[scenario]")[0])

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="detector_a.gap"):
            loads_config(FIG2_CONFIG.replace("gap = 1.0\n", "", 1))

    def test_bad_number_named(self):
        with pytest.raises(ConfigError, match="separation"):
            loads_config(FIG2_CONFIG.replace("separation = 150*sigma",
                                             "separation = oops"))

    def test_sweep_section(self):
        cfg = loads_config(FIG2_CONFIG + textwrap.dedent("""\
            [sweep]
            parameter = r
            from = 10*sigma
            to = 400*sigma
            points = 20
            spacing = linear
            """))
        assert cfg.sweep.parameter == "r"
        assert cfg.sweep.start == pytest.approx(0.01)
        assert cfg.sweep.stop == pytest.approx(0.4)
        assert cfg.sweep.points == 20

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="points"):
            loads_config(FIG2_CONFIG + "[sweep]\nparameter = r\nfrom = 1\nto = 2\npoints = 1\n")
        with pytest.raises(ConfigError, match="from"):
            loads_config(FIG2_CONFIG + "[sweep]\nparameter = r\nfrom = 2\nto = 1\npoints = 5\n")
        with pytest.raises(ConfigError, match="parameter"):
            loads_config(FIG2_CONFIG + "[sweep]\nparameter = bogus\nfrom = 1\nto = 2\npoints = 5\n")

    def test_numerics_and_output_sections(self):
        cfg = loads_config(FIG2_CONFIG + textwrap.dedent("""\
            [numerics]
            tol_abs = 1e-10
            eval_budget = 50000

            [output]
            path = out.csv
            format = csv
            """))
        assert cfg.numerics.tol_abs == 1e-10
        assert cfg.numerics.eval_budget == 50000
        assert cfg.numerics.tol_rel == 1e-9  # default preserved
        assert cfg.output.path == "out.csv"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            loads_config(FIG2_CONFIG.replace("gap = 1.0", "gap = 1.0\ngap = 2.0", 1))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.ini"
        for text in ROUND_TRIP_CONFIGS:
            cfg = loads_config(text)
            save_config(cfg, path)
            again = load_config(path)
            assert again == cfg
        assert cfg.numerics == QuadratureSettings(3e-11, 2e-8, 50000)
        assert cfg.output == OutputSpec("tables/delta.json", "json")

    def test_round_trip_without_sweep(self, tmp_path):
        cfg = loads_config(FIG2_CONFIG)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("text", (FIG2_CONFIG,) + ROUND_TRIP_CONFIGS + ("fig3",))
    def test_dump_is_what_configparser_writes(self, text):
        # byte for byte, on the round-trip configs and fig3's preset
        cfg = figure_config(text) if text == "fig3" else loads_config(text)
        assert dump_config(cfg) == configparser_dump(cfg)


README_CONFIG = (Path(__file__).parents[1] / "README.md").read_text(
    encoding="utf-8").split("```ini\n")[1].split("```")[0]


def generated_config(rng):
    """A config text drawn from the format's grammar: sections in any order,
    keys in any case and order, '=' or ':' with any spacing, full-line and
    inline comments, blank lines, the whole text indented or not, and '\\n'
    or '\\r\\n' line ends."""
    pad = ["", " ", "  ", "\t"]
    lines = []

    def filler():
        for _ in range(rng.integers(3) if rng.random() < 0.4 else 0):
            lines.append(rng.choice(["", "   ", "# note", "; note", "  # note = 1", "\t; [x]"]))

    def comment():
        return rng.choice(["", "", "  # note", " ; note", "\t# note: 2"])

    filler()
    names = ["detector_a", "detector_b", "Scenario", "numerics", "sweep", "output", "x y"]
    for name in rng.permutation(names)[:rng.integers(1, len(names) + 1)]:
        lines.append(f"[{name}]{comment()}")
        filler()
        keys = ["gap", "t_on", "t off", "from", "x1", "path", "Points"]
        for key in rng.permutation(keys)[:rng.integers(len(keys) + 1)]:
            shown = "".join(c.upper() if rng.random() < 0.3 else c for c in key)
            value = rng.choice(["1.0", "150*sigma", "-1e-9", "", "a b", "a;b", "x#y",
                                "C:/t=1.csv", "log"])
            delimiter = f"{rng.choice(pad)}{rng.choice(['=', ':'])}{rng.choice(pad)}"
            lines.append(f"{shown}{delimiter}{value}{comment()}")
            filler()
    indent = rng.choice(["", "  "]) if rng.random() < 0.2 else ""
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(indent + line for line in lines) + rng.choice([end, ""])


class TestConfigReader:
    """The format's one-pass reader against configparser as configured for
    it: the same sections on what both accept, an error where both reject."""

    def test_reads_as_configparser_does(self):
        rng = np.random.default_rng(34)
        for _ in range(1500):
            text = generated_config(rng)
            assert config._read(text, "<t>") == oracles.config_sections(text), text

    def test_readme_example(self):
        assert config._read(README_CONFIG, "<t>") == oracles.config_sections(README_CONFIG)
        assert loads_config(README_CONFIG).sweep.points == 200

    @pytest.mark.parametrize("text, line, reason", [
        ("[a]\nx = 1\n\n[a]\ny = 2\n", 4, r"section \[a\] twice or reserved"),
        ("[a]\nx = 1\nX: 2\n", 3, r"key a\.x given twice"),
        ("# head\nx = 1\n[a]\n", 2, "a line before any section"),
        ("[a]\nx = 1\njust words ; x = 2\n", 3, "expected 'key = value' or 'key: value'"),
        ("[a]\n= 1\n", 2, "expected 'key = value' or 'key: value'"),
    ])
    def test_both_reject(self, text, line, reason):
        with pytest.raises(ConfigError, match=rf"^<t>: line {line}: {reason}$"):
            config._read(text, "<t>")
        with pytest.raises(oracles.configparser.Error):
            oracles.config_sections(text)

    @pytest.mark.parametrize("text, line, reason", [
        ("[a]\nx = 1\n  2\n", 3, "a value must fit on one line"),
        ("[a]\nx = 1\n\n    [b]\n", 4, "a value must fit on one line"),
        ("[DEFAULT]\nx = 1\n[a]\n", 1, r"section \[DEFAULT\] twice or reserved"),
        ("[a] x\nk = 1\n", 1, r"text after the header \[a\]"),
        ("[a]\nk = 1\n[b] x\n", 3, r"text after the header \[b\]"),
    ])
    def test_rejects_what_configparser_accepted(self, text, line, reason):
        # multi-line values, [DEFAULT]'s keys shared by every section, and
        # text after a header's ']'
        oracles.config_sections(text)
        with pytest.raises(ConfigError, match=rf"^<t>: line {line}: {reason}$"):
            config._read(text, "<t>")

    def test_comment_starts_at_the_first_prefix_after_whitespace(self):
        # configparser let the '#' end this value, found before the ' ;' that
        # follows a ';' inside a word
        text = "[a]\nk = a;b ; c # d\n"
        assert oracles.config_sections(text) == {"a": {"k": "a;b ; c"}}
        assert config._read(text, "<t>") == {"a": {"k": "a;b"}}

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(FIG2_CONFIG + "[scenario]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line 15: "):
            load_config(path)

    def test_same_config_in_any_spelling(self):
        plain = loads_config(FIG2_CONFIG + "position_uncertainty = 2*sigma\n")
        spelled = re.sub(r"^(\w+) = (.*)$", lambda m: f"{m[1].upper()}:{m[2]}  ; was {m[1]}",
                         FIG2_CONFIG + "position_uncertainty = 2*sigma\n", flags=re.M)
        assert spelled != FIG2_CONFIG and loads_config("# spelled\n" + spelled) == plain


BOUNDARY_CONFIG = FIG2_CONFIG + textwrap.dedent("""\
    [numerics]
    tol_rel = 1e-9

    [sweep]
    parameter = r
    from = 100*sigma
    to = 300*sigma
    points = 3
    """)


def with_value(text, section, key, value):
    """``text`` with ``section.key``, given in it, set to ``value``."""
    head, header, rest = text.partition(f"[{section}]\n")
    return head + header + re.sub(rf"^{key} = .*$", f"{key} = {value}", rest,
                                  count=1, flags=re.M)


class TestInputBoundary:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key, form", [
        ("detector_a", "gap", "{}"),
        ("detector_b", "t_off", "{}"),
        ("detector_b", "t_off", "{}*sigma"),
        ("scenario", "separation", "{}"),
        ("sweep", "to", "{}"),
        ("numerics", "tol_rel", "{}"),
    ])
    def test_non_finite_number_names_its_key(self, section, key, form, value):
        text = with_value(BOUNDARY_CONFIG, section, key, form.format(value))
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be finite$"):
            loads_config(text)

    @pytest.mark.parametrize("section, key, value, message", [
        ("detector_a", "smearing", "-0.001", r"^detector_a\.smearing: must be > 0$"),
        ("detector_b", "gap", "0", r"^\[detector_b\]: DetectorParams: gap"),
        ("detector_b", "smearing", "-0.001", r"^\[detector_b\]: DetectorParams: smearing"),
        ("scenario", "separation", "-1", r"^\[scenario\]: Scenario: separation"),
        ("numerics", "tol_rel", "0", r"^\[numerics\]: QuadratureSettings: tolerances"),
    ])
    def test_out_of_range_value_names_its_section(self, section, key, value, message):
        # range checks are made by the type that takes the value
        with pytest.raises(ConfigError, match=message):
            loads_config(with_value(BOUNDARY_CONFIG, section, key, value))

    @pytest.mark.parametrize("old, new, message", [
        ("points = 3", "points = 3\nspacing = cubic",
         r"^sweep\.spacing: must be 'linear' or 'log'$"),
        ("from = 100*sigma", "from = 0\nspacing = log",
         r"^sweep\.from: log spacing requires from > 0$"),
        ("points = 3", "points = 3\n\n[output]\nformat = xml",
         r"^output\.format: must be 'csv' or 'json'$"),
        ("points = 3", "points = 4.5", r"^sweep\.points: cannot parse integer from '4\.5'$"),
        ("gap = 1.0", "gap = 2*sigma", r"^detector_a\.gap: '\*sigma' not allowed for this key$"),
    ], ids=["spacing", "log-from-zero", "format", "points", "sigma-on-a-number"])
    def test_sweep_and_output_errors_name_their_key(self, old, new, message):
        # SweepSpec and OutputSpec name the key, as the parser does
        with pytest.raises(ConfigError, match=message):
            loads_config(BOUNDARY_CONFIG.replace(old, new, 1))

    def test_empty_optional_words_mean_defaults(self):
        cfg = loads_config(BOUNDARY_CONFIG + "spacing =\n\n[output]\nformat =\n")
        assert cfg.sweep.spacing == "linear"
        assert cfg.output == OutputSpec(path=None, format="csv")

    def test_empty_output_path_means_no_file(self):
        cfg = loads_config(BOUNDARY_CONFIG + "\n[output]\npath =\n")
        assert cfg.output == OutputSpec(path=None, format="csv")
        with pytest.raises(ConfigError, match="output.path"):
            OutputSpec(path="")

    @pytest.mark.parametrize("path, loads", [
        ("out ;x.csv", "out"), (" lead.csv", "lead.csv"), ("trail.csv ", "trail.csv"),
        ("#x.csv", ""), ("a\nb.csv", None),
    ], ids=["comment", "leading-space", "trailing-space", "comment-only", "newline"])
    def test_output_path_must_load_back(self, path, loads):
        # dump_config writes 'path = <path>', which would load cut at a
        # comment, stripped, empty (no file) or not at all
        text = f"[output]\npath = {path}\n"
        if loads is None:
            with pytest.raises(ConfigError, match="^<t>: line 3: expected 'key = value'"):
                config._read(text, "<t>")
        else:
            assert config._read(text, "<t>") == {"output": {"path": loads}}
        message = rf"^output\.path: {re.escape(repr(path))} would not load back as written$"
        with pytest.raises(ConfigError, match=message):
            OutputSpec(path=path)

    @pytest.mark.parametrize("path", ["a;b.csv", "tab\t.csv", "C:/t=1.csv", "[x] y.csv"])
    def test_output_path_round_trips(self, path):
        cfg = dataclasses.replace(figure_config("fig3"), output=OutputSpec(path=path))
        assert loads_config(dump_config(cfg)) == cfg

    def test_loaded_path_that_would_not_load_back_rejected(self):
        # 'path=#x.csv' reads '#x.csv', a comment once written as 'path = #x.csv'
        with pytest.raises(ConfigError, match=r"^output\.path: '#x\.csv' would not load back"):
            loads_config(BOUNDARY_CONFIG + "\n[output]\npath=#x.csv\n")


class TestSweepRunner:
    def small_sweep_cfg(self, parameter="r", extra=""):
        sweep = textwrap.dedent(f"""\
            [sweep]
            parameter = {parameter}
            from = 100*sigma
            to = 300*sigma
            points = 3
            """)
        return loads_config(FIG2_CONFIG + sweep + extra)

    def test_rows_and_columns(self):
        rows = run_sweep(self.small_sweep_cfg())
        assert len(rows) == 3
        rec = rows[0].to_record()
        assert tuple(rec.keys()) == COLUMNS
        assert rec["status"] == "ok"
        assert rec["i_aa"] > 0.0

    def test_config_without_sweep_is_rejected(self):
        with pytest.raises(ValueError, match=r"^run_sweep: config has no \[sweep\] section$"):
            run_sweep(loads_config(FIG2_CONFIG))

    def test_zero_coupling_rows(self):
        cfg = self.small_sweep_cfg(extra="")
        text = FIG2_CONFIG.replace("[detector_a]\ngap",
                                   "[detector_a]\ncoupling = 0\ngap")
        text = text.replace("[detector_b]\ngap",
                            "[detector_b]\ncoupling = 0\ngap")
        cfg = loads_config(text + "[sweep]\nparameter = r\nfrom = 0.1\nto = 0.3\npoints = 3\n")
        for row in run_sweep(cfg):
            rec = row.to_record()
            assert rec["status"] == "ok"
            assert rec["i_aa"] == 0.0 and rec["i_bb"] == 0.0
            assert rec["j_abs"] == 0.0 and rec["negativity"] == 0.0

    def test_partial_failure_marks_row(self):
        # unreachable tolerance plus a tiny budget fails quadrature without
        # aborting the sweep
        cfg = self.small_sweep_cfg(
            extra="[numerics]\neval_budget = 200\ntol_abs = 1e-300\ntol_rel = 1e-16\n"
        )
        rows = run_sweep(cfg)
        assert len(rows) == 3
        assert all(r.status.startswith("ConvergenceFailure") for r in rows)
        assert all(r.report is None for r in rows)
        rec = rows[0].to_record()
        assert rec["i_aa"] is None

    def test_delta_sweep_has_ratio(self):
        cfg = loads_config(FIG2_CONFIG + textwrap.dedent("""\
            [sweep]
            parameter = delta
            from = 0.015
            to = 0.15
            points = 2
            spacing = log
            """))
        rows = run_sweep(cfg)
        for row in rows:
            rec = row.to_record()
            assert rec["status"] == "ok"
            assert 0.0 < rec["ratio_r"] <= 1.0
            assert rec["j_smeared_abs"] == pytest.approx(
                rec["ratio_r"] * rec["j_abs"], rel=1e-12)

    def test_gap_and_duration_sweeps(self):
        for parameter, lo, hi in (("gap", 0.01, 0.1), ("duration", 0.05, 0.15)):
            cfg = loads_config(FIG2_CONFIG + textwrap.dedent(f"""\
                [sweep]
                parameter = {parameter}
                from = {lo}
                to = {hi}
                points = 2
                """))
            rows = run_sweep(cfg)
            assert all(r.status == "ok" for r in rows)

    def test_delta_t_sweep(self):
        cfg = loads_config(FIG2_CONFIG + textwrap.dedent("""\
            [sweep]
            parameter = delta_t
            from = 0.05
            to = 0.2
            points = 2
            """))
        rows = run_sweep(cfg)
        recs = [r.to_record() for r in rows]
        assert all(r["status"] == "ok" for r in recs)
        assert recs[0]["j_smeared_abs"] > recs[1]["j_smeared_abs"]

    def test_csv_is_what_the_csv_writer_writes(self):
        # byte for byte the csv module's writer fed each cell, None as "" and
        # a float by its repr: a float every row shares, zeros of both signs
        # and nans one above the other, an int above an equal float, a failed
        # row, and statuses to quote
        rows = run_sweep(self.small_sweep_cfg("delta"))
        rep = rows[0].report
        rows += [dataclasses.replace(rows[0], report=dataclasses.replace(rep, negativity=v,
                                                                         negativity_raw=v))
                 for v in (-0.0, 0.0, -0.0, math.nan, math.nan, 1e-300, 1e-300)]
        # an int, then floats equal to it, the last a float subclass
        rows += [dataclasses.replace(rows[0], value=v) for v in (1, 1.0, np.float64(1.0))]
        rows += [dataclasses.replace(rows[1], report=None, status=status)
                 for status in ("ValueError: a, b", 'ValueError: "a"', "ValueError: a\nb",
                                "ValueError: a\rb", "ok")]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            rec = row.to_record()
            writer.writerow(["" if rec[c] is None else repr(rec[c]) if isinstance(rec[c], float)
                             else str(rec[c]) for c in COLUMNS])
        assert rows_to_csv(rows) == buf.getvalue()

    def test_csv_deterministic(self):
        cfg = self.small_sweep_cfg()
        a = rows_to_csv(run_sweep(cfg))
        b = rows_to_csv(run_sweep(cfg))
        assert a == b
        assert a.startswith(",".join(COLUMNS))
        assert "\r" not in a


def per_row_csv(cfg):
    """The sweep's table built from one ``evaluate_scenario`` call per row."""
    parameter = cfg.sweep.parameter
    rows = []
    for v in sweep_values(cfg.sweep):
        value = float(v)
        try:
            s, time_smear = _apply_parameter(cfg.scenario, parameter, value)
            report = evaluate_scenario(s, cfg.numerics, time_smear=time_smear)
            rows.append(SweepRow(parameter, value, report, "ok"))
        except (ConvergenceFailure, ValueError) as exc:
            rows.append(SweepRow(parameter, value, None, f"{type(exc).__name__}: {exc}"))
    return rows_to_csv(rows)


def sweep_cfg(parameter, lo, hi, points, spacing="linear", uncertainty="0"):
    return loads_config(FIG2_CONFIG + textwrap.dedent(f"""\
        position_uncertainty = {uncertainty}

        [sweep]
        parameter = {parameter}
        from = {lo}
        to = {hi}
        points = {points}
        spacing = {spacing}
        """))


BATCHED_CONFIGS = [pytest.param(cfg, id=name) for name, cfg in [
    ("fig3", figure_config("fig3")),
    ("fig2a", figure_config("fig2a")),
    # x = r/delta crosses 9.5 at r = 95 sigma: both spatial routes
    ("r-delta10", sweep_cfg("r", "10*sigma", "400*sigma", 40, uncertainty="10*sigma")),
    ("delta_t", sweep_cfg("delta_t", "1*sigma", "40*sigma", 40)),
    ("gap", sweep_cfg("gap", "10*sigma", "100*sigma", 20)),
    # a local term, a C and a pair per duration, in groups of their own
    ("duration", sweep_cfg("duration", "10*sigma", "1000*sigma", 12, "log",
                           uncertainty="30*sigma")),
    # every row fails, with the message of the smear that rejects it
    ("delta_t-rejected", sweep_cfg("delta_t", "2*sigma", "10*sigma", 3, uncertainty="3*sigma")),
    # stacked pairs whose K(v; r) is its series in r, every node past the
    # moments' split (|v| >= 50 sigma here), then at r up to 0.01 sigma
    ("r-tiny", sweep_cfg("r", "1e-6*sigma", "1e-4*sigma", 12, "log")),
    ("r-limit-switch", sweep_cfg("r", "1e-6*sigma", "1e-2*sigma", 12, "log")),
    # r across the series' switch at 0.1 sigma: pairs of both kernel forms,
    # one lockstep group each
    ("r-series-switch", sweep_cfg("r", "1e-3*sigma", "10*sigma", 12, "log")),
    # A is one object in every row while B's window moves through an
    # overlap with it: a remainder group and a C group mix one value
    # with columns, and the overlap flag of both orderings changes there
    ("gap-smeared", sweep_cfg("gap", "-90*sigma", "90*sigma", 13, uncertainty="30*sigma")),
]]


class TestBatchedSweep:
    """A sweep is one batched evaluation; it must write the same table as
    evaluating its rows one by one."""

    @pytest.mark.parametrize("parameter, lo, hi, points, spacing", [
        ("r", "100*sigma", "300*sigma", 3, "linear"),
        ("delta", "15*sigma", "1500*sigma", 3, "log"),
        ("gap", "10*sigma", "100*sigma", 2, "linear"),
    ])
    def test_matches_per_row_evaluation(self, parameter, lo, hi, points, spacing):
        cfg = sweep_cfg(parameter, lo, hi, points, spacing)
        assert rows_to_csv(run_sweep(cfg)) == per_row_csv(cfg)

    @pytest.mark.parametrize("cfg", BATCHED_CONFIGS)
    def test_sweep_bit_identical_to_single_points(self, cfg):
        self.assert_rows_as_alone(self.sweep_rows(cfg), cfg.numerics)

    @pytest.mark.parametrize("cfg", BATCHED_CONFIGS)
    def test_group_first_partitions_match_loop_reference(self, cfg, monkeypatch):
        # every quadrature of the sweep, a group of one included: the panels
        # of its first GK15 call, member by member, are bit for bit the edges
        # of the loop form
        groups, together, gk15 = [], quadrature.integrate_lockstep, quadrature._gk15

        def recorded(specs, evaluate, settings):
            groups.append((specs, []))
            return together(specs, evaluate, settings)

        def first_call(evaluate, a, b, owner):
            calls = groups[-1][1]
            if not calls:
                calls.append((a, b, np.zeros(a.size, dtype=np.intp) if owner is None else owner))
            return gk15(evaluate, a, b, owner)

        for module in (core, quadrature):
            monkeypatch.setattr(module, "integrate_lockstep", recorded)
        monkeypatch.setattr(quadrature, "_gk15", first_call)
        results = core.evaluate_scenarios(self.sweep_rows(cfg), cfg.numerics)
        # only the sweep whose every row its smear rejects has no group
        assert bool(groups) == any(not isinstance(res, Exception) for res in results)
        for specs, calls in groups:
            ((a, b, owner),) = calls
            for i, spec in enumerate(specs):
                edges = oracles.initial_panels_reference(spec)
                assert a[owner == i].tobytes() == edges[:-1].tobytes()
                assert b[owner == i].tobytes() == edges[1:].tobytes()

    @staticmethod
    def sweep_rows(cfg):
        # the tiny-r sweeps build detectors closer than 5 sigma on purpose
        sweep, sigma = cfg.sweep, cfg.scenario.det_a.smearing
        overlap = sweep.parameter == "r" and sweep.start < 5.0 * sigma
        with pytest.warns(UserWarning, match="detector overlap") if overlap else nullcontext():
            return [_apply_parameter(cfg.scenario, sweep.parameter, float(v))
                    for v in sweep_values(sweep)]

    @staticmethod
    def assert_rows_as_alone(rows, numerics):
        """The rows of one call share their integrals and evaluate them
        together; every field of every report, the error estimates
        included, and every failure must be what the row gives alone.
        Returns what the call gave."""
        together = core.evaluate_scenarios(rows, numerics)
        for (s, time_smear), got in zip(rows, together, strict=True):
            try:
                alone = evaluate_scenario(s, numerics, time_smear=time_smear)
            except core.ROW_ERRORS as exc:
                alone = exc
            if isinstance(alone, Exception):
                assert (type(got), str(got)) == (type(alone), str(alone))
            else:
                assert got == alone
        return together

    def test_row_whose_partition_cannot_be_built_fails_alone(self):
        # a window of 1e30 asks for about 1.6e29 first panels, more than an
        # int64 counts, and one of 1e306 is more than a float's range of
        # sigma wide; each failure is its own row's, not its group's
        cfg = sweep_cfg("duration", "0.1", "0.2", 2)
        rows = [_apply_parameter(cfg.scenario, "duration", d) for d in (0.1, 1e30, 1e306, 0.2)]
        first, failed, overflowed, last = self.assert_rows_as_alone(rows, cfg.numerics)
        assert type(failed) is ValueError and "does not fit an int64" in str(failed)
        assert type(overflowed) is ValueError and "ratio overflows a float" in str(overflowed)
        assert not isinstance(first, Exception) and not isinstance(last, Exception)

    def test_row_whose_partition_numpy_cannot_allocate_fails_alone(self):
        # a window of 3.2e14 asks for 5.0e13 first panels of its local term,
        # whose 400 TB index array numpy refuses at once, more than a 48-bit
        # address space holds; that row fails alone, naming the count
        cfg = sweep_cfg("duration", "0.1", "0.2", 2)
        rows = [_apply_parameter(cfg.scenario, "duration", d) for d in (0.1, 3.2e14, 0.2)]
        first, failed, last = self.assert_rows_as_alone(rows, cfg.numerics)
        assert type(failed) is ValueError and str(failed) == (
            "integrate_radial: a first partition of 5.09e+13 panels does not fit in memory")
        assert not isinstance(first, Exception) and not isinstance(last, Exception)

    def test_cancelling_sweep_integrates_a_part_again(self, monkeypatch):
        # on some rows the remainder and C's term cancel, so that the
        # remainder runs again alone to its share of the sum's tolerance
        # (``core._sum_request``); every row converges
        again = []
        original = core._single

        def recorded(member, settings):
            again.append(member.kind)
            return original(member, settings)

        monkeypatch.setattr(core, "_single", recorded)
        rows = run_sweep(loads_config(CANCEL_CONFIG))
        assert len(rows) == 40 and all(r.status == "ok" for r in rows)
        assert again and set(again) == {"remainder"}

    def test_delta_t_mixing_methods_matches_per_row_evaluation(self):
        # the windows are 50 sigma apart: offsets of 2 sigma keep them apart,
        # offsets of 50 sigma reach an overlap; one method covers both
        cfg = sweep_cfg("delta_t", "2*sigma", "50*sigma", 2)
        rows = run_sweep(cfg)
        assert [r.report.smearing_method for r in rows] == [
            "closed-form-time", "closed-form-time"]
        assert rows_to_csv(rows) == per_row_csv(cfg)

    def test_delta_t_sweep_keeps_position_uncertainty(self):
        # a clock sweep must not drop a configured spatial uncertainty; the
        # two smears are exclusive, so every such row fails and says why
        rows = run_sweep(sweep_cfg("delta_t", "2*sigma", "10*sigma", 3,
                                   uncertainty="3*sigma"))
        assert [r.status for r in rows] == [
            "ValueError: clock-offset smear: spatial and temporal smearing are exclusive"] * 3
        assert all(r.report is None for r in rows)

    @staticmethod
    def record_evaluations(monkeypatch):
        # of every integral, whether it runs alone or in a lockstep group
        counts = []
        alone, together = core.integrate_radial, core.integrate_lockstep

        def counted(spec, settings):
            res = alone(spec, settings)
            counts.append(res.evaluations)
            return res

        def counted_group(specs, evaluate, settings):
            results = together(specs, evaluate, settings)
            counts.extend(res.evaluations for res in results)
            return results

        monkeypatch.setattr(core, "integrate_radial", counted)
        monkeypatch.setattr(core, "integrate_lockstep", counted_group)
        return counts

    @staticmethod
    def record_rounds(monkeypatch):
        # [kind, rounds] of each group: a round is one GK15 pass over the
        # pending panels of all its members, the first partition included
        groups = []
        run_group, gk15 = core._run_group, quadrature._gk15

        def counted_group(members, settings):
            groups.append([members[0].kind, 0])
            return run_group(members, settings)

        def counted(*args):
            groups[-1][1] += 1
            return gk15(*args)

        monkeypatch.setattr(core, "_run_group", counted_group)
        monkeypatch.setattr(quadrature, "_gk15", counted)
        return groups

    def test_fig3_quadrature_cost(self, monkeypatch):
        # pins the preset's total evaluations across all of its integrals:
        # one I_nn, one I_AB/J pass, C, and per row a remainder below
        # x = r0/delta = 9.5 or the time-domain series from there on; every
        # group but the remainder's ends on its first partition
        counts, groups = self.record_evaluations(monkeypatch), self.record_rounds(monkeypatch)
        rows = run_sweep(figure_config("fig3"))
        assert len(rows) == 41 and all(r.status == "ok" for r in rows)
        assert len(counts) == 44
        assert sum(counts) <= 8_745
        rounds = dict(groups)
        assert len(groups) == 5 and rounds.pop("remainder") <= 2
        assert rounds == {"series": 1, "i_nn": 1, "pair": 1, "c": 1}

    def test_fig2a_quadrature_cost(self, monkeypatch):
        # one I_nn, then one I_AB/J pass per row, each group in one round
        counts, groups = self.record_evaluations(monkeypatch), self.record_rounds(monkeypatch)
        rows = run_sweep(figure_config("fig2a"))
        assert len(rows) == 200 and all(r.status == "ok" for r in rows)
        assert len(counts) == 201
        assert sum(counts) <= 40_725
        assert sorted(groups) == [["i_nn", 1], ["pair", 1]]

    def test_local_term_computed_once_per_duration(self, monkeypatch):
        # I_nn reads the coupling, gap, smearing and window duration, not where
        # the window sits.  Moving B's window rounds its duration to one of a
        # few neighbouring floats, within a few ulps: I_nn is computed once
        calls = []
        original = core._i_nn_member

        def recorded(det):
            calls.append(det.window.duration)
            return original(det)

        monkeypatch.setattr(core, "_i_nn_member", recorded)
        cfg = sweep_cfg("gap", "10*sigma", "100*sigma", 20)
        rows = run_sweep(cfg)
        assert len(rows) == 20 and all(r.status == "ok" for r in rows)
        assert len(calls) == 1
        assert rows_to_csv(rows) == per_row_csv(cfg)

    def test_zero_width_row_fails_alone(self):
        rows = run_sweep(sweep_cfg("delta_t", "0", "4*sigma", 3))
        assert rows[0].status == "ValueError: clock-offset smear: delta_t must be > 0"
        assert rows[0].report is None
        assert [r.status for r in rows[1:]] == ["ok", "ok"]

    @staticmethod
    def record_c_calls(monkeypatch):
        # C, the separation- and uncertainty-independent term of the spatial
        # smear, is shared by every row of the detector pair
        calls = []
        original = core._time_member

        def recorded(kind, da, db, *args, **kwargs):
            if kind == "c":
                calls.append((da, db))
            return original(kind, da, db, *args, **kwargs)

        monkeypatch.setattr(core, "_time_member", recorded)
        return calls

    def test_smear_constant_computed_once_per_delta_sweep(self, monkeypatch):
        calls = self.record_c_calls(monkeypatch)
        rows = run_sweep(figure_config("fig3"))
        assert len(rows) == 41 and all(r.status == "ok" for r in rows)
        assert len(calls) == 1

    def test_remainder_windows_stack_as_one_value(self, monkeypatch):
        # fig3's 30 remainder rows share one detector pair, so each of the
        # windows and gaps its kernel Jhat reads stays one value when the
        # group is stacked, not a column with one entry per node's member
        groups = []
        original = core._run_group

        def recorded(members, settings):
            groups.append(members)
            return original(members, settings)

        monkeypatch.setattr(core, "_run_group", recorded)
        rows = run_sweep(figure_config("fig3"))
        assert len(rows) == 41 and all(r.status == "ok" for r in rows)
        (remainder,) = [g for g in groups if g[0].kind == "remainder"]
        assert len(remainder) == 30
        stacked = core._stack([m.params for m in remainder])
        for key in ("a_on", "a_off", "b_on", "b_off", "g_a", "g_b"):
            assert not isinstance(stacked[key], np.ndarray), key
        assert isinstance(stacked["delta"], np.ndarray)

    def test_tiny_r_evaluates_only_the_limit_of_the_kernel(self, monkeypatch):
        # r from 1e-6 to 1e-4 sigma: K(v; r) is its series in r, and every
        # pair node lies past the moments' split, where the series needs no
        # Faddeeva function
        points = []
        original = core._faddeeva_w

        def counted(z):
            points.append(np.size(z))
            return original(z)

        monkeypatch.setattr(core, "_faddeeva_w", counted)
        with pytest.warns(UserWarning, match="detector overlap"):
            rows = run_sweep(sweep_cfg("r", "1e-6*sigma", "1e-4*sigma", 40, "log"))
        assert len(rows) == 40 and all(r.status == "ok" for r in rows)
        assert sum(points) <= 300

    def test_smear_constant_computed_once_per_r_sweep(self, monkeypatch):
        # C depends on the detector pair alone, so rows at other separations
        # share it too, and the table still equals per-row evaluation
        cfg = sweep_cfg("r", "100*sigma", "300*sigma", 5, uncertainty="30*sigma")
        calls = self.record_c_calls(monkeypatch)
        rows = run_sweep(cfg)
        assert len(rows) == 5 and all(r.status == "ok" for r in rows)
        assert len(calls) == 1
        assert rows_to_csv(rows) == per_row_csv(cfg)


def raise_injected(error):
    def fail(*args, **kwargs):
        raise error("injected")
    return fail


@pytest.mark.parametrize("site", [
    "harvestsim.core.integrate_radial",   # an integral run alone (``_run_group``)
    "harvestsim.core._time_member",       # a row's request pass
    "harvestsim.core._report",            # a row's report pass
    "harvestsim.sweep._apply_parameter",  # a sweep point
], ids=["integral", "request", "report", "sweep-point"])
class TestOnlyRowErrorsBecomeASlot:
    """A failure of one of ``core.ROW_ERRORS`` is recorded in its row; any
    other exception, wherever a row can fail, ends the call."""

    @staticmethod
    def cfg():
        # a series row and a frequency-route row, every integral run alone
        return sweep_cfg("delta", "15*sigma", "1500*sigma", 2, "log")

    def test_row_error_is_the_rows_status(self, monkeypatch, site):
        monkeypatch.setattr(site, raise_injected(ValueError))
        assert [row.status for row in run_sweep(self.cfg())] == ["ValueError: injected"] * 2

    def test_other_error_propagates(self, monkeypatch, site):
        monkeypatch.setattr(site, raise_injected(RuntimeError))
        with pytest.raises(RuntimeError, match="^injected$"):
            run_sweep(self.cfg())


class TestRunPoint:
    def test_point_report(self):
        cfg = loads_config(FIG2_CONFIG)
        rep = evaluate_scenario(cfg.scenario, cfg.numerics)
        assert rep.integrals.i_aa > 0.0
        assert rep.causal_class.value == "fully-light-connected"


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_compute_verb(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, FIG2_CONFIG)
        assert main(["compute", path]) == 0
        out = capsys.readouterr().out
        assert "negativity" in out
        assert "fully-light-connected" in out

    def test_compute_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        cfg = FIG2_CONFIG + f"[output]\npath = {out_path}\nformat = json\n"
        assert main(["compute", self.write_cfg(tmp_path, cfg)]) == 0
        capsys.readouterr()
        data = json.loads(out_path.read_text())
        assert data["causal_class"] == "fully-light-connected"
        assert data["i_aa"] > 0.0

    def test_sweep_verb_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        cfg = FIG2_CONFIG + textwrap.dedent(f"""\
            [sweep]
            parameter = r
            from = 0.1
            to = 0.3
            points = 3

            [output]
            path = {out_path}
            """)
        assert main(["sweep", self.write_cfg(tmp_path, cfg)]) == 0
        capsys.readouterr()
        text = out_path.read_text()
        assert text.splitlines()[0] == ",".join(COLUMNS)
        assert len(text.splitlines()) == 4

    @pytest.mark.parametrize("verb", ["compute", "sweep"])
    def test_empty_output_path_writes_stdout(self, tmp_path, capsys, monkeypatch, verb):
        sweep = "[sweep]\nparameter = r\nfrom = 0.1\nto = 0.3\npoints = 3\n"
        path = self.write_cfg(tmp_path, FIG2_CONFIG + sweep + "\n[output]\npath =\n")
        monkeypatch.chdir(tmp_path)
        assert main([verb, path]) == 0
        out = capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]
        if verb == "compute":
            assert "negativity" in out
        else:
            assert out.splitlines()[0] == ",".join(COLUMNS)
            assert len(out.splitlines()) == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, "[detector_a]\ngap = 1\n")
        assert main(["compute", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "inf"])
    def test_bad_tolerance_flag_exit_code(self, tmp_path, capsys, value):
        path = self.write_cfg(tmp_path, FIG2_CONFIG)
        assert main(["--tol-abs", value, "compute", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid input: QuadratureSettings: "
                                "tolerances must be positive and finite\n")

    def unequal_smearing_run(self, tmp_path, capsys, monkeypatch, verb):
        # rejected as the config is built: one line, and no file written
        text = (FIG2_CONFIG.replace("smearing = 0.001\nt_on = 150", "smearing = 0.002\nt_on = 150")
                + "[sweep]\nparameter = delta\nfrom = 0\nto = 0.1\npoints = 3\n"
                + "\n[output]\npath = out.csv\n")
        path = self.write_cfg(tmp_path, text)
        monkeypatch.chdir(tmp_path)
        assert main([verb, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: [scenario]: Scenario: both detectors must "
                                "have the same smearing width\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_unequal_smearing_compute_exit_code(self, tmp_path, capsys, monkeypatch):
        self.unequal_smearing_run(tmp_path, capsys, monkeypatch, "compute")

    @pytest.mark.parametrize("gap, t_off, message", [
        # I_nn's support over its peak's width sigma overflows a float
        ("1.0", "1e306", "integrate_radial: the support (0, 1e+306) is too wide for a peak "
                         "0.001 wide: their ratio overflows a float"),
        # the pair's support, of width twice the windows', overflows itself
        ("1.0", "1e308", "IntegrandSpec: support must be an interval lo < hi of finite width"),
        # I_nn's support over the two periods of its phase overflows a float
        ("1e300\ncoupling = 0.05", "1e10", "integrate_radial: the support (0, 1e+10) is too "
                                          "wide for panels of 6.28e-300: their ratio overflows "
                                          "a float"),
    ])
    def test_overflowing_support_compute_exit_code(self, tmp_path, capsys, gap, t_off, message):
        # both windows on [0, t_off]: one line, not a traceback
        text = FIG2_CONFIG.replace("gap = 1.0", f"gap = {gap}").replace("100*sigma", t_off).replace(
            "t_on = 150*sigma\nt_off = 250*sigma", f"t_on = 0\nt_off = {t_off}")
        self.compute_fails_in_one_line(tmp_path, capsys, text, message)

    def compute_fails_in_one_line(self, tmp_path, capsys, text, message):
        assert main(["compute", self.write_cfg(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("old, new, message", [
        # the default coupling 0.01*gap = 1e298: I_nn's coupling squared
        ("gap = 1.0", "gap = 1e300",
         "the i_nn integral's prefactor, from the couplings, overflows a float"),
        # the frequency remainder's envelope width sqrt(sigma^2 + delta^2/2)
        ("separation = 150*sigma", "separation = 150*sigma\nposition_uncertainty = 1e200",
         "IntegrandSpec: support must be an interval lo < hi of finite width"),
        # windows 1e162 long
        ("smearing = 0.001", "smearing = 1e160",
         "integrate_radial: a first partition of 1.59e+161 panels does not fit an int64"),
        # |I_AB|^2 in the Cauchy-Schwarz check, before the perturbative one
        ("gap = 1.0", "gap = 1.0\ncoupling = 1e100",
         "SecondOrderIntegrals: i_aa + i_bb = 5.16e+199 >= 1 leaves no ground-state "
         "population; outside the perturbative regime"),
    ])
    def test_overflowing_square_compute_exit_code(self, tmp_path, capsys, old, new, message):
        # a value whose square overflows a float, in both detectors or in the
        # scenario, fails its row: one line, not a traceback
        self.compute_fails_in_one_line(tmp_path, capsys, FIG2_CONFIG.replace(old, new), message)

    def test_overflowing_prefactor_fails_each_sweep_row(self, tmp_path, capsys):
        # couplings whose product overflows: every row of an r sweep at
        # delta = 10 sigma, on the series route or the frequency route, records
        # its ValueError, and the table is written
        text = (FIG2_CONFIG.replace("gap = 1.0", "gap = 1.0\ncoupling = 1e160")
                + "position_uncertainty = 10*sigma\n\n"
                + "[sweep]\nparameter = r\nfrom = 10*sigma\nto = 400*sigma\npoints = 40\n")
        assert main(["sweep", self.write_cfg(tmp_path, text)]) == 0
        statuses = [row["status"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
        assert len(statuses) == 40 and set(statuses) == {
            f"ValueError: the {kind} integral's prefactor, from the couplings, overflows a float"
            for kind in ("series", "remainder")}

    @pytest.mark.parametrize("windows", [
        {},  # in units of the smearing width
        {"t_off = 100*sigma": "t_off = 0.1", "t_on = 150*sigma": "t_on = 0.15",
         "t_off = 250*sigma": "t_off = 0.25"},
    ])
    def test_tiny_smearing_fails_each_sweep_row(self, tmp_path, capsys, windows):
        # smearing 1e-160, the windows in its units or in absolute time:
        # K(v; r)'s factor sqrt(pi)/(2 sqrt(2) i sigma r) overflows a float,
        # and so does the series bound, which takes the frequency route.
        # Every row of an r sweep at delta = 10 sigma records its
        # ValueError, the table is written, and no RuntimeWarning is raised
        # (an error under Tier-1)
        assert self.tiny_smearing_statuses(tmp_path, capsys, "1e-160", windows) == {
            "ValueError: the K(v; r) kernel's factor, from the smearing width, overflows a float"}

    def tiny_smearing_statuses(self, tmp_path, capsys, smearing, windows=None) -> set:
        """The statuses of the 40 rows of an r sweep at delta = 10 sigma at
        a smearing width in both detectors."""
        text = FIG2_CONFIG.replace("smearing = 0.001", f"smearing = {smearing}")
        for old, new in (windows or {}).items():
            text = text.replace(old, new)
        text += ("position_uncertainty = 10*sigma\n\n"
                 "[sweep]\nparameter = r\nfrom = 10*sigma\nto = 400*sigma\npoints = 40\n")
        assert main(["sweep", self.write_cfg(tmp_path, text)]) == 0
        statuses = [row["status"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
        assert len(statuses) == 40
        return set(statuses)

    def test_failed_rows_run_no_quadrature(self, tmp_path, capsys):
        # at smearing 1e-160 each row adds its smear and local terms before
        # its pair member is rejected; the plan takes out what a failed row
        # added, so the sweep of 40 failed rows runs no group at all
        with ledger._recorded_groups() as groups:
            statuses = self.tiny_smearing_statuses(tmp_path, capsys, "1e-160")
        assert len(statuses) == 1 and groups == []

    def test_underflowing_width_fails_each_row(self, tmp_path, capsys):
        # smearing 1e-300, whose square underflows to 0: every row of the r
        # sweep, on either spatial route, records one ValueError naming the
        # width, and compute on the unsmeared point exits 2 with that line
        message = "the smearing width 1e-300 underflows a float when squared"
        assert self.tiny_smearing_statuses(tmp_path, capsys, "1e-300") == {f"ValueError: {message}"}
        self.compute_fails_in_one_line(
            tmp_path, capsys, FIG2_CONFIG.replace("smearing = 0.001", "smearing = 1e-300"), message)

    def test_unequal_smearing_sweep_exit_code(self, tmp_path, capsys, monkeypatch):
        # formerly a table of failed rows
        self.unequal_smearing_run(tmp_path, capsys, monkeypatch, "sweep")

    def test_figure_writes_sidecar_metadata(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        # override tolerances only to keep this smoke test quick
        assert main(["figure", "fig2a", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.exists()
        meta = json.loads((tmp_path / "fig.csv.meta.json").read_text())
        assert meta["light_contact_r_min"] == pytest.approx(0.05)
        assert meta["light_contact_r_max"] == pytest.approx(0.25)

    def test_figure_json_holds_the_sidecar(self, tmp_path, capsys):
        # the JSON table carries what a CSV run writes beside it
        csv_path, json_path = tmp_path / "fig3.csv", tmp_path / "fig3.json"
        assert main(["figure", "fig3", "--out", str(csv_path)]) == 0
        assert main(["figure", "fig3", "--format", "json", "--out", str(json_path)]) == 0
        capsys.readouterr()
        data = json.loads(json_path.read_text())
        assert len(data["rows"]) == 41
        assert data["metadata"] == json.loads((tmp_path / "fig3.csv.meta.json").read_text())

    def test_figure_to_stdout_prints_its_sidecar_on_stderr(self, capsys):
        assert main(["figure", "fig3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == rows_to_csv(figure_preset("fig3")[0])
        assert captured.err == '{"parameter": "delta", "preset": "fig3", "r0": 0.15}\n'

    def test_figure_tolerance_override_matches_preset(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.csv"
        assert main(["--tol-rel", "1e-8", "figure", "fig3", "--out", str(out_path)]) == 0
        capsys.readouterr()
        rows, _ = figure_preset("fig3", numerics=QuadratureSettings(tol_rel=1e-8))
        assert out_path.read_text(encoding="utf-8") == rows_to_csv(rows)

    def test_sweep_json_matches_rows_to_json(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        text = FIG2_CONFIG + textwrap.dedent(f"""\
            [sweep]
            parameter = delta
            from = 0.01
            to = 0.3
            points = 3
            spacing = log

            [output]
            path = {out_path}
            format = json
            """)
        assert main(["sweep", self.write_cfg(tmp_path, text)]) == 0
        capsys.readouterr()
        expect = rows_to_json(run_sweep(loads_config(text)))
        assert out_path.read_text(encoding="utf-8") == expect

    def test_unconverged_quadrature_exit_code(self, tmp_path, capsys):
        # a budget of one panel, which every first partition exceeds
        path = self.write_cfg(tmp_path, FIG2_CONFIG + "\n[numerics]\neval_budget = 15\n")
        assert main(["compute", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("quadrature did not converge: integrate_radial: "
                                "evaluation budget 15 exhausted\n")

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        assert main(["figure", "fig3", "--out", str(out_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert captured.err.count("\n") == 1
        assert not out_path.parent.exists()

    def test_compute_prints_the_smeared_term(self, tmp_path, capsys):
        text = FIG2_CONFIG + "position_uncertainty = 150*sigma\n"
        assert main(["compute", self.write_cfg(tmp_path, text)]) == 0
        cfg = loads_config(text)
        report = evaluate_scenario(cfg.scenario, cfg.numerics)
        lines = capsys.readouterr().out.splitlines()
        assert f"|j| smeared    = {report.j_smeared_abs!r}  (erfi-closed-form)" in lines

    def test_row_that_cannot_be_built_fails_alone(self, tmp_path, capsys):
        # durations of -50 and 0 sigma give no window; the others run
        text = FIG2_CONFIG + textwrap.dedent("""\
            [sweep]
            parameter = duration
            from = -50*sigma
            to = 100*sigma
            points = 4
            """)
        assert main(["sweep", self.write_cfg(tmp_path, text)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        statuses = [row["status"] for row in rows]
        for status in statuses[:2]:
            assert re.fullmatch(r"ValueError: SwitchingWindow: t_off \(\S+\) "
                                r"must exceed t_on \(\S+\)", status)
        assert statuses[2:] == ["ok", "ok"]

    def test_huge_first_partitions_fail_their_own_rows(self, tmp_path, capsys):
        # durations 0.1, 3.2e14 and 1e30 on the reference geometry: the second
        # row's local term asks for 5.0e13 first panels, whose index array
        # numpy refuses at once, the third's for 1.6e29, more than an int64
        # counts; each is its own row's ValueError, and the sweep exits 0
        text = FIG2_CONFIG + textwrap.dedent("""\
            [sweep]
            parameter = duration
            from = 0.1
            to = 1e30
            points = 3
            spacing = log
            """)
        assert main(["sweep", self.write_cfg(tmp_path, text)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["status"] for row in rows] == [
            "ok",
            "ValueError: integrate_radial: a first partition of 5.03e+13 panels "
            "does not fit in memory",
            "ValueError: integrate_radial: a first partition of 1.59e+29 panels "
            "does not fit an int64"]

    def test_figure_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig9"])
        with pytest.raises(ValueError, match=re.escape(str(FIGURE_NAMES))):
            figure_config("fig9")


class TestFigurePresetShapes:
    def test_fig3_grid_contains_r0(self):
        from harvestsim.sweep import figure_config, sweep_values

        cfg = figure_config("fig3")
        values = sweep_values(cfg.sweep)
        assert len(values) == 41
        assert min(abs(values - 0.15)) < 1e-12

    def test_fig2b_metadata(self):
        from harvestsim.sweep import figure_config

        cfg = figure_config("fig2a")
        assert cfg.sweep.parameter == "r"
        assert cfg.sweep.points == 200

    def test_fig2b_phi_plus_column(self):
        import numpy as np

        rows, meta = figure_preset("fig2b")
        recs = [r.to_record() for r in rows]
        assert meta["highlight_column"] == "bell_phi_plus"
        vals = np.array([r["value"] for r in recs])
        phi = np.array([r["bell_phi_plus"] for r in recs])
        base = 0.5 * (1.0 - np.array([r["i_aa"] + r["i_bb"] for r in recs]))
        j_re = np.array([r["j_re"] for r in recs])
        # the fraction's deviation from baseline is exactly -Re(J), column-wise
        assert np.max(np.abs((phi - base) + j_re)) < 1e-15
        # its strongest excursion sits in the light-contact window, like |J|
        lo, hi = meta["light_contact_r_min"], meta["light_contact_r_max"]
        r_star = vals[int(np.argmax(np.abs(phi - base)))]
        assert lo < r_star < hi
        jabs = np.array([r["j_abs"] for r in recs])
        assert lo < vals[int(np.argmax(jabs))] < hi
