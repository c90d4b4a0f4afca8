"""The benchmark's workloads: inputs made from the seed, one operation at a
time through the package's public entry points, and the per-operation
correctness check that runs after the timed region.

Every workload uses the paper's reference geometry: gap 1, smearing
sigma = 0.001, coupling 0.01, window A = [0, 100 sigma], window B =
[150 sigma, 250 sigma] and r0 = 150 sigma, unless a kind changes it.
"""
from __future__ import annotations

import cmath
import csv
import hashlib
import io
import math
from types import SimpleNamespace

import numpy as np

import reference as refs

SIGMA = 0.001
GAP = 1.0
COUPLING = 0.01    # the config default, 0.01*gap
R0 = 150 * SIGMA
WINDOW_A = (0.0, 100 * SIGMA)
WINDOW_B = (150 * SIGMA, 250 * SIGMA)

KINDS = ("time-offset", "spatial-disjoint", "spatial-overlap", "clock-offset")
BLOCK = 4            # rounds per stratification block; a round is one request per kind
T_MAX = 30.0         # largest common window shift of the time-offset kind

DETECTORS = """\
[detector_a]
gap = {gap!r}
smearing = {sigma!r}
t_on = {a_on}
t_off = {a_off}

[detector_b]
gap = {gap!r}
smearing = {sigma!r}
t_on = {b_on}
t_off = {b_off}
"""


def detector(t_on, t_off):
    """Detector parameters for the references, independent of the package's types."""
    return SimpleNamespace(coupling=COUPLING, gap=GAP, smearing=SIGMA,
                           window=SimpleNamespace(t_on=t_on, t_off=t_off))


def pair(det_a, det_b, separation):
    return SimpleNamespace(det_a=det_a, det_b=det_b, separation=separation)


def _float(text):
    return float(text) if text else math.nan


class SweepWorkload:
    """The Fig. 3 sweep, run repeatedly through ``harvestsim.cli.main``.

    An invocation is one request; each of its rows is one operation.  The
    sweep has 41 uncertainties delta at r0 = 150 sigma, log-spaced from
    0.01 r0 to 100 r0, the grid scaled by a seed-drawn fraction of one log
    step.  Seed 0 gives the preset.
    """

    GROUP = 1   # requests per rate sample
    POINTS = 41
    # seconds per invocation on the 2-vCPU x86-64 machine the benchmark was defined on
    NOMINAL_REQUEST_S = 1.5

    def __init__(self, name, seed, out_dir, cli):
        rng = np.random.default_rng([seed, 2])
        frac = 0.0 if seed == 0 else float(rng.uniform())
        scale = 10.0 ** (0.1 * frac)
        self.check_row = int(rng.integers(self.POINTS))
        self.cli = cli
        self.table_path = out_dir / f"{name}.csv"
        self.config_path = out_dir / f"{name}.ini"
        self.config_path.write_text(
            DETECTORS.format(gap=GAP, sigma=SIGMA, a_on=0, a_off="100*sigma",
                             b_on="150*sigma", b_off="250*sigma")
            + "\n[scenario]\nseparation = 150*sigma\n"
            + f"\n[sweep]\nparameter = delta\nfrom = {1.5 * scale!r}*sigma\n"
            + f"to = {15000.0 * scale!r}*sigma\npoints = {self.POINTS}\nspacing = log\n"
            + f"\n[output]\npath = {self.table_path}\nformat = csv\n",
            encoding="utf-8")
        self.outputs = []   # table digest per invocation, None when the command failed
        self.tables = {}    # digest -> table text

    def prepare(self):
        return None

    def run(self, _):
        return self.cli.main(["sweep", str(self.config_path)])

    def after(self, _, status):
        digest = None
        if status == 0:
            text = self.table_path.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.tables.setdefault(digest, text)
        self.outputs.append(digest)
        return self.POINTS

    def requests(self, seconds):
        """Invocations in a run of ``seconds``; a fixed number, so that the seed
        alone decides which operations a run attempts."""
        return max(1, round(seconds / self.NOMINAL_REQUEST_S))

    def rewind(self):
        pass

    def check(self):
        # the dense r-grid anchor reaches r0 + 7 * 0.1 r0
        ref = refs.Reference(detector(*WINDOW_A), detector(*WINDOW_B), 1.71 * R0)
        i_aa, i_bb = ref.i_nn()
        # every row has r = r0, so the unsmeared integrals of every row meet
        # tests/oracles.py at r0; the seed-chosen row names the anchor
        anchors, oracle = [], None
        if any(d is not None for d in self.outputs):
            anchor = refs.anchor_to_oracles(ref, pair(ref.det_a, ref.det_b, R0))
            anchors.append({"row": self.check_row, "r": R0, "gap": anchor["gap"]})
            oracle = anchor["oracle"]
        anchors.append({"dense_r_delta": 0.1 * R0, "gap": refs.anchor_dense_r(ref, R0, 0.1 * R0)})
        verdicts = {digest: [self._check_row(row, ref, i_aa, i_bb, oracle)
                             for row in csv.DictReader(io.StringIO(text))]
                    for digest, text in self.tables.items()}
        attempted = failed = 0
        reasons = {}
        for digest in self.outputs:
            bad_rows = [["command failed"]] * self.POINTS if digest is None else verdicts[digest]
            bad_rows = bad_rows + [["row missing"]] * (self.POINTS - len(bad_rows))
            attempted += self.POINTS
            for bad in bad_rows:
                if bad:
                    failed += 1
                    reasons[",".join(bad)] = reasons.get(",".join(bad), 0) + 1
        return {"attempted": attempted, "failed": failed, "reasons": reasons,
                "anchors": anchors, "distinct_tables": len(self.tables),
                "references": {"i_aa": i_aa, "i_bb": i_bb, "oracle_r0": oracle}}

    @staticmethod
    def _row_values(row):
        got = {k: _float(row[k]) for k in ("i_aa", "i_bb", "negativity_raw", "bell_phi_plus",
                                           "bell_phi_minus", "bell_psi_plus", "bell_psi_minus")}
        got["i_ab"] = complex(_float(row["i_ab_re"]), _float(row["i_ab_im"]))
        got["j"] = complex(_float(row["j_re"]), _float(row["j_im"]))
        got["j_eff_abs"] = _float(row["j_smeared_abs"])
        return got

    def _check_row(self, row, ref, i_aa, i_bb, oracle):
        if row["status"] != "ok":
            return ["status"]
        expected = {"i_aa": i_aa, "i_bb": i_bb, "i_ab": ref.i_ab(R0), "j": ref.j(R0),
                    "j_eff": ref.j_space(R0, float(row["value"]))}
        got = self._row_values(row)
        bad = refs.check_state(got, expected)
        if oracle is not None:
            bad += ["oracle:" + k for k, v in oracle.items() if not refs.rel_err(got[k], v) <= refs.TOL]
        return bad


class PointsWorkload:
    """A seeded stream of distinct single scenarios, each one request.

    Requests come in rounds of one per kind (equal shares).  Within a
    block of BLOCK rounds every continuous parameter is stratified, so
    each block covers its range evenly; the window shifts T of a block
    are the fixed grid 0, T_MAX/3, 2 T_MAX/3, T_MAX in a seeded order.
    """

    GROUP = len(KINDS) * BLOCK
    NOMINAL_BLOCK_S = 6.0   # seconds per block on the machine the benchmark was defined on

    def __init__(self, seed, config, core):
        self.seed, self.config, self.core = seed, config, core
        self.done = []      # (request, report or exception)
        self.rewind()

    def rewind(self):
        """Restart the request stream from its first request."""
        self.rng = np.random.default_rng([self.seed, 3])
        self.queue = []

    def _block(self):
        rng = self.rng

        def strata():
            return (rng.permutation(BLOCK) + rng.uniform(size=BLOCK)) / BLOCK

        shifts = [float(v) for v in np.linspace(0.0, T_MAX, BLOCK)[rng.permutation(BLOCK)]]
        u = {k: [float(v) for v in strata()]
             for k in ("t-r0", "sd-r0", "sd-delta", "so-r0", "so-delta", "so-start", "co-r0", "co-dt")}
        for i in range(BLOCK):
            self.queue += [
                {"kind": "time-offset", "r0": SIGMA * (50 + 250 * u["t-r0"][i]),
                 "shift": shifts[i]},
                {"kind": "spatial-disjoint", "r0": SIGMA * (50 + 250 * u["sd-r0"][i]),
                 "delta_frac": 10.0 ** (-2.0 + 2.0 * u["sd-delta"][i])},
                {"kind": "spatial-overlap", "r0": SIGMA * (50 + 250 * u["so-r0"][i]),
                 "delta_frac": 10.0 ** (-2.0 + 2.0 * u["so-delta"][i]),
                 "b_on": SIGMA * (20 + 60 * u["so-start"][i])},
                {"kind": "clock-offset", "r0": SIGMA * (50 + 250 * u["co-r0"][i]),
                 "dt": SIGMA * (1 + 4 * u["co-dt"][i])},
            ]

    def prepare(self):
        if not self.queue:
            self._block()
        req = self.queue.pop(0)
        a, b, delta = WINDOW_A, WINDOW_B, 0.0
        if req["kind"] == "time-offset":
            a = (a[0] + req["shift"], a[1] + req["shift"])
            b = (b[0] + req["shift"], b[1] + req["shift"])
        elif req["kind"] == "spatial-overlap":
            b = (req["b_on"], req["b_on"] + 100 * SIGMA)
        if "delta_frac" in req:
            delta = req["delta_frac"] * req["r0"]
        req["windows"], req["delta"] = (a, b), delta
        req["text"] = (DETECTORS.format(gap=GAP, sigma=SIGMA, a_on=repr(a[0]), a_off=repr(a[1]),
                                        b_on=repr(b[0]), b_off=repr(b[1]))
                       + f"\n[scenario]\nseparation = {req['r0']!r}\n"
                       + f"position_uncertainty = {delta!r}\n")
        return req

    def run(self, req):
        try:
            cfg = self.config.loads_config(req["text"])
            return self.core.evaluate_scenario(cfg.scenario, cfg.numerics, time_smear=req.get("dt"))
        except Exception as exc:  # a failed request is counted, not fatal
            return exc

    def after(self, req, outcome):
        self.done.append((req, outcome))
        return 1

    def requests(self, seconds):
        """Requests in a run of ``seconds``: whole blocks, so every run holds each
        stratum equally often, and a fixed number, so that the seed alone
        decides which requests a run attempts."""
        return self.GROUP * max(1, round(seconds / self.NOMINAL_BLOCK_S))

    def check(self):
        base = refs.Reference(detector(*WINDOW_A), detector(*WINDOW_B), 300 * SIGMA * 1.001)
        i_aa, i_bb = base.i_nn()
        attempted = {k: 0 for k in KINDS}
        failed = {k: 0 for k in KINDS}
        reasons, records = {}, []
        for req, outcome in self.done:
            kind, r0 = req["kind"], req["r0"]
            attempted[kind] += 1
            ref = base
            if kind == "spatial-overlap":
                (a, b) = req["windows"]
                ref = refs.Reference(detector(*a), detector(*b), r0 * 1.001)
            j = ref.j(r0)
            if kind == "time-offset":  # phase exp(i (gap_A + gap_B) T)
                j_eff = j = j * cmath.exp(1j * (GAP + GAP) * req["shift"])
            elif kind == "clock-offset":
                j_eff = ref.j_time(r0, req["dt"])
            else:
                j_eff = ref.j_space(r0, req["delta"])
            expected = {"i_aa": i_aa, "i_bb": i_bb, "i_ab": ref.i_ab(r0), "j": j, "j_eff": j_eff}
            err = None
            if isinstance(outcome, Exception):
                bad = [type(outcome).__name__]
            else:
                ints = outcome.integrals
                got = {"i_aa": ints.i_aa, "i_bb": ints.i_bb, "i_ab": ints.i_ab,
                       "j": outcome.j_unsmeared, "j_eff": ints.j,
                       "negativity_raw": outcome.negativity_raw,
                       "bell_phi_plus": outcome.bell_phi_plus,
                       "bell_phi_minus": outcome.bell_phi_minus,
                       "bell_psi_plus": outcome.bell_psi_plus,
                       "bell_psi_minus": outcome.bell_psi_minus}
                bad = refs.check_state(got, expected)
                err = refs.rel_err(ints.j, j_eff)
            if bad:
                failed[kind] += 1
                key = f"{kind}: {','.join(bad)}"
                reasons[key] = reasons.get(key, 0) + 1
            records.append({k: v for k, v in req.items() if k not in ("text", "windows")}
                           | {"failed": bad, "j_eff_ref": [j_eff.real, j_eff.imag],
                              "j_eff_rel_err": err})
        anchors = []
        if self.done:
            r0 = self.done[0][0]["r0"]
            gap = refs.anchor_to_oracles(base, pair(base.det_a, base.det_b, r0))["gap"]
            anchors.append({"r": r0, "gap": gap})
            overlap = next((req for req, _ in self.done if req["kind"] == "spatial-overlap"), None)
            if overlap is not None:
                r0 = overlap["r0"]
                ref = refs.Reference(*(detector(*w) for w in overlap["windows"]), 1.71 * r0)
                anchors.append({"dense_r_overlap": [r0, 0.1 * r0],
                                "gap": refs.anchor_dense_r(ref, r0, 0.1 * r0)})
        return {"attempted": sum(attempted.values()), "failed": sum(failed.values()),
                "reasons": reasons, "anchors": anchors,
                "by_kind": {k: {"attempted": attempted[k], "failed": failed[k]} for k in KINDS},
                "references": records}
