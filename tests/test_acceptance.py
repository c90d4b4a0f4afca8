"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance N] name: PASS/FAIL` line (visible with
`pytest -s` or on failure).  Criteria that reuse the figure sweeps share
module-scoped fixtures so the suite stays fast.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from harvestsim.cli import main
from harvestsim.core import (
    SecondOrderIntegrals,
    assemble_rho,
    compute_I_AB,
    compute_I_nn,
    compute_J,
    compute_J_smeared,
    evaluate_scenario,
    evaluate_scenarios,
    negativity_closed,
    partial_transpose,
)
from harvestsim.core import HarvestReport
from harvestsim.detectors import DetectorParams, Scenario, SwitchingWindow
from harvestsim.specfun import damped_im_erfi
from harvestsim.sweep import figure_config, figure_preset, sweep_values
from test_core import smear_J_gauss_hermite

SIGMA = 0.001
R0 = 150.0 * SIGMA


def criterion(num, name, ok, detail=""):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def reference_scenario(r0=R0, delta=0.0, coupling=0.01, gap_a=1.0, gap_b=1.0):
    det = dict(smearing=SIGMA, coupling=coupling)
    return Scenario(
        det_a=DetectorParams(gap=gap_a, window=SwitchingWindow(0.0, 0.1), **det),
        det_b=DetectorParams(gap=gap_b, window=SwitchingWindow(0.15, 0.25), **det),
        separation=r0,
        position_uncertainty=delta,
    )


@pytest.fixture(scope="module")
def fig2a():
    rows, meta = figure_preset("fig2a")
    return [r.to_record() for r in rows], meta


@pytest.fixture(scope="module")
def fig3():
    rows, meta = figure_preset("fig3")
    return [r.to_record() for r in rows], meta


def test_criterion_1_fig3_ratio():
    start = time.perf_counter()
    rep = evaluate_scenario(reference_scenario(delta=R0))
    r = rep.j_smeared_abs / abs(rep.j_unsmeared)
    elapsed = time.perf_counter() - start
    ok = (0.35 <= r <= 0.45) and elapsed <= 60.0
    criterion(1, "fig3 ratio at delta=r0",
              ok, f"R={r:.4f} (target 0.40+-0.05), runtime {elapsed:.2f}s (<=60s)")


def test_criterion_2_fig2a_peak_location(fig2a):
    rows, meta = fig2a
    assert all(r["status"] == "ok" for r in rows)
    values = np.array([r["value"] for r in rows])
    jabs = np.array([r["j_abs"] for r in rows])
    peak_idx = int(np.argmax(jabs))
    r_peak = values[peak_idx]
    lo, hi = meta["light_contact_r_min"], meta["light_contact_r_max"]
    inside = lo < r_peak < hi
    j_outside = abs(compute_J(reference_scenario(r0=300.0 * SIGMA)))
    leakage = 0.0 < j_outside < jabs[peak_idx]
    criterion(2, "fig2a peak at light contact",
              inside and leakage,
              f"argmax r={r_peak:.4f} in ({lo:.3f},{hi:.3f}); "
              f"|J(300s)|={j_outside:.3e} < peak {jabs[peak_idx]:.3e}")


def test_criterion_3_inverse_delta_slope(fig3):
    rows, _ = fig3
    deltas = np.array([r["value"] for r in rows])
    jsm = np.array([r["j_smeared_abs"] for r in rows])
    mask = deltas >= 10.0 * R0 * (1.0 - 1e-12)
    slope = np.polyfit(np.log(deltas[mask]), np.log(jsm[mask]), 1)[0]
    ok = abs(slope + 1.0) <= 0.05
    criterion(3, "inverse-delta asymptote",
              ok, f"log-log slope {slope:.4f} over delta in [10 r0, 100 r0] "
                  f"({int(mask.sum())} points; target -1.00+-0.05)")


def test_criterion_4_integral_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        r0 = rng.uniform(0.5, 2.0)
        ratio = 10.0 ** rng.uniform(-1.0, math.log10(20.0))
        d = r0 / ratio
        k = rng.uniform(0.05, 3.0) * 2.0 / d

        def f(r):
            kr = k * r
            s = np.sin(kr) / kr if abs(kr) > 1e-12 else 1.0
            return k * s * math.exp(-(((r - r0) / d) ** 2))

        lhs, _ = quad(f, r0 - 15.0 * d, r0 + 15.0 * d,
                      epsabs=1e-15, epsrel=1e-13, limit=500)
        rhs = math.pi * damped_im_erfi(r0 / d, d * k / 2.0)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    criterion(4, "damped-erfi integral identity",
              ok, f"worst rel err {worst:.2e} (<1e-8) over 20 triples, "
                  f"runtime {elapsed:.2f}s (<30s)")


def _oracle_set(gap_a, gap_b, sig, wa, wb, r0):
    det = dict(coupling=1.0, smearing=sig)
    return Scenario(
        det_a=DetectorParams(gap=gap_a, window=SwitchingWindow(*wa), **det),
        det_b=DetectorParams(gap=gap_b, window=SwitchingWindow(*wb), **det),
        separation=r0,
    )


def test_criterion_5_oracle_equivalence():
    sets = {
        "disjoint": _oracle_set(1.0, 1.0, 0.10, (0.0, 1.0), (1.5, 2.5), 1.0),
        "unequal-gaps": _oracle_set(1.3, 0.7, 0.05, (0.0, 0.8), (1.0, 1.6), 0.6),
        "overlapping": _oracle_set(1.0, 1.0, 0.10, (0.0, 1.0), (0.4, 1.2), 0.8),
        "containment": _oracle_set(1.0, 1.0, 0.08, (0.0, 1.5), (0.3, 0.9), 0.5),
        "reference": _oracle_set(1.0, 1.0, SIGMA, (0.0, 0.1), (0.15, 0.25), R0),
    }
    rng = np.random.default_rng(31415)
    worst = {"i_nn": 0.0, "i_ab": 0.0, "j": 0.0, "time-domain": 0.0}
    for name, scn in sets.items():
        n = 2_000_000 if scn.det_a.smearing < 0.01 else 400_000
        rel = abs(compute_I_nn(scn.det_a) - oracles.oracle_I_nn(scn.det_a, n))
        worst["i_nn"] = max(worst["i_nn"], rel / abs(oracles.oracle_I_nn(scn.det_a, n)))
        o_ab = oracles.oracle_I_AB(scn, n)
        worst["i_ab"] = max(worst["i_ab"], abs(compute_I_AB(scn) - o_ab) / abs(o_ab))
        o_j = oracles.oracle_J(scn, n)
        worst["j"] = max(worst["j"], abs(compute_J(scn) - o_j) / abs(o_j))
        # anchor the raw-exponential kernel to the 2D time-domain integral
        for _ in range(4):
            w = float(rng.uniform(0.05, 6.0))
            td = oracles.jtilde_time_domain(scn.det_b, scn.det_a, w)
            raw = complex(oracles.jtilde_raw(scn.det_b, scn.det_a, np.array([w]))[0])
            worst["time-domain"] = max(worst["time-domain"], abs(td - raw))

    # smeared correlation vs Gauss-Hermite averaging at three uncertainties
    worst_sm = 0.0
    for frac in (0.01, 0.02, 0.05):
        s = reference_scenario(delta=frac * R0, coupling=1.0)
        closed = compute_J_smeared(s)
        gh, _ = smear_J_gauss_hermite(s, nodes=151)
        worst_sm = max(worst_sm, abs(abs(gh) - closed) / closed)

    ok = (worst["i_nn"] <= 1e-6 and worst["i_ab"] <= 1e-6 and worst["j"] <= 1e-6
          and worst["time-domain"] <= 1e-9 and worst_sm <= 1e-6)
    criterion(5, "oracle equivalence",
              ok, f"worst rel: i_nn {worst['i_nn']:.1e}, i_ab {worst['i_ab']:.1e}, "
                  f"j {worst['j']:.1e} (<=1e-6); time-domain {worst['time-domain']:.1e}; "
                  f"smeared-vs-hermite {worst_sm:.1e} (<=1e-6)")


def test_criterion_6_negativity_consistency():
    rng = np.random.default_rng(1618)
    worst = 0.0
    agree_both_ways = True
    positives = negatives = 0
    for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 1000):
        ints = SecondOrderIntegrals(i_aa, i_bb, i_ab, j)
        raw, _ = negativity_closed(ints)
        block = partial_transpose(assemble_rho(ints))[1:3, 1:3]
        lam_min = float(np.linalg.eigvalsh(block)[0])
        worst = max(worst, abs(raw - (-lam_min)))
        entangled = raw > 0.0
        dominates = abs(j) ** 2 > i_aa * i_bb
        if abs(abs(j) ** 2 - i_aa * i_bb) > 1e-20:
            agree_both_ways &= entangled == dominates
            positives += entangled
            negatives += not entangled
    ok = worst < 1e-12 and agree_both_ways and positives > 50 and negatives > 50
    criterion(6, "negativity closed form vs eigen-solve",
              ok, f"worst |diff| {worst:.2e} (<1e-12) over 1000 tuples; "
                  f"criterion equivalence on {positives}+{negatives} cases")


def test_criterion_7_structural_suite():
    rng = np.random.default_rng(2020)
    failures = 0
    for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 1000):
        ints = SecondOrderIntegrals(i_aa, i_bb, i_ab, j)
        rho = assemble_rho(ints)
        m = rho
        pt = partial_transpose(rho)
        checks = [
            abs(np.trace(m) - 1.0) < 1e-14,
            np.max(np.abs(m - m.conj().T)) < 1e-14,
            np.max(np.abs(pt - pt.conj().T)) < 1e-14,
            abs(sum(oracles.bell_fractions(rho)) - 1.0) < 1e-12,
            abs(ints.i_ab) ** 2 <= ints.i_aa * ints.i_bb + 1e-10,
        ]
        failures += not all(checks)

    # correlation term continuous across the zero-gap regime boundary
    eps = 1e-6

    def j_at(shift):
        det = dict(smearing=SIGMA, coupling=0.01, gap=1.0)
        return compute_J(Scenario(
            det_a=DetectorParams(window=SwitchingWindow(0.0, 0.1), **det),
            det_b=DetectorParams(window=SwitchingWindow(0.1 + shift, 0.2 + shift), **det),
            separation=R0,
        ))

    jp, jm = j_at(+eps), j_at(-eps)
    continuous = abs(jp - jm) < 1e-4 * abs(jp)
    ok = failures == 0 and continuous
    criterion(7, "structural invariants",
              ok, f"{failures}/1000 failures; regime continuity "
                  f"|dJ|/|J| = {abs(jp - jm) / abs(jp):.2e} (<1e-4)")


def test_criterion_8_delta_to_zero_continuity():
    s0 = reference_scenario()
    j0 = abs(compute_J(s0))
    jd = compute_J_smeared(replace(s0, position_uncertainty=1e-3 * R0))
    rel = abs(jd - j0) / j0
    criterion(8, "delta->0 continuity",
              rel < 1e-4, f"relative deviation {rel:.2e} (<1e-4)")


def test_criterion_9_determinism(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(["figure", "fig3", "--out", str(p)]) == 0
    b1, b2 = (p.read_bytes() for p in paths)
    criterion(9, "figure fig3 byte-determinism",
              b1 == b2 and len(b1) > 0,
              f"{len(b1)} bytes, identical across runs: {b1 == b2}")


def scaled_scenario(k):
    # the reference geometry with windows, window gap and r0 scaled by k,
    # sigma fixed: r0 = 1.5e5 sigma at k = 1000
    det = dict(smearing=SIGMA, coupling=0.01, gap=1.0)
    return Scenario(det_a=DetectorParams(window=SwitchingWindow(0.0, 0.1 * k), **det),
                    det_b=DetectorParams(window=SwitchingWindow(0.15 * k, 0.25 * k), **det),
                    separation=R0 * k)


@pytest.mark.parametrize("k", [1, 10, 100, 1000])
def test_criterion_10_astronomical_scale(k):
    s = scaled_scenario(k)
    # the fig3 grid of delta/r0, spatially smeared
    fracs = [d / R0 for d in sweep_values(figure_config("fig3").sweep)]
    smeared = [(replace(s, position_uncertainty=f * s.separation), None) for f in fracs]
    reports = evaluate_scenarios([(s, None), (s, 5.0 * SIGMA), (s, 0.2 * s.separation)]
                                 + smeared)
    ok = all(isinstance(rep, HarvestReport) for rep in reports)
    detail = f"rows ok: {ok}"
    if ok:
        ints = reports[0].integrals
        ratios = [abs(rep.integrals.j) / abs(ints.j) for rep in reports[1:]]
        detail += (f"; |J_dt|/|J| = {ratios[0]:.6f} (5 sigma), {ratios[1]:.6f} (0.2 r0); "
                   f"R = {ratios[2]:.6f} (delta = 0.01 r0), {ratios[22]:.6f} (delta = r0)")
        if k <= 100:
            i_nn, i_ab, j = oracles.oracle_gl(s)
            err_nn = abs(ints.i_aa - i_nn) / i_nn
            worst = max(err_nn, abs(ints.i_ab - i_ab) / abs(i_ab), abs(ints.j - j) / abs(j))
            ok = worst <= 1e-9 and err_nn <= 1e-14
            detail += (f"; worst rel vs frequency-domain oracle {worst:.1e} (<=1e-9), "
                       f"i_aa {err_nn:.1e} (<=1e-14)")
    criterion(10, f"astronomical scale k={k}", ok, detail)


@pytest.mark.parametrize("k, frac", [(1, 0.01), (1, 1.0), (100, 0.01), (100, 1.0),
                                     (1000, 0.01)])
def test_spatial_smear_matches_space_oracle(k, frac):
    # the spatial smear's two terms against a Gauss-Legendre r-average of
    # the unsmeared time-domain J(r)
    s = scaled_scenario(k)
    delta = frac * s.separation
    got = evaluate_scenarios([(replace(s, position_uncertainty=delta), None)])[0]
    ref = oracles.oracle_J_space(s, delta)
    rel = abs(got.integrals.j - ref) / abs(ref)
    criterion(10, f"spatial smear vs r-average, k={k}, delta={frac} r0",
              rel <= 1e-10, f"rel diff {rel:.1e} (<=1e-10)")


@pytest.mark.parametrize("k", [1, 10, 100, 1000, 10000])
@pytest.mark.parametrize("widths", [1, 3, 10, 100])
def test_criterion_10_spatial_smear_at_scale(k, widths):
    # a position uncertainty of a few detector sizes at astronomical
    # separations: x = r0/delta from 1.5 to 1.5e6, every row but x = 1.5 on
    # the time-domain series in delta/r0
    s = scaled_scenario(k)
    delta = widths * SIGMA
    got = evaluate_scenarios([(replace(s, position_uncertainty=delta), None)])[0]
    ok = isinstance(got, HarvestReport)
    detail = f"row: {got if not ok else 'ok'}"
    if ok:
        ref = oracles.oracle_J_space(s, delta)
        rel = abs(got.integrals.j - ref) / abs(ref)
        ok = rel <= 1e-10
        detail += f"; rel diff {rel:.1e} (<=1e-10) vs r-average"
    criterion(10, f"spatial smear at k={k}, delta={widths} sigma", ok, detail)


@pytest.mark.parametrize("k", [100, 1000])
@pytest.mark.parametrize("widths", [5, 40])
def test_clock_smear_matches_offset_oracle(k, widths):
    # the clock smear's averaged window factor against a Gauss-Legendre
    # average over clock offsets of the unsmeared time-domain J
    s = scaled_scenario(k)
    dt = widths * SIGMA
    got = evaluate_scenarios([(s, dt)])[0]
    ref = oracles.oracle_J_clock_offsets(s, dt)
    rel = abs(got.integrals.j - ref) / abs(ref)
    criterion(10, f"clock smear vs offset average, k={k}, dt={widths} sigma",
              rel <= 1e-10, f"rel diff {rel:.1e} (<=1e-10)")
