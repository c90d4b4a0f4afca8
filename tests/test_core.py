import math
import numbers
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

import oracles
from harvestsim import core
from harvestsim.core import (
    SecondOrderIntegrals,
    assemble_rho,
    bell_fractions,
    compute_I_AB,
    compute_I_nn,
    compute_J,
    compute_J_smeared,
    compute_J_time_smeared,
    evaluate_scenario,
    negativity_closed,
    negativity_sectors,
    partial_transpose,
)
from harvestsim.detectors import DetectorParams, Scenario, SwitchingWindow
from harvestsim.quadrature import (
    ConvergenceFailure,
    IntegrandSpec,
    QuadratureSettings,
    QuadResult,
    _initial_panels,
    integrate_radial,
)
from harvestsim.specfun import _damped_erf
from harvestsim.sweep import SweepRow, _apply_parameter, figure_config, sweep_values

def detector(gap=1.0, sigma=0.1, window=(0.0, 1.0), coupling=1.0):
    return DetectorParams(coupling=coupling, gap=gap, smearing=sigma,
                          window=SwitchingWindow(*window))


def scenario(wa=(0.0, 1.0), wb=(1.5, 2.5), r0=1.0, sigma=0.1, delta=0.0,
             gap_a=1.0, gap_b=1.0, coupling=1.0):
    return Scenario(
        det_a=detector(gap=gap_a, sigma=sigma, window=wa, coupling=coupling),
        det_b=detector(gap=gap_b, sigma=sigma, window=wb, coupling=coupling),
        separation=r0,
        position_uncertainty=delta,
    )


def smear_J_gauss_hermite(s, nodes=41):
    """Average the correlation term over separations r ~ Pr(r) by Gauss-Hermite.

    Pr(r) = exp(-(r-r0)^2/delta^2)/(delta*sqrt(pi)), including the formal
    negative-r tail, where J(r) = J(|r|).  Returns (mean of J, mean of |J|).
    A reference for the closed form, which it matches only where the rule
    resolves J(r).
    """
    u, w = hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # nodes with |r| < 5 sigma
        js = np.array([
            compute_J(replace(s, separation=abs(s.separation + s.position_uncertainty * ui)))
            for ui in u
        ])
    return complex(np.sum(w * js)), float(np.sum(w * np.abs(js)))


def fig_scenario(r0=0.15, delta=0.0, coupling=0.01):
    return scenario(wa=(0.0, 0.1), wb=(0.15, 0.25), r0=r0, sigma=0.001,
                    delta=delta, coupling=coupling)


def envelope_peak(s):
    """The peaks of s's frequency remainder: its envelope exp(-(w*d)^2/2),
    d = sqrt(sigma^2 + delta^2/2), one peak at w = 0 of width 1/d."""
    return ((0.0, 1.0 / math.sqrt(s.det_a.smearing**2 + 0.5 * s.position_uncertainty**2)),)


class TestJtilde:
    """``core._jtilde`` on arrays of frequencies, windows measured from 0."""

    @staticmethod
    def jtilde(emitter, absorber, ws):
        n, m = absorber.window, emitter.window
        return core._jtilde(np.asarray(ws, dtype=float), n.t_on, n.t_off, m.t_on, m.t_off,
                            absorber.gap, emitter.gap)

    def check(self, emitter, absorber, ws, tol):
        got = self.jtilde(emitter, absorber, ws)
        ref = np.array([oracles.jtilde_time_domain(absorber, emitter, w) for w in ws])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) < tol

    def test_disjoint_regular_at_gap_frequency(self):
        emitter = detector(window=(0.0, 1.0))
        absorber = detector(window=(1.5, 2.5), gap=1.3)
        self.check(emitter, absorber, [1.3], 1e-10)  # omega == absorber gap

    def test_disjoint_matches_time_domain(self):
        emitter = detector(window=(0.2, 0.9), gap=0.8)
        absorber = detector(window=(1.1, 2.4), gap=1.2)
        rng = np.random.default_rng(17)
        self.check(emitter, absorber, rng.uniform(0.0, 8.0, size=10), 1e-10)

    def test_disjoint_short_emitter_window(self):
        emitter = detector(window=(0.0, 1e-9))
        absorber = detector(window=(1.0, 2.0))
        assert np.abs(self.jtilde(emitter, absorber, [2.0])).max() < 1e-8

    def test_overlap_matches_time_domain(self):
        emitter = detector(window=(0.0, 1.0), gap=0.9)
        absorber = detector(window=(0.4, 1.3), gap=1.1)
        rng = np.random.default_rng(23)
        ws = list(rng.uniform(0.0, 6.0, size=8)) + [1.1]  # include omega == gap
        self.check(emitter, absorber, ws, 1e-9)

    def test_overlap_identical_windows(self):
        emitter = detector(window=(0.0, 0.5))
        absorber = detector(window=(0.0, 0.5))
        rng = np.random.default_rng(29)
        self.check(emitter, absorber, rng.uniform(0.0, 6.0, size=8), 1e-9)

    def test_overlap_containment(self):
        emitter = detector(window=(0.2, 0.5))
        absorber = detector(window=(0.0, 1.0))
        self.check(emitter, absorber, [0.3, 1.0, 2.7], 1e-9)

    def test_overlap_shrinks_to_disjoint(self):
        # overlap of width eps -> 0 reproduces the touching disjoint value
        w = [2.3]
        disjoint = self.jtilde(detector(window=(0.0, 1.0)), detector(window=(1.0, 2.0)), w)
        for eps in (1e-4, 1e-6, 1e-8):
            v = self.jtilde(detector(window=(0.0, 1.0 + eps)), detector(window=(1.0, 2.0)), w)
            assert np.abs(v - disjoint).max() < 5.0 * eps

    def test_absorber_before_emitter_vanishes(self):
        # the absorber switches off before the emitter switches on
        emitter = detector(window=(2.0, 3.0), gap=0.9)
        absorber = detector(window=(0.0, 1.0), gap=1.1)
        ws = [0.0, 1.1, 2.7]
        assert self.jtilde(emitter, absorber, ws).tolist() == [0.0] * 3
        assert [oracles.jtilde_time_domain(absorber, emitter, w) for w in ws] == [0.0] * 3

    def test_numpy_float_windows_bit_identical(self):
        # window edges from np.linspace or an np.float64 shift make each
        # domain's flag a NumPy bool, which must count as a Python bool does
        ws = [0.3, 1.1, 2.7]
        pairs = ((detector(window=(0.0, 1.0), gap=0.9), detector(window=(0.4, 1.3), gap=1.1)),
                 (detector(window=(0.2, 0.9)), detector(window=(1.1, 2.4))))
        for emitter, absorber in pairs:
            ref = self.jtilde(emitter, absorber, ws)
            got = self.jtilde(numpy_windows(emitter), numpy_windows(absorber), ws)
            assert np.all(ref != 0.0)
            assert got.tolist() == ref.tolist()


def numpy_windows(d):
    """d with its window edges as NumPy floats."""
    w = d.window
    return replace(d, window=SwitchingWindow(np.float64(w.t_on), np.float64(w.t_off)))


class TestLocalTerms:
    def test_zero_coupling(self):
        assert compute_I_nn(detector(coupling=0.0)) == 0.0

    def test_short_window_limit(self):
        base = compute_I_nn(detector(window=(0.0, 1e-5)))
        assert 0.0 <= base < 1e-8

    def test_against_momentum_space_oracle(self):
        det = detector(gap=1.0, sigma=0.001, window=(0.0, 0.1), coupling=1.0)
        mine = compute_I_nn(det)
        ref = oracles.oracle_I_nn(det, n=2_000_000)
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            det = detector(
                gap=10.0 ** rng.uniform(-0.5, 0.5),
                sigma=10.0 ** rng.uniform(-2, -0.5),
                window=(0.0, 10.0 ** rng.uniform(-1, 0.5)),
            )
            assert compute_I_nn(det) >= 0.0

    def test_time_domain_anchor(self):
        # |time integral|^2 computed by Gauss-Legendre matches the raw form
        det = detector(gap=1.0, sigma=0.05, window=(0.1, 0.9))
        x, wt = np.polynomial.legendre.leggauss(80)
        for w in (0.0, 1.7, 5.2):
            c, h = 0.5 * (0.1 + 0.9), 0.5 * (0.9 - 0.1)
            t = c + h * x
            tau = h * np.sum(wt * np.exp(1j * (w + det.gap) * t))
            direct = oracles.tau_plus(det.window, det.gap, np.array([w]))[0]
            assert abs(tau - direct) < 1e-13


class TestExchangeTerm:
    def test_zero_coupling(self):
        s = scenario()
        s = replace(s, det_a=replace(s.det_a, coupling=0.0))
        assert compute_I_AB(s) == 0.0

    def test_coincidence_limit(self):
        # identical detectors, r0 -> 0: exchange term -> local term
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = scenario(wa=(0.0, 1.0), wb=(0.0, 1.0), r0=1e-9)
        i_ab = compute_I_AB(s)
        i_aa = compute_I_nn(s.det_a)
        assert i_ab.real == pytest.approx(i_aa, rel=1e-9)
        assert abs(i_ab.imag) < 1e-12 * i_aa

    def test_against_dense_grid_oracle(self):
        s = fig_scenario(coupling=1.0)
        mine = compute_I_AB(s)
        ref = oracles.oracle_I_AB(s, n=2_000_000)
        assert abs(mine - ref) < 1e-6 * abs(ref)

    def test_angular_reduction_constant(self):
        # the 4*pi*sinc(w r) factor equals the numeric solid-angle integral
        for w, r in ((0.7, 0.3), (3.1, 1.7), (9.0, 0.05)):
            num = oracles.angular_factor_gl(w, r)
            assert num == pytest.approx(4.0 * math.pi * math.sin(w * r) / (w * r),
                                        rel=1e-12)

    def test_requires_equal_smearing(self):
        # the pair terms are never reached: the scenario itself is rejected
        s = scenario()
        unequal = replace(s.det_b, smearing=0.2)
        with pytest.raises(ValueError, match="same smearing width"):
            replace(s, det_b=unequal)
        with pytest.raises(ValueError, match="same smearing width"):
            Scenario(det_a=s.det_a, det_b=unequal, separation=s.separation)

    def test_small_separations_keep_cauchy_schwarz_and_the_r2_law(self):
        # equal detectors on [0, 100 sigma]: I_nn - |I_AB| = pref int w
        # e^(-(w sigma)^2/2) |tau(w)|^2 (1 - sinc(w r)) dw is never below 0,
        # and for w*r small it is c2 r^2 - c4 r^4, c2 and c4 that integral's
        # w^2/6 and w^4/120 moments, summed here by the frequency oracle's
        # Gauss-Legendre panels.  On an r grid from 1e-6 sigma to sigma both
        # sides hold within the two reported errors, the r^2 law for
        # r <= 0.01 sigma, where the r^6 term is below 1e-6 of them
        sigma = 0.001
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # detector overlap, meant here
            rows = [(scenario(wa=(0.0, 0.1), wb=(0.0, 0.1), r0=r * sigma, sigma=sigma,
                              coupling=0.01), None) for r in np.geomspace(1e-6, 1.0, 25)]
        det = rows[0][0].det_a
        top = oracles._wmax(sigma)
        w, wt = oracles._panel_rule(np.linspace(0.0, top, int(top * 0.1 / math.pi) + 2), 16)
        weight = (wt * w * np.exp(-0.5 * (w * sigma) ** 2)
                  * np.abs(oracles.tau_plus(det.window, det.gap, w)) ** 2 * 0.01**2 / (4 * math.pi**2))
        c2, c4 = np.sum(weight * w**2) / 6.0, np.sum(weight * w**4) / 120.0
        for (s, _), rep in zip(rows, core.evaluate_scenarios(rows)):
            errors = rep.quad_errors["i_aa"] + rep.quad_errors["i_ab"]
            deficit = rep.integrals.i_aa - abs(rep.integrals.i_ab)
            assert deficit >= -errors, s.separation
            r = s.separation
            if r <= 0.01 * sigma:
                assert abs(deficit - (c2 * r * r - c4 * r**4)) <= errors, r

    def test_cauchy_schwarz_on_computed_scenarios(self):
        for s in (scenario(), scenario(wa=(0.0, 1.0), wb=(0.4, 1.2), r0=0.8),
                  fig_scenario(coupling=1.0)):
            i_ab = compute_I_AB(s)
            i_aa = compute_I_nn(s.det_a)
            i_bb = compute_I_nn(s.det_b)
            assert abs(i_ab) ** 2 <= i_aa * i_bb + 1e-10


class TestCorrelationTerm:
    def test_zero_coupling(self):
        s = scenario()
        s = replace(s, det_a=replace(s.det_a, coupling=0.0))
        assert compute_J(s) == 0.0

    def test_against_dense_grid_oracle(self):
        s = scenario(sigma=0.1)
        mine = compute_J(s)
        ref = oracles.oracle_J(s, n=400_000)
        assert abs(mine - ref) < 1e-6 * abs(ref)

    def test_overlap_against_dense_grid_oracle(self):
        s = scenario(wa=(0.0, 1.0), wb=(0.4, 1.2), r0=0.8, sigma=0.1)
        mine = compute_J(s)
        ref = oracles.oracle_J(s, n=400_000)
        assert abs(mine - ref) < 1e-6 * abs(ref)

    def test_large_r_tail_bounded(self):
        # |J(r)|*r stays within a bounded oscillatory envelope
        vals = []
        for r in (2.0, 4.0, 8.0, 16.0, 32.0):
            s = scenario(r0=r, sigma=0.05)
            vals.append(abs(compute_J(s)) * r)
        assert max(vals[2:]) <= 2.0 * max(vals[:2])
        assert min(vals) > 0.0

    def test_regime_continuity_at_zero_gap(self):
        # gap eps > 0 versus overlap eps < 0: J continuous at eps = 0
        eps = 1e-6

        def j_at(e):
            return compute_J(scenario(wa=(0.0, 1.0), wb=(1.0 + e, 2.0 + e),
                                      r0=1.0, sigma=0.05))

        jp, jm = j_at(+eps), j_at(-eps)
        assert abs(jp - jm) < 1e-4 * abs(jp)


class TestSmearedCorrelation:
    def test_delta_to_zero_limit(self):
        s0 = fig_scenario()
        j0 = abs(compute_J(s0))
        s = replace(s0, position_uncertainty=1e-3 * s0.separation)
        assert compute_J_smeared(s) == pytest.approx(j0, rel=1e-4)

    @pytest.mark.parametrize("delta", [1e-200, 1e-320])
    def test_vanishing_delta_reads_the_unsmeared_j(self, delta):
        # a spread so small that the series kernel's eps*eta underflows (at
        # 1e-320, x = r0/delta overflows too): the row is the unsmeared one
        # within its errors, not a ZeroDivisionError
        rep = evaluate_scenario(fig_scenario(delta=delta))
        errors = rep.quad_errors["j"] + rep.quad_errors["j_smeared"]
        assert abs(rep.integrals.j - rep.j_unsmeared) <= errors

    def test_inverse_delta_asymptote_ratio(self):
        r0 = 0.15
        j50 = compute_J_smeared(replace(fig_scenario(), position_uncertainty=50 * r0))
        j100 = compute_J_smeared(replace(fig_scenario(), position_uncertainty=100 * r0))
        assert j50 / j100 == pytest.approx(2.0, rel=0.10)

    def test_overlapping_windows_match_gauss_hermite(self):
        # r enters J only through sinc(w r) for every window timing, so the
        # closed form also covers overlapping windows: they are accepted and
        # meet the Hermite average, which resolves J(r) at this delta
        s = scenario(wa=(0.0, 1.0), wb=(0.5, 1.5), r0=1.0, delta=0.3)
        gh_mean, _ = smear_J_gauss_hermite(s, nodes=161)
        assert compute_J_smeared(s) == pytest.approx(abs(gh_mean), rel=1e-10)

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            compute_J_smeared(fig_scenario())

    def test_gauss_hermite_agreement_small_delta(self):
        # in the regime where the Hermite rule resolves the integrand the
        # two smearing routes coincide
        s = replace(fig_scenario(), position_uncertainty=0.02 * 0.15)
        closed = compute_J_smeared(s)
        gh_mean, gh_abs_mean = smear_J_gauss_hermite(s, nodes=151)
        assert abs(gh_mean) == pytest.approx(closed, rel=1e-8)
        assert gh_abs_mean >= abs(gh_mean) - 1e-18

    def test_identity_route_vs_quadrature_route(self):
        # direct Pr(r)-weighted quadrature of J(|r|) reproduces the closed form
        from scipy.integrate import quad

        for s in (
            replace(scenario(sigma=0.05), position_uncertainty=0.05),
            # overlapping windows at delta = r0, where Pr(r) reaches r < 0
            scenario(wa=(0.0, 1.0), wb=(0.4, 1.2), r0=0.8, sigma=0.1, delta=0.8,
                     coupling=0.05),
            # unequal gaps, where exchanging them in one ordering of the
            # remainder's kernel Jhat moves the result by 2%
            scenario(wa=(0.0, 1.0), wb=(0.4, 1.2), r0=0.8, sigma=0.1, delta=0.8,
                     gap_a=0.8, gap_b=1.3, coupling=0.05),
        ):
            closed = compute_J_smeared(s)
            r0, d = s.separation, s.position_uncertainty

            def integrand(r, part):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # |r| < 5 sigma near r = 0
                    v = compute_J(replace(s, separation=abs(r), position_uncertainty=0.0))
                pr = math.exp(-((r - r0) / d) ** 2) / (d * math.sqrt(math.pi))
                return pr * (v.real if part == "re" else v.imag)

            re, _ = quad(integrand, r0 - 8 * d, r0 + 8 * d, args=("re",), limit=200)
            im, _ = quad(integrand, r0 - 8 * d, r0 + 8 * d, args=("im",), limit=200)
            assert abs(complex(re, im)) == pytest.approx(closed, rel=1e-6)
            assert evaluate_scenario(s).j_smeared_abs == closed

    def test_numpy_float_windows_bit_identical(self):
        # the frequency-remainder route reads the correlation kernel's
        # domain flags, NumPy bools where the window edges are NumPy floats
        for s in (scenario(wa=(0.0, 1.0), wb=(0.5, 1.5), r0=1.0, delta=0.3),
                  fig_scenario(delta=0.75)):
            t = replace(s, det_a=numpy_windows(s.det_a), det_b=numpy_windows(s.det_b))
            assert compute_J_smeared(t) == compute_J_smeared(s)
            assert evaluate_scenario(t) == evaluate_scenario(s)

    def test_cancelling_terms_fail_the_row(self, monkeypatch):
        # the smeared J is C's term minus the frequency-domain remainder; an
        # error on the remainder beyond the tolerance of the sum must not
        # read ok, even where each quadrature met its own target
        original = core.integrate_radial
        s = fig_scenario(delta=0.15)

        def inflated(spec, settings):
            res = original(spec, settings)
            if spec.peaks == envelope_peak(s):  # the remainder
                return QuadResult(res.value, 1e-3 * abs(res.value), res.evaluations)
            return res

        monkeypatch.setattr(core, "integrate_radial", inflated)
        out = core.evaluate_scenarios([(s, None)])[0]
        assert isinstance(out, ConvergenceFailure)
        assert out.best.abs_error > 1e-9 * abs(out.best.value)
        assert abs(out.best.value) > 0.0

    # (gap_a, gap_b, delta/r0) of rows whose remainder and C's term cancel
    CANCELLING = [(1.0, 1.0, 1.8), (1.0, 1.0, 1.85), (0.5, 2.0, 1.6), (0.5, 2.0, 1.85),
                  (0.5, 2.0, 1.9), (0.5, 2.0, 1.95), (0.5, 2.0, 2.0), (0.5, 2.0, 2.05),
                  (0.5, 2.0, 2.1), (2.0, 2.0, 1.4), (2.0, 2.0, 1.6), (2.0, 2.0, 1.8)]
    # such rows where each part meets its own tolerance on its first run and
    # their sum does not
    INTEGRATED_AGAIN = [(1.0, 1.0, 1.6), (1.0, 1.0, 1.65), (1.0, 1.0, 1.7), (0.5, 2.0, 1.5),
                        (2.0, 2.0, 1.75), (2.0, 2.0, 1.8), (2.0, 2.0, 1.85), (0.5, 0.5, 1.25),
                        (2.0, 0.5, 1.5), (1.0, 2.0, 1.5)]
    TIGHT = QuadratureSettings(tol_abs=1e-20, tol_rel=1e-13)

    @staticmethod
    def cancelling_row(gap_a, gap_b, delta_rel):
        return scenario(wa=(0.0, 1.0), wb=(2.0, 3.0), r0=0.5, gap_a=gap_a, gap_b=gap_b,
                        delta=delta_rel * 0.5, coupling=0.05)

    @pytest.mark.parametrize("gap_a, gap_b, delta_rel", INTEGRATED_AGAIN)
    def test_cancelling_parts_are_integrated_again(self, monkeypatch, gap_a, gap_b,
                                                   delta_rel):
        # the part missing its share of the sum's tolerance runs again alone
        # (the only ``_single`` call of a smear), and the sum then meets it
        again = []
        original = core._single

        def recorded(member, settings):
            again.append((member.kind, settings))
            return original(member, settings)

        monkeypatch.setattr(core, "_single", recorded)
        s = self.cancelling_row(gap_a, gap_b, delta_rel)
        res = core._j_smeared_result(s, core.DEFAULT_SETTINGS)
        assert [kind for kind, _ in again] == ["remainder"]
        assert again[0][1].tol_rel < core.DEFAULT_SETTINGS.tol_rel
        assert res.abs_error <= 1e-9 * abs(res.value)
        tight = core._j_smeared_result(s, self.TIGHT)
        assert abs(res.value - tight.value) <= res.abs_error + tight.abs_error

    def test_cancelling_rows_read_ok_in_a_sweep(self):
        # in lockstep every such row gets what it gets alone, within the
        # tolerance and within its error of a tight run
        rows = [self.cancelling_row(*c) for c in self.CANCELLING + self.INTEGRATED_AGAIN]
        reports = core.evaluate_scenarios([(s, None) for s in rows])
        assert [r.j_smeared_abs for r in reports] == [compute_J_smeared(s) for s in rows]
        for s, rep in zip(rows, reports):
            value, error = rep.integrals.j, rep.quad_errors["j_smeared"]
            assert error <= 1e-9 * abs(value)
            tight = core._j_smeared_result(s, self.TIGHT)
            assert abs(value - tight.value) <= error + tight.abs_error

    def test_remainder_declares_its_envelope(self):
        # the first partition grades out from w = 0 at the envelope's width
        s = fig_scenario(delta=0.15)
        member = core._remainder_member(s, 1.0, 1.0)
        d = math.sqrt(s.det_a.smearing**2 + 0.5 * s.position_uncertainty**2)
        ((p, width),) = member.spec.peaks
        assert p == 0.0
        assert width == pytest.approx(1.0 / d, rel=1e-15)

    @pytest.mark.parametrize("share, pref, value", [(1e-300, 1e30, 1.0), (1e-300, 1.0, 1e300)])
    def test_no_share_settings_below_the_smallest_tolerance(self, share, pref, value):
        # a share whose tolerance underflows to 0 is not run again
        first = QuadResult(value, 1e-3, 15)
        assert core._share_settings(core.DEFAULT_SETTINGS, share, pref, first) is None

    @pytest.mark.parametrize("delta", [0.03, 0.15])
    def test_remainder_support_ends_at_tail_tolerance(self, monkeypatch, delta):
        # the remainder's range ends where its envelope exp(-(w*d)^2/2),
        # d = sqrt(sigma^2 + delta^2/2), falls to the fixed tail level; at
        # x = r0/delta = 5 and 1, below the series route's x0 = 10
        specs = []
        original = core.integrate_radial

        def recorded(spec, settings):
            specs.append(spec)
            return original(spec, settings)

        monkeypatch.setattr(core, "integrate_radial", recorded)
        s = fig_scenario(delta=delta)
        compute_J_smeared(s)
        (spec,) = [sp for sp in specs if sp.peaks == envelope_peak(s)]
        lo, hi = spec.support
        d = math.sqrt(s.det_a.smearing**2 + 0.5 * delta**2)
        assert lo == 0.0
        assert math.exp(-0.5 * (hi * d) ** 2) == pytest.approx(
            core._TAIL, rel=1e-12, abs=0.0)


def mp_series_kernel(mp, v, r0, delta, sigma, n_terms):
    """The first n_terms terms in s/r0 of the smeared kernel <K(v; r)>, in
    mpmath: m_n(w) e^((w s)^2/2) as polynomials in w from Stein's identity,
    and the moments int_0^inf w^m exp(-(w S)^2/2 + i w a) dw from the
    parabolic cylinder function D_(-m-1)."""
    s = delta / mp.sqrt(2)
    scale = mp.sqrt(sigma**2 + s**2)
    polys = [[mp.mpc(1)], [mp.mpc(0), 1j * s**2]]
    for n in range(1, n_terms - 1):
        nxt = [mp.mpc(0)] + [1j * s**2 * c for c in polys[n]]
        for m, c in enumerate(polys[n - 1]):
            nxt[m] += n * s**2 * c
        polys.append(nxt)

    def moment(m, a):
        z = -1j * a / scale
        return mp.factorial(m) * mp.exp(z**2 / 4) * mp.pcfd(-m - 1, z) / scale ** (m + 1)

    plus = [moment(m, v + r0) for m in range(n_terms)]
    minus = [moment(m, v - r0) for m in range(n_terms)]
    # Im[e^(i w r0) m_n(w)] = (X - conj X)/2i
    return sum((-1) ** n / r0 ** (n + 1) * (c * plus[m] - mp.conj(c) * minus[m]) / 2j
               for n in range(n_terms) for m, c in enumerate(polys[n]))


def mp_smeared_kernel(mp, v, r0, delta, sigma):
    """<K(v; r)> over r = r0 + rho, rho ~ N(0, delta^2/2), by mpmath
    quadrature of the closed-form K(v; r) = [F(v + r) - F(v - r)]/(2ir)."""
    s = delta / mp.sqrt(2)

    def fourier(a):
        z = a / (mp.sqrt(2) * sigma)
        return mp.sqrt(mp.pi / 2) / sigma * mp.exp(-z * z) * mp.erfc(-1j * z)

    def f(rho):
        r = r0 + rho
        weight = mp.exp(-rho**2 / (2 * s * s)) / (s * mp.sqrt(2 * mp.pi))
        return weight * (fourier(v + r) - fourier(v - r)) / (2j * r)

    # the Gaussian beyond 12 s is below e^-72; K has features of width sigma
    # where v - r or v + r vanishes
    cuts = {-12 * s, 12 * s} | {p + k * 2 * sigma for p in (v - r0, -v - r0)
                                for k in range(-8, 9)}
    return mp.quad(f, sorted(c for c in cuts if abs(c) <= 12 * s))


class TestSeriesSmear:
    """The spatial smear from x = r0/delta = 9.5 on: one time-domain
    quadrature against a kernel summed in powers of delta/r0."""

    SIGMA = 1e-3

    @pytest.mark.parametrize("r0, delta", [(0.15, 0.015), (0.15, 0.0015), (1500.0, 1e-3),
                                           (0.15, 0.15 / 9.5)])
    def test_kernel_matches_mpmath(self, r0, delta):
        # nodes from the peak at v = r0 out to |v - r0| = 1e6 s, on both
        # sides of the switch to the moments' asymptotic expansion
        mpmath = pytest.importorskip("mpmath")
        columns, _ = core._make_series_kernel(r0 / delta, self.SIGMA, r0, 1.0, 1e-14)
        n = columns["near"][0].shape[2]
        s = delta / math.sqrt(2.0)
        with mpmath.workdps(60):
            for a in (0.0, 0.5, -3.0, 10.0, -14.0, 16.0, 40.0, -200.0, 1e3, 1e4, 1e6):
                u = a * s
                got = complex(core._moments(np.array([u]), r0, columns)[0])
                exact = complex(mp_series_kernel(mpmath.mp, mpmath.mpf(u) + r0, mpmath.mpf(r0),
                                                 mpmath.mpf(delta), mpmath.mpf(self.SIGMA), n))
                # far from both peaks the two shifts' terms, each about
                # |K| |u|/r0, cancel to K
                assert abs(got - exact) <= 3e-14 * abs(exact) * max(1.0, abs(u) / r0)

    def test_truncation_bound_holds(self):
        # at x = 10, against an mpmath average over separations: the bound on
        # the terms left out holds for a short series and for the one used
        mpmath = pytest.importorskip("mpmath")
        r0, delta = 0.15, 0.015
        s = delta / math.sqrt(2.0)
        with mpmath.workdps(20):
            for a in (-3.0, 14.0):
                u = a * s
                v = mpmath.mpf(u) + r0
                exact = mp_smeared_kernel(mpmath.mp, v, mpmath.mpf(r0), mpmath.mpf(delta),
                                          mpmath.mpf(self.SIGMA))
                for floor, terms in ((2.0, 4), (1e-14, 30)):
                    columns, bound = core._make_series_kernel(r0 / delta, self.SIGMA, r0, 1.0,
                                                              floor)
                    assert columns["near"][0].shape[2] == terms
                    series = mp_series_kernel(mpmath.mp, v, mpmath.mpf(r0), mpmath.mpf(delta),
                                              mpmath.mpf(self.SIGMA), terms)
                    assert 0.0 < abs(exact - series) <= bound
                    if terms == 4:
                        got = complex(core._moments(np.array([u]), r0, columns)[0])
                        assert abs(got - complex(exact)) <= bound

    @pytest.mark.parametrize("x", [9.5, 10.0, 15.0, 30.0])
    def test_routes_agree_where_both_converge(self, monkeypatch, x):
        s = fig_scenario(delta=0.15 / x)
        series = core._j_smeared_result(s, core.DEFAULT_SETTINGS)
        monkeypatch.setattr(core, "_SERIES_X0", math.inf)
        remainder = core._j_smeared_result(s, core.DEFAULT_SETTINGS)
        assert series.evaluations < remainder.evaluations
        assert abs(series.value - remainder.value) <= series.abs_error + remainder.abs_error

    @staticmethod
    def recorded_specs(monkeypatch):
        specs = []
        original = core.integrate_radial

        def recorded(spec, settings):
            specs.append(spec)
            return original(spec, settings)

        monkeypatch.setattr(core, "integrate_radial", recorded)
        return specs

    def test_far_row_builds_no_remainder(self, monkeypatch):
        # x = 100: one time-domain quadrature, with peaks at v = +-r0, and no
        # frequency remainder
        specs = self.recorded_specs(monkeypatch)
        compute_J_smeared(fig_scenario(delta=0.0015))
        (spec,) = specs
        assert [p for p, _ in spec.peaks] == [-0.3, 0.0]   # -+r0, measured from v = r0

    def test_row_needing_too_many_terms_takes_the_remainder(self, monkeypatch):
        # a tol_abs so small that the tail bound would need over
        # _SERIES_MAX_TERMS terms at x = 10
        specs = self.recorded_specs(monkeypatch)
        s = fig_scenario(delta=0.015)
        tight = replace(core.DEFAULT_SETTINGS, tol_abs=1e-30)
        assert core._make_series_kernel(10.0, 1e-3, 0.15, 0.01, 1e-32) is None
        core._j_smeared_result(s, tight)
        assert any(spec.peaks == envelope_peak(s) for spec in specs)

    def test_error_includes_the_tail_bound(self):
        s = fig_scenario(delta=0.0015)
        res = core._j_smeared_result(s, core.DEFAULT_SETTINGS)
        _, bound = core._make_series_kernel(100.0, 1e-3, 0.15, 0.1 * 0.1, 1e-14)
        pref = 0.01**2 / (4.0 * math.pi**2)
        assert res.abs_error >= pref * bound > 0.0

    def test_bound_beyond_tolerance_fails_the_row(self, monkeypatch):
        # a tail bound 1e6 times its own: every series row misses its
        # tolerance, while x = 5 takes the split route and stays ok
        original = core._make_series_kernel

        def loose(*args):
            columns, bound = original(*args)
            return columns, bound * 1e6

        monkeypatch.setattr(core, "_make_series_kernel", loose)
        message = "compute_J_smeared: the sum of its parts' errors misses the tolerance"
        rows = [(fig_scenario(delta=0.15 / x), None) for x in (5.0, 20.0, 100.0)]
        near, *far = core.evaluate_scenarios(rows)
        assert isinstance(near, core.HarvestReport)
        for out in far:
            assert isinstance(out, ConvergenceFailure)
            assert f"{type(out).__name__}: {out}" == f"ConvergenceFailure: {message}"
            assert out.best.abs_error > 1e-9 * abs(out.best.value)
        with pytest.raises(ConvergenceFailure, match=f"^{message}$"):
            compute_J_smeared(fig_scenario(delta=0.15 / 20.0))


class TestTimeSmearedCorrelation:
    def test_small_width_limit(self):
        s = fig_scenario()
        j0 = abs(compute_J(s))
        assert compute_J_time_smeared(s, 1e-4) == pytest.approx(j0, rel=1e-3)

    def test_monotone_decay_beyond_optimum(self):
        s = fig_scenario()
        vals = [compute_J_time_smeared(s, dt) for dt in (0.05, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_space_time_equivalence_is_qualitative(self):
        # both smears decay monotonically over matched widths
        s = fig_scenario()
        widths = (0.075, 0.15, 0.3)
        spatial = [compute_J_smeared(replace(s, position_uncertainty=d)) for d in widths]
        temporal = [compute_J_time_smeared(s, d) for d in widths]
        assert all(a > b for a, b in zip(spatial, spatial[1:]))
        assert all(a > b for a, b in zip(temporal, temporal[1:]))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            compute_J_time_smeared(fig_scenario(), 0.0)

    @pytest.mark.parametrize("entry", ["compute_J_time_smeared", "evaluate_scenario"])
    @pytest.mark.parametrize("delta, dt, message", [
        (0.15, 0.005, "spatial and temporal smearing are exclusive"),  # delta = r0
        (0.15, 0.0, "spatial and temporal smearing are exclusive"),
        (0.0, 0.0, "delta_t must be > 0"),
        (0.0, -0.005, "delta_t must be > 0"),
        (0.0, math.nan, "delta_t must be > 0"),
    ])
    def test_both_entry_points_reject_before_any_quadrature(self, monkeypatch, entry, delta,
                                                            dt, message):
        # one route to the clock smear checks both of its inputs first
        calls = []
        monkeypatch.setattr(core, "integrate_radial", lambda *args: calls.append(args))
        s = fig_scenario(delta=delta)
        with pytest.raises(ValueError, match=message):
            if entry == "compute_J_time_smeared":
                compute_J_time_smeared(s, dt)
            else:
                evaluate_scenario(s, time_smear=dt)
        assert calls == []

    def test_both_entry_points_return_one_checked_sum(self, monkeypatch):
        # a clock smear is a sum of one clock part with no extra error, as
        # the series route's: in a row and alone, with no ``_single`` call
        sums, original = [], core._sum_request

        def recorded(plan, parts, pref, extra):
            total = original(plan, parts, pref, extra)

            def value():
                sums.append(([(w, plan.members[key].kind) for w, key in parts], extra, total()))
                return sums[-1][2]
            return value

        def single(member, settings):
            raise AssertionError("a smear took the single-integral route")

        monkeypatch.setattr(core, "_sum_request", recorded)
        monkeypatch.setattr(core, "_single", single)
        s = fig_scenario()
        smeared = compute_J_time_smeared(s, 0.005)
        report = evaluate_scenario(s, time_smear=0.005)
        assert [(parts, extra) for parts, extra, _ in sums] == [([(1.0, "clock")], 0.0)] * 2
        assert smeared == abs(sums[0][2].value) == report.j_smeared_abs
        assert report.integrals.j == sums[1][2].value
        assert report.quad_errors["j_smeared"] == sums[1][2].abs_error


def clock_J_gauss_hermite(s, dt, nodes=161):
    """Average the correlation term over clock offsets tau ~ N(0, dt^2/2) of
    B's window by Gauss-Hermite over the public ``compute_J``.  A reference
    only while every offset keeps the windows apart, where J is smooth in
    the offset."""
    u, w = hermgauss(nodes)
    js = [compute_J(replace(s, det_b=replace(s.det_b, window=s.det_b.window.shifted(dt * ui))))
          for ui in u]
    return complex(np.sum(w * np.array(js)) / math.sqrt(math.pi))


class TestClockOffsetSmear:
    """Every clock offset is the exact Gaussian average of the window factor
    in one time-domain quadrature, checked against the nested
    Gauss-Legendre average of ``oracles.oracle_J_clock``."""

    SIGMA = 0.1
    EARLY, LATE = (0.0, 1.0), (3.5, 4.5)

    def check(self, s, dt, first_panel):
        rep = evaluate_scenario(s, time_smear=dt)
        assert rep.smearing_method == "closed-form-time"
        ref = oracles.oracle_J_clock(s, dt, first_panel)
        assert abs(rep.integrals.j - ref) <= 1e-10 * abs(ref)
        assert compute_J_time_smeared(s, dt) == rep.j_smeared_abs
        assert 0.0 < rep.quad_errors["j_smeared"] <= 1e-9 * rep.j_smeared_abs
        return rep

    @pytest.mark.parametrize("first", ["A", "B"])
    @pytest.mark.parametrize("widths", [1, 5])
    def test_closed_form_matches_gauss_hermite(self, first, widths):
        # windows 25 sigma apart: offsets of up to 5 sigma keep them apart, so
        # J is smooth in the offset and 161-node Gauss-Hermite resolves it
        wa, wb = (self.EARLY, self.LATE) if first == "A" else (self.LATE, self.EARLY)
        s = scenario(wa=wa, wb=wb, r0=1.0, sigma=self.SIGMA, gap_a=0.8, gap_b=1.3,
                     coupling=0.05)
        dt = widths * self.SIGMA
        rep = self.check(s, dt, 0.25 * self.SIGMA)
        gh = clock_J_gauss_hermite(s, dt)
        assert abs(rep.integrals.j - gh) <= 1e-10 * abs(gh)

    def test_offsets_reaching_overlap_match_oracle(self):
        # gap/dt = 0.4: a third of the offsets make the windows overlap
        s = scenario(wa=(0.0, 1.0), wb=(1.2, 2.2), r0=1.0, sigma=self.SIGMA,
                     coupling=0.05)
        self.check(s, 0.5, 0.25 * self.SIGMA)

    @pytest.mark.parametrize("widths", [20, 40])
    def test_reference_geometry_matches_oracle(self, widths):
        # reference geometry, windows 50 sigma apart: offsets of 20 and 40
        # sigma reach an overlap, where J is not smooth in the offset; the
        # 41-node Gauss-Hermite rule is off there by 1e-3 and 4e-3
        s = fig_scenario()
        dt = widths * 0.001
        rep = self.check(s, dt, 0.004)
        gh = clock_J_gauss_hermite(s, dt, nodes=41)
        assert abs(gh - rep.integrals.j) > 1e-4 * abs(rep.integrals.j)

    def test_overlapping_windows_route_like_evaluate_scenario(self):
        s = scenario(wa=(0.0, 1.0), wb=(0.5, 1.5), r0=1.0, sigma=self.SIGMA,
                     coupling=0.05)
        self.check(s, 0.2, 0.25 * self.SIGMA)


class TestQuadratureCost:
    """The time-domain quadratures cost a few hundred evaluations at the
    reference geometry; the bounds sit far below the 3,000-9,000 of a
    frequency-domain quadrature there, so a fallback to one fails."""

    def test_evaluations_at_reference_geometry(self):
        s = fig_scenario()
        settings = core.DEFAULT_SETTINGS
        assert core._single(core._i_nn_member(s.det_a), settings).evaluations <= 300
        i_ab, j = core._single(core._time_member("pair", s.det_a, s.det_b, s.separation),
                               settings)
        assert i_ab.evaluations == j.evaluations <= 700
        for dt in (0.005, 0.02, 0.04):
            assert core._j_smeared_result(s, settings, dt).evaluations <= 1100

    @pytest.mark.parametrize("name", ["i_nn", "pair", "c"]
                             + [f"pair-{r}" for r in (45.0, 49.9, 250.5, 255.0)]
                             + [f"series-{d}" for d in (1.5, 3.5, 10.0)]
                             + [f"clock-{dt}-{w}" for dt in (1.0, 5.0, 20.0)
                                for w in ("disjoint", "overlap")])
    def test_reference_integral_ends_on_its_first_partition(self, name):
        # the first partition resolves each integrand's features: the kernel
        # peaks at their own width (a series kernel's is wider than sigma),
        # the Gaussian core's edge and the kinks a clock spread smooths, so
        # the quadrature meets its tolerance with no refinement round; pair-r
        # puts the kernel peak at v = r just outside the pair's support [50,
        # 250] sigma, graded from the nearer end
        kind, *args = name.split("-")
        s = fig_scenario()
        if "overlap" in args:
            s = replace(s, det_b=replace(s.det_b, window=SwitchingWindow(0.05, 0.15)))
        sigma = s.det_a.smearing
        if kind == "i_nn":
            member = core._i_nn_member(s.det_a)
        elif kind == "pair":
            r = float(args[0]) * sigma if args else s.separation
            member = core._time_member("pair", s.det_a, s.det_b, r)
        elif kind in ("c", "series"):
            # C at x = r0/delta = 1, after the frequency remainder; a series
            # row's one member
            delta = float(args[0]) * sigma if args else s.separation
            plan = core._Plan(core.DEFAULT_SETTINGS)
            core._smear(replace(s, position_uncertainty=delta), None, plan)
            *_, member = plan.members.values()
            assert [m.kind for m in plan.members.values()] == (
                ["series"] if kind == "series" else ["remainder", "c"])
        else:
            member = core._time_member("clock", s.det_a, s.det_b, s.separation,
                                       float(args[0]) * sigma)
        res = integrate_radial(member.spec)
        assert res.evaluations == 15 * (_initial_panels(member.spec).size - 1)

    def test_peaks_closer_than_their_width_are_one(self):
        # at r = 1e-6 sigma K(v; r)'s peaks at +-r are one feature of width
        # sigma: the pair's first partition grades once from v = 0, with no
        # panel 2r wide
        with pytest.warns(UserWarning, match="detector overlap"):
            s = fig_scenario(r0=1e-9)
        edges = _initial_panels(core._time_member("pair", s.det_a, s.det_b, s.separation).spec)
        assert edges.size - 1 == 4
        assert np.diff(edges).min() >= s.det_a.smearing

    @staticmethod
    def count_quadratures(monkeypatch):
        # every integral, whether it runs alone or in a lockstep group
        calls = []
        alone, together = core.integrate_radial, core.integrate_lockstep

        def counted(spec, settings):
            calls.append(spec)
            return alone(spec, settings)

        def counted_group(specs, evaluate, settings):
            calls.extend(specs)
            return together(specs, evaluate, settings)

        monkeypatch.setattr(core, "integrate_radial", counted)
        monkeypatch.setattr(core, "integrate_lockstep", counted_group)
        return calls

    @pytest.mark.parametrize("delta, time_smear, quadratures", [
        (0.0, None, 2),     # one I_nn for the two equal detectors, one I_AB/J pass
        (0.0, 0.005, 3),    # and the clock-smeared J
        (0.15, None, 4),    # and the spatial smear's C and remainder, at delta = r0
    ])
    def test_quadratures_per_point(self, monkeypatch, delta, time_smear, quadratures):
        calls = self.count_quadratures(monkeypatch)
        evaluate_scenario(fig_scenario(delta=delta), time_smear=time_smear)
        assert len(calls) == quadratures

    def test_unequal_durations_compute_both_local_terms(self, monkeypatch):
        calls = self.count_quadratures(monkeypatch)
        evaluate_scenario(scenario(wa=(0.0, 0.1), wb=(0.15, 0.24), r0=0.15, sigma=0.001,
                                   coupling=0.01))
        assert len(calls) == 3

    @pytest.mark.parametrize("compute", [
        lambda s, settings: compute_I_nn(s.det_a, settings),
        compute_I_AB,
        compute_J,
    ], ids=["I_nn", "I_AB", "J"])
    def test_public_integral_raises_its_failure(self, compute):
        # a budget of one panel: the first partition alone exceeds it
        with pytest.raises(ConvergenceFailure, match="evaluation budget 15 exhausted"):
            compute(fig_scenario(), QuadratureSettings(eval_budget=15))

    def test_pair_pass_costs_what_each_integral_did(self):
        # I_AB and J, each 300 evaluations as separate quadratures, share them
        s = fig_scenario()
        i_ab, j = core._single(core._time_member("pair", s.det_a, s.det_b, 0.15),
                               core.DEFAULT_SETTINGS)
        assert i_ab.evaluations == j.evaluations == 300

    def test_single_core(self):
        # the panel sums must not wake a BLAS thread pool: process CPU time
        # stays close to wall time (on one CPU this holds trivially)
        s = fig_scenario()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(20):
            compute_J(s)
        ratio = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        assert ratio <= 1.3


class TestTimeDomainKernels:
    """The closed forms of the time-domain integrals against direct sums."""

    @staticmethod
    def kernel_by_quadrature(v, r, sigma):
        # Gauss-Legendre over [0, 12/sigma] in panels a tenth of a period wide
        top = 12.0 / sigma
        w, wt = oracles._panel_rule(np.linspace(0.0, top, 200 + int(top * (r + abs(v)))), 20)
        radial = np.sin(w * r) / r if r else w
        return complex(np.sum(wt * radial * np.exp(-0.5 * (w * sigma) ** 2 + 1j * w * v)))

    @pytest.mark.parametrize("v, r", [(0.0, 0.3), (0.29, 0.3), (-0.31, 0.3), (1.7, 0.3),
                                      (0.05, 0.0), (-0.4, 0.0), (0.2, 1e-9)])
    def test_kernel_matches_frequency_integral(self, v, r):
        sigma = 0.05
        ref = self.kernel_by_quadrature(v, r, sigma)
        columns = core._separation_columns(r, sigma)
        for shift in (0.0, r, -r):
            got = core._moments(np.array([v - shift]), shift, columns)[0]
            assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_kernel_is_continuous_across_the_series_switch(self):
        # K(v; r) is its series in r below r = 0.1 sigma and the difference
        # of two F from there on: the float just below the switch and the
        # switch itself agree within 1e-13 near the peak, and out to
        # |v| = 1e4 sigma within the difference form's cancellation, about
        # eps*|v|/r (9.7e-12 there)
        sigma = 0.01
        v = sigma * np.array([0.0, 0.3, -2.0, 7.0, -15.5, 40.0, 1e3, -1e4])
        switch = core._SMALL_R * sigma
        below, above = (core._separation_columns(r, sigma) for r in (math.nextafter(switch, 0.0),
                                                                     switch))
        assert "split" in below and "split" not in above
        for shift in (0.0, switch):
            k_below, k_above = (core._moments(v - shift, shift, c) for c in (below, above))
            bound = 1e-13 + 2.0 * np.finfo(float).eps * np.abs(v) / switch
            assert np.all(np.abs(k_below - k_above) <= bound * np.abs(k_above))

    def test_kernel_far_series(self):
        # K(v; 0) = G_1 = (1 + i sqrt(pi) x w(x))/sigma^2, x = v/(sqrt(2) sigma),
        # read from K(v; r)'s columns at r = 0, on both sides of the switch
        # to the moments' expansion at |v|/sigma = 15 (x = 10.6) and beyond
        # it, where the closed form's
        # real part would cancel to about eps*x^2, against 40-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        sigma = 1.0
        xs = (0.3, -2.0, 7.0, 10.5, 10.65, 15.0, 19.7, 19.9, 20.1, 35.0, 400.0, -1e4)
        got = core._moments(np.array(xs) * math.sqrt(2.0) * sigma, 0.0,
                            core._separation_columns(0.0, sigma))
        with mpmath.workdps(40):
            for x, g in zip(xs, got):
                x = mpmath.mpf(x)
                w = mpmath.exp(-x * x) * mpmath.erfc(-1j * x)
                exact = complex((1 + 1j * mpmath.sqrt(mpmath.pi) * x * w) / sigma**2)
                assert abs(g - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("r", [0.0, 3e-5, 1e-3, 0.05, 0.0999])
    def test_small_r_series_matches_mpmath(self, r):
        # below r = 0.1 sigma K(v; r) is its series in r, against
        # [F(v + r) - F(v - r)]/(2ir) (G_1 at r = 0) in 40-digit mpmath, near
        # the peak, on both sides of the switch to the moments' expansion at
        # |v| = 15 sigma and out to 1e6 sigma, measured from v = 0 and from
        # the peak at v = r.  The worst, about 1.1e-13 at r = 0.0999 sigma, is
        # just inside that switch, where G_1 itself reads 6e-14
        mpmath = pytest.importorskip("mpmath")
        sigma = 1.0
        vs = np.array([0.0, 0.3, -1.0, 2.5, -7.0, 14.58, 14.9, 15.1, -40.0, 300.0, -1e4, 1e6, -1e6])
        columns = core._separation_columns(r * sigma, sigma)
        assert "split" in columns
        with mpmath.workdps(40):
            s, rr = mpmath.mpf(sigma), mpmath.mpf(r * sigma)

            def w(z):
                return mpmath.exp(-z * z) * mpmath.erfc(-1j * z)

            def f(a):
                return mpmath.sqrt(mpmath.pi / 2) / s * w(a / (mpmath.sqrt(2) * s))

            exact = []
            for v in map(mpmath.mpf, vs.tolist()):
                if r == 0.0:
                    x = v / (mpmath.sqrt(2) * s)
                    exact.append(complex((1 + 1j * mpmath.sqrt(mpmath.pi) * x * w(x)) / s**2))
                else:
                    exact.append(complex((f(v + rr) - f(v - rr)) / (2j * rr)))
        exact = np.array(exact)
        for shift in (0.0, r * sigma):
            got = core._moments(vs - shift, shift, columns)
            assert np.all(np.abs(got - exact) <= 1.5e-13 * np.abs(exact))

    def test_unsmeared_kernels_are_bit_identical(self):
        # F and K(v; r) keep the closed forms' arithmetic exactly, which keeps
        # every unsmeared output byte-identical: nodes over fig2a's supports
        # (v from 50 to 250 sigma, peaks at v = +-r) for its r range
        rng = np.random.default_rng(20)
        sigma = 1e-3
        fourier = core._fourier_columns(sigma)
        for r in (10 * sigma, 150 * sigma, 400 * sigma):
            columns = core._separation_columns(r, sigma)
            v = np.concatenate([rng.uniform(-0.3, 0.5, 400),
                                rng.normal(r, 3 * sigma, 100), rng.normal(-r, 3 * sigma, 100)])
            for shift in (0.0, r, -r):
                u = v - shift
                assert np.array_equal(core._moments(u, shift, columns),
                                      oracles.kernel_reference(u, shift, r, sigma))
                assert np.array_equal(core._moments(u, shift, fourier),
                                      oracles.fourier_reference(u, shift, sigma))

    def test_stacked_series_kernels_are_bit_identical(self):
        # kernels of four widths, their nodes interleaved at random and then
        # alternating node by node, near both peaks and past the switch to
        # the moments' expansion: each node is what its own kernel gives
        # alone; and one member's nodes at both peaks in one call are what
        # each node gives in a call of its own
        sigma, r0 = 1e-3, 0.15
        members = [core._make_series_kernel(x, sigma, r0, 1.0, 1e-14)[0]
                   for x in (9.5, 12.0, 30.0, 100.0)]
        assert len({m["near"][0].shape[-1] for m in members}) == len(members)
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.normal(0.0, 0.02, 300), rng.normal(-2 * r0, 0.02, 300)])
        for owner in (rng.integers(len(members), size=600), np.arange(600) % len(members)):
            got = core._moments(u, r0, dict(core._take(core._stack(members), owner), place=owner))
            for i, columns in enumerate(members):
                assert np.array_equal(got[owner == i], core._moments(u[owner == i], r0, columns))
        lone = core._moments(u, r0, members[0])
        assert lone.tolist() == [core._moments(u[i:i + 1], r0, members[0])[0] for i in range(600)]

    @pytest.mark.parametrize("rs", [(0.0, 1e-9, 1e-6, 9e-5), (1e-4, 0.01, 0.1)],
                             ids=["series", "difference"])
    def test_stacked_separation_kernels_are_bit_identical(self, rs):
        # K(v; r) at separations of one form, its series in r below
        # r = 0.1 sigma or the difference of two F from there on, their
        # nodes interleaved and measured from the peak at v = r, near it and
        # past the series' switch to the moments' expansion: each node is
        # what its own member gives alone
        sigma = 1e-3
        members = [core._separation_columns(r, sigma) for r in rs]
        rng = np.random.default_rng(5)
        owner = rng.integers(len(rs), size=900)
        v = rng.choice([-1.0, 1.0], 900) * 10.0 ** rng.uniform(-5.0, 4.5, 900)
        shift = np.array(rs)[owner]
        u = v - shift
        stacked = core._stack(members)
        assert stacked["scale"] == sigma and stacked.keys() == members[0].keys()
        got = core._moments(u, shift, dict(core._take(stacked, owner), place=owner))
        for i, r in enumerate(rs):
            mine = owner == i
            assert np.array_equal(got[mine], core._moments(u[mine], r, members[i]))

    def test_stack_refuses_members_of_two_forms(self):
        # a group holds one table form: K(v; r)'s series below 0.1 sigma and
        # its difference form above cannot be read as one set of columns,
        # and the fault is not a row's (outside ROW_ERRORS)
        members = [core._separation_columns(r, 1e-3) for r in (1e-5, 1e-2)]
        with pytest.raises(TypeError, match="members of keys"):
            core._stack(members)
        assert not issubclass(TypeError, core.ROW_ERRORS)
        s = fig_scenario()
        group = [core._time_member("pair", s.det_a, s.det_b, r) for r in (1e-5, 1e-2)]
        with pytest.raises(TypeError, match="members of keys"):
            core._run_group(group, core.DEFAULT_SETTINGS)

    def test_polynomial_path_is_pinned(self):
        # frozen, to the last bit, from the kernel that summed each member's
        # polynomial rows one einsum per row: two series members of 32 and
        # 14 terms in one group, their nodes in runs of one member on both
        # sides of each one's switch to the moments' expansion; one series
        # member of 18 terms alone.  K(v; r) at r = 3e-5 sigma is frozen from
        # its series in r, on both sides of its switch to the moments'
        # expansion at |v| = 15 sigma, each value within 1.4e-14 of 40-digit
        # mpmath
        sigma, r0 = 1e-3, 0.15
        u = np.array([-0.45, -0.31, -0.3, -0.29, -0.02, 0.0, 0.01, 0.2])
        members = [core._make_series_kernel(x, sigma, r0, 1.0, 1e-14)[0] for x in (9.5, 40.0)]
        assert [m["near"][0].shape[-1] for m in members] == [32, 14]
        owner = np.repeat([0, 1], 4)
        group = core._moments(u, r0, dict(core._take(core._stack(members), owner), place=owner))
        assert group.tolist() == [
            -14.88068236883542 - 5.112660482686938e-38j, -202.17210557503904 - 234.82329642591233j,
            -10.950555623432122 - 372.7092103607344j, 207.33184207694333 - 268.0867565636854j,
            182.62271970607284 + 2.5548213561869763e-08j, -8.345536171977706 + 1474.225814118863j,
            -359.14671262130673 + 2.7551645536392564j, -10.00172689463689 - 0j]
        lone = core._make_series_kernel(20.0, sigma, r0, 1.0, 1e-14)[0]
        assert core._moments(u, r0, lone).tolist() == [
            -14.83022679867688 - 3.2203219066936783e-166j, -403.9620475828721 - 130.66416130981767j,
            -10.352357357240049 - 774.1486450899849j, 437.40412536092055 - 148.64712480797277j,
            197.89581929360273 + 0.9255725258027769j, -10.352357357240049 + 774.1486450899849j,
            -403.96204758287234 + 130.66416130981804j, -10.00574555138212 - 0j]
        r, v = 3e-8, np.array([0.0, 0.002, -0.0035, 0.01, -0.02, 0.05])
        assert core._moments(v - r, r, core._separation_columns(r, sigma)).tolist() == [
            999999.9996999999 + 0j, -279976.1490228143 + 339235.2475669737j,
            -118769.6537887588 - 9595.647416161431j, -10316.156491959828 + 2.417329486970461e-15j,
            -2518.9885714769784 + 0j, -400.48096269786436 + 0j]

    def test_stack_keeps_one_object_and_signed_zeros(self):
        # a value every member holds as one object stays that object, and
        # numbers of equal bits made apart stay one value; equal numbers of
        # other bits become a column, so 0.0 and -0.0 keep their signs, and
        # tables one tuple of every member's
        one, table = {"g": 1.5}, (np.ones(2),)
        members = [dict(one=one, table=table, zero=z, own=(np.full(2, z),), same=math.sqrt(2.0))
                   for z in (0.0, -0.0)]
        assert members[0]["same"] is not members[1]["same"]
        stacked = core._stack(members)
        assert stacked["one"] is one and stacked["table"] is table
        assert stacked["same"] is members[0]["same"]
        assert np.array_equal(np.signbit(stacked["zero"]), [False, True])
        assert [t is m["own"][0] for t, m in zip(stacked["own"], members)] == [True, True]
        assert core._stack([members[0], members[0]]) is members[0]
        taken = core._take(stacked, np.array([1, 0, 1]))
        assert np.array_equal(np.signbit(taken["zero"]), [True, False, True])
        assert taken["one"] == one and taken["own"] is stacked["own"]

    def test_member_params_hold_only_data(self):
        # ``_stack`` and ``_take`` read numbers, bools, tuples of tables and
        # dicts of these: one plan
        # over fig3's rows (pair, series, C, remainder, I_nn), a clock row
        # and a smeared row whose windows overlap
        cfg = figure_config("fig3")
        rows = [_apply_parameter(cfg.scenario, "delta", float(d)) for d in sweep_values(cfg.sweep)]
        rows += [(fig_scenario(), 0.03),
                 _apply_parameter(fig_scenario(delta=0.03), "gap", -0.05)]
        plan = core._Plan(core.DEFAULT_SETTINGS)
        for s, time_smear in rows:
            core._row_request(s, time_smear, plan)
        members = list(plan.members.values())
        assert {m.kind for m in members} == {"pair", "clock", "series", "c", "remainder", "i_nn"}

        def data(value) -> bool:
            if isinstance(value, dict):
                return all(data(v) for v in value.values())
            if isinstance(value, tuple):
                return all(isinstance(table, np.ndarray) for table in value)
            return isinstance(value, (numbers.Number, np.bool_))

        for m in members:
            assert data(m.params), m.kind

    def test_kernel_width_has_one_source(self, monkeypatch):
        # a detector pair's members read its kernel width from ``_pair``
        # alone: doubled there, every pair, clock, series, C and remainder
        # member carries 2 sigma (a series kernel's scale is
        # sqrt((2 sigma)^2 + delta^2/2)), while I_nn, a local term read from
        # its own detector, keeps sigma
        original = core._pair

        def doubled(da, db):
            t0, sigma, windows = original(da, db)
            return t0, 2.0 * sigma, windows

        monkeypatch.setattr(core, "_pair", doubled)
        cfg = figure_config("fig3")
        sigma = cfg.scenario.det_a.smearing
        rows = [_apply_parameter(cfg.scenario, "delta", float(d)) for d in sweep_values(cfg.sweep)]
        plan = core._Plan(core.DEFAULT_SETTINGS)
        kinds = set()
        for s, time_smear in rows + [(fig_scenario(), 0.03)]:
            before = len(plan.members)
            core._row_request(s, time_smear, plan)
            for m in list(plan.members.values())[before:]:
                kinds.add(m.kind)
                if m.kind == "i_nn":
                    assert m.params["scale"] == sigma
                elif m.kind == "remainder":
                    assert m.params["sigma"] == 2.0 * sigma
                elif m.kind == "series":
                    assert m.params["scale"] == pytest.approx(
                        math.sqrt(4.0 * sigma**2 + 0.5 * s.position_uncertainty**2), rel=1e-12)
                else:
                    assert m.params["scale"] == 2.0 * sigma, m.kind
        assert kinds == {"pair", "clock", "series", "c", "remainder", "i_nn"}

    def test_damped_erf(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x, y in [(0.0, 0.3), (1.2, 0.0), (-0.7, 2.5), (3.0, -1.5), (-40.0, 30.0),
                     (6.0, 25.0), (-0.01, 1e-3)]:
            exact = complex(mpmath.exp(-mpmath.mpf(y) ** 2) * mpmath.erf(mpmath.mpc(x, -y)))
            got = complex(_damped_erf(np.array([x]), np.float64(y))[0])
            assert abs(got - exact) <= 1e-13 * max(abs(exact), math.exp(-y * y))

    def test_window_factor_matches_time_integral(self):
        a, b = (0.0, 1.0), (0.4, 1.7)
        x, wt = np.polynomial.legendre.leggauss(60)
        for v in (-0.5, -0.2, 0.3, 0.6, 1.5):
            lo, hi = max(a[0], b[0] - v), min(a[1], b[1] - v)
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            direct = 0.5 * (hi - lo) * np.sum(wt * np.exp(1j * 0.8 * t + 1j * 1.3 * (t + v)))
            assert abs(core._window(np.array([v]), a, b, 0.8, 1.3)[0] - direct) < 1e-14
        assert core._window(np.array([-1.0, 1.8]), a, b, 0.8, 1.3).tolist() == [0.0, 0.0]

    def test_clock_window_matches_offset_average(self):
        # Gauss-Legendre over offsets tau, split where the window ends switch
        a, b, g_a, g_b, dt = (0.0, 1.0), (0.4, 1.7), 0.8, 1.3, 0.3
        x, wt = np.polynomial.legendre.leggauss(40)
        for v in (-1.5, -0.6, 0.3, 0.9, 2.4):
            cuts = sorted({-3.0, 3.0} | {c for c in (v - b[1] + a[0], v - b[0] + a[0],
                                                     v - b[1] + a[1], v - b[0] + a[1])
                                         if abs(c) < 3.0})
            direct = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                tau = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
                m = np.exp(1j * g_b * tau) * core._window(v - tau, a, b, g_a, g_b)
                p = np.exp(-(tau / dt) ** 2) / (dt * math.sqrt(math.pi))
                direct += 0.5 * (hi - lo) * np.sum(wt * p * m)
            got = core._clock_window(np.array([v]), a, b, g_a, g_b, dt)[0]
            assert abs(got - direct) < 1e-13


class TestReportedErrors:
    """Each reported error bounds its integral's true error, on every route
    of the correlation term: the truth is the same scenario at tolerances
    far below the default ones, within its own reported error."""

    TRUTH = QuadratureSettings(tol_abs=1e-20, tol_rel=1e-12, eval_budget=10**7)

    @staticmethod
    def rows(n=200, seed=2015):
        # a quarter each: unsmeared, clock (dt 1 to 100 sigma), the series
        # route (x = r0/delta 9.6 to 100) and the frequency route (x 0.1 to
        # 9.4); gaps 1 to 32, unequal in half of the pairs; windows 50 to
        # 1000 sigma long, B's starting within 300 sigma of A's, so that
        # both orders and overlaps occur; r0 from 5 sigma, the least
        # separation ``Scenario`` takes as free of detector overlap, to 500
        rng = np.random.default_rng(seed)
        sigma = 0.001
        rows = []
        for i in range(n):
            gap_a, gap_b = 2.0 ** rng.uniform(0.0, 5.0, 2)
            t_a, t_b = 50.0 * sigma * 20.0 ** rng.uniform(0.0, 1.0, 2)
            b_on = sigma * rng.uniform(-300.0, 300.0)
            r0 = 5.0 * sigma * 100.0 ** rng.uniform()
            u = rng.uniform()
            route = i % 4
            delta = r0 / (9.6 * (100.0 / 9.6) ** u) if route == 2 else (
                r0 / (0.1 * 94.0 ** u) if route == 3 else 0.0)
            s = scenario(wa=(0.0, t_a), wb=(b_on, b_on + t_b), r0=r0, sigma=sigma, delta=delta,
                         gap_a=gap_a, gap_b=gap_a if i % 8 < 4 else gap_b, coupling=0.01)
            rows.append((s, sigma * 100.0 ** u if route == 1 else None))
        return rows

    @staticmethod
    def values(rep) -> dict:
        ints = rep.integrals
        out = {"i_aa": ints.i_aa, "i_bb": ints.i_bb, "i_ab": ints.i_ab, "j": rep.j_unsmeared}
        if "j_smeared" in rep.quad_errors:
            out["j_smeared"] = ints.j
        return out

    def check(self, rows) -> set:
        """The names of the values checked on rows."""
        checked = set()
        for (s, dt), rep, truth in zip(rows, core.evaluate_scenarios(rows),
                                       core.evaluate_scenarios(rows, self.TRUTH)):
            exact = self.values(truth)
            for name, value in self.values(rep).items():
                error = abs(value - exact[name])
                assert error <= rep.quad_errors[name] + truth.quad_errors[name], (name, s, dt)
                checked.add(name)
        return checked

    def test_reported_errors_bound_true_errors(self):
        assert self.check(self.rows()) == {"i_aa", "i_bb", "i_ab", "j", "j_smeared"}

    def test_series_route_boundary(self, monkeypatch):
        # both sides of the series route's least x = r0/delta, _SERIES_X0:
        # the series from x = 9.5 on, with windows T long and g apart; and
        # two frequency-route rows below it, where the series' reported
        # error would miss its true one by more than 3 times
        sigma = 0.001
        grid = [(t, g, r0, x) for x in (9.5, 10.0, 12.0) for t in (100.0, 1000.0)
                for g in (0.0, 50.0) for r0 in (10.0, 150.0)]
        rows = [(scenario(wa=(0.0, t * sigma), wb=((t + g) * sigma, (2.0 * t + g) * sigma),
                          r0=r0 * sigma, sigma=sigma, delta=r0 * sigma / x, coupling=0.01), None)
                for t, g, r0, x in grid + [(10.0, 50.0, 150.0, 7.0), (100.0, 0.0, 150.0, 7.75)]]
        kinds = []
        run_group = core._run_group

        def recorded(members, settings):
            if settings != self.TRUTH:  # the truth may take either route
                kinds.extend(m.kind for m in members)
            return run_group(members, settings)

        monkeypatch.setattr(core, "_run_group", recorded)
        assert "j_smeared" in self.check(rows)
        assert kinds.count("series") == len(grid) and kinds.count("remainder") == 2

    def test_error_that_overflows_fails_its_slot(self):
        # a finite prefactor times a finite quadrature error can still
        # overflow: the member's slot holds that ValueError, which its rows
        # record, and the run goes on
        step = IntegrandSpec(evaluate=lambda x: np.where(x < 0.5, 0.0, 1e3) + 0j,
                             support=(0.0, 1.0))
        member = core._Member("i_nn", step, {}, 1.7e308, (0.0,), 0.0)
        (slot,) = core._run_group([member], QuadratureSettings(tol_abs=1e3))
        assert type(slot) is ValueError and "abs_error must be finite" in str(slot)


class TestTimeShiftInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        a_on=st.floats(-1.0, 1.0),
        a_len=st.floats(0.3, 1.5),
        b_lag=st.floats(-1.5, 2.0),
        b_len=st.floats(0.3, 1.5),
        gap_a=st.floats(0.5, 2.0),
        gap_b=st.floats(0.5, 2.0),
        r0=st.floats(0.5, 2.0),
        shift=st.floats(0.0, 30.0),
        delta_rel=st.floats(0.01, 3.0),
        dt_rel=st.floats(0.5, 20.0),
    )
    def test_common_window_shift(self, a_on, a_len, b_lag, b_len, gap_a, gap_b, r0, shift,
                                 delta_rel, dt_rel):
        def at(t):
            wa = (a_on + t, a_on + t + a_len)
            wb = (a_on + t + b_lag, a_on + t + b_lag + b_len)
            return scenario(wa=wa, wb=wb, r0=r0, sigma=0.1, gap_a=gap_a, gap_b=gap_b,
                            coupling=0.05)

        s0, s1 = at(0.0), at(shift)
        rep0, rep1 = evaluate_scenario(s0), evaluate_scenario(s1)
        i0, i1 = rep0.integrals, rep1.integrals
        assert i1.i_aa == pytest.approx(i0.i_aa, rel=1e-12)
        assert i1.i_bb == pytest.approx(i0.i_bb, rel=1e-12)
        assert abs(i1.i_ab) == pytest.approx(abs(i0.i_ab), rel=1e-12)
        assert abs(i1.j) == pytest.approx(abs(i0.j), rel=1e-12)
        # the negativity is a difference of terms of size i_aa + i_bb + 2|j|
        scale = i0.i_plus + 2.0 * abs(i0.j)
        assert abs(rep1.negativity_raw - rep0.negativity_raw) <= 1e-12 * scale
        # the shift is a constant phase on the exchange and correlation terms
        ab_phase = np.exp(1j * (gap_b - gap_a) * shift)
        j_phase = np.exp(1j * (gap_a + gap_b) * shift)
        assert abs(i1.i_ab - i0.i_ab * ab_phase) <= 1e-12 * abs(i0.i_ab)
        assert abs(i1.j - i0.j * j_phase) <= 1e-12 * abs(i0.j)
        # and the cost of the correlation term does not grow with it
        evals0, evals1 = (core._single(core._time_member("pair", s.det_a, s.det_b, r0),
                                       core.DEFAULT_SETTINGS)[1].evaluations for s in (s0, s1))
        assert evals1 <= evals0
        # both smeared correlation terms carry the same phase, and the spatial
        # smear costs no more
        delta, dt = delta_rel * r0, dt_rel * 0.1
        sm0, sm1 = (core._j_smeared_result(replace(s, position_uncertainty=delta),
                                           core.DEFAULT_SETTINGS) for s in (s0, s1))
        ck0, ck1 = (core._j_smeared_result(s, core.DEFAULT_SETTINGS, dt) for s in (s0, s1))
        for res0, res1 in ((sm0, sm1), (ck0, ck1)):
            assert abs(res1.value) == pytest.approx(abs(res0.value), rel=1e-12)
            assert abs(res1.value - res0.value * j_phase) <= 1e-12 * abs(res0.value)
        assert sm1.evaluations <= sm0.evaluations


class TestStateAssembly:
    def test_vacuum_state(self):
        rho = assemble_rho(SecondOrderIntegrals(0.0, 0.0, 0.0, 0.0))
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = 1.0
        assert np.array_equal(rho, expect)

    def test_diagonal_substitution(self):
        rho = assemble_rho(SecondOrderIntegrals(1e-4, 1e-4, 0.0, 0.0))
        assert np.allclose(np.diag(rho),
                           [1.0 - 2e-4, 1e-4, 1e-4, 0.0], atol=1e-18)

    def test_trace_one_by_construction(self):
        rng = np.random.default_rng(41)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 300):
            rho = assemble_rho(SecondOrderIntegrals(i_aa, i_bb, i_ab, j))
            assert abs(np.trace(rho) - 1.0) < 1e-15

    def test_rejects_saturated_excitation(self):
        with pytest.raises(ValueError):
            assemble_rho(SecondOrderIntegrals(0.6, 0.5, 0.0, 0.0))

    def test_rejects_cauchy_schwarz_violation(self):
        with pytest.raises(ValueError):
            assemble_rho(SecondOrderIntegrals(1e-4, 1e-4, 2e-4, 0.0))

    def test_state_validation(self):
        bad = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(ValueError):
            oracles.TwoQubitState(bad)  # (3,3) entry nonzero


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert np.array_equal(partial_transpose(m), m)

    def test_block_mapping(self):
        ints = SecondOrderIntegrals(1e-4, 2e-4, 1e-5 + 3e-6j, 2e-4 - 1e-4j)
        pt = partial_transpose(assemble_rho(ints))
        assert pt[0, 3] == ints.i_ab
        assert pt[3, 0] == np.conj(ints.i_ab)
        assert pt[1, 2] == -np.conj(ints.j)
        assert pt[2, 1] == -ints.j
        assert pt[1, 1] == ints.i_bb and pt[2, 2] == ints.i_aa

    def test_involution(self):
        rng = np.random.default_rng(43)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(partial_transpose(partial_transpose(m)), m)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(47)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 100):
            rho = assemble_rho(SecondOrderIntegrals(i_aa, i_bb, i_ab, j))
            pt = partial_transpose(rho)
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


class TestNegativity:
    def test_noise_dominated_reduction(self):
        raw, clamped = negativity_closed(SecondOrderIntegrals(1e-4, 1e-4, 0.0, 3e-4))
        assert raw == pytest.approx(2e-4, rel=1e-12)
        assert clamped == raw

    def test_separable_state_clamps(self):
        raw, clamped = negativity_closed(SecondOrderIntegrals(2e-4, 1e-4, 0.0, 0.0))
        assert raw <= 0.0
        assert clamped == 0.0

    def test_closed_vs_inner_block_eigensolve(self):
        rng = np.random.default_rng(53)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 200):
            ints = SecondOrderIntegrals(i_aa, i_bb, i_ab, j)
            raw, _ = negativity_closed(ints)
            inner, _ = oracles.negativity_sectors(partial_transpose(assemble_rho(ints)))
            assert abs(max(0.0, raw) - inner) < 1e-13

    def test_numeric_on_maximally_mixed(self):
        assert oracles.negativity_numeric(np.eye(4, dtype=complex) / 4.0) == 0.0

    def test_numeric_on_bell_state(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho = np.outer(v, v).astype(complex)
        assert oracles.negativity_numeric(partial_transpose(rho)) == pytest.approx(0.5, abs=1e-12)

    def test_numeric_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            oracles.negativity_numeric(m)

    def test_reference_scenario_cross_check(self):
        rep = evaluate_scenario(fig_scenario())
        raw, clamped = negativity_closed(rep.integrals)
        inner, outer = oracles.negativity_sectors(
            partial_transpose(assemble_rho(rep.integrals)))
        assert abs(clamped - inner) < 1e-12
        assert outer <= 0.0
        assert abs(outer) < 1e-8  # fourth-order diagnostic is tiny here

    def test_entanglement_criterion_equivalence(self):
        rng = np.random.default_rng(59)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 500):
            raw, _ = negativity_closed(SecondOrderIntegrals(i_aa, i_bb, i_ab, j))
            lhs = raw > 0.0
            rhs = abs(j) ** 2 > i_aa * i_bb
            if abs(abs(j) ** 2 - i_aa * i_bb) < 1e-20:
                continue
            assert lhs == rhs


class TestBellFractions:
    def test_ground_state(self):
        rho = assemble_rho(SecondOrderIntegrals(0.0, 0.0, 0.0, 0.0))
        assert oracles.bell_fractions(rho) == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-15)

    def test_symmetric_real_substitution(self):
        i, j = 2e-4, 1e-4
        rho = assemble_rho(SecondOrderIntegrals(i, i, 0.0, j))
        phi_p, phi_m, psi_p, psi_m = oracles.bell_fractions(rho)
        assert psi_p == pytest.approx(i, abs=1e-15)          # i_plus / 2
        assert psi_m == pytest.approx(i, abs=1e-15)
        assert phi_p == pytest.approx(0.5 * (1 - 2 * i) - j, abs=1e-15)
        assert phi_m == pytest.approx(0.5 * (1 - 2 * i) + j, abs=1e-15)

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(61)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 300):
            rho = assemble_rho(SecondOrderIntegrals(i_aa, i_bb, i_ab, j))
            assert sum(oracles.bell_fractions(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_column_identities(self):
        # deviations of the fractions from their baselines equal the
        # real parts of the corresponding matrix elements
        rng = np.random.default_rng(67)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 100):
            ints = SecondOrderIntegrals(i_aa, i_bb, i_ab, j)
            rho = assemble_rho(ints)
            phi_p, phi_m, psi_p, psi_m = oracles.bell_fractions(rho)
            base_phi = 0.5 * (1.0 - ints.i_plus)
            assert phi_p - base_phi == pytest.approx(-j.real, abs=1e-15)
            assert phi_m - base_phi == pytest.approx(+j.real, abs=1e-15)
            assert psi_p - 0.5 * ints.i_plus == pytest.approx(i_ab.real, abs=1e-15)


class TestScalarStateLayer:
    """The report's state quantities are closed forms in the four integrals."""

    def test_closed_forms_match_matrix_oracles(self):
        rng = np.random.default_rng(73)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 1000):
            ints = SecondOrderIntegrals(i_aa, i_bb, i_ab, j)
            rho = assemble_rho(ints)
            closed = bell_fractions(ints)
            projected = oracles.bell_fractions(rho)
            assert max(abs(c - p) for c, p in zip(closed, projected)) <= 1e-15
            inner, outer = negativity_sectors(ints)
            inner_eig, outer_eig = oracles.negativity_sectors(partial_transpose(rho))
            assert abs(inner - inner_eig) < 1e-13
            assert outer < 0.0
            assert abs(outer - outer_eig) <= 1e-14 * abs(outer_eig)

    def test_matrix_form_passes_state_checks(self):
        rng = np.random.default_rng(79)
        for i_aa, i_bb, i_ab, j in oracles.random_tuples(rng, 100):
            oracles.TwoQubitState(assemble_rho(SecondOrderIntegrals(i_aa, i_bb, i_ab, j)))

    def test_corner_vanishes_without_exchange(self):
        _, outer = negativity_sectors(SecondOrderIntegrals(1e-4, 2e-4, 0.0, 1e-4))
        assert outer == 0.0 and math.copysign(1.0, outer) == 1.0

    def test_validate_rejects_saturated_excitation(self):
        with pytest.raises(ValueError, match=r"^SecondOrderIntegrals: i_aa \+ i_bb = 1\.1 >= 1 "):
            SecondOrderIntegrals(0.6, 0.5, 0.0, 0.0).validate()

    @pytest.mark.parametrize("i_aa, i_bb", [(-1e-4, 1e-4), (1e-4, -1e-4), (math.nan, 1e-4)])
    def test_validate_rejects_negative_diagonal(self, i_aa, i_bb):
        with pytest.raises(ValueError, match=r"^SecondOrderIntegrals: diagonal terms must be >= 0$"):
            SecondOrderIntegrals(i_aa, i_bb, 0.0, 0.0).validate()

    def test_report_rejects_saturated_excitation(self):
        with pytest.raises(ValueError, match=r"^SecondOrderIntegrals: i_aa \+ i_bb = .* >= 1 "
                                             r"leaves no ground-state population"):
            evaluate_scenario(fig_scenario(coupling=100.0))

    def test_report_computes_the_negativity_once(self, monkeypatch):
        calls = []
        original = core.negativity_closed

        def counted(ints):
            calls.append(ints)
            return original(ints)

        monkeypatch.setattr(core, "negativity_closed", counted)
        rep = evaluate_scenario(fig_scenario())
        assert len(calls) == 1
        assert rep.o4_corner_eigenvalue == negativity_sectors(rep.integrals)[1]

    def test_report_needs_no_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("matrix machinery on the report path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(core, "assemble_rho", refuse)
        monkeypatch.setattr(core, "partial_transpose", refuse)
        for s in (fig_scenario(), replace(fig_scenario(), position_uncertainty=0.15)):
            rep = evaluate_scenario(s)
            ints = rep.integrals
            assert (rep.bell_phi_plus, rep.bell_phi_minus, rep.bell_psi_plus,
                    rep.bell_psi_minus) == bell_fractions(ints)
            assert rep.o4_corner_eigenvalue == negativity_sectors(ints)[1]


class TestRatioAndReport:
    def test_ratio_delta_to_zero(self):
        s = replace(fig_scenario(), position_uncertainty=1e-3 * 0.15)
        rep = evaluate_scenario(s)
        assert rep.j_smeared_abs / abs(rep.j_unsmeared) == pytest.approx(1.0, abs=1e-3)

    def test_ratio_absent_for_vanishing_baseline(self):
        s = replace(fig_scenario(), position_uncertainty=0.15)
        s = replace(s, det_a=replace(s.det_a, coupling=0.0))
        rep = evaluate_scenario(s)
        assert rep.j_unsmeared == 0.0
        assert SweepRow("delta", 0.15, rep, "ok").to_record()["ratio_r"] is None

    def test_local_terms_independent_of_geometry(self):
        # bit-identical local terms across separation / uncertainty changes
        r1 = evaluate_scenario(fig_scenario(r0=0.15))
        r2 = evaluate_scenario(fig_scenario(r0=0.33))
        r3 = evaluate_scenario(replace(fig_scenario(r0=0.15),
                                       position_uncertainty=0.15))
        assert r1.integrals.i_aa == r2.integrals.i_aa == r3.integrals.i_aa
        assert r1.integrals.i_bb == r2.integrals.i_bb == r3.integrals.i_bb

    def test_report_consistency(self):
        rep = evaluate_scenario(replace(fig_scenario(), position_uncertainty=0.15))
        assert rep.smearing_method == "erfi-closed-form"
        assert rep.j_smeared_abs == pytest.approx(abs(rep.integrals.j), rel=1e-15)
        assert rep.negativity == max(0.0, rep.negativity_raw)
        total = (rep.bell_phi_plus + rep.bell_phi_minus
                 + rep.bell_psi_plus + rep.bell_psi_minus)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_report_overlap_fallback(self):
        # overlapping windows take the same closed form as disjoint ones
        s = scenario(wa=(0.0, 1.0), wb=(0.5, 1.5), r0=1.0, sigma=0.1, delta=0.1,
                     coupling=0.01)
        rep = evaluate_scenario(s)
        assert rep.smearing_method == "erfi-closed-form"
        assert rep.j_smeared_abs == compute_J_smeared(s)
        assert 0.0 < rep.quad_errors["j_smeared"] <= 1e-9 * rep.j_smeared_abs

    def test_report_time_smear(self):
        rep = evaluate_scenario(fig_scenario(), time_smear=0.1)
        assert rep.smearing_method == "closed-form-time"
        assert rep.j_smeared_abs == pytest.approx(
            compute_J_time_smeared(fig_scenario(), 0.1), rel=1e-12)

    def test_hermiticity_of_state_and_pt(self):
        rep = evaluate_scenario(fig_scenario())
        rho = assemble_rho(rep.integrals)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        pt = partial_transpose(rho)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


class TestSmearingKernelIdentity:
    def test_identity_against_direct_quadrature(self):
        from scipy.integrate import quad
        from harvestsim.specfun import damped_im_erfi

        rng = np.random.default_rng(71)
        for _ in range(8):
            r0 = rng.uniform(0.5, 2.0)
            ratio = 10.0 ** rng.uniform(-1.0, math.log10(20.0))
            d = r0 / ratio
            k = rng.uniform(0.05, 3.0) * 2.0 / d

            def f(r):
                kr = k * r
                s = np.sin(kr) / kr if abs(kr) > 1e-12 else 1.0
                return k * s * math.exp(-((r - r0) / d) ** 2)

            lhs, _ = quad(f, r0 - 15 * d, r0 + 15 * d, epsabs=1e-14,
                          epsrel=1e-12, limit=400)
            rhs = math.pi * damped_im_erfi(r0 / d, d * k / 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-8)
