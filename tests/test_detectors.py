import math

import numpy as np
import pytest

from harvestsim.detectors import (
    CausalClass,
    DetectorParams,
    Disjoint,
    Overlapping,
    Scenario,
    SwitchingWindow,
    classify_causal,
    classify_timing,
    light_contact_interval,
)


def make_scenario(r0, wa=(0.0, 0.1), wb=(0.15, 0.25), sigma=0.001):
    det = dict(coupling=0.01, gap=1.0, smearing=sigma)
    return Scenario(
        det_a=DetectorParams(window=SwitchingWindow(*wa), **det),
        det_b=DetectorParams(window=SwitchingWindow(*wb), **det),
        separation=r0,
    )


class TestValidation:
    def test_window_rejects_reversed(self):
        with pytest.raises(ValueError):
            SwitchingWindow(1.0, 0.5)
        with pytest.raises(ValueError):
            SwitchingWindow(1.0, 1.0)

    @pytest.mark.parametrize("t_on, t_off", [(0.0, math.inf), (-math.inf, 1.0),
                                              (math.nan, 1.0)])
    def test_window_rejects_non_finite_end(self, t_on, t_off):
        with pytest.raises(ValueError, match="^SwitchingWindow: endpoints must be finite$"):
            SwitchingWindow(t_on, t_off)

    def test_window_derived_quantities(self):
        w = SwitchingWindow(0.15, 0.25)
        assert w.shifted(0.5) == SwitchingWindow(0.65, 0.75)
        assert w.duration == pytest.approx(0.1)

    def test_detector_rejects_bad_params(self):
        w = SwitchingWindow(0.0, 1.0)
        with pytest.raises(ValueError):
            DetectorParams(coupling=0.01, gap=0.0, smearing=0.1, window=w)
        with pytest.raises(ValueError):
            DetectorParams(coupling=0.01, gap=1.0, smearing=-0.1, window=w)
        with pytest.raises(ValueError):
            DetectorParams(coupling=-0.01, gap=1.0, smearing=0.1, window=w)

    def test_perturbativity_warning(self):
        w = SwitchingWindow(0.0, 1.0)
        with pytest.warns(UserWarning, match="perturbation"):
            DetectorParams(coupling=0.5, gap=1.0, smearing=0.1, window=w)

    def test_scenario_overlap_warning(self):
        with pytest.warns(UserWarning, match="overlap"):
            make_scenario(r0=0.004, sigma=0.001)

    def test_scenario_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            make_scenario(r0=0.0)
        with pytest.raises(ValueError):
            det = dict(coupling=0.01, gap=1.0, smearing=0.001)
            Scenario(
                det_a=DetectorParams(window=SwitchingWindow(0.0, 0.1), **det),
                det_b=DetectorParams(window=SwitchingWindow(0.15, 0.25), **det),
                separation=0.15,
                position_uncertainty=-1.0,
            )


class TestClassifyTiming:
    def test_disjoint(self):
        out = classify_timing(SwitchingWindow(0, 1), SwitchingWindow(2, 3))
        assert out == Disjoint(first="A", gap=1.0)

    def test_overlapping(self):
        out = classify_timing(SwitchingWindow(0, 2), SwitchingWindow(1, 3))
        assert out == Overlapping(start=1.0, end=2.0)

    def test_touching_is_disjoint(self):
        out = classify_timing(SwitchingWindow(0, 1), SwitchingWindow(1, 2))
        assert out == Disjoint(first="A", gap=0.0)

    def test_b_first(self):
        out = classify_timing(SwitchingWindow(5, 6), SwitchingWindow(0, 1))
        assert out == Disjoint(first="B", gap=4.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a_on, b_on = rng.uniform(-2, 2, size=2)
            wa = SwitchingWindow(a_on, a_on + rng.uniform(0.1, 2.0))
            wb = SwitchingWindow(b_on, b_on + rng.uniform(0.1, 2.0))
            fwd = classify_timing(wa, wb)
            rev = classify_timing(wb, wa)
            if isinstance(fwd, Overlapping):
                assert fwd == rev
            else:
                assert isinstance(rev, Disjoint)
                assert rev.gap == fwd.gap
                assert {fwd.first, rev.first} == {"A", "B"}

    def test_containment_is_overlapping(self):
        out = classify_timing(SwitchingWindow(0, 1), SwitchingWindow(0.2, 0.7))
        assert out == Overlapping(start=0.2, end=0.7)


class TestClassifyCausal:
    def test_purely_timelike(self):
        assert classify_causal(make_scenario(0.01)) is CausalClass.PURELY_TIMELIKE

    def test_fully_light_connected(self):
        assert classify_causal(make_scenario(0.15)) is CausalClass.FULLY_LIGHT_CONNECTED

    def test_purely_spacelike(self):
        assert classify_causal(make_scenario(0.30)) is CausalClass.PURELY_SPACELIKE

    def test_partial_contact(self):
        # arrival of A's light at B only catches the tail of B's window
        assert (classify_causal(make_scenario(0.20))
                is CausalClass.PARTIALLY_LIGHT_CONNECTED)

    def test_time_translation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            r0 = 10.0 ** rng.uniform(-2, 0.5)
            shift = rng.uniform(-5, 5)
            wa = (0.0, rng.uniform(0.05, 1.0))
            b_on = rng.uniform(0.0, 2.0)
            wb = (b_on, b_on + rng.uniform(0.05, 1.0))
            base = make_scenario(r0, wa=wa, wb=wb, sigma=1e-4)
            moved = make_scenario(
                r0,
                wa=(wa[0] + shift, wa[1] + shift),
                wb=(wb[0] + shift, wb[1] + shift),
                sigma=1e-4,
            )
            assert classify_causal(base) is classify_causal(moved)

    def test_sweep_order_and_boundaries(self):
        # time-ordered disjoint windows: timelike -> light-connected -> spacelike
        wa, wb = SwitchingWindow(0.0, 0.1), SwitchingWindow(0.15, 0.25)
        r_min, r_max = light_contact_interval(wa, wb)
        seen = []
        for r0 in np.linspace(0.005, 0.5, 400):
            c = classify_causal(make_scenario(r0, sigma=1e-4))
            connected = c in (
                CausalClass.PARTIALLY_LIGHT_CONNECTED,
                CausalClass.FULLY_LIGHT_CONNECTED,
            )
            if r0 < r_min:
                assert c is CausalClass.PURELY_TIMELIKE
            elif r0 > r_max:
                assert c is CausalClass.PURELY_SPACELIKE
            else:
                assert connected
            seen.append(c)
        # boundary points belong to the light-connected class
        for r0 in (r_min, r_max):
            c = classify_causal(make_scenario(r0, sigma=1e-4))
            assert c in (
                CausalClass.PARTIALLY_LIGHT_CONNECTED,
                CausalClass.FULLY_LIGHT_CONNECTED,
            )


class TestLightContactInterval:
    def test_reference_windows(self):
        out = light_contact_interval(SwitchingWindow(0.0, 0.1), SwitchingWindow(0.15, 0.25))
        assert out == pytest.approx((0.05, 0.25))

    def test_coincident_windows(self):
        assert light_contact_interval(
            SwitchingWindow(0, 1), SwitchingWindow(0, 1)
        ) == pytest.approx((0.0, 1.0))

    def test_separated_windows(self):
        assert light_contact_interval(
            SwitchingWindow(0, 1), SwitchingWindow(5, 6)
        ) == pytest.approx((4.0, 6.0))

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            light_contact_interval(SwitchingWindow(1, 2), SwitchingWindow(0, 3))
