import math
import re
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import dawsn, erf

import oracles
from harvestsim import quadrature
from harvestsim.quadrature import (
    ConvergenceFailure,
    IntegrandSpec,
    QuadratureSettings,
    QuadResult,
    _initial_panels,
    integrate_lockstep,
    integrate_radial,
)


def reach(s):
    """Frequency beyond which exp(-(w*s)^2/2) is below 1e-18."""
    return math.sqrt(2.0 * math.log(1.0 / 1e-18)) / s


def gaussian_spec(s=1.0, amp=1.0):
    return IntegrandSpec(
        evaluate=lambda w: amp * np.exp(-0.5 * (w * s) ** 2) + 0j,
        support=(0.0, reach(s)),
    )


def gauss_sin_spec(s, r, amp=1.0):
    def f(w):
        return amp * np.exp(-0.5 * (w * s) ** 2) * np.sin(w * r) + 0j

    return IntegrandSpec(evaluate=f, support=(0.0, reach(s)), max_phase_rate=r)


def gauss_sin_exact(s, r, amp=1.0):
    # int_0^inf e^{-w^2 s^2/2} sin(w r) dw = sqrt(2)/s * D(r/(sqrt(2) s))
    return amp * math.sqrt(2.0) / s * dawsn(r / (math.sqrt(2.0) * s))


class TestIntegrateRadial:
    def test_gaussian_closed_form(self):
        res = integrate_radial(gaussian_spec(s=1.0))
        assert res.value.real == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)
        assert abs(res.value.imag) < 1e-14
        assert res.evaluations > 0

    def test_gauss_sinc_vs_dense_trapezoid(self):
        # g(w) = e^{-w^2 s^2/2} sin(w r)/w, evaluated without the removable pole
        s, r = 0.1, 1.0

        def f(w):
            wr = w * r
            small = np.abs(wr) < 1e-8
            safe = np.where(small, 1.0, wr)
            sinc = np.where(small, 1.0, np.sin(safe) / safe)
            return r * sinc * np.exp(-0.5 * (w * s) ** 2) + 0j

        spec = IntegrandSpec(evaluate=f, support=(0.0, reach(s)), max_phase_rate=r)
        res = integrate_radial(spec)

        wmax = spec.support[1]
        n = 10_000_000
        x = np.linspace(0.0, wmax, n // 2 + 1)
        t1 = np.trapezoid(f(x).real, x)
        x = np.linspace(0.0, wmax, n + 1)
        t2 = np.trapezoid(f(x).real, x)
        oracle = (4.0 * t2 - t1) / 3.0
        assert res.value.real == pytest.approx(oracle, rel=1e-8)

    def test_zero_integrand(self):
        spec = IntegrandSpec(evaluate=lambda w: np.zeros_like(w) + 0j,
                             support=(0.0, reach(1.0)))
        res = integrate_radial(spec)
        assert res.value == 0.0
        assert res.abs_error == 0.0
        assert res.evaluations > 0

    def test_singular_point_is_panel_anchor(self):
        # integrable kink at w=1; exact value assembled from erf/exp pieces
        def f(w):
            return np.abs(w - 1.0) * np.exp(-0.5 * w * w) + 0j

        spec = IntegrandSpec(evaluate=f, support=(0.0, reach(1.0)), singular_points=(1.0,))
        res = integrate_radial(spec)

        def anti_piece(a, b, sign):
            # int_a^b sign*(w-1) e^{-w^2/2} dw
            gauss = math.sqrt(math.pi / 2.0) * (erf(b / math.sqrt(2)) - erf(a / math.sqrt(2)))
            expo = math.exp(-0.5 * a * a) - math.exp(-0.5 * b * b)
            return sign * (expo - gauss)

        wmax = spec.support[1]
        exact = anti_piece(0.0, 1.0, -1.0) + anti_piece(1.0, wmax, 1.0)
        assert res.value.real == pytest.approx(exact, rel=1e-9)

    def test_monotone_refinement(self):
        specs = [
            gaussian_spec(s=0.5),
            gauss_sin_spec(0.2, 2.0),
            gauss_sin_spec(1.0, 5.0, amp=3.0),
        ]
        for spec in specs:
            prev = None
            for k in range(7):
                settings = QuadratureSettings(
                    tol_abs=1e-4 * 2.0**-k, tol_rel=1e-4 * 2.0**-k
                )
                err = integrate_radial(spec, settings).abs_error
                if prev is not None:
                    assert err <= prev + 1e-18
                prev = err

    def test_error_estimate_bounds_true_error(self):
        rng = np.random.default_rng(2024)
        covered = 0
        total = 200
        for _ in range(total):
            s = 10.0 ** rng.uniform(-1.5, 0.5)
            amp = 10.0 ** rng.uniform(-2, 2)
            if rng.random() < 0.5:
                spec = gaussian_spec(s=s, amp=amp)
                exact = amp * math.sqrt(math.pi / 2.0) / s
            else:
                r = 10.0 ** rng.uniform(-1, 1)
                spec = gauss_sin_spec(s, r, amp=amp)
                exact = gauss_sin_exact(s, r, amp=amp)
            res = integrate_radial(spec, QuadratureSettings(tol_abs=1e-10, tol_rel=1e-8))
            if abs(res.value.real - exact) <= res.abs_error + 1e-15:
                covered += 1
        assert covered >= 0.99 * total

    @pytest.mark.parametrize("s, r", [(0.001, 0.65), (0.003, 2.0), (0.01, 30.0)])
    def test_coarse_start_is_refined_honestly(self, s, r):
        # the initial panels span two periods; the loop must refine them
        # until the reported error covers the true one (Dawson closed form)
        spec = gauss_sin_spec(s, r)
        res = integrate_radial(spec)
        initial = 15 * (_initial_panels(spec).size - 1)
        assert abs(res.value.real - gauss_sin_exact(s, r)) <= res.abs_error
        assert res.evaluations > initial

    def test_deterministic(self):
        spec = gauss_sin_spec(0.3, 4.0)
        r1 = integrate_radial(spec)
        r2 = integrate_radial(spec)
        assert r1.value == r2.value
        assert r1.abs_error == r2.abs_error
        assert r1.evaluations == r2.evaluations

    def test_budget_exhaustion(self):
        spec = gauss_sin_spec(0.01, 30.0)
        with pytest.raises(ConvergenceFailure) as exc:
            integrate_radial(spec, QuadratureSettings(tol_abs=1e-14, tol_rel=1e-14,
                                                      eval_budget=2000))
        best = exc.value.best
        assert best.evaluations > 0
        assert np.isfinite(best.abs_error)
        # the carried best value is still a usable approximation
        assert best.value.real == pytest.approx(gauss_sin_exact(0.01, 30.0), rel=1e-6)

    def test_initial_partition_over_budget(self):
        # the starting partition alone holds 10,875 evaluations
        spec = IntegrandSpec(evaluate=lambda w: np.exp(-w * w / 2) + 0j,
                             support=(0.0, reach(1.0)), max_phase_rate=1000.0)
        with pytest.raises(ConvergenceFailure, match="budget 1000 exhausted") as exc:
            integrate_radial(spec, QuadratureSettings(eval_budget=1000))
        best = exc.value.best
        assert best.evaluations == _initial_panels(spec).size * 15 - 15
        assert best.evaluations > 1000
        assert best.value.real == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_step_fails_at_roundoff_width(self):
        # a jump no anchor names: bisection closes in on x = 0.3 until the
        # panel around it is too narrow to split, far within the budget
        spec = IntegrandSpec(evaluate=lambda x: np.where(x > 0.3, 1.0, 0.0) + 0j,
                             support=(0.0, 1.0))
        with pytest.raises(ConvergenceFailure,
                           match="panels at roundoff width before reaching tolerance") as exc:
            integrate_radial(spec, QuadratureSettings(tol_abs=1e-30, tol_rel=3e-16))
        best = exc.value.best
        assert best.evaluations < QuadratureSettings().eval_budget
        assert best.value.real == pytest.approx(0.7, rel=1e-12)
        assert best.abs_error > 3e-16 * abs(best.value)

    def test_tolerance_contract(self):
        spec = gauss_sin_spec(0.1, 3.0)
        settings = QuadratureSettings(tol_abs=1e-11, tol_rel=1e-9)
        res = integrate_radial(spec, settings)
        assert res.abs_error <= max(settings.tol_abs, settings.tol_rel * abs(res.value))


class TestFiniteSupport:
    """Integrals over a finite support, with peaks of their own widths."""

    @staticmethod
    def spike_spec(p, s, lo, hi, peaks):
        def f(v):
            return np.exp(-0.5 * ((v - p) / s) ** 2) + np.cos(v) + 0j

        return IntegrandSpec(evaluate=f, support=(lo, hi), peaks=tuple((x, s) for x in peaks),
                             singular_points=(-1.0,))

    @staticmethod
    def spike_exact(p, s, lo, hi):
        g = s * math.sqrt(math.pi / 2.0) * (erf((hi - p) / (math.sqrt(2.0) * s))
                                            - erf((lo - p) / (math.sqrt(2.0) * s)))
        return g + math.sin(hi) - math.sin(lo)

    @pytest.mark.parametrize("p", [1.3, math.nextafter(5.0, 0.0), 5.0 + 2e-4, -3.0])
    def test_narrow_peak_is_resolved(self, p):
        # a peak 1e-4 wide on a support 8 long, inside, on an end, just
        # outside it; the anchors are negative
        s = 1e-4
        res = integrate_radial(self.spike_spec(p, s, -3.0, 5.0, (p,)))
        exact = self.spike_exact(p, s, -3.0, 5.0)
        assert abs(res.value.real - exact) <= max(res.abs_error, 1e-15 * abs(exact))
        assert res.abs_error <= 1e-9 * abs(exact)

    def test_peak_graded_from_its_width(self):
        edges = _initial_panels(self.spike_spec(1.3, 1e-4, -3.0, 5.0, (1.3,)))
        widths = np.diff(edges)
        assert edges[0] == -3.0 and edges[-1] == 5.0
        assert np.all(widths > 0.0)
        assert widths[np.searchsorted(edges, 1.3)] == pytest.approx(1e-4, rel=1e-9)

        # two peaks of different widths in one spec: each starts its own grading
        spec = IntegrandSpec(evaluate=lambda v: v + 0j, support=(-3.0, 5.0),
                             peaks=((1.3, 1e-4), (-2.0, 3e-3)))
        edges = _initial_panels(spec)
        widths = np.diff(edges)
        assert np.all(widths > 0.0)
        for p, s in spec.peaks:
            i = np.searchsorted(edges, p)
            assert edges[i] == p
            assert widths[i] == pytest.approx(s, rel=1e-9)
            assert widths[i - 1] == pytest.approx(s, rel=1e-9)

    def test_partition_matches_loop_reference(self):
        # bit for bit against the loop form, on random supports from 1e-3 to
        # 1e4 wide, anchors inside and outside them and within 80 ulps of each
        # other and of the ends, with and without a phase cap
        rng = np.random.default_rng(20261018)

        def anchor(lo, hi):
            base = ((lo, hi)[rng.integers(2)] if rng.random() < 0.2
                    else lo + (hi - lo) * rng.uniform(-0.5, 1.5))
            return float(base + rng.integers(-80, 81) * np.spacing(base))

        for _ in range(4000):
            scale = 10.0 ** rng.uniform(-3.0, 4.0)
            lo = scale * rng.uniform(-2.0, 1.0)
            hi = lo + scale * 10.0 ** rng.uniform(-1.0, 0.5)
            points = [anchor(lo, hi) for _ in range(rng.integers(4))]
            points += [float(x + rng.integers(-80, 81) * np.spacing(x)) for x in points[:1]]
            peaks = tuple((anchor(lo, hi), (hi - lo) * 10.0 ** rng.uniform(-5.0, 0.0))
                          for _ in range(rng.integers(5)))
            rate = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-2.0, 3.0) / (hi - lo)
            spec = IntegrandSpec(evaluate=lambda v: v + 0j, support=(lo, hi),
                                 max_phase_rate=rate, singular_points=tuple(points),
                                 peaks=peaks)
            assert np.array_equal(_initial_panels(spec), oracles.initial_panels_reference(spec))

    def test_uncut_partition_matches_loop_reference(self):
        # where no piece between anchors is cut, byte for byte (signed zeros too)
        # against the loop form: no phase cap, caps from far above the range to
        # within rounding of its one-panel bound, supports ending at -0.0, and
        # anchors and peaks within a few ulps of the ends and at -0.0
        rng = np.random.default_rng(20261020)

        def near(x):
            return float(x + rng.integers(-4, 5) * np.spacing(x))

        uncut = 0
        for _ in range(3000):
            scale = 10.0 ** rng.uniform(-3.0, 4.0)
            lo = scale * rng.uniform(-2.0, 1.0)
            hi = lo + scale * 10.0 ** rng.uniform(-1.0, 0.5)
            if rng.random() < 0.2:
                lo, hi = lo - hi, -0.0
            inner = [lo + (hi - lo) * rng.uniform() for _ in range(rng.integers(3))]
            points = [near((lo, hi)[rng.integers(2)]) for _ in range(rng.integers(3))]
            points += inner + ([-0.0] if rng.random() < 0.2 else [])
            peaks = tuple((rng.choice([near(lo), near(hi), *inner, -0.0]),
                           (hi - lo) * 10.0 ** rng.uniform(-5.0, 0.0))
                          for _ in range(rng.integers(4)))
            bound = 4.0 * math.pi / (hi - lo)  # the rate whose cap is the range
            rate = (0.0 if rng.random() < 0.3 else
                    bound * (1.0 + rng.integers(-20, 21) * 1e-10) if rng.random() < 0.3 else
                    bound * rng.uniform())
            spec = IntegrandSpec(evaluate=lambda v: v + 0j, support=(lo, hi),
                                 max_phase_rate=rate, singular_points=tuple(points),
                                 peaks=peaks)
            edges = _initial_panels(spec)
            assert edges.tobytes() == oracles.initial_panels_reference(spec).tobytes()
            cap = 4.0 * math.pi / rate if rate else math.inf
            uncut += math.ceil((hi - lo) / cap - 1e-9) <= 1
        assert uncut > 2700

    def test_special_anchors_match_loop_reference(self):
        # byte for byte the loop form's, on groups of 1 to 40 specs mixing
        # uncut and cap-cut members, peaks outside the support, anchors and
        # peaks at +-inf, nan and +-0, and runs of anchors a fraction of the
        # merge width apart, where the loop merges against the last anchor
        # it kept, not against the point before
        rng = np.random.default_rng(20261021)
        special = [math.inf, -math.inf, math.nan, 0.0, -0.0]

        def at(lo, hi, low, high):
            return (float(rng.choice(special)) if rng.random() < 0.05
                    else lo + (hi - lo) * rng.uniform(low, high))

        chained = cut = 0
        for _ in range(300):
            specs = []
            for _ in range(rng.integers(1, 41)):
                scale = 10.0 ** rng.uniform(-3.0, 4.0)
                lo = scale * rng.uniform(-2.0, 1.0)
                hi = lo + scale * 10.0 ** rng.uniform(-1.0, 0.5)
                tiny = 64.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
                run = lo + (hi - lo) * rng.uniform() + np.cumsum(rng.uniform(0.2, 0.9, 6)) * tiny
                points = [float(x) for x in run[:rng.integers(7)]]
                points += [at(lo, hi, -0.5, 1.5) for _ in range(rng.integers(3))]
                peaks = tuple((at(lo, hi, -2.0, 3.0), (hi - lo) * 10.0 ** rng.uniform(-5.0, 0.5))
                              for _ in range(rng.integers(4)))
                rate = (0.0, 1.0 / (hi - lo), 10.0 ** rng.uniform(0.0, 3.0) / (hi - lo))[
                    rng.integers(3)]
                specs.append(IntegrandSpec(evaluate=lambda v: v + 0j, support=(lo, hi),
                                           max_phase_rate=rate, singular_points=tuple(points),
                                           peaks=peaks))
                # the loop's rule keeps a run's points where merging against
                # the point before would keep fewer
                inside = sorted(x for x in points if lo + tiny < x < hi - tiny)
                chained += any(y - x <= tiny < y - w for w, x, y in zip(inside, inside[1:],
                                                                         inside[2:]))
            for spec in specs:
                with warnings.catch_warnings():  # inf*0 is nan, in silence as in Python floats
                    warnings.simplefilter("error")
                    edges = _initial_panels(spec)
                with np.errstate(invalid="ignore", over="ignore"):
                    assert edges.tobytes() == oracles.initial_panels_reference(spec).tobytes()
                lo, hi = spec.support
                cut += spec.max_phase_rate * (hi - lo) / (4.0 * math.pi) > 1.0 + 1e-9
        assert chained > 1000 and cut > 1000

    def test_peak_within_rounding_of_an_end_merges(self):
        # the same partition whether rounding puts the peak on the end or an
        # ulp inside it
        on_end = _initial_panels(self.spike_spec(5.0, 1e-4, -3.0, 5.0, (5.0,)))
        inside = _initial_panels(
            self.spike_spec(5.0, 1e-4, -3.0, 5.0, (np.nextafter(5.0, 0.0),)))
        assert np.allclose(on_end, inside, rtol=0.0, atol=1e-14)

    def test_support_validation(self):
        f = lambda v: v + 0j  # noqa: E731
        IntegrandSpec(evaluate=f, support=(-2.0, 1.0),
                      singular_points=(-1.0, 0.5), peaks=((-5.0, 1.0),))
        # the last is two finite ends whose width hi - lo overflows
        for bad in ((1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
            with pytest.raises(ValueError):
                IntegrandSpec(evaluate=f, support=bad)
        with pytest.raises(TypeError):
            IntegrandSpec(evaluate=f)  # the support is required


class TestSpecValidation:
    def test_rejects_bad_peak_width(self):
        IntegrandSpec(evaluate=lambda w: w, support=(0.0, 1.0), peaks=((0.5, 1e-3),))
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                IntegrandSpec(evaluate=lambda w: w, support=(0.0, 1.0),
                              peaks=((0.5, 1e-3), (0.2, width)))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            IntegrandSpec(evaluate=lambda w: w, support=(0.0, 1.0), max_phase_rate=-1.0)

    def test_singular_points_in_any_order(self):
        points = (0.1, 0.35, 0.7, 0.9)
        edges = [_initial_panels(IntegrandSpec(evaluate=lambda w: w, support=(0.0, 1.0),
                                               singular_points=pts, peaks=((0.5, 1e-3),)))
                 for pts in (points, points[::-1])]
        assert np.array_equal(*edges)
        assert set(points) <= set(edges[0].tolist())

    @pytest.mark.parametrize("error, evaluations, message", [
        (-1e-3, 15, "abs_error must be finite and >= 0"),
        (math.nan, 15, "abs_error must be finite and >= 0"),
        (np.array([1e-3, math.nan]), 15, "abs_error must be finite and >= 0"),
        (1e-3, 0, "evaluations must be > 0"),
    ])
    def test_result_validation(self, error, evaluations, message):
        with pytest.raises(ValueError, match=f"^QuadResult: {message}$"):
            QuadResult(1.0, error, evaluations)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(tol_abs=0.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 1000000.5])
    def test_settings_reject_non_integer_budget(self, budget):
        # a nan budget fails every comparison, so no quadrature could succeed
        with pytest.raises(ValueError, match="eval_budget must be an integer >= 15"):
            QuadratureSettings(eval_budget=budget)

    def test_settings_accept_numpy_integer_budget(self):
        assert QuadratureSettings(eval_budget=np.int64(5000)).eval_budget == 5000

    @pytest.mark.parametrize("field", ["tol_abs", "tol_rel"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_settings_reject_non_finite_tolerance(self, field, value):
        # inf would accept every first partition and nan would be ignored
        # by max(tol_abs, tol_rel*|value|): either loses error control
        with pytest.raises(ValueError, match="finite"):
            QuadratureSettings(**{field: value})


class TestComponents:
    """An integrand of k components: k integrals over one partition, each to
    its own tolerance, sharing every evaluation."""

    S, R, P, W = 0.3, 4.0, 5.0, 0.01   # smooth oscillation; narrow peak at P of width W
    SETTINGS = QuadratureSettings(tol_abs=1e-30, tol_rel=1e-10)

    def peak(self, x):
        return np.exp(-0.5 * ((x - self.P) / self.W) ** 2) + 0j

    def smooth(self, x):
        # 1e-5 of the peak's integral: a shared target would leave it at 1e-5 relative
        return 1e-6 * np.exp(-0.5 * (x * self.S) ** 2) * np.sin(x * self.R) + 0j

    def spec(self, f):
        return IntegrandSpec(evaluate=f, support=(0.0, reach(self.S)), max_phase_rate=self.R,
                             peaks=((self.P, self.W),))

    def test_each_component_meets_its_own_tolerance(self):
        both = integrate_radial(self.spec(lambda x: np.stack([self.peak(x), self.smooth(x)], 1)),
                                self.SETTINGS)
        hi = reach(self.S)
        exact = [self.W * math.sqrt(math.pi / 2.0)
                 * (erf((hi - self.P) / (math.sqrt(2.0) * self.W))
                    - erf(-self.P / (math.sqrt(2.0) * self.W))),
                 1e-6 * gauss_sin_exact(self.S, self.R)]
        assert both.value.shape == both.abs_error.shape == (2,)
        for value, error, ref in zip(both.value, both.abs_error, exact):
            assert error <= self.SETTINGS.tol_rel * abs(value)
            assert abs(value - ref) <= error + 1e-15 * abs(ref)
        # the components need different refinement; one pass does both, each node once
        alone = [integrate_radial(self.spec(f), self.SETTINGS).evaluations
                 for f in (self.peak, self.smooth)]
        assert alone[0] != alone[1]
        assert max(alone) <= both.evaluations < sum(alone)

    def test_copies_match_one_component_bit_for_bit(self):
        # each component is summed as it would be on its own
        one = integrate_radial(gauss_sin_spec(0.3, 4.0))
        f = gauss_sin_spec(0.3, 4.0).evaluate
        three = integrate_radial(IntegrandSpec(evaluate=lambda x: np.stack([f(x)] * 3, axis=1),
                                               support=(0.0, reach(0.3)), max_phase_rate=4.0))
        assert three.evaluations == one.evaluations
        assert three.value.tolist() == [one.value] * 3
        assert three.abs_error.tolist() == [one.abs_error] * 3

    @pytest.mark.parametrize("spec, value, error, evaluations", [
        # refined from 150 evaluations
        (gauss_sin_spec(0.3, 4.0), 0.2514306755871315 + 0j, 3.0635290917898007e-11, 570),
        # ends on its first partition of 39 panels
        (TestFiniteSupport.spike_spec(1.3, 1e-4, -3.0, 5.0, (1.3,)),
         -0.8175536037758084 + 0j, 5.305001229971573e-16, 585),
    ])
    def test_one_component_result_is_pinned(self, spec, value, error, evaluations):
        # frozen from the single-component loop: the same arithmetic and types
        res = integrate_radial(spec)
        assert type(res.value) is complex and type(res.abs_error) is float
        assert (res.value, res.abs_error, res.evaluations) == (value, error, evaluations)

    def test_failure_carries_every_component(self):
        spec = self.spec(lambda x: np.stack([self.peak(x), self.smooth(x)], axis=1))
        with pytest.raises(ConvergenceFailure, match="budget 500 exhausted") as exc:
            integrate_radial(spec, QuadratureSettings(tol_abs=1e-30, tol_rel=1e-10,
                                                      eval_budget=500))
        best = exc.value.best
        assert best.evaluations == 15 * (_initial_panels(spec).size - 1)
        assert best.value.shape == best.abs_error.shape == (2,)


class TestLockstep:
    """Integrals advanced together share only the evaluate call: each keeps
    the result, bit for bit, and the failure it has alone."""

    SETTINGS = QuadratureSettings(tol_abs=1e-14, tol_rel=1e-14, eval_budget=3000)

    @staticmethod
    def specs():
        # converges, needs refinement, runs out of budget
        return [gaussian_spec(1.0), gauss_sin_spec(0.3, 4.0), gauss_sin_spec(0.01, 30.0)]

    def alone(self, spec):
        try:
            return integrate_radial(spec, self.SETTINGS)
        except ConvergenceFailure as exc:
            return exc

    def test_group_matches_each_integral_alone(self):
        specs = self.specs()
        calls = []

        def evaluate(x, owner):
            calls.append(np.unique(owner).tolist())
            out = np.empty(x.size, dtype=complex)
            for i, spec in enumerate(specs):
                out[owner == i] = spec.evaluate(x[owner == i])
            return out

        together = integrate_lockstep(specs, evaluate, self.SETTINGS)
        assert calls[0] == [0, 1, 2]   # one call serves every first partition
        for got, spec in zip(together, specs):
            ref = self.alone(spec)
            if isinstance(ref, ConvergenceFailure):
                assert type(got) is ConvergenceFailure and str(got) == str(ref)
                got, ref = got.best, ref.best
            assert (got.value, got.abs_error, got.evaluations) == (
                ref.value, ref.abs_error, ref.evaluations)

    @staticmethod
    def two_component_group():
        # each member's two components, of their own sizes, refine their own
        # panels over several rounds
        comps, peaks, sizes = TestComponents(), (2.0, 5.0, 7.5, 11.0), (1.0, 1e3, 1e-3, 1e6)

        def f(x, p, size):
            return size * np.stack([np.exp(-0.5 * ((x - p) / comps.W) ** 2) + 0j,
                                    comps.smooth(x)], 1)

        specs = [IntegrandSpec(evaluate=lambda x, p=p, size=size: f(x, p, size),
                               support=(0.0, reach(comps.S)), max_phase_rate=comps.R,
                               peaks=((p, comps.W),)) for p, size in zip(peaks, sizes)]
        return specs, lambda x, owner: f(x, np.array(peaks)[owner], np.array(sizes)[owner, None])

    def test_group_of_two_component_integrals_matches_each_alone(self):
        # every value and error is the one the member gets alone
        specs, evaluate = self.two_component_group()
        rounds = []
        gk15 = quadrature._gk15

        def counted(*args):
            rounds.append(args[3] is not None)
            return gk15(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_gk15", counted)
            together = integrate_lockstep(specs, evaluate, TestComponents.SETTINGS)
        assert len(rounds) > 2 and all(rounds)
        for got, spec in zip(together, specs):
            ref = integrate_radial(spec, TestComponents.SETTINGS)
            assert (got.value.tolist(), got.abs_error.tolist(), got.evaluations) == (
                ref.value.tolist(), ref.abs_error.tolist(), ref.evaluations)

    @pytest.mark.parametrize("chunk", [quadrature._CHUNK, 150])
    def test_refined_group_is_pinned(self, chunk, monkeypatch):
        # frozen, to the last bit, from the loop that refined one member at a
        # time: a refined member's pairwise sums run over its panels in
        # order (unrefined, then left halves, then right halves), so a change
        # to that order moves the last bits of the refined components; in
        # calls of 10 panels every round spans several, whose sums join
        # into the same bits
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        specs, evaluate = self.two_component_group()
        got = [(r.value.tolist(), r.abs_error.tolist(), r.evaluations)
               for r in integrate_lockstep(specs, evaluate, TestComponents.SETTINGS)]
        assert got == [
            ([0.025066282746310127 + 0j, 2.5143067558713236e-07 + 0j],
             [7.963727392318143e-16, 1.5531921749002148e-18], 930),
            ([25.066282746309927 + 0j, 0.00025143067558713167 + 0j],
             [7.678156057246009e-13, 2.4438419558134082e-15], 930),
            ([2.5066282746309923e-05 + 0j, 2.514306755871319e-10 + 0j],
             [7.700319484954147e-19, 4.0077099148330117e-22], 960),
            ([25066.282746310066 + 0j, 0.25143067558713156 + 0j],
             [7.432845702657593e-10, 2.0404536920862205e-12], 900),
        ]

    @pytest.mark.parametrize("n_huge", [1, 2])
    def test_partition_that_cannot_be_built_fails_alone(self, n_huge):
        # about 8e301 first panels, more than an int64 counts: that
        # integral's slot holds the ValueError, and the others run as alone
        huge = IntegrandSpec(evaluate=lambda w: w + 0j, support=(0.0, 1e300),
                             max_phase_rate=1e3)
        specs = [gaussian_spec(1.0)] * (2 - n_huge) + [huge] * n_huge
        out = integrate_lockstep(specs, lambda x, owner: specs[0].evaluate(x), self.SETTINGS)
        for got in out[2 - n_huge:]:
            assert type(got) is ValueError and "does not fit an int64" in str(got)
        if n_huge == 1:
            ref = integrate_radial(specs[0], self.SETTINGS)
            assert (out[0].value, out[0].abs_error, out[0].evaluations) == (
                ref.value, ref.abs_error, ref.evaluations)
        with pytest.raises(ValueError, match="does not fit an int64"):
            integrate_radial(huge, self.SETTINGS)

    def test_member_with_non_finite_sums_fails_alone(self):
        # one member's integrand is nan: its slot holds a ValueError that
        # says so, and the other member's result is the one it gets alone
        specs = [gauss_sin_spec(0.3, 4.0),
                 IntegrandSpec(evaluate=lambda x: np.full(x.size, np.nan + 0j), support=(0.0, 1.0))]
        out = integrate_lockstep(
            specs, lambda x, owner: np.where(owner == 0, specs[0].evaluate(x), np.nan), self.SETTINGS)
        message = "integrate_radial: the integrand's sums are not finite (nan or inf)"
        assert type(out[1]) is ValueError and str(out[1]) == message
        ref = self.alone(specs[0])
        got, ref = (out[0].best, ref.best) if isinstance(ref, ConvergenceFailure) else (out[0], ref)
        assert (got.value, got.abs_error, got.evaluations) == (
            ref.value, ref.abs_error, ref.evaluations)
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate_radial(specs[1], self.SETTINGS)

    @pytest.mark.parametrize("support, rate, message", [
        ((0.0, 1e300), 1e3, "a first partition of 7.96e+301 panels does not fit an int64"),
        # 5.1e13 panels: numpy refuses their 400 TB index array at once, more
        # than a 48-bit address space holds
        ((0.0, 3.2e14), 2.0, "a first partition of 5.09e+13 panels does not fit in memory"),
        # the support over the cap, 4 pi/rate, is more than a float holds
        ((0.0, 1e10), 1e300, "the support (0, 1e+10) is too wide for panels of 1.26e-299: "
                             "their ratio overflows a float"),
    ])
    def test_group_member_that_cannot_be_built_fails_alone(self, support, rate, message):
        # in a group of twelve: that member's slot holds the ValueError, and
        # every other member runs as alone
        specs = [gauss_sin_spec(0.3, 4.0 + k) for k in range(12)]
        specs[5] = IntegrandSpec(evaluate=lambda w: w + 0j, support=support, max_phase_rate=rate)
        out = integrate_lockstep(
            specs, lambda x, owner: np.exp(-0.5 * (0.3 * x) ** 2) * np.sin((4.0 + owner) * x) + 0j,
            self.SETTINGS)
        assert type(out[5]) is ValueError and str(out[5]) == "integrate_radial: " + message
        for got, spec in zip(out[:5] + out[6:], specs[:5] + specs[6:]):
            ref = self.alone(spec)
            if isinstance(ref, ConvergenceFailure):
                got, ref = got.best, ref.best
            assert (got.value, got.abs_error, got.evaluations) == (
                ref.value, ref.abs_error, ref.evaluations)
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate_radial(specs[5], self.SETTINGS)

    def test_rounds_are_chunked(self, monkeypatch):
        # a first partition of 47,760 nodes: no evaluate call holds more than
        # _CHUNK of them, and the sums are those of one call over all nodes
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x * x) * np.cos(40.0 * x) + 0j

        spec = IntegrandSpec(evaluate=f, support=(-50.0, 50.0), max_phase_rate=400.0)
        chunk = quadrature._CHUNK
        chunked = integrate_radial(spec)
        assert len(sizes) > 1 and max(sizes) <= chunk
        monkeypatch.setattr(quadrature, "_CHUNK", 10**9)
        sizes.clear()
        whole = integrate_radial(spec)
        assert sizes[0] == 15 * (_initial_panels(spec).size - 1) > chunk
        assert (chunked.value, chunked.abs_error, chunked.evaluations) == (
            whole.value, whole.abs_error, whole.evaluations)
        assert chunked.value.real == pytest.approx(math.sqrt(math.pi) * math.exp(-400.0),
                                                   abs=1e-12)

    def test_finished_integral_releases_its_arrays(self, monkeypatch):
        # an integral that converges in the first round keeps no view into
        # that round's results once another integral has refined past it
        specs = [IntegrandSpec(evaluate=lambda x: x * x + 0j, support=(0.0, 1.0)),
                 self.specs()[1]]
        first_round = []
        gk15 = quadrature._gk15

        def recording(*args):
            out = gk15(*args)
            if not first_round:
                first_round.append(weakref.ref(out[0][0].base))
            return out

        monkeypatch.setattr(quadrature, "_gk15", recording)
        alive = []

        def evaluate(x, owner):
            if first_round:
                alive.append(first_round[0]() is not None)
            return np.where(owner == 0, specs[0].evaluate(x), specs[1].evaluate(x))

        results = integrate_lockstep(specs, evaluate, self.SETTINGS)
        assert all(isinstance(res, quadrature.QuadResult) for res in results)
        assert results[0].evaluations == 15 * (_initial_panels(specs[0]).size - 1)
        # the second round still holds the refining integral's first sums;
        # from the third on nothing holds the first round's results
        assert len(alive) >= 2 and alive[0] and not any(alive[1:])
