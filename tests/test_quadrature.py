import math

import numpy as np
import pytest
from scipy.special import dawsn, erf

import oracles
from harvestsim import quadrature
from harvestsim.quadrature import (
    ConvergenceFailure,
    IntegrandSpec,
    QuadratureSettings,
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
        assert widths.max() <= 1.0  # 1/8 of the support

        # two peaks of different widths in one spec: each starts its own grading
        spec = IntegrandSpec(evaluate=lambda v: v + 0j, support=(-3.0, 5.0),
                             peaks=((1.3, 1e-4), (-2.0, 3e-3)))
        edges = _initial_panels(spec)
        widths = np.diff(edges)
        assert np.all(widths > 0.0) and widths.max() <= 1.0
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
        for bad in ((1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
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
        (TestFiniteSupport.spike_spec(1.3, 1e-4, -3.0, 5.0, (1.3,)),
         -0.8175536037758088 + 0j, 1.820623553717808e-12, 525),
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
