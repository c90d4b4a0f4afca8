import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from harvestsim import specfun
from harvestsim.specfun import damped_im_erfi, ediff, faddeeva_w, sinc

# frozen high-precision reference values (mpmath, 60 digits)
SIN_1 = 0.8414709848078965066525023
E_ERFC_1 = 0.4275835761558070044107503           # w(i)
W_10_10I = 0.02827946745423245665957827 + 0.02813843327633689563087072j
DIM_ERFI_50_1 = -0.002173146248612544798274937    # e^{-2500} Im Erfi(50+i), 200 digits


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_at_pi(self):
        assert abs(sinc(math.pi)) < 1e-16

    def test_at_one(self):
        assert sinc(1.0) == pytest.approx(SIN_1, rel=1e-15)

    def test_taylor_seam(self):
        # both branches must agree with sin(x)/x across the switch point
        xs = np.linspace(1e-3, 2e-2, 211)
        exact = np.sin(xs) / xs
        assert np.max(np.abs(sinc(xs) - exact)) < 3e-16

    @given(st.floats(min_value=-1e8, max_value=1e8))
    @settings(max_examples=300, deadline=None)
    def test_even_bounded_sin_identity(self, x):
        v = sinc(x)
        assert v == sinc(-x)
        assert abs(v) <= 1.0 + 1e-16
        assert abs(v * x - math.sin(x)) <= 4e-16 * max(1.0, abs(x) * 0.0 + 1.0)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, math.pi])
        out = sinc(xs)
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sinc(float("nan"))


class TestEdiff:
    def test_mu_zero_limit(self):
        assert ediff(0.0, 1.0, 0.0) == 1j

    def test_empty_interval(self):
        assert ediff(2.0, 2.0, 3.7) == 0.0

    def test_full_period(self):
        # (e^{2 pi i} - 1)/pi = 0
        assert abs(ediff(0.0, 2.0, math.pi)) < 1e-15

    def test_continuity_at_zero(self):
        h = 1e-8
        lim = 1j * 1.0
        assert abs(ediff(0.0, 1.0, h) - lim) < 1e-7
        assert abs(ediff(0.0, 1.0, h) - ediff(0.0, 1.0, -h)) < 3e-8

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.5, max_value=50.0),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_quotient(self, a, width, mu, flip):
        b = a + width
        mu = -mu if flip else mu
        direct = (np.exp(1j * mu * b) - np.exp(1j * mu * a)) / mu
        assert abs(ediff(a, b, mu) - direct) <= 1e-13 * max(1.0, abs(direct))

    def test_vectorized_over_mu(self):
        mus = np.array([0.0, 1.0, -2.0])
        out = ediff(0.0, 1.0, mus)
        assert out.shape == (3,)
        assert out[0] == 1j

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            ediff(1.0, 0.0, 1.0)


class TestFaddeevaW:
    def test_at_zero(self):
        assert faddeeva_w(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_i(self):
        assert faddeeva_w(1j) == pytest.approx(E_ERFC_1, rel=1e-13)

    def test_far_point(self):
        w = faddeeva_w(10.0 + 10.0j)
        assert abs(w) <= 1.0
        assert w == pytest.approx(W_10_10I, rel=1e-12)

    def test_oracle_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(42)
        pts = rng.uniform(-30.0, 30.0, size=(100, 2))
        pts[:, 1] = np.abs(pts[:, 1])
        for re, im in pts:
            z = mp.mpc(re, im)
            ref = complex(mp.e ** (-z * z) * mp.erfc(-1j * z))
            got = faddeeva_w(complex(re, im))
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_bounded_on_upper_half_plane(self):
        rng = np.random.default_rng(1234)
        scales = 10.0 ** rng.uniform(-3, 3, size=10_000)
        angles = rng.uniform(0.0, math.pi, size=10_000)
        z = scales * np.exp(1j * angles)
        assert np.all(np.abs(faddeeva_w(z)) <= 1.0)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            faddeeva_w(1.0 - 0.1j)


class TestDampedImErfi:
    def test_real_axis_is_zero(self):
        for x in (0.0, 0.5, 3.0, 50.0, 500.0):
            assert damped_im_erfi(x, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_imaginary_axis_is_erf(self):
        for y in (0.1, 0.9, 2.5):
            assert damped_im_erfi(0.0, y) == pytest.approx(math.erf(y), rel=1e-13)

    def test_large_x_matches_high_precision(self):
        assert damped_im_erfi(50.0, 1.0) == pytest.approx(DIM_ERFI_50_1, rel=1e-10)

    def test_identity_against_mpmath(self):
        # the overflow-safe identity must reproduce the direct definition
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = 10.0 ** rng.uniform(-2, 2.2)
            y = 10.0 ** rng.uniform(-2, 1)
            ref = float(mp.e ** (-mp.mpf(x) ** 2)
                        * mp.im(mp.erfi(mp.mpf(x) + 1j * mp.mpf(y))))
            got = damped_im_erfi(x, y)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-15)

    def test_boundedness_envelope(self):
        rng = np.random.default_rng(6)
        x = 10.0 ** rng.uniform(-3, 3, size=2000)
        y = 10.0 ** rng.uniform(-3, 2, size=2000)
        v = damped_im_erfi(x, y)
        assert np.all(np.abs(v) <= np.exp(-x * x) + np.exp(-y * y) + 1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            damped_im_erfi(-0.1, 1.0)
        with pytest.raises(ValueError):
            damped_im_erfi(1.0, -0.1)


def _underflow_edge():
    """The least x > 0 at which exp(-x^2) underflows to 0, by bisection."""
    lo, hi = 27.2, 27.4
    while lo + np.spacing(lo) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if np.exp(-mid * mid) == 0.0 else (mid, hi)
    return hi


class TestDampedErf:
    """``_damped_erf`` evaluates w(z) only where its weight exp(-x^2) is not 0;
    its result is the unmasked formula's, bit for bit."""

    # +-40, with |x| near 27.3, where exp(-x^2) underflows to 0, finely and by ulps
    ULPS = _underflow_edge() + np.arange(-64, 64) * np.spacing(_underflow_edge())
    X = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.linspace(27.0, 27.6, 601),
                        ULPS, -ULPS, [0.0, -0.0, 5e-324]])

    def check(self, x, y):
        got, ref = specfun._damped_erf(x, y), oracles.damped_erf_reference(x, y)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # where the weight is 0 the result is s*exp(-y^2), exactly
        zero = np.broadcast_to(np.exp(-x * x) == 0.0, got.shape)
        s = np.broadcast_to(np.where(x >= 0.0, 1.0, -1.0), got.shape)
        flat = np.broadcast_to(np.exp(-y * y), got.shape)
        assert np.array_equal(got[zero], (s * flat)[zero] + 0j)

    def test_grid_spans_the_underflow(self):
        weight = np.exp(-self.X ** 2)
        assert (weight == 0.0).sum() > 1000 and (weight > 0.0).sum() > 1000
        assert (np.exp(-self.ULPS ** 2) == 0.0).sum() == 64

    @pytest.mark.parametrize("y", [0.0, -0.0, 1e-300, 0.3, -2.5, 5.0, 26.0, 27.3, 40.0])
    def test_scalar_y(self, y):
        self.check(self.X, np.float64(y))

    def test_column_y(self):
        self.check(self.X, np.array([0.0, 0.3, -2.5, 5.0, 27.3, 40.0])[:, None])

    def test_x_of_the_clock_smear_shape(self):
        # four rows of x per node, as the clock smear's window factor passes them
        rng = np.random.default_rng(34)
        self.check(rng.uniform(-40.0, 40.0, size=(4, 500)), np.float64(1.7))


# each public function with finite arguments it accepts
FINITE_ARGS = {
    "sinc": (1.0,),
    "ediff": (0.0, 1.0, 2.0),
    "faddeeva_w": (1.0 + 1.0j,),
    "damped_im_erfi": (1.0, 2.0),
}
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name, position, bad", [
    (name, i, bad) for name, args in FINITE_ARGS.items() for i in range(len(args))
    for bad in NON_FINITE])
@pytest.mark.parametrize("as_array", [False, True])
def test_public_functions_reject_non_finite(name, position, bad, as_array):
    # the error names the function called, not one it calls on the way down
    args = list(FINITE_ARGS[name])
    args[position] = bad
    if as_array:
        args[position] = np.array([args[position], FINITE_ARGS[name][position]])
    with pytest.raises(ValueError, match=f"^{name}: non-finite input$"):
        getattr(specfun, name)(*args)


@pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(1.0, math.inf),
                                 complex(-math.inf, 0.0)])
def test_faddeeva_w_rejects_non_finite_parts(bad):
    with pytest.raises(ValueError, match="^faddeeva_w: non-finite input$"):
        faddeeva_w(bad)
