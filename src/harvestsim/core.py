"""Second-order detector-pair state: the four scalar integrals, every
state quantity in closed form from them (negativity, the fourth-order
corner eigenvalue, Bell fractions), and positioning-uncertainty smearing
of the correlation term.

The integrals are pref times one quadrature over v = t_B - t_A of a
window factor M(v) and the radial kernel
K(v; r) = int_0^inf sin(w*r)/r exp(-(w*sigma)^2/2 + i*w*v) dw, sigma the
smearing width both detectors share (``Scenario`` rejects unequal ones):
I_nn = int M(v; -gap, gap) K(v; 0), I_AB = int M(v; -gap_A, gap_B) K(v; r)
and J = int M(v; gap_A, gap_B) K(-|v|; r), the signs of v being J's time
orderings.  K(-v) = conj K(v), so J's kernel is the conjugate of K where
v >= 0, and I_AB and J are two components of one quadrature that
evaluates K once per node.  I_nn is integrated by parts, as
i*int M'(v) F(v) dv.  A clock offset averages M exactly, on one route,
``_j_clock_result``, that checks its inputs before any quadrature.  The
spatial smear, x = r0/delta, is from x = 9.5 on one time-domain
quadrature of M against the smeared kernel summed in powers of delta/r0.
Below, it splits its erfi factor into a separation-independent term,
e^(-x^2) times one time-domain integral C = int M(v; gap_A, gap_B) F(-|v|) dv
shared per detector pair, and a remainder damped as e^(-(w*delta)^2/4),
a frequency quadrature of the kernel Jhat over the finite range where
its envelope exceeds 1e-18 (``_TAIL``).  Every kernel, F = G_0,
K(v; r) = [F(v + r) - F(v - r)]/(2ir), K(v; 0) = G_1 and the smeared one,
is one sum of the Faddeeva moments G_m = int_0^inf w^m exp(-(w*S)^2/2 +
i*w*a) dw (``_MomentKernel``).

Basis order throughout is {|gg>, |ge>, |eg>, |ee>}.  The reduced state is
fixed by the two local excitation terms (real, separation-independent),
one exchange term, and one |gg><ee| correlation term; entanglement at
this order is the competition between the correlation term and the local
noise.  ``assemble_rho`` and ``partial_transpose`` give the matrix form
of the state for inspection; no report quantity is computed from it.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erf, gamma, gammaincc

from .detectors import (
    CausalClass,
    DetectorParams,
    Scenario,
    TimingRegime,
    classify_causal,
    classify_timing,
)
from .quadrature import (
    DEFAULT_SETTINGS,
    ConvergenceFailure,
    IntegrandSpec,
    QuadratureSettings,
    QuadResult,
    integrate_radial,
)
from .specfun import _damped_erf, _ediff, faddeeva_w

__all__ = [
    "SecondOrderIntegrals",
    "HarvestReport",
    "compute_I_nn",
    "compute_I_AB",
    "compute_J",
    "compute_J_smeared",
    "compute_J_time_smeared",
    "assemble_rho",
    "partial_transpose",
    "negativity_closed",
    "negativity_sectors",
    "bell_fractions",
    "ratio_R",
    "ROW_ERRORS",
    "evaluate_scenario",
    "evaluate_scenarios",
]

@dataclass(frozen=True)
class SecondOrderIntegrals:
    """The four scalars that fully determine the reduced two-detector state."""

    i_aa: float
    i_bb: float
    i_ab: complex
    j: complex

    @property
    def i_plus(self) -> float:
        return self.i_aa + self.i_bb

    @property
    def i_minus(self) -> float:
        return self.i_aa - self.i_bb

    def validate(self) -> None:
        if not (self.i_aa >= 0.0 and self.i_bb >= 0.0):
            raise ValueError("SecondOrderIntegrals: diagonal terms must be >= 0")
        if abs(self.i_ab) ** 2 > self.i_aa * self.i_bb + 1e-10:
            raise ValueError(
                "SecondOrderIntegrals: |i_ab|^2 exceeds i_aa*i_bb (Cauchy-Schwarz)"
            )
        if self.i_plus >= 1.0:
            raise ValueError(
                f"assemble_rho: i_aa + i_bb = {self.i_plus:.3g} >= 1 leaves no ground-state "
                "population; outside the perturbative regime"
            )


def _origin(da: DetectorParams, db: DetectorParams) -> float:
    """Common time origin of the kernels: the earlier switch-on time.

    Only time differences enter the integrands, so measuring the windows
    from here makes the quadrature independent of a common time shift;
    the constant phase the shift carries is restored exactly afterwards.
    """
    return min(da.window.t_on, db.window.t_on)


def _scaled(res: QuadResult, pref: float, phase_rate: float, t0: float) -> QuadResult:
    """pref times an integral whose kernel was evaluated from origin t0,
    with the kernel's constant phase exp(i*phase_rate*t0) restored."""
    value = pref * res.value
    if t0 != 0.0:
        value *= cmath.exp(1j * phase_rate * t0)
    return QuadResult(value, pref * res.abs_error, res.evaluations)


def _jtilde(emitter: DetectorParams, absorber: DetectorParams, omega: np.ndarray,
            t0: float) -> np.ndarray:
    """Correlation kernel: the nested two-time integral over absorber time t
    and emitter time t' <= t, for any window timing.

    Closed form assembled from entire ``ediff`` blocks, split into the
    overlap and no-overlap time domains and recombined before any
    division; the only division is by omega + emitter.gap > 0, so the
    expression is regular for all omega >= 0 (in particular at
    omega = absorber.gap).  Disjoint windows give the product of the two
    one-window time integrals, and an absorber window that ends before
    the emitter's starts gives exactly 0.  Vectorized in omega.  The
    windows are measured from t0; the absolute kernel is
    exp(i*(absorber.gap + emitter.gap)*t0) times this one.
    """
    n_on, n_off = absorber.window.t_on - t0, absorber.window.t_off - t0
    m_on, m_off = emitter.window.t_on - t0, emitter.window.t_off - t0
    a_minus = omega - absorber.gap
    a_plus = omega + emitter.gap
    gap_sum = absorber.gap + emitter.gap
    out = np.zeros(omega.shape, dtype=complex)

    u0, u1 = max(n_on, m_on), min(n_off, m_off)
    if u1 > u0:
        const = _ediff(u0, u1, np.float64(gap_sum))  # frequency-independent block
        out -= (const - np.exp(1j * a_plus * m_on) * _ediff(u0, u1, -a_minus)) / a_plus
    v0, v1 = max(n_on, m_off), n_off
    if v1 > v0:
        out -= _ediff(v0, v1, -a_minus) * _ediff(m_on, m_off, a_plus)
    return out


def _jhat(s: Scenario, omega: np.ndarray, t0: float) -> np.ndarray:
    """Sum of both emitter/absorber orderings of the correlation kernel,
    windows measured from t0."""
    return _jtilde(s.det_a, s.det_b, omega, t0) + _jtilde(s.det_b, s.det_a, omega, t0)


_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
# Level at which every Gaussian tail is cut: a clock offset's spread and the
# spatial remainder's frequency envelope.  It lies far below double
# precision, so the cut adds nothing to any reported error.
_TAIL = 1e-18
# From x = r0/delta = _SERIES_X0 on, the spatial smear is one time-domain
# quadrature of a kernel summed in powers of delta/r0 instead of C and a
# frequency remainder, whose first partition holds about 67*x evaluations.
# Term n of the series falls about as x^-n.  It is not 10, which fig3's log
# grid of delta misses by an ulp.
_SERIES_X0 = 9.5
# The bound on the terms left out is kept below this fraction of tol_abs, so
# it never decides whether a row meets its tolerance.  A row that would
# need more than _SERIES_MAX_TERMS terms takes the frequency route instead;
# up to that many, the kernel's rounding stays within about 10 eps at x >= 9.5.
_SERIES_FLOOR = 1e-2
_SERIES_MAX_TERMS = 40
# Least |t| from which a moment kernel that cancels takes the expansion in 1/t;
# the expansion's terms beyond the series' own, and their size where it stops.
_ASYMPTOTIC_T = 15.0
_ASYMPTOTIC_EXTRA = 40
_ASYMPTOTIC_CUT = 1e-17


def _recurrence_table(size: int, first: tuple, step) -> np.ndarray:
    """Coefficients a[n, k] of t^k in polynomials P_n, n < size, from those
    of P_0 and P_1 and P_(n+1) = t P_n + step(n) P_(n-1)."""
    a = np.zeros((size, size))
    for n, p in enumerate(first):
        a[n, :len(p)] = p
    for n in range(1, size - 1):
        a[n + 1, 1:] = a[n, :-1]
        a[n + 1] += step(n) * a[n - 1]
    return a


_ORDERS = np.arange(_SERIES_MAX_TERMS + 1)
# E|Z|^n for a standard normal Z
_ABS_MOMENTS = 2.0 ** (0.5 * _ORDERS) * gamma(0.5 * (_ORDERS + 1)) / _SQRT_PI
# Stein's identity: E[(rho/s)^n e^(i w rho)] = e^(-(w s)^2/2) sum_m h[n, m] (i w s)^m
# for rho ~ N(0, s^2)
_STEIN = _recurrence_table(_SERIES_MAX_TERMS, ([1.0], [0.0, 1.0]), lambda n: n)
# the Hermite polynomials He_m, and the solution Q_m of their recurrence
# P_(m+1) = t P_m - m P_(m-1) from Q_0 = 0, Q_1 = 1
_HE = _recurrence_table(_SERIES_MAX_TERMS, ([1.0], [0.0, 1.0]), lambda n: -n)
_HQ = _recurrence_table(_SERIES_MAX_TERMS, ([], [1.0]), lambda n: -n)
# as t -> inf, int_0^inf w^m exp(-w^2/2 + i w t) dw = i^(m+1) sum_j a[j, m] t^-(j+1),
# a[j, m] = j!/(l! 2^l) for j = m + 2l: integration by parts
_ASYMPTOTIC = np.array([[math.factorial(j) / (math.factorial((j - m) // 2) * 2.0 ** ((j - m) // 2))
                         if j >= m and (j - m) % 2 == 0 else 0.0
                         for m in range(_SERIES_MAX_TERMS)]
                        for j in range(_SERIES_MAX_TERMS + _ASYMPTOTIC_EXTRA)])


@dataclass(frozen=True, eq=False)
class _MomentKernel:
    """Every time-domain kernel: a sum over offsets c of the Faddeeva
    moments G_m(a) = int_0^inf w^m exp(-(w S)^2/2 + i w a) dw at a = v + c,
    S = ``scale``, as a transform (u, shift) -> value at v = u + shift.
    In t = a/S, G_m = i^m p_m(t)/S^(m+1), and their recurrence (Abramowitz
    & Stegun 7.2.5) p_(m+1) = t p_m - m p_(m-1) from p_0 = sqrt(pi/2)
    w(t/sqrt(2)) and p_1 = t p_0 - i gives p_m = p_0 He_m(t) - i Q_m(t).
    A real-weighted sum of p_m is factor * sum_c [w(z_c) A_c(t_c) - i B_c(t_c)],
    z_c = (u + (shift + c))/(sqrt(2) S), t_c = sqrt(2) z_c: one
    ``faddeeva_w`` call per node and offset.  F and K(v; r) have constant A
    and B = 0.  Where a sum of higher moments cancels, from |t| = ``split``
    on, it is i/t times a polynomial in 1/t (``far``), the moments'
    expansion, which leaves out e^(-t^2/2) <= e^(-112) of them.
    """

    offsets: tuple
    scale: float
    factor: complex
    near: np.ndarray                # [offset, (A, B), power of t], or A [offset]
    split: float = math.inf
    far: np.ndarray | None = None   # [offset, power of 1/t]

    def __call__(self, u, shift):
        u = np.asarray(u, dtype=float)
        z = np.concatenate([u + (shift + c) for c in self.offsets]) / (_SQRT2 * self.scale)
        t = _SQRT2 * z
        near = slice(None) if self.near.ndim == 1 else np.abs(t) < self.split
        w = faddeeva_w(z[near])
        if self.near.ndim == 1:  # constant A, B = 0: no polynomial work
            out = w.reshape(len(self.offsets), -1) * self.near[:, None]
        else:
            row = np.repeat(np.arange(len(self.offsets)), u.size)
            out = np.empty(z.size, dtype=complex)
            powers = np.vander(t[near], self.near.shape[2], increasing=True)
            a, b = np.einsum("ik,ipk->pi", powers, self.near[row[near]])
            out[near] = w * a - 1j * b
            far = ~near
            if far.any():
                inv = 1.0 / t[far]
                powers = np.vander(inv, self.far.shape[1], increasing=True)
                out[far] = 1j * inv * np.einsum("ij,ij->i", powers, self.far[row[far]])
        return out.reshape(len(self.offsets), -1).sum(axis=0) * self.factor


def _moment_kernel(offsets: tuple, scale: float, factor: complex, d: np.ndarray,
                   split: float) -> _MomentKernel:
    """factor * sum_(c, m) d[c, m] p_m(t_c) for real weights d, with the
    moments' expansion from |t| = split on."""
    n = d.shape[1]
    far = d @ _ASYMPTOTIC[:, :n].T
    # from the split on, each term of the expansion is at most its size there
    size = np.abs(far).max(axis=0) * (1.0 / split) ** np.arange(far.shape[1])
    terms = int(np.nonzero(size > _ASYMPTOTIC_CUT * size.max())[0][-1]) + 1
    near = np.stack([(_SQRT_PI / _SQRT2) * (d @ _HE[:n, :n]), d @ _HQ[:n, :n]], axis=1)
    return _MomentKernel(offsets, scale, factor, near, split, far[:, :terms])


# K(v; 0) = G_1 = i p_1(t)/sigma^2 at sigma = 1; its real part cancels to eps*t^2
_G1 = _moment_kernel((0.0,), 1.0, 1j, np.array([[0.0, 1.0]]), _ASYMPTOTIC_T)


def _fourier_kernel(sigma: float) -> _MomentKernel:
    """F(v) = int_0^inf exp(-(w*sigma)^2/2 + i*w*v) dw = G_0."""
    return _MomentKernel((0.0,), sigma, _SQRT_PI / (_SQRT2 * sigma), np.ones(1))


def _kernel(r: float, sigma: float):
    """K(v; r) = [F(v + r) - F(v - r)]/(2ir), r >= 0, as a transform of
    ``_time_integral``.  Formed as u + (shift +- r), a peak of F at
    shift = -+r is resolved to the rounding of u, not of v.  The difference
    cancels to about eps*max(sigma, |v|)/r, so at nodes where
    r < 1e-5*max(sigma, |v|) its limit K(v; 0) = G_1, exact there to
    (r/sigma)^2/6, is used."""
    limit = replace(_G1, scale=sigma, factor=1j / sigma**2)
    if r == 0.0:
        return limit
    exact = _MomentKernel((r, -r), sigma, _SQRT_PI / (_SQRT2 * sigma * 2j * r),
                          np.array([1.0, -1.0]))

    def kernel(u, shift):
        out = exact(u, shift)
        near = r < 1e-5 * np.maximum(sigma, np.abs(u + shift))
        return np.where(near, limit(u, shift), out) if near.any() else out

    return kernel


def _window(v, a, b, g_a: float, g_b: float):
    """M(v) = int exp(i*g_a*t + i*g_b*(t + v)) dt over t in window a with
    t + v in window b, windows as (on, off) pairs; zero outside
    b_on - a_off < v < b_off - a_on."""
    lo = np.maximum(a[0], b[0] - v)
    hi = np.maximum(np.minimum(a[1], b[1] - v), lo)
    return -1j * np.exp(1j * g_b * v) * _ediff(lo, hi, np.float64(g_a + g_b))


def _clock_window(v, a, b, g_a: float, g_b: float, dt: float):
    """M(v) averaged over an offset tau ~ N(0, dt^2/2) of window b.

    The offset window gives exp(i*g_b*tau)*M(v - tau), a time integral of
    exp(i*mu*t), mu = g_a + g_b, from max(a_on, b_on - v + tau) to
    min(a_off, b_off - v + tau).  Each end is either fixed or moves with
    tau, so the average is a sum of Gaussian masses of 1 (real erf) and
    of exp(i*mu*tau) (``damped_erf``) between the offsets where the ends
    switch: exact for every window timing.  Requires mu != 0.
    """
    mu = g_a + g_b
    s_on, s_off = b[0] - v, b[1] - v
    x = np.stack([a[0] - s_off, a[0] - s_on, a[1] - s_off, a[1] - s_on]) / dt
    e = _damped_erf(x, np.float64(0.5 * mu * dt))
    p = erf(x)
    end = np.exp(1j * mu * a[1]) * (p[3] - p[2]) + np.exp(1j * mu * s_off) * (e[2] - e[0])
    start = np.exp(1j * mu * a[0]) * (p[1] - p[0]) + np.exp(1j * mu * s_on) * (e[3] - e[1])
    return 0.5 * np.exp(1j * g_b * v) * (end - start) / (1j * mu)


def _time_integral(da: DetectorParams, db: DetectorParams, r: float,
                   settings: QuadratureSettings, delta_t: float = 0.0,
                   transform: Callable | None = None, exchange: bool = False) -> list[QuadResult]:
    """pref times the integral of M(v; gap_A, gap_B) * K(-|v|), J's time
    ordering, over the support of M; with ``exchange``, preceded by that of
    the unsmeared M(v; -gap_A, gap_B) * K(v), I_AB's, from the same
    quadrature.  One result per integral.  The kernel at v = u + shift is
    ``transform(u, shift)``, by default K(v; r), with peaks at v = +-r.
    Each transforms a real spectrum, so K(-v) = conj K(v): the time-ordered
    kernel is the conjugate where v >= 0, and one kernel evaluation per
    node serves both integrals, which share support, anchors and phase
    rate.  With delta_t > 0, M is averaged over a clock
    offset of db's window of scale delta_t, which widens the support by
    delta_t*sqrt(ln(1/_TAIL)) on each side.

    The windows are measured from the earlier switch-on time, and v from
    the kernel peak c = +-r on the side of the support's midpoint, so that
    the peak, of width sigma, is resolved to the rounding of u = v - c.
    Anchors: the peaks, the kink at v = 0 (J), and the kinks and ends of M.
    A clock offset smooths M's kinks and ends over its standard deviation
    delta_t/sqrt(2); they are then peaks of that width, or of sigma if larger.
    """
    sigma, g_a, g_b = da.smearing, da.gap, db.gap
    t0 = _origin(da, db)
    a = (da.window.t_on - t0, da.window.t_off - t0)
    b = (db.window.t_on - t0, db.window.t_off - t0)
    lo, hi = b[0] - a[1], b[1] - a[0]
    r = abs(r)
    kinks, peaks = [0.0, b[0] - a[0], b[1] - a[1]], [(-r, sigma), (r, sigma)]
    if delta_t > 0.0:  # M's kinks and ends, smoothed over the offset's spread
        width = max(sigma, delta_t / _SQRT2)
        peaks += [(p, width) for p in kinks[1:] + [lo, hi]]
        tail = delta_t * math.sqrt(math.log(1.0 / _TAIL))
        lo, hi = lo - tail, hi + tail
    c = r if lo + hi >= 0.0 else -r
    transform = transform or _kernel(r, sigma)

    def evaluate(u):
        v = u + c
        kernel = transform(u, c)
        m = (_clock_window(v, a, b, g_a, g_b, delta_t) if delta_t > 0.0
             else _window(v, a, b, g_a, g_b))
        ordered = m * np.where(v >= 0.0, kernel.conj(), kernel)
        if not exchange:
            return ordered
        return np.stack([_window(v, a, b, -g_a, g_b) * kernel, ordered], axis=1)

    spec = IntegrandSpec(
        evaluate=evaluate,
        max_phase_rate=g_a + g_b,
        singular_points=tuple(k - c for k in kinks),
        support=(lo - c, hi - c),
        peaks=tuple((p - c, w) for p, w in peaks),
    )
    res = integrate_radial(spec, settings)
    pref = da.coupling * db.coupling / (4.0 * math.pi**2)
    rates = (g_b - g_a, g_a + g_b) if exchange else (g_a + g_b,)
    values, errors = np.atleast_1d(res.value, res.abs_error)
    return [_scaled(QuadResult(complex(v), float(e), res.evaluations), pref, rate, t0)
            for v, e, rate in zip(values, errors, rates)]


def _i_nn_result(det: DetectorParams, settings: QuadratureSettings) -> QuadResult:
    """I_nn by parts.  K(v; 0) = -i*F'(v), and M(v; -gap, gap) =
    e^(i*gap*v)*(T - |v|) vanishes at v = +-T, so
    I_nn = pref*i*int e^(i*gap*v)*(i*gap*(T - |v|) - sign v)*F(v) dv over
    |v| < T.  F(-v) is the conjugate of F(v), so that is twice the integral
    of the real part over 0 < v < T, and the tolerance applies to I_nn
    itself.  Unlike K(v; 0), whose spike at v = 0 the -1/v^2 tails cancel,
    F leaves no small difference of large terms.
    """
    g, sigma, width = det.gap, det.smearing, det.window.duration
    fourier = _fourier_kernel(sigma)

    def evaluate(v):
        f = 1j * np.exp(1j * g * v) * (1j * g * (width - v) - 1.0) * fourier(v, 0.0)
        return f.real

    spec = IntegrandSpec(
        evaluate=evaluate,
        max_phase_rate=2.0 * g,  # gap_A + gap_B, as in ``_time_integral``
        support=(0.0, width),
        peaks=((0.0, sigma),),
    )
    res = integrate_radial(spec, settings)
    pref = 2.0 * det.coupling**2 / (4.0 * math.pi**2)
    return QuadResult(pref * res.value.real, pref * res.abs_error, res.evaluations)


def compute_I_nn(det: DetectorParams, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Local excitation term of one detector (separation-independent, >= 0)."""
    return _i_nn_result(det, settings).value.real


def compute_I_AB(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> complex:
    """Exchange term between the detectors (enters the |ge><eg| coherence)."""
    return _time_integral(s.det_a, s.det_b, s.separation, settings, exchange=True)[0].value


def compute_J(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> complex:
    """Correlation term connecting |gg> and |ee> at the mean separation."""
    return _time_integral(s.det_a, s.det_b, s.separation, settings, exchange=True)[1].value


def _c_result(s: Scenario, settings: QuadratureSettings) -> QuadResult:
    """C = pref * int M(v; gap_A, gap_B) F(-|v|) dv, which is
    pref * int_0^inf exp(-(w*sigma)^2/2) Jhat(w) dw: the part of the spatial
    smear that depends on neither separation nor uncertainty."""
    return _time_integral(s.det_a, s.det_b, 0.0, settings,
                          transform=_fourier_kernel(s.det_a.smearing))[0]


def _j_smeared_result(s: Scenario, settings: QuadratureSettings, cache: dict) -> QuadResult:
    """Complex correlation term averaged over a Gaussian separation spread.

    The separation enters only through sinc(w*r), whose Gaussian average
    is D(x, delta*w/2) = e^(-x^2) - R, x = r0/delta (``damped_im_erfi``),
    for every window timing.  From x = ``_SERIES_X0`` on, the whole
    average is the time-domain series of ``_j_series_result``.  Below
    it, the e^(-x^2) term is e^(-x^2)*sqrt(pi)/delta times C, shared in
    ``cache`` by detector pair; R carries exp(-(w*sigma)^2/2 - (w*delta)^2/4),
    so its frequency quadrature ends where that envelope falls to
    ``_TAIL``.  A sum whose error misses the tolerance raises a
    ConvergenceFailure carrying it.
    """
    delta = s.position_uncertainty
    if not delta > 0.0:
        raise ValueError("compute_J_smeared: requires position_uncertainty > 0")
    sig = s.det_a.smearing
    x = s.separation / delta
    if x >= _SERIES_X0:
        res = _j_series_result(s, settings)
        if res is not None:
            return res
    da, db = s.det_a, s.det_b
    t0 = _origin(da, db)
    flat = math.exp(-x * x)

    def remainder(w):
        return ((flat - _damped_erf(0.5 * delta * w, np.float64(x)).real)
                * np.exp(-0.5 * (w * sig) ** 2) * _jhat(s, w, t0))

    scale = math.sqrt(sig**2 + 0.5 * delta**2)
    spec = IntegrandSpec(
        evaluate=remainder,
        support=(0.0, math.sqrt(2.0 * math.log(1.0 / _TAIL)) / scale),
        max_phase_rate=s.separation + 2.0 * (max(da.window.t_off, db.window.t_off) - t0),
        singular_points=(da.gap, db.gap),
    )
    pref = da.coupling * db.coupling / (4.0 * delta * math.pi**1.5)
    res = _scaled(integrate_radial(spec, settings), pref, da.gap + db.gap, t0)
    value, error, evaluations = -res.value, res.abs_error, res.evaluations
    weight = flat * _SQRT_PI / delta
    if weight > 0.0:
        c = _shared(cache, ("c", da, db), lambda: _c_result(s, settings))
        value += weight * c.value
        error += weight * c.abs_error
        evaluations += c.evaluations
    return _within_tolerance(QuadResult(value, error, evaluations), settings, pref)


def _within_tolerance(res: QuadResult, settings: QuadratureSettings, pref: float) -> QuadResult:
    """res, or a ConvergenceFailure carrying it when its error, summed over
    its parts, misses the tolerance of an integral with prefactor pref."""
    if res.abs_error > max(settings.tol_abs * pref, settings.tol_rel * abs(res.value)):
        raise ConvergenceFailure(
            "compute_J_smeared: the sum of its parts' errors misses the tolerance", res)
    return res


def _make_series_kernel(x: float, sigma: float, r0: float, area: float,
                        floor: float) -> tuple[_MomentKernel, float] | None:
    """The smeared kernel <K(v; r)>, r = r0 + rho, rho ~ N(0, s^2),
    s = delta/sqrt(2), to N terms in s/r0, and a bound on what the rest
    adds to the raw J integral.  As 1/r = sum_(n<N) (-rho)^n/r0^(n+1) +
    (-rho/r0)^N/r, term n is (-1)^n r0^-(n+1) int_0^inf Im[e^(i w r0)
    m_n(w)] e^(-(w sigma)^2/2 + i w v) dw, and Stein's identity gives
    m_n(w) = E[rho^n e^(i w rho)] = s^n e^(-(w s)^2/2) sum_m h_nm (i w s)^m:
    moments of S^2 = sigma^2 + s^2 at v +- r0, over 2i r0 S, whose terms
    are of size |eps eta t|^m, eps = s/r0, eta = s/S.

    |K(v; r)| <= 1/sigma^2 everywhere and <= sqrt(pi/2)/(sigma |r|), so
    the rest, r0^-N E[(-rho)^N K(v; r)], is at most eps^N mu_N
    [sqrt(2 pi)/(sigma r0) + Q((N+1)/2, x^2/4)/(2 sigma^2)] at every v,
    mu_N = E|Z|^N and Q the upper incomplete gamma ratio of the part
    rho < -r0/2; the windows' factor integrates to at most ``area`` =
    T_A*T_B in |M|.  The rest holds everything the series leaves out,
    the e^(-x^2) term of the frequency route included.  N is the first
    count whose bound is at most ``floor``; None if that count exceeds
    ``_SERIES_MAX_TERMS``.
    """
    eps = 1.0 / (_SQRT2 * x)
    s = r0 * eps
    scale = math.sqrt(sigma**2 + s * s)
    eta = s / scale
    bounds = area * eps**_ORDERS * _ABS_MOMENTS * (
        math.sqrt(2.0 * math.pi) / (sigma * r0)
        + gammaincc(0.5 * (_ORDERS + 1), 0.25 * x * x) / (2.0 * sigma**2))
    if not bounds[-1] <= floor:
        return None
    n = max(1, int(np.argmax(bounds <= floor)))
    m = _ORDERS[:n]
    # p_m's weights: d_m = (-eta)^m w_m at t+ and d'_m = -eta^m w_m at t-,
    # w_m = sum_(n<N) (-eps)^n h_nm
    weights = (-eps) ** m @ _STEIN[:n, :n] * eta**m
    d = np.stack([weights * (-1.0) ** m, -weights])
    kernel = _moment_kernel((r0, -r0), scale, 1.0 / (2j * r0 * scale), d,
                            max(_ASYMPTOTIC_T, 1.0 / (eps * eta)))
    return kernel, float(bounds[n])


def _j_series_result(s: Scenario, settings: QuadratureSettings) -> QuadResult | None:
    """The spatially smeared J as one time-domain quadrature of the
    windows' factor against ``_make_series_kernel``'s kernel, its error
    raised by the bound on what the series leaves out; None where the
    series would need too many terms."""
    da, db = s.det_a, s.det_b
    r0 = s.separation
    pref = da.coupling * db.coupling / (4.0 * math.pi**2)
    series = _make_series_kernel(r0 / s.position_uncertainty, da.smearing, r0,
                                 da.window.duration * db.window.duration,
                                 _SERIES_FLOOR * settings.tol_abs)
    if series is None:
        return None
    kernel, bound = series
    res = _time_integral(da, db, r0, settings, transform=kernel)[0]
    return _within_tolerance(QuadResult(res.value, res.abs_error + pref * bound,
                                        res.evaluations), settings, pref)


def compute_J_smeared(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """|correlation term| under Gaussian separation uncertainty (closed form)."""
    return abs(_j_smeared_result(s, settings, {}).value)


def _j_clock_result(s: Scenario, delta_t: float, settings: QuadratureSettings) -> QuadResult:
    """Correlation term averaged over a Gaussian clock offset of B's window
    of scale delta_t: the only route to it, which checks both of its
    preconditions before any quadrature runs."""
    if s.position_uncertainty > 0.0:
        raise ValueError("clock-offset smear: spatial and temporal smearing are exclusive")
    if not delta_t > 0.0:
        raise ValueError("clock-offset smear: delta_t must be > 0")
    return _time_integral(s.det_a, s.det_b, s.separation, settings, delta_t)[0]


def compute_J_time_smeared(
    s: Scenario,
    delta_t: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """|correlation term| under a Gaussian clock-offset spread of scale delta_t.

    The offset distribution mirrors the spatial convention
    (variance delta_t^2/2) and shifts the second window; its average is
    exact for every window timing (``_clock_window``).
    """
    return abs(_j_clock_result(s, delta_t, settings).value)


def assemble_rho(ints: SecondOrderIntegrals) -> np.ndarray:
    """Matrix form of the second-order reduced state; trace 1 and Hermitian
    by construction."""
    ints.validate()
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0 - ints.i_plus
    m[1, 1] = ints.i_bb
    m[2, 2] = ints.i_aa
    m[1, 2] = ints.i_ab
    m[2, 1] = np.conj(ints.i_ab)
    m[0, 3] = -np.conj(ints.j)
    m[3, 0] = -ints.j
    return m


def partial_transpose(m) -> np.ndarray:
    """Transpose the second-qubit index of a two-qubit matrix."""
    return np.asarray(m, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity_closed(ints: SecondOrderIntegrals) -> tuple[float, float]:
    """(raw, clamped) negativity from the closed form of the single negative
    eigenvalue of the partially transposed second-order state."""
    raw = -0.5 * (ints.i_plus - math.sqrt(ints.i_minus**2 + 4.0 * abs(ints.j) ** 2))
    return raw, max(0.0, raw)


def negativity_sectors(ints: SecondOrderIntegrals) -> tuple[float, float]:
    """The two decoupled sectors of the partially transposed state.

    Returns (inner, outer): ``inner`` is the second-order negativity of
    the {|ge>,|eg>} block; ``outer`` is the smaller eigenvalue of the
    {|gg>,|ee>} block [[a, i_ab], [conj(i_ab), 0]] with a = 1 - i_plus, a
    fourth-order diagnostic that is excluded from the reported
    negativity, in the form -2|i_ab|^2 / (a + sqrt(a^2 + 4|i_ab|^2)),
    which has no cancellation.  Requires i_plus < 1, as ``validate``
    checks.
    """
    return negativity_closed(ints)[1], _corner_eigenvalue(ints)


def _corner_eigenvalue(ints: SecondOrderIntegrals) -> float:
    """The ``outer`` value of ``negativity_sectors``."""
    a = 1.0 - ints.i_plus
    x = abs(ints.i_ab) ** 2
    return min(0.0, -2.0 * x / (a + math.sqrt(a * a + 4.0 * x)))  # 0.0, not -0.0, at i_ab = 0


def bell_fractions(ints: SecondOrderIntegrals) -> tuple[float, float, float, float]:
    """(phi+, phi-, psi+, psi-) overlaps of the second-order state:
    (1 - i_plus)/2 -/+ Re j and i_plus/2 +/- Re i_ab."""
    phi = 0.5 * (1.0 - ints.i_plus)
    psi = 0.5 * ints.i_plus
    j_re, i_ab_re = float(ints.j.real), float(ints.i_ab.real)
    return phi - j_re, phi + j_re, psi + i_ab_re, psi - i_ab_re


def ratio_R(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Smeared-to-unsmeared magnitude ratio of the correlation term."""
    j0 = abs(compute_J(s, settings))
    if j0 == 0.0:
        raise ZeroDivisionError("ratio_R: unsmeared correlation term vanishes")
    return compute_J_smeared(s, settings) / j0


@dataclass(frozen=True)
class HarvestReport:
    """Full second-order characterization of one scenario."""

    integrals: SecondOrderIntegrals      # j holds the smeared value when smearing applies
    j_unsmeared: complex
    j_smeared_abs: float | None
    # None, "erfi-closed-form" (spatial) or "closed-form-time" (clock offset)
    smearing_method: str | None
    negativity_raw: float
    negativity: float
    # smaller eigenvalue of the partial transpose's {|gg>,|ee>} block, in
    # closed form; a fourth-order diagnostic excluded from the negativity
    o4_corner_eigenvalue: float
    bell_phi_plus: float
    bell_phi_minus: float
    bell_psi_plus: float
    bell_psi_minus: float
    causal_class: CausalClass
    timing: TimingRegime
    quad_errors: dict = field(default_factory=dict)


# Window durations built as (t_on, t_on + d) differ by a few ulps; I_nn of
# one is reused for another this close.  dI_nn/dT = pref int_0^inf w
# e^(-(w sigma)^2/2) 2 sin((w + gap) T)/(w + gap) dw is at most
# pref*sqrt(2 pi)/sigma, pref = coupling^2/(4 pi^2), so a reused I_nn is off
# by at most pref*sqrt(2 pi)*_DURATION_ULPS*ulp(T)/sigma, about
# 2e-15*pref*T/sigma.  I_nn itself is 3 to 12 pref for T from 10 to 1e5
# sigma (gap*sigma of 1e-3 and 0.1), so that is below 5e-11 relative there,
# under the quadrature's own error.
_DURATION_ULPS = 4

ROW_ERRORS = (ConvergenceFailure, ValueError, ZeroDivisionError)
"""Exceptions that ``evaluate_scenarios`` records for a row instead of raising."""


def _shared(cache: dict, key, compute):
    """cache[key], computed on first use; a failure is kept and raised again
    for every row that needs the same integral."""
    if key not in cache:
        try:
            cache[key] = compute()
        except ROW_ERRORS as exc:
            cache[key] = exc
    out = cache[key]
    if isinstance(out, Exception):
        raise out
    return out


def _row_report(s: Scenario, time_smear: float | None, settings: QuadratureSettings,
                cache: dict) -> HarvestReport:
    """One row of ``evaluate_scenarios``; ``cache`` holds the integrals rows
    share, keyed by what each depends on.  The row's smear comes first, so
    an input it rejects costs no quadrature."""
    if time_smear is not None:
        res_sm, method = _j_clock_result(s, time_smear, settings), "closed-form-time"
    elif s.position_uncertainty > 0.0:
        res_sm, method = _j_smeared_result(s, settings, cache), "erfi-closed-form"
    else:
        res_sm, method = None, None

    def i_nn(det: DetectorParams) -> QuadResult:
        # keyed by what ``_i_nn_result`` reads, not by where the window sits;
        # a duration within rounding of a computed one reuses it
        durations = cache.setdefault(("i_nn", det.coupling, det.gap, det.smearing), {})
        t = det.window.duration
        key = next((d for d in durations if abs(d - t) <= _DURATION_ULPS * math.ulp(max(d, t))), t)
        return _shared(durations, key, lambda: _i_nn_result(det, settings))

    res_aa, res_bb = i_nn(s.det_a), i_nn(s.det_b)
    res_ab, res_j = _shared(cache, ("pair", s.det_a, s.det_b, s.separation),
                            lambda: _time_integral(s.det_a, s.det_b, s.separation, settings,
                                                   exchange=True))
    errors = {"i_aa": res_aa.abs_error, "i_bb": res_bb.abs_error,
              "i_ab": res_ab.abs_error, "j": res_j.abs_error}

    j_unsmeared = res_j.value
    j_eff = j_unsmeared
    j_smeared_abs = None
    if res_sm is not None:
        j_eff = res_sm.value
        errors["j_smeared"] = res_sm.abs_error
        j_smeared_abs = abs(j_eff)

    ints = SecondOrderIntegrals(
        i_aa=res_aa.value.real,
        i_bb=res_bb.value.real,
        i_ab=res_ab.value,
        j=j_eff,
    )
    ints.validate()
    raw, clamped = negativity_closed(ints)
    outer = _corner_eigenvalue(ints)
    phi_p, phi_m, psi_p, psi_m = bell_fractions(ints)
    return HarvestReport(
        integrals=ints,
        j_unsmeared=j_unsmeared,
        j_smeared_abs=j_smeared_abs,
        smearing_method=method,
        negativity_raw=raw,
        negativity=clamped,
        o4_corner_eigenvalue=outer,
        bell_phi_plus=phi_p,
        bell_phi_minus=phi_m,
        bell_psi_plus=psi_p,
        bell_psi_minus=psi_m,
        causal_class=classify_causal(s),
        timing=classify_timing(s.det_a.window, s.det_b.window),
        quad_errors=errors,
    )


def evaluate_scenarios(
    rows: Iterable[tuple[Scenario, float | None]],
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> list[HarvestReport | Exception]:
    """``evaluate_scenario`` for each ``(scenario, time_smear)`` row, computing
    what the rows share once.

    One cache holds every integral rows share, keyed by what it depends
    on: the local term by coupling, gap, smearing and window duration
    (equal to within ``_DURATION_ULPS`` ulps), the exchange and unsmeared
    correlation terms, one quadrature, by (detector A, detector B,
    separation), and the spatial smear's C by detector pair alone, so an r
    sweep computes it once.  Only the rest of each row's smeared
    correlation term is its own.  Returns, in row order, the report or the
    ``ROW_ERRORS`` exception that row raised; a failed shared integral
    fails every row that needs it.  Nothing is kept after the call returns.
    """
    cache: dict = {}
    out: list = []
    for s, time_smear in rows:
        try:
            out.append(_row_report(s, time_smear, settings, cache))
        except ROW_ERRORS as exc:
            out.append(exc)
    return out


def evaluate_scenario(
    s: Scenario,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    time_smear: float | None = None,
) -> HarvestReport:
    """Compute every report quantity for one scenario.

    The local term is one time-domain quadrature, computed once for two
    equal detectors, and the exchange and unsmeared correlation terms
    share another.  With nonzero position uncertainty the correlation term
    is smeared over separations: from r0 = 9.5 delta on by one time-domain
    quadrature of a kernel summed in powers of delta/r0; closer, by the
    erfi closed form, one time-domain quadrature, C, where the separation
    is within a few uncertainties, and a frequency quadrature damped on the
    scale 1/delta.  ``time_smear`` applies the clock-offset smear instead,
    a time-domain quadrature of the exactly averaged window factor.  Both
    hold for every window timing.  The local terms are never smeared.
    """
    out = evaluate_scenarios([(s, time_smear)], settings)[0]
    if isinstance(out, Exception):
        raise out
    return out
