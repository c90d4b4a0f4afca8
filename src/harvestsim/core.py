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
``_clock_member``, that checks its inputs before any quadrature.  The
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

Each integral is a ``_Member`` of one of six kinds (the I_AB/J pair, the
clock-smeared J, the series-smeared J, C, the frequency remainder and
I_nn), whose evaluator reads the member's parameters.  A call adds the
integrals its rows need to a ``_Plan`` and runs each kind as one group:
a member alone through ``integrate_radial``, several in lockstep through
``integrate_lockstep``, which evaluates the nodes of every member of the
group in one call of the evaluator at per-node parameters.

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
    integrate_lockstep,
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


def _jtilde_terms(emitter: DetectorParams, absorber: DetectorParams, t0: float) -> dict:
    """What ``_jtilde`` reads of one emitter/absorber ordering, windows
    measured from t0: the window edges, the gaps, which of its two time
    domains are nonempty, and the overlap's frequency-independent block."""
    n_on, n_off = absorber.window.t_on - t0, absorber.window.t_off - t0
    m_on, m_off = emitter.window.t_on - t0, emitter.window.t_off - t0
    u0, u1 = max(n_on, m_on), min(n_off, m_off)
    v0, v1 = max(n_on, m_off), n_off
    overlap = bool(u1 > u0)  # a NumPy bool where window edges are NumPy floats
    const = _ediff(u0, u1, np.float64(absorber.gap + emitter.gap)) if overlap else 0j
    return dict(absorber_gap=absorber.gap, emitter_gap=emitter.gap, m_on=m_on, m_off=m_off,
                u0=u0, u1=u1, overlap=overlap, const=const, v0=v0, v1=v1, after=bool(v1 > v0))


def _jtilde(omega: np.ndarray, p: dict) -> np.ndarray:
    """Correlation kernel: the nested two-time integral over absorber time t
    and emitter time t' <= t, for any window timing, of the ordering p
    (``_jtilde_terms``, or arrays of them, one per frequency).

    Closed form assembled from entire ``ediff`` blocks, split into the
    overlap and no-overlap time domains and recombined before any
    division; the only division is by omega + emitter.gap > 0, so the
    expression is regular for all omega >= 0 (in particular at
    omega = absorber.gap).  Disjoint windows give the product of the two
    one-window time integrals, and an absorber window that ends before
    the emitter's starts gives exactly 0.  The windows are measured from
    t0; the absolute kernel is exp(i*(absorber.gap + emitter.gap)*t0)
    times this one.
    """
    a_minus = omega - p["absorber_gap"]
    a_plus = omega + p["emitter_gap"]
    out = np.zeros(omega.shape, dtype=complex)
    _subtract(out, p["overlap"], lambda: (p["const"] - np.exp(1j * a_plus * p["m_on"])
                                          * _ediff(p["u0"], p["u1"], -a_minus)) / a_plus)
    _subtract(out, p["after"], lambda: _ediff(p["v0"], p["v1"], -a_minus)
              * _ediff(p["m_on"], p["m_off"], a_plus))
    return out


def _subtract(out: np.ndarray, flag, term: Callable[[], np.ndarray]) -> None:
    """out -= term() where a time domain is nonempty: flag is one bool for
    every node, or an array with one per node where a group's members
    differ.  term is evaluated only if the domain is nonempty somewhere."""
    if isinstance(flag, np.ndarray):
        if flag.any():
            out -= np.where(flag, term(), 0.0)
    elif flag:
        out -= term()


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

    ``stack`` makes one kernel of several, for a lockstep group: offsets,
    scale, factor and split become arrays with one entry per kernel, unless
    all kernels share them, and ``place`` the kernel's index, whose rows of
    the tables are place*len(offsets) + offset.  ``take`` picks one entry
    per node.
    """

    offsets: tuple
    scale: float
    factor: complex
    near: np.ndarray                # [row, (A, B), power], or A [offset]
    split: float = math.inf
    far: np.ndarray | None = None   # [row, power of 1/t]
    place: np.ndarray | None = None
    powers: tuple = (None, None)    # of a stack: per row, the powers near and far use

    def __call__(self, u, shift):
        u = np.asarray(u, dtype=float)
        n = len(self.offsets)
        z = np.concatenate([(u + (shift + c)) / (_SQRT2 * self.scale) for c in self.offsets])
        t = _SQRT2 * z
        if self.near.ndim == 1:  # constant A, B = 0: no polynomial work
            out = faddeeva_w(z).reshape(n, -1) * self.near[:, None]
        else:
            if self.place is None:
                split, row = self.split, np.repeat(np.arange(n), u.size)
            else:
                split = np.tile(self.split, n) if np.ndim(self.split) else self.split
                row = (np.arange(n)[:, None] + n * self.place).ravel()
            near = np.abs(t) < split
            out = np.empty(z.size, dtype=complex)
            w = faddeeva_w(z[near])
            a, b = _polynomial("ik,ipk->pi", t[near], row[near], self.near, self.powers[0])
            out[near] = w * a - 1j * b
            far = ~near
            if far.any():
                inv = 1.0 / t[far]
                out[far] = 1j * inv * _polynomial("ij,ij->i", inv, row[far], self.far,
                                                  self.powers[1])
        return out.reshape(n, -1).sum(axis=0) * self.factor

    @staticmethod
    def stack(kernels: list) -> _MomentKernel:
        first = kernels[0]
        entries = dict(
            offsets=tuple(_entries([k.offsets[c] for k in kernels])
                          for c in range(len(first.offsets))),
            scale=_entries([k.scale for k in kernels]),
            factor=_entries([k.factor for k in kernels]),
            split=_entries([k.split for k in kernels]),
            place=np.arange(len(kernels)))
        if first.near.ndim == 1:  # F's and K's constant A, the same in every kernel
            return _MomentKernel(near=first.near, **entries)
        near, near_powers = _padded([k.near for k in kernels])
        far, far_powers = _padded([k.far for k in kernels])
        return _MomentKernel(near=near, far=far, powers=(near_powers, far_powers), **entries)

    def take(self, index: np.ndarray) -> _MomentKernel:
        return replace(self, offsets=tuple(_take(c, index) for c in self.offsets),
                       scale=_take(self.scale, index), factor=_take(self.factor, index),
                       split=_take(self.split, index), place=self.place[index])


def _padded(tables: list) -> tuple[np.ndarray, np.ndarray]:
    """The tables' rows in one table, zero-padded in their last axis, and
    each row's own width."""
    rows = [t.shape[0] for t in tables]
    out = np.zeros((sum(rows),) + tables[0].shape[1:-1] + (max(t.shape[-1] for t in tables),))
    widths = np.repeat([t.shape[-1] for t in tables], rows)
    start = 0
    for t in tables:
        out[start:start + t.shape[0], ..., :t.shape[-1]] = t
        start += t.shape[0]
    return out, widths


def _polynomial(subscripts: str, x: np.ndarray, row: np.ndarray, table: np.ndarray,
                powers: np.ndarray | None) -> np.ndarray:
    """``einsum(subscripts)`` of the powers x^k against the coefficients
    table[row], k below the table's width, or below each row's own count
    of ``powers``: one einsum per count, since the sum of a padded row
    need not round as the row's own does."""
    if powers is None:
        return np.einsum(subscripts, np.vander(x, table.shape[-1], increasing=True), table[row])
    count = powers[row]
    out = np.empty(table.shape[1:-1] + x.shape, dtype=table.dtype)
    for k in np.unique(count).tolist():
        sel = count == k
        out[..., sel] = np.einsum(subscripts, np.vander(x[sel], k, increasing=True),
                                  table[row[sel], ..., :k])
    return out


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
# K(v; r)'s constant weights of F at v + r and v - r
_PLUS_MINUS = np.array([1.0, -1.0])


def _fourier_kernel(sigma: float) -> _MomentKernel:
    """F(v) = int_0^inf exp(-(w*sigma)^2/2 + i*w*v) dw = G_0."""
    return _MomentKernel((0.0,), sigma, _SQRT_PI / (_SQRT2 * sigma), np.ones(1))


@dataclass(frozen=True, eq=False)
class _SeparationKernel:
    """K(v; r) = [F(v + r) - F(v - r)]/(2ir), r >= 0, as a transform of
    ``_time_member``.  Formed as u + (shift +- r), a peak of F at
    shift = -+r is resolved to the rounding of u, not of v.  The difference
    cancels to about eps*max(sigma, |v|)/r, so at nodes where
    r < 1e-5*max(sigma, |v|) its limit K(v; 0) = G_1, exact there to
    (r/sigma)^2/6, is used.  Stacks and takes entries as ``_MomentKernel``
    does."""

    r: float
    sigma: float
    exact: _MomentKernel
    limit: _MomentKernel

    def __call__(self, u, shift):
        out = self.exact(u, shift)
        near = self.r < 1e-5 * np.maximum(self.sigma, np.abs(u + shift))
        return np.where(near, self.limit(u, shift), out) if near.any() else out

    @staticmethod
    def stack(kernels: list) -> _SeparationKernel:
        return _SeparationKernel(_entries([k.r for k in kernels]),
                                 _entries([k.sigma for k in kernels]),
                                 _MomentKernel.stack([k.exact for k in kernels]),
                                 _MomentKernel.stack([k.limit for k in kernels]))

    def take(self, index: np.ndarray) -> _SeparationKernel:
        return _SeparationKernel(_take(self.r, index), _take(self.sigma, index),
                                 self.exact.take(index), self.limit.take(index))


def _kernel(r: float, sigma: float) -> _SeparationKernel | _MomentKernel:
    """K(v; r), r >= 0 (``_SeparationKernel``); at r = 0 its limit alone."""
    limit = _MomentKernel(_G1.offsets, sigma, 1j / sigma**2, _G1.near, _G1.split, _G1.far)
    if r == 0.0:
        return limit
    exact = _MomentKernel((r, -r), sigma, _SQRT_PI / (_SQRT2 * sigma * 2j * r), _PLUS_MINUS)
    return _SeparationKernel(r, sigma, exact, limit)


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


@dataclass(frozen=True, eq=False)
class _Member:
    """One integral, ready to run alone or in a lockstep group of its kind.

    Every member of a kind is integrated by that kind's evaluator
    (``_EVALUATE``) at its own ``params``; ``spec.evaluate`` is the
    evaluator at them, and ``finish`` turns the quadrature's result into
    the member's quantity (prefactor, phase, added error terms), raising
    a ROW_ERRORS exception where that quantity misses its tolerance.
    """

    kind: str
    spec: IntegrandSpec
    params: dict
    finish: Callable


def _member(kind: str, params: dict, finish: Callable, **geometry) -> _Member:
    evaluate = _EVALUATE[kind]
    return _Member(kind, IntegrandSpec(evaluate=lambda u: evaluate(u, params), **geometry),
                   params, finish)


def _time_member(kind: str, da: DetectorParams, db: DetectorParams, r: float,
                 delta_t: float = 0.0, kernel: Callable | None = None,
                 finish: Callable | None = None) -> _Member:
    """pref times the integral of M(v; gap_A, gap_B) * K(-|v|), J's time
    ordering, over the support of M; of kind "pair", preceded by that of
    the unsmeared M(v; -gap_A, gap_B) * K(v), I_AB's, from the same
    quadrature, as a list of both results.  The kernel at v = u + shift is
    ``kernel(u, shift)``, by default K(v; r), with peaks at v = +-r.
    Each transforms a real spectrum, so K(-v) = conj K(v): the time-ordered
    kernel is the conjugate where v >= 0, and one kernel evaluation per
    node serves both integrals, which share support, anchors and phase
    rate.  With delta_t > 0 (kind "clock"), M is averaged over a clock
    offset of db's window of scale delta_t, which widens the support by
    delta_t*sqrt(ln(1/_TAIL)) on each side.  ``finish`` takes the scaled
    result on from there.

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
    params = dict(a_on=a[0], a_off=a[1], b_on=b[0], b_off=b[1], g_a=g_a, g_b=g_b)
    if delta_t > 0.0:  # M's kinks and ends, smoothed over the offset's spread
        width = max(sigma, delta_t / _SQRT2)
        peaks += [(p, width) for p in kinks[1:] + [lo, hi]]
        tail = delta_t * math.sqrt(math.log(1.0 / _TAIL))
        lo, hi = lo - tail, hi + tail
        params["dt"] = delta_t
    c = r if lo + hi >= 0.0 else -r
    params.update(c=c, kernel=kernel or _kernel(r, sigma))
    pref = da.coupling * db.coupling / (4.0 * math.pi**2)
    exchange = kind == "pair"
    rates = (g_b - g_a, g_a + g_b) if exchange else (g_a + g_b,)

    def scaled(res: QuadResult):
        values, errors = np.atleast_1d(res.value, res.abs_error)
        out = [_scaled(QuadResult(complex(v), float(e), res.evaluations), pref, rate, t0)
               for v, e, rate in zip(values, errors, rates)]
        out = out if exchange else out[0]
        return out if finish is None else finish(out)

    return _member(kind, params, scaled,
                   max_phase_rate=g_a + g_b,
                   singular_points=tuple(k - c for k in kinks),
                   support=(lo - c, hi - c),
                   peaks=tuple((p - c, w) for p, w in peaks))


def _time_evaluate(u, p: dict, exchange: bool = False):
    """The integrand of ``_time_member`` at u, for the parameters p of one
    member, or arrays of them, one per node."""
    c = p["c"]
    v = u + c
    kernel = p["kernel"](u, c)
    a, b = (p["a_on"], p["a_off"]), (p["b_on"], p["b_off"])
    m = (_clock_window(v, a, b, p["g_a"], p["g_b"], p["dt"]) if "dt" in p
         else _window(v, a, b, p["g_a"], p["g_b"]))
    ordered = m * np.where(v >= 0.0, kernel.conj(), kernel)
    if not exchange:
        return ordered
    return np.stack([_window(v, a, b, -p["g_a"], p["g_b"]) * kernel, ordered], axis=1)


def _i_nn_member(det: DetectorParams) -> _Member:
    """I_nn by parts.  K(v; 0) = -i*F'(v), and M(v; -gap, gap) =
    e^(i*gap*v)*(T - |v|) vanishes at v = +-T, so
    I_nn = pref*i*int e^(i*gap*v)*(i*gap*(T - |v|) - sign v)*F(v) dv over
    |v| < T.  F(-v) is the conjugate of F(v), so that is twice the integral
    of the real part over 0 < v < T, and the tolerance applies to I_nn
    itself.  Unlike K(v; 0), whose spike at v = 0 the -1/v^2 tails cancel,
    F leaves no small difference of large terms.
    """
    g, sigma, width = det.gap, det.smearing, det.window.duration
    pref = 2.0 * det.coupling**2 / (4.0 * math.pi**2)
    return _member(
        "i_nn", dict(gap=g, width=width, fourier=_fourier_kernel(sigma)),
        lambda res: QuadResult(pref * res.value.real, pref * res.abs_error, res.evaluations),
        max_phase_rate=2.0 * g,  # gap_A + gap_B, as in ``_time_member``
        support=(0.0, width),
        peaks=((0.0, sigma),))


def _i_nn_evaluate(v, p: dict):
    """The integrand of ``_i_nn_member``."""
    g = p["gap"]
    f = 1j * np.exp(1j * g * v) * (1j * g * (p["width"] - v) - 1.0) * p["fourier"](v, 0.0)
    return f.real


def compute_I_nn(det: DetectorParams, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Local excitation term of one detector (separation-independent, >= 0)."""
    return _single(_i_nn_member(det), settings).value.real


def compute_I_AB(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> complex:
    """Exchange term between the detectors (enters the |ge><eg| coherence)."""
    return _single(_time_member("pair", s.det_a, s.det_b, s.separation), settings)[0].value


def compute_J(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> complex:
    """Correlation term connecting |gg> and |ee> at the mean separation."""
    return _single(_time_member("pair", s.det_a, s.det_b, s.separation), settings)[1].value


def _c_member(da: DetectorParams, db: DetectorParams) -> _Member:
    """C = pref * int M(v; gap_A, gap_B) F(-|v|) dv, which is
    pref * int_0^inf exp(-(w*sigma)^2/2) Jhat(w) dw: the part of the spatial
    smear that depends on neither separation nor uncertainty."""
    return _time_member("c", da, db, 0.0, kernel=_fourier_kernel(da.smearing))


def _spatial_request(s: Scenario, plan: _Plan) -> Callable[[], QuadResult]:
    """Add to ``plan`` what the complex correlation term averaged over a
    Gaussian separation spread needs, and return what gives it once the
    plan has run.

    The separation enters only through sinc(w*r), whose Gaussian average
    is D(x, delta*w/2) = e^(-x^2) - R, x = r0/delta (``damped_im_erfi``),
    for every window timing.  From x = ``_SERIES_X0`` on, the whole
    average is the time-domain series of ``_series_member``.  Below
    it, the e^(-x^2) term is e^(-x^2)*sqrt(pi)/delta times C, shared in
    ``plan`` by detector pair; R carries exp(-(w*sigma)^2/2 - (w*delta)^2/4),
    so its frequency quadrature ends where that envelope falls to
    ``_TAIL``.  A sum whose error misses the tolerance raises a
    ConvergenceFailure carrying it.
    """
    delta = s.position_uncertainty
    if not delta > 0.0:
        raise ValueError("compute_J_smeared: requires position_uncertainty > 0")
    settings = plan.settings
    x = s.separation / delta
    if x >= _SERIES_X0:
        series = _series_member(s, settings)
        if series is not None:
            key = plan.add(series)
            return lambda: plan.result(key)
    da, db = s.det_a, s.det_b
    pref = da.coupling * db.coupling / (4.0 * delta * math.pi**1.5)
    remainder = plan.add(_remainder_member(s, x, pref))
    weight = math.exp(-x * x) * _SQRT_PI / delta
    c = plan.need(("c", da, db), lambda: _c_member(da, db)) if weight > 0.0 else None

    def smeared() -> QuadResult:
        res = plan.result(remainder)
        value, error, evaluations = -res.value, res.abs_error, res.evaluations
        if c is not None:
            res = plan.result(c)
            value += weight * res.value
            error += weight * res.abs_error
            evaluations += res.evaluations
        return _within_tolerance(QuadResult(value, error, evaluations), settings, pref)

    return smeared


def _remainder_member(s: Scenario, x: float, pref: float) -> _Member:
    """R's frequency quadrature of ``_spatial_request`` at x = r0/delta,
    times pref; the caller subtracts it."""
    da, db = s.det_a, s.det_b
    delta, sig = s.position_uncertainty, da.smearing
    t0 = _origin(da, db)
    scale = math.sqrt(sig**2 + 0.5 * delta**2)
    params = dict(flat=math.exp(-x * x), delta=delta, x=x, sigma=sig,
                  ab=_jtilde_terms(da, db, t0), ba=_jtilde_terms(db, da, t0))
    return _member(
        "remainder", params, lambda res: _scaled(res, pref, da.gap + db.gap, t0),
        support=(0.0, math.sqrt(2.0 * math.log(1.0 / _TAIL)) / scale),
        max_phase_rate=s.separation + 2.0 * (max(da.window.t_off, db.window.t_off) - t0),
        singular_points=(da.gap, db.gap))


def _remainder_evaluate(w, p: dict):
    """R's integrand: its damped erfi factor times the kernel Jhat of both
    emitter/absorber orderings."""
    return ((p["flat"] - _damped_erf(0.5 * p["delta"] * w, np.float64(p["x"])).real)
            * np.exp(-0.5 * (w * p["sigma"]) ** 2) * (_jtilde(w, p["ab"]) + _jtilde(w, p["ba"])))


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


def _series_member(s: Scenario, settings: QuadratureSettings) -> _Member | None:
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

    def bounded(res: QuadResult) -> QuadResult:
        return _within_tolerance(QuadResult(res.value, res.abs_error + pref * bound,
                                            res.evaluations), settings, pref)

    return _time_member("series", da, db, r0, kernel=kernel, finish=bounded)


def _j_smeared_result(s: Scenario, settings: QuadratureSettings) -> QuadResult:
    """The complex spatially smeared correlation term (``_spatial_request``)."""
    plan = _Plan(settings)
    smeared = _spatial_request(s, plan)
    plan.run()
    return smeared()


def compute_J_smeared(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """|correlation term| under Gaussian separation uncertainty: from
    r0 = 9.5 delta on one time-domain quadrature of a kernel summed in
    powers of delta/r0, closer the erfi split into C and a frequency
    remainder (``_spatial_request``)."""
    return abs(_j_smeared_result(s, settings).value)


def _clock_member(s: Scenario, delta_t: float) -> _Member:
    """Correlation term averaged over a Gaussian clock offset of B's window
    of scale delta_t: the only route to it, which checks both of its
    preconditions before any quadrature runs."""
    if s.position_uncertainty > 0.0:
        raise ValueError("clock-offset smear: spatial and temporal smearing are exclusive")
    if not delta_t > 0.0:
        raise ValueError("clock-offset smear: delta_t must be > 0")
    return _time_member("clock", s.det_a, s.det_b, s.separation, delta_t)


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
    return abs(_single(_clock_member(s, delta_t), settings).value)


# each kind's evaluator; kinds that share one differ in how their kernels stack
_EVALUATE = {
    "pair": lambda u, p: _time_evaluate(u, p, exchange=True),
    "clock": _time_evaluate,
    "series": _time_evaluate,
    "c": _time_evaluate,
    "remainder": _remainder_evaluate,
    "i_nn": _i_nn_evaluate,
}


def _entries(values: list):
    """Values of the members of a group: one shared value as it is, or
    else an array with one entry per member."""
    first = values[0]
    # -0.0 == 0.0, but the sign of a zero can reach a result
    if all(v == first for v in values) and (first != 0 or len(set(map(repr, values))) == 1):
        return first
    return np.array(values)


def _stack(values: list):
    """The members' parameters as one set, each as ``_entries``."""
    first = values[0]
    if isinstance(first, dict):
        return {k: _stack([v[k] for v in values]) for k in first}
    if isinstance(first, (_MomentKernel, _SeparationKernel)):
        return first.stack(values)
    return _entries(values)


def _take(params, index: np.ndarray):
    """Stacked parameters at the member of each node: per-member arrays
    indexed, shared values as they are."""
    if isinstance(params, dict):
        return {k: _take(v, index) for k, v in params.items()}
    if isinstance(params, (_MomentKernel, _SeparationKernel)):
        return params.take(index)
    return params[index] if isinstance(params, np.ndarray) else params


def _run_group(members: list[_Member], settings: QuadratureSettings) -> list:
    """Each member's finished quantity, or the ROW_ERRORS exception that
    ends it.  A member alone runs through ``integrate_radial``; members of
    one kind run in lockstep, each round one evaluate call of the kind's
    evaluator at the stacked parameters of each node's member."""
    if len(members) == 1:
        try:
            results = [integrate_radial(members[0].spec, settings)]
        except ROW_ERRORS as exc:
            results = [exc]
    else:
        params = _stack([m.params for m in members])

        def evaluate(x, owner):
            # a call within one large member needs no per-node parameters
            one = owner[0] if (owner == owner[0]).all() else None
            return _EVALUATE[members[0].kind](
                x, _take(params, owner) if one is None else members[one].params)

        results = integrate_lockstep([m.spec for m in members], evaluate, settings)
    out = []
    for member, res in zip(members, results):
        try:
            out.append(res if isinstance(res, Exception) else member.finish(res))
        except ROW_ERRORS as exc:
            out.append(exc)
    return out


def _single(member: _Member, settings: QuadratureSettings):
    """The quantity of one member, run alone; raises its failure."""
    (out,) = _run_group([member], settings)
    if isinstance(out, Exception):
        raise out
    return out


class _Plan:
    """The integrals one call needs, each added once under a key naming
    what it depends on, then run as one lockstep group per kind."""

    def __init__(self, settings: QuadratureSettings):
        self.settings = settings
        self.members: dict = {}
        self.results: dict = {}
        self.durations: dict = {}   # local-term durations added, by detector

    def need(self, key, make: Callable[[], _Member]):
        """key, with ``make()`` added under it unless it already is."""
        if key not in self.members:
            self.members[key] = make()
        return key

    def add(self, member: _Member):
        """The key of a member that nothing else shares."""
        key = object()
        self.members[key] = member
        return key

    def run(self) -> None:
        groups: dict = {}
        for key, member in self.members.items():
            groups.setdefault(member.kind, []).append(key)
        for keys in groups.values():
            self.results.update(zip(keys, _run_group([self.members[k] for k in keys],
                                                     self.settings)))

    def result(self, key):
        out = self.results[key]
        if isinstance(out, Exception):
            raise out
        return out


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


def _row_request(s: Scenario, time_smear: float | None,
                 plan: _Plan) -> Callable[[], HarvestReport]:
    """Add to ``plan`` the integrals row s needs, keyed by what each depends
    on, and return what builds the row's report once the plan has run.
    The row's smear comes first, so an input it rejects costs no
    quadrature, and its failure is the row's first."""
    if time_smear is not None:
        key = plan.add(_clock_member(s, time_smear))
        smear, method = (lambda: plan.result(key)), "closed-form-time"
    elif s.position_uncertainty > 0.0:
        smear, method = _spatial_request(s, plan), "erfi-closed-form"
    else:
        smear, method = None, None

    def i_nn(det: DetectorParams):
        # keyed by what ``_i_nn_member`` reads, not by where the window sits;
        # a duration within rounding of an added one reuses it
        durations = plan.durations.setdefault((det.coupling, det.gap, det.smearing), [])
        t = det.window.duration
        d = next((d for d in durations if abs(d - t) <= _DURATION_ULPS * math.ulp(max(d, t))),
                 None)
        if d is None:
            durations.append(t)
            d = t
        return plan.need(("i_nn", det.coupling, det.gap, det.smearing, d),
                         lambda: _i_nn_member(det))

    aa, bb = i_nn(s.det_a), i_nn(s.det_b)
    pair = plan.need(("pair", s.det_a, s.det_b, s.separation),
                     lambda: _time_member("pair", s.det_a, s.det_b, s.separation))
    return lambda: _report(s, method, smear() if smear else None, plan.result(aa),
                           plan.result(bb), plan.result(pair))


def _report(s: Scenario, method: str | None, res_sm: QuadResult | None, res_aa: QuadResult,
            res_bb: QuadResult, pair: list[QuadResult]) -> HarvestReport:
    """Every report quantity of s from its integrals."""
    res_ab, res_j = pair
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
    what the rows share once and the rest in lockstep groups.

    First every row adds the integrals it needs to one plan, keyed by
    what each depends on: the local term by coupling, gap, smearing and
    window duration (equal to within ``_DURATION_ULPS`` ulps), the
    exchange and unsmeared correlation terms, one quadrature, by
    (detector A, detector B, separation), and the spatial smear's C by
    detector pair alone, so an r sweep computes it once; the smeared
    correlation term is the row's own.  Then the integrals of each kind
    (pair, clock, series, C, frequency remainder, local term) advance
    together, round by round, each round one evaluate call of the kind's
    integrand per chunk of nodes, while each keeps its own partition,
    refinement, sums, budget and failure; a kind with one integral runs
    it alone.  So every number is bit-identical to evaluating its row
    alone.  Returns, in row order, the report or the ``ROW_ERRORS``
    exception that row raised; a failed shared integral fails every row
    that needs it.  Nothing is kept after the call returns.
    """
    plan = _Plan(settings)
    requests: list = []
    for s, time_smear in rows:
        try:
            requests.append(_row_request(s, time_smear, plan))
        except ROW_ERRORS as exc:
            requests.append(exc)
    plan.run()
    out: list = []
    for request in requests:
        try:
            out.append(request if isinstance(request, Exception) else request())
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
