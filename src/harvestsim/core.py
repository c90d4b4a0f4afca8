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
``_clock_request``, that checks its inputs before any quadrature.  The
spatial smear, x = r0/delta, is from x = 9.5 on one time-domain
quadrature of M against the smeared kernel summed in powers of delta/r0.
Below, it splits its erfi factor into a separation-independent term,
e^(-x^2) times one time-domain integral C = int M(v; gap_A, gap_B) F(-|v|) dv
shared per detector pair, and a remainder damped as e^(-(w*delta)^2/4),
a frequency quadrature of the kernel Jhat over the finite range where
its envelope exceeds 1e-18 (``_TAIL``).  Every kernel, F = G_0,
K(v; r) = [F(v + r) - F(v - r)]/(2ir), K(v; 0) = G_1 and the smeared one,
is one sum of the Faddeeva moments G_m = int_0^inf w^m exp(-(w*S)^2/2 +
i*w*a) dw, one function of the kernel's columns (``_moments``).

Each integral is a ``_Member`` of one of six kinds (the I_AB/J pair, the
clock-smeared J, the series-smeared J, C, the frequency remainder and
I_nn), whose evaluator reads the member's parameters: numbers,
coefficient tables and dicts of these, a time-domain member's kernel
columns among them, and every member of a detector pair its windows and
gaps as the same six numbers (``_windows``).  ``_finish`` applies its
prefactor and phase to the quadrature's result.  A call adds the
integrals its rows need to a ``_Plan`` and runs each kind as one group:
a member alone through ``integrate_radial``, several in lockstep
through ``integrate_lockstep``, which evaluates the nodes of every member of the group in one call of
the evaluator at the columns of ``_stack``: a number every member holds
with the same bits stays one value, and any other is read at each
node's member.  Every smear, a row's or one computed alone
(``_j_smeared_result``), is one weighted sum of its members' results
(``_sum_request``), the one place where a sum's error is checked
against the tolerance: a clock smear's, like the series route's, of one
part.

Basis order throughout is {|gg>, |ge>, |eg>, |ee>}.  The reduced state is
fixed by the two local excitation terms (real, separation-independent),
one exchange term, and one |gg><ee| correlation term; entanglement at
this order is the competition between the correlation term and the local
noise.  No report quantity is computed from a matrix.  The route in is
``evaluate_scenarios`` and its ``HarvestReport``; the ``compute_*``
integrals, ``assemble_rho``, ``partial_transpose`` and
``negativity_sectors`` stay here, outside ``__all__``, for the
benchmark's probes and tracer and for the tests.
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
    _unwrap,
    integrate_lockstep,
    integrate_radial,
)
from .specfun import _damped_erf, _ediff, _faddeeva_w

__all__ = [
    "SecondOrderIntegrals",
    "HarvestReport",
    "negativity_closed",
    "bell_fractions",
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
                f"SecondOrderIntegrals: i_aa + i_bb = {self.i_plus:.3g} >= 1 leaves no "
                "ground-state population; outside the perturbative regime"
            )


def _windows(da: DetectorParams, db: DetectorParams) -> tuple[float, dict]:
    """The common time origin t0 of a detector pair's kernels, the earlier
    switch-on time, and what every member of the pair reads of it: both
    windows measured from t0, and both gaps.

    Only time differences enter the integrands, so measuring the windows
    from t0 makes the quadrature independent of a common time shift;
    the constant phase the shift carries is restored exactly afterwards.
    """
    t0 = min(da.window.t_on, db.window.t_on)
    return t0, dict(a_on=da.window.t_on - t0, a_off=da.window.t_off - t0,
                    b_on=db.window.t_on - t0, b_off=db.window.t_off - t0, g_a=da.gap, g_b=db.gap)


def _jtilde(omega: np.ndarray, n_on, n_off, m_on, m_off, g_n, g_m) -> np.ndarray:
    """Correlation kernel: the nested two-time integral over absorber time t
    in (n_on, n_off) and emitter time t' <= t in (m_on, m_off), absorber
    gap g_n and emitter gap g_m, for any window timing; each a number, or
    a column with one entry per frequency.

    Closed form assembled from entire ``ediff`` blocks, split into the
    overlap and no-overlap time domains and recombined before any
    division; the only division is by omega + g_m > 0, so the expression
    is regular for all omega >= 0 (in particular at omega = g_n).
    Disjoint windows give the product of the two one-window time
    integrals, and an absorber window that ends before the emitter's
    starts gives exactly 0.  The windows are measured from t0
    (``_windows``); the absolute kernel is exp(i*(g_n + g_m)*t0) times
    this one.
    """
    u0, u1, v0 = np.maximum(n_on, m_on), np.minimum(n_off, m_off), np.maximum(n_on, m_off)
    a_minus = omega - g_n
    a_plus = omega + g_m
    out = np.zeros(omega.shape, dtype=complex)
    _subtract(out, u1 > u0, lambda: (_ediff(u0, u1, g_n + g_m) - np.exp(1j * a_plus * m_on)
                                     * _ediff(u0, u1, -a_minus)) / a_plus)
    _subtract(out, n_off > v0, lambda: _ediff(v0, n_off, -a_minus) * _ediff(m_on, m_off, a_plus))
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
# Anchors of a step smoothed by a Gaussian, in units of its width: past 7 the
# step's slope is e^(-24.5) of its peak, so it needs no graded tail
_SMOOTH_STEPS = (-7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0)
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


def _moments(u, shift, p: dict):
    """Every time-domain kernel, at v = u + shift, from its columns p: a
    sum over offsets c of the Faddeeva moments G_m(a) = int_0^inf w^m
    exp(-(w S)^2/2 + i w a) dw at a = v + c, S = ``scale``, c = ``offset``
    alone, or +-``offset`` where ``near`` has two rows.  In t = a/S,
    G_m = i^m p_m(t)/S^(m+1), and their recurrence (Abramowitz & Stegun
    7.2.5) p_(m+1) = t p_m - m p_(m-1) from p_0 = sqrt(pi/2) w(t/sqrt(2))
    and p_1 = t p_0 - i gives p_m = p_0 He_m(t) - i Q_m(t).  A real-weighted
    sum of p_m is factor * sum_c [w(z_c) A_c(t_c) - i B_c(t_c)],
    z_c = (u + (shift + c))/(sqrt(2) S), t_c = sqrt(2) z_c: one
    ``_faddeeva_w`` call per node and offset.  F and K(v; r) have constant A
    and B = 0.  Where a sum of higher moments cancels, from |t| = ``split``
    on, it is i/t times a polynomial in 1/t (``far``), the moments'
    expansion, which leaves out e^(-t^2/2) <= e^(-112) of them.  Each
    column is one value or one entry per node, and ``place`` picks the
    table each node's member sums with.  K(v; r)'s difference cancels to
    about eps*max(sigma, |v|)/r, so at nodes where r < 1e-5*max(sigma, |v|)
    its limit K(v; 0) = G_1, exact there to (r/sigma)^2/6, is used: the
    columns ``limit``, evaluated at those nodes alone, and K's own at the rest."""
    u = np.asarray(u, dtype=float)
    offset, scale, tables = p["offset"], p["scale"], p["near"]
    if "limit" in p:
        limit = offset < 1e-5 * np.maximum(scale, np.abs(u + shift))
        if limit.any():
            out = np.empty(u.shape, dtype=complex)
            for nodes, q in ((limit, p["limit"]), (~limit, p)):
                if nodes.any():  # none of these nodes takes the limit where q is p
                    out[nodes] = _moments(u[nodes], _take(shift, nodes), _take(q, nodes))
            return out
    n = tables[0].shape[0]
    z = np.concatenate([(u + (shift + c)) / (_SQRT2 * scale)
                        for c in ((offset, -offset) if n > 1 else (offset,))])
    if tables[0].ndim == 1:  # constant A, B = 0: no polynomial work
        out = _faddeeva_w(z).reshape(n, -1) * tables[0][:, None]
    else:
        t = _SQRT2 * z
        row = np.repeat(np.arange(n), u.size)
        place = np.tile(p["place"], n) if len(tables) > 1 else 0
        split = p["split"]
        near = np.abs(t) < (np.tile(split, n) if np.ndim(split) else split)
        out = np.empty(z.size, dtype=complex)
        w = _faddeeva_w(z[near])
        a, b = _polynomial("ik,ipk->pi", t[near], row[near], _take(place, near), tables)
        out[near] = w * a - 1j * b
        far = ~near
        if far.any():
            inv = 1.0 / t[far]
            out[far] = 1j * inv * _polynomial("ij,ij->i", inv, row[far], _take(place, far),
                                              p["far"])
    return out.reshape(n, -1).sum(axis=0) * p["factor"]


def _polynomial(subscripts: str, x: np.ndarray, row: np.ndarray, place,
                tables: tuple) -> np.ndarray:
    """``einsum(subscripts)`` of the powers x^k against the coefficients
    tables[place][row], k below that table's width; place is one table
    for every entry, or one per entry, when each run of entries of one
    table takes an einsum of its own, as their member alone does."""
    if np.ndim(place) == 0:
        table = tables[place]
        return np.einsum(subscripts, np.vander(x, table.shape[-1], increasing=True), table[row])
    out = np.empty(tables[0].shape[1:-1] + x.shape)
    starts = np.flatnonzero(np.diff(place, prepend=-1)).tolist()
    for start, end in zip(starts, starts[1:] + [place.size]):
        out[..., start:end] = _polynomial(subscripts, x[start:end], row[start:end],
                                          int(place[start]), tables)
    return out


def _moment_tables(d: np.ndarray, split: float) -> dict:
    """The tables of factor * sum_(c, m) d[c, m] p_m(t_c) for real weights
    d, with the moments' expansion from |t| = split on."""
    n = d.shape[1]
    far = d @ _ASYMPTOTIC[:, :n].T
    # from the split on, each term of the expansion is at most its size there
    size = np.abs(far).max(axis=0) * (1.0 / split) ** np.arange(far.shape[1])
    terms = int(np.nonzero(size > _ASYMPTOTIC_CUT * size.max())[0][-1]) + 1
    near = np.stack([(_SQRT_PI / _SQRT2) * (d @ _HE[:n, :n]), d @ _HQ[:n, :n]], axis=1)
    return dict(near=(near,), split=split, far=(far[:, :terms],))


# the tables of K(v; 0) = G_1 = i p_1(t)/sigma^2, whose real part cancels to
# eps*t^2; the constant weights of F, and of F at v + r and v - r in K(v; r)
_G1 = _moment_tables(np.array([[0.0, 1.0]]), _ASYMPTOTIC_T)
_ONE, _PLUS_MINUS = (np.ones(1),), (np.array([1.0, -1.0]),)


# A member's kernel columns (``_moments``), its factors computed once.
def _fourier_columns(sigma: float) -> dict:
    """F(v) = int_0^inf exp(-(w*sigma)^2/2 + i*w*v) dw = G_0."""
    return dict(offset=0.0, scale=sigma, factor=_SQRT_PI / (_SQRT2 * sigma), near=_ONE)


def _separation_columns(r: float, sigma: float) -> dict:
    """K(v; r) = [F(v + r) - F(v - r)]/(2ir), r > 0, and its limit
    K(v; 0) = G_1, of factor i/sigma^2.  Formed as u + (shift +- r), a peak
    of F at shift = -+r is resolved to the rounding of u, not of v."""
    return dict(offset=r, scale=sigma, factor=_SQRT_PI / (_SQRT2 * sigma * 2j * r),
                near=_PLUS_MINUS,
                limit=dict(offset=0.0, scale=sigma, factor=1j / sigma**2, **_G1))


def _window(v, a, b, g_a, g_b: float):
    """M(v) = int exp(i*g_a*t + i*g_b*(t + v)) dt over t in window a with
    t + v in window b, windows as (on, off) pairs; zero outside
    b_on - a_off < v < b_off - a_on.  g_a of rows (2, 1) or (2, n) gives
    a row of M per row of g_a."""
    lo = np.maximum(a[0], b[0] - v)
    hi = np.maximum(np.minimum(a[1], b[1] - v), lo)
    return -1j * np.exp(1j * g_b * v) * _ediff(lo, hi, np.asarray(g_a + g_b, dtype=float))


def _clock_window(v, a, b, g_a: float, g_b: float, dt: float):
    """M(v) averaged over an offset tau ~ N(0, dt^2/2) of window b.

    The offset window gives exp(i*g_b*tau)*M(v - tau), a time integral of
    exp(i*mu*t), mu = g_a + g_b, from max(a_on, b_on - v + tau) to
    min(a_off, b_off - v + tau).  Each end is either fixed or moves with
    tau, so the average is a sum of Gaussian masses of 1 (real erf) and
    of exp(i*mu*tau) (``_damped_erf``) between the offsets where the ends
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
    evaluator at them.  The quadrature gives one component per entry of
    ``rates``, and ``_finish`` makes each the member's quantity: pref
    times it, with the constant phase exp(i*rate*t0) restored that its
    kernel leaves out by measuring time from t0.
    """

    kind: str
    spec: IntegrandSpec
    params: dict
    pref: float
    rates: tuple
    t0: float


def _member(kind: str, params: dict, pref: float, rates: tuple, t0: float,
            **geometry) -> _Member:
    evaluate = _EVALUATE[kind]
    return _Member(kind, IntegrandSpec(evaluate=lambda u: evaluate(u, params), **geometry),
                   params, pref, rates, t0)


def _finish(member: _Member, res: QuadResult):
    """The member's quantity from its quadrature's result: per component,
    pref times the value with its phase restored, and pref times the
    error; a list of both components for the I_AB/J pair."""
    pair = len(member.rates) > 1
    out = []
    for value, error, rate in zip(res.value if pair else [res.value],
                                  res.abs_error if pair else [res.abs_error], member.rates):
        value = member.pref * complex(value)
        if member.t0 != 0.0:
            value *= cmath.exp(1j * rate * member.t0)
        out.append(QuadResult(value, member.pref * float(error), res.evaluations))
    return out if pair else out[0]


def _time_member(kind: str, da: DetectorParams, db: DetectorParams, r: float,
                 delta_t: float = 0.0, kernel: dict | None = None) -> _Member:
    """pref times the integral of M(v; gap_A, gap_B) * K(-|v|), J's time
    ordering, over the support of M; of kind "pair", preceded by that of
    the unsmeared M(v; -gap_A, gap_B) * K(v), I_AB's, from the same
    quadrature, each with a phase rate of its own (``_finish``).  The
    kernel is ``_moments`` of the columns ``kernel``, by default those of
    K(v; r); its peaks are at v = +-r.
    Each transforms a real spectrum, so K(-v) = conj K(v): the time-ordered
    kernel is the conjugate where v >= 0, and one kernel evaluation per
    node serves both integrals, which share support, anchors and phase
    rate.  With delta_t > 0 (kind "clock"), M is averaged over a clock
    offset of db's window of scale delta_t, which widens the support by
    delta_t*sqrt(ln(1/_TAIL)) on each side.

    The windows are measured from the earlier switch-on time, and v from
    the kernel peak c = +-r on the side of the support's midpoint, so that
    the peak is resolved to the rounding of u = v - c.  Both peaks are
    declared at the kernel's own width, its ``scale``: sigma, or the series
    kernel's sqrt(sigma^2 + delta^2/2); two closer than that, 2r < scale,
    as one at v = 0.  Anchors: the kink at v = 0 (J),
    and the kinks and ends of M.  A clock offset smooths M's kinks and ends
    into steps of its standard deviation delta_t/sqrt(2), or of sigma if
    larger, each anchored at 0, +-1, +-3 and +-7 of that width.
    """
    sigma = da.smearing
    t0, params = _windows(da, db)
    a_on, a_off, b_on, b_off, g_a, g_b = params.values()
    lo, hi = b_on - a_off, b_off - a_on
    r = abs(r)
    kernel = kernel or _separation_columns(r, sigma)
    kinks = [0.0, b_on - a_on, b_off - a_off]
    if delta_t > 0.0:  # M's kinks and ends, smoothed over the offset's spread
        width = max(sigma, delta_t / _SQRT2)
        kinks[1:] = [p + width * k for p in kinks[1:] + [lo, hi] for k in _SMOOTH_STEPS]
        tail = delta_t * math.sqrt(math.log(1.0 / _TAIL))
        lo, hi = lo - tail, hi + tail
        params["dt"] = delta_t
    c = r if lo + hi >= 0.0 else -r
    scale = kernel["scale"]
    peaks = (0.0,) if 2.0 * r < scale else (-r, r)
    params.update(c=c, **kernel)
    pref = da.coupling * db.coupling / (4.0 * math.pi**2)
    rates = (g_b - g_a, g_a + g_b) if kind == "pair" else (g_a + g_b,)
    return _member(kind, params, pref, rates, t0,
                   max_phase_rate=g_a + g_b,
                   singular_points=tuple(k - c for k in kinks),
                   support=(lo - c, hi - c),
                   peaks=tuple((p - c, scale) for p in peaks))


def _time_evaluate(u, p: dict, exchange: bool = False):
    """The integrand of ``_time_member`` at u, for the parameters p of one
    member, or columns of them, one entry per node, with its kernel's columns."""
    c, g_a = p["c"], p["g_a"]
    v = u + c
    kernel = _moments(u, c, p)
    a, b = (p["a_on"], p["a_off"]), (p["b_on"], p["b_off"])
    if exchange:  # M(v; -gap_A, gap_B) and M(v; gap_A, gap_B) in one call
        m_ab, m = _window(v, a, b, np.reshape([-g_a, g_a], (2, -1)), p["g_b"])
    else:
        m = (_clock_window(v, a, b, g_a, p["g_b"], p["dt"]) if "dt" in p
             else _window(v, a, b, g_a, p["g_b"]))
    ordered = m * np.where(v >= 0.0, kernel.conj(), kernel)
    return np.stack([m_ab * kernel, ordered], axis=1) if exchange else ordered


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
        "i_nn", dict(gap=g, width=width, **_fourier_columns(sigma)), pref, (0.0,), 0.0,
        max_phase_rate=2.0 * g,  # gap_A + gap_B, as in ``_time_member``
        support=(0.0, width),
        peaks=((0.0, sigma),))


def _i_nn_evaluate(v, p: dict):
    """The integrand of ``_i_nn_member``."""
    g = p["gap"]
    f = 1j * np.exp(1j * g * v) * (1j * g * (p["width"] - v) - 1.0) * _moments(v, 0.0, p)
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
    return _time_member("c", da, db, 0.0, kernel=_fourier_columns(da.smearing))


def _spatial_request(s: Scenario, plan: _Plan) -> Callable[[], QuadResult]:
    """Add to ``plan`` what the complex correlation term averaged over a
    Gaussian separation spread needs, and return what gives it once the
    plan has run: one weighted sum of its members (``_sum_request``).

    The separation enters only through sinc(w*r), whose Gaussian average
    is D(x, delta*w/2) = e^(-x^2) - R, x = r0/delta (``damped_im_erfi``),
    for every window timing.  From x = ``_SERIES_X0`` on, the whole
    average is one time-domain quadrature of the windows' factor against
    ``_make_series_kernel``'s kernel, its error raised by the bound on
    what the series leaves out, unless the series would need too many
    terms.  Otherwise the e^(-x^2) term is e^(-x^2)*sqrt(pi)/delta times
    C, shared in ``plan`` by detector pair and left out where that weight
    underflows, less R, which carries exp(-(w*sigma)^2/2 - (w*delta)^2/4),
    so its frequency quadrature ends where that envelope falls to ``_TAIL``.
    """
    delta = s.position_uncertainty
    if not delta > 0.0:
        raise ValueError("compute_J_smeared: requires position_uncertainty > 0")
    da, db, r0 = s.det_a, s.det_b, s.separation
    x = r0 / delta
    if x >= _SERIES_X0:
        series = _make_series_kernel(x, da.smearing, r0, da.window.duration * db.window.duration,
                                     _SERIES_FLOOR * plan.settings.tol_abs)
        if series is not None:
            columns, bound = series
            member = _time_member("series", da, db, r0, kernel=columns)
            return _sum_request(plan, [(1.0, plan.add(member))], member.pref,
                                member.pref * bound)
    pref = da.coupling * db.coupling / (4.0 * delta * math.pi**1.5)
    parts = [(-1.0, plan.add(_remainder_member(s, x, pref)))]
    weight = math.exp(-x * x) * _SQRT_PI / delta
    if weight > 0.0:
        parts.append((weight, plan.need(("c", da, db), lambda: _c_member(da, db))))
    return _sum_request(plan, parts, pref, 0.0)


def _sum_request(plan: _Plan, parts: list, pref: float,
                 extra: float) -> Callable[[], QuadResult]:
    """What gives sum weight*result over the (weight, key) parts in
    ``plan`` once it has run, with error sum |weight|*error + extra; a
    ConvergenceFailure carrying that sum where its error misses the
    tolerance of an integral with prefactor pref.

    Parts that cancel can miss it although each met its own: then every
    part whose weighted error exceeds an equal share of what the
    tolerance leaves beside extra is integrated again, alone, to that
    share (``_share_settings``), and the sum checked once more."""
    settings = plan.settings

    def summed(results: list, evaluations: int) -> QuadResult:
        return QuadResult(sum(weight * r.value for weight, r in results),
                          sum(abs(weight) * r.abs_error for weight, r in results) + extra,
                          evaluations + sum(r.evaluations for _, r in results))

    def target(res: QuadResult) -> float:
        return max(settings.tol_abs * pref, settings.tol_rel * abs(res.value))

    def total() -> QuadResult:
        results = [(weight, plan.result(key)) for weight, key in parts]
        res = summed(results, 0)
        share = (target(res) - extra) / len(parts)
        if res.abs_error > target(res) and share > 0.0:
            again = {}
            for i, ((weight, r), (_, key)) in enumerate(zip(results, parts)):
                member = plan.members[key]
                tight = (abs(weight) * r.abs_error > share
                         and _share_settings(settings, share / abs(weight), member.pref, r))
                if tight:
                    again[i] = (weight, _single(member, tight))
            spent = sum(results[i][1].evaluations for i in again)
            res = summed([again.get(i, wr) for i, wr in enumerate(results)], spent)
        if res.abs_error > target(res):
            raise ConvergenceFailure(
                "compute_J_smeared: the sum of its parts' errors misses the tolerance", res)
        return res

    return total


def _share_settings(settings: QuadratureSettings, share: float, pref: float,
                    first: QuadResult) -> QuadratureSettings | None:
    """Settings under which a member of prefactor pref, whose first result
    was ``first``, ends with an error of at most about share (its value
    moves by its error between the runs); None where a tolerance that
    small is not a positive float."""
    tol_abs = min(settings.tol_abs, share / abs(pref))
    tol_rel = min(settings.tol_rel, share / abs(first.value)) if first.value else settings.tol_rel
    if not (tol_abs > 0.0 and tol_rel > 0.0):
        return None
    return replace(settings, tol_abs=tol_abs, tol_rel=tol_rel)


def _remainder_member(s: Scenario, x: float, pref: float) -> _Member:
    """R's frequency quadrature of ``_spatial_request`` at x = r0/delta,
    times pref; the caller subtracts it.  Its parameters are numbers: the
    damping's, and the windows and gaps of ``_windows``, as every
    time-domain member of the pair holds them."""
    da, db = s.det_a, s.det_b
    delta, sig = s.position_uncertainty, da.smearing
    t0, windows = _windows(da, db)
    scale = math.sqrt(sig**2 + 0.5 * delta**2)
    params = dict(flat=math.exp(-x * x), delta=delta, x=x, sigma=sig, **windows)
    return _member(
        "remainder", params, pref, (da.gap + db.gap,), t0,
        support=(0.0, math.sqrt(2.0 * math.log(1.0 / _TAIL)) / scale),
        max_phase_rate=s.separation + 2.0 * max(windows["a_off"], windows["b_off"]),
        singular_points=(da.gap, db.gap))


def _remainder_evaluate(w, p: dict):
    """R's integrand: its damped erfi factor times the kernel Jhat of both
    orderings, A emitting to B and B to A."""
    a, b = (p["a_on"], p["a_off"]), (p["b_on"], p["b_off"])
    return ((p["flat"] - _damped_erf(0.5 * p["delta"] * w, np.float64(p["x"])).real)
            * np.exp(-0.5 * (w * p["sigma"]) ** 2)
            * (_jtilde(w, *b, *a, p["g_b"], p["g_a"]) + _jtilde(w, *a, *b, p["g_a"], p["g_b"])))


def _make_series_kernel(x: float, sigma: float, r0: float, area: float,
                        floor: float) -> tuple[dict, float] | None:
    """The columns (``_moments``) of the smeared kernel <K(v; r)>,
    r = r0 + rho, rho ~ N(0, s^2), s = delta/sqrt(2), to N terms in s/r0,
    and a bound on what the rest adds to the raw J integral.  As
    1/r = sum_(n<N) (-rho)^n/r0^(n+1) + (-rho/r0)^N/r, term n is
    (-1)^n r0^-(n+1) int_0^inf Im[e^(i w r0) m_n(w)] e^(-(w sigma)^2/2 +
    i w v) dw, and Stein's identity gives m_n(w) = E[rho^n e^(i w rho)] =
    s^n e^(-(w s)^2/2) sum_m h_nm (i w s)^m: moments of S^2 = sigma^2 + s^2
    at v +- r0, over 2i r0 S, whose terms are of size |eps eta t|^m,
    eps = s/r0, eta = s/S.

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
    tables = _moment_tables(d, max(_ASYMPTOTIC_T, 1.0 / (eps * eta)))
    return dict(offset=r0, scale=scale, factor=1.0 / (2j * r0 * scale), **tables), float(bounds[n])


def _j_smeared_result(s: Scenario, settings: QuadratureSettings,
                      time_smear: float | None = None) -> QuadResult:
    """The complex correlation term smeared alone: over a clock offset of
    scale time_smear (``_clock_request``), or without one over separations
    (``_spatial_request``)."""
    plan = _Plan(settings)
    smeared = (_spatial_request(s, plan) if time_smear is None
               else _clock_request(s, time_smear, plan))
    plan.run()
    return smeared()


def compute_J_smeared(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """|correlation term| under Gaussian separation uncertainty: from
    r0 = 9.5 delta on one time-domain quadrature of a kernel summed in
    powers of delta/r0, closer the erfi split into C and a frequency
    remainder (``_spatial_request``)."""
    return abs(_j_smeared_result(s, settings).value)


def _clock_request(s: Scenario, delta_t: float, plan: _Plan) -> Callable[[], QuadResult]:
    """Add to ``plan`` the correlation term averaged over a Gaussian clock
    offset of B's window of scale delta_t, and return what gives it once
    the plan has run: a sum of one part (``_sum_request``), as the series
    route's.  The only route to it, which checks both of its preconditions
    before any quadrature runs."""
    if s.position_uncertainty > 0.0:
        raise ValueError("clock-offset smear: spatial and temporal smearing are exclusive")
    if not delta_t > 0.0:
        raise ValueError("clock-offset smear: delta_t must be > 0")
    member = _time_member("clock", s.det_a, s.det_b, s.separation, delta_t)
    return _sum_request(plan, [(1.0, plan.add(member))], member.pref, 0.0)


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
    return abs(_j_smeared_result(s, settings, delta_t).value)


# each kind's evaluator; the time-domain kinds differ only in I_AB's component
_EVALUATE = {
    "pair": lambda u, p: _time_evaluate(u, p, exchange=True),
    "clock": _time_evaluate,
    "series": _time_evaluate,
    "c": _time_evaluate,
    "remainder": _remainder_evaluate,
    "i_nn": _i_nn_evaluate,
}


def _stack(values: list):
    """The parameters of a group's members as one set.  A value every
    member holds as one object stays one value, and so does a number every
    member holds with the same bits, where equal numbers need not have them
    (-0.0 == 0.0).  Otherwise a number becomes a column, one entry per
    member, a tuple of tables one tuple of every member's tables, and a
    dict is stacked key by key."""
    first = values[0]
    if all(v is first for v in values):
        return first
    if isinstance(first, dict):
        return {k: _stack([v[k] for v in values]) for k in first}
    if isinstance(first, tuple):
        return tuple(table for v in values for table in v)
    column = np.array(values)
    bits = column.view(f"V{column.itemsize}")
    return first if (bits == bits[0]).all() else column


def _take(params, index: np.ndarray):
    """Stacked parameters at each node's member: columns indexed, the rest as is."""
    if isinstance(params, dict):
        return {k: _take(v, index) for k, v in params.items()}
    return params[index] if isinstance(params, np.ndarray) else params


def _run_group(members: list[_Member], settings: QuadratureSettings) -> list:
    """Each member's quantity (``_finish``), or the ROW_ERRORS exception
    that ends its quadrature.  A member alone runs through
    ``integrate_radial``; members of one kind run in lockstep, each round
    one evaluate call of the kind's evaluator at the stacked parameters of
    each node's member."""
    if len(members) == 1:
        results = [_attempt(integrate_radial, members[0].spec, settings)]
    else:
        params = _stack([m.params for m in members])

        def evaluate(x, owner):
            # ``place``, each node's owner, picks its member's tables
            return _EVALUATE[members[0].kind](x, dict(_take(params, owner), place=owner))

        results = integrate_lockstep([m.spec for m in members], evaluate, settings)
    return [res if isinstance(res, Exception) else _finish(member, res)
            for member, res in zip(members, results)]


def _single(member: _Member, settings: QuadratureSettings):
    """The quantity of one member, run alone; raises its failure."""
    return _unwrap(_run_group([member], settings)[0])


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
        return _unwrap(self.results[key])


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


def _attempt(make: Callable, *args):
    """A slot: ``make(*args)``, or the ``ROW_ERRORS`` exception it raises,
    which ``_unwrap`` raises again."""
    try:
        return make(*args)
    except ROW_ERRORS as exc:
        return exc


def _row_request(s: Scenario, time_smear: float | None,
                 plan: _Plan) -> Callable[[], HarvestReport]:
    """Add to ``plan`` the integrals row s needs, keyed by what each depends
    on, and return what builds the row's report once the plan has run.
    The row's smear comes first, so an input it rejects costs no
    quadrature, and its failure is the row's first."""
    if time_smear is not None:
        smear, method = _clock_request(s, time_smear, plan), "closed-form-time"
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

    j_eff, j_smeared_abs = res_j.value, None
    if res_sm is not None:
        j_eff, j_smeared_abs = res_sm.value, abs(res_sm.value)
        errors["j_smeared"] = res_sm.abs_error
    ints = SecondOrderIntegrals(res_aa.value.real, res_bb.value.real, res_ab.value, j_eff)
    ints.validate()
    raw, clamped = negativity_closed(ints)
    outer = _corner_eigenvalue(ints)
    phi_p, phi_m, psi_p, psi_m = bell_fractions(ints)
    return HarvestReport(
        integrals=ints,
        j_unsmeared=res_j.value,
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
    requests = [_attempt(_row_request, s, time_smear, plan) for s, time_smear in rows]
    plan.run()
    return [request if isinstance(request, Exception) else _attempt(request)
            for request in requests]


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
    return _unwrap(evaluate_scenarios([(s, time_smear)], settings)[0])
