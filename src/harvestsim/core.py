"""Second-order detector-pair state: the four scalar integrals, every
state quantity in closed form from them (negativity, the fourth-order
corner eigenvalue, Bell fractions), and positioning-uncertainty smearing
of the correlation term.

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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .detectors import (
    CausalClass,
    DetectorParams,
    Disjoint,
    Scenario,
    SwitchingWindow,
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
from .specfun import damped_im_erfi, ediff, sinc

__all__ = [
    "SecondOrderIntegrals",
    "HarvestReport",
    "window_factor_plus",
    "compute_I_nn",
    "compute_I_AB",
    "jtilde",
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


def window_factor_plus(det: DetectorParams, omega):
    """Rectangular-window Fourier factor at the up-shifted frequency omega + gap.

    Returns ediff(t_on, t_off, omega + gap); magnitude equals
    2*T_minus*|sinc((omega+gap)*T_minus)| and all products of two such
    factors are convention-independent.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValueError("window_factor_plus: omega must be >= 0")
    return _window_factor(det, omega, 0.0)


def _window_factor(det: DetectorParams, omega, t0: float):
    """``window_factor_plus`` with the window measured from t0; the absolute
    factor is exp(i*(omega + gap)*t0) times this one."""
    w = det.window
    return ediff(w.t_on - t0, w.t_off - t0, omega + det.gap)


def _origin(s: Scenario) -> float:
    """Common time origin of the kernels: the earlier switch-on time.

    Only time differences enter the integrands' dependence on omega, so
    measuring the windows from here makes the phase-rate bounds, and
    with them the quadrature cost, independent of a common time shift;
    the constant phase the shift carries is restored exactly afterwards.
    """
    return min(s.det_a.window.t_on, s.det_b.window.t_on)


def _endpoint_scale(w: SwitchingWindow, t0: float) -> float:
    """Largest |t - t0| over the window, for an origin t0 <= w.t_on."""
    return w.t_off - t0


def _scaled(res: QuadResult, pref: float, phase_rate: float, t0: float) -> QuadResult:
    """pref times a radial integral whose kernel was evaluated from origin t0,
    with the kernel's constant phase exp(i*phase_rate*t0) restored."""
    value = pref * res.value
    if t0 != 0.0:
        value *= cmath.exp(1j * phase_rate * t0)
    return QuadResult(value, pref * res.abs_error, res.evaluations)


def jtilde(emitter: DetectorParams, absorber: DetectorParams, omega, t0: float = 0.0):
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
    omega = np.asarray(omega, dtype=float)
    n_on, n_off = absorber.window.t_on - t0, absorber.window.t_off - t0
    m_on, m_off = emitter.window.t_on - t0, emitter.window.t_off - t0
    a_minus = omega - absorber.gap
    a_plus = omega + emitter.gap
    gap_sum = absorber.gap + emitter.gap
    out = np.zeros(omega.shape, dtype=complex)

    u0, u1 = max(n_on, m_on), min(n_off, m_off)
    if u1 > u0:
        const = ediff(u0, u1, gap_sum)  # frequency-independent block
        out -= (const - np.exp(1j * a_plus * m_on) * ediff(u0, u1, -a_minus)) / a_plus
    v0, v1 = max(n_on, m_off), n_off
    if v1 > v0:
        out -= ediff(v0, v1, -a_minus) * ediff(m_on, m_off, a_plus)
    return complex(out) if out.ndim == 0 else out


def _jhat(s: Scenario, omega, t0: float):
    """Sum of both emitter/absorber orderings of the correlation kernel,
    windows measured from t0."""
    total = np.zeros(np.shape(omega), dtype=complex)
    for absorber, emitter in ((s.det_b, s.det_a), (s.det_a, s.det_b)):
        if absorber.window.t_off <= emitter.window.t_on:
            continue  # absorber off before emitter starts: kernel vanishes
        total = total + jtilde(emitter, absorber, omega, t0)
    return total


class _KernelMemo:
    """``_jhat`` of one detector pair, kept on the first node array it is
    evaluated on.

    Every correlation quadrature at one separation starts from the same
    initial Gauss-Kronrod nodes, which depend only on the detector pair
    and the separation, so the kernel on that grid is computed once and
    read back by the later quadratures; any other nodes (refinement
    rounds) are computed fresh.
    """

    def __init__(self, s: Scenario):
        self.s, self.t0 = s, _origin(s)
        self.nodes = self.values = None

    def __call__(self, omega):
        if self.nodes is not None and np.array_equal(omega, self.nodes):
            return self.values
        values = _jhat(self.s, omega, self.t0)
        if self.nodes is None:
            self.nodes, self.values = omega, values
        return values


def _require_equal_smearing(s: Scenario, op: str) -> float:
    if s.det_a.smearing != s.det_b.smearing:
        raise ValueError(f"{op}: requires equal smearing widths for both detectors")
    return s.det_a.smearing


def _i_nn_result(det: DetectorParams, settings: QuadratureSettings) -> QuadResult:
    lam, sig = det.coupling, det.smearing

    def integrand(w):
        wf = window_factor_plus(det, w)
        return w * np.exp(-0.5 * (w * sig) ** 2) * (wf.real**2 + wf.imag**2) + 0j

    spec = IntegrandSpec(
        evaluate=integrand,
        damping_scale=sig,
        max_phase_rate=det.window.duration,
    )
    res = integrate_radial(spec, settings)
    pref = lam * lam / (4.0 * math.pi**2)
    return QuadResult(pref * res.value, pref * res.abs_error, res.evaluations)


def compute_I_nn(det: DetectorParams, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Local excitation term of one detector (separation-independent, >= 0)."""
    return _i_nn_result(det, settings).value.real


def _i_ab_result(s: Scenario, settings: QuadratureSettings) -> QuadResult:
    sig = _require_equal_smearing(s, "compute_I_AB")
    r0 = s.separation
    da, db = s.det_a, s.det_b
    t0 = _origin(s)

    def integrand(w):
        return (w * sinc(w * r0) * np.exp(-0.5 * (w * sig) ** 2)
                * np.conj(_window_factor(da, w, t0)) * _window_factor(db, w, t0))

    spec = IntegrandSpec(
        evaluate=integrand,
        damping_scale=sig,
        max_phase_rate=r0 + _endpoint_scale(da.window, t0) + _endpoint_scale(db.window, t0),
    )
    res = integrate_radial(spec, settings)
    pref = da.coupling * db.coupling / (4.0 * math.pi**2)
    return _scaled(res, pref, db.gap - da.gap, t0)


def compute_I_AB(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> complex:
    """Exchange term between the detectors (enters the |ge><eg| coherence)."""
    return _i_ab_result(s, settings).value


def _j_quadrature(s: Scenario, op: str, r: float, factor, pref: float,
                  settings: QuadratureSettings,
                  kernel: _KernelMemo | None = None) -> QuadResult:
    """pref times the integral of factor(w)*exp(-(w*sigma)^2/2)*Jhat(w) over w >= 0.

    ``factor`` carries the separation dependence, oscillating at most at
    rate |r|, and any smearing factor.  Every correlation term, smeared
    or not, is this one quadrature with a different factor.  ``kernel``
    shares Jhat between the quadratures of one detector pair at one
    separation.
    """
    sig = _require_equal_smearing(s, op)
    da, db = s.det_a, s.det_b
    t0 = _origin(s)
    if kernel is None:
        kernel = _KernelMemo(s)

    def integrand(w):
        return factor(w) * np.exp(-0.5 * (w * sig) ** 2) * kernel(w)

    rate = abs(r) + 2.0 * max(_endpoint_scale(da.window, t0), _endpoint_scale(db.window, t0))
    spec = IntegrandSpec(
        evaluate=integrand,
        damping_scale=sig,
        max_phase_rate=rate,
        singular_points=tuple(sorted({da.gap, db.gap})),
    )
    res = integrate_radial(spec, settings)
    return _scaled(res, pref, da.gap + db.gap, t0)


def _j_pref(s: Scenario) -> float:
    return s.det_a.coupling * s.det_b.coupling / (4.0 * math.pi**2)


def _j_result_at_separation(s: Scenario, r: float, settings: QuadratureSettings,
                            kernel: _KernelMemo | None = None) -> QuadResult:
    """Correlation term at separation r (r may be any real; even in r)."""
    return _j_quadrature(s, "compute_J", r, lambda w: w * sinc(w * r), _j_pref(s), settings,
                         kernel)


def compute_J(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> complex:
    """Correlation term connecting |gg> and |ee> at the mean separation."""
    return _j_result_at_separation(s, s.separation, settings).value


def _j_smeared_result(s: Scenario, settings: QuadratureSettings,
                      kernel: _KernelMemo | None = None) -> QuadResult:
    """Complex correlation term averaged over a Gaussian separation spread.

    The separation enters only through sinc(w*r), whose Gaussian average
    is the damped imaginary error function, for every window timing.
    """
    delta = s.position_uncertainty
    if not delta > 0.0:
        raise ValueError("compute_J_smeared: requires position_uncertainty > 0")
    x = s.separation / delta
    pref = s.det_a.coupling * s.det_b.coupling / (4.0 * delta * math.pi**1.5)
    return _j_quadrature(s, "compute_J_smeared", s.separation,
                         lambda w: damped_im_erfi(x, 0.5 * delta * w), pref, settings, kernel)


def compute_J_smeared(s: Scenario, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """|correlation term| under Gaussian separation uncertainty (closed form)."""
    return abs(_j_smeared_result(s, settings).value)


def _time_smeared_gauss_hermite(
    s: Scenario, delta_t: float, settings: QuadratureSettings, nodes: int
) -> QuadResult:
    u, w = hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    total = 0.0 + 0.0j
    error = 0.0
    evaluations = 0
    for ui, wi in zip(u, w):
        shifted = Scenario(
            det_a=s.det_a,
            det_b=DetectorParams(
                coupling=s.det_b.coupling,
                gap=s.det_b.gap,
                smearing=s.det_b.smearing,
                window=s.det_b.window.shifted(delta_t * ui),
            ),
            separation=s.separation,
            position_uncertainty=0.0,
        )
        res = _j_result_at_separation(shifted, s.separation, settings)
        total += wi * res.value
        error += wi * res.abs_error
        evaluations += res.evaluations
    return QuadResult(total, error, evaluations)


def _j_time_smeared_result(
    s: Scenario, delta_t: float, settings: QuadratureSettings,
    kernel: _KernelMemo | None = None,
) -> tuple[QuadResult, str]:
    """Correlation term averaged over a Gaussian clock offset of B's window,
    and the label of the method used.

    While an offset keeps the windows disjoint, shifting B's window by tau
    multiplies the kernel by exp(-i*(w - gap_B)*tau) when A's window is
    first and by exp(i*(w + gap_B)*tau) when B's is first, so the average
    is the exact factor exp(-(w - gap_B)^2*delta_t^2/4), respectively
    exp(-(w + gap_B)^2*delta_t^2/4).  It is used when the offsets that
    make the windows overlap, of Gaussian mass erfc(gap/delta_t)/2, stay
    within tol_rel; otherwise each offset is integrated by 41-node
    Gauss-Hermite.  J is not smooth in an offset that makes the windows
    overlap, so that rule's error is estimated by its distance from the
    21-node rule, added to the per-offset quadrature errors.
    """
    timing = classify_timing(s.det_a.window, s.det_b.window)
    if (isinstance(timing, Disjoint)
            and 0.5 * math.erfc(timing.gap / delta_t) <= settings.tol_rel):
        shift = -s.det_b.gap if timing.first == "A" else s.det_b.gap
        r = s.separation

        def factor(w):
            return w * sinc(w * r) * np.exp(-0.25 * ((w + shift) * delta_t) ** 2)

        return (_j_quadrature(s, "compute_J_time_smeared", r, factor, _j_pref(s), settings,
                              kernel),
                "closed-form-time")
    fine = _time_smeared_gauss_hermite(s, delta_t, settings, 41)
    coarse = _time_smeared_gauss_hermite(s, delta_t, settings, 21)
    return (QuadResult(fine.value, fine.abs_error + abs(fine.value - coarse.value),
                       fine.evaluations + coarse.evaluations),
            "gauss-hermite-time")


def compute_J_time_smeared(
    s: Scenario,
    delta_t: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    nodes: int | None = None,
) -> float:
    """|correlation term| under a Gaussian clock-offset spread of scale delta_t.

    The offset distribution mirrors the spatial convention
    (variance delta_t^2/2) and shifts the second window.  By default the
    method of ``evaluate_scenario`` is used; ``nodes`` forces a
    Gauss-Hermite average over that many offsets, the reference the
    closed form is tested against.
    """
    if not delta_t > 0.0:
        raise ValueError("compute_J_time_smeared: requires delta_t > 0")
    if nodes is None:
        res, _ = _j_time_smeared_result(s, delta_t, settings)
    else:
        res = _time_smeared_gauss_hermite(s, delta_t, settings, nodes)
    return abs(res.value)


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
    a = 1.0 - ints.i_plus
    x = abs(ints.i_ab) ** 2
    corner = -2.0 * x / (a + math.sqrt(a * a + 4.0 * x))
    return negativity_closed(ints)[1], min(0.0, corner)  # 0.0, not -0.0, at i_ab = 0


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
    # None, "erfi-closed-form" (spatial), "closed-form-time" (clock offset,
    # windows kept apart) or "gauss-hermite-time" (clock offset otherwise)
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
                i_nn: dict, pair: dict, kernel: _KernelMemo) -> HarvestReport:
    """One row of ``evaluate_scenarios``: ``i_nn`` holds the local terms by
    detector, ``pair`` the exchange and unsmeared correlation terms of the
    row's detector pair and separation, and ``kernel`` their Jhat."""
    if time_smear is not None and s.position_uncertainty > 0.0:
        raise ValueError("evaluate_scenario: spatial and temporal smearing are exclusive")
    res_aa = _shared(i_nn, s.det_a, lambda: _i_nn_result(s.det_a, settings))
    res_bb = _shared(i_nn, s.det_b, lambda: _i_nn_result(s.det_b, settings))
    res_ab = _shared(pair, "i_ab", lambda: _i_ab_result(s, settings))
    res_j = _shared(pair, "j",
                    lambda: _j_result_at_separation(s, s.separation, settings, kernel))
    errors = {
        "i_aa": res_aa.abs_error,
        "i_bb": res_bb.abs_error,
        "i_ab": res_ab.abs_error,
        "j": res_j.abs_error,
    }

    j_unsmeared = res_j.value
    method = None
    j_eff = j_unsmeared
    j_smeared_abs = None
    if s.position_uncertainty > 0.0:
        res_sm = _j_smeared_result(s, settings, kernel)
        method = "erfi-closed-form"
    elif time_smear is not None:
        if not time_smear > 0.0:
            raise ValueError("evaluate_scenario: time_smear must be > 0")
        res_sm, method = _j_time_smeared_result(s, time_smear, settings, kernel)
    if method is not None:
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
    _, outer = negativity_sectors(ints)
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

    The local terms are computed once per distinct detector; the exchange
    term, the unsmeared correlation term and the kernel Jhat on the
    initial grid once per distinct (detector A, detector B, separation).
    Only each row's smeared correlation term is its own.  Returns, in row
    order, the report or the ``ROW_ERRORS`` exception that row raised; a
    failed shared integral fails every row that needs it.  Nothing is
    kept after the call returns.
    """
    rows = list(rows)
    groups: dict = {}
    for index, (s, _) in enumerate(rows):
        groups.setdefault((s.det_a, s.det_b, s.separation), []).append(index)
    out: list = [None] * len(rows)
    i_nn: dict = {}
    for members in groups.values():
        pair: dict = {}
        kernel = _KernelMemo(rows[members[0]][0])
        for index in members:
            s, time_smear = rows[index]
            try:
                out[index] = _row_report(s, time_smear, settings, i_nn, pair, kernel)
            except ROW_ERRORS as exc:
                out[index] = exc
    return out


def evaluate_scenario(
    s: Scenario,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    time_smear: float | None = None,
) -> HarvestReport:
    """Compute every report quantity for one scenario.

    With nonzero position uncertainty the correlation term is smeared by
    the erfi closed form, for every window timing; ``time_smear`` applies
    the clock-offset smear instead (exact phase factor while the offsets
    keep the windows apart, Gauss-Hermite averaging otherwise).  Every
    path but that Gauss-Hermite one is a single radial quadrature, and
    the smeared correlation term reuses the unsmeared one's kernel.
    The local terms are separation-independent and never smeared.
    """
    out = evaluate_scenarios([(s, time_smear)], settings)[0]
    if isinstance(out, Exception):
        raise out
    return out
