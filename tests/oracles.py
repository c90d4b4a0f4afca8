"""Independent reference implementations used only by the test suite.

Nearly everything here avoids the package's ediff/sinc machinery: time
integrals are raw antiderivative differences or Gauss-Legendre sums, and
frequency integrals are dense trapezoid rules with one Richardson
extrapolation step or Gauss-Legendre panel sums, the clock-offset average
a Gauss-Legendre sum of those over offsets.  The two exceptions are the
averages ``oracle_J_space`` and ``oracle_J_clock_offsets``: Gauss-Legendre
sums over separations or clock offsets of the package's unsmeared
time-domain J, which ``oracle_gl`` checks and which shares no code with
the spatial smear's two terms or the clock smear's window factor.  The
state layer is checked against the matrix form: eigen-solves of the
partial transpose and Bell projectors.  ``initial_panels_reference`` is
the loop form of the quadrature's starting partition, each integral's
own, alone or as a member of a lockstep group.
``fourier_reference`` and ``kernel_reference`` share ``faddeeva_w`` with
the package on purpose: they pin the unsmeared kernels' arithmetic, bit
for bit, as closed forms, and ``damped_erf_reference`` pins
``specfun._damped_erf`` to its formula with w(z) evaluated everywhere.
The config format is checked against ``configparser`` as configured for
it (``config_parser``): the sections it reads and the text it writes.
"""
import configparser
import io
import math
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

TAIL = 1e18  # envelope suppression used to truncate oracle integrals


def trapezoid_complex(f, a, b, n, chunks=16):
    """Composite trapezoid with n+1 nodes, chunked to bound memory."""
    h = (b - a) / n
    total = 0.0 + 0.0j
    bounds = np.linspace(0, n, chunks + 1).astype(np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = np.arange(lo, hi + 1)
        v = f(a + idx * h)
        total += np.sum(v[:-1] + v[1:])
    return 0.5 * h * total


def richardson_trapezoid(f, a, b, n):
    t1 = trapezoid_complex(f, a, b, n)
    t2 = trapezoid_complex(f, a, b, 2 * n)
    return (4.0 * t2 - t1) / 3.0


def safe_sinc(z):
    small = np.abs(z) < 1e-8
    zz = np.where(small, 1.0, z)
    return np.where(small, 1.0, np.sin(zz) / zz)


def tau_plus(window, gap, w):
    """Time integral of e^{i(w+gap)t} over the window, raw exponentials."""
    mu = w + gap
    return (np.exp(1j * mu * window.t_off) - np.exp(1j * mu * window.t_on)) / (1j * mu)


def jtilde_raw(absorber, emitter, w):
    """Nested two-time integral via raw antiderivative differences.

    0/0 at w == absorber.gap; dense grids must keep nodes off that point.
    """
    wn, wm = absorber.window, emitter.window
    am = w - absorber.gap
    ap = w + emitter.gap
    opp = absorber.gap + emitter.gap
    out = np.zeros(np.shape(w), dtype=complex)
    u0, u1 = max(wn.t_on, wm.t_on), min(wn.t_off, wm.t_off)
    if u1 > u0:
        t1 = (np.exp(1j * opp * u1) - np.exp(1j * opp * u0)) / opp
        t2 = (np.exp(1j * ap * wm.t_on)
              * (np.exp(-1j * am * u1) - np.exp(-1j * am * u0)) / (-am))
        out = out - (t1 - t2) / ap
    v0, v1 = max(wn.t_on, wm.t_off), wn.t_off
    if v1 > v0:
        out = out - ((np.exp(-1j * am * v1) - np.exp(-1j * am * v0)) / (-am)
                     * (np.exp(1j * ap * wm.t_off) - np.exp(1j * ap * wm.t_on)) / ap)
    return out


def jtilde_time_domain(absorber, emitter, w, n=80):
    """Iterated Gauss-Legendre evaluation of the nested two-time integral."""
    x, wt = np.polynomial.legendre.leggauss(n)
    wn, wm = absorber.window, emitter.window

    def inner(t):
        hi = min(t, wm.t_off)
        if hi <= wm.t_on:
            return 0.0 + 0.0j
        c, h = 0.5 * (wm.t_on + hi), 0.5 * (hi - wm.t_on)
        tp = c + h * x
        return h * np.sum(wt * np.exp(1j * (w + emitter.gap) * tp))

    total = 0.0 + 0.0j
    cuts = sorted({wn.t_on, wn.t_off,
                   min(max(wm.t_on, wn.t_on), wn.t_off),
                   min(max(wm.t_off, wn.t_on), wn.t_off)})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = c + h * x
        vals = np.array([np.exp(-1j * ti * (w - absorber.gap)) * inner(ti) for ti in t])
        total += h * np.sum(wt * vals)
    return total


def jhat_raw(scn, w):
    total = np.zeros(np.shape(w), dtype=complex)
    for absorber, emitter in ((scn.det_b, scn.det_a), (scn.det_a, scn.det_b)):
        if absorber.window.t_off <= emitter.window.t_on:
            continue
        total = total + jtilde_raw(absorber, emitter, w)
    return total


def angular_factor_gl(w, r, n=200):
    """2*pi*int_{-1}^{1} e^{i w r mu} d mu, the solid-angle plane-wave integral."""
    x, wt = np.polynomial.legendre.leggauss(n)
    return 2.0 * np.pi * np.sum(wt * np.exp(1j * w * r * x))


def _wmax(sigma):
    return np.sqrt(2.0 * np.log(TAIL)) / sigma


def oracle_I_nn(det, n):
    """Local term from the solid-angle-resolved momentum integral."""
    sig, gap, lam = det.smearing, det.gap, det.coupling

    def f(w):
        t = tau_plus(det.window, gap, w)
        mag2 = t.real**2 + t.imag**2
        return (w * (4.0 * np.pi) / 2.0 * (2.0 * np.pi) ** -3
                * np.exp(-0.5 * (w * sig) ** 2) * mag2 * lam**2 + 0j)

    return richardson_trapezoid(f, 0.0, _wmax(sig), n).real


def oracle_I_AB(scn, n):
    sig = scn.det_a.smearing
    da, db = scn.det_a, scn.det_b

    def f(w):
        ta = tau_plus(da.window, da.gap, w)
        tb = tau_plus(db.window, db.gap, w)
        ang = 4.0 * np.pi * safe_sinc(w * scn.separation)
        return (w * ang / 2.0 * (2.0 * np.pi) ** -3
                * np.exp(-0.5 * (w * sig) ** 2)
                * np.conj(ta) * tb * da.coupling * db.coupling)

    return richardson_trapezoid(f, 0.0, _wmax(sig), n)


def oracle_J(scn, n):
    sig = scn.det_a.smearing
    da, db = scn.det_a, scn.det_b

    def f(w):
        return (w * safe_sinc(w * scn.separation) * np.exp(-0.5 * (w * sig) ** 2)
                * jhat_raw(scn, w) * da.coupling * db.coupling / (4.0 * np.pi**2))

    # start epsilon above zero so grid nodes stay off the w == gap points
    return richardson_trapezoid(f, 1e-9, _wmax(sig), n)


def random_tuples(rng, count, scale=1e-4):
    """Random valid second-order tuples (i_aa, i_bb, i_ab, j).

    The exchange term respects the Cauchy-Schwarz bound by construction.
    """
    out = []
    for _ in range(count):
        i_aa = scale * rng.uniform(0.1, 2.0)
        i_bb = scale * rng.uniform(0.1, 2.0)
        frac = rng.uniform(0.0, 0.999)
        phase = np.exp(2j * np.pi * rng.uniform())
        i_ab = frac * np.sqrt(i_aa * i_bb) * phase
        j = scale * rng.uniform(0.0, 3.0) * np.exp(2j * np.pi * rng.uniform())
        out.append((i_aa, i_bb, complex(i_ab), complex(j)))
    return out


# --- matrix form of the second-order state ----------------------------------

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
BELL_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
BELL_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
BELL_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix with the second-order sparsity pattern enforced."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("TwoQubitState: matrix must be 4x4")
        if np.max(np.abs(m - m.conj().T)) > 1e-14:
            raise ValueError("TwoQubitState: matrix not Hermitian to 1e-14")
        if abs(np.trace(m).real - 1.0) > 1e-14 or abs(np.trace(m).imag) > 1e-14:
            raise ValueError("TwoQubitState: trace differs from 1 by more than 1e-14")
        allowed = np.zeros((4, 4), dtype=bool)
        for i, k in [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1), (0, 3), (3, 0)]:
            allowed[i, k] = True
        if np.any(np.abs(m[~allowed]) > 0.0):
            raise ValueError("TwoQubitState: entries outside the second-order pattern")
        object.__setattr__(self, "matrix", m)


def _require_hermitian(m):
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
        raise ValueError("expected a Hermitian matrix")
    return m


def negativity_numeric(rho_pt):
    """Minus the sum of negative eigenvalues of a Hermitian matrix."""
    m = _require_hermitian(rho_pt)
    eig = np.linalg.eigvalsh(m)
    return float(-np.sum(eig[eig < 0.0]))


def negativity_sectors(rho_pt):
    """(inner, outer) of a partially transposed second-order state by
    eigen-solving its two decoupled 2x2 blocks: minus the negative-eigenvalue
    sum of the {|ge>,|eg>} block, and the negative eigenvalue of the
    {|gg>,|ee>} block (0 if none)."""
    m = _require_hermitian(rho_pt)
    eig_in = np.linalg.eigvalsh(m[1:3, 1:3])
    eig_out = np.linalg.eigvalsh(m[np.ix_([0, 3], [0, 3])])
    return (
        float(-np.sum(eig_in[eig_in < 0.0])),
        float(min(0.0, eig_out.min())),
    )


def bell_fractions(rho):
    """(phi+, phi-, psi+, psi-) overlaps <v|rho|v> of a 4x4 matrix."""
    m = np.asarray(rho, dtype=complex)

    def frac(v):
        return float(np.real(v.conj() @ m @ v))

    return (
        frac(BELL_PHI_PLUS),
        frac(BELL_PHI_MINUS),
        frac(BELL_PSI_PLUS),
        frac(BELL_PSI_MINUS),
    )


# --- clock-offset and spatial averages ----------------------------------------

def _panel_rule(edges, n):
    """Gauss-Legendre nodes and weights, n per panel."""
    x, wt = np.polynomial.legendre.leggauss(n)
    a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    return (c[:, None] + h[:, None] * x).ravel(), (h[:, None] * wt).ravel()


def _graded_edges(cuts, first, cap):
    """Panel edges between sorted cuts that double in width, from ``first``
    up to ``cap``, away from each cut toward the middle of its piece."""
    edges = [cuts[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half, grown, width = 0.5 * (hi - lo), [], first
        while (grown[-1] if grown else 0.0) + width < half:
            grown.append((grown[-1] if grown else 0.0) + width)
            width = min(2.0 * width, cap)
        edges += [lo + g for g in grown] + [lo + half] + [hi - g for g in grown[::-1]] + [hi]
    return edges


def _clock_offsets(scn, dt, first_panel, n):
    """Nodes and weights of the average over a clock offset tau ~ N(0, dt^2/2)
    of B's window.

    The offsets run over [-6.1 dt, 6.1 dt] (the Gaussian weight beyond is
    below 1e-16), split where the shifted windows touch or align and where
    a window edge meets the light cone, J's kinks smoothed over sigma; the
    n-node panels double in width from ``first_panel`` away from each
    split, up to a radian of B's phase exp(i*gap_B*tau).
    """
    da, db = scn.det_a, scn.det_b
    r, reach = scn.separation, 6.1 * dt
    ends = [db.window.t_on - da.window.t_off, db.window.t_on - da.window.t_on,
            db.window.t_off - da.window.t_off, db.window.t_off - da.window.t_on]
    splits = {-v + c for v in ends for c in (0.0, r, -r)}
    cuts = sorted({-reach, reach} | {c for c in splits if abs(c) < reach})
    taus, wt = _panel_rule(_graded_edges(cuts, first_panel, 1.0 / db.gap), n)
    return taus, wt * np.exp(-(taus / dt) ** 2) / (dt * math.sqrt(math.pi))


def oracle_J_clock(scn, dt, first_panel, n_tau=10, n_omega=16):
    """Correlation term averaged over a clock offset tau ~ N(0, dt^2/2) of B's
    window, by nested Gauss-Legendre sums.

    Inner: at each offset, the frequency integral of ``jhat_raw`` for the
    shifted windows over panels one oscillation wide, at the largest time
    difference plus r.
    Outer: the offsets of ``_clock_offsets``, n_tau per panel.
    """
    da, db = scn.det_a, scn.det_b
    r, sig = scn.separation, da.smearing
    taus, tau_wt = _clock_offsets(scn, dt, first_panel, n_tau)

    spread = 6.1 * dt + max(db.window.t_off - da.window.t_on, da.window.t_off - db.window.t_on)
    w_max = _wmax(sig)
    panels = int(math.ceil(w_max * (r + spread) / (2.0 * math.pi)))
    w, w_wt = _panel_rule(np.linspace(0.0, w_max, panels + 1), n_omega)
    f = (w_wt * w * safe_sinc(w * r) * np.exp(-0.5 * (w * sig) ** 2)
         * da.coupling * db.coupling / (4.0 * np.pi**2))
    total = 0.0 + 0.0j
    for tau, p in zip(taus, tau_wt):
        window = SimpleNamespace(t_on=db.window.t_on + tau, t_off=db.window.t_off + tau)
        shifted = SimpleNamespace(det_a=da, det_b=SimpleNamespace(gap=db.gap, window=window))
        total += p * np.sum(f * jhat_raw(shifted, w))
    return complex(total)


def oracle_gl(scn, n=16):
    """(I_AA, I_AB, J) as Gauss-Legendre frequency sums of the raw-exponential
    forms over panels one oscillation wide, at r plus the largest time
    difference (or A's duration); chunked to bound memory."""
    da, db = scn.det_a, scn.det_b
    r, sig = scn.separation, da.smearing
    spread = max(db.window.t_off - da.window.t_on, da.window.t_off - db.window.t_on,
                 da.window.t_off - da.window.t_on)
    w_max = _wmax(sig)
    edges = np.linspace(0.0, w_max, int(math.ceil(w_max * (r + spread) / (2.0 * math.pi))) + 1)
    total = np.zeros(3, dtype=complex)
    for lo in range(0, edges.size - 1, 20_000):
        w, wt = _panel_rule(edges[lo:lo + 20_001], n)
        g = wt * w * np.exp(-0.5 * (w * sig) ** 2) / (4.0 * np.pi**2)
        ta = tau_plus(da.window, da.gap, w)
        tb = tau_plus(db.window, db.gap, w)
        total += [np.sum(g * (ta.real**2 + ta.imag**2)) * da.coupling**2,
                  np.sum(g * safe_sinc(w * r) * np.conj(ta) * tb) * da.coupling * db.coupling,
                  np.sum(g * safe_sinc(w * r) * jhat_raw(scn, w)) * da.coupling * db.coupling]
    return total[0].real, complex(total[1]), complex(total[2])


def _unsmeared_j(scenarios):
    """The unsmeared time-domain J of ``core`` at each scenario, J alone (a
    clock-smear integral with no offset, so no I_AB refines its panels),
    run as the package runs a call's integrals (``core._Plan``): in
    lockstep, one group per kernel form."""
    from harvestsim import core

    plan = core._Plan(core.DEFAULT_SETTINGS)
    keys = [plan.add(core._time_member("clock", s.det_a, s.det_b, s.separation))
            for s in scenarios]
    plan.run()
    return np.array([plan.result(key).value for key in keys])


def oracle_J_space(scn, delta):
    """Correlation term averaged over a separation r ~ N(r0, delta^2/2), as a
    Gauss-Legendre sum of the unsmeared time-domain J(r) of ``core``.

    J is even in r, so the average runs over all of r0 +- 6.5 delta (the
    Gaussian weight beyond is below 1e-18), J(r) taken at |r|.  J(r) has
    features of width sigma where r meets a difference of window edges
    and at r = 0, so the range is split there and the 16-node panels
    double in width away from each split, from sigma up to 1.
    """
    da, db = scn.det_a, scn.det_b
    r0, sig = scn.separation, da.smearing
    lo, hi = r0 - 6.5 * delta, r0 + 6.5 * delta
    edges = (da.window.t_on, da.window.t_off, db.window.t_on, db.window.t_off)
    splits = {sign * (p - q) for p in edges for q in edges for sign in (1.0, -1.0)}
    cuts = sorted({lo, hi} | {c for c in splits if lo < c < hi})
    rs, wt = _panel_rule(_graded_edges(cuts, sig, 1.0), 16)
    wt = wt * np.exp(-((rs - r0) / delta) ** 2) / (delta * math.sqrt(math.pi))
    with warnings.catch_warnings():
        # nodes within 5 sigma of r = 0 are meant: no overlap warning for them
        warnings.filterwarnings("ignore", "separation .* detector overlap", UserWarning)
        j = _unsmeared_j([replace(scn, separation=abs(float(r))) for r in rs])
    return complex(np.sum(wt * j))


def oracle_J_clock_offsets(scn, dt):
    """Correlation term averaged over a clock offset tau ~ N(0, dt^2/2) of B's
    window, as a Gauss-Legendre sum of the unsmeared time-domain J of
    ``core`` with B's window shifted by tau, on the offsets of
    ``_clock_offsets`` in 16-node panels that double from sigma."""
    db = scn.det_b
    taus, wt = _clock_offsets(scn, dt, db.smearing, 16)
    j = _unsmeared_j([replace(scn, det_b=replace(db, window=db.window.shifted(tau)))
                      for tau in taus])
    return complex(np.sum(wt * j))


# --- quadrature -----------------------------------------------------------------

def initial_panels_reference(spec):
    """Starting partition of ``quadrature._initial_panels`` in loop form: each
    peak graded on its own, the anchors sorted and merged one by one, and
    each piece between anchors cut on its own."""
    lo, hi = spec.support
    cap = 4.0 * math.pi / spec.max_phase_rate if spec.max_phase_rate > 0.0 else math.inf
    points = list(spec.singular_points)
    for p, s in spec.peaks:
        q = min(max(p, lo), hi)
        width = max(s, abs(p - q))
        # 2^k - 1 widths out past the range, and 3*2^(j-1) - 1 for j = 1, 2, 3
        steps = [2.0 ** k - 1.0 for k in range(math.ceil(math.log2((hi - lo) / width + 1.0)) + 1)]
        steps += [3.0 * 2.0 ** (j - 1) - 1.0 for j in (1, 2, 3)]
        grown = width * np.array(steps)
        points += [q] + list(q - grown) + list(q + grown)
    tiny = 64.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    anchors = [lo]
    for x in sorted(x for x in points if lo + tiny < x < hi - tiny):
        if x - anchors[-1] > tiny:
            anchors.append(x)
    anchors.append(hi)
    edges = []
    for a, b in zip(anchors[:-1], anchors[1:]):
        n = max(1, math.ceil((b - a) / cap - 1e-9))
        edges.append(a + (b - a) * np.arange(n) / n)
    edges.append(np.array([hi]))
    return np.concatenate(edges)


# --- time-domain kernels ----------------------------------------------------------

def fourier_reference(u, shift, sigma):
    """F(v) = sqrt(pi/2)/sigma * w(v/(sqrt(2)*sigma)) at v = u + shift, in
    the arithmetic the package's unsmeared outputs are pinned to: the
    argument (u + shift)/(sqrt(2)*sigma), one ``faddeeva_w`` call, and the
    constant applied last."""
    from harvestsim.specfun import faddeeva_w
    sqrt2, sqrt_pi = math.sqrt(2.0), math.sqrt(math.pi)
    return (sqrt_pi / (sqrt2 * sigma)) * faddeeva_w((u + shift) / (sqrt2 * sigma))


def kernel_reference(u, shift, r, sigma):
    """K(v; r) = [F(v + r) - F(v - r)]/(2ir) at v = u + shift, r well
    above the r -> 0 limit, in the same pinned arithmetic: both arguments
    u + (shift +- r) in one ``faddeeva_w`` call, then the constant."""
    from harvestsim.specfun import faddeeva_w
    sqrt2, sqrt_pi = math.sqrt(2.0), math.sqrt(math.pi)
    u, shift = np.broadcast_arrays(np.asarray(u, dtype=float), shift)
    w = faddeeva_w(np.concatenate([u + (shift + r), u + (shift - r)]) / (sqrt2 * sigma))
    return (w[:u.size] - w[u.size:]) * (sqrt_pi / (sqrt2 * sigma * 2j * r))


def damped_erf_reference(x, y):
    """exp(-y^2) * erf(x - i*y) by the formula of ``specfun._damped_erf``,
    w(z) evaluated at every point, weighted by exp(-x^2) or not."""
    from harvestsim.specfun import faddeeva_w
    s = np.where(x >= 0.0, 1.0, -1.0)
    w = faddeeva_w(s * y + 1j * np.abs(x))
    return s * (np.exp(-y * y) - np.exp(-x * x) * (w * np.exp(2j * x * y)))


# --- config format ----------------------------------------------------------------

def config_parser():
    """A ``configparser`` for the config format: no interpolation, '#' and ';'
    inline comments, and strict about duplicate sections and keys."""
    return configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"),
                                     strict=True)


def config_sections(text):
    """``{section: {key: value}}`` as ``config_parser`` reads ``text``; raises
    ``configparser.Error`` where it rejects it."""
    parser = config_parser()
    parser.read_string(text)
    return {name: dict(parser.items(name)) for name in parser.sections()}


def config_text(sections):
    """The text ``config_parser`` writes for ``{section: {key: value}}``."""
    parser = config_parser()
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
