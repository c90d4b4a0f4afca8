"""Independent references for the benchmark's correctness check.

Nothing here calls the package's integrals, kernels or smearing code.
Time integrals come from the raw-exponential forms in ``tests/oracles.py``
(``tau_plus``, ``jhat_raw``); frequency integrals use composite
Gauss-Legendre panels no wider than half an oscillation.  The averages
over uncertain positions and clocks are taken per plane wave, where they
are exact:

* a Gaussian spread of the separation, Pr(r) = exp(-(r-r0)^2/delta^2) /
  (delta*sqrt(pi)) over the whole real line, turns cos(w r) into
  cos(w r0) exp(-w^2 delta^2/4), so the averaged radial factor
  <sin(w r)/r> is K(w) = int_0^w cos(v r0) exp(-v^2 delta^2/4) dv;
* a Gaussian clock offset of detector B with the same convention
  multiplies the correlation kernel by exp(-(w - gap_B)^2 dt^2/4), as
  long as the offsets keep the order of the two windows;
* a common shift T of both windows multiplies J by
  exp(i (gap_A + gap_B) T) and leaves I_nn and, for equal gaps, I_AB
  unchanged.

``anchor_*`` compare these references with the test suite's trapezoid
oracles and with a dense r-grid average; the benchmark trusts a reference
only after its anchors agree to ``REF_TOL``.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.legendre import leggauss

import oracles

TOL = 1e-6        # relative; the acceptance suite's oracle tolerance
REF_TOL = 1e-9    # agreement the references must show among themselves
ORACLE_N = 200_000  # trapezoid intervals for the tests/oracles.py anchors

_X, _W = leggauss(12)
_TAIL_LOG = math.log(oracles.TAIL)


def _gauss_legendre(edges):
    a, b = edges[:-1], edges[1:]
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    return (c[:, None] + h[:, None] * _X).ravel(), (h[:, None] * _W).ravel()


def _endpoint_scale(*dets):
    return max(abs(t) for d in dets for t in (d.window.t_on, d.window.t_off))


class Reference:
    """Frequency-domain references for one detector pair, valid for r <= r_max."""

    def __init__(self, det_a, det_b, r_max):
        if det_a.smearing != det_b.smearing:
            raise ValueError("Reference: requires equal smearing widths")
        self.det_a, self.det_b, self.r_max = det_a, det_b, r_max
        self.sigma = det_a.smearing
        self.w_max = math.sqrt(2.0 * _TAIL_LOG) / self.sigma
        rate = r_max + 2.0 * _endpoint_scale(det_a, det_b)
        self.edges = np.linspace(0.0, self.w_max, int(math.ceil(self.w_max * rate / math.pi)) + 1)
        self.w, self.wt = _gauss_legendre(self.edges)
        env = self._envelope(self.w)
        ta = oracles.tau_plus(det_a.window, det_a.gap, self.w)
        tb = oracles.tau_plus(det_b.window, det_b.gap, self.w)
        self.g_aa = self.w * env * (ta.real**2 + ta.imag**2)
        self.g_bb = self.w * env * (tb.real**2 + tb.imag**2)
        self.g_ab = env * np.conj(ta) * tb
        self.g_j = self._g_j(self.w)
        self.pref = det_a.coupling * det_b.coupling / (4.0 * math.pi**2)

    def _envelope(self, w):
        return np.exp(-0.5 * (w * self.sigma) ** 2)

    def _g_j(self, w):
        pair = SimpleNamespace(det_a=self.det_a, det_b=self.det_b)
        return self._envelope(w) * oracles.jhat_raw(pair, w)

    def _radial(self, r):
        if not 0.0 < r <= self.r_max:
            raise ValueError(f"Reference: separation {r} outside (0, {self.r_max}]")
        return self.wt * np.sin(self.w * r) / r

    def i_nn(self):
        scale = 1.0 / (4.0 * math.pi**2)
        return (self.det_a.coupling**2 * scale * float(self.wt @ self.g_aa),
                self.det_b.coupling**2 * scale * float(self.wt @ self.g_bb))

    def i_ab(self, r):
        return self.pref * complex(self._radial(r) @ self.g_ab)

    def j(self, r):
        return self.pref * complex(self._radial(r) @ self.g_j)

    def j_time(self, r, dt):
        """J averaged over a Gaussian clock offset of B (variance dt^2/2)."""
        damp = np.exp(-0.25 * ((self.w - self.det_b.gap) * dt) ** 2)
        return self.pref * complex(self._radial(r) @ (self.g_j * damp))

    def j_space(self, r0, delta):
        """J averaged over a Gaussian separation spread (variance delta^2/2)."""
        v_end = min(self.w_max, 2.0 * math.sqrt(_TAIL_LOG) / delta)
        step = 0.5 * min(math.pi / r0, 2.0 / delta)
        n = max(1, int(math.ceil(v_end / step)))
        fine = np.linspace(0.0, v_end, n + 1)

        def c(v):
            return np.cos(v * r0) * np.exp(-0.25 * (v * delta) ** 2)

        v, vw = _gauss_legendre(fine)
        cum = np.concatenate([[0.0], np.cumsum((vw * c(v)).reshape(n, -1).sum(axis=1))])
        w, wt = _gauss_legendre(np.union1d(self.edges, fine))
        kernel = np.full(w.shape, cum[-1])
        inside = w < v_end
        wi = w[inside]
        i = np.minimum((wi / (v_end / n)).astype(int), n - 1)
        lo = fine[i]
        mid, half = 0.5 * (lo + wi), 0.5 * (wi - lo)
        kernel[inside] = cum[i] + (half[:, None] * _W * c(mid[:, None] + half[:, None] * _X)).sum(axis=1)
        return self.pref * complex(wt @ (self._g_j(w) * kernel))

    def j_dense_r_average(self, r0, delta, dr):
        """J averaged over separations by a trapezoid sum on an r grid of step dr.

        J is even in r, so the formal negative-r tail of Pr(r) uses J(|r|).
        """
        k = np.arange(math.floor((r0 - 7.0 * delta) / dr), math.ceil((r0 + 7.0 * delta) / dr) + 1)
        r = np.abs(k * dr)
        weight = dr * np.exp(-(((k * dr) - r0) / delta) ** 2) / (delta * math.sqrt(math.pi))
        total = 0.0 + 0.0j
        for lo in range(0, r.size, 256):
            rr = r[lo:lo + 256]
            radial = np.where(rr[:, None] > 0.0,
                              np.sin(np.outer(rr, self.w)) / np.where(rr > 0.0, rr, 1.0)[:, None],
                              self.w[None, :])
            total += weight[lo:lo + 256] @ (radial @ (self.wt * self.g_j))
        return self.pref * complex(total)


def rel_err(got, ref):
    ref_abs = abs(ref)
    if ref_abs == 0.0:
        return 0.0 if got == 0 else math.inf
    return abs(got - ref) / ref_abs


def anchor_to_oracles(ref, scenario):
    """Worst relative gap between ``ref`` and tests/oracles.py at one point."""
    r = scenario.separation
    o_nn = oracles.oracle_I_nn(scenario.det_a, ORACLE_N)
    o_ab = oracles.oracle_I_AB(scenario, ORACLE_N)
    o_j = oracles.oracle_J(scenario, ORACLE_N)
    return {"oracle": {"i_aa": o_nn, "i_ab": o_ab, "j": o_j},
            "gap": max(rel_err(ref.i_nn()[0], o_nn), rel_err(ref.i_ab(r), o_ab),
                       rel_err(ref.j(r), o_j))}


def anchor_dense_r(ref, r0, delta):
    """Relative gap between the per-plane-wave smear and a dense r-grid average."""
    dense = ref.j_dense_r_average(r0, delta, ref.sigma / 2.0)
    return rel_err(ref.j_space(r0, delta), dense)


def check_state(got, ref):
    """Compare one result with its reference values; returns failing field names.

    ``got`` and ``ref`` map i_aa, i_bb, i_ab, j (unsmeared) and j_eff (the
    correlation term the state is built from) to numbers; ``got`` also
    carries negativity_raw and the four Bell fractions, which are checked
    against their closed forms in the reference integrals.
    """
    bad = [k for k in ("i_aa", "i_bb", "i_ab", "j") if not rel_err(got[k], ref[k]) <= TOL]
    if "j_eff_abs" in got and not rel_err(got["j_eff_abs"], abs(ref["j_eff"])) <= TOL:
        bad.append("j_eff")
    if "j_eff" in got and not rel_err(got["j_eff"], ref["j_eff"]) <= TOL:
        bad.append("j_eff")
    i_plus, i_minus = ref["i_aa"] + ref["i_bb"], ref["i_aa"] - ref["i_bb"]
    j_eff = ref["j_eff"]
    # the largest state-level error that integrals within TOL can cause
    scale = TOL * (i_plus + 2.0 * abs(j_eff) + 2.0 * abs(ref["i_ab"]))
    closed = {
        "negativity_raw": -0.5 * (i_plus - math.sqrt(i_minus**2 + 4.0 * abs(j_eff) ** 2)),
        "bell_phi_plus": 0.5 * (1.0 - i_plus - 2.0 * j_eff.real),
        "bell_phi_minus": 0.5 * (1.0 - i_plus + 2.0 * j_eff.real),
        "bell_psi_plus": 0.5 * (i_plus + 2.0 * ref["i_ab"].real),
        "bell_psi_minus": 0.5 * (i_plus - 2.0 * ref["i_ab"].real),
    }
    bad += [k for k, v in closed.items() if not abs(got[k] - v) <= scale]
    return bad
