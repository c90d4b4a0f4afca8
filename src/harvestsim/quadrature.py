"""Adaptive evaluation of integrals over a finite interval.

Every integrand states its own interval, its ``support``, its singular
points (kinks or removable singularities) and its peaks, each with its
own width.  The interval is covered by initial panels that start at the
singular points, grow geometrically away from each peak from its width,
and span up to two periods of the fastest oscillation; the adaptive loop
refines them where the integrand demands it.  Each panel is integrated
by a 15-point Gauss-Kronrod rule with the embedded 7-point Gauss rule as
the error estimate; panels failing a width-proportional share of the
error budget are bisected.  An integrand may have k components, several
integrals over one partition that share each evaluation: each component
keeps its own error budget, and a panel is bisected when any of them
misses its share.  Everything is deterministic.

Several integrals, each on its own partition, can advance in lockstep
(``integrate_lockstep``): each round evaluates the pending panels of all
of them together, in calls of at most ``_CHUNK`` nodes that also name
the integral each node belongs to, and each integral then keeps its own
sums, refinement, budget and failure, exactly as it would alone.
``integrate_radial`` is that loop with a group of one.  Each evaluate
call holds at most ``_CHUNK`` nodes, but a group keeps the panels, sums
and errors of all its integrals until it ends, so its memory grows with
their total panels.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegrandSpec",
    "QuadResult",
    "QuadratureSettings",
    "ConvergenceFailure",
    "integrate_radial",
]

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights,
# with the embedded 7-point Gauss weights on the odd-indexed nodes.
_XGK_HALF = np.array([
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
    0.2094821410847278280129992,
])
_WG_HALF = np.array([
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
])

_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # 15 ascending
_WK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])              # Kronrod weights
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])        # Gauss weights


@dataclass(frozen=True)
class IntegrandSpec:
    """One integrand: a vectorized evaluator plus where its features are.

    ``evaluate`` maps an ndarray of n abscissae to n complex values, or
    to an (n, k) array for k integrals over the same support, and must
    be free of singularities (removable ones filled by the caller);
    ``support`` is the finite interval (lo, hi) integrated over;
    ``max_phase_rate`` bounds |d(phase)/dw| of any oscillatory factor;
    ``singular_points`` are kinks or removable-singularity locations, in
    any order, used only as panel anchors; ``peaks`` are
    ``(position, width)`` pairs, features of that width at that position.
    Anchors outside the support are allowed.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    max_phase_rate: float = 0.0
    singular_points: tuple[float, ...] = ()
    peaks: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not (self.max_phase_rate >= 0.0 and math.isfinite(self.max_phase_rate)):
            raise ValueError("IntegrandSpec: max_phase_rate must be >= 0 and finite")
        if not (math.isfinite(self.support[0]) and self.support[0] < self.support[1] < math.inf):
            raise ValueError("IntegrandSpec: support must be a finite interval lo < hi")
        if not all(s > 0.0 and math.isfinite(s) for _, s in self.peaks):
            raise ValueError("IntegrandSpec: peak widths must be positive and finite")


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate of one integral, or length-k arrays of both
    for a k-component integrand; ``evaluations`` counts each node once."""

    value: complex | np.ndarray
    abs_error: float | np.ndarray
    evaluations: int

    def __post_init__(self):
        e = self.abs_error
        low, high = (e.min(), e.max()) if isinstance(e, np.ndarray) else (e, e)
        if not (low >= 0.0 and high < math.inf):
            raise ValueError("QuadResult: abs_error must be finite and >= 0")
        if self.evaluations <= 0:
            raise ValueError("QuadResult: evaluations must be > 0")


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budget shared by all integrations."""

    tol_abs: float = 1e-12
    tol_rel: float = 1e-9
    eval_budget: int = 10**6

    def __post_init__(self):
        # an infinite tolerance passes every first partition; a nan one is ignored by max()
        if not (0.0 < self.tol_abs < math.inf and 0.0 < self.tol_rel < math.inf):
            raise ValueError("QuadratureSettings: tolerances must be positive and finite")
        # a nan budget fails every comparison, so no quadrature could succeed
        if not (isinstance(self.eval_budget, numbers.Integral) and self.eval_budget >= 15):
            raise ValueError("QuadratureSettings: eval_budget must be an integer >= 15")


DEFAULT_SETTINGS = QuadratureSettings()


class ConvergenceFailure(Exception):
    """Raised when the evaluation budget runs out; carries the best result."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


_EPS = float(np.finfo(float).eps)
# Nodes per evaluate call: about the fastest size.  The I_AB/J integrand of
# fig2a's 200 separations costs 1000, 460, 375, 440 and 565 ns a node in
# calls of 300, 1,500, 3,000, 6,000 and 60,000 nodes (2-vCPU x86-64): below
# it the fixed cost of a call dominates, above it the working arrays leave
# the cache.  It also caps the memory of a round, however many panels.
_CHUNK = 3000
# 0, -0, 1, -1, 3, -3, ..., +-(2^k - 1) up to the largest finite power: a
# peak's graded edges in units of its width, for any number of doublings
_STEPS = 2.0 ** np.arange(1024) - 1.0
_SIGNED_STEPS = np.stack([_STEPS, -_STEPS], axis=1).ravel()


def _initial_panels(spec: IntegrandSpec) -> np.ndarray:
    """Edges of the starting partition of the support.

    Singular points are anchors, and so are the edges of panels that
    double in width away from each peak, from its own width; a peak
    outside the range grades from the nearer end, from its distance if
    that is larger.  Anchors within rounding of each other or of an end
    are merged, so a peak an ulp inside the range starts the same
    partition as one on its end.  Each piece between anchors is cut
    evenly into panels no wider than 1/8 of the range and than two
    periods, 4*pi/max_phase_rate, of the fastest phase.  Where such a
    panel is too wide for the tolerance, the adaptive loop of
    ``integrate_radial`` bisects it, so evaluations go only where the
    integrand needs them.
    """
    lo, hi = spec.support
    cap = (hi - lo) / 8.0
    if spec.max_phase_rate > 0.0:
        cap = min(cap, 4.0 * math.pi / spec.max_phase_rate)
    points = spec.singular_points
    if spec.peaks:
        # in Python floats: the peaks are few
        q = [min(max(p, lo), hi) for p, _ in spec.peaks]
        width = [max(s, abs(p - c)) for (p, s), c in zip(spec.peaks, q)]
        # the narrowest peak needs the most doublings; the others' extra edges lie beyond the range
        doublings = math.ceil(math.log2((hi - lo) / min(width) + 1.0)) + 1
        steps = _SIGNED_STEPS[:2 * (doublings + 1)]
        grown = np.array(q)[:, None] + np.array(width)[:, None] * steps  # q at steps[0] = 0
        points = np.concatenate([points, grown.ravel()])
    points = np.sort(points)
    tiny = 64.0 * _EPS * max(abs(lo), abs(hi))
    anchors = [lo]
    for x in points[(points > lo + tiny) & (points < hi - tiny)].tolist():
        if x - anchors[-1] > tiny:
            anchors.append(x)
    anchors.append(hi)
    a = np.array(anchors)
    d = a[1:] - a[:-1]
    # the slack keeps a piece one rounding wider than the cap in one panel
    n = np.maximum(1.0, np.ceil(d / cap - 1e-9))
    # per panel: the piece it cuts, and that piece's first panel
    piece = np.repeat(np.arange(n.size), n.astype(np.int64))
    first = (np.cumsum(n) - n)[piece]
    edges = a[piece] + d[piece] * (np.arange(piece.size) - first) / n[piece]
    return np.append(edges, hi)


def _gk15(evaluate, a: list, b: list, owners: list | None) -> tuple[list, list, bool]:
    """Vectorized GK15 on the panels a[i], b[i] of integral owners[i], for
    every i, in evaluate calls of at most ``_CHUNK`` nodes; owners is None
    for the one integral of a group of one.  Returns per integral
    (kronrod, |K-G| error), each of shape (k, panels), and whether the
    integrand has one component."""
    if owners is None:
        (a,), (b,), owner = a, b, None
    else:
        sizes = [x.size for x in a]
        a, b = np.concatenate(a), np.concatenate(b)
        owner = np.repeat(owners, sizes)
    step = _CHUNK // _NODES.size
    ik, ig = [], []
    for start in range(0, a.size, step):
        pa, pb = a[start:start + step], b[start:start + step]
        c = 0.5 * (pa + pb)
        h = 0.5 * (pb - pa)
        x = c[:, None] + h[:, None] * _NODES[None, :]
        v = np.asarray(evaluate(x.ravel(), None if owner is None
                                else np.repeat(owner[start:start + step], _NODES.size)),
                       dtype=complex)
        # component by component, so each is summed as it would be on its own
        rows = v.T.reshape(-1, _NODES.size)
        # einsum, not ``v @ w``: the BLAS product wakes a thread pool that burns
        # a second core without any gain in wall time
        ik.append(h * np.einsum("ij,j->i", rows, _WK).reshape(-1, pa.size))
        ig.append(h * np.einsum("ij,j->i", rows, _WG).reshape(-1, pa.size))
    ik, ig = (ik[0], ig[0]) if len(ik) == 1 else (np.concatenate(ik, axis=1),
                                                  np.concatenate(ig, axis=1))
    err = np.abs(ik - ig)
    if owner is None:
        return [ik], [err], v.ndim == 1
    ends = np.cumsum(sizes).tolist()
    return ([ik[:, e - n:e] for n, e in zip(sizes, ends)],
            [err[:, e - n:e] for n, e in zip(sizes, ends)], v.ndim == 1)


def integrate_radial(
    spec: IntegrandSpec,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> QuadResult:
    """Integrate spec.evaluate over its support to the configured tolerances.

    Every integral of the package goes through this one rule, alone or
    in lockstep with others (``integrate_lockstep``), and its caller
    states the range.

    The reported ``abs_error`` satisfies
    abs_error <= max(tol_abs, tol_rel*|value|) on success, for every
    component of a k-component integrand, within ``eval_budget``
    evaluations; otherwise a ConvergenceFailure carrying the best
    available result is raised, also when the initial partition alone
    holds more than ``eval_budget`` evaluations.  A one-component
    integrand gives a complex value and a float error, a k-component one
    length-k arrays of both.
    """
    (out,) = integrate_lockstep([spec], lambda x, owner: spec.evaluate(x), settings)
    if isinstance(out, ConvergenceFailure):
        raise out
    return out


def integrate_lockstep(
    specs: list[IntegrandSpec],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> list[QuadResult | ConvergenceFailure]:
    """``integrate_radial`` of every spec, advanced round by round together.

    Each integral keeps its own partition, refinement, panel order,
    sums, budget and failure, so its result is the one it gets alone;
    what they share is the evaluate call.  A round evaluates the pending
    panels of every unfinished integral in calls of at most ``_CHUNK``
    nodes, ``evaluate(x, owner)``, where owner[i] is the index in
    ``specs`` of the integral that node x[i] belongs to (None for a
    single spec); it must equal ``specs[owner[i]].evaluate`` at x[i],
    and every spec must have the same number of components.  Returns,
    in spec order, the result or the ConvergenceFailure
    ``integrate_radial`` would raise.
    """
    a, b, evals, spans = [], [], [], []
    for spec in specs:
        edges = _initial_panels(spec)
        a.append(edges[:-1])
        b.append(edges[1:])
        evals.append(15 * (edges.size - 1))
        # its range, and the width below which a panel is not bisected
        lo, hi = spec.support
        spans.append((hi - lo, 64.0 * _EPS * max(abs(lo), abs(hi))))
    active = list(range(len(specs)))
    group = len(specs) > 1
    vals, errs, scalar = _gk15(evaluate, a, b, active if group else None)
    out: list = [None] * len(specs)
    while active:
        keep, new_a, new_b = {}, [], []
        for i in active:
            value, error = vals[i].sum(axis=1), errs[i].sum(axis=1)
            best = (QuadResult(complex(value[0]), float(error[0]), evals[i]) if scalar
                    else QuadResult(value, error, evals[i]))
            target = np.maximum(settings.tol_abs, settings.tol_rel * np.abs(value))
            if (error <= target).all() and evals[i] <= settings.eval_budget:
                out[i] = best
                continue
            width = b[i] - a[i]
            span, min_width = spans[i]
            refine = ((errs[i] > target[:, None] * width / span).any(axis=0)
                      & (width > min_width))
            n_new = 2 * int(refine.sum())
            if evals[i] + 15 * n_new > settings.eval_budget:
                out[i] = ConvergenceFailure(
                    f"integrate_radial: evaluation budget {settings.eval_budget} exhausted", best)
                continue
            if not n_new:
                out[i] = ConvergenceFailure(
                    "integrate_radial: panels at roundoff width before reaching tolerance", best)
                continue
            ra, rb = a[i][refine], b[i][refine]
            mid = 0.5 * (ra + rb)
            a[i] = np.concatenate([a[i][~refine], ra, mid])
            b[i] = np.concatenate([b[i][~refine], mid, rb])
            keep[i] = ~refine
            new_a.append(np.concatenate([ra, mid]))
            new_b.append(np.concatenate([mid, rb]))
            evals[i] += 15 * n_new
        active = list(keep)
        if active:
            new_vals, new_errs, _ = _gk15(evaluate, new_a, new_b, active if group else None)
            for i, nv, ne in zip(active, new_vals, new_errs):
                vals[i] = np.concatenate([vals[i][:, keep[i]], nv], axis=1)
                errs[i] = np.concatenate([errs[i][:, keep[i]], ne], axis=1)
    return out
