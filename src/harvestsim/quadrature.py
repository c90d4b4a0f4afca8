"""Adaptive evaluation of integrals over a finite interval.

Every integrand states its own interval, its ``support``, its singular
points (kinks, removable singularities or the edges of smoothed steps)
and its peaks, each with its own width.  The interval is covered by
initial panels that start at the singular points, grow geometrically
away from each peak from its width, and span up to two periods of the
fastest oscillation, so that most integrals meet their tolerance on
them; the adaptive loop refines them where the integrand demands it.
Each panel is integrated by a 15-point Gauss-Kronrod rule with the
embedded 7-point Gauss rule as the error estimate; panels failing a
width-proportional share of the error budget are bisected.  An
integrand may have k components, several integrals over one partition
that share each evaluation: each component keeps its own error budget,
and a panel is bisected when any of them misses its share.  Everything
is deterministic.

Several integrals, each on its own partition, can advance in lockstep
(``integrate_lockstep``): each round evaluates the pending panels of all
of them together, in calls of at most ``_CHUNK`` nodes that also name
the integral each node belongs to, and each integral then keeps its own
sums, refinement, budget and failure, exactly as it would alone.
``integrate_radial`` is that loop with a group of one, whose nodes all
name integral 0: no step of the loop tells one integral from many.
Each member starts from its own ``_initial_panels``, whatever the
group's size, and a member whose first partition cannot be built fails
alone.  A group keeps its unfinished integrals' panels, sums and errors
in arrays, rebuilt each round, so its memory grows with their total
panels.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
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
_WEIGHTS = np.zeros((2, 15))                                         # Kronrod, then Gauss
_WEIGHTS[0] = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WEIGHTS[1, 1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class IntegrandSpec:
    """One integrand: a vectorized evaluator plus where its features are.

    ``evaluate`` maps an ndarray of n abscissae to n complex values, or
    to an (n, k) array for k integrals over the same support, and must
    be free of singularities (removable ones filled by the caller);
    ``support`` is the finite interval (lo, hi) integrated over;
    ``max_phase_rate`` bounds |d(phase)/dw| of any oscillatory factor;
    ``singular_points`` are kinks, removable-singularity locations or
    edges of smoothed steps, in any order, used only as panel anchors;
    ``peaks`` are ``(position, width)`` pairs, a core of that width at that
    position with tails beyond it, graded out to the whole support.
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
        lo, hi = self.support
        if not (lo < hi and math.isfinite(hi - lo)):  # a finite width has finite ends
            raise ValueError("IntegrandSpec: support must be an interval lo < hi of finite width")
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
        if not (all(0.0 <= x < math.inf for x in e.ravel().tolist()) if isinstance(e, np.ndarray)
                else 0.0 <= e < math.inf):
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
    """Raised when a result misses its tolerance: a quadrature whose next
    refinement would exceed the evaluation budget, one whose panels left
    to refine are all at roundoff width, or a smear whose summed parts'
    error exceeds its tolerance (``core._sum_request``).  Carries the best
    result."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


_EPS = float(np.finfo(float).eps)
# Nodes per evaluate call: about the fastest size.  The I_AB/J integrand of
# fig2a's 200 separations costs 1000, 460, 375, 440 and 565 ns a node in
# calls of 300, 1,500, 3,000, 6,000 and 60,000 nodes (2-vCPU x86-64): below
# it the fixed cost of a call dominates, above it the working arrays leave
# the cache.  It also caps the memory of an evaluate call, however many panels.
_CHUNK = 3000
# 0, -0, 1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11, -11, 15, -15, ..., +-(2^k - 1)
# up to the largest finite power: a peak's graded edges in units of its width,
# for any number of doublings.  The edges 2, 5 and 11, 3*2^(j-1) - 1 for the
# first three doublings, halve the panels where a Gaussian core meets its tail.
_STEPS = sorted([2.0 ** k - 1.0 for k in range(1024)] + [2.0, 5.0, 11.0])
_SIGNED_STEPS = [x for k in _STEPS for x in (k, -k)]


def _initial_panels(spec: IntegrandSpec) -> np.ndarray:
    """Edges of the starting partition of the support.

    Singular points are anchors, and so are the edges of panels that grow
    away from each peak at 0, 1, 2, 3, 5, 7, 11, 15, then 2^k - 1 of its
    own width: they double in width, and the first three doublings, where
    a Gaussian core meets its tail, are halved.  Each peak is graded over
    its own doublings, out past the range; one outside the range grades
    from the nearer end, from its distance if that is larger.  Anchors
    within rounding of each other or of an end are merged, so a peak an
    ulp inside the range starts the same partition as one on its end.
    Each piece between anchors is cut evenly into panels no wider than two
    periods, 4*pi/max_phase_rate, of the fastest phase, so every edge
    comes from a feature the integrand declares.  Where such a panel is
    too wide for the tolerance, the adaptive loop of ``integrate_radial``
    bisects it, so evaluations go only where the integrand needs them.
    One too large for an int64 or for memory, or a support whose ratio to a
    peak's width or to the cap overflows a float, is a ValueError naming them.
    """
    lo, hi = spec.support
    cap = 4.0 * math.pi / spec.max_phase_rate if spec.max_phase_rate > 0.0 else math.inf
    if (hi - lo) / cap == math.inf:  # math.ceil below cannot take inf
        raise ValueError(f"integrate_radial: the support ({lo:.3g}, {hi:.3g}) is too wide "
                         f"for panels of {cap:.3g}: their ratio overflows a float")
    points = list(spec.singular_points)
    for p, s in spec.peaks:
        q = min(max(p, lo), hi)
        width = max(s, abs(p - q))
        ratio = (hi - lo) / width
        if ratio == math.inf:
            raise ValueError(f"integrate_radial: the support ({lo:.3g}, {hi:.3g}) is too wide "
                             f"for a peak {width:.3g} wide: their ratio overflows a float")
        doublings = math.ceil(math.log2(ratio + 1.0)) + 1
        points += [q + width * k for k in _SIGNED_STEPS[:2 * (doublings + 4)]]
    tiny = 64.0 * _EPS * max(abs(lo), abs(hi))
    anchors = [lo]
    for x in sorted(x for x in points if lo + tiny < x < hi - tiny):
        if x - anchors[-1] > tiny:
            anchors.append(x)
    if math.ceil((hi - lo) / cap - 1e-9) <= 1:  # monotone rounding: no piece is cut
        return np.array([x + 0.0 for x in anchors] + [hi])  # a + 0*d below: -0.0 is 0.0
    a = np.array(anchors + [hi])
    d = a[1:] - a[:-1]
    # the slack keeps a piece one rounding wider than the cap in one panel
    n = np.maximum(1.0, np.ceil(d / cap - 1e-9))
    ends = np.cumsum(n)
    if not ends[-1] < 2.0 ** 63:  # counted in floats, before the cast can wrap
        raise ValueError(f"integrate_radial: a first partition of {ends[-1]:.3g} panels "
                         "does not fit an int64")
    try:  # per panel the piece it cuts; numpy refuses at once what it cannot allocate
        piece = np.repeat(np.arange(n.size), n.astype(np.int64))
    except MemoryError:
        raise ValueError(f"integrate_radial: a first partition of {ends[-1]:.3g} panels "
                         "does not fit in memory") from None
    first = (ends - n)[piece]  # and that piece's first panel
    edges = a[piece] + d[piece] * (np.arange(piece.size) - first) / n[piece]
    return np.append(edges, hi)


def _gk15(evaluate, a: np.ndarray, b: np.ndarray, owner: np.ndarray) -> tuple:
    """Vectorized GK15 on the panels a[i], b[i] of integral owner[i] (all
    zeros for a group of one), in evaluate calls of at most ``_CHUNK``
    nodes.  Returns the kronrod sums and |K-G| errors, each of shape
    (k, panels), and whether the integrand has one component."""
    step = _CHUNK // _NODES.size
    sums = []
    for start in range(0, a.size, step):
        pa, pb = a[start:start + step], b[start:start + step]
        c = 0.5 * (pa + pb)
        h = 0.5 * (pb - pa)
        x = c[:, None] + h[:, None] * _NODES[None, :]
        v = np.asarray(evaluate(x.ravel(), np.repeat(owner[start:start + step], _NODES.size)),
                       dtype=complex)
        # component by component, so each is summed as it would be on its own;
        # einsum, not ``v @ w``: the BLAS product wakes a thread pool that burns
        # a second core without any gain in wall time
        rows = v.T.reshape(-1, _NODES.size)
        sums.append(h * np.einsum("ij,kj->ki", rows, _WEIGHTS).reshape(2, -1, pa.size))
    ik, ig = np.concatenate(sums, axis=2)
    return ik, np.abs(ik - ig), v.ndim < 2


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
    return _unwrap(out)


def _unwrap(slot):
    """The result a group's or a plan's slot holds; raises its exception instead."""
    if isinstance(slot, Exception):
        raise slot
    return slot


def integrate_lockstep(
    specs: list[IntegrandSpec],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> list[QuadResult | ConvergenceFailure | ValueError]:
    """``integrate_radial`` of every spec, advanced round by round together.

    Each integral keeps its own partition, refinement, panel order,
    sums, budget and failure, so its result is the one it gets alone;
    what they share is the evaluate call.  A round evaluates the pending
    panels of every unfinished integral in calls of at most ``_CHUNK``
    nodes, ``evaluate(x, owner)``, where owner[i] is the index in
    ``specs`` of the integral that node x[i] belongs to (all zeros for
    a single spec); it must equal ``specs[owner[i]].evaluate`` at x[i],
    and every spec must have the same number of components.  Returns,
    in spec order, the result or the ConvergenceFailure
    ``integrate_radial`` would raise.  Each member's first partition is
    its ``_initial_panels``; a member whose partition cannot be built,
    or whose sums are not finite, fails alone, its slot holding a
    ValueError that says which.
    """
    m, out, edges = len(specs), [None] * len(specs), []
    for i, spec in enumerate(specs):  # one that cannot be built fails alone
        try:
            edges.append(_initial_panels(spec))
        except ValueError as exc:
            out[i] = exc
            edges.append(np.array(spec.support[:1]))  # no panels
    a, b = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    counts = [e.size - 1 for e in edges]
    owner, evals = np.repeat(np.arange(m), counts), [15 * n for n in counts]
    active = [i for i, res in enumerate(out) if res is None]
    vals, errs, scalar = _gk15(evaluate, a, b, owner) if active else [None] * 3
    span = None
    while active:
        stops = list(accumulate(counts))
        value, error = (np.array([x[:, stops[i] - counts[i]:stops[i]].sum(axis=1) for i in active])
                        for x in (vals, errs))  # each integral's sums over its own panels
        tol = np.maximum(settings.tol_abs, settings.tol_rel * np.abs(value))
        done = (error <= tol).all(axis=1).tolist()
        finite = np.isfinite(error).all(axis=1).tolist()
        sums = zip(value[:, 0].tolist(), error[:, 0].tolist()) if scalar else zip(value, error)
        for i, (v, e), ok in zip(active, sums, finite):  # its best so far, if it has one
            out[i] = QuadResult(v, e, evals[i]) if ok else ValueError(
                "integrate_radial: the integrand's sums are not finite (nan or inf)")
        pending = [i for i, ok, f in zip(active, done, finite)
                   if f and (not ok or evals[i] > settings.eval_budget)]
        if not pending:
            break
        if span is None:  # each range, and the width below which a panel is not bisected
            span, min_width = np.array([(hi - lo, 64.0 * _EPS * max(abs(lo), abs(hi)))
                                        for lo, hi in (spec.support for spec in specs)]).T
        target = np.zeros((vals.shape[0], m))
        target[:, active] = tol.T
        width = b - a
        refine = (errs > target[:, owner] * width / span[owner]).any(axis=0) & (width > min_width[owner])
        n_new = (2 * np.bincount(owner[refine], minlength=m)).tolist()
        active = []
        for i in pending:
            if evals[i] + 15 * n_new[i] > settings.eval_budget:
                out[i] = ConvergenceFailure(
                    f"integrate_radial: evaluation budget {settings.eval_budget} exhausted", out[i])
            elif not n_new[i]:
                out[i] = ConvergenceFailure(
                    "integrate_radial: panels at roundoff width before reaching tolerance", out[i])
            else:
                active.append(i)
                evals[i] += 15 * n_new[i]
        if not active:
            break
        # each unfinished integral's unrefined panels in order, then left halves, then
        # right; the stable sort brings each integral's panels together in that order
        alive = np.bincount(active, minlength=m) > 0
        split, stay = refine & alive[owner], ~refine & alive[owner]
        kept, mid = int(stay.sum()), 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[stay], a[split], mid]), np.concatenate([b[stay], mid, b[split]])
        owner = np.concatenate([owner[stay], owner[split], owner[split]])
        order = np.argsort(owner.astype(np.min_scalar_type(m)), kind="stable")
        a, b, owner, new = a[order], b[order], owner[order], order >= kept
        counts = np.bincount(owner, minlength=m).tolist()
        grown = [np.empty((x.shape[0], a.size), dtype=x.dtype) for x in (vals, errs)]
        fresh = _gk15(evaluate, a[new], b[new], owner[new])
        for y, x, z in zip(grown, (vals, errs), fresh):
            y[:, ~new], y[:, new] = x[:, stay], z
        vals, errs = grown
    return out
