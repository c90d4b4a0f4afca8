"""Numerically stable elementary and special functions used by every integrand.

The checked functions are pure, accept scalars or numpy arrays, and
reject non-finite input eagerly, in one pass over each argument.  They
compose through private kernels that do not check again, which the
package calls; ``sinc`` and ``damped_im_erfi``, outside ``__all__``,
serve the benchmark's kernel probes and the tests.  Conventions:

* ``sinc`` is unnormalized, sinc(x) = sin(x)/x, because the Fourier
  transform of a unit rectangle is sinc(omega/2) in that convention.
* ``ediff`` is the regular difference quotient of complex exponentials,
  the building block of every rectangular-window time integral.
"""
from __future__ import annotations

import cmath

import numpy as np
from scipy.special import wofz

__all__ = ["ediff", "faddeeva_w"]

# Below this the 7th-order Taylor series of sin(x)/x is exact to < 1e-18.
_SINC_TAYLOR_CUT = 1e-2
# exp(-x^2) is 0 in double precision from |x| = 27.3 on; clipping |x| here
# keeps x^2 from overflowing.  The cut sits far past 27.3 because numpy's exp
# is several times slower on arguments from about -708 to -2000 (its
# underflow path), where a cut such as 28 would put every clipped node.
_DAMP_CUT = 1e150


def _holds(test) -> bool:
    """A comparison's truth for a scalar, or for every element of an array."""
    return bool(test.all()) if isinstance(test, np.ndarray) else bool(test)


def _check_finite(name, *values):
    # cmath checks a Python number about 100 times faster than numpy does
    for v in values:
        if not (cmath.isfinite(v) if isinstance(v, (int, float, complex))
                else np.isfinite(v).all()):
            raise ValueError(f"{name}: non-finite input")


def sinc(x):
    """Unnormalized sinc, sin(x)/x, with the removable singularity filled.

    Accepts scalars or arrays; total on finite input.
    """
    _check_finite("sinc", x)
    out = _sinc(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x)/x where |x| reaches the cut, the Taylor form only below it
    big = np.abs(x) >= _SINC_TAYLOR_CUT
    out = np.divide(np.sin(x), x, out=np.empty(x.shape), where=big)
    if not big.all():
        small = ~big
        xs = x[small]
        x2 = xs * xs
        out[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    return out


def ediff(a, b, mu):
    """(exp(i*mu*b) - exp(i*mu*a)) / mu, regular at mu = 0.

    Evaluated as i*(b-a) * exp(i*mu*(a+b)/2) * sinc(mu*(b-a)/2), which is
    entire in mu.  Requires a <= b; ``mu`` may be an array.
    """
    _check_finite("ediff", a, b, mu)
    if not _holds(a <= b):
        raise ValueError("ediff: requires a <= b")
    out = _ediff(a, b, np.asarray(mu, dtype=float))
    return complex(out) if out.ndim == 0 else out


def _ediff(a, b, mu: np.ndarray) -> np.ndarray:
    return 1j * (b - a) * np.exp(1j * mu * 0.5 * (a + b)) * _sinc(mu * (0.5 * (b - a)))


def faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2)*erfc(-iz) on the closed upper half-plane.

    Relative error <= 1e-12 over the domain, and |w(z)| <= 1 holds there:
    w(z) = pi^(-1/2) * int_0^inf exp(-t^2/4 + izt) dt on Im z >= 0.
    Raises on Im z < 0.
    """
    _check_finite("faddeeva_w", z)
    z = np.asarray(z, dtype=complex)
    if not _holds(z.imag >= 0.0):
        raise ValueError("faddeeva_w: requires Im z >= 0")
    w = _faddeeva_w(z)
    return complex(w) if w.ndim == 0 else w


def _faddeeva_w(z: np.ndarray) -> np.ndarray:
    return np.asarray(wofz(z))


def _damped_erf(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp(-y^2) * erf(x - i*y) for real x and y, without overflow: the
    clock window's Gaussian masses (``core._clock_window``) and, through
    ``damped_im_erfi``, the benchmark's and the tests' probe.

    With s the sign of x (+1 at 0),
        exp(-y^2)*erf(x - iy) = s*(exp(-y^2) - exp(-x^2) * exp(2ixy) * w(s*y + i|x|)),
    every factor of which is bounded.
    """
    s, ax = np.where(x >= 0.0, 1.0, -1.0), np.abs(x)
    z, damp = s * y + 1j * ax, np.exp(-np.square(np.minimum(ax, _DAMP_CUT)))
    live = np.broadcast_to(damp > 0.0, z.shape)  # w only where its weight is not 0
    w = np.zeros(z.shape, dtype=complex)
    w[live] = _faddeeva_w(z[live])
    return s * (np.exp(-y * y) - damp * (w * np.exp(2j * x * y)))


def damped_im_erfi(x, y):
    """exp(-x^2) * Im[Erfi(x + i*y)] without overflow, for x, y >= 0.

    Erfi(x + iy) = i*erf(y - ix), so this is Re ``_damped_erf(y, x)``:

        exp(-x^2) - exp(-y^2) * Re[w(x+iy) * exp(2ixy)].
    """
    _check_finite("damped_im_erfi", x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (_holds(x >= 0.0) and _holds(y >= 0.0)):
        raise ValueError("damped_im_erfi: requires x >= 0 and y >= 0")
    out = np.real(_damped_erf(y, x))
    return float(out) if out.ndim == 0 else out
