"""Gauss-Legendre quadrature on cached numpy rules (Golub & Welsch, Math.
Comp. 23, 1969) for the n = 3 reference solution and the bound oracles."""

from __future__ import annotations

import functools

import numpy as np

_ORDER, _BUDGET = 20, 200  # nodes per 1-D panel; panels one interval may use


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)  # (nodes, weights) on [-1, 1]; loads numpy.polynomial


def integrate(f, lo, hi, rtol: float) -> np.ndarray:
    """Integral of f (array to array) over each [lo_i, hi_i], all in one pass.

    A panel is accepted when its halves agree with it to within its share
    of the interval times rtol times the running integral of |f| (that of
    f can cancel to 0), and bisected otherwise.  Raises ArithmeticError on
    a non-finite panel or when an interval needs more than _BUDGET panels,
    and ValueError unless each lo_i <= hi_i and both are finite.
    """
    x, w = gauss_legendre(_ORDER)
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
        raise ValueError("quadrature bounds must be finite with lo <= hi")

    def panels(a, b):
        half = 0.5 * (b - a)[:, None]
        v = f(0.5 * (a + b)[:, None] + half * x) * half
        return v @ w, np.abs(v) @ w

    n = lo.size
    owner, a, b, (whole, _) = np.arange(n), lo, hi, panels(lo, hi)
    done, done_abs, used = np.zeros(n), np.zeros(n), np.ones(n)
    while owner.size:
        used += 2 * np.bincount(owner, minlength=n)
        if np.any(used > _BUDGET):
            raise ArithmeticError(f"quadrature needs more than {_BUDGET} panels; is the integrand integrable?")
        m = 0.5 * (a + b)
        (left, left_abs), (right, right_abs) = panels(a, m), panels(m, b)
        fine, fine_abs = left + right, left_abs + right_abs
        if not np.all(np.isfinite(fine)):
            raise ArithmeticError("non-finite integrand in a quadrature panel")
        scale = (done_abs + np.bincount(owner, fine_abs, n))[owner]
        ok = np.abs(fine - whole) * (hi - lo)[owner] <= rtol * scale * (b - a)
        done += np.bincount(owner[ok], fine[ok], n)
        done_abs += np.bincount(owner[ok], fine_abs[ok], n)
        owner, a, b = np.tile(owner[~ok], 2), np.r_[a[~ok], m[~ok]], np.r_[m[~ok], b[~ok]]
        whole = np.r_[left[~ok], right[~ok]]
    return done


def integrate_triangle(f, points, rtol: float) -> np.ndarray:
    """Integral of f(s, tau) over 0 <= tau <= t, |s - r| <= t - tau for each
    (t, r) of points: the triangle is mapped onto [-1, 1]^2 by
    tau = t (1+x)/2, s = r + (t-tau) y, and tensor rules of order 8, 16,
    ..., 128 run until two successive orders agree to rtol.  Raises
    ArithmeticError when they never do."""
    t, r = np.array(points, dtype=float).reshape(-1, 2).T[..., None]
    previous = None
    for order in (8, 16, 32, 64, 128):
        x, w = gauss_legendre(order)
        tau = 0.5 * t * (1.0 + x)
        values = f(r[..., None] + (t - tau)[..., None] * x, tau[..., None]) @ w
        integral = 0.5 * t[:, 0] * ((values * (t - tau)) @ w)
        if previous is not None and np.all(np.abs(integral - previous) <= rtol * np.abs(integral)):
            return integral
        previous = integral
    raise ArithmeticError(f"triangle quadrature did not reach rtol {rtol} at order 128")
