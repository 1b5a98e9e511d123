"""Adaptive Gauss-Kronrod quadrature with explicit handling of interior
singular points, in numpy and the standard library.

The interval is cut at every supplied interior point.  Each cut interval
[lo, hi] of width w is reached from t in [0, 1] by the end map
y = lo + w t^2 (3 - 2t), whose Jacobian 6 w t (1 - t) vanishes at both
ends: an inverse-square-root singularity at a cut point becomes a bounded
integrand in t, and no node lands on a cut point.  Each panel of t is
integrated by the 15-point Kronrod rule, and its error is estimated as
QUADPACK's qk15 does, from the gap to the embedded 7-point Gauss rule.
Global adaptive bisection splits the panel with the largest estimate
until the summed estimate is at most max(tol, tol |integral|).

The integrand follows the package's array convention: it is called once
per panel, on the array of its 15 nodes, and returns an array of the same
shape.  A callable that rejects arrays, or returns another shape, is
called once per node with a Python float instead (`domain.forward_values`).

Nothing in the package integrates in y: every density it makes is a Young
density, whose set masses are exact preimage lengths (see `measures`).
The rule serves test functions, integrated in x against a Young measure,
and the Bolza functional; `import oscym` registers this module unexecuted,
so it runs, and loads `heapq`, on the first integral.  The end map and
the cuts serve singular integrands in y, which only reference integrals
outside the package still have.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

import numpy as np

from .domain import forward_values
from .errors import QuadratureError

QUAD_TOL = 1e-9
MAX_SUBDIVISIONS = 2000

# QUADPACK's qk15 abscissae on [-1, 1] from the end inwards, with the
# Kronrod weights and the Gauss weights of every other abscissa
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.0, 0.129484966168869693270611432679082, 0.0,
       0.279705391489276667901467771423780, 0.0,
       0.381830050505118944950369775488975, 0.0)
_WG0 = 0.417959183673469387755102040816327

_NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
_KRONROD = np.array(list(_WK) + [_WK0] + list(reversed(_WK)))
_GAUSS = np.array(list(_WG) + [_WG0] + list(reversed(_WG)))
_EPS = np.finfo(float).eps


def _kronrod(values: np.ndarray, h: float) -> tuple[float, float]:
    """Kronrod value over a panel of half-width h, from the integrand's
    values at its nodes (centre + h * _NODES), and QUADPACK's estimate of
    its error."""
    k = float(_KRONROD @ values)
    asc = h * float(_KRONROD @ np.abs(values - 0.5 * k))
    err = abs(h * (k - float(_GAUSS @ values)))
    if asc and err:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    return h * k, max(err, 50.0 * _EPS * h * float(_KRONROD @ np.abs(values)))


def _panel(fn: Callable, lo: float, hi: float,
           t0: float, t1: float) -> tuple[float, float]:
    """Value and error estimate of fn over the part of [lo, hi] that the
    end map takes [t0, t1] to, from one call of fn on the panel's nodes."""
    h = 0.5 * (t1 - t0)
    t = (t0 + h) + h * _NODES
    s = 1.0 - t
    w = hi - lo
    # offsets from the nearer end keep nodes near hi off hi itself
    ys = np.where(t <= 0.5, lo + w * (t * t * (3.0 - 2.0 * t)),
                  hi - w * (s * s * (3.0 - 2.0 * s)))
    values = forward_values(fn, ys)
    bad = ~np.isfinite(values)
    if bad.any():
        raise QuadratureError(f"integrand is not finite at y={ys[bad][0]}")
    return _kronrod(values * (6.0 * w * t * s), h)


def integrate(
    fn: Callable,
    a: float,
    b: float,
    points: Iterable[float] = (),
    tol: float = QUAD_TOL,
) -> float:
    """Integrate fn over [a, b], splitting at the given interior points.

    Raises QuadratureError when the integrand is not finite at a node, or
    when after MAX_SUBDIVISIONS panels the summed error estimate stays
    above 100 times the requested max(tol, tol |integral|).
    """
    if b <= a:
        return 0.0
    cuts = sorted({float(p) for p in points if a < p < b})
    edges = [float(a), *cuts, float(b)]
    heap = []  # (-error, value, lo, hi, t0, t1): the worst panel first
    for lo, hi in zip(edges[:-1], edges[1:]):
        value, err = _panel(fn, lo, hi, 0.0, 1.0)
        heap.append((-err, value, lo, hi, 0.0, 1.0))
    heapq.heapify(heap)
    total = math.fsum(p[1] for p in heap)
    err = -math.fsum(p[0] for p in heap)
    while err > max(tol, tol * abs(total)) and len(heap) < MAX_SUBDIVISIONS:
        neg_err, value, lo, hi, t0, t1 = heapq.heappop(heap)
        tm = 0.5 * (t0 + t1)
        if not t0 < tm < t1:  # one ulp wide: bisection is spent
            heapq.heappush(heap, (neg_err, value, lo, hi, t0, t1))
            break
        total -= value
        err += neg_err
        for u0, u1 in ((t0, tm), (tm, t1)):
            v, e = _panel(fn, lo, hi, u0, u1)
            heapq.heappush(heap, (-e, v, lo, hi, u0, u1))
            total += v
            err += e
    total = math.fsum(p[1] for p in heap)
    err = -math.fsum(p[0] for p in heap)
    if not math.isfinite(total) or err > max(tol, abs(total) * tol) * 100:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: estimated error {err:.3e}"
        )
    return total
