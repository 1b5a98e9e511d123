"""Adaptive quadrature with explicit handling of interior singular points.

Thin wrapper around scipy's QUADPACK routines: the interval is split at
every supplied interior point, so integrable singularities sit at
subinterval endpoints where the Gauss-Kronrod nodes never land.

Set masses of Young measures never come here: they are exact preimage
lengths (see `measures`).  QUADPACK serves generic densities, test-function
integrals and the Bolza functional, so scipy is imported on the first call
rather than with the package.
"""
from __future__ import annotations

import warnings
from typing import Callable, Iterable

from .errors import QuadratureError

QUAD_TOL = 1e-9
MAX_SUBDIVISIONS = 2000


def integrate(
    fn: Callable[[float], float],
    a: float,
    b: float,
    points: Iterable[float] = (),
    tol: float = QUAD_TOL,
    limit: int = MAX_SUBDIVISIONS,
) -> float:
    """Integrate fn over [a, b], splitting at the given interior points.

    Raises QuadratureError when the estimated error stays above tolerance.
    """
    if b <= a:
        return 0.0
    from scipy import integrate as _si

    cuts = sorted({float(p) for p in points if a < p < b})
    edges = [a, *cuts, b]
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=_si.IntegrationWarning)
            val, abserr = _si.quad(fn, lo, hi, epsabs=tol, epsrel=tol * 10, limit=limit)
        total += val
        err += abserr
    if err > max(tol, abs(total) * tol) * 100:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: estimated error {err:.3e}"
        )
    return total
