"""A fixed child process whose CPU time measures how fast the machine runs.

usage: python3 yardstick.py

On a shared host the same oscym call takes 15-25% more or less CPU time a
minute later, as the neighbours' load changes how fast a core runs.  This
script does the kind of work an oscym CLI child does, none of it from oscym:
a fresh interpreter imports numpy and scipy.integrate (most of oscym's
start-up), then QUADPACK integrates a pure-Python integrand that scans a
list of affine pieces (the shape of `converge`'s set masses) and numpy draws,
sorts and `unique`s 200k floats (the shape of `verify`).  The benchmark runs
it between CLI calls, on the same core, and divides each call's CPU time by
the yardstick CPU time measured around it.  It is a child process, not a
loop inside the benchmark, because the CLI children start cold and an
in-process loop, warm in the caches, tracks them much worse.
"""
import numpy as np
from scipy import integrate

# 24 rising and falling teeth on [0, 1], as in a roubicek member.
PIECES = []
for k in range(1, 25):
    lo, hi = (k - 1) / 24, k / 24
    PIECES.append((lo, hi, 24.0 if k % 2 else -24.0, (1 - k) if k % 2 else float(k)))


def density(y: float) -> float:
    total = 0.0
    for lo, hi, slope, intercept in PIECES:
        a, b = slope * lo + intercept, slope * hi + intercept
        if min(a, b) <= y < max(a, b):
            total += 1.0 / abs(slope)
    return total


def main() -> None:
    for i in range(1000):
        integrate.quad(density, 0.0, 0.5 + i % 40 / 80, limit=100, epsabs=1e-9)
    rng = np.random.Generator(np.random.Philox(2018))
    x = rng.random(200_000)
    np.unique(np.round(np.sort(np.where(x < 0.5, 2.0 * x, np.sin(3.0 * x))), 4))


if __name__ == "__main__":
    main()
