"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line naming the check and its
tolerance, then asserts.  Tolerances are pinned here and must not be
loosened; a failing check is a real regression.
"""
import math
import time

import numpy as np

from oscym import (
    BorelTestFamily,
    DensitySequence,
    NonhomogeneousDensityFamily,
    converge_young,
    dieudonne_check,
    dieudonne_check_measures,
    bolza_functional,
    gradient_young_measure,
    homogeneity_check,
    integrate_density,
    is_probability,
    monotone_slope_check,
    oracle_report,
    pushforward_empirical,
    relaxed_value,
    sawtooth,
    total_slope,
    weak_continuity_check,
    young_density,
    young_measure,
)
from oscym.domain import Domain1D, MOscillatingFunction
from oscym.families import (
    amplitude_tent,
    half_plateau,
    identity_map,
    roubicek,
    sine_wave,
    tent_map,
    triangular_quantile,
)
from oscym.measures import ScalarMeasureRCA, young_density_function

from conftest import ramp_density

SUITE = {
    "identity": identity_map(),
    "tent": tent_map(1.0),
    "sin": sine_wave(2),
    "half-plateau": half_plateau(),
    "nonperiodic-sawtooth-3": roubicek(3),
    "amplitude-tent-5": amplitude_tent(5),
}


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}")
    assert ok, f"{name}: {detail}"


def test_arcsine_density(bisected_sine):
    t0 = time.time()
    ys = np.linspace(-0.99, 0.99, 100)
    target = 1.0 / (np.pi * np.sqrt(1.0 - ys * ys))

    worst = {}
    for closed, tol in ((True, 1e-6), (False, 1e-4)):
        f = sine_wave(1)
        if not closed:
            f = MOscillatingFunction(f.domain, tuple(bisected_sine(p.sub_lower, p.sub_upper)
                                                     for p in f.pieces), f.range_K)
        got = np.array([young_density(f, float(y)) for y in ys])
        worst[closed] = float(np.max(np.abs(got - target) / target))
    elapsed = time.time() - t0
    ok = worst[True] <= 1e-6 and worst[False] <= 1e-4 and elapsed < 1.0
    report("arcsine density of the sine map", ok,
           f"rel err closed-form {worst[True]:.2e} (tol 1e-6), "
           f"numeric {worst[False]:.2e} (tol 1e-4), {elapsed:.2f}s (< 1s)")


def test_oracle_agreement():
    t0 = time.time()
    failures = []
    atom_err = None
    for name, f in SUITE.items():
        m = young_measure(f)
        h = pushforward_empirical(f, 1_000_000, seed=42, n_bins=16)
        rep = oracle_report(m, h, n_sigma=3)
        if not rep.within_threshold:
            failures.append(name)
        if name == "half-plateau":
            a = next(a for a in rep.atoms if abs(a.location - 0.5) < 1e-9)
            atom_err = abs(a.empirical_mass - 0.5)
    elapsed = time.time() - t0
    atom_tol = 3.0 * math.sqrt(0.25 / 1_000_000)
    ok = (not failures and atom_err is not None and atom_err <= atom_tol
          and elapsed < 10.0)
    report("Monte-Carlo pushforward agreement (6 functions, 1e6 samples)", ok,
           f"failures={failures or 'none'}, plateau atom mass err "
           f"{atom_err:.2e} (tol {atom_tol:.2e}), {elapsed:.1f}s (< 10s)")


def test_total_slope_constant_one():
    ys = np.linspace(0.0, 1.0, 103)[1:-1]
    worst = 0.0
    for n in range(1, 6):
        f = roubicek(n)
        for y in ys:
            worst = max(worst, abs(total_slope(f, float(y)) - 1.0))
    ok = worst <= 1e-9
    report("nonperiodic sawtooth total slope == 1", ok,
           f"max deviation {worst:.2e} (tol 1e-9) over n=1..5, 101-point grid")


def test_every_suite_measure_is_probability():
    bad = [name for name, f in SUITE.items()
           if not is_probability(young_measure(f), prob_tol=1e-6)]
    report("normalization of every suite measure", not bad,
           f"non-probability: {bad or 'none'} (prob_tol 1e-6)")


def test_monotone_slope_convergence():
    t0 = time.time()
    fs = [amplitude_tent(n) for n in range(1, 65)]
    y_grid = np.linspace(0.0, 2.0, 35)[1:-1]
    mono = monotone_slope_check(fs, [y for y in y_grid if y < 1.0], tol=1e-9)
    fam = BorelTestFamily((0.0, 2.0), 6)
    verdict, limit = converge_young(fs, fam, tol=1e-2, n_min=8, n_max=64)
    gap = 0.0
    if limit is not None:
        for y in np.linspace(0.01, 0.99, 33):
            gap = max(gap, abs(limit.density(float(y)) - 1.0))
    elapsed = time.time() - t0
    ok = mono and verdict.converged and limit is not None and gap <= 0.02 \
        and elapsed < 30.0
    report("monotone-slope convergence of the amplitude-tent family", ok,
           f"monotone={mono}, converged={verdict.converged} "
           f"(worst residual {verdict.worst_residual:.2e}, tol 1e-2), "
           f"limit density gap {gap:.4f} (tol 0.02), {elapsed:.1f}s (< 30s)")


def test_setwise_negative_control():
    def gen(n):
        return ramp_density(1.0 if n % 2 else 2.0)

    seq = DensitySequence(generator=gen, range_K=(0.0, 2.0), max_index=64)
    fam = BorelTestFamily((0.0, 2.0), 6)
    verdict = dieudonne_check(seq, fam, 8, 64, tol=1e-2)
    rec = next(r for r in verdict.per_set if r.level == 1 and r.index == 0)
    ok = (not verdict.converged) and rec.residual >= 0.49
    report("alternating-density negative control", ok,
           f"converged={verdict.converged} (want False), residual on [0,1] "
           f"{rec.residual:.3f} (want >= 0.49)")


def test_oscillation_functional_decay():
    worst_J = 0.0
    worst_w = 0.0
    for n in (1, 2, 4, 8, 16):
        u = sawtooth(n)
        worst_J = max(worst_J, abs(bolza_functional(u) - 1.0 / (48.0 * n * n)))
        nu = gradient_young_measure(u)
        atoms = sorted(nu.atoms)
        worst_w = max(worst_w,
                      abs(atoms[0].location + 1.0), abs(atoms[1].location - 1.0),
                      abs(atoms[0].weight - 0.5), abs(atoms[1].weight - 0.5))
    nu = gradient_young_measure(sawtooth(4))
    relaxed = relaxed_value(nu, lambda s: (s * s - 1.0) ** 2, lambda t: 1.0)
    ok = worst_J <= 1e-8 and worst_w <= 1e-12 and relaxed == 0.0
    report("sawtooth oscillation functional decay 1/(48 n^2)", ok,
           f"max |J - predicted| {worst_J:.2e} (tol 1e-8), max atom error "
           f"{worst_w:.2e} (tol 1e-12), relaxed value {relaxed!r} (want 0.0)")


def triangular_family() -> NonhomogeneousDensityFamily:
    return NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0),
        evaluator=lambda x: young_density_function(triangular_quantile(x)),
        range_K=(0.0, 2.0),
    )


def test_nonhomogeneous_triangular_family():
    fam = triangular_family()
    xs = np.linspace(0.0, 1.0, 35)[1:-1]
    worst = max(abs(integrate_density(fam.evaluator(float(x)), (0.0, 2.0)) - 1.0)
                for x in xs)
    test_sets = BorelTestFamily((0.0, 2.0), 6)
    verdict = weak_continuity_check(
        fam, [0.5 + 1.0 / n for n in range(3, 257)], 0.5, test_sets, tol=1e-2)
    homog = homogeneity_check(fam, 5, 1e-6)
    ok = worst <= 1e-8 and verdict.converged and not homog
    report("triangular nonhomogeneous density family", ok,
           f"max |mass - 1| {worst:.2e} (tol 1e-8) on 33 x-values, "
           f"weak continuity converged={verdict.converged} (tol 1e-2), "
           f"homogeneous={homog} (want False)")


def test_density_and_measure_verdicts_agree():
    families_fs = {
        "sin": [sine_wave(n) for n in range(1, 17)],
        "amplitude-tent": [amplitude_tent(n) for n in range(1, 17)],
        "nonperiodic-sawtooth": [roubicek(n) for n in range(1, 17)],
    }
    worst = 0.0
    mismatched = []
    for name, fs in families_fs.items():
        lo = min(f.range_K[0] for f in fs)
        hi = max(f.range_K[1] for f in fs)
        seq = DensitySequence(lambda n: young_density_function(fs[n - 1]), (lo, hi), len(fs))
        fam = BorelTestFamily((lo, hi), 4)
        vd = dieudonne_check(seq, fam, 4, 16, tol=1e-2)
        vm = dieudonne_check_measures(
            lambda n, _s=seq: ScalarMeasureRCA(range_K=(lo, hi),
                                               density=_s.generator(n)),
            fam, 4, 16, tol=1e-2)
        if vd.converged != vm.converged:
            mismatched.append(name)
        for a, b in zip(vd.per_set, vm.per_set):
            worst = max(worst, abs(a.residual - b.residual))
    ok = not mismatched and worst <= 1e-8
    report("density-level and measure-level verdict equivalence", ok,
           f"verdict mismatches: {mismatched or 'none'}, max residual gap "
           f"{worst:.2e} (tol 1e-8)")
