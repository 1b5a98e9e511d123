"""Check one oscym CLI output against its closed-form reference.

A check returns a list of problems.  Each problem carries the name of the
known defect it matches, or None when it matches none: the known defects
are the ones ROADMAP item 4 reproduces at the seed commit.  A problem is
tagged only after the rest of the output has been checked with the defect
allowed for, so a tagged output is right in every other respect.

Every problem makes the invocation fail.  `correct` in the benchmark result
is false as soon as one problem carries no tag.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import reference as ref

KNOWN_DEFECTS = {
    "power_exit3": "a power piece with exponent > 1 on [0, b] divides by zero "
                   "at y = 0, so the command exits 3",
    "boundary_double_count": "a value on an interior piece-image boundary counts "
                             "every touching piece, not the half-open [lo, hi) one",
    "json_nonfinite": "--format json writes a bare Infinity or NaN, which is not JSON",
    "ragged_measure_csv": "measure CSV puts 3-column atom rows under its "
                          "2-column y,g header",
}

DENSITY_RTOL = 1e-6   # finite-difference slopes of bisection-inverted pieces
DENSITY_ATOL = 1e-9
MASS_ATOL = 1e-7      # QUADPACK set masses at the CLI's quad_tol of 1e-9
ATOM_ATOL = 1e-12
GRID_RTOL = 1e-12


@dataclass
class Job:
    """One CLI invocation and what its output must be."""

    argv: list[str]
    ref: Optional[ref.FunctionRef] = None  # the spec behind --input
    out: Optional[str] = None   # --out path, relative to the work directory
    params: dict = field(default_factory=dict)  # reference inputs of spec-free commands

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.opt("--format", "csv")

    def opt(self, name: str, default):
        if name in self.argv:
            return type(default)(self.argv[self.argv.index(name) + 1])
        return default


Problem = tuple[Optional[str], str]


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str, problems: list[Problem]):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        if "non-finite JSON constant" not in str(exc):
            problems.append((None, f"output is not JSON: {exc}"))
            return None
    problems.append(("json_nonfinite", "bare Infinity/NaN in JSON output"))
    return json.loads(text)


def parse_csv(text: str, problems: list[Problem], command: str):
    """Header and rows; ragged rows are reported, then kept for checking."""
    lines = text.splitlines()
    if not lines:
        problems.append((None, "empty CSV output"))
        return None, []
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    ragged = [r for r in rows if len(r) != len(header)]
    if ragged:
        atom_rows = all(r[0] == "atom" and len(r) == 3 for r in ragged)
        tag = "ragged_measure_csv" if command == "measure" and atom_rows else None
        problems.append((tag, f"{len(ragged)} row(s) of {len(ragged[0])} fields "
                              f"under a {len(header)}-field header"))
    return header, rows


def _floats(row, problems) -> Optional[list[float]]:
    try:
        return [float(v) for v in row]
    except ValueError:
        problems.append((None, f"non-numeric CSV row {row}"))
        return None


def _expect_header(header, want, problems):
    if header != list(want):
        problems.append((None, f"CSV header {header}, expected {list(want)}"))


def _check_grid(pairs, fref: ref.FunctionRef, span, grid, scale, problems):
    """(y, value) pairs against linspace(span, grid) and the reference
    total slope times `scale`."""
    if len(pairs) != grid:
        problems.append((None, f"{len(pairs)} grid rows, expected {grid}"))
        return
    want_y = np.linspace(span[0], span[1], grid)
    y_tol = GRID_RTOL * max(1.0, abs(span[0]), abs(span[1]))
    doubled, wrong = [], []
    for (y, v), wy in zip(pairs, want_y):
        if abs(y - wy) > y_tol:
            wrong.append(f"y={y!r} where the grid has {float(wy)!r}")
            continue
        want = fref.total_slope(y) * scale
        if close(v, want, DENSITY_RTOL, DENSITY_ATOL):
            continue
        if close(v, fref.total_slope(y, closed=True) * scale, DENSITY_RTOL, DENSITY_ATOL):
            doubled.append(y)
        else:
            wrong.append(f"{v!r} at y={y!r}, expected {want!r}")
    for msg in wrong[:3]:
        problems.append((None, msg))
    if len(wrong) > 3:
        problems.append((None, f"... and {len(wrong) - 3} more wrong grid values"))
    if doubled:
        problems.append(("boundary_double_count",
                         f"{len(doubled)} value(s) double counted, first at y={doubled[0]!r}"))


def _check_atoms(atoms, fref: ref.FunctionRef, problems):
    want = fref.atoms
    if len(atoms) != len(want) or any(
            abs(a[0] - w[0]) > ATOM_ATOL or abs(a[1] - w[1]) > ATOM_ATOL
            for a, w in zip(sorted(atoms), want)):
        problems.append((None, f"atoms {atoms}, expected {list(want)}"))


def _json_result(obj, command, problems):
    if not isinstance(obj, dict) or obj.get("command") != command or "result" not in obj:
        problems.append((None, f"JSON output is not a {command!r} payload"))
        return None
    return obj["result"]


# -- one checker per command -------------------------------------------------

def check_validate(job, text, rc, problems):
    if job.fmt == "json":
        res = _json_result(parse_json(text, problems), "validate", problems)
        if res is not None and (res.get("valid") is not True or res.get("violations")):
            problems.append((None, f"validate reported {res}"))
    else:
        header, rows = parse_csv(text, problems, "validate")
        _expect_header(header, ("code", "piece", "message", "measured"), problems)
        if rows:
            problems.append((None, f"violations on a valid spec: {rows}"))
    return 0


def _grid_command(job, text, problems, key, header_want, span, scale):
    grid = job.opt("--grid", 1024)
    if job.fmt == "json":
        res = _json_result(parse_json(text, problems), job.command, problems)
        pairs = res.get(key) if isinstance(res, dict) else None
        extra = res
    else:
        header, rows = parse_csv(text, problems, job.command)
        _expect_header(header, header_want, problems)
        pairs = [r for r in rows if r and r[0] != "atom"]
        extra = [r for r in rows if r and r[0] == "atom"]
        pairs = [_floats(r, problems) for r in pairs]
        if any(p is None for p in pairs):
            return None
    if pairs is None:
        problems.append((None, f"no {key} in output"))
        return None
    _check_grid([(float(y), float(v)) for y, v in pairs], job.ref, span, grid, scale, problems)
    return extra


def check_density(job, text, rc, problems):
    f = job.ref
    _grid_command(job, text, problems, "grid", ("y", "g"), f.range_K, 1.0 / f.measure_M)
    return 0


def check_slope(job, text, rc, problems):
    _grid_command(job, text, problems, "grid", ("y", "Jt"), job.ref.range_K, 1.0)
    return 0


def check_measure(job, text, rc, problems):
    f = job.ref
    extra = _grid_command(job, text, problems, "density_grid", ("y", "g"),
                          f.support, 1.0 / f.measure_M)
    if extra is None:
        return 0
    if job.fmt == "json":
        atoms = [tuple(a) for a in extra.get("atoms", [])]
        rng = extra.get("range")
        if rng is None or any(abs(a - b) > ATOM_ATOL for a, b in zip(rng, f.range_K)):
            problems.append((None, f"range {rng}, expected {list(f.range_K)}"))
    else:
        parsed = [_floats(r[1:], problems) for r in extra]
        atoms = [tuple(a) for a in parsed if a is not None and len(a) == 2]
    _check_atoms(atoms, f, problems)
    return 0


def check_verify(job, text, rc, problems):
    """Model masses against exact masses; the exit code against the rows."""
    f = job.ref
    header, rows = parse_csv(text, problems, "verify")
    _expect_header(header, ("bin_lo", "bin_hi", "model_mass", "empirical_mass",
                            "threshold"), problems)
    bins = [_floats(r, problems) for r in rows if r and r[0] != "atom"]
    atoms = [_floats(r[1:], problems) for r in rows if r and r[0] == "atom"]
    if any(b is None for b in bins) or any(a is None for a in atoms):
        return None
    n_bins, n = job.opt("--bins", 16), job.opt("--samples", 1_000_000)
    if len(bins) != n_bins:
        problems.append((None, f"{len(bins)} bins, expected {n_bins}"))
        return None
    edges = np.linspace(f.range_K[0], f.range_K[1], n_bins + 1)
    y_tol = GRID_RTOL * max(1.0, *map(abs, f.range_K))
    for (lo, hi, model, emp, thr), a, b in zip(bins, edges[:-1], edges[1:]):
        if abs(lo - a) > y_tol or abs(hi - b) > y_tol:
            problems.append((None, f"bin [{lo!r}, {hi!r}), expected [{a!r}, {b!r})"))
            continue
        exact = f.mass(lo, hi)
        if abs(model - exact) > MASS_ATOL:
            problems.append((None, f"model mass {model!r} of [{lo!r}, {hi!r}), "
                                   f"exact {exact!r}"))
        p = min(max(model, 0.0), 1.0)
        if not close(thr, 3.0 * math.sqrt(p * (1.0 - p) / n), 1e-9, 1e-15):
            problems.append((None, f"threshold {thr!r} for model mass {model!r}"))
    _check_atoms([(loc, w) for loc, w, _, _ in atoms], f, problems)
    total = sum(b[3] for b in bins) + sum(a[2] for a in atoms)
    if abs(total - 1.0) > 1e-9:
        problems.append((None, f"empirical masses sum to {total!r}"))
    within = all(abs(b[2] - b[3]) <= b[4] for b in bins) and \
        all(abs(a[1] - a[2]) <= a[3] for a in atoms)
    return 0 if within else 1


def _dyadic_rows(text, problems, command, span, depth, limit_of, residual_of):
    header, rows = parse_csv(text, problems, command)
    _expect_header(header, ("level", "k", "lo", "hi", "limit", "residual"), problems)
    want = list(ref.dyadic_sets(span[0], span[1], depth))
    if len(rows) != len(want):
        problems.append((None, f"{len(rows)} sets, expected {len(want)}"))
        return None
    worst, bad = 0.0, []
    for row, (level, k, lo, hi) in zip(rows, want):
        vals = _floats(row, problems)
        if vals is None:
            return None
        if vals[:4] != [level, k, lo, hi]:
            bad.append(f"set {row[:4]}, expected {[level, k, lo, hi]}")
            continue
        lim, res = limit_of(lo, hi), residual_of(lo, hi)
        if abs(vals[4] - lim) > MASS_ATOL or abs(vals[5] - res) > MASS_ATOL:
            bad.append(f"set {level},{k}: limit {vals[4]!r} residual {vals[5]!r}, "
                       f"expected {lim!r} and {res!r}")
        worst = max(worst, res)
    for msg in bad[:3]:
        problems.append((None, msg))
    return worst


def check_converge(job, text, rc, problems):
    """Every roubicek function has total slope 1, so each Young density is
    uniform on [0, 1]: set limits are lengths and residuals vanish."""
    depth, tol = job.opt("--depth", 6), job.opt("--tol", 1e-2)
    worst = _dyadic_rows(text, problems, "converge", (0.0, 1.0), depth,
                         lambda lo, hi: hi - lo, lambda lo, hi: 0.0)
    return None if worst is None else (0 if worst <= tol else 1)


def check_weak_cont(job, text, rc, problems):
    """Triangular family at x0 against its last sample x0 + 1/n_stop."""
    x0, n_stop = job.params["x0"], job.params["n_stop"]
    depth, tol = job.params["depth"], job.params["tol"]
    x_last = x0 + 1.0 / n_stop

    def mass(x, lo, hi):
        return ref.triangular_cdf(x, hi) - ref.triangular_cdf(x, lo)

    worst = _dyadic_rows(text, problems, "weak-cont", (0.0, 2.0), depth,
                         lambda lo, hi: mass(x0, lo, hi),
                         lambda lo, hi: abs(mass(x_last, lo, hi) - mass(x0, lo, hi)))
    return None if worst is None else (0 if worst <= tol else 1)


def check_homog(job, text, rc, problems):
    """The triangular family's slices differ, so it is not homogeneous."""
    header, rows = parse_csv(text, problems, "homog")
    _expect_header(header, ("family", "homogeneous"), problems)
    if rows != [["triangular", "False"]]:
        problems.append((None, f"homog rows {rows}, expected triangular,False"))
    return 1


def check_bolza(job, text, rc, problems):
    if "--gradient-ym" in job.argv:
        res = _json_result(parse_json(text, problems), "bolza", problems)
        atoms = [tuple(a) for a in (res or {}).get("atoms", [])]
        if len(atoms) != 2 or any(abs(a[0] - w[0]) > ATOM_ATOL or abs(a[1] - w[1]) > ATOM_ATOL
                                  for a, w in zip(atoms, ref.GRADIENT_YM)):
            problems.append((None, f"gradient Young measure {atoms}, "
                                   f"expected {list(ref.GRADIENT_YM)}"))
        return 0
    header, rows = parse_csv(text, problems, "bolza")
    _expect_header(header, ("n", "J_value", "predicted", "abs_error"), problems)
    ns = [int(v) for v in job.params["n_list"].split(",")]
    if len(rows) != len(ns):
        problems.append((None, f"{len(rows)} bolza rows, expected {len(ns)}"))
        return 0
    for row, n in zip(rows, ns):
        vals = _floats(row, problems)
        if vals is None:
            return 0
        want = ref.bolza_value(n)
        if (vals[0] != n or abs(vals[1] - want) > 1e-9
                or not close(vals[2], want, 1e-15, 0.0)
                or not close(vals[3], abs(vals[1] - vals[2]), 1e-12, 1e-18)):
            problems.append((None, f"bolza row {row}, expected J = {want!r}"))
    return 0


CHECKERS = {
    "validate": check_validate,
    "density": check_density,
    "slope": check_slope,
    "measure": check_measure,
    "verify": check_verify,
    "converge": check_converge,
    "weak-cont": check_weak_cont,
    "homog": check_homog,
    "bolza": check_bolza,
}


def check(job: Job, rc: int, stdout: str, stderr: str, out_text: Optional[str]) -> list[Problem]:
    """All problems with one invocation's exit code and output."""
    problems: list[Problem] = []
    if rc not in (0, 1):
        power = isinstance(job.ref, ref.FunctionRef) and job.ref.power_singular_at_zero
        tag = "power_exit3" if rc == 3 and power and "numeric error" in stderr else None
        last = stderr.strip().splitlines()[-1:] or [""]
        problems.append((tag, f"exit {rc}: {last[0][:200]}"))
        return problems
    if job.out is not None:
        if stdout:
            problems.append((None, "stdout not empty with --out"))
        if out_text is None:
            problems.append((None, f"--out file {job.out} missing"))
            return problems
        text = out_text
    else:
        text = stdout
    try:
        want_rc = CHECKERS[job.command](job, text, rc, problems)
    except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
        problems.append((None, f"malformed output: {exc!r}"))
        return problems
    if want_rc is not None and rc != want_rc:
        problems.append((None, f"exit {rc}, but the output implies exit {want_rc}"))
    return problems
