"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (invalid function, oracle
disagreement, non-convergence, non-homogeneity), 2 input error (such as a
`converge` window outside the spec's indices), 3 numeric error.  Each
subcommand takes only the options it reads.  Output is CSV or a single
JSON object {"command", "config", "result"}, whose `config` lists the
options the command read; it is written atomically (temp file + rename)
when --out is given.  Numbers are formatted with 17 significant
digits so CSV round-trips 64-bit floats exactly; the YM_SEED environment
variable overrides the --seed of `verify`.  JSON output is strict: a
non-finite number, such as a singular density value, is written as one of
the strings "inf", "-inf" and "nan".
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import convergence, families, measures, relaxation, sampling
from .convergence import BorelTestFamily, NonhomogeneousDensityFamily
from .domain import Domain1D, validate
from .errors import OscymError, PreconditionError, QuadratureError, SingularSlopeError, SpecError
from .funcspec import SequenceSpec, parse_spec
from .measures import DensityFunction

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    out = Path(out_path)
    fd, tmp = tempfile.mkstemp(dir=out.parent or Path("."), prefix=out.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(args, command: str, result: dict, csv_rows=None, csv_header=None):
    if args.format == "json":
        config = {
            k: v for k, v in vars(args).items()
            if k not in ("func",) and v is not None
        }
        payload = {"command": command, "config": config, "result": result}
        write_output(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n",
                     args.out)
    else:
        lines = []
        if csv_header:
            lines.append(",".join(csv_header))
        for row in csv_rows or []:
            lines.append(",".join(
                str(v) if isinstance(v, bool) or not isinstance(v, (int, float))
                else fmt(v)
                for v in row))
        write_output("\n".join(lines) + "\n", args.out)


def _jsonable(obj):
    """Plain JSON value of obj; non-finite floats become "inf", "-inf" or
    "nan" (json.dumps passes floats straight through, never to `default`)."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def load_function(path: str):
    text = Path(path).read_text()
    parsed = parse_spec(text)
    if isinstance(parsed, SequenceSpec):
        raise SpecError(f"{path} holds a sequence spec; a function spec is needed")
    return parsed


def load_sequence(path: str) -> SequenceSpec:
    text = Path(path).read_text()
    parsed = parse_spec(text)
    if not isinstance(parsed, SequenceSpec):
        raise SpecError(f"{path} holds a function spec; a sequence spec is needed")
    return parsed


def cmd_validate(args) -> int:
    f = load_function(args.input)
    report = validate(f)
    rows = [(v.code, "" if v.piece_index is None else v.piece_index,
             v.message, fmt(v.measured)) for v in report.violations]
    emit(args, "validate",
         {"valid": report.valid,
          "violations": [
              {"code": v.code, "piece": v.piece_index,
               "message": v.message, "measured": v.measured}
              for v in report.violations]},
         csv_rows=rows, csv_header=("code", "piece", "message", "measured"))
    return EXIT_OK if report.valid else EXIT_NEGATIVE


def _density_rows(f, grid, values_fn):
    """(y, value) rows over `grid` points of range_K, from one array call
    of values_fn(f, ys)."""
    ys = np.linspace(*f.range_K, grid)
    return list(zip(ys.tolist(), values_fn(f, ys).tolist()))


def cmd_density(args) -> int:
    f = load_function(args.input)
    rows = _density_rows(f, args.grid, measures.young_density)
    emit(args, "density",
         {"grid": [[y, g] for y, g in rows]},
         csv_rows=rows, csv_header=("y", "g"))
    return EXIT_OK


def cmd_slope(args) -> int:
    f = load_function(args.input)
    rows = _density_rows(f, args.grid, measures.total_slope)
    emit(args, "slope",
         {"grid": [[y, jt] for y, jt in rows]},
         csv_rows=rows, csv_header=("y", "Jt"))
    return EXIT_OK


def cmd_measure(args) -> int:
    f = load_function(args.input)
    m = measures.young_measure(f)
    if m.density is not None:
        ys = np.linspace(*m.density.support, args.grid)
        gs = measures.young_density(f, ys)
        density_grid = [[y, g] for y, g in zip(ys.tolist(), gs.tolist())]
    else:
        density_grid = []
    result = {
        "density_grid": density_grid,
        "atoms": [[a.location, a.weight] for a in m.atoms],
        "range": list(m.range_K),
    }
    rows = [(y, g) for y, g in density_grid]
    rows += [("atom", a.location, a.weight) for a in m.atoms]
    emit(args, "measure", result, csv_rows=rows, csv_header=("y", "g"))
    return EXIT_OK


def cmd_verify(args) -> int:
    f = load_function(args.input)
    m = measures.young_measure(f)
    h = sampling.pushforward_empirical(f, args.samples, args.seed, args.bins)
    rep = sampling.oracle_report(m, h)
    rows = [(b.lo, b.hi, b.model_mass, b.empirical_mass, b.threshold)
            for b in rep.bins]
    rows += [("atom", a.location, a.model_weight, a.empirical_mass, a.threshold)
             for a in rep.atoms]
    emit(args, "verify",
         {"discrepancy": rep.discrepancy,
          "within_threshold": rep.within_threshold,
          "threshold_sigma": rep.n_sigma,
          "bins": [b._asdict() for b in rep.bins],
          "atoms": [a._asdict() for a in rep.atoms]},
         csv_rows=rows,
         csv_header=("bin_lo", "bin_hi", "model_mass", "empirical_mass", "threshold"))
    return EXIT_OK if rep.within_threshold else EXIT_NEGATIVE


def _verdict_output(args, command, verdict, extra=None):
    rows = [(r.level, r.index, r.lo, r.hi, r.limit, r.residual)
            for r in verdict.per_set]
    result = {
        "converged": verdict.converged,
        "worst_residual": verdict.worst_residual,
        "tail_window": list(verdict.tail_window),
        "tol": verdict.tol,
        "per_set": [r._asdict() for r in verdict.per_set],
    }
    if extra:
        result.update(extra)
    emit(args, command, result, csv_rows=rows,
         csv_header=("level", "k", "lo", "hi", "limit", "residual"))


def cmd_converge(args) -> int:
    seq = load_sequence(args.input)
    n_min, n_max = args.window
    if n_min < seq.indices[0] or n_max > seq.indices[1]:
        raise SpecError(f"window [{n_min}, {n_max}] lies outside the spec's "
                        f"indices {list(seq.indices)}")
    fs = [seq.function_for(n) for n in range(1, n_max + 1)]
    lo = min(f.range_K[0] for f in fs)
    hi = max(f.range_K[1] for f in fs)
    fam = BorelTestFamily((lo, hi), args.depth)
    verdict, limit = convergence.converge_young(
        fs, fam, tol=args.tol, n_min=n_min, n_max=n_max)
    extra = None
    if limit is not None:
        extra = {"limit_atoms": [[a.location, a.weight] for a in limit.atoms]}
    _verdict_output(args, "converge", verdict, extra)
    return EXIT_OK if verdict.converged else EXIT_NEGATIVE


def _builtin_family(name: str) -> NonhomogeneousDensityFamily:
    if name == "triangular":
        return NonhomogeneousDensityFamily(
            domain=Domain1D(0.0, 1.0),
            evaluator=lambda x: DensityFunction(
                support=(0.0, 2.0),
                evaluator=families.triangular_density(x),
                breakpoints=(x, 1.0)),
            range_K=(0.0, 2.0),
        )
    if name == "uniform":
        u = DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 1.0)
        return NonhomogeneousDensityFamily(
            domain=Domain1D(0.0, 1.0), evaluator=lambda x: u, range_K=(0.0, 1.0))
    raise SpecError(f"unknown density family {name!r}")


def cmd_weak_cont(args) -> int:
    fam = _builtin_family(args.family)
    xs = [args.x0 + 1.0 / n for n in range(args.n_start, args.n_stop + 1)]
    test = BorelTestFamily(fam.range_K, args.depth)
    verdict = convergence.weak_continuity_check(
        fam, xs, args.x0, test, tol=args.tol, quad_tol=args.quad_tol)
    _verdict_output(args, "weak-cont", verdict)
    return EXIT_OK if verdict.converged else EXIT_NEGATIVE


def cmd_homog(args) -> int:
    fam = _builtin_family(args.family)
    homogeneous = convergence.homogeneity_check(
        fam, args.x_samples, args.tol, quad_tol=args.quad_tol)
    emit(args, "homog", {"homogeneous": homogeneous},
         csv_rows=[(args.family, homogeneous)], csv_header=("family", "homogeneous"))
    return EXIT_OK if homogeneous else EXIT_NEGATIVE


def cmd_bolza(args) -> int:
    if args.gradient_ym:
        g = relaxation.gradient_young_measure(relaxation.sawtooth(args.n))
        emit(args, "bolza",
             {"n": args.n,
              "atoms": [[a.location, a.weight] for a in g.atoms]},
             csv_rows=[(a.location, a.weight) for a in g.atoms],
             csv_header=("slope", "weight"))
        return EXIT_OK
    ns = [int(v) for v in args.n_list.split(",")]
    rows = []
    for n in ns:
        J = relaxation.bolza_functional(relaxation.sawtooth(n), quad_tol=args.quad_tol)
        predicted = 1.0 / (48.0 * n * n)
        rows.append((n, J, predicted, abs(J - predicted)))
    emit(args, "bolza",
         {"values": [{"n": n, "J_value": J, "predicted": p, "abs_error": e}
                     for n, J, p, e in rows]},
         csv_rows=rows, csv_header=("n", "J_value", "predicted", "abs_error"))
    return EXIT_OK


def _window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be n_min,n_max")
    a, b = int(parts[0]), int(parts[1])
    if not a < b:
        raise argparse.ArgumentTypeError("window must be increasing")
    return a, b


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oscym",
        description="Young measures of oscillating functions: densities, "
                    "pushforward verification, weak-convergence checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, input_file=True):
        if input_file:
            p.add_argument("--input", required=True, help="spec file (JSON)")
        p.add_argument("--out", default=None, help="output path (atomic write)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def grid(p):
        p.add_argument("--grid", type=int, default=measures.GRID_SIZE)

    def tol(p):
        p.add_argument("--tol", type=float, default=1e-2)

    def quad_tol(p):
        p.add_argument("--quad-tol", dest="quad_tol", type=float, default=1e-9)

    p = sub.add_parser("validate", help="check the structural invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("density", help="tabulate the Young-measure density")
    common(p)
    grid(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("slope", help="tabulate the total slope")
    common(p)
    grid(p)
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("measure", help="export the Young measure")
    common(p)
    grid(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("verify", help="compare against the Monte-Carlo oracle")
    common(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--bins", type=int, default=16)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="monotone-slope convergence check")
    common(p)
    tol(p)
    p.add_argument("--window", type=_window, default=(8, 64))
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("weak-cont", help="weak continuity of x -> h_x")
    common(p, input_file=False)
    tol(p)
    quad_tol(p)
    p.add_argument("--family", default="triangular")
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--n-start", type=int, default=3)
    p.add_argument("--n-stop", type=int, default=256)
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(func=cmd_weak_cont)

    p = sub.add_parser("homog", help="homogeneity of a density family")
    common(p, input_file=False)
    tol(p)
    quad_tol(p)
    p.add_argument("--family", default="triangular")
    p.add_argument("--x-samples", type=int, default=5)
    p.set_defaults(func=cmd_homog)

    p = sub.add_parser("bolza", help="Bolza functional on the sawtooth sequence")
    common(p, input_file=False)
    quad_tol(p)
    p.add_argument("--n-list", default="1,2,4,8,16")
    p.add_argument("--gradient-ym", action="store_true")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=cmd_bolza)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "YM_SEED" in os.environ and hasattr(args, "seed"):
        args.seed = int(os.environ["YM_SEED"])
    try:
        return args.func(args)
    except (SpecError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, SingularSlopeError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PreconditionError, OscymError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
